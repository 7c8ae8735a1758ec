//! The rule engine and the initial rule set.
//!
//! Every rule targets an invariant the workspace actually depends on
//! (see LINTS.md for the catalog with examples):
//!
//! - `nondeterministic-iteration` — iterating a `HashMap`/`HashSet` in
//!   library code; hash order varies across runs and platforms, which is
//!   exactly how byte-identical reports silently stop being byte-identical.
//! - `ambient-time` — `std::time::{SystemTime, Instant}` outside the
//!   `obs`/`bench` crates; simulated code must use `SimTime`.
//! - `ambient-randomness` — RNG sources not derived from the seeded
//!   `likelab_sim::Rng` stream family.
//! - `rng-shared-across-parallel` — an `Rng` reused inside
//!   `parallel_map`/`parallel_jobs` closures instead of a per-item
//!   `split` stream.
//! - `unwrap-in-library` — `.unwrap()`/`.expect(…)`/`panic!` in library
//!   code.
//! - `stdout-in-library` — `println!`/`print!`/`dbg!` in library code.
//! - `log-bypass` — direct ledger/graph mutation (`.ingest_columns(…)`,
//!   `.friends_mut(…)`) outside the world's recording hooks; bypassed
//!   mutations never reach the study log, so a captured log stops being
//!   replayable.
//!
//! Suppression: a `// lint:allow(rule-id): reason` pragma on the same
//! line or on immediately preceding comment lines; pre-existing findings
//! live in `lint-baseline.json` (see [`crate::baseline`]).

use crate::diagnostics::Finding;
use crate::tokenizer::{self, find_word, MaskedFile};
use crate::walk::FileKind;
use std::collections::BTreeSet;

/// Static description of one rule, for `--list-rules`, `--explain`, and
/// docs.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable identifier used in pragmas, baselines, and reports.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Multi-paragraph explanation for `--explain RULE`: why the rule
    /// exists, what it matches, and how to fix or suppress a finding.
    pub explain: &'static str,
}

/// Every rule the engine knows, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "nondeterministic-iteration",
        summary: "HashMap/HashSet iteration in library code (hash order is not deterministic)",
        explain: "Iterating a HashMap/HashSet visits entries in hash order, which differs\n\
                  across runs, platforms, and std versions. Any iteration whose order can\n\
                  reach output (report lines, log records, Vec construction) silently breaks\n\
                  the workspace's byte-identical replay contract.\n\
                  Fix: iterate a sorted Vec or a BTreeMap/BTreeSet, or collect-and-sort.\n\
                  Order-independent sinks (.count(), .sum(), .min()/.max(), collect into a\n\
                  keyed map) are recognized and allowed.\n\
                  Suppress: // lint:allow(nondeterministic-iteration): <why order cannot escape>",
    },
    RuleInfo {
        id: "ambient-time",
        summary: "std::time::{SystemTime, Instant} outside the obs/bench crates",
        explain: "Simulated code must take time from likelab_sim::SimTime so replays are\n\
                  reproducible; wall-clock reads make behavior depend on the host. Only the\n\
                  observability layer (likelab-obs) and the bench harness may read real time.\n\
                  Fix: thread SimTime through, or move the measurement into an obs span.\n\
                  Suppress: // lint:allow(ambient-time): <why wall time is required here>",
    },
    RuleInfo {
        id: "ambient-randomness",
        summary: "RNG source not derived from likelab_sim::Rng streams",
        explain: "thread_rng/OsRng/from_entropy/getrandom/RandomState inject host entropy,\n\
                  so two runs of the same seed diverge. All randomness must derive from the\n\
                  seeded likelab_sim::Rng family (seed_from_u64, split, derive_stream_seed).\n\
                  Fix: accept an Rng (or a seed) from the caller and derive from it.\n\
                  Suppress: // lint:allow(ambient-randomness): <why entropy is acceptable>",
    },
    RuleInfo {
        id: "rng-shared-across-parallel",
        summary: "Rng reused inside parallel_map/parallel_jobs instead of a split stream",
        explain: "A single Rng captured by a parallel closure is consumed in scheduling\n\
                  order, so results depend on worker count — the exact hazard the\n\
                  worker-invariance tests guard. Each parallel item must draw from its own\n\
                  stream. This rule matches rng-named captures inside a\n\
                  parallel_map/parallel_jobs span with no .split(…)/derive_stream_seed.\n\
                  Fix: let mut r = rng.split(item_index) inside the closure (DESIGN.md §4b).\n\
                  Suppress: // lint:allow(rng-shared-across-parallel): <why sharing is sound>",
    },
    RuleInfo {
        id: "unwrap-in-library",
        summary: ".unwrap()/.expect(...)/panic! in non-test library code",
        explain: "Library code that panics takes down the whole process — including the\n\
                  long-running serve loop — instead of surfacing a typed error the caller\n\
                  can handle. Binaries may exit; libraries must return Result/Option.\n\
                  Fix: propagate the error. Where the invariant is real and local, use\n\
                  .expect(\"<invariant>\") plus an allow pragma stating the invariant.\n\
                  Suppress: // lint:allow(unwrap-in-library): <the invariant>",
    },
    RuleInfo {
        id: "stdout-in-library",
        summary: "println!/print!/dbg! in library code (stdout belongs to the CLI)",
        explain: "Report bytes on stdout are part of the byte-identity contract; a stray\n\
                  println! in a library corrupts golden outputs. Libraries return\n\
                  strings/values and the CLI decides what to print; progress goes to stderr.\n\
                  Fix: return the text, or use eprintln! for diagnostics.\n\
                  Suppress: // lint:allow(stdout-in-library): <why stdout is the contract>",
    },
    RuleInfo {
        id: "log-bypass",
        summary: "ledger/graph mutated directly instead of through the world's logged hooks",
        explain: "OsnWorld records every mutation into the world log; the log is replayed\n\
                  byte-for-byte by `likelab replay` and the CI replay gate. Mutating the\n\
                  ledger or friend graph directly (.ingest_columns, .friends_mut) skips the\n\
                  log, so a captured log stops reproducing the run.\n\
                  Fix: mutate through OsnWorld (like/befriend/apply_event).\n\
                  Suppress: // lint:allow(log-bypass): <why this mutation is pre-log>",
    },
    RuleInfo {
        id: "rng-escapes-parallel",
        summary: "a typed Rng value reaches a parallel boundary through a call chain, un-split",
        explain: "Interprocedural companion to rng-shared-across-parallel: tracks values\n\
                  whose declared TYPE mentions Rng (or that are bound from Rng::…,\n\
                  .split(…), derive_stream_seed) through the call graph. If such a value —\n\
                  whatever its name — is captured by a parallel_map/parallel_jobs closure\n\
                  with no .split(…)/derive_stream_seed inside the span, every chain from the\n\
                  value's construction site to that boundary is a worker-count hazard. The\n\
                  diagnostic shows the chain: reachable via a → b → c.\n\
                  Fix: split a per-item stream inside the closure, or pass per-item seeds.\n\
                  Suppress: // lint:allow(rng-escapes-parallel): <why sharing is sound>",
    },
    RuleInfo {
        id: "panic-reachable-from-serve",
        summary: "panic/unwrap/expect/indexing reachable from the serve/tail entry points",
        explain: "The scoring service (ServeEngine::{ingest, ingest_frame, query,\n\
                  online_score}, ServeSession::handle_line, serve) and the log followers\n\
                  (TailReader::{next_record, drain}, FollowReader::poll) are long-running:\n\
                  one panic anywhere in their call graph kills the session and loses tail\n\
                  state. This rule walks the workspace call graph from those entry points\n\
                  and reports every .unwrap()/.expect(…)/panic!/unreachable!/indexing site\n\
                  it can reach, with the chain: reachable via a → b → c.\n\
                  Fix: return the error to the serve loop (it already degrades per-line),\n\
                  use .get(…) for lookups, or prove the invariant and add a pragma.\n\
                  Suppress: // lint:allow(panic-reachable-from-serve): <the invariant>",
    },
    RuleInfo {
        id: "float-order-sensitivity",
        summary: "float accumulation folded in hash or parallel-merge order",
        explain: "Float addition is not associative: summing the same set in a different\n\
                  order changes low bits, which the online/batch parity gate compares\n\
                  exactly. Two shapes are flagged: (1) a float fold (.sum::<f64>(),\n\
                  .product::<f64>(), .fold(0.0, …)) chained onto HashMap/HashSet iteration —\n\
                  note .sum() over *integers* is order-free and stays allowed under\n\
                  nondeterministic-iteration; (2) a captured float accumulator mutated\n\
                  (+=) inside a parallel_map/parallel_jobs closure.\n\
                  Fix: collect into a sorted Vec (or BTreeMap) before folding, or sum into\n\
                  per-item slots and combine in index order.\n\
                  Suppress: // lint:allow(float-order-sensitivity): <why order is fixed>",
    },
    RuleInfo {
        id: "alloc-in-hot-loop",
        summary: "per-iteration allocation inside loops of hot-path functions",
        explain: "The ≥10x scale campaign budgets the posting-list, like-ledger, event-queue\n\
                  and columnar kernels by allocations per event; a Vec::new/collect/format!\n\
                  /to_vec inside a loop there turns O(1) scratch into O(n) allocator\n\
                  traffic. Hot scope = functions in posting.rs/likes.rs/queue.rs/columns.rs\n\
                  plus any function annotated `// lint:hot`.\n\
                  Fix: hoist the allocation out of the loop, reuse a scratch buffer\n\
                  (clear() instead of new), or extend_from_slice into a preallocated Vec.\n\
                  Suppress: // lint:allow(alloc-in-hot-loop): <why per-iteration is intrinsic>",
    },
];

/// True when `id` names a known rule.
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Scan one file's source text; returns pragma-free findings
/// (pragma-suppressed sites are dropped here, baseline handling is the
/// caller's job).
pub fn scan_source(rel_path: &str, crate_name: &str, kind: FileKind, source: &str) -> Vec<Finding> {
    scan_masked(rel_path, crate_name, kind, &tokenizer::mask(source))
}

/// Scan an already-masked file (the workspace driver masks once and
/// shares the result with the parser and the interprocedural passes).
pub fn scan_masked(
    rel_path: &str,
    crate_name: &str,
    kind: FileKind,
    masked: &MaskedFile,
) -> Vec<Finding> {
    let allowed = pragmas(&masked.raw);
    let ctx = Ctx {
        rel_path,
        crate_name,
        kind,
        file: masked,
        allowed: &allowed,
    };
    let mut findings = Vec::new();
    nondeterministic_iteration(&ctx, &mut findings);
    ambient_time(&ctx, &mut findings);
    ambient_randomness(&ctx, &mut findings);
    rng_shared_across_parallel(&ctx, &mut findings);
    unwrap_in_library(&ctx, &mut findings);
    stdout_in_library(&ctx, &mut findings);
    log_bypass(&ctx, &mut findings);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

struct Ctx<'a> {
    rel_path: &'a str,
    crate_name: &'a str,
    kind: FileKind,
    file: &'a MaskedFile,
    /// Per-line set of rule ids allowed by `lint:allow` pragmas.
    allowed: &'a [BTreeSet<String>],
}

impl Ctx<'_> {
    /// Is line `idx` (0-based) live library-ish code for `rule`?
    fn live(&self, idx: usize, rule: &str) -> bool {
        !self.file.in_test[idx] && !self.allowed[idx].contains(rule)
    }

    fn emit(&self, out: &mut Vec<Finding>, rule: &'static str, idx: usize, hint: String) {
        out.push(Finding {
            rule,
            file: self.rel_path.to_string(),
            line: idx + 1,
            snippet: self.file.raw[idx].trim().to_string(),
            hint,
            path: Vec::new(),
        });
    }
}

/// Collect `lint:allow(...)` pragmas: a pragma applies to its own line
/// and — when it sits on a comment-only line — to the lines that follow,
/// up to and including the next code line.
pub(crate) fn pragmas(raw: &[String]) -> Vec<BTreeSet<String>> {
    let mut out: Vec<BTreeSet<String>> = vec![BTreeSet::new(); raw.len()];
    let mut carried: BTreeSet<String> = BTreeSet::new();
    for (idx, line) in raw.iter().enumerate() {
        let own = parse_pragma(line);
        let trimmed = line.trim();
        let comment_only = trimmed.starts_with("//");
        out[idx].extend(carried.iter().cloned());
        out[idx].extend(own.iter().cloned());
        if comment_only {
            // Comment line: keep carrying (and add its own pragmas).
            carried.extend(own);
        } else {
            // Code line consumed whatever was carried.
            carried.clear();
        }
    }
    out
}

/// Extract rule ids from `lint:allow(a, b)` occurrences in a line.
fn parse_pragma(line: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut from = 0;
    while let Some(pos) = line[from..].find("lint:allow(") {
        let start = from + pos + "lint:allow(".len();
        let Some(close) = line[start..].find(')') else {
            break;
        };
        for id in line[start..start + close].split(',') {
            let id = id.trim();
            if !id.is_empty() {
                out.insert(id.to_string());
            }
        }
        from = start + close + 1;
    }
    out
}

// ---------------------------------------------------------------------------
// nondeterministic-iteration
// ---------------------------------------------------------------------------

/// Iteration methods whose order reflects hash order.
pub(crate) const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".into_iter()",
    ".keys()",
    ".into_keys()",
    ".values()",
    ".values_mut()",
    ".into_values()",
    ".drain()",
];

/// Statement sinks that make hash-order iteration harmless: full sorts,
/// order-independent folds, or collection into an unordered/ordered-by-key
/// container.
const ORDER_SAFE_SINKS: &[&str] = &[
    ".sort",
    ".count()",
    ".sum()",
    ".sum::",
    ".min()",
    ".min_by",
    ".max()",
    ".max_by",
    ".all(",
    ".any(",
    ".collect::<HashSet",
    ".collect::<HashMap",
    ".collect::<BTree",
    ".collect::<std::collections::HashSet",
    ".collect::<std::collections::HashMap",
    ".collect::<std::collections::BTree",
];

fn nondeterministic_iteration(ctx: &Ctx, out: &mut Vec<Finding>) {
    // Binaries render user-facing output, so hash-order leaks there break
    // byte-identity just like in libraries; only examples are exempt.
    if ctx.kind == FileKind::Example {
        return;
    }
    let hash_idents = hash_typed_idents(ctx.file);
    if hash_idents.is_empty() {
        return;
    }
    const RULE: &str = "nondeterministic-iteration";
    let code = &ctx.file.code;
    for idx in 0..code.len() {
        if !ctx.live(idx, RULE) {
            continue;
        }
        let line = &code[idx];
        let mut hit = false;
        // `for pat in <expr> {` where <expr>'s base identifier is hash-typed.
        // For-loop bodies are opaque to a line scanner, so no sink analysis
        // applies: order reaches the body, full stop.
        if let Some(expr) = for_loop_expr(line) {
            if base_ident(expr).is_some_and(|id| hash_idents.contains(id)) {
                hit = true;
            }
        }
        // `<ident>.iter()` and friends, unless the enclosing statement ends
        // in an order-independent sink.
        if !hit {
            'methods: for method in ITER_METHODS {
                let mut from = 0;
                while let Some(pos) = line[from..].find(method) {
                    let at = from + pos;
                    if receiver_ident(line, at).is_some_and(|id| hash_idents.contains(id))
                        && !statement_is_order_safe(code, idx)
                    {
                        hit = true;
                        break 'methods;
                    }
                    from = at + method.len();
                }
            }
        }
        if hit {
            ctx.emit(
                out,
                RULE,
                idx,
                "iterate a sorted Vec or a BTreeMap/BTreeSet instead, or add \
                 `// lint:allow(nondeterministic-iteration): <why order cannot escape>`"
                    .to_string(),
            );
        }
    }
}

/// Identifiers in this file declared with a `HashMap`/`HashSet` type:
/// `name: HashMap<…>` (let/param/field) or `name = HashMap::new()`-style
/// constructors. Collected from non-test lines only.
pub(crate) fn hash_typed_idents(file: &MaskedFile) -> BTreeSet<String> {
    let mut idents = BTreeSet::new();
    for (idx, line) in file.code.iter().enumerate() {
        if file.in_test[idx] {
            continue;
        }
        for ty in ["HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(pos) = find_word(line, ty, from) {
                let before = &line[..pos];
                // `name: [&][mut] [std::collections::]HashMap<…>`
                let stripped = before
                    .trim_end()
                    .trim_end_matches("std::collections::")
                    .trim_end()
                    .trim_end_matches('&')
                    .trim_end()
                    .trim_end_matches("mut")
                    .trim_end()
                    .trim_end_matches('&')
                    .trim_end();
                if let Some(before_colon) = stripped.strip_suffix(':') {
                    if let Some(name) = trailing_ident(before_colon) {
                        idents.insert(name.to_string());
                    }
                }
                // `name = HashMap::new()` / with_capacity / from / default
                if line[pos..].starts_with(&format!("{ty}::")) {
                    if let Some(before_eq) = before.trim_end().strip_suffix('=') {
                        if let Some(name) = trailing_ident(before_eq.trim_end()) {
                            idents.insert(name.to_string());
                        }
                    }
                }
                from = pos + ty.len();
            }
        }
    }
    idents
}

/// The trailing identifier of a string slice, if it ends with one.
pub(crate) fn trailing_ident(s: &str) -> Option<&str> {
    let bytes = s.as_bytes();
    let mut start = bytes.len();
    while start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
        start -= 1;
    }
    if start == bytes.len() {
        return None;
    }
    // Reject if what precedes is `.` or `::`? No — `self.segments` is a
    // legitimate receiver; the ident is the final path segment.
    let ident = &s[start..];
    ident
        .chars()
        .next()
        .filter(|c| c.is_ascii_alphabetic() || *c == '_')
        .map(|_| ident)
}

/// For a `for pat in expr {` line, the `expr` text.
fn for_loop_expr(line: &str) -> Option<&str> {
    let for_pos = find_word(line, "for", 0)?;
    let in_pos = find_word(line, "in", for_pos + 3)?;
    let rest = &line[in_pos + 2..];
    let end = rest.rfind('{').unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// The base identifier of an iterated expression: `&mut self.segments`
/// → `segments`, `via.iter()` → `via`, `items` → `items`.
fn base_ident(expr: &str) -> Option<&str> {
    let expr = expr
        .trim_start_matches('&')
        .trim_start()
        .trim_start_matches("mut ")
        .trim();
    // Cut at the first `(`: a call like `neighbors(u)` is not a plain ident
    // chain, and method iteration is handled by the receiver scan.
    let head = &expr[..expr.find('(').map_or(expr.len(), |p| {
        // Walk back past the method name and its dot.
        expr[..p].rfind('.').unwrap_or(p.min(expr.len()))
    })];
    let last = head.rsplit('.').next()?.trim();
    let ok = !last.is_empty()
        && last.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && last.chars().next().is_some_and(|c| !c.is_ascii_digit());
    ok.then_some(last)
}

/// The receiver identifier of a method occurrence at byte `at`
/// (the position of the `.` starting e.g. `.iter()`).
pub(crate) fn receiver_ident(line: &str, at: usize) -> Option<&str> {
    trailing_ident(&line[..at])
}

/// Join the statement starting at line `idx` (up to 8 lines or the first
/// `;`) and test it for order-independent sinks.
pub(crate) fn statement_is_order_safe(code: &[String], idx: usize) -> bool {
    let mut joined = String::new();
    for line in code.iter().skip(idx).take(8) {
        joined.push_str(line.trim());
        joined.push(' ');
        if line.trim_end().ends_with(';') {
            break;
        }
    }
    ORDER_SAFE_SINKS.iter().any(|s| joined.contains(s))
}

// ---------------------------------------------------------------------------
// ambient-time
// ---------------------------------------------------------------------------

/// Crates allowed to read the wall clock: the observability layer (it
/// measures real time by design) and the bench harness.
const WALL_CLOCK_CRATES: &[&str] = &["likelab-obs", "likelab-bench"];

fn ambient_time(ctx: &Ctx, out: &mut Vec<Finding>) {
    if ctx.kind == FileKind::Example || WALL_CLOCK_CRATES.contains(&ctx.crate_name) {
        return;
    }
    const RULE: &str = "ambient-time";
    for idx in 0..ctx.file.code.len() {
        if !ctx.live(idx, RULE) {
            continue;
        }
        let line = &ctx.file.code[idx];
        if tokenizer::contains_word(line, "SystemTime") || tokenizer::contains_word(line, "Instant")
        {
            ctx.emit(
                out,
                RULE,
                idx,
                "simulated code must use likelab_sim::SimTime; wall-clock timing \
                 belongs in likelab-obs spans"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// ambient-randomness
// ---------------------------------------------------------------------------

/// Entropy sources that break run-to-run determinism.
const AMBIENT_RNG_WORDS: &[&str] = &[
    "thread_rng",
    "OsRng",
    "from_entropy",
    "getrandom",
    "RandomState",
];

fn ambient_randomness(ctx: &Ctx, out: &mut Vec<Finding>) {
    const RULE: &str = "ambient-randomness";
    for idx in 0..ctx.file.code.len() {
        if !ctx.live(idx, RULE) {
            continue;
        }
        let line = &ctx.file.code[idx];
        let hit = AMBIENT_RNG_WORDS
            .iter()
            .any(|w| tokenizer::contains_word(line, w))
            || line.contains("rand::random");
        if hit {
            ctx.emit(
                out,
                RULE,
                idx,
                "derive randomness from likelab_sim::Rng (seed_from_u64, split, \
                 derive_stream_seed) so runs stay reproducible"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// rng-shared-across-parallel
// ---------------------------------------------------------------------------

fn rng_shared_across_parallel(ctx: &Ctx, out: &mut Vec<Finding>) {
    if ctx.kind == FileKind::Example {
        return;
    }
    const RULE: &str = "rng-shared-across-parallel";
    let code = &ctx.file.code;
    for idx in 0..code.len() {
        if !ctx.live(idx, RULE) {
            continue;
        }
        let line = &code[idx];
        let call =
            find_word(line, "parallel_map", 0).or_else(|| find_word(line, "parallel_jobs", 0));
        let Some(pos) = call else { continue };
        let Some(open) = line[pos..].find('(') else {
            continue;
        };
        let span = balanced_span(code, idx, pos + open);
        if span_shares_rng(&span) {
            ctx.emit(
                out,
                RULE,
                idx,
                "give every parallel item its own stream: `let mut r = rng.split(i)` \
                 inside the closure (DESIGN.md §4b), never a captured Rng"
                    .to_string(),
            );
        }
    }
}

/// The text of a parenthesized call spanning from `(line idx, byte at)`
/// to the matching close (bounded at 80 lines).
pub(crate) fn balanced_span(code: &[String], idx: usize, at: usize) -> String {
    let mut depth = 0i32;
    let mut out = String::new();
    for (k, line) in code.iter().enumerate().skip(idx).take(80) {
        let start = if k == idx { at } else { 0 };
        for (j, b) in line.bytes().enumerate().skip(start) {
            match b {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        out.push_str(&line[start..=j]);
                        return out;
                    }
                }
                _ => {}
            }
        }
        out.push_str(&line[start..]);
        out.push('\n');
    }
    out
}

/// Does a `parallel_map(…)`/`parallel_jobs(…)` span capture an Rng without
/// deriving a per-item stream?
fn span_shares_rng(span: &str) -> bool {
    // Any stream derivation inside the span is proof of the safe pattern.
    if span.contains(".split(") || span.contains("derive_stream_seed") {
        return false;
    }
    // The closure's own parameters are per-item values (the caller already
    // split them); only captures are suspect.
    let params = closure_params(span);
    let mut from = 0;
    while let Some(pos) = find_rng_word(span, from) {
        let word = ident_at(span, pos);
        if !params.iter().any(|p| p == word) {
            return true;
        }
        from = pos + word.len().max(1);
    }
    false
}

/// Find the next rng-ish identifier (name containing `rng`, or the `Rng`
/// type used as a constructor) at or after `from`.
fn find_rng_word(span: &str, from: usize) -> Option<usize> {
    let lower = span.to_ascii_lowercase();
    let mut start = from;
    while let Some(rel) = lower.get(start..)?.find("rng") {
        let pos = start + rel;
        // Expand to the whole identifier around the match.
        let bytes = span.as_bytes();
        let mut s = pos;
        while s > 0 && (bytes[s - 1].is_ascii_alphanumeric() || bytes[s - 1] == b'_') {
            s -= 1;
        }
        // `Rng::seed_from_u64(…)` inside the closure is a fresh per-item
        // stream, not a capture.
        if span[s..].starts_with("Rng::") {
            start = pos + 3;
            continue;
        }
        return Some(s);
    }
    None
}

/// The full identifier starting at byte `pos`.
fn ident_at(span: &str, pos: usize) -> &str {
    let bytes = span.as_bytes();
    let mut end = pos;
    while end < bytes.len() && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_') {
        end += 1;
    }
    &span[pos..end]
}

/// The parameter identifiers of the first closure in the span
/// (`|a, (b, c)| …` → `["a", "b", "c"]`).
pub(crate) fn closure_params(span: &str) -> Vec<String> {
    let Some(first) = span.find('|') else {
        return Vec::new();
    };
    let Some(close_rel) = span[first + 1..].find('|') else {
        return Vec::new();
    };
    span[first + 1..first + 1 + close_rel]
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

// ---------------------------------------------------------------------------
// unwrap-in-library
// ---------------------------------------------------------------------------

fn unwrap_in_library(ctx: &Ctx, out: &mut Vec<Finding>) {
    if ctx.kind != FileKind::Library {
        return;
    }
    const RULE: &str = "unwrap-in-library";
    for idx in 0..ctx.file.code.len() {
        if !ctx.live(idx, RULE) {
            continue;
        }
        let line = &ctx.file.code[idx];
        let unwrap = line.contains(".unwrap()");
        let expect = find_method_call(line, ".expect");
        let panics =
            find_word(line, "panic", 0).is_some_and(|p| line.as_bytes().get(p + 5) == Some(&b'!'));
        if unwrap || expect || panics {
            ctx.emit(
                out,
                RULE,
                idx,
                "propagate the error (Result/Option) or, where the invariant is \
                 real, use .expect(\"<invariant>\") plus an allow pragma"
                    .to_string(),
            );
        }
    }
}

/// Is `name` followed directly by `(` somewhere in the line
/// (so `.expect(` matches but `.expect_err(` does not)?
fn find_method_call(line: &str, name: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = line[from..].find(name) {
        let at = from + pos + name.len();
        if line.as_bytes().get(at) == Some(&b'(') {
            return true;
        }
        from = from + pos + 1;
    }
    false
}

// ---------------------------------------------------------------------------
// stdout-in-library
// ---------------------------------------------------------------------------

fn stdout_in_library(ctx: &Ctx, out: &mut Vec<Finding>) {
    if ctx.kind != FileKind::Library {
        return;
    }
    const RULE: &str = "stdout-in-library";
    for idx in 0..ctx.file.code.len() {
        if !ctx.live(idx, RULE) {
            continue;
        }
        let line = &ctx.file.code[idx];
        let hit = ["println", "print", "dbg"].iter().any(|m| {
            find_word(line, m, 0).is_some_and(|p| line.as_bytes().get(p + m.len()) == Some(&b'!'))
        });
        if hit {
            ctx.emit(
                out,
                RULE,
                idx,
                "libraries return strings/values; printing belongs to src/main.rs \
                 (progress goes to stderr via eprintln!)"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// log-bypass
// ---------------------------------------------------------------------------

/// Mutating entry points that bypass `OsnWorld`'s event-recording hooks.
/// A mutation that skips the world never reaches the study log, so a
/// captured log stops being a sufficient statistic for replay.
const LOG_BYPASS_METHODS: &[&str] = &[".ingest_columns(", ".friends_mut("];

fn log_bypass(ctx: &Ctx, out: &mut Vec<Finding>) {
    if ctx.kind != FileKind::Library {
        return;
    }
    const RULE: &str = "log-bypass";
    for idx in 0..ctx.file.code.len() {
        if !ctx.live(idx, RULE) {
            continue;
        }
        let line = &ctx.file.code[idx];
        // The leading dot scopes this to call sites; `fn ingest_columns(` and
        // `pub fn friends_mut(` definitions don't match.
        if LOG_BYPASS_METHODS.iter().any(|m| line.contains(m)) {
            ctx.emit(
                out,
                RULE,
                idx,
                "mutate through OsnWorld (like/befriend/apply_event) so the world \
                 log records the change; sanctioned appender internals belong in \
                 the baseline"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Workspace (interprocedural) rules
// ---------------------------------------------------------------------------

use crate::callgraph::{match_entries, CallGraph};
use crate::dataflow::{self, RngOrigin};
use crate::parse::ParsedFile;

/// The long-running entry points for `panic-reachable-from-serve`:
/// `(path suffix, self type, fn name)`. Matched structurally so fixture
/// workspaces exercise the same specs as the real one.
pub const SERVE_ENTRY_POINTS: &[(&str, Option<&str>, &str)] = &[
    ("/serve.rs", Some("ServeEngine"), "ingest"),
    ("/serve.rs", Some("ServeEngine"), "ingest_frame"),
    ("/serve.rs", Some("ServeEngine"), "query"),
    ("/serve.rs", Some("ServeEngine"), "online_score"),
    ("/serve.rs", Some("ServeSession"), "handle_line"),
    ("/serve.rs", None, "serve"),
    ("/tail.rs", Some("TailReader"), "next_record"),
    ("/tail.rs", Some("TailReader"), "drain"),
    ("/tail.rs", Some("FollowReader"), "poll"),
];

/// Run the interprocedural rules over the whole parsed workspace.
///
/// Pragma suppression works exactly as for per-file rules; findings carry
/// a call path rendered with qualified names.
pub fn scan_workspace(files: &[ParsedFile], graph: &CallGraph) -> Vec<Finding> {
    let facts = dataflow::fn_facts(files, graph);
    let allowed: Vec<Vec<BTreeSet<String>>> =
        files.iter().map(|f| pragmas(&f.masked.raw)).collect();
    let w = Workspace {
        files,
        graph,
        facts: &facts,
        allowed: &allowed,
    };
    let mut out = Vec::new();
    rng_escapes_parallel(&w, &mut out);
    panic_reachable_from_serve(&w, &mut out);
    float_order_sensitivity(&w, &mut out);
    alloc_in_hot_loop(&w, &mut out);
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

struct Workspace<'a> {
    files: &'a [ParsedFile],
    graph: &'a CallGraph,
    facts: &'a [dataflow::FnFacts],
    allowed: &'a [Vec<BTreeSet<String>>],
}

impl Workspace<'_> {
    /// Is line `idx` of file `fi` live (non-test, not pragma-allowed) for
    /// `rule`?
    fn live(&self, fi: usize, idx: usize, rule: &str) -> bool {
        let pf = &self.files[fi];
        !pf.masked.in_test[idx] && !self.allowed[fi][idx].contains(rule)
    }

    fn emit(
        &self,
        out: &mut Vec<Finding>,
        rule: &'static str,
        fi: usize,
        idx: usize,
        path: Vec<String>,
        hint: String,
    ) {
        let pf = &self.files[fi];
        out.push(Finding {
            rule,
            file: pf.rel_path.clone(),
            line: idx + 1,
            snippet: pf.masked.raw[idx].trim().to_string(),
            hint,
            path,
        });
    }
}

fn rng_escapes_parallel(w: &Workspace, out: &mut Vec<Finding>) {
    const RULE: &str = "rng-escapes-parallel";
    for (ni, node) in w.graph.nodes.iter().enumerate() {
        if node.is_test || w.files[node.file].kind == FileKind::Example {
            continue;
        }
        for span in &w.facts[ni].parallel {
            if !w.live(node.file, span.line, RULE) {
                continue;
            }
            for name in dataflow::captured_rng_values(&w.facts[ni], &span.text) {
                // rng-named captures are rng-shared-across-parallel's beat;
                // this rule adds the type-tracked, differently-named ones.
                if name.to_ascii_lowercase().contains("rng") {
                    continue;
                }
                let chain = match w.facts[ni].rng_values.get(name) {
                    Some(RngOrigin::Param(p)) => dataflow::rng_root_chain(w.graph, w.facts, ni, *p),
                    _ => vec![ni],
                };
                w.emit(
                    out,
                    RULE,
                    node.file,
                    span.line,
                    w.graph.render_path(&chain),
                    format!(
                        "`{name}` is a seeded Rng stream shared across parallel items; \
                         derive a per-item stream inside the closure \
                         (`let mut r = {name}.split(i)`) or pass per-item seeds"
                    ),
                );
            }
        }
    }
}

fn panic_reachable_from_serve(w: &Workspace, out: &mut Vec<Finding>) {
    const RULE: &str = "panic-reachable-from-serve";
    let entries = match_entries(w.graph, SERVE_ENTRY_POINTS);
    if entries.is_empty() {
        return;
    }
    let reach = w.graph.reach_from(&entries);
    for (&ni, path) in &reach {
        let node = &w.graph.nodes[ni];
        if node.is_test || w.files[node.file].kind == FileKind::Example {
            continue;
        }
        let pf = &w.files[node.file];
        let f = &pf.items.functions[node.item];
        let last = pf.masked.code.len().saturating_sub(1);
        for idx in f.sig_line..=f.body_end.min(last) {
            if w.graph.owner[node.file][idx] != ni || !w.live(node.file, idx, RULE) {
                continue;
            }
            let Some(kind) = dataflow::panic_kind_on_line(&pf.masked.code[idx]) else {
                continue;
            };
            w.emit(
                out,
                RULE,
                node.file,
                idx,
                w.graph.render_path(path),
                format!(
                    "{kind} can panic the long-running serve/tail loop; return the \
                     error (the session already degrades per line) or use a \
                     non-panicking accessor"
                ),
            );
        }
    }
}

fn float_order_sensitivity(w: &Workspace, out: &mut Vec<Finding>) {
    const RULE: &str = "float-order-sensitivity";
    // Shape 1: float folds chained onto hash-container iteration. These
    // sites are exactly the ones nondeterministic-iteration whitelists
    // (`.sum::` is order-free for integers — not for floats).
    for (fi, pf) in w.files.iter().enumerate() {
        if pf.kind == FileKind::Example {
            continue;
        }
        let hash_idents = hash_typed_idents(&pf.masked);
        if hash_idents.is_empty() {
            continue;
        }
        let code = &pf.masked.code;
        for idx in 0..code.len() {
            if !w.live(fi, idx, RULE) {
                continue;
            }
            let line = &code[idx];
            let iterates_hash = ITER_METHODS.iter().any(|method| {
                let mut from = 0;
                while let Some(pos) = line[from..].find(method) {
                    let at = from + pos;
                    if receiver_ident(line, at).is_some_and(|id| hash_idents.contains(id)) {
                        return true;
                    }
                    from = at + method.len();
                }
                false
            });
            if !iterates_hash || !statement_is_order_safe(code, idx) {
                // Un-safe statements are nondeterministic-iteration's beat.
                continue;
            }
            let stmt = dataflow::join_statement(code, idx);
            if let Some(sink) = dataflow::FLOAT_FOLD_SINKS
                .iter()
                .find(|s| stmt.contains(**s))
            {
                w.emit(
                    out,
                    RULE,
                    fi,
                    idx,
                    Vec::new(),
                    format!(
                        "`{sink}` folds floats in hash-iteration order; reassociation \
                         changes the bits — collect into a sorted Vec/BTreeMap first"
                    ),
                );
            }
        }
    }
    // Shape 2: captured float accumulators mutated inside parallel spans.
    for (ni, node) in w.graph.nodes.iter().enumerate() {
        if node.is_test || w.files[node.file].kind == FileKind::Example {
            continue;
        }
        let floats = dataflow::float_idents(&w.files[node.file].masked);
        for span in &w.facts[ni].parallel {
            if !w.live(node.file, span.line, RULE) {
                continue;
            }
            if let Some(name) = dataflow::captured_float_accumulation(&span.text, &floats) {
                w.emit(
                    out,
                    RULE,
                    node.file,
                    span.line,
                    w.graph.render_path(&[ni]),
                    format!(
                        "`{name}` accumulates floats across parallel items; sum into \
                         per-item slots and combine in index order instead"
                    ),
                );
            }
        }
    }
}

fn alloc_in_hot_loop(w: &Workspace, out: &mut Vec<Finding>) {
    const RULE: &str = "alloc-in-hot-loop";
    for (ni, node) in w.graph.nodes.iter().enumerate() {
        if node.is_test || w.files[node.file].kind == FileKind::Example {
            continue;
        }
        let pf = &w.files[node.file];
        let f = &pf.items.functions[node.item];
        if !f.is_hot && !dataflow::is_hot_file(&pf.rel_path) {
            continue;
        }
        let code = &pf.masked.code;
        let last = code.len().saturating_sub(1);
        let mut flagged: BTreeSet<usize> = BTreeSet::new();
        for &(start, end) in &f.loops {
            let span = code.iter().enumerate().take(end.min(last) + 1).skip(start);
            for (idx, line) in span {
                if flagged.contains(&idx) || !w.live(node.file, idx, RULE) {
                    continue;
                }
                // A `for` header's pre-`{` text runs once, not per
                // iteration; `while`/`loop` headers re-run every pass.
                let text: &str = if idx == start
                    && find_word(line, "for", 0)
                        .is_some_and(|p| p < line.find('{').unwrap_or(line.len()))
                {
                    line.find('{').map(|p| &line[p..]).unwrap_or("")
                } else {
                    line
                };
                if let Some(pat) = dataflow::alloc_on_line(text) {
                    flagged.insert(idx);
                    w.emit(
                        out,
                        RULE,
                        node.file,
                        idx,
                        w.graph.render_path(&[ni]),
                        format!(
                            "`{pat}` allocates every iteration on the hot path; hoist \
                             it out of the loop or reuse a cleared scratch buffer"
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_scan(src: &str) -> Vec<Finding> {
        scan_source("crates/x/src/lib.rs", "likelab-x", FileKind::Library, src)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn pragma_on_same_line_suppresses() {
        let src =
            "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lint:allow(unwrap-in-library): test\n";
        assert!(lib_scan(src).is_empty());
    }

    #[test]
    fn pragma_on_preceding_comment_suppresses() {
        let src = "// order cannot escape: lint:allow(nondeterministic-iteration): doc\n\
                   fn f(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {\n\
                   m.keys().copied().collect()\n}\n";
        // The pragma line carries onto the next code line only; the `.keys()`
        // sits two lines later, so this must still fire — then move it.
        let src2 = "fn f(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {\n\
                    // lint:allow(nondeterministic-iteration): order sorted by caller\n\
                    m.keys().copied().collect()\n}\n";
        assert_eq!(rules_of(&lib_scan(src)), vec!["nondeterministic-iteration"]);
        assert!(lib_scan(src2).is_empty());
    }

    #[test]
    fn hash_iteration_is_flagged() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
                   let mut out = Vec::new();\n\
                   for (k, _) in m {\n    out.push(*k);\n}\nout\n}\n";
        assert_eq!(rules_of(&lib_scan(src)), vec!["nondeterministic-iteration"]);
        assert_eq!(lib_scan(src)[0].line, 4);
    }

    #[test]
    fn sorted_statement_is_order_safe() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
                   let mut v: Vec<u32> = m.keys().copied().collect::<std::collections::BTreeSet<_>>().into_iter().collect();\n\
                   v\n}\n";
        assert!(lib_scan(src).is_empty(), "{:?}", lib_scan(src));
    }

    #[test]
    fn count_and_sum_are_order_safe() {
        let src = "use std::collections::HashSet;\n\
                   fn f(s: &HashSet<u32>) -> usize { s.iter().count() }\n\
                   fn g(s: &HashSet<u32>) -> u32 { s.iter().sum() }\n";
        assert!(lib_scan(src).is_empty(), "{:?}", lib_scan(src));
    }

    #[test]
    fn unwrap_expect_panic_flagged_but_not_variants() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   fn g(x: Option<u32>) -> u32 { x.expect(\"msg\") }\n\
                   fn h() { panic!(\"boom\") }\n\
                   fn ok1(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n\
                   fn ok2(x: Result<u32, u32>) -> u32 { x.unwrap_or_else(|_| 0) }\n\
                   fn ok3(x: Result<u32, u32>) -> u32 { x.expect_err(\"e\") }\n";
        let f = lib_scan(src);
        assert_eq!(rules_of(&f), vec!["unwrap-in-library"; 3], "{f:?}");
        assert_eq!(f.iter().map(|x| x.line).collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn test_modules_are_skipped() {
        let src = "pub fn lib() {}\n\
                   #[cfg(test)]\nmod tests {\n\
                   #[test]\nfn t() { None::<u32>.unwrap(); println!(\"x\"); }\n}\n";
        assert!(lib_scan(src).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_trip_rules() {
        let src = "fn f() -> &'static str { \".unwrap() println! Instant\" }\n\
                   // .unwrap() in a comment\n\
                   /* panic! in a block comment */\n";
        assert!(lib_scan(src).is_empty());
    }

    #[test]
    fn ambient_time_scoped_by_crate() {
        let src = "use std::time::Instant;\nfn f() { let _ = Instant::now(); }\n";
        let in_sim = scan_source("crates/sim/src/x.rs", "likelab-sim", FileKind::Library, src);
        assert_eq!(rules_of(&in_sim), vec!["ambient-time"; 2]);
        let in_obs = scan_source("crates/obs/src/x.rs", "likelab-obs", FileKind::Library, src);
        assert!(in_obs.is_empty());
        let in_bench = scan_source(
            "crates/bench/src/lib.rs",
            "likelab-bench",
            FileKind::Library,
            src,
        );
        assert!(in_bench.is_empty());
    }

    #[test]
    fn ambient_randomness_flags_entropy_sources() {
        let src = "fn f() { let r = thread_rng(); }\n\
                   fn g() { let s = std::collections::hash_map::RandomState::new(); }\n";
        assert_eq!(rules_of(&lib_scan(src)), vec!["ambient-randomness"; 2]);
    }

    #[test]
    fn shared_rng_in_parallel_map_flagged() {
        let src = "fn f(rng: &Rng, items: &[u32]) -> Vec<u64> {\n\
                   parallel_map(Exec::auto(), items, |_x| {\n\
                   let mut r = rng.clone();\nr.next_u64()\n})\n}\n";
        let f = lib_scan(src);
        assert_eq!(rules_of(&f), vec!["rng-shared-across-parallel"]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn split_rng_in_parallel_map_ok() {
        let src = "fn f(rng: &Rng, items: &[u32]) -> Vec<u64> {\n\
                   parallel_map(Exec::auto(), items, |x| {\n\
                   let mut r = rng.split(*x as u64);\nr.next_u64()\n})\n}\n";
        assert!(lib_scan(src).is_empty(), "{:?}", lib_scan(src));
    }

    #[test]
    fn rng_as_closure_param_ok() {
        let src = "fn f(streams: &[Rng]) -> Vec<u64> {\n\
                   parallel_map(Exec::auto(), streams, |rng| rng.clone().next_u64())\n}\n";
        assert!(lib_scan(src).is_empty(), "{:?}", lib_scan(src));
    }

    #[test]
    fn stdout_flagged_in_library_not_binary() {
        let src =
            "pub fn f() { println!(\"tables\"); print!(\"x\"); dbg!(3); eprintln!(\"ok\"); }\n";
        assert_eq!(rules_of(&lib_scan(src)), vec!["stdout-in-library"]);
        let as_bin = scan_source("src/main.rs", "likelab", FileKind::Binary, src);
        assert!(as_bin.is_empty());
    }

    #[test]
    fn self_field_hash_iteration_flagged() {
        let src = "use std::collections::HashMap;\n\
                   struct S { segments: HashMap<u32, u32> }\n\
                   impl S {\n\
                   fn f(&self) -> Vec<u32> {\n\
                   let mut v = Vec::new();\n\
                   for (k, _) in &self.segments { v.push(*k); }\n\
                   v\n}\n}\n";
        let f = lib_scan(src);
        assert_eq!(rules_of(&f), vec!["nondeterministic-iteration"]);
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn direct_ledger_mutation_is_flagged() {
        let src = "fn f(ledger: &mut LikeLedger, items: &LikeColumns) {\n\
                   ledger.ingest_columns(items, Exec::Sequential);\n}\n\
                   fn g(world: &mut OsnWorld) { world.friends_mut().add_edge(a, b); }\n";
        let f = lib_scan(src);
        assert_eq!(rules_of(&f), vec!["log-bypass"; 2], "{f:?}");
        assert_eq!(f.iter().map(|x| x.line).collect::<Vec<_>>(), vec![2, 4]);
    }

    #[test]
    fn log_bypass_skips_definitions_tests_and_binaries() {
        let def = "impl LikeLedger {\n\
                   pub fn ingest_columns(&mut self, items: &LikeColumns, exec: Exec) -> usize { 0 }\n\
                   pub fn friends_mut(&mut self) -> &mut FriendGraph { &mut self.g }\n}\n";
        assert!(lib_scan(def).is_empty(), "{:?}", lib_scan(def));
        let in_test = "#[cfg(test)]\nmod tests {\n\
                       #[test]\nfn t() { ledger.ingest_columns(&items, exec); }\n}\n";
        assert!(lib_scan(in_test).is_empty());
        let as_bin = scan_source(
            "src/main.rs",
            "likelab",
            FileKind::Binary,
            "fn f() { ledger.ingest_columns(&items, exec); }\n",
        );
        assert!(as_bin.is_empty());
    }

    #[test]
    fn list_rules_is_consistent() {
        assert!(is_known_rule("unwrap-in-library"));
        assert!(is_known_rule("log-bypass"));
        assert!(is_known_rule("rng-escapes-parallel"));
        assert!(is_known_rule("panic-reachable-from-serve"));
        assert!(is_known_rule("float-order-sensitivity"));
        assert!(is_known_rule("alloc-in-hot-loop"));
        assert!(!is_known_rule("made-up-rule"));
        assert_eq!(RULES.len(), 11);
        for r in RULES {
            assert!(!r.explain.is_empty(), "{} has no explanation", r.id);
            assert!(
                r.explain.contains(&format!("lint:allow({})", r.id)),
                "{} explanation must show its pragma",
                r.id
            );
        }
    }
}

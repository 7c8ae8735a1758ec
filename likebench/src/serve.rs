//! The `serve-tail` workload: the `paper` log at scale 0.06 (built during
//! set-up), served by one thread the way `likelab serve` alternates ingest
//! chunks with queued queries. Two phases:
//!
//! - **catch-up**: the whole log goes to a fresh `TailReader` in one piece,
//!   as the first `FollowReader::poll` of `likelab serve LOG` does, and is
//!   folded into a fresh engine. The decoder compacts its consumed prefix
//!   every 64 KiB, so this phase keeps that cost visible.
//! - **follow**: a fresh engine gets the same bytes in 64 KiB appends at the
//!   rate set-up measured producing them (study plus encoding), while an
//!   open-loop query stream runs alongside with the cadence and rotating mix
//!   of the `world_serve` bench: one query per ingest chunk of records
//!   appended.
//!   Query ids are drawn only from entities already ingested; each query's
//!   latency is timed from its due time.
//!
//! This is the only workload that runs tail decode, the event fanout, the
//! online detectors and queries.

use crate::layers::{self, Routes};
use crate::outcome::Outcome;
use crate::stats::{median, summary};
use crate::{alloc, Run};
use likelab_core::serve::{ServeConfig, ServeEngine, ServeSession};
use likelab_core::{run_study_opts, RunOptions, StudyConfig, StudyRecord};
use likelab_detect::online::OnlineDetectors;
use likelab_detect::{judge_page, BurstVerdict};
use likelab_graph::PageId;
use likelab_obs::Snapshot;
use likelab_osn::{EventFanout, WorldEvent};
use likelab_sim::event::LogRecord;
use likelab_sim::tail::TailReader;
use likelab_sim::Rng;
use serde::Value;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Producer append size in the follow phase.
const APPEND_BYTES: usize = 64 * 1024;

/// The served log and what the checks compare against.
struct Input {
    bytes: Vec<u8>,
    /// Records the study captured.
    records: usize,
    /// Byte offset just past each frame, in stream order.
    ends: Vec<usize>,
    /// Byte offset past which each follow-phase query is due.
    query_ends: Vec<usize>,
    /// Index of the first `PageCreated` record.
    first_page: usize,
    campaigns: u64,
    honeypots: Vec<PageId>,
    /// Batch burst verdict of each honeypot page on the producer's world.
    verdicts: Vec<BurstVerdict>,
    routes: Routes,
}

impl Input {
    /// Index the encoded log: the end of every frame, decoded by the
    /// library's `TailReader` in append-sized pieces (decoded whole, the
    /// prefix compaction would cost seconds), and the follow phase's query
    /// due points.
    fn index(&mut self) -> Result<(), String> {
        let mut tail = TailReader::new();
        let mut ends = Vec::with_capacity(self.records);
        for piece in self.bytes.chunks(APPEND_BYTES) {
            tail.extend(piece);
            while tail
                .next_record()
                .map_err(|e| format!("tail decode: {e}"))?
                .is_some()
            {
                ends.push(tail.offset() as usize);
            }
        }
        tail.finish().map_err(|e| format!("tail decode: {e}"))?;
        if ends.len() != self.records {
            return Err("encoded frame count differs from the captured records".into());
        }
        self.query_ends = query_ends(&ends, self.first_page, ServeConfig::default().chunk);
        self.ends = ends;
        Ok(())
    }
}

/// `world_serve`'s cadence, one query per `chunk` records: a query is due
/// once each multiple of `chunk` records has been appended, from the first
/// multiple past `first_page` (so a page exists in the stream to ask about).
fn query_ends(ends: &[usize], first_page: usize, chunk: usize) -> Vec<usize> {
    (1..=ends.len() / chunk)
        .map(|k| k * chunk)
        .filter(|&n| n > first_page)
        .map(|n| ends[n - 1])
        .collect()
}

/// What producing the log cost, and the traced extras.
struct Produced {
    /// Not yet indexed.
    input: Input,
    study_s: f64,
    encode_s: f64,
    snapshot: Option<Snapshot>,
    records: Option<Vec<(u64, StudyRecord)>>,
}

/// Set-up: run the study with its log captured and encode it. With
/// `traced`, obs is on for the study and the captured records are kept.
fn produce(run: &Run, traced: bool) -> Result<Produced, String> {
    let config = StudyConfig::paper(run.seed, run.sizes.serve_scale);
    if traced {
        layers::trace_on();
    }
    let started = Instant::now();
    let outcome = run_study_opts(
        &config,
        &RunOptions {
            exec: run.exec,
            capture_log: true,
            ..RunOptions::default()
        },
    );
    let study_s = started.elapsed().as_secs_f64();
    likelab_obs::disable();
    let mut outcome = outcome.map_err(|e| format!("study failed: {e}"))?;
    let snapshot = traced.then(likelab_obs::snapshot);
    let log = outcome.log.take().ok_or("the run captured no log")?;
    let started = Instant::now();
    let bytes = log.to_binary().map_err(|e| format!("encode: {e}"))?;
    let encode_s = started.elapsed().as_secs_f64();

    let burst = ServeConfig::default().burst;
    let verdicts = outcome
        .honeypots
        .iter()
        .map(|&p| judge_page(&outcome.world, p, None, &burst))
        .collect();
    let first_page = log
        .records()
        .iter()
        .position(|(_, r)| matches!(r, StudyRecord::World(WorldEvent::PageCreated { .. })))
        .ok_or("the log creates no page")?;
    let input = Input {
        bytes,
        records: log.records().len(),
        ends: Vec::new(),
        query_ends: Vec::new(),
        first_page,
        campaigns: config.campaigns.len() as u64,
        honeypots: outcome.honeypots.clone(),
        verdicts,
        routes: layers::routes(log.records()),
    };
    Ok(Produced {
        input,
        study_s,
        encode_s,
        snapshot,
        records: traced.then(|| log.records().to_vec()),
    })
}

/// Online burst verdicts equal the batch verdicts bitwise on every
/// honeypot page.
fn parity(engine: &mut ServeEngine, input: &Input) -> bool {
    input
        .honeypots
        .iter()
        .zip(&input.verdicts)
        .all(|(&page, batch)| {
            let online = engine.detectors_mut().burst_mut().page_verdict(page);
            online.peak_share.to_bits() == batch.peak_share.to_bits()
                && online.events == batch.events
                && online.flagged == batch.flagged
        })
}

fn engine_for(tail: &TailReader) -> Result<Option<ServeEngine>, String> {
    tail.header()
        .map(|h| ServeEngine::new(h, ServeConfig::default()).map_err(|e| format!("engine: {e}")))
        .transpose()
}

/// Catch-up: decode the whole log in one piece, then fold every frame.
fn catch_up(bytes: &[u8]) -> Result<ServeEngine, String> {
    let mut tail = TailReader::new();
    tail.extend(bytes);
    let frames = tail.drain().map_err(|e| format!("tail decode: {e}"))?;
    let mut engine = engine_for(&tail)?.ok_or("log has no header")?;
    for frame in &frames {
        engine
            .ingest_frame(frame)
            .map_err(|e| format!("ingest: {e}"))?;
    }
    Ok(engine)
}

/// Catch-up split by layer, timed around each public call: tail decode,
/// record parse, event fanout, online detectors.
#[derive(Default)]
struct CatchupLayers {
    decode_s: f64,
    parse_s: f64,
    fanout_s: f64,
    detect_s: f64,
}

fn catch_up_layers(bytes: &[u8]) -> Result<CatchupLayers, String> {
    let mut tail = TailReader::new();
    tail.extend(bytes);
    let config = ServeConfig::default();
    let mut fanout = EventFanout::new();
    let mut detectors = OnlineDetectors::new(config.burst, config.lockstep, config.sybil);
    let mut t = CatchupLayers::default();
    loop {
        let started = Instant::now();
        let frame = tail
            .next_record()
            .map_err(|e| format!("tail decode: {e}"))?;
        t.decode_s += started.elapsed().as_secs_f64();
        let Some(frame) = frame else { break };
        let started = Instant::now();
        let record: StudyRecord = serde::Deserialize::from_value(&frame.payload)
            .map_err(|e| format!("record {}: {e}", frame.seq))?;
        t.parse_s += started.elapsed().as_secs_f64();
        if let StudyRecord::World(ev) = record {
            let mut detect = Duration::ZERO;
            let started = Instant::now();
            fanout.apply(&ev, |update| {
                let started = Instant::now();
                detectors.apply(update);
                detect += started.elapsed();
            });
            t.fanout_s += (started.elapsed() - detect).as_secs_f64();
            t.detect_s += detect.as_secs_f64();
        }
    }
    Ok(t)
}

// ---------------------------------------------------------------------------
// follow phase

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    Status,
    Score,
    Page,
    Campaign,
    Sybil,
    Lockstep,
    Eval,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Status => "status",
            Op::Score => "score",
            Op::Page => "page",
            Op::Campaign => "campaign",
            Op::Sybil => "sybil",
            Op::Lockstep => "lockstep",
            Op::Eval => "eval",
        }
    }

    fn is_scan(self) -> bool {
        matches!(self, Op::Lockstep | Op::Eval)
    }
}

/// The query mix: `world_serve`'s rotation (status, score, page, campaign,
/// lockstep, eval) with `sybil` added to the point ops.
const ROTATION: [Op; 7] = [
    Op::Status,
    Op::Score,
    Op::Page,
    Op::Campaign,
    Op::Sybil,
    Op::Lockstep,
    Op::Eval,
];

struct Query {
    op: Op,
    due: Instant,
}

enum Msg {
    Bytes(Vec<u8>),
    Query(Query),
}

/// What the generator did.
struct Generated {
    queries: u64,
    /// Send time minus due time of every append and query, ms.
    lateness_ms: Vec<f64>,
}

/// A request line for `op` with ids drawn from the `users` accounts and
/// `pages` pages already ingested; `None` while `op` needs an entity kind
/// of which none is ingested yet.
fn request(
    op: Op,
    id: u64,
    rng: &mut Rng,
    users: u64,
    pages: u64,
    campaigns: u64,
) -> Option<String> {
    let pick = |rng: &mut Rng, n: u64| (n > 0).then(|| rng.below(n));
    let head = format!(r#"{{"v":1,"id":{id},"op":"{}""#, op.name());
    let tail = match op {
        Op::Status | Op::Lockstep => String::new(),
        Op::Score | Op::Sybil => format!(r#","user":{}"#, pick(rng, users)?),
        Op::Page => format!(r#","page":{}"#, pick(rng, pages)?),
        Op::Campaign => format!(r#","campaign":{}"#, pick(rng, campaigns)?),
        Op::Eval => r#","threshold":0.5"#.into(),
    };
    Some(format!("{head}{tail}}}"))
}

/// The producer and the open-loop query generator on one thread: it sleeps
/// until the next append is due, sends it, then sends every query whose
/// due point that append reached, due at the same time.
fn generate(
    tx: mpsc::Sender<Msg>,
    input: &Input,
    bytes_per_s: f64,
    appended: &AtomicU64,
) -> Generated {
    let start = Instant::now();
    let append_every = APPEND_BYTES as f64 / bytes_per_s;
    let mut queries = input.query_ends.iter().peekable();
    let mut out = Generated {
        queries: 0,
        lateness_ms: Vec::new(),
    };
    let late = |due: Instant| Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
    for (i, piece) in input.bytes.chunks(APPEND_BYTES).enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 * append_every);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        out.lateness_ms.push(late(due));
        if tx.send(Msg::Bytes(piece.to_vec())).is_err() {
            break;
        }
        let end = (i * APPEND_BYTES + piece.len()) as u64;
        appended.store(end, Ordering::SeqCst);
        while queries.next_if(|&&q| q as u64 <= end).is_some() {
            let op = ROTATION[out.queries as usize % ROTATION.len()];
            out.lateness_ms.push(late(due));
            if tx.send(Msg::Query(Query { op, due })).is_err() {
                return out;
            }
            out.queries += 1;
        }
    }
    out
}

/// What the serve loop measured in the follow phase.
#[derive(Default)]
struct FollowStats {
    point_ms: Vec<f64>,
    scan_ms: Vec<f64>,
    /// `ServeSession::handle_line` time per op, ms.
    service_ms: BTreeMap<Op, Vec<f64>>,
    lag_records: Vec<f64>,
    answered: u64,
    errors: u64,
    refreshes: u64,
    decode_s: f64,
    ingested: u64,
    leftover_bytes: usize,
    parity: bool,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The single serve thread: take what arrived (decoding appended bytes as
/// `FollowReader::poll` does), fold one chunk, answer the queued queries in
/// order, and block only when there is nothing to ingest. A query's ids are
/// drawn when it is answered, from what the engine holds then; a query
/// that needs an entity kind not yet ingested waits, and the queries
/// behind it too.
fn serve_loop(
    rx: mpsc::Receiver<Msg>,
    input: &Input,
    appended: &AtomicU64,
    seed: u64,
) -> Result<FollowStats, String> {
    let chunk = ServeConfig::default().chunk;
    let mut rng = Rng::seed_from_u64(seed ^ 0x7175_6572_795f_6d69);
    let mut tail = TailReader::new();
    let mut backlog: VecDeque<LogRecord> = VecDeque::new();
    let mut queue: VecDeque<Query> = VecDeque::new();
    let mut session: Option<ServeSession> = None;
    let mut stats = FollowStats::default();
    let mut connected = true;
    let mut waited: Option<Msg> = None;
    loop {
        loop {
            let msg = match waited.take().map_or_else(|| rx.try_recv(), Ok) {
                Ok(msg) => msg,
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    connected = false;
                    break;
                }
            };
            match msg {
                Msg::Bytes(bytes) => {
                    tail.extend(&bytes);
                    let started = Instant::now();
                    let frames = tail.drain().map_err(|e| format!("tail decode: {e}"))?;
                    stats.decode_s += started.elapsed().as_secs_f64();
                    backlog.extend(frames);
                }
                Msg::Query(q) => queue.push_back(q),
            }
        }
        if session.is_none() {
            session = engine_for(&tail)?.map(ServeSession::new);
        }
        if let Some(s) = session.as_mut() {
            let take = chunk.min(backlog.len());
            for frame in backlog.drain(..take) {
                s.engine_mut()
                    .ingest_frame(&frame)
                    .map_err(|e| format!("ingest: {e}"))?;
            }
            while let Some(q) = queue.front() {
                let world = s.engine_mut().world();
                let (users, pages) = (world.account_count() as u64, world.page_count() as u64);
                let id = stats.answered + 1;
                let Some(line) = request(q.op, id, &mut rng, users, pages, input.campaigns) else {
                    break;
                };
                let appended = appended.load(Ordering::SeqCst) as usize;
                let appended_records = input.ends.partition_point(|&e| e <= appended) as u64;
                let ingested = s.engine_mut().records_ingested();
                stats
                    .lag_records
                    .push(appended_records.saturating_sub(ingested) as f64);
                let started = Instant::now();
                let (response, _) = s.handle_line(&line, backlog.len());
                let done = Instant::now();
                stats
                    .service_ms
                    .entry(q.op)
                    .or_default()
                    .push(ms(done - started));
                let latency = ms(done.saturating_duration_since(q.due));
                if q.op.is_scan() {
                    stats.scan_ms.push(latency);
                } else {
                    stats.point_ms.push(latency);
                }
                queue.pop_front();
                stats.answered += 1;
                let reply: Value = serde_json::from_str(&response)
                    .map_err(|e| format!("unparseable reply `{response}`: {e}"))?;
                if reply.get("ok") != Some(&Value::Bool(true)) {
                    stats.errors += 1;
                } else if reply.get("data").and_then(|d| d.get("recomputed"))
                    == Some(&Value::Bool(true))
                {
                    stats.refreshes += 1;
                }
            }
        }
        if !connected && backlog.is_empty() {
            break;
        }
        if backlog.is_empty() {
            match rx.recv() {
                Ok(msg) => waited = Some(msg),
                Err(mpsc::RecvError) => connected = false,
            }
        }
    }
    stats.leftover_bytes = tail.pending_bytes();
    if let Some(s) = session.as_mut() {
        stats.ingested = s.engine_mut().records_ingested();
        stats.parity = parity(s.engine_mut(), input);
    }
    Ok(stats)
}

/// Run the follow phase at `bytes_per_s`: the generator on a second
/// thread, the serve loop on this one.
fn follow(input: &Input, run: &Run, bytes_per_s: f64) -> Result<(FollowStats, Generated), String> {
    let appended = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let generator = scope.spawn(|| generate(tx, input, bytes_per_s, &appended));
        let stats = serve_loop(rx, input, &appended, run.seed);
        let generated = generator
            .join()
            .map_err(|_| "the query generator panicked".to_string())?;
        Ok((stats?, generated))
    })
}

/// Record the follow phase's checks, the sample count behind each
/// percentile, and how late the generator ran.
fn follow_report(out: &mut Outcome, input: &Input, f: &FollowStats, g: &Generated) {
    out.ops(f.answered, f.errors);
    out.check(
        format!(
            "serve-tail follow: every query answered ({} of {})",
            f.answered, g.queries
        ),
        f.answered == g.queries,
    );
    out.check(
        "serve-tail follow: every appended record ingested, no partial frame left",
        f.ingested == input.ends.len() as u64 && f.leftover_bytes == 0,
    );
    out.check(
        "serve-tail follow: online == batch burst verdicts bitwise on every honeypot page",
        f.parity,
    );
    out.info("samples.point_queries", f.point_ms.len());
    out.info("samples.point_beyond_p99", summary(&f.point_ms).beyond_p99);
    out.info("samples.scan_queries", f.scan_ms.len());
    out.info("samples.lag", f.lag_records.len());
    for (op, samples) in &f.service_ms {
        out.info(&format!("samples.query.{}", op.name()), samples.len());
    }
    out.info("generator.lateness_p99_ms", summary(&g.lateness_ms).p99);
    out.info(
        "generator.lateness_max_ms",
        g.lateness_ms.iter().copied().fold(0.0, f64::max),
    );
}

/// One catch-up with its checks; returns seconds.
fn timed_catch_up(out: &mut Outcome, input: &Input) -> Result<f64, String> {
    let started = Instant::now();
    let mut engine = catch_up(&input.bytes)?;
    let secs = started.elapsed().as_secs_f64();
    out.check(
        "serve-tail catch-up: every record ingested",
        engine.records_ingested() == input.ends.len() as u64,
    );
    out.check(
        "serve-tail catch-up: online == batch burst verdicts bitwise on every honeypot page",
        parity(&mut engine, input),
    );
    Ok(secs)
}

fn provenance(out: &mut Outcome, run: &Run, input: &Input, bytes_per_s: f64) {
    out.info("preset", "paper");
    out.info("scale", run.sizes.serve_scale);
    out.info("records", input.records);
    out.info("log_bytes", input.bytes.len());
    out.info("route_counts.sparse", input.routes.sparse);
    out.info("route_counts.dense", input.routes.dense);
    out.info("route_likes.sparse", input.routes.sparse_likes);
    out.info("route_likes.dense", input.routes.dense_likes);
    out.info("follow.append_bytes", APPEND_BYTES);
    out.info("follow.producer_bytes_per_s", bytes_per_s);
    out.info("follow.chunk_records", ServeConfig::default().chunk);
    out.info("follow.first_page_record", input.first_page);
    out.info("follow.queries_due", input.query_ends.len());
}

/// The follow phase's producer rate: the log's bytes over the time set-up
/// took to run the study and encode its log, which is what a study
/// writing the log with `--log-out` spends on the same work.
fn producer_rate(input: &Input, write_s: f64) -> f64 {
    input.bytes.len() as f64 / write_s
}

/// The `serve-tail` workload.
pub fn serve_tail(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::new("serve-tail", run);
    if run.trace {
        return traced(run, out);
    }
    let mut setups = Vec::new();
    let mut input = None;
    for _ in 0..run.sizes.setup_reps.max(1) {
        // Release the previous log before producing the next one.
        drop(input.take());
        let produced = produce(run, false)?;
        setups.push(produced.study_s + produced.encode_s);
        input = Some(produced.input);
    }
    let mut input = input.ok_or("no set-up ran")?;
    input.index()?;
    let setup_s = median(&setups).unwrap_or(0.0);
    let bytes_per_s = producer_rate(&input, setup_s);
    provenance(&mut out, run, &input, bytes_per_s);

    // Catch-up is the timed iteration; the follow phase runs once after it.
    alloc::reset_peak();
    let catchup = run.repeat(|| timed_catch_up(&mut out, &input))?;
    let (f, g) = follow(&input, run, bytes_per_s)?;
    let peak_mib = alloc::peak_mib();
    out.info("catchup_iterations", catchup.len());
    out.info("catchup_s.samples", format!("{catchup:?}"));
    follow_report(&mut out, &input, &f, &g);

    let point = summary(&f.point_ms);
    let scan = summary(&f.scan_ms);
    let lag = summary(&f.lag_records);
    let catchup_s = median(&catchup).unwrap_or(0.0);
    out.detail(
        "serve_catchup_s",
        catchup_s,
        "s",
        "whole log folded into a fresh engine",
    );
    out.detail(
        "serve_query_p50_ms",
        point.p50,
        "ms",
        "point ops, from due time",
    );
    out.detail(
        "serve_query_p99_ms",
        point.p99,
        "ms",
        "point ops, from due time",
    );
    out.detail(
        "serve_scan_p50_ms",
        scan.p50,
        "ms",
        "lockstep/eval, from due time",
    );
    out.detail(
        "serve_lag_p99_records",
        lag.p99,
        "records",
        "appended but not yet ingested when a query is answered",
    );
    out.metric("setup_s", setup_s, "s", "paper log produced and encoded");
    out.metric("run_s", catchup_s, "s", "= serve_catchup_s");
    out.metric("peak_alloc_mb", peak_mib, "MiB", "over catch-up and follow");
    Ok(out)
}

fn traced(run: &Run, mut out: Outcome) -> Result<Outcome, String> {
    let mut produced = produce(run, true)?;
    produced.input.index()?;
    let input = &produced.input;
    let bytes_per_s = producer_rate(input, produced.study_s + produced.encode_s);
    provenance(&mut out, run, input, bytes_per_s);

    // The split catch-up runs first so that the untraced and traced
    // catch-ups compared for the overhead are both warm.
    let layers_split = catch_up_layers(&input.bytes)?;
    let untraced_s = timed_catch_up(&mut out, input)?;
    likelab_obs::reset();
    likelab_obs::enable();
    let traced_s = timed_catch_up(&mut out, input);
    likelab_obs::disable();
    let traced_s = traced_s?;
    likelab_obs::enable();
    let followed = follow(input, run, bytes_per_s);
    likelab_obs::disable();
    let (f, g) = followed?;
    follow_report(&mut out, input, &f, &g);

    let snap = produced.snapshot.as_ref().ok_or("no study snapshot")?;
    layers::record_study(
        &mut out,
        snap,
        run.exec.worker_count(),
        traced_s / untraced_s - 1.0,
    )?;
    out.detail("serve_catchup_s", untraced_s, "s", "");
    out.detail("serve_catchup_s.traced", traced_s, "s", "");
    let catchup = "serve_catchup_s on serve-tail";
    out.detail(
        "core.log.encode_s",
        produced.encode_s,
        "s",
        "setup_s on serve-tail, study_s on study-paper-log",
    );
    out.detail("sim.tail.decode_s", layers_split.decode_s, "s", catchup);
    out.detail(
        "sim.tail.decode_s.follow",
        f.decode_s,
        "s",
        "serve_lag_p99_records on serve-tail",
    );
    out.detail("core.serve.parse_s", layers_split.parse_s, "s", catchup);
    out.detail("osn.fanout.apply_s", layers_split.fanout_s, "s", catchup);
    out.detail("detect.online.apply_s", layers_split.detect_s, "s", catchup);
    out.detail(
        "detect.sybilrank.refreshes",
        f.refreshes as f64,
        "count",
        "serve_scan_p50_ms on serve-tail",
    );
    for (op, samples) in &f.service_ms {
        out.detail(
            &format!("core.serve.query.{}.p50_ms", op.name()),
            median(samples).unwrap_or(0.0),
            "ms",
            "serve_query_p99_ms and serve_scan_p50_ms on serve-tail",
        );
    }
    let records = produced.records.as_deref().unwrap_or(&[]);
    layers::record_apply(&mut out, &layers::fold_apply(records), input.routes);
    Ok(out)
}

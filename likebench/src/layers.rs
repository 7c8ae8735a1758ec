//! Per-layer metrics: read from the obs registry after a traced study run,
//! or timed here around calls into a layer's public functions.

use crate::outcome::{Metric, Outcome};
use crate::stats::{self, Interval};
use likelab_core::StudyRecord;
use likelab_graph::UserId;
use likelab_obs::{Snapshot, SpanRecord};
use likelab_osn::{OsnWorld, WorldEvent};
use std::time::Instant;

/// Clear the obs registry, make the span ring large enough for a whole
/// study (self time and coverage need every span record), and enable it.
pub fn trace_on() {
    likelab_obs::reset();
    likelab_obs::shard::set_span_ring_capacity(1 << 20);
    likelab_obs::enable();
}

/// Record the study layer metrics of a traced run's snapshot as listed
/// per-layer metrics, plus `obs.overhead_share` (traced / untraced
/// `run_s` - 1).
pub fn record_study(
    out: &mut Outcome,
    snap: &Snapshot,
    workers: usize,
    overhead: f64,
) -> Result<StudySpans, String> {
    let (metrics, spans) = study_layers(snap, workers)?;
    for m in metrics {
        out.metric(&m.name, m.value, m.unit, m.moves);
    }
    out.metric(
        "obs.overhead_share",
        overhead,
        "ratio",
        "obs: traced / untraced run_s - 1",
    );
    Ok(spans)
}

/// Seconds in `ns` nanoseconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn interval(s: &SpanRecord) -> Interval {
    (s.start_ns, s.start_ns + s.dur_ns)
}

fn span_s(snap: &Snapshot, name: &str) -> f64 {
    snap.span_stats.get(name).map_or(0.0, |s| secs(s.total_ns))
}

fn hist_sum_s(snap: &Snapshot, name: &str) -> f64 {
    snap.histograms.get(name).map_or(0.0, |h| secs(h.sum()))
}

fn metric(name: &str, value: f64, unit: &'static str, moves: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
        moves,
    }
}

/// The one span named `name`, or an error naming how many there were.
fn only<'a>(snap: &'a Snapshot, name: &str) -> Result<&'a SpanRecord, String> {
    let found: Vec<&SpanRecord> = snap.spans.iter().filter(|s| s.name == name).collect();
    match found[..] {
        [one] => Ok(one),
        _ => Err(format!("expected one `{name}` span, found {}", found.len())),
    }
}

fn children<'a>(snap: &'a Snapshot, parent: &SpanRecord) -> Vec<&'a SpanRecord> {
    snap.spans
        .iter()
        .filter(|s| s.parent == Some(parent.id))
        .collect()
}

fn intervals(spans: &[&SpanRecord]) -> Vec<Interval> {
    spans.iter().map(|s| interval(s)).collect()
}

/// Span accounting of one traced `study.run`.
#[derive(Clone, Copy, Debug)]
pub struct StudySpans {
    /// `study.run` duration, seconds.
    pub run_s: f64,
    /// Time the direct children of `study.run` cover, seconds.
    pub children_s: f64,
    /// `study.event_loop` self time, seconds.
    pub event_loop_self_s: f64,
}

/// The study-pipeline layer metrics of one traced study run (obs reset
/// before it, so the snapshot holds exactly one `study.run`). `workers` is
/// the parallel worker count the run used.
fn study_layers(snap: &Snapshot, workers: usize) -> Result<(Vec<Metric>, StudySpans), String> {
    if snap.dropped_spans > 0 {
        return Err(format!(
            "the span ring dropped {} spans; coverage would be wrong",
            snap.dropped_spans
        ));
    }
    let run = only(snap, "study.run")?;
    let top = children(snap, run);
    let event_loop = only(snap, "study.event_loop")?;
    let loop_children = children(snap, event_loop);
    let likes = only(snap, "population.likes")?;
    let draw_s: f64 = children(snap, likes)
        .iter()
        .filter(|s| s.name == "parallel.map")
        .map(|s| secs(s.dur_ns))
        .sum();

    let run_iv = interval(run);
    let loop_iv = interval(event_loop);
    let spans = StudySpans {
        run_s: secs(run.dur_ns),
        children_s: secs(stats::covered_ns(run_iv, &intervals(&top))),
        event_loop_self_s: secs(stats::self_ns(loop_iv, &intervals(&loop_children))),
    };

    let map_s = span_s(snap, "parallel.map");
    let job_s = hist_sum_s(snap, "parallel.job.ns");
    let busy_share = if map_s > 0.0 {
        job_s / (workers.max(1) as f64 * map_s)
    } else {
        0.0
    };
    let requests = snap.counters.get("crawl.requests").copied().unwrap_or(0);
    let failures: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("crawl.failures{"))
        .map(|(_, v)| v)
        .sum();
    let section = |s: &str| hist_sum_s(snap, &format!("report.section.ns{{section={s}}}"));

    const SCALE: &str = "study_s on study-scale";
    const PAPER: &str = "study_s on study-paper-log";
    let metrics = vec![
        metric("sim.parallel.busy_share", busy_share, "ratio", SCALE),
        metric(
            "osn.population.accounts_s",
            span_s(snap, "population.accounts"),
            "s",
            SCALE,
        ),
        metric("osn.population.likes_draw_s", draw_s, "s", SCALE),
        metric(
            "osn.population.likes_sort_s",
            span_s(snap, "population.likes.sort"),
            "s",
            SCALE,
        ),
        metric(
            "osn.population.likes_ingest_s",
            span_s(snap, "population.likes.ingest"),
            "s",
            SCALE,
        ),
        metric(
            "graph.population.graph_s",
            span_s(snap, "population.graph"),
            "s",
            SCALE,
        ),
        metric(
            "osn.fraudops.sweep_s",
            span_s(snap, "study.sweep"),
            "s",
            SCALE,
        ),
        metric(
            "farms.promotions_s",
            span_s(snap, "study.promotions"),
            "s",
            PAPER,
        ),
        metric("honeypot.poll_s", span_s(snap, "study.poll"), "s", PAPER),
        metric(
            "honeypot.collection_s",
            span_s(snap, "study.collection"),
            "s",
            PAPER,
        ),
        metric("honeypot.crawl.requests", requests as f64, "count", PAPER),
        metric(
            "honeypot.crawl.failed_share",
            failures as f64 / requests.max(1) as f64,
            "ratio",
            PAPER,
        ),
        metric(
            "analysis.report_s",
            span_s(snap, "study.report"),
            "s",
            "study_s and replay_s on study-paper-log",
        ),
        metric(
            "analysis.report.figure5_pages_s",
            section("figure5_pages"),
            "s",
            "study_s and replay_s on study-paper-log",
        ),
        metric(
            "analysis.report.figure3_twohop_s",
            section("figure3_twohop"),
            "s",
            "study_s and replay_s on study-paper-log",
        ),
        metric(
            "analysis.report.table3_s",
            section("table3"),
            "s",
            "study_s and replay_s on study-paper-log",
        ),
        metric(
            "core.event_loop.self_s",
            spans.event_loop_self_s,
            "s",
            "study_s on study-scale and study-paper-log",
        ),
        metric(
            "core.study.span_coverage",
            stats::coverage(run_iv, &intervals(&top)),
            "ratio",
            "obs: named child spans of study.run / study.run",
        ),
        metric(
            "core.event_loop.span_coverage",
            stats::coverage(loop_iv, &intervals(&loop_children)),
            "ratio",
            "obs: named child spans of study.event_loop / study.event_loop",
        ),
    ];
    Ok((metrics, spans))
}

/// Event-loop `LikeBatch` records by ledger kernel route.
#[derive(Clone, Copy, Debug, Default)]
pub struct Routes {
    /// Batches the sparse kernel takes.
    pub sparse: u64,
    /// Batches the dense kernel takes.
    pub dense: u64,
    /// Likes reaching the ledger in sparse batches.
    pub sparse_likes: u64,
    /// Likes reaching the ledger in dense batches.
    pub dense_likes: u64,
}

/// Follows a record stream to tell which ledger kernel each event-loop
/// `LikeBatch` takes. `OsnWorld::ingest_like_columns` journals the batch
/// before it drops likes by terminated accounts; `LikeLedger::ingest_columns`
/// then takes its sparse kernel when the filtered batch holds fewer than
/// `n_users / 8` likes (`n_users`: accounts created so far), and no kernel
/// when it is empty. So the router tracks which accounts are active.
#[derive(Default)]
pub struct Router {
    /// Inside the event loop: between the `fraud` RNG fork (the last one
    /// set-up takes) and the `baseline` fork (taken after collection).
    in_loop: bool,
    /// Active flag of every account created so far.
    active: Vec<bool>,
}

impl Router {
    /// Take in `record`, before it is applied. For an event-loop
    /// `LikeBatch` that reaches the ledger, returns how many of its likes
    /// do and whether the sparse kernel takes them.
    pub fn see(&mut self, record: &StudyRecord) -> Option<(usize, bool)> {
        let set = |active: &mut Vec<bool>, user: UserId, on: bool| {
            if let Some(flag) = active.get_mut(user.idx()) {
                *flag = on;
            }
        };
        match record {
            StudyRecord::RngFork { label } => self.in_loop = label == "fraud",
            StudyRecord::World(WorldEvent::AccountCreated { .. }) => self.active.push(true),
            StudyRecord::World(WorldEvent::Terminated { user, .. }) => {
                set(&mut self.active, *user, false)
            }
            StudyRecord::World(WorldEvent::Reinstated { user }) => {
                set(&mut self.active, *user, true)
            }
            StudyRecord::World(WorldEvent::LikeBatch { likes }) if self.in_loop => {
                let alive = likes
                    .iter()
                    .filter(|(user, _, _)| self.active.get(user.idx()) == Some(&true))
                    .count();
                return (alive > 0).then_some((alive, alive < self.active.len() / 8));
            }
            _ => {}
        }
        None
    }
}

/// Count the event loop's like batches by kernel route.
pub fn routes(records: &[(u64, StudyRecord)]) -> Routes {
    let mut router = Router::default();
    let mut routes = Routes::default();
    for (_, record) in records {
        match router.see(record) {
            Some((likes, true)) => {
                routes.sparse += 1;
                routes.sparse_likes += likes as u64;
            }
            Some((likes, false)) => {
                routes.dense += 1;
                routes.dense_likes += likes as u64;
            }
            None => {}
        }
    }
    routes
}

/// `OsnWorld::apply_event` time by event kind, over one captured log.
#[derive(Clone, Copy, Debug, Default)]
pub struct ApplyTimes {
    /// Event-loop like batches on the sparse route: count and seconds.
    pub sparse: (u64, f64),
    /// Event-loop like batches on the dense route: count and seconds.
    pub dense: (u64, f64),
    /// `AccountCreated` events, seconds.
    pub account_s: f64,
    /// `FriendshipBatch` events, seconds.
    pub friendship_batch_s: f64,
    /// Every world event, seconds.
    pub total_s: f64,
    /// Event-loop like batches whose surviving like count, or account
    /// count, the router got wrong against the folded world.
    pub misrouted: u64,
}

/// Fold a captured log into a fresh world through
/// `OsnWorld::apply_event`, timing each call by event kind. Each
/// event-loop like batch is also filtered against the world itself, which
/// checks the router's account tracking.
pub fn fold_apply(records: &[(u64, StudyRecord)]) -> ApplyTimes {
    let mut world = OsnWorld::new();
    let mut router = Router::default();
    let mut t = ApplyTimes::default();
    for (_, record) in records {
        let route = router.see(record);
        let StudyRecord::World(ev) = record else {
            continue;
        };
        if let (WorldEvent::LikeBatch { likes }, true) = (ev, router.in_loop) {
            let alive = likes.iter().filter(|l| world.is_active(l.0)).count();
            let expect = (alive > 0).then_some(alive);
            if route.map(|r| r.0) != expect || router.active.len() != world.account_count() {
                t.misrouted += 1;
            }
        }
        let started = Instant::now();
        world.apply_event(ev);
        let s = started.elapsed().as_secs_f64();
        t.total_s += s;
        match (ev, route) {
            (WorldEvent::AccountCreated { .. }, _) => t.account_s += s,
            (WorldEvent::FriendshipBatch { .. }, _) => t.friendship_batch_s += s,
            (_, Some((_, sparse))) => {
                let slot = if sparse { &mut t.sparse } else { &mut t.dense };
                slot.0 += 1;
                slot.1 += s;
            }
            _ => {}
        }
    }
    t
}

/// Record the `osn.apply.*` layer metrics of one fold, and check the
/// route counts: the fold's agree with `routes` (the stream's) and every
/// batch was routed on the world's own account state.
pub fn record_apply(out: &mut Outcome, t: &ApplyTimes, routes: Routes) {
    out.check(
        "like batch routes follow the folded world's active accounts",
        t.misrouted == 0 && (routes.sparse, routes.dense) == (t.sparse.0, t.dense.0),
    );
    for m in apply_metrics(t) {
        out.detail(&m.name, m.value, m.unit, m.moves);
    }
}

fn apply_metrics(t: &ApplyTimes) -> Vec<Metric> {
    const BATCH: &str = "study_s: sparse on study-scale, dense on study-paper-log";
    vec![
        metric("osn.apply.like_batch_sparse_s", t.sparse.1, "s", BATCH),
        metric(
            "osn.apply.like_batch_sparse_batches",
            t.sparse.0 as f64,
            "count",
            BATCH,
        ),
        metric("osn.apply.like_batch_dense_s", t.dense.1, "s", BATCH),
        metric(
            "osn.apply.like_batch_dense_batches",
            t.dense.0 as f64,
            "count",
            BATCH,
        ),
        metric(
            "osn.apply.account_s",
            t.account_s,
            "s",
            "replay_s on study-paper-log",
        ),
        metric(
            "osn.apply.friendship_batch_s",
            t.friendship_batch_s,
            "s",
            "replay_s on study-paper-log",
        ),
    ]
}

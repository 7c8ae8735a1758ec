//! `world_serve` — live scoring service benchmark.
//!
//! Measures the three numbers `likelab serve` is judged by (SERVING.md):
//!
//! 1. **ingest throughput** — study records folded through the tail
//!    decoder, the event fanout, and the online detector suite, in
//!    events per second;
//! 2. **ingest lag** — the backlog (in records) observed when queries are
//!    interleaved with ingest at a fixed cadence, i.e. how far behind the
//!    stream a mid-flight answer may be;
//! 3. **p99 query latency** — over a mixed query workload (status, score,
//!    page, campaign, lockstep, eval) fired between ingest chunks.
//!
//! The run ends with the bitwise online-vs-batch parity assertion on the
//! burst detector — a benchmark of a wrong answer is worthless.
//!
//! Results go to stdout and `BENCH_serve.json` at the repository root
//! (override with `LIKELAB_BENCH_OUT`), with the host's core count
//! (`nproc`) beside the worker count. The study is the paper preset
//! trimmed by `LIKELAB_BENCH_SERVE_SCALE` (default 0.05 — CI-sized).

use likelab_core::serve::{ServeConfig, ServeEngine, ServeSession};
use likelab_core::{run_study_opts, RunOptions, StudyConfig};
use likelab_detect::BurstConfig;
use likelab_obs::Histogram;
use likelab_sim::tail::TailReader;
use likelab_sim::Exec;
use std::path::PathBuf;
use std::time::Instant;

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let scale = env_f64("LIKELAB_BENCH_SERVE_SCALE", 0.05);
    let seed = 42u64;
    let exec = Exec::auto();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let chunk = 4_096usize;
    let out_path = std::env::var("LIKELAB_BENCH_OUT").map_or_else(
        |_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_serve.json")
        },
        PathBuf::from,
    );

    // --- phase 1: produce the stream --------------------------------------
    let mut outcome = run_study_opts(
        &StudyConfig::paper(seed, scale),
        &RunOptions {
            exec,
            capture_log: true,
            ..RunOptions::default()
        },
    )
    .expect("logged run");
    let log = outcome.log.take().expect("log captured");
    let events = log.records().len();
    let bytes = log.to_binary().expect("encode");

    // --- phase 2: pure ingest throughput ----------------------------------
    let t = Instant::now();
    let mut tail = TailReader::new();
    tail.extend(&bytes);
    // The first next_record() call decodes the header and yields the
    // first frame in one step.
    let first = tail.next_record().expect("decode").expect("first frame");
    let header = tail.header().expect("header decoded").clone();
    let mut engine = ServeEngine::new(&header, ServeConfig::default()).expect("engine");
    engine.ingest_frame(&first).expect("ingest");
    while let Some(frame) = tail.next_record().expect("decode") {
        engine.ingest_frame(&frame).expect("ingest");
    }
    let ingest_seconds = t.elapsed().as_secs_f64();
    let ingest_events_per_sec = events as f64 / ingest_seconds;
    assert_eq!(engine.records_ingested() as usize, events);

    // --- phase 3: mixed query workload interleaved with ingest ------------
    // Re-ingest from scratch, chunked; after every chunk fire a query from
    // the rotating mix. The backlog at each query is the ingest lag the
    // protocol's `status.pending` field reports.
    let mut tail = TailReader::new();
    tail.extend(&bytes);
    let mut frames = Vec::with_capacity(events);
    while let Some(frame) = tail.next_record().expect("decode") {
        frames.push(frame);
    }
    let mut session =
        ServeSession::new(ServeEngine::new(&header, ServeConfig::default()).expect("engine"));
    let queries = [
        r#"{"v":1,"id":1,"op":"status"}"#,
        r#"{"v":1,"id":2,"op":"score","user":7}"#,
        r#"{"v":1,"id":3,"op":"page","page":0}"#,
        r#"{"v":1,"id":4,"op":"campaign","campaign":3}"#,
        r#"{"v":1,"id":5,"op":"lockstep"}"#,
        r#"{"v":1,"id":6,"op":"eval","threshold":0.5}"#,
    ];
    let mut lag = Histogram::default();
    let t = Instant::now();
    let mut fired = 0usize;
    for (i, batch) in frames.chunks(chunk).enumerate() {
        for frame in batch {
            session.engine_mut().ingest_frame(frame).expect("ingest");
        }
        let pending = events - (i * chunk + batch.len()).min(events);
        let (response, _) = session.handle_line(queries[i % queries.len()], pending);
        assert!(response.contains("\"ok\":true"), "query failed: {response}");
        lag.record(pending as u64);
        fired += 1;
    }
    let serve_seconds = t.elapsed().as_secs_f64();
    let stats = session.stats().clone();
    let p99_query_ns = stats.p99_query_ns();
    let mean_lag = lag.mean();
    let max_lag = lag.max();

    // --- phase 4: the answers must be right -------------------------------
    let engine = session.engine_mut();
    for &page in &outcome.honeypots {
        let batch = likelab_detect::judge_page(&outcome.world, page, None, &BurstConfig::default());
        let online = engine.detectors_mut().burst_mut().page_verdict(page);
        assert_eq!(
            online.peak_share.to_bits(),
            batch.peak_share.to_bits(),
            "parity violated for page {page:?}"
        );
        assert_eq!(
            (online.events, online.flagged),
            (batch.events, batch.flagged)
        );
    }

    println!("== world_serve: paper preset at scale {scale} ==");
    let workers = exec.worker_count();
    println!("workers:            {workers} (nproc {nproc})");
    println!("stream records:     {events}");
    println!("ingest:             {ingest_seconds:.3} s ({ingest_events_per_sec:.0} events/s)");
    println!("interleaved:        {serve_seconds:.3} s, {fired} queries (chunk {chunk})");
    println!(
        "query latency:      p99 {:.3} ms (mean {:.3} ms)",
        p99_query_ns as f64 / 1e6,
        stats.query_ns.mean() / 1e6,
    );
    println!("ingest lag:         mean {mean_lag:.0} records, max {max_lag} (bounded by backlog)");
    println!(
        "parity:             online == batch bitwise ({} pages)",
        outcome.honeypots.len()
    );

    // Flat JSON by hand: the bench crate has no serde dependency and the
    // record is a single object.
    let json = format!(
        "{{\n  \"bench\": \"world_serve\",\n  \"scale\": {scale},\n  \"seed\": {seed},\n  \
         \"nproc\": {nproc},\n  \"workers\": {workers},\n  \"events\": {events},\n  \"chunk\": {chunk},\n  \
         \"ingest_seconds\": {ingest_seconds:.6},\n  \
         \"ingest_events_per_sec\": {ingest_events_per_sec:.1},\n  \
         \"queries\": {fired},\n  \
         \"p99_query_ns\": {p99_query_ns},\n  \
         \"mean_lag_records\": {mean_lag:.1},\n  \
         \"max_lag_records\": {max_lag}\n}}\n"
    );
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("written: {}", out_path.display()),
        Err(e) => {
            eprintln!("error: write {}: {e}", out_path.display());
            std::process::exit(1);
        }
    }
}

//! The two study workloads.
//!
//! - `study-scale`: the million-account preset at scale 0.1 with no log.
//!   Population synthesis, the CSR graph build and seven fraud sweeps over
//!   ~106k accounts dominate; every event-loop like batch takes the sparse
//!   ledger kernel; no log codec runs.
//! - `study-paper-log`: the paper preset at scale 0.05 with the log captured
//!   and encoded (what `--log-out` costs, minus the disk), then decoded and
//!   replayed to a rendered report. Most event-loop likes take the dense
//!   kernel, and promotions, crawling and `figure5_pages` weigh more.

use crate::layers;
use crate::outcome::Outcome;
use crate::stats::{fnv1a, median};
use crate::{alloc, Run};
use likelab_core::replay::replay_records;
use likelab_core::StudyRecord;
use likelab_core::{run_study_opts, ReplayOptions, RunOptions, StudyConfig, StudyOutcome};
use likelab_sim::event::decode_binary;
use std::time::Instant;

fn options(run: &Run, capture_log: bool) -> RunOptions {
    RunOptions {
        exec: run.exec,
        capture_log,
        ..RunOptions::default()
    }
}

fn study(config: &StudyConfig, opts: &RunOptions) -> Result<(StudyOutcome, String), String> {
    let outcome = run_study_opts(config, opts).map_err(|e| format!("study failed: {e}"))?;
    let text = outcome.report.render();
    Ok((outcome, text))
}

/// Set-up of a study workload: the same pipeline on a small world, so
/// lazy initialisation (thread pool, page faults, allocator arenas) is paid
/// before timing. Returns the median of `reps` set-ups, seconds.
fn warm_up(reps: usize, mut once: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        once()?;
        times.push(started.elapsed().as_secs_f64());
    }
    Ok(median(&times).unwrap_or(0.0))
}

fn all_equal<T: PartialEq>(v: &[T]) -> bool {
    v.windows(2).all(|w| w[0] == w[1])
}

// ---------------------------------------------------------------------------
// study-scale

/// One `study-scale` iteration: seconds, peak MiB, report digest.
fn scale_iteration(config: &StudyConfig, opts: &RunOptions) -> Result<(f64, f64, u64), String> {
    alloc::reset_peak();
    let started = Instant::now();
    let (outcome, text) = study(config, opts)?;
    let secs = started.elapsed().as_secs_f64();
    let peak = alloc::peak_mib();
    drop(outcome);
    Ok((secs, peak, fnv1a(text.as_bytes())))
}

/// The `study-scale` workload.
pub fn study_scale(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::new("study-scale", run);
    let scale = run.sizes.study_scale;
    out.info("preset", "scale");
    out.info("scale", scale);
    out.info(
        "route_counts",
        "n/a: study-scale runs without a log, so there is no LikeBatch stream to count",
    );
    let config = StudyConfig::scale_world(run.seed, scale);
    let warm = StudyConfig::scale_world(run.seed, run.sizes.warmup_scale);
    let opts = options(run, false);
    let reps = if run.trace { 1 } else { run.sizes.setup_reps };
    let setup_s = warm_up(reps, || study(&warm, &opts).map(drop))?;

    if run.trace {
        let (untraced_s, _, digest) = scale_iteration(&config, &opts)?;
        layers::trace_on();
        let traced = scale_iteration(&config, &opts);
        likelab_obs::disable();
        let (traced_s, _, traced_digest) = traced?;
        let snap = likelab_obs::snapshot();
        out.info("report_digest", format!("{digest:016x}"));
        out.check(
            "study-scale: report digest identical between the untraced and traced runs",
            digest == traced_digest,
        );
        let spans = layers::record_study(
            &mut out,
            &snap,
            run.exec.worker_count(),
            traced_s / untraced_s - 1.0,
        )?;
        out.detail("study_s", untraced_s, "s", "");
        out.detail("study_s.traced", traced_s, "s", "");
        out.detail(
            "core.study.children_s",
            spans.children_s,
            "s",
            "direct child spans of study.run (traced)",
        );
        out.detail(
            "core.study.render_s",
            traced_s - spans.run_s,
            "s",
            "report rendering after study.run (traced)",
        );
        return Ok(out);
    }

    let iterations = run.repeat(|| scale_iteration(&config, &opts))?;
    let times: Vec<f64> = iterations.iter().map(|i| i.0).collect();
    let peaks: Vec<f64> = iterations.iter().map(|i| i.1).collect();
    let digests: Vec<u64> = iterations.iter().map(|i| i.2).collect();
    out.ops(iterations.len() as u64, 0);
    out.info("iterations", iterations.len());
    out.info("run_s.samples", format!("{times:?}"));
    out.info("report_digest", format!("{:016x}", digests[0]));
    out.check(
        format!(
            "study-scale: report digest identical across {} iteration(s)",
            digests.len()
        ),
        all_equal(&digests),
    );
    let study_s = median(&times).unwrap_or(0.0);
    out.detail(
        "study_s",
        study_s,
        "s",
        "run_study_opts through the rendered report",
    );
    out.metric("setup_s", setup_s, "s", "warm-up study at the set-up scale");
    out.metric("run_s", study_s, "s", "= study_s");
    out.metric("peak_alloc_mb", median(&peaks).unwrap_or(0.0), "MiB", "");
    Ok(out)
}

// ---------------------------------------------------------------------------
// study-paper-log

/// What one `study-paper-log` iteration measured.
struct LogIteration {
    study_s: f64,
    replay_s: f64,
    peak_mib: f64,
    log_bytes: usize,
    records: usize,
    routes: layers::Routes,
    identical: bool,
    digest: u64,
    /// Outside timings, traced run only.
    encode_s: f64,
    decode_s: f64,
    replay_fold_s: f64,
    apply: Option<layers::ApplyTimes>,
    study_snapshot: Option<likelab_obs::Snapshot>,
}

/// Parse decoded frames into study records.
fn parse_records(
    frames: Vec<likelab_sim::event::LogRecord>,
) -> Result<Vec<(u64, StudyRecord)>, String> {
    frames
        .into_iter()
        .map(|f| {
            serde::Deserialize::from_value(&f.payload)
                .map(|r| (f.seq, r))
                .map_err(|e| format!("record {}: {e}", f.seq))
        })
        .collect()
}

/// One `study-paper-log` iteration. In a traced iteration obs is on for
/// the study (its snapshot is returned) and for the replay; the
/// `apply_event` fold runs afterwards with obs off.
fn log_iteration(run: &Run, config: &StudyConfig, traced: bool) -> Result<LogIteration, String> {
    alloc::reset_peak();
    if traced {
        layers::trace_on();
    }
    let started = Instant::now();
    let (mut outcome, text) = study(config, &options(run, true))?;
    let run_s = started.elapsed().as_secs_f64();
    let study_snapshot = traced.then(|| {
        let snap = likelab_obs::snapshot();
        likelab_obs::reset();
        snap
    });
    let log = outcome.log.take().ok_or("the run captured no log")?;
    let encode_started = Instant::now();
    let bytes = log.to_binary().map_err(|e| format!("encode: {e}"))?;
    let encode_s = encode_started.elapsed().as_secs_f64();
    let study_s = run_s + encode_s;

    let records = log.records().len();
    let routes = layers::routes(log.records());
    let apply = traced.then(|| {
        likelab_obs::disable();
        let t = layers::fold_apply(log.records());
        likelab_obs::enable();
        t
    });
    drop(log);
    drop(outcome);

    let started = Instant::now();
    let (header, frames) = decode_binary(&bytes).map_err(|e| format!("decode: {e}"))?;
    let parsed = parse_records(frames)?;
    let decode_s = started.elapsed().as_secs_f64();
    let replayed = replay_records(
        &header,
        parsed,
        &ReplayOptions {
            exec: run.exec,
            ..ReplayOptions::default()
        },
    )
    .map_err(|e| format!("replay: {e}"))?;
    let replayed_text = replayed.report.render();
    let replay_s = started.elapsed().as_secs_f64();
    let peak_mib = alloc::peak_mib();
    let replay_fold_s = if traced {
        likelab_obs::disable();
        likelab_obs::snapshot()
            .histograms
            .get("log.replay.ns")
            .map_or(0.0, |h| layers::secs(h.sum()))
    } else {
        0.0
    };
    Ok(LogIteration {
        study_s,
        replay_s,
        peak_mib,
        log_bytes: bytes.len(),
        records,
        routes,
        identical: replayed_text == text,
        digest: fnv1a(text.as_bytes()),
        encode_s,
        decode_s,
        replay_fold_s,
        apply,
        study_snapshot,
    })
}

fn log_provenance(out: &mut Outcome, it: &LogIteration) {
    out.info("records", it.records);
    out.info("log_bytes", it.log_bytes);
    out.info("route_counts.sparse", it.routes.sparse);
    out.info("route_counts.dense", it.routes.dense);
    out.info("route_likes.sparse", it.routes.sparse_likes);
    out.info("route_likes.dense", it.routes.dense_likes);
    out.info("report_digest", format!("{:016x}", it.digest));
}

/// The `study-paper-log` workload.
pub fn study_paper_log(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::new("study-paper-log", run);
    let scale = run.sizes.paper_log_scale;
    out.info("preset", "paper");
    out.info("scale", scale);
    let config = StudyConfig::paper(run.seed, scale);
    let warm = StudyConfig::paper(run.seed, run.sizes.warmup_scale);
    let reps = if run.trace { 1 } else { run.sizes.setup_reps };
    let setup_s = warm_up(reps, || log_iteration(run, &warm, false).map(drop))?;

    if run.trace {
        let untraced = log_iteration(run, &config, false)?;
        let traced = log_iteration(run, &config, true)?;
        log_provenance(&mut out, &traced);
        out.check(
            "study-paper-log: replayed report byte-identical to the run's report (untraced)",
            untraced.identical,
        );
        out.check(
            "study-paper-log: replayed report byte-identical to the run's report (traced)",
            traced.identical,
        );
        out.check(
            "study-paper-log: report identical between the untraced and traced runs",
            untraced.digest == traced.digest,
        );
        let untraced_s = untraced.study_s + untraced.replay_s;
        let traced_s = traced.study_s + traced.replay_s;
        let snap = traced.study_snapshot.as_ref().ok_or("no study snapshot")?;
        layers::record_study(
            &mut out,
            snap,
            run.exec.worker_count(),
            traced_s / untraced_s - 1.0,
        )?;
        out.detail("study_s", untraced.study_s, "s", "");
        out.detail("replay_s", untraced.replay_s, "s", "");
        let moves = "study_s on study-paper-log, setup_s on serve-tail";
        out.detail("core.log.encode_s", traced.encode_s, "s", moves);
        out.detail(
            "sim.log.decode_s",
            traced.decode_s,
            "s",
            "replay_s on study-paper-log",
        );
        out.detail(
            "core.replay.apply_s",
            traced.replay_fold_s,
            "s",
            "replay_s on study-paper-log",
        );
        if let Some(apply) = &traced.apply {
            layers::record_apply(&mut out, apply, traced.routes);
        }
        return Ok(out);
    }

    let iterations = run.repeat(|| log_iteration(run, &config, false))?;
    out.ops(iterations.len() as u64, 0);
    out.info("iterations", iterations.len());
    let times: Vec<f64> = iterations.iter().map(|i| i.study_s + i.replay_s).collect();
    out.info("run_s.samples", format!("{times:?}"));
    log_provenance(&mut out, &iterations[0]);
    out.check(
        format!(
            "study-paper-log: replayed report byte-identical to the run's report ({} iteration(s))",
            iterations.len()
        ),
        iterations.iter().all(|i| i.identical),
    );
    out.check(
        "study-paper-log: report identical across iterations",
        all_equal(&iterations.iter().map(|i| i.digest).collect::<Vec<_>>()),
    );
    let med = |f: fn(&LogIteration) -> f64| {
        median(&iterations.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let study_s = med(|i| i.study_s);
    let replay_s = med(|i| i.replay_s);
    out.detail(
        "study_s",
        study_s,
        "s",
        "run_study_opts through the rendered report, plus log encoding",
    );
    out.detail(
        "replay_s",
        replay_s,
        "s",
        "decode_binary + parse + replay_records through the rendered report",
    );
    out.detail(
        "log_mb",
        iterations[0].log_bytes as f64 / 1e6,
        "MB",
        "encoded binary log",
    );
    out.metric("setup_s", setup_s, "s", "warm-up at the set-up scale");
    out.metric(
        "run_s",
        med(|i| i.study_s + i.replay_s),
        "s",
        "= study_s + replay_s",
    );
    out.metric("peak_alloc_mb", med(|i| i.peak_mib), "MiB", "");
    Ok(out)
}

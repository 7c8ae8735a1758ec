//! Checkpoint/resume: freeze a running study mid-event-loop and pick it
//! back up byte-identically after a crash or kill.
//!
//! A checkpoint is two files in the checkpoint directory:
//!
//! * `world.log` — the binary study log, appended continuously as the run
//!   executes. The world is *never* serialized directly; a resume rebuilds
//!   it by replaying the `World` records in the log prefix the checkpoint
//!   pinned.
//! * `checkpoint.json` — everything else the event loop carries
//!   (`CheckpointState`): the pending event queue, the page monitors,
//!   the crawl API and fraud-sweep engines (RNG positions included), the
//!   master RNG, the trace, and the byte offset + sequence number that pin
//!   the log prefix. Written atomically (tmp + rename), so a kill mid-write
//!   leaves the previous checkpoint intact.
//!
//! Because every consumer's state is either in the log or in the snapshot,
//! a resumed run continues the exact event stream the uninterrupted run
//! would have produced: same likes, same sweeps, same crawl faults, same
//! report, byte for byte.

use crate::record::{io_err, parse_records, write_atomic, StudyError, StudyLog, StudyRecord};
use crate::study::{
    collect, event_loop, Capture, Ev, LoopState, RunOptions, StudyConfig, StudyOutcome,
};
use likelab_graph::PageId;
use likelab_honeypot::PageMonitor;
use likelab_osn::population::Population;
use likelab_osn::{CrawlApi, FraudOps, OsnWorld};
use likelab_sim::event::decode_frames;
use likelab_sim::{Engine, EventQueue, Rng, SimTime, Trace};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Everything outside the world that a mid-loop study carries, serialized
/// to `checkpoint.json`. The world itself is rebuilt by replaying the
/// first `log_bytes` bytes of `world.log`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct CheckpointState {
    /// The run's full configuration (a resume ignores the caller's config
    /// in favor of this one).
    pub config: StudyConfig,
    /// Byte length of the `world.log` prefix this checkpoint pins.
    pub log_bytes: u64,
    /// The next log sequence number to be assigned after resume.
    pub next_seq: u64,
    /// Simulation clock at the checkpoint.
    pub now: SimTime,
    /// Events fired so far.
    pub fired: u64,
    /// The pending event queue as `(time, seq, event)` entries.
    pub queue: Vec<(SimTime, u64, Ev)>,
    /// The queue's next insertion sequence number.
    pub queue_next_seq: u64,
    /// Per-campaign page monitors (None for inactive campaigns).
    pub monitors: Vec<Option<PageMonitor>>,
    /// Per-campaign scam flags.
    pub inactive: Vec<bool>,
    /// Honeypot pages in campaign order.
    pub honeypots: Vec<PageId>,
    /// Campaign launch time.
    pub launch: SimTime,
    /// End of the study window.
    pub end: SimTime,
    /// The crawl API (fault regimes, RNG streams, stats).
    pub api: CrawlApi,
    /// The anti-fraud sweep engine (RNG stream included).
    pub fraud: FraudOps,
    /// The master RNG, positioned after the `fraud` fork (only the
    /// `baseline` fork remains to be drawn).
    pub rng: Rng,
    /// The run journal so far.
    pub trace: Trace,
    /// Sweep terminations so far.
    pub sweep_terminations: u64,
    /// Population handles (audiences, background catalogue).
    pub population: Population,
}

/// Pin the current log offset and snapshot the loop state into
/// `<dir>/checkpoint.json` (atomically).
pub(crate) fn write_checkpoint(
    dir: &Path,
    state: &LoopState,
    capture: &mut Capture,
) -> Result<(), StudyError> {
    let log = capture
        .log
        .as_mut()
        .expect("checkpointing runs always stream a log");
    log.flush()?;
    let queue = state
        .engine
        .queue()
        .entries()
        .into_iter()
        .map(|(t, s, ev)| (t, s, ev.clone()))
        .collect();
    let cp = CheckpointState {
        config: state.config.clone(),
        log_bytes: log.bytes_written(),
        next_seq: log.next_seq(),
        now: state.engine.now(),
        fired: state.engine.fired(),
        queue,
        queue_next_seq: state.engine.queue().pushed_total(),
        monitors: state.monitors.clone(),
        inactive: state.inactive.clone(),
        honeypots: state.honeypots.clone(),
        launch: state.launch,
        end: state.end,
        api: state.api.clone(),
        fraud: state.fraud.clone(),
        rng: state.rng.clone(),
        trace: state.trace.clone(),
        sweep_terminations: state.sweep_terminations as u64,
        population: state.population.clone(),
    };
    let json = serde_json::to_string_pretty(&cp)
        .map_err(|e| StudyError::Mismatch(format!("checkpoint serialization: {e}")))?;
    write_atomic(&dir.join("checkpoint.json"), &json)?;
    likelab_obs::metrics::counter("checkpoint.written", 1);
    Ok(())
}

/// Load a checkpoint directory and run the study to completion from it.
///
/// The world is rebuilt by replaying the pinned `world.log` prefix; any
/// bytes past the pin (frames appended after the checkpoint, before the
/// kill) are truncated away so appending continues from a consistent
/// state. The outcome is byte-identical to the uninterrupted run.
pub(crate) fn resume_study(opts: &RunOptions) -> Result<StudyOutcome, StudyError> {
    let dir = opts
        .checkpoint_dir
        .as_deref()
        .ok_or_else(|| StudyError::Mismatch("resume requires a checkpoint directory".into()))?;
    let cp_path = dir.join("checkpoint.json");
    let json = std::fs::read_to_string(&cp_path).map_err(|e| io_err(&cp_path, e))?;
    let cp: CheckpointState = serde_json::from_str(&json)
        .map_err(|e| StudyError::Mismatch(format!("{}: {e}", cp_path.display())))?;

    // Rebuild the world from the pinned log prefix.
    let log_path = dir.join("world.log");
    let bytes = std::fs::read(&log_path).map_err(|e| io_err(&log_path, e))?;
    if (bytes.len() as u64) < cp.log_bytes {
        return Err(StudyError::Mismatch(format!(
            "{} is {} bytes but the checkpoint pinned {}",
            log_path.display(),
            bytes.len(),
            cp.log_bytes
        )));
    }
    let (_header, frames) = decode_frames(&bytes[..cp.log_bytes as usize])?;
    let records = parse_records(frames)?;
    let mut world = OsnWorld::new();
    likelab_obs::metrics::timed("log.replay.ns", || {
        for (_seq, record) in &records {
            if let StudyRecord::World(ev) = record {
                world.apply_event(ev);
            }
        }
    });
    likelab_obs::metrics::counter("log.replay", records.len() as u64);
    world.set_recording(true);

    let log = StudyLog::resume_file(&cp.config, &log_path, cp.log_bytes, cp.next_seq)?;
    let mut capture = Capture {
        log: Some(log),
        jsonl_out: None,
    };
    let engine = Engine::from_parts(
        cp.now,
        cp.fired,
        EventQueue::from_entries(cp.queue, cp.queue_next_seq),
    );
    let mut state = LoopState {
        config: cp.config,
        world,
        population: cp.population,
        engine,
        monitors: cp.monitors,
        inactive: cp.inactive,
        honeypots: cp.honeypots,
        launch: cp.launch,
        end: cp.end,
        api: cp.api,
        fraud: cp.fraud,
        rng: cp.rng,
        trace: cp.trace,
        sweep_terminations: cp.sweep_terminations as usize,
    };
    event_loop(&mut state, &mut capture, opts)?;
    collect(state, capture, opts.exec)
}

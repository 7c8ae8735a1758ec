//! `likebench` — the likelab benchmark.
//!
//! One command, three workloads (`study-scale`, `study-paper-log`,
//! `serve-tail`). With `--trace 0` a run measures the end-to-end metrics
//! with `likelab_obs` disabled; with `--trace 1` a separate run turns the
//! obs registry on and also times calls into the layers' public functions
//! from here, giving the per-layer metrics. Every run checks its outputs
//! and exits non-zero when a check fails. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! ```text
//! cargo run --release --manifest-path likebench/Cargo.toml -- \
//!     --workload study-scale --seed 42 --seconds 10 --trace 0
//! ```
//!
//! README.md next to this package explains why each workload exists, which
//! end-to-end metric each layer metric should move, and how self time and
//! span coverage are computed.

mod alloc;
mod layers;
mod outcome;
mod serve;
mod stats;
mod study;

use likelab_sim::Exec;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: likebench --workload study-scale|study-paper-log|serve-tail \
[--seed N] [--seconds S] [--trace 0|1] [--tiny]";

/// Input sizes of the three workloads. `full` is the benchmark; `tiny`
/// keeps every code path and check but finishes in seconds (smoke tests).
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `StudyConfig::scale_world` scale of `study-scale`.
    pub study_scale: f64,
    /// `StudyConfig::paper` scale of `study-paper-log`.
    pub paper_log_scale: f64,
    /// `StudyConfig::paper` scale of the log `serve-tail` serves.
    pub serve_scale: f64,
    /// Scale of the warm-up study the study workloads run during set-up.
    pub warmup_scale: f64,
    /// Set-up repetitions behind the reported median `setup_s`.
    pub setup_reps: usize,
}

impl Sizes {
    fn full() -> Self {
        Sizes {
            study_scale: 0.1,
            paper_log_scale: 0.05,
            serve_scale: 0.06,
            warmup_scale: 0.05,
            setup_reps: 3,
        }
    }

    fn tiny() -> Self {
        Sizes {
            study_scale: 0.02,
            paper_log_scale: 0.02,
            serve_scale: 0.02,
            warmup_scale: 0.01,
            setup_reps: 2,
        }
    }
}

/// Everything a workload needs to know about this invocation.
#[derive(Clone, Copy, Debug)]
pub struct Run {
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// How long the timed phase repeats (at least one iteration).
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Execution policy handed to the library (one worker per core).
    pub exec: Exec,
}

/// Fewest timed iterations in an end-to-end run: the checks then compare
/// iterations, and a reported median is one that a single slow pass cannot
/// set.
const MIN_ITERATIONS: usize = 3;

impl Run {
    /// Repeat `iteration` until `seconds` have passed, and at least
    /// `MIN_ITERATIONS` times.
    pub fn repeat<T>(
        &self,
        mut iteration: impl FnMut() -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let started = Instant::now();
        let mut out = Vec::new();
        while out.len() < MIN_ITERATIONS || started.elapsed() < self.seconds {
            out.push(iteration()?);
        }
        Ok(out)
    }
}

struct Args {
    workload: String,
    run: Run,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut tiny = false;
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        run: Run {
            seed,
            seconds: Duration::from_secs_f64(seconds),
            trace,
            sizes: if tiny { Sizes::tiny() } else { Sizes::full() },
            exec: Exec::auto(),
        },
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run = &args.run;
    let result = match args.workload.as_str() {
        "study-scale" => study::study_scale(run),
        "study-paper-log" => study::study_paper_log(run),
        "serve-tail" => serve::serve_tail(run),
        other => {
            eprintln!("error: unknown workload `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    match result {
        Ok(outcome) => {
            outcome.print();
            if !outcome.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

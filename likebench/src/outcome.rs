//! A workload's result: provenance, checks, metrics, and how it prints.

use crate::Run;
use serde::Value;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` or README.md.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit (`s`, `ms`, `MiB`, `count`, `ratio`, ...).
    pub unit: &'static str,
    /// The end-to-end metric and workload this one should move (empty for
    /// end-to-end metrics themselves).
    pub moves: &'static str,
}

/// What one invocation measured and checked.
pub struct Outcome {
    workload: &'static str,
    trace: bool,
    info: Vec<(String, String)>,
    /// Every metric this workload measures, under the names README.md uses.
    detail: Vec<Metric>,
    /// The `BENCHMARK.json` metrics of this mode (end-to-end or per-layer).
    metrics: Vec<Metric>,
    checks: Vec<(String, bool)>,
    attempted: u64,
    failed: u64,
}

impl Outcome {
    /// An empty result carrying the invocation's provenance.
    pub fn new(workload: &'static str, run: &Run) -> Self {
        let mut out = Outcome {
            workload,
            trace: run.trace,
            info: Vec::new(),
            detail: Vec::new(),
            metrics: Vec::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
        };
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        out.info("nproc", nproc);
        out.info("workers", run.exec.worker_count());
        out.info("seed", run.seed);
        out.info("trace", u8::from(run.trace));
        out
    }

    /// Record one provenance fact.
    pub fn info(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.push((key.to_owned(), value.to_string()));
    }

    /// Record a workload metric under its README.md name.
    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, moves: &'static str) {
        self.detail.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            moves,
        });
    }

    /// Record a `BENCHMARK.json` metric (and list it with the details).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, moves: &'static str) {
        let m = Metric {
            name: name.to_owned(),
            value,
            unit,
            moves,
        };
        if !self.detail.iter().any(|d| d.name == m.name) {
            self.detail.push(m.clone());
        }
        self.metrics.push(m);
    }

    /// Count `n` attempted operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Record an output check; a failed check fails the run.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.ops(1, u64::from(!ok));
        self.checks.push((what.into(), ok));
    }

    /// Every check passed and every reported value is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok) && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Failed operations and checks over those attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Print the human-readable lines, the detail JSON line, and last the
    /// one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn print(&self) {
        let mode = if self.trace { "traced" } else { "end-to-end" };
        println!("== likebench {} ({mode}) ==", self.workload);
        for (k, v) in &self.info {
            println!("info    {k:<34} {v}");
        }
        for (what, ok) in &self.checks {
            println!("check   {:<4} {what}", if *ok { "ok" } else { "FAIL" });
        }
        for m in &self.detail {
            let arrow = if m.moves.is_empty() {
                String::new()
            } else {
                format!("  -> {}", m.moves)
            };
            println!("metric  {:<34} {} {}{arrow}", m.name, m.value, m.unit);
        }
        println!(
            "metric  {:<34} {} ratio",
            "failed_share",
            self.failed_share()
        );

        let detail = Value::Object(vec![
            ("workload".into(), Value::Str(self.workload.into())),
            (
                "info".into(),
                Value::Object(
                    self.info
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                        .collect(),
                ),
            ),
            ("metrics".into(), metrics_object(&self.detail)),
            ("failed_share".into(), Value::Float(self.failed_share())),
        ]);
        println!("{}", to_json(&detail));

        let result = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted.max(1))),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), metrics_object(&self.metrics)),
        ]);
        println!("{}", to_json(&result));
    }
}

fn metrics_object(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn to_json(v: &Value) -> String {
    serde_json::to_string(v).expect("a Value tree always serializes")
}

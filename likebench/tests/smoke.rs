//! Every workload at `--tiny` size, end-to-end and traced, with its output
//! checks on; the metric names each run prints agree with `BENCHMARK.json`
//! in both directions.
//!
//! Run with `cargo test --release --manifest-path likebench/Cargo.toml`.

use serde::Value;
use std::collections::BTreeMap;
use std::process::Command;

fn fields(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(fields) => fields,
        other => panic!("expected an object, got {}", other.kind()),
    }
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected an array, got {}", other.kind()),
    }
}

fn text(v: &Value, key: &str) -> String {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string `{key}`"))
        .to_owned()
}

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let raw = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&raw).expect("BENCHMARK.json parses")
}

/// Metric name -> unit, as `BENCHMARK.json` lists them under `key`.
fn listed(spec: &Value, key: &str) -> BTreeMap<String, String> {
    items(spec.get(key).expect("metric list"))
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect()
}

/// Run one tiny workload; returns the parsed last line of stdout.
fn run(workload: &str, trace: u8) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_likebench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    serde_json::from_str(last).expect("the last line is JSON")
}

#[test]
fn every_workload_passes_its_checks_and_prints_exactly_the_listed_metrics() {
    let spec = benchmark();
    let workloads: Vec<String> = items(spec.get("workloads").expect("workloads"))
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(workloads, ["study-scale", "study-paper-log", "serve-tail"]);
    for workload in &workloads {
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = run(workload, trace);
            let keys: Vec<&str> = fields(&result).iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(result.get("failed"), Some(&Value::UInt(0)));
            assert!(matches!(result.get("attempted"), Some(Value::UInt(n)) if *n >= 1));

            let want = listed(&spec, key);
            let got: BTreeMap<String, String> = fields(result.get("metrics").expect("metrics"))
                .iter()
                .map(|(name, m)| {
                    let value = match m.get("value") {
                        Some(Value::Float(x)) => *x,
                        Some(Value::UInt(n)) => *n as f64,
                        other => panic!("{workload}/{name}: value {other:?}"),
                    };
                    assert!(value.is_finite(), "{workload}/{name} = {value}");
                    (name.clone(), text(m, "unit"))
                })
                .collect();
            let missing: Vec<_> = want.keys().filter(|k| !got.contains_key(*k)).collect();
            let extra: Vec<_> = got.keys().filter(|k| !want.contains_key(*k)).collect();
            assert!(
                missing.is_empty() && extra.is_empty(),
                "{workload} --trace {trace}: missing {missing:?}, not in BENCHMARK.json {extra:?}"
            );
            assert_eq!(got, want, "{workload} --trace {trace}: units differ");
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--seed", "1"],
        &["--workload", "serve-tail", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_likebench"))
            .args(args)
            .output()
            .expect("the benchmark binary starts");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

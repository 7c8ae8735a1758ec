//! Hostile-input robustness of the `likelab serve` protocol layer.
//!
//! [`ServeSession::handle_line`] answers whatever a client sends. Fed
//! arbitrary strings, JSON-shaped token soup, and well-formed `v:1`
//! requests with random ops and params, over a small ingested study log,
//! every reply must be one JSON line: an object with exactly the keys `v`,
//! `id`, `ok`, and either `data` (when `ok` is true) or `error` (when it is
//! false). Nothing may panic, and the shutdown flag is set exactly for a
//! `v:1` request whose `op` is `"shutdown"`.

use likelab::core::serve::{ServeConfig, ServeEngine, ServeSession};
use likelab::core::{run_study_opts, RunOptions, StudyConfig};
use proptest::prelude::*;
use serde::Value;
use std::sync::{Mutex, OnceLock};

/// One session over a tiny study's whole log, shared by every case.
fn session() -> &'static Mutex<ServeSession> {
    static SHARED: OnceLock<Mutex<ServeSession>> = OnceLock::new();
    SHARED.get_or_init(|| {
        let outcome = run_study_opts(
            &StudyConfig::paper(7, 0.005),
            &RunOptions {
                capture_log: true,
                ..RunOptions::default()
            },
        )
        .expect("logged run");
        let log = outcome.log.as_ref().expect("log captured");
        let mut engine = ServeEngine::new(log.header(), ServeConfig::default()).expect("engine");
        for (seq, record) in log.records() {
            engine.ingest(*seq, record.clone()).expect("ingest");
        }
        Mutex::new(ServeSession::new(engine))
    })
}

/// Send one line and check the reply's shape against the request.
fn check_reply(line: &str) -> Result<(), String> {
    let (reply, stop) = session()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .handle_line(line, 0);
    if reply.contains('\n') {
        return Err(format!("reply spans lines: {reply:?}"));
    }
    let parsed: Value =
        serde_json::from_str(&reply).map_err(|e| format!("reply is not JSON ({e}): {reply}"))?;
    let Value::Object(fields) = &parsed else {
        return Err(format!("reply is not an object: {reply}"));
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    let ok = match parsed.get("ok") {
        Some(Value::Bool(ok)) => *ok,
        _ => return Err(format!("reply lacks a boolean `ok`: {reply}")),
    };
    let want = ["v", "id", "ok", if ok { "data" } else { "error" }];
    if keys != want {
        return Err(format!("reply keys {keys:?}, want {want:?}: {reply}"));
    }
    if parsed.get("v") != Some(&Value::UInt(1)) {
        return Err(format!("reply `v` is not 1: {reply}"));
    }
    // The id echoes back as rendered JSON (a non-finite float id renders,
    // like every non-finite float, as `null`).
    let request = serde_json::from_str::<Value>(line).ok();
    let render = |v: Option<&Value>| v.map(|v| serde_json::to_string(v).expect("render"));
    if let Some(id) = request.as_ref().and_then(|r| r.get("id")) {
        if render(parsed.get("id")) != render(Some(id)) {
            return Err(format!("reply does not echo the request id: {reply}"));
        }
    }
    let is_shutdown = request.as_ref().is_some_and(|r| {
        r.get("v") == Some(&Value::UInt(1))
            && r.get("op").and_then(Value::as_str) == Some("shutdown")
    });
    if stop != is_shutdown {
        return Err(format!("shutdown flag {stop} for request {line:?}"));
    }
    if is_shutdown && !ok {
        return Err(format!("shutdown answered with an error: {reply}"));
    }
    Ok(())
}

/// JSON-shaped fragments: structure, the protocol's own keys and ops, and
/// number and string edge cases.
const SOUP: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    " ",
    "\"",
    "\"v\"",
    "\"id\"",
    "\"op\"",
    "\"user\"",
    "\"page\"",
    "\"campaign\"",
    "\"threshold\"",
    "\"shutdown\"",
    "\"status\"",
    "\"score\"",
    "\"eval\"",
    "\"sybil\"",
    "{\"v\":1,",
    "\"op\":",
    "null",
    "true",
    "false",
    "0",
    "1",
    "2",
    "-1",
    "1.5",
    "1e999",
    "-1e999",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775809",
    "\\u0000",
    "\\ud83d",
    "é",
    "\u{1}",
];

/// Values a param or an id may take.
const VALUES: &[&str] = &[
    "0",
    "1",
    "3",
    "12",
    "13",
    "999999",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "-1",
    "-9223372036854775808",
    "0.0",
    "0.5",
    "1.5",
    "-0.5",
    "1e999",
    "null",
    "true",
    "\"7\"",
    "\"\"",
    "[]",
    "[1,2]",
    "{}",
    "{\"user\":1}",
];

/// Every op the server knows, plus near misses.
const OPS: &[&str] = &[
    "status",
    "score",
    "page",
    "campaign",
    "lockstep",
    "sybil",
    "eval",
    "shutdown",
    "",
    "Status",
    "shutdown ",
    "frobnicate",
];

/// Param names: the ones the ops read, plus ones they ignore.
const PARAMS: &[&str] = &[
    "user",
    "page",
    "campaign",
    "threshold",
    "op",
    "id",
    "v",
    "x",
];

proptest! {
    #[test]
    fn arbitrary_strings_get_a_well_formed_reply(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let line = String::from_utf8_lossy(&bytes);
        check_reply(&line)?;
    }

    #[test]
    fn token_soup_gets_a_well_formed_reply(
        picks in prop::collection::vec(0usize..1000, 0..32),
    ) {
        let line: String = picks.iter().map(|&i| SOUP[i % SOUP.len()]).collect();
        check_reply(&line)?;
    }

    #[test]
    fn random_requests_get_a_well_formed_reply(
        op in 0usize..1000,
        id in 0usize..1000,
        params in prop::collection::vec((0usize..1000, 0usize..1000), 0..3),
    ) {
        let mut line = format!(
            "{{\"v\":1,\"id\":{},\"op\":\"{}\"",
            VALUES[id % VALUES.len()],
            OPS[op % OPS.len()]
        );
        for (name, value) in params {
            line.push_str(&format!(
                ",\"{}\":{}",
                PARAMS[name % PARAMS.len()],
                VALUES[value % VALUES.len()]
            ));
        }
        line.push('}');
        check_reply(&line)?;
    }
}

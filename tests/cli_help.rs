//! Golden-snapshot test for the `likelab` CLI help text.
//!
//! The help screen is the CLI's public contract — every command and flag
//! the README and docs reference must actually appear there, and drift
//! between the docs and the binary (e.g. a flag documented but never
//! implemented) should fail loudly. The snapshot lives at
//! `tests/golden/cli_help.txt` and is compared byte-for-byte against
//! what `likelab help` prints.
//!
//! To refresh after an *intentional* CLI surface change:
//!
//! ```text
//! LIKELAB_UPDATE_GOLDEN=1 cargo test --test cli_help
//! ```
//!
//! then review the diff of the golden file like any other code change.
//!
//! The file also pins one stream contract of the CLI: `--timing` output goes
//! to stderr, never into the report on stdout.

use std::process::Command;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/cli_help.txt");

fn help_output() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_likelab"))
        .arg("help")
        .output()
        .expect("run likelab help");
    assert!(out.status.success(), "help must exit 0");
    String::from_utf8(out.stdout).expect("help is valid UTF-8")
}

#[test]
fn help_matches_golden_snapshot() {
    let got = help_output();
    if std::env::var_os("LIKELAB_UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("write golden");
        eprintln!("golden refreshed: {GOLDEN_PATH}");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH).expect("golden file present");
    if got != want {
        let mismatch = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w);
        match mismatch {
            Some((i, (g, w))) => panic!(
                "help output drifted from the golden snapshot at line {}:\n  \
                 golden: {w}\n  got:    {g}\n\
                 If the change is intentional, refresh with \
                 LIKELAB_UPDATE_GOLDEN=1 cargo test --test cli_help",
                i + 1
            ),
            None => panic!(
                "help output drifted in length: golden {} lines, got {} lines. \
                 Refresh with LIKELAB_UPDATE_GOLDEN=1 if intentional.",
                want.lines().count(),
                got.lines().count()
            ),
        }
    }
}

/// Every flag the run/replay/serve surface implements must be documented
/// in the help text, and vice versa for the claims the docs make — this is
/// the regression that let `--log-format` be claimed without existing.
#[test]
fn help_names_every_event_sourcing_flag() {
    let help = help_output();
    for needle in [
        "--log-out",
        "--log-format",
        "--checkpoint-dir",
        "--checkpoint-every",
        "--resume",
        "--from-seq",
        "--follow",
        "--tcp",
        "serve LOG",
        "SERVING.md",
        "binary",
        "jsonl",
    ] {
        assert!(help.contains(needle), "help must mention {needle}");
    }
}

/// `--timing` reports on stderr: the report on stdout is byte-identical
/// with and without the flag, and the span tree lands on stderr.
#[test]
fn timing_goes_to_stderr_and_leaves_stdout_unchanged() {
    let run = |timing: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_likelab"));
        cmd.args(["run", "--scale", "0.01", "--seed", "3"]);
        if timing {
            cmd.arg("--timing");
        }
        let out = cmd.output().expect("run likelab run");
        assert!(out.status.success(), "run must exit 0 (timing={timing})");
        out
    };
    let plain = run(false);
    let timed = run(true);
    assert!(
        plain.stdout == timed.stdout,
        "--timing changed stdout ({} vs {} bytes)",
        plain.stdout.len(),
        timed.stdout.len()
    );
    let stderr = String::from_utf8(timed.stderr).expect("stderr is valid UTF-8");
    assert!(
        stderr.contains("== timing: span tree =="),
        "--timing must print the span tree to stderr"
    );
}

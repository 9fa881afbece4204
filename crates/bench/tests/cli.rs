//! The `gdr-bench` binary's exit-code contract on hostile input: a bad
//! flag value or a malformed report is a usage error (exit 2, with a
//! message naming the problem), never a panic, an abort or a silent
//! clamp.

use std::process::{Command, Output};

fn gdr_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gdr-bench"))
        .args(args)
        .output()
        .expect("gdr-bench runs")
}

fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains(needle),
        "stderr must name {needle:?}: {stderr}"
    );
}

#[test]
fn zero_counts_are_rejected_not_clamped() {
    for (command, flag) in [
        ("serve", "--requests"),
        ("serve", "--replicas"),
        ("serve", "--batch-cap"),
        ("serve", "--clients"),
        ("host", "--passes"),
        ("host", "--jobs"),
        ("replay", "--jobs"),
        ("sweep", "--max-scenarios"),
    ] {
        assert_usage_error(&gdr_bench(&[command, flag, "0"]), flag);
    }
}

#[test]
fn deeply_nested_report_is_rejected_not_a_stack_overflow() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("deep.json");
    std::fs::write(&path, "[".repeat(200_000) + &"]".repeat(200_000)).unwrap();
    let path = path.to_str().unwrap();
    let out = gdr_bench(&["--compare", path, "--baseline", path]);
    assert_usage_error(&out, "nesting");
}

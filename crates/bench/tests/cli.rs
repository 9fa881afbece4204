//! The `gdr-bench` binary's exit-code contract on hostile input: a bad
//! flag value or a malformed report is a usage error (exit 2, with a
//! message naming the problem), never a panic, an abort or a silent
//! clamp.

use std::path::Path;
use std::process::{Command, Output};

use gdr_system::json::Json;

/// The committed gate baseline: a real report to edit.
const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/baseline.json");

fn gdr_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gdr-bench"))
        .args(args)
        .output()
        .expect("gdr-bench runs")
}

/// Exit 2 with the error line — the first stderr line, ahead of the
/// usage text — naming `needle`.
fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    let error = stderr.lines().next().unwrap_or_default();
    assert!(
        error.contains(needle),
        "the error must name {needle:?}: {stderr}"
    );
}

#[test]
fn zero_counts_are_rejected_not_clamped() {
    for (command, flag) in [
        ("serve", "--requests"),
        ("serve", "--replicas"),
        ("serve", "--batch-cap"),
        ("serve", "--clients"),
        ("replay", "--jobs"),
        ("sweep", "--max-scenarios"),
    ] {
        assert_usage_error(&gdr_bench(&[command, flag, "0"]), flag);
    }
}

#[test]
fn non_finite_scale_is_rejected_not_an_abort() {
    for args in [
        &["--scale", "inf"][..],
        &["serve", "--scale", "inf"],
        &["paper", "--scale", "1e400"],
    ] {
        assert_usage_error(&gdr_bench(args), "--scale");
    }
}

#[test]
fn retired_host_surface_is_a_usage_error() {
    // The session measurement is gone; none of its spellings may fall
    // through to a grid run.
    for (args, word) in [
        (&["host"][..], "host"),
        (&["--no-host"], "--no-host"),
        (&["--passes", "2"], "--passes"),
    ] {
        assert_usage_error(&gdr_bench(args), &format!("{word:?}"));
    }
}

/// Replaces the value at `path` — object keys, or array indices in
/// decimal.
fn set(v: &mut Json, path: &[&str], value: Json) {
    let Some((head, rest)) = path.split_first() else {
        *v = value;
        return;
    };
    let child = match v {
        Json::Obj(pairs) => pairs.iter_mut().find(|(k, _)| k == head).map(|(_, c)| c),
        Json::Arr(items) => head.parse().ok().and_then(|i: usize| items.get_mut(i)),
        _ => None,
    };
    set(child.expect("path exists in the baseline"), rest, value);
}

#[test]
fn malformed_counts_and_mistyped_fields_are_rejected_not_clamped() {
    let out = gdr_bench(&["--compare", BASELINE, "--baseline", BASELINE]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "the untouched baseline gates itself: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let baseline = Json::parse(&std::fs::read_to_string(BASELINE).unwrap()).unwrap();
    for (path, value) in [
        (&["config", "seed"][..], Json::from(42.5)),
        (&["serve", "0", "replicas"], Json::from(-3.0)),
        (&["serve", "0", "shards"], Json::from("3")),
        (&["serve", "0", "autoscale"], Json::from(4.0)),
        (&["breakdown", "0", "requests"], Json::from(1e30)),
    ] {
        let mut edited = baseline.clone();
        set(&mut edited, path, value);
        let file = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{}.json", path.join("-")));
        std::fs::write(&file, edited.to_pretty()).unwrap();
        let out = gdr_bench(&["--compare", file.to_str().unwrap(), "--baseline", BASELINE]);
        let field = path.last().unwrap();
        assert_usage_error(&out, &format!("{field:?}"));
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

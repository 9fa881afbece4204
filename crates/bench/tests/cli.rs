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
fn non_finite_scale_rate_and_threshold_are_rejected() {
    // An infinite scale aborted a dataset build; an infinite rate ran
    // and wrote `"rate_rps": null`, a report `--compare` then refused;
    // an infinite threshold let every regression through the gate.
    for (args, flag) in [
        (&["--scale", "inf"][..], "--scale"),
        (&["serve", "--scale", "inf"], "--scale"),
        (&["paper", "--scale", "1e400"], "--scale"),
        (&["serve", "--rate", "inf"], "--rate"),
        (&["serve", "--rate", "1e400"], "--rate"),
        (&["trace", "--rate", "inf"], "--rate"),
        (&["replay", "--rate", "inf"], "--rate"),
    ] {
        assert_usage_error(&gdr_bench(args), flag);
    }
    for threshold in ["inf", "inf%", "1e400"] {
        let args = [
            "--compare",
            BASELINE,
            "--baseline",
            BASELINE,
            "--threshold",
            threshold,
        ];
        assert_usage_error(&gdr_bench(&args), "--threshold");
    }
}

#[test]
fn empty_platform_list_is_rejected_not_run() {
    // An empty list divided by zero while building the replica pool of
    // serve, trace and replay, and ran a grid over zero platforms.
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("empty-platforms.json");
    let out = out.to_str().expect("temp path is UTF-8");
    for command in [&[][..], &["serve"], &["trace"], &["replay"], &["sweep"]] {
        for list in [",", ""] {
            let mut args = command.to_vec();
            args.extend(["--scale", "test", "--platforms", list, "--out", out]);
            if command.is_empty() {
                args.push("--no-serve");
            }
            assert_usage_error(&gdr_bench(&args), "--platforms");
        }
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

#[test]
fn bursty_arrival_without_an_on_window_is_rejected_not_run_as_poisson() {
    // A zero period, or an on-window (period × duty) under 1 ns, would
    // run plain Poisson traffic under the `bursty` label.
    for (shape, flag) in [
        (&["--burst-period", "0"][..], "--burst-period"),
        (
            &["--burst-period", "1", "--burst-duty", "0.25"],
            "--burst-duty",
        ),
    ] {
        let mut args = vec!["serve", "--scale", "test", "--arrival", "bursty"];
        args.extend_from_slice(shape);
        assert_usage_error(&gdr_bench(&args), flag);
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

#[test]
fn report_with_non_json_numbers_or_escapes_is_a_usage_error() {
    let baseline = std::fs::read_to_string(BASELINE).unwrap();
    for (i, (from, to)) in [
        ("\"scale\": 0.08", "\"scale\": 01"),
        ("\"scale\": 0.08", "\"scale\": -01"),
        ("\"scale\": 0.08", "\"scale\": 1."),
        ("\"scale\": 0.08", "\"scale\": 1.e5"),
        ("\"scale\": 0.08", "\"scale\": -.5"),
        ("\"gdr-bench/v1\"", "\"gdr-bench/v\\u+031\""),
        ("\"gdr-bench/v1\"", "\"gdr-bench/v1\t\""),
        ("\"gdr-bench/v1\"", "\"gdr-bench/v1\\ud83d\""),
    ]
    .into_iter()
    .enumerate()
    {
        assert!(baseline.contains(from));
        let file = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("non-json-{i}.json"));
        std::fs::write(&file, baseline.replacen(from, to, 1)).unwrap();
        let out = gdr_bench(&["--compare", file.to_str().unwrap(), "--baseline", BASELINE]);
        assert_usage_error(&out, "at byte");
    }
}

#[test]
fn report_numbers_past_the_f64_range_are_a_usage_error() {
    // Parsed as infinity, either would reach the gate: a "scale inf"
    // config mismatch, or a +inf% time regression (both exit 1).
    let baseline = std::fs::read_to_string(BASELINE).unwrap();
    let time_ns = baseline.find("\"time_ns\": ").expect("a grid run") + "\"time_ns\": ".len();
    let digits = baseline[time_ns..].find([',', '\n']).unwrap();
    let (head, tail) = (&baseline[..time_ns], &baseline[time_ns + digits..]);
    for (i, edited) in [
        baseline.replacen("\"scale\": 0.08", "\"scale\": 1e400", 1),
        format!("{head}1e400{tail}"),
    ]
    .into_iter()
    .enumerate()
    {
        assert_ne!(edited, baseline);
        let file = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("out-of-range-{i}.json"));
        std::fs::write(&file, edited).unwrap();
        let out = gdr_bench(&["--compare", file.to_str().unwrap(), "--baseline", BASELINE]);
        assert_usage_error(&out, "number out of range at byte");
    }
}

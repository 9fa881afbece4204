//! The `gdr-bench` binary's exit-code contract on hostile input: a bad
//! flag value or a malformed report is a usage error (exit 2, with a
//! message naming the problem), never a panic, an abort or a silent
//! clamp. The parsers behind `--compare` also survive damaged copies of
//! the files `gdr-bench sweep` and `gdr-bench trace` write.

use std::path::Path;
use std::process::{Command, Output};

use gdr_bench::parse_axis;
use gdr_bench::sweep::{run_sweep, sweep_record};
use gdr_serve::suite::{default_specs, ServeHarness};
use gdr_serve::sweep::SweepSpec;
use gdr_system::grid::ExperimentConfig;
use gdr_system::json::Json;
use gdr_system::report::BenchReport;

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

/// Deterministic case expansion (SplitMix64).
fn mix(case: u64, salt: u64) -> u64 {
    let mut z = case
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Feeds truncated and byte-mutated copies of `text` to the JSON and
/// report parsers. Either may reject a copy and neither may panic; a
/// prefix that stops before the document's closing brace is incomplete,
/// so both must reject it.
fn parsers_survive_damage(label: &str, text: &str, cases: u64) {
    let bytes = text.as_bytes();
    let len = bytes.len() as u64;
    let complete = text.trim_end().len() as u64;
    for case in 0..cases {
        let cut = mix(case, 400) % len;
        let truncated = String::from_utf8_lossy(&bytes[..cut as usize]);
        if cut < complete {
            assert!(
                Json::parse(&truncated).is_err(),
                "{label} {case}: cut {cut}"
            );
            assert!(
                BenchReport::parse(&truncated).is_err(),
                "{label} {case}: cut {cut}"
            );
        }
        let mut mutated = bytes.to_vec();
        for i in 0..=mix(case, 401) % 8 {
            mutated[(mix(case, 410 + i) % len) as usize] = mix(case, 420 + i) as u8;
        }
        let mutated = String::from_utf8_lossy(&mutated);
        let _ = Json::parse(&mutated);
        let _ = BenchReport::parse(&mutated);
    }
}

#[test]
fn parsers_never_panic_on_truncated_or_mutated_sweeps_and_traces() {
    let cfg = ExperimentConfig::test_scale();
    // A sweep report as `gdr-bench sweep` writes it, over four scenarios.
    let mut spec = SweepSpec {
        requests: 96,
        ..SweepSpec::default()
    };
    for axis in [
        "arrival=poisson",
        "rate=400000,800000",
        "batch=immediate,size-capped:8",
        "scheduler=least-loaded",
        "replicas=2",
        "cache-bytes=0",
    ] {
        parse_axis(&mut spec, axis).unwrap();
    }
    let records = run_sweep(&cfg, &spec, 1).unwrap();
    let sweep = BenchReport {
        seed: cfg.seed,
        scale: cfg.scale,
        platforms: vec![spec.platform.clone()],
        points: Vec::new(),
        wall_clock_s: 0.0,
        serve: Vec::new(),
        host: Vec::new(),
        sweep: vec![sweep_record("default", &spec, &records, Some(1e5), 1.0)],
        breakdown: Vec::new(),
    }
    .to_json()
    .to_pretty();
    assert!(BenchReport::parse(&sweep).is_ok());
    // The crash/failover suite scenario's Chrome trace, as
    // `gdr-bench trace` writes it.
    let scenario = default_specs(&cfg)
        .into_iter()
        .find(|s| s.name == "crash/failover/least-loaded")
        .unwrap();
    let pool: Vec<&str> = scenario.pool.iter().map(String::as_str).collect();
    let trace = ServeHarness::new(&cfg, &pool)
        .unwrap()
        .run_traced(&scenario, cfg.seed)
        .unwrap()
        .chrome
        .to_json()
        .to_pretty();
    assert!(Json::parse(&trace).is_ok());
    parsers_survive_damage("sweep", &sweep, 32);
    parsers_survive_damage("trace", &trace, 16);
}

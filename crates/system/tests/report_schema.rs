//! Golden-file guard for the `gdr-bench/v1` JSON schema.
//!
//! The CI perf gate diffs reports produced by different commits, so the
//! schema's key set *and ordering* are a compatibility contract. This
//! test serializes the [`ExperimentConfig::test_scale`] grid and checks
//! every key path, in first-appearance order, against
//! `tests/golden/bench_schema_keys.txt`. If a change here is
//! intentional, update the golden file AND bump the schema id in
//! `gdr_system::report::SCHEMA` (plus `bench/baseline.json`).

use gdr_system::grid::{paper_platforms, platform_refs, ExperimentConfig};
use gdr_system::json::Json;
use gdr_system::report::{
    compare, BenchReport, BreakdownRecord, BreakdownStage, HostRecord, ServeRunRecord,
    ServeScenarioRecord, SweepRecommendation, SweepRecord, SweepRowRecord, BREAKDOWN_STAGE_KEYS,
    HOST_METRIC_KEYS, SERVE_METRIC_KEYS, SWEEP_OBJECTIVES,
};

const GOLDEN: &str = include_str!("golden/bench_schema_keys.txt");

/// Collects unique key paths (`points[].runs[].time_ns` style) in
/// first-appearance order — mirroring how a schema consumer discovers
/// fields.
fn key_paths(v: &Json, prefix: &str, seen: &mut Vec<String>) {
    match v {
        Json::Obj(pairs) => {
            for (k, val) in pairs {
                let p = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                if !seen.contains(&p) {
                    seen.push(p.clone());
                }
                key_paths(val, &p, seen);
            }
        }
        Json::Arr(items) => {
            let p = format!("{prefix}[]");
            if !seen.contains(&p) {
                seen.push(p.clone());
            }
            for item in items {
                key_paths(item, &p, seen);
            }
        }
        _ => {}
    }
}

fn test_scale_report() -> BenchReport {
    let platforms = paper_platforms();
    let mut report =
        BenchReport::collect(&platform_refs(&platforms), &ExperimentConfig::test_scale())
            .expect("paper platforms accept grid inputs");
    // A representative serve record so the serve family's key paths are
    // pinned alongside the grid's. `gdr-serve` emits exactly
    // SERVE_METRIC_KEYS (its own tests assert that), so a hand-built
    // record covers the schema without a cross-crate dev-dependency.
    report.serve = vec![ServeScenarioRecord {
        scenario: "sharded/warm-cache/shard-affinity-partial".into(),
        arrival: "poisson".into(),
        rate_rps: 1_200_000.0,
        batch: "size-capped:8".into(),
        scheduler: "shard-affinity-partial".into(),
        replicas: 3,
        shards: 3,
        cache_bytes: 64 << 20,
        autoscale: "queue:32:4:max4".into(),
        faults: "crash:0@80000;control:vr".into(),
        seed: 42,
        requests: 384,
        runs: ["ALL", "HiHGNN+GDR"]
            .into_iter()
            .map(|platform| ServeRunRecord {
                platform: platform.into(),
                metrics: SERVE_METRIC_KEYS
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| (k.to_string(), (i + 1) as f64))
                    .collect(),
            })
            .collect(),
    }];
    // A representative host record pins the `host` family's key paths.
    // Host metrics are wall clock (reported, never gated), so the test
    // uses synthetic values rather than a real measurement.
    report.host = vec![HostRecord {
        name: "session/DBLP/reused".into(),
        metrics: HOST_METRIC_KEYS
            .iter()
            .enumerate()
            .map(|(i, &k)| (k.to_string(), (i + 1) as f64))
            .collect(),
    }];
    // A representative sweep record pins the `sweep` family's key paths:
    // axes self-description, one table row per scenario (SWEEP_OBJECTIVES
    // values), frontier labels, and the resolved recommendation.
    let sweep_row = |scenario: &str| SweepRowRecord {
        scenario: scenario.into(),
        metrics: SWEEP_OBJECTIVES
            .iter()
            .enumerate()
            .map(|(i, &(k, _))| (k.to_string(), (i + 1) as f64))
            .collect(),
    };
    report.sweep = vec![SweepRecord {
        name: "default".into(),
        axes: vec![
            ("arrival".into(), "poisson,bursty".into()),
            ("rate".into(), "600000,1200000".into()),
        ],
        requests: 384,
        platform: "HiHGNN+GDR".into(),
        table: vec![
            sweep_row("poisson-r600000/immediate/round-robin/x2/s0/c0/off/none"),
            sweep_row("bursty-r1200000/size-capped:8/least-loaded/x3/s0/c0/off/none"),
        ],
        frontier: vec!["poisson-r600000/immediate/round-robin/x2/s0/c0/off/none".into()],
        recommend: Some(SweepRecommendation {
            slo_p99_ns: 2_000_000.0,
            budget_replica_seconds: 1.0,
            feasible: true,
            scenario: "poisson-r600000/immediate/round-robin/x2/s0/c0/off/none".into(),
            metrics: SWEEP_OBJECTIVES
                .iter()
                .enumerate()
                .map(|(i, &(k, _))| (k.to_string(), (i + 1) as f64))
                .collect(),
        }),
    }];
    // A representative breakdown record pins the `breakdown` family's
    // key paths: one stage entry per BREAKDOWN_STAGE_KEYS, with the
    // headline mean equal to the sum of the stage means (the invariant
    // `gdr_serve`'s trace tests prove across seeds).
    let stages: Vec<BreakdownStage> = BREAKDOWN_STAGE_KEYS
        .iter()
        .enumerate()
        .map(|(i, &stage)| BreakdownStage {
            stage: stage.into(),
            mean_ns: (i + 1) as f64 * 100.0,
            p50_ns: (i + 1) as f64 * 90.0,
            p99_ns: (i + 1) as f64 * 400.0,
        })
        .collect();
    report.breakdown = vec![BreakdownRecord {
        scenario: "sharded/warm-cache/shard-affinity-partial".into(),
        seed: 42,
        requests: 384,
        mean_latency_ns: stages.iter().map(|s| s.mean_ns).sum(),
        stages,
    }];
    report
}

#[test]
fn schema_key_paths_match_golden_file() {
    let report = test_scale_report();
    assert_eq!(report.points.len(), 9, "grid covers all nine cells");
    let mut seen = Vec::new();
    key_paths(&report.to_json(), "", &mut seen);
    let golden: Vec<&str> = GOLDEN.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(
        seen, golden,
        "gdr-bench/v1 key paths drifted; if intentional, regenerate \
         tests/golden/bench_schema_keys.txt and bump report::SCHEMA"
    );
}

#[test]
fn serialization_is_deterministic_and_round_trips() {
    let report = test_scale_report();
    let a = report.to_json().to_pretty();
    let b = report.to_json().to_pretty();
    assert_eq!(a, b, "same report must serialize byte-identically");
    let parsed = BenchReport::parse(&a).expect("own output parses");
    assert_eq!(
        parsed.to_json().to_pretty(),
        a,
        "parse → serialize must be the identity"
    );
}

#[test]
fn gate_passes_against_own_serialization() {
    // The end-to-end CI path in miniature: collect → write → read →
    // compare. Identical metrics must pass at any threshold, including 0.
    let report = test_scale_report();
    let reread = BenchReport::parse(&report.to_json().to_pretty()).unwrap();
    let cmp = compare(&reread, &report, 0.0);
    assert!(cmp.passed(), "round-tripped report must gate clean");
    assert!(cmp.regressions.is_empty() && cmp.missing.is_empty());
}

#[test]
fn gate_catches_regression_injected_into_serialized_report() {
    // Mirror of the CI self-test: textually perturb a serialized report
    // (as `sed` does in the workflow) and require the gate to fail.
    let report = test_scale_report();
    let json = report.to_json();
    let slowed = scale_metric(&json, "time_ns", 1.2);
    let slow_report = BenchReport::from_json(&slowed).unwrap();
    let cmp = compare(&report, &slow_report, 10.0);
    assert!(!cmp.passed());
    assert_eq!(cmp.regressions.len(), 36, "9 cells × 4 platforms");

    let ok = BenchReport::from_json(&scale_metric(&json, "time_ns", 1.05)).unwrap();
    assert!(compare(&report, &ok, 10.0).passed());
}

#[test]
fn gate_thresholds_cover_the_new_serve_metrics() {
    // cache_hit_rate is gated higher-is-better, shard_miss_count
    // lower-is-better — both through the serialized report, as CI
    // exercises them.
    let report = test_scale_report();
    let json = report.to_json();

    let cooled = BenchReport::from_json(&scale_metric(&json, "cache_hit_rate", 0.8)).unwrap();
    let cmp = compare(&report, &cooled, 10.0);
    assert!(!cmp.passed(), "a 20% hit-rate loss must fail the gate");
    assert!(cmp.regressions.iter().all(|d| d.metric == "cache_hit_rate"));

    let missy = BenchReport::from_json(&scale_metric(&json, "shard_miss_count", 1.2)).unwrap();
    let cmp = compare(&report, &missy, 10.0);
    assert!(!cmp.passed(), "20% more shard misses must fail the gate");
    assert!(cmp
        .regressions
        .iter()
        .all(|d| d.metric == "shard_miss_count"));

    // within-threshold drift passes in both directions
    let ok = BenchReport::from_json(&scale_metric(&json, "cache_hit_rate", 0.95)).unwrap();
    assert!(compare(&report, &ok, 10.0).passed());
    let ok = BenchReport::from_json(&scale_metric(&json, "shard_miss_count", 1.05)).unwrap();
    assert!(compare(&report, &ok, 10.0).passed());

    // moves in the good direction count as improvements, not failures
    let better = BenchReport::from_json(&scale_metric(&json, "shard_miss_count", 0.5)).unwrap();
    let cmp = compare(&report, &better, 10.0);
    assert!(cmp.passed());
    assert!(!cmp.improvements.is_empty());
}

#[test]
fn reports_without_replica_seconds_or_host_still_parse_and_gate() {
    // Back-compat within the schema id: baselines written before the
    // `replica_seconds` serve metric and the `host` record family
    // existed must keep parsing (empty host, serve records simply
    // lacking the key) and keep gating cleanly as the *baseline* —
    // `replica_seconds` gates conditionally, only once a baseline pins
    // it, and everything in `host` is never gated.
    let current = test_scale_report();
    let old_json = strip_key(&strip_key(&current.to_json(), "replica_seconds"), "host");
    let old = BenchReport::from_json(&old_json).expect("pre-host reports must parse");
    assert!(old.host.is_empty(), "missing host family parses as empty");
    assert_eq!(
        old.serve[0].aggregate().unwrap().metric("replica_seconds"),
        None,
        "the metric is simply absent on old records"
    );
    // old baseline vs current report: nothing pinned, nothing gated.
    assert!(compare(&old, &current, 10.0).passed());
    // current baseline vs old report: the baseline pins the cost
    // metric, so a report that lost it must fail as missing.
    let cmp = compare(&current, &old, 10.0);
    assert!(
        !cmp.passed(),
        "dropping a pinned replica_seconds must not gate clean"
    );
    assert!(cmp.regressions.is_empty());
    assert!(cmp.missing.iter().any(|m| m.contains("replica_seconds")));
    // …and the old report round-trips through its own serialization.
    let reread = BenchReport::parse(&old.to_json().to_pretty()).unwrap();
    assert_eq!(reread.serve, old.serve);
}

#[test]
fn pre_fault_baselines_parse_and_gate_without_the_new_metrics() {
    // Baselines written before the fault subsystem lack the `faults`
    // scenario field and the five fault metrics (`dropped`,
    // `availability`, `p99_under_failure_ns`, `failover_ns`,
    // `requeued_batches`). They must keep parsing — new fields
    // default-absent, not gated-to-zero — and keep gating cleanly as the
    // *baseline*: the IfPinned entries of GATED_METRICS only arm once
    // a baseline pins them.
    let current = test_scale_report();
    let mut old_json = current.to_json();
    for key in [
        "faults",
        "dropped",
        "availability",
        "p99_under_failure_ns",
        "failover_ns",
        "requeued_batches",
    ] {
        old_json = strip_key(&old_json, key);
    }
    let old = BenchReport::from_json(&old_json).expect("pre-fault reports must parse");
    assert_eq!(
        old.serve[0].faults, "none",
        "a missing fault plan parses as the empty plan"
    );
    assert_eq!(
        old.serve[0].aggregate().unwrap().metric("availability"),
        None,
        "the metrics are simply absent on old records"
    );
    // old baseline vs current report: nothing pinned, nothing gated.
    assert!(compare(&old, &current, 10.0).passed());
    // current baseline vs old report: the baseline pins the fault
    // metrics, so a report that lost them must fail as missing.
    let cmp = compare(&current, &old, 10.0);
    assert!(
        !cmp.passed(),
        "dropping pinned fault metrics must not gate clean"
    );
    assert!(cmp.regressions.is_empty());
    assert!(cmp
        .missing
        .iter()
        .any(|m| m.contains("availability") || m.contains("failover_ns")));
    // …and the old report round-trips through its own serialization.
    let reread = BenchReport::parse(&old.to_json().to_pretty()).unwrap();
    assert_eq!(reread.serve, old.serve);
}

#[test]
fn pre_sweep_baselines_parse_and_gate_cleanly() {
    // Baselines written before the `sweep` record family existed must
    // keep parsing (missing family → empty) and keep gating cleanly in
    // both directions: sweep records are reported, never gated, so their
    // presence or absence cannot move the gate.
    let current = test_scale_report();
    let old_json = strip_key(&current.to_json(), "sweep");
    let old = BenchReport::from_json(&old_json).expect("pre-sweep reports must parse");
    assert!(old.sweep.is_empty(), "missing sweep family parses as empty");
    assert!(compare(&old, &current, 10.0).passed());
    assert!(compare(&current, &old, 10.0).passed());
    // …and the stripped report round-trips through its own serialization.
    let reread = BenchReport::parse(&old.to_json().to_pretty()).unwrap();
    assert!(reread.sweep.is_empty());
    assert_eq!(reread.serve, old.serve);

    // A recommend-free sweep record (no --slo-p99) also round-trips.
    let mut bare = current.clone();
    bare.sweep[0].recommend = None;
    let reread = BenchReport::parse(&bare.to_json().to_pretty()).unwrap();
    assert_eq!(reread.sweep, bare.sweep);
}

#[test]
fn pre_breakdown_baselines_parse_and_gate_cleanly() {
    // Baselines written before the `breakdown` record family existed
    // must keep parsing (missing family → empty) and keep gating
    // cleanly in both directions: breakdown records only decompose
    // latencies the `serve` family already gates, so their presence or
    // absence cannot move the gate.
    let current = test_scale_report();
    let old_json = strip_key(&current.to_json(), "breakdown");
    let old = BenchReport::from_json(&old_json).expect("pre-breakdown reports must parse");
    assert!(
        old.breakdown.is_empty(),
        "missing breakdown family parses as empty"
    );
    assert!(compare(&old, &current, 10.0).passed());
    assert!(compare(&current, &old, 10.0).passed());
    // …and the stripped report round-trips through its own serialization.
    let reread = BenchReport::parse(&old.to_json().to_pretty()).unwrap();
    assert!(reread.breakdown.is_empty());
    assert_eq!(reread.serve, old.serve);
}

#[test]
fn breakdown_records_round_trip_render_and_never_gate() {
    let current = test_scale_report();

    // Round trip preserves the records and their stage order exactly.
    let reread = BenchReport::parse(&current.to_json().to_pretty()).unwrap();
    assert_eq!(reread.breakdown, current.breakdown);
    let stages: Vec<&str> = reread.breakdown[0]
        .stages
        .iter()
        .map(|s| s.stage.as_str())
        .collect();
    assert_eq!(stages, BREAKDOWN_STAGE_KEYS);

    // The markdown report renders one attribution row per stage.
    let md = current.to_markdown();
    assert!(md.contains("Latency attribution"));
    for key in BREAKDOWN_STAGE_KEYS {
        assert!(md.contains(key), "stage {key} missing from the markdown");
    }

    // Wildly different breakdown values never move the gate: the family
    // is reported, not gated.
    let mut slow = current.clone();
    for stage in &mut slow.breakdown[0].stages {
        stage.mean_ns *= 100.0;
        stage.p99_ns *= 100.0;
    }
    slow.breakdown[0].mean_latency_ns *= 100.0;
    assert!(compare(&current, &slow, 0.0).passed());
    assert!(compare(&slow, &current, 0.0).passed());
}

/// Removes every object entry named `key`, recursively — simulating a
/// report written before that field existed.
fn strip_key(v: &Json, key: &str) -> Json {
    match v {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != key)
                .map(|(k, val)| (k.clone(), strip_key(val, key)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(|i| strip_key(i, key)).collect()),
        other => other.clone(),
    }
}

fn scale_metric(v: &Json, key: &str, factor: f64) -> Json {
    match v {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .map(|(k, val)| {
                    if k == key {
                        if let Json::Num(x) = val {
                            return (k.clone(), Json::Num(x * factor));
                        }
                    }
                    (k.clone(), scale_metric(val, key, factor))
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(|i| scale_metric(i, key, factor)).collect()),
        other => other.clone(),
    }
}

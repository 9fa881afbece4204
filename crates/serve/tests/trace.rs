//! Trace-subsystem guarantees: double-run byte-identity of the
//! exported Chrome trace, the exact component-sum invariant of the
//! latency attribution across many seeds, the
//! zero-cost-when-disabled contract (tracing never perturbs the
//! simulation), and a guard that the attribution join stays linear.

use std::time::Instant;

use gdr_serve::fault::{CrashWindow, FaultSpec, Slowdown};
use gdr_serve::metrics::request_breakdowns;
use gdr_serve::request::{Cell, Request};
use gdr_serve::scheduler::{CompletedRequest, SimResult};
use gdr_serve::suite::{scaled_rate, ScenarioSpec, ServeHarness, HIGH_RATE_RPS};
use gdr_serve::workload::ArrivalProcess;
use gdr_serve::{BatchPolicy, SchedPolicy, TraceEvent};
use gdr_system::grid::ExperimentConfig;

fn harness() -> ServeHarness {
    ServeHarness::new(&ExperimentConfig::test_scale(), &["HiHGNN+GDR"]).expect("harness builds")
}

/// A fault-heavy scenario exercising every span source at once: a
/// crash with control-plane failover (batch migration + stall
/// episodes), a straggler (stretched service), and an availability
/// deadline — the hardest case for the attribution arithmetic.
fn crash_failover_spec(cfg: &ExperimentConfig) -> ScenarioSpec {
    ScenarioSpec {
        faults: FaultSpec {
            // Timed (at test scale, seed 7) to land while replica 0
            // has a batch in flight, so the control plane migrates it.
            crashes: vec![CrashWindow {
                replica: 0,
                crash_at_ns: 70_000,
                recover_after_ns: 200_000,
            }],
            slowdowns: vec![Slowdown {
                replica: 1,
                factor: 1.7,
            }],
            drop_prob: 0.0,
            deadline_ns: 0,
        },
        control: true,
        ..ScenarioSpec::new(
            "trace/crash-failover",
            ArrivalProcess::Poisson {
                rate_rps: scaled_rate(cfg, HIGH_RATE_RPS),
            },
            192,
            BatchPolicy::SizeCapped { cap: 8 },
            SchedPolicy::LeastLoaded,
            vec!["HiHGNN+GDR".into(); 3],
        )
    }
}

#[test]
fn double_run_trace_is_byte_identical() {
    let cfg = ExperimentConfig::test_scale();
    let harness = harness();
    let spec = crash_failover_spec(&cfg);
    let a = harness.run_traced(&spec, 7).expect("first run");
    let b = harness.run_traced(&spec, 7).expect("second run");
    assert_eq!(a.events, b.events, "event logs must match exactly");
    assert_eq!(
        a.chrome.to_json().to_pretty(),
        b.chrome.to_json().to_pretty(),
        "serialized traces must be byte-identical"
    );
    // The fault plan actually fired: the log carries the crash, the
    // view change, and at least one migrated batch.
    assert!(a
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::Crash { .. })));
    assert!(a
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::ViewChange { .. })));
    assert!(a
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::BatchMigrated { .. })));
}

#[test]
fn trace_events_are_emitted_in_virtual_time_order() {
    let cfg = ExperimentConfig::test_scale();
    let traced = harness()
        .run_traced(&crash_failover_spec(&cfg), 7)
        .expect("traced run");
    let mut last = 0;
    for event in &traced.events {
        assert!(
            event.time_ns() >= last,
            "event {event:?} stamped before {last}"
        );
        last = event.time_ns();
    }
}

#[test]
fn breakdown_components_sum_to_latency_across_seeds() {
    let cfg = ExperimentConfig::test_scale();
    let harness = harness();
    let spec = crash_failover_spec(&cfg);
    for seed in 0..48 {
        let traced = harness.run_traced(&spec, seed).expect("traced run");
        assert!(
            !traced.requests.is_empty(),
            "seed {seed}: no completions to attribute"
        );
        for rb in &traced.requests {
            assert_eq!(
                rb.component_sum(),
                rb.latency_ns,
                "seed {seed}, request {}: {rb:?} components must sum to the latency",
                rb.request
            );
        }
        // The record-level invariant is exact by construction too: the
        // headline mean is the sum of the per-stage means.
        let stage_sum: f64 = traced.breakdown.stages.iter().map(|s| s.mean_ns).sum();
        assert_eq!(traced.breakdown.mean_latency_ns, stage_sum);
        assert_eq!(traced.breakdown.requests, traced.requests.len() as u64);
    }
}

#[test]
fn disabled_sink_leaves_the_record_identical() {
    let cfg = ExperimentConfig::test_scale();
    let harness = harness();
    let spec = crash_failover_spec(&cfg);
    let plain = harness.run(&spec, 7).expect("untraced run");
    let traced = harness.run_traced(&spec, 7).expect("traced run");
    assert_eq!(
        plain, traced.record,
        "attaching the trace sink must not perturb the simulation"
    );
    assert_eq!(
        plain.to_json().to_pretty(),
        traced.record.to_json().to_pretty(),
        "serialized records must be byte-identical"
    );
}

/// A synthetic run of `n` requests served in batches of 8 on one
/// replica: one `BatchStarted` per batch and the matching completions,
/// with no simulator in the loop.
fn synthetic_run(n: u64) -> (SimResult, Vec<TraceEvent>) {
    const BATCH: u64 = 8;
    const SERVICE_NS: u64 = 100;
    let cell = Cell::from_index(0);
    let mut events = Vec::new();
    let mut completed = Vec::new();
    for first in (0..n).step_by(BATCH as usize) {
        let ids: Vec<u64> = (first..(first + BATCH).min(n)).collect();
        let formed_ns = ids[ids.len() - 1] * 10 + 1;
        let start_ns = formed_ns + 5;
        events.push(TraceEvent::BatchStarted {
            time_ns: start_ns,
            batch: first,
            replica: 0,
            cell: 0,
            formed_ns,
            size: ids.len(),
            warm: false,
            cache_hit: false,
            shard_miss: false,
            bind_ns: 0,
            service_ns: SERVICE_NS,
            stall_ns: 0,
            requests: ids.iter().map(|&id| (id, id * 10)).collect(),
        });
        completed.extend(ids.iter().map(|&id| CompletedRequest {
            request: Request {
                id,
                client: id as usize,
                arrival_ns: id * 10,
                cell,
            },
            completed_ns: start_ns + SERVICE_NS,
            replica: 0,
            service_ns: SERVICE_NS,
        }));
    }
    let result = SimResult {
        completed,
        batches: Vec::new(),
        samples: Vec::new(),
        makespan_ns: 0,
        replica_platforms: vec![0],
        initial_replicas: 1,
        replicas_max: 1,
        cold_starts: Vec::new(),
        dropped: Vec::new(),
        view_changes: 0,
        failover_ns: 0,
        requeued_batches: 0,
    };
    (result, events)
}

/// Best-of-5 wall time of `request_breakdowns` over a synthetic run of
/// `n` requests, seconds.
fn best_breakdown_s(n: u64) -> f64 {
    let (result, events) = synthetic_run(n);
    (0..5)
        .map(|_| {
            let t = Instant::now();
            let rows = request_breakdowns(&result, &events);
            let elapsed = t.elapsed().as_secs_f64();
            assert_eq!(rows.len() as u64, n);
            assert!(rows.iter().all(|r| r.component_sum() == r.latency_ns));
            elapsed
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn breakdown_join_scales_linearly() {
    // 4x the requests must cost well under 16x (a quadratic join) —
    // a linear join reads about 4-5x here.
    let small = best_breakdown_s(5_000);
    let large = best_breakdown_s(20_000);
    let ratio = large / small.max(1e-9);
    assert!(
        ratio < 8.0,
        "request_breakdowns took {large:.5}s at 20k vs {small:.5}s at 5k ({ratio:.1}x)"
    );
}

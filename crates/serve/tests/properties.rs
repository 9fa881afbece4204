//! Property/invariant tests over the whole serving stack.
//!
//! Each case draws a randomized scenario — arrival process, batching
//! policy, scheduler, pool size, sharding, cache capacity, autoscaler —
//! from the in-workspace seeded `rand` shim and runs it against a
//! randomized synthetic cost model, then checks the invariants that must
//! hold for *every* configuration:
//!
//! * **conservation** — requests in = completed at drain (nothing is
//!   ever dropped, duplicated, or left in flight);
//! * **latency ≥ service** — no request finishes faster than the batch
//!   that carried it;
//! * **batch sizes never exceed the policy cap**;
//! * **cache hit rate ∈ [0, 1]**, and zero whenever the cache is off;
//! * **autoscaler replica count ∈ [min, max]** after every change the
//!   trace records;
//! * **SLO-scaled pools never dip below the initial pool**, conserve
//!   every request across drain migrations, replay deterministically,
//!   and report an `slo_violation_rate` in [0, 1].
//!
//! The percentile estimator is separately cross-checked against a naive
//! sort-based quantile on randomized samples, including the 1-sample and
//! all-equal edge cases.
//!
//! A second net layers a randomized *fault plan* (crash windows,
//! slowdowns, in-transit drops, deadlines) over the same scenario space
//! and checks the failure-mode invariants:
//!
//! * **conservation under crashes** — every accepted request completes
//!   or is counted dropped, never both and never neither;
//! * **availability ∈ [0, 1]**, and exactly 1 for fault-free plans;
//! * **failover_ns > 0 iff a view change occurred**;
//! * **the empty plan is byte-identical** to the plain simulator;
//! * **control + a guaranteed survivor + no in-transit loss ⇒ nothing
//!   is ever dropped**.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use gdr_serve::batcher::{BatchPolicy, Batcher};
use gdr_serve::cost::{CostModel, ServiceCost};
use gdr_serve::fault::{CrashWindow, FaultSpec, Slowdown};
use gdr_serve::metrics::{percentile, scenario_record};
use gdr_serve::scheduler::{AutoscaleSpec, PoolConfig, SchedPolicy, SimResult, Simulator, SloSpec};
use gdr_serve::trace::{active_replicas, RecordingSink, TraceEvent};
use gdr_serve::workload::{ArrivalProcess, Traffic};
use gdr_system::report::SERVE_METRIC_KEYS;

/// Seeds per property — the issue floor is 32; a few extra are cheap
/// because the synthetic cost model needs no platform measurement.
const SEEDS: u64 = 48;

/// One randomized scenario: everything the serving stack can vary.
struct Scenario {
    cost: CostModel,
    sched: SchedPolicy,
    replicas: Vec<usize>,
    pool: PoolConfig,
    batch: BatchPolicy,
    traffic: Traffic,
}

fn random_scenario(seed: u64) -> Scenario {
    let mut rng = SmallRng::seed_from_u64(seed);
    let platforms = rng.gen_range(1..=2usize);
    let cost = CostModel::synthetic(
        (0..platforms).map(|i| format!("P{i}")).collect(),
        (0..platforms)
            .map(|_| {
                std::array::from_fn(|_| {
                    let per_request_ns = rng.gen_range(100..20_000u64);
                    ServiceCost {
                        fixed_ns: rng.gen_range(1..200_000u64),
                        per_request_ns,
                        warm_save_ns: rng.gen_range(0..250_000u64),
                        hit_per_request_ns: rng.gen_range(1..=per_request_ns),
                        dram_bytes_per_request: rng.gen_range(1..1_000_000u64),
                        footprint_bytes: rng.gen_range(1..32_000_000u64),
                        bind_ns: rng.gen_range(1..2_000_000u64),
                    }
                })
            })
            .collect(),
    );
    let pool_size = rng.gen_range(1..=4usize);
    let replicas: Vec<usize> = (0..pool_size)
        .map(|_| rng.gen_range(0..platforms))
        .collect();
    let sched = match rng.gen_range(0..4usize) {
        0 => SchedPolicy::RoundRobin,
        1 => SchedPolicy::LeastLoaded,
        2 => SchedPolicy::ShardAffinity,
        _ => SchedPolicy::ShardAffinityPartial,
    };
    let pool = PoolConfig {
        shards: rng.gen_range(0..=4usize),
        cache_bytes: if rng.gen_bool(0.5) {
            rng.gen_range(1_000_000..100_000_000u64)
        } else {
            0
        },
        autoscale: rng.gen_bool(0.5).then(|| {
            let up_depth = rng.gen_range(2..48usize);
            AutoscaleSpec {
                max_replicas: pool_size + rng.gen_range(1..4usize),
                up_depth,
                down_depth: rng.gen_range(0..up_depth),
            }
        }),
        slo: rng.gen_bool(0.3).then(|| SloSpec {
            p99_target_ns: rng.gen_range(10_000..5_000_000u64),
            headroom: rng.gen_range(0.3..1.0f64),
        }),
    };
    let batch = match rng.gen_range(0..3usize) {
        0 => BatchPolicy::Immediate,
        1 => BatchPolicy::SizeCapped {
            cap: rng.gen_range(1..16usize),
        },
        _ => BatchPolicy::Deadline {
            cap: rng.gen_range(1..16usize),
            timeout_ns: rng.gen_range(1..200_000u64),
        },
    };
    let process = match rng.gen_range(0..3usize) {
        0 => ArrivalProcess::Poisson {
            rate_rps: rng.gen_range(500.0..2_000_000.0f64),
        },
        1 => ArrivalProcess::Bursty {
            rate_rps: rng.gen_range(500.0..2_000_000.0f64),
            period_ns: rng.gen_range(1_000..2_000_000u64),
            duty: rng.gen_range(0.05..1.0f64),
        },
        _ => ArrivalProcess::ClosedLoop {
            clients: rng.gen_range(1..24usize),
            think_ns: rng.gen_range(1_000..2_000_000u64),
        },
    };
    let traffic = Traffic {
        process,
        requests: rng.gen_range(1..256usize),
        seed: rng.gen_range(0..1_000_000u64),
    };
    Scenario {
        cost,
        sched,
        replicas,
        pool,
        batch,
        traffic,
    }
}

fn run(s: &Scenario) -> SimResult {
    Simulator::new(&s.cost, s.sched, &s.replicas, &s.pool)
        .run(s.traffic.stream(), Batcher::new(s.batch))
}

/// [`run`] with a recording sink: the result and its trace.
fn run_traced(s: &Scenario) -> (SimResult, Vec<TraceEvent>) {
    let mut sink = RecordingSink::default();
    let r = Simulator::new(&s.cost, s.sched, &s.replicas, &s.pool)
        .with_trace(&mut sink)
        .run(s.traffic.stream(), Batcher::new(s.batch));
    (r, sink.events)
}

/// Asserts the active-replica count stays in `[min, max]` after every
/// change the trace records.
fn assert_active_within(events: &[TraceEvent], min: usize, max: usize, seed: u64) {
    for (time_ns, n) in active_replicas(events, min) {
        assert!(
            (min..=max).contains(&n),
            "seed {seed}: {n} active at {time_ns} ns outside [{min}, {max}]"
        );
    }
}

fn batch_cap(policy: BatchPolicy) -> usize {
    match policy {
        BatchPolicy::Immediate => 1,
        BatchPolicy::SizeCapped { cap } | BatchPolicy::Deadline { cap, .. } => cap.max(1),
    }
}

#[test]
fn requests_are_conserved_at_drain() {
    for seed in 0..SEEDS {
        let s = random_scenario(seed);
        let r = run(&s);
        // every request completes exactly once — none dropped, none
        // duplicated, none left in flight when the simulator returns
        assert_eq!(r.completed.len(), s.traffic.requests, "seed {seed}");
        let mut ids: Vec<u64> = r.completed.iter().map(|c| c.request.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), s.traffic.requests, "seed {seed}: duplicate ids");
        // batches partition the request set
        assert_eq!(
            r.totals.row(None).batched_requests,
            s.traffic.requests as u64,
            "seed {seed}"
        );
    }
}

#[test]
fn latency_is_bounded_below_by_service_cost() {
    for seed in 0..SEEDS {
        let s = random_scenario(seed);
        let r = run(&s);
        for c in &r.completed {
            assert!(
                c.latency_ns() >= c.service_ns,
                "seed {seed}: request {} finished in {} ns, faster than its batch's {} ns service",
                c.request.id,
                c.latency_ns(),
                c.service_ns
            );
            assert!(c.service_ns >= 1, "seed {seed}: service time has a floor");
        }
    }
}

#[test]
fn batch_sizes_never_exceed_the_policy_cap() {
    for seed in 0..SEEDS {
        let s = random_scenario(seed);
        let cap = batch_cap(s.batch);
        let (_, events) = run_traced(&s);
        for event in &events {
            if let TraceEvent::BatchStarted { size, .. } = *event {
                assert!(
                    (1..=cap).contains(&size),
                    "seed {seed}: batch of {size} under cap {cap}"
                );
            }
        }
    }
}

#[test]
fn cache_hit_rate_is_a_rate() {
    for seed in 0..SEEDS {
        let s = random_scenario(seed);
        let r = run(&s);
        let rec = scenario_record(
            "prop",
            &s.traffic,
            s.batch,
            s.sched,
            &s.pool,
            &FaultSpec::default(),
            false,
            &r,
            s.cost.platforms(),
        );
        for run in &rec.runs {
            let rate = run.metric("cache_hit_rate").expect("key present");
            assert!(
                (0.0..=1.0).contains(&rate),
                "seed {seed}: hit rate {rate} on {}",
                run.platform
            );
            if s.pool.cache_bytes == 0 {
                assert_eq!(rate, 0.0, "seed {seed}: no cache, no hits");
            }
        }
    }
}

#[test]
fn autoscaler_stays_within_min_and_max() {
    for seed in 0..SEEDS {
        let s = random_scenario(seed);
        let min = s.replicas.len();
        let max = s.pool.autoscale.map_or(min, |a| a.max_replicas);
        let (r, events) = run_traced(&s);
        assert_active_within(&events, min, max, seed);
        assert!((min..=max).contains(&r.replicas_max), "seed {seed}");
        if s.pool.autoscale.is_none() {
            assert!(
                !events
                    .iter()
                    .any(|e| matches!(e, TraceEvent::ColdStart { .. })),
                "seed {seed}: fixed pools never cold-start"
            );
        }
    }
}

#[test]
fn every_record_metric_is_finite_and_keyed_canonically() {
    for seed in 0..SEEDS {
        let s = random_scenario(seed);
        let r = run(&s);
        let rec = scenario_record(
            "prop",
            &s.traffic,
            s.batch,
            s.sched,
            &s.pool,
            &FaultSpec::default(),
            false,
            &r,
            s.cost.platforms(),
        );
        for run in &rec.runs {
            let keys: Vec<&str> = run.metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, SERVE_METRIC_KEYS, "seed {seed} on {}", run.platform);
            for (k, v) in &run.metrics {
                assert!(v.is_finite(), "seed {seed}: {k} = {v}");
                assert!(*v >= 0.0, "seed {seed}: {k} = {v}");
            }
        }
    }
}

/// Naive nearest-rank quantile, written independently of
/// [`percentile`]: the smallest sample `x` such that at least
/// `ceil(pct/100 * n)` samples are `<= x`.
fn naive_quantile(samples: &[u64], pct: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let need = ((pct / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
    let mut candidates: Vec<u64> = samples.to_vec();
    candidates.sort_unstable();
    *candidates
        .iter()
        .find(|&&x| candidates.iter().filter(|&&y| y <= x).count() >= need)
        .expect("the maximum always satisfies the rank")
}

#[test]
fn percentiles_match_a_naive_sort_based_quantile() {
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(1_000 + seed);
        let n = rng.gen_range(1..500usize);
        let mut samples: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000_000u64)).collect();
        samples.sort_unstable();
        for pct in [1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
            assert_eq!(
                percentile(&samples, pct),
                naive_quantile(&samples, pct),
                "seed {seed}: pct {pct} over {n} samples"
            );
        }
    }
}

#[test]
fn percentile_edge_cases() {
    // 1 sample: every percentile is that sample
    for pct in [1.0, 50.0, 99.0, 100.0] {
        assert_eq!(percentile(&[42], pct), 42);
        assert_eq!(naive_quantile(&[42], pct), 42);
    }
    // all-equal samples: every percentile is the common value
    let flat = [7u64; 100];
    for pct in [1.0, 50.0, 95.0, 99.0, 100.0] {
        assert_eq!(percentile(&flat, pct), 7);
        assert_eq!(naive_quantile(&flat, pct), 7);
    }
    // empty: defined as 0
    assert_eq!(percentile(&[], 50.0), 0);
}

/// Draws a random fault plan over the scenario's replica *slots*
/// (initial pool plus any autoscale headroom). When `spare_zero` is
/// set, slot 0 never crashes — the survivor the control plane can
/// always migrate onto.
fn random_faults(rng: &mut SmallRng, slots: usize, spare_zero: bool) -> FaultSpec {
    let mut faults = FaultSpec::default();
    for replica in 0..slots {
        if rng.gen_bool(0.4) && !(spare_zero && replica == 0) {
            faults.crashes.push(CrashWindow {
                replica,
                crash_at_ns: rng.gen_range(1..2_000_000u64),
                recover_after_ns: if rng.gen_bool(0.5) {
                    rng.gen_range(1..2_000_000u64)
                } else {
                    0
                },
            });
        }
        if rng.gen_bool(0.3) {
            faults.slowdowns.push(Slowdown {
                replica,
                factor: rng.gen_range(1.5..6.0f64),
            });
        }
    }
    if rng.gen_bool(0.3) {
        faults.drop_prob = rng.gen_range(0.01..0.2f64);
    }
    if rng.gen_bool(0.5) {
        faults.deadline_ns = rng.gen_range(50_000..5_000_000u64);
    }
    faults
}

/// One randomized faulty scenario: a base scenario, a fault plan drawn
/// over its slots, and a coin flip on the control plane.
fn random_fault_scenario(seed: u64, spare_zero: bool) -> (Scenario, FaultSpec, bool) {
    let s = random_scenario(seed);
    let mut rng = SmallRng::seed_from_u64(0xFA_017 ^ seed);
    let slots = s
        .pool
        .autoscale
        .map_or(s.replicas.len(), |a| a.max_replicas.max(s.replicas.len()));
    let faults = random_faults(&mut rng, slots, spare_zero);
    faults
        .validate(slots)
        .expect("generated plans are always consistent");
    let control = rng.gen_bool(0.5);
    (s, faults, control)
}

fn run_faulty(s: &Scenario, faults: &FaultSpec, control: bool, seed: u64) -> SimResult {
    Simulator::with_faults(
        &s.cost,
        s.sched,
        &s.replicas,
        &s.pool,
        faults,
        control,
        seed,
    )
    .run(s.traffic.stream(), Batcher::new(s.batch))
}

#[test]
fn faulty_runs_conserve_requests_without_double_counting() {
    for seed in 0..SEEDS {
        let (s, faults, control) = random_fault_scenario(seed, false);
        let r = run_faulty(&s, &faults, control, seed);
        // every generated request lands in exactly one ledger: completed
        // or dropped — never both, never neither, never twice
        let mut ids: Vec<u64> = r
            .completed
            .iter()
            .map(|c| c.request.id)
            .chain(r.dropped.iter().map(|d| d.request.id))
            .collect();
        assert_eq!(
            ids.len(),
            s.traffic.requests,
            "seed {seed} ({}): {} completed + {} dropped",
            faults.label(),
            r.completed.len(),
            r.dropped.len()
        );
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            s.traffic.requests,
            "seed {seed} ({}): an id appears in both ledgers",
            faults.label()
        );
    }
}

#[test]
fn fault_metrics_stay_well_formed_and_failover_tracks_view_changes() {
    for seed in 0..SEEDS {
        let (s, faults, control) = random_fault_scenario(seed, false);
        let r = run_faulty(&s, &faults, control, seed);
        // failover time is accounted exactly when an election completed,
        // and only the control plane ever migrates batches
        assert_eq!(
            r.failover_ns > 0,
            r.view_changes > 0,
            "seed {seed}: failover_ns {} with {} view change(s)",
            r.failover_ns,
            r.view_changes
        );
        if !control {
            assert_eq!(r.view_changes, 0, "seed {seed}");
            if s.pool.autoscale.is_none() {
                // the autoscaler's drain path also requeues batches, so
                // a zero count is only guaranteed with both planes off
                assert_eq!(r.requeued_batches, 0, "seed {seed}");
            }
        }
        let rec = scenario_record(
            "prop-fault",
            &s.traffic,
            s.batch,
            s.sched,
            &s.pool,
            &faults,
            control,
            &r,
            s.cost.platforms(),
        );
        for run in &rec.runs {
            let avail = run.metric("availability").expect("key present");
            assert!(
                (0.0..=1.0).contains(&avail),
                "seed {seed}: availability {avail} on {}",
                run.platform
            );
            for (k, v) in &run.metrics {
                assert!(v.is_finite() && *v >= 0.0, "seed {seed}: {k} = {v}");
            }
        }
    }
}

#[test]
fn the_empty_fault_plan_is_byte_identical_to_the_plain_simulator() {
    for seed in 0..SEEDS {
        let s = random_scenario(seed);
        let plain = run(&s);
        let empty = run_faulty(&s, &FaultSpec::default(), false, seed);
        assert_eq!(
            plain, empty,
            "seed {seed}: the no-fault path must not perturb a single event"
        );
        assert_eq!(plain.dropped, Vec::new(), "seed {seed}");
        assert_eq!(plain.view_changes, 0, "seed {seed}");
    }
}

#[test]
fn control_with_a_survivor_and_no_transit_loss_never_drops() {
    for seed in 0..SEEDS {
        let (s, mut faults, _) = random_fault_scenario(seed, true);
        // keep the crash/slowdown schedule but rule out in-transit loss;
        // slot 0 never crashes, so the control plane always has a live
        // replica to migrate a dead primary's batches onto
        faults.drop_prob = 0.0;
        faults.deadline_ns = 0;
        let r = run_faulty(&s, &faults, true, seed);
        assert_eq!(
            r.dropped,
            Vec::new(),
            "seed {seed} ({}): the control plane must re-issue every \
             migrated batch",
            faults.label()
        );
        assert_eq!(r.completed.len(), s.traffic.requests, "seed {seed}");
    }
}

#[test]
fn faulty_simulation_is_replay_deterministic() {
    for seed in 0..8 {
        let (s, faults, control) = random_fault_scenario(seed, false);
        let (a, b) = (
            run_faulty(&s, &faults, control, seed),
            run_faulty(&s, &faults, control, seed),
        );
        assert_eq!(a, b, "seed {seed} ({})", faults.label());
    }
}

#[test]
fn simulation_is_replay_deterministic_across_random_scenarios() {
    for seed in 0..8 {
        let s = random_scenario(seed);
        let (a, b) = (run_traced(&s), run_traced(&s));
        assert_eq!(a.0, b.0, "seed {seed}");
        assert_eq!(a.1, b.1, "seed {seed}");
    }
}

/// The base scenario with the SLO controller forced on: autoscale
/// headroom above the initial pool and a randomized p99 target, so
/// every seed exercises predictive scaling and its drain path.
fn random_slo_scenario(seed: u64) -> Scenario {
    let mut s = random_scenario(seed);
    let mut rng = SmallRng::seed_from_u64(0x510 ^ seed);
    s.pool.autoscale = Some(AutoscaleSpec {
        max_replicas: s.replicas.len() + rng.gen_range(1..4usize),
        up_depth: 32,
        down_depth: 4,
    });
    s.pool.slo = Some(SloSpec {
        p99_target_ns: rng.gen_range(10_000..5_000_000u64),
        headroom: rng.gen_range(0.3..1.0f64),
    });
    s
}

#[test]
fn slo_scaling_never_dips_below_the_initial_pool() {
    for seed in 0..SEEDS {
        let s = random_slo_scenario(seed);
        let min = s.replicas.len();
        let max = s.pool.autoscale.expect("forced on").max_replicas;
        let (r, events) = run_traced(&s);
        assert_active_within(&events, min, max, seed);
        assert!((min..=max).contains(&r.replicas_max), "seed {seed}");
    }
}

#[test]
fn drain_migrations_conserve_requests() {
    // both controllers share the drain path; alternate seeds exercise
    // the queue-depth one so its migrations are covered too
    let mut migrations = 0;
    for seed in 0..SEEDS {
        let mut s = random_slo_scenario(seed);
        if seed % 2 == 0 {
            s.pool.slo = None;
        }
        let r = run(&s);
        migrations += r.requeued_batches;
        assert_eq!(r.completed.len(), s.traffic.requests, "seed {seed}");
        let mut ids: Vec<u64> = r.completed.iter().map(|c| c.request.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), s.traffic.requests, "seed {seed}: duplicate ids");
    }
    assert!(
        migrations > 0,
        "the net must exercise at least one drain migration"
    );
}

#[test]
fn slo_controller_is_replay_deterministic() {
    for seed in 0..8 {
        let s = random_slo_scenario(seed);
        let (a, b) = (run(&s), run(&s));
        assert_eq!(a, b, "seed {seed}");
    }
}

#[test]
fn slo_violation_rate_is_a_rate() {
    for seed in 0..SEEDS {
        let s = random_slo_scenario(seed);
        let r = run(&s);
        let rec = scenario_record(
            "prop-slo",
            &s.traffic,
            s.batch,
            s.sched,
            &s.pool,
            &FaultSpec::default(),
            false,
            &r,
            s.cost.platforms(),
        );
        for run in &rec.runs {
            let rate = run.metric("slo_violation_rate").expect("key present");
            assert!(
                (0.0..=1.0).contains(&rate),
                "seed {seed}: violation rate {rate} on {}",
                run.platform
            );
        }
    }
}

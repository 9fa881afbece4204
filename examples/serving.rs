//! Serving: put the simulated platforms behind a request queue and
//! watch dynamic batching buy throughput and tail latency.
//!
//! Measures the HiHGNN+GDR backend once, then drives the same
//! high-rate Poisson request stream through three batching policies on
//! a two-replica pool, and finishes with the committed canonical suite.
//! Everything runs in virtual time: re-running this example reproduces
//! every number exactly.
//!
//! Run with: `cargo run --release --example serving`

use gdr::prelude::*;

fn main() -> GdrResult<()> {
    let cfg = ExperimentConfig::test_scale();

    // 1. One-off warmup: execute each grid cell once per backend to
    //    derive the service-cost table (fixed per-batch overhead +
    //    per-request mini-batch work).
    let harness = ServeHarness::new(&cfg, &["HiHGNN+GDR"])?;

    // 2. The same seeded traffic under three batching policies.
    let policies = [
        ("immediate", BatchPolicy::Immediate),
        ("size-capped(8)", BatchPolicy::SizeCapped { cap: 8 }),
        (
            "deadline(8, 20µs)",
            BatchPolicy::Deadline {
                cap: 8,
                timeout_ns: 20_000,
            },
        ),
    ];
    println!(
        "{:<18} {:>12} {:>10} {:>10} {:>10} {:>8}",
        "batch policy", "req/s", "p50 µs", "p95 µs", "p99 µs", "batch ×"
    );
    for (label, batch) in policies {
        let record = harness.run(
            &ScenarioSpec::new(
                label,
                ArrivalProcess::Poisson {
                    rate_rps: 1_200_000.0,
                },
                384,
                batch,
                SchedPolicy::LeastLoaded,
                vec!["HiHGNN+GDR".into(), "HiHGNN+GDR".into()],
            ),
            cfg.seed,
        )?;
        let all = record.aggregate().expect("ALL row");
        let us = |key: &str| all.metric(key).unwrap_or(0.0) / 1e3;
        println!(
            "{:<18} {:>12.0} {:>10.1} {:>10.1} {:>10.1} {:>8.2}",
            label,
            all.metric("throughput_rps").unwrap_or(0.0),
            us("p50_ns"),
            us("p95_ns"),
            us("p99_ns"),
            all.metric("mean_batch_size").unwrap_or(0.0),
        );
    }

    // 3. Scale-out: partial replicas (each holds one dataset shard)
    //    with a cross-batch feature cache and a queue-driven
    //    autoscaler. Shard-affine routing keeps every replica's cache
    //    hot; blind routing pays cold binds on most batches.
    println!("\nscale-out (3 partial replicas, 1 dataset shard each):");
    let sharded = |name: &str, sched, cache_bytes| ScenarioSpec {
        shards: 3,
        cache_bytes,
        autoscale: Some(AutoscaleSpec {
            max_replicas: 4,
            up_depth: 32,
            down_depth: 4,
        }),
        ..ScenarioSpec::new(
            name,
            ArrivalProcess::Poisson {
                rate_rps: 1_200_000.0,
            },
            384,
            BatchPolicy::SizeCapped { cap: 8 },
            sched,
            vec!["HiHGNN+GDR".into(); 3],
        )
    };
    for spec in [
        sharded(
            "warm shard-affinity",
            SchedPolicy::ShardAffinityPartial,
            64 << 20,
        ),
        sharded("cold round-robin", SchedPolicy::RoundRobin, 0),
    ] {
        let all_rec = harness.run(&spec, cfg.seed)?;
        let all = all_rec.aggregate().expect("ALL row");
        println!(
            "  {:<22} p99 {:>8.1} µs, {:>6.1} MiB DRAM, cache {:>4.0}%, {:>2.0} shard misses, peak {:.0} replicas",
            spec.name,
            all.metric("p99_ns").unwrap_or(0.0) / 1e3,
            all.metric("dram_bytes").unwrap_or(0.0) / (1 << 20) as f64,
            all.metric("cache_hit_rate").unwrap_or(0.0) * 100.0,
            all.metric("shard_miss_count").unwrap_or(0.0),
            all.metric("replicas_max").unwrap_or(0.0),
        );
    }

    // 4. Faults: crash the primary replica mid-run, with and without
    //    the replicated control plane. With it, backups hold the
    //    primary's batch assignments and a heartbeat lapse elects a new
    //    primary that re-issues the dead replica's work; without it,
    //    those batches are simply lost. Both runs replay the *same*
    //    deterministic fault plan.
    println!("\nprimary crash at t=80µs (3 replicas, identical traffic):");
    let crashed = |name: &str, control| ScenarioSpec {
        faults: FaultSpec {
            crashes: vec![CrashWindow {
                replica: 0,
                crash_at_ns: 80_000,
                recover_after_ns: 0, // stays down
            }],
            ..FaultSpec::default()
        },
        control,
        ..ScenarioSpec::new(
            name,
            ArrivalProcess::Poisson {
                rate_rps: 1_200_000.0,
            },
            384,
            BatchPolicy::SizeCapped { cap: 8 },
            SchedPolicy::LeastLoaded,
            vec!["HiHGNN+GDR".into(); 3],
        )
    };
    for spec in [
        crashed("view-change control plane", true),
        crashed("no control plane", false),
    ] {
        let rec = harness.run(&spec, cfg.seed)?;
        let all = rec.aggregate().expect("ALL row");
        println!(
            "  {:<26} availability {:>7.3}%, {:>2.0} dropped, failover {:>5.1} µs, {:>2.0} batches migrated",
            spec.name,
            all.metric("availability").unwrap_or(0.0) * 100.0,
            all.metric("dropped").unwrap_or(0.0),
            all.metric("failover_ns").unwrap_or(0.0) / 1e3,
            all.metric("requeued_batches").unwrap_or(0.0),
        );
    }

    // 5. SLO-driven autoscaling: the same bursty stream served two ways
    //    against one p99 target — a controller scaling on *predicted*
    //    p99 from one warm replica (draining replicas hand their queued
    //    batches to the survivors), and a statically provisioned
    //    max-size pool. Both meet the target; the controller pays
    //    replica-seconds only while the bursts demand them.
    println!("\nSLO p99 <= 100 µs under bursty traffic:");
    let bursty = ArrivalProcess::Bursty {
        rate_rps: 600_000.0,
        period_ns: 1_000_000,
        duty: 0.25,
    };
    let slo = SloSpec {
        p99_target_ns: 100_000,
        headroom: 0.8, // scale once predicted p99 passes 80 µs
    };
    let controlled = ScenarioSpec {
        cache_bytes: 64 << 20,
        autoscale: Some(AutoscaleSpec {
            max_replicas: 4, // the cap; thresholds are superseded
            up_depth: 32,
            down_depth: 4,
        }),
        slo: Some(slo),
        ..ScenarioSpec::new(
            "slo controller",
            bursty,
            384,
            BatchPolicy::SizeCapped { cap: 8 },
            SchedPolicy::LeastLoaded,
            vec!["HiHGNN+GDR".into()],
        )
    };
    let static_max = ScenarioSpec {
        cache_bytes: 64 << 20,
        slo: Some(slo), // observational: fixed pool, measured violations
        ..ScenarioSpec::new(
            "static max pool",
            bursty,
            384,
            BatchPolicy::SizeCapped { cap: 8 },
            SchedPolicy::LeastLoaded,
            vec!["HiHGNN+GDR".into(); 4],
        )
    };
    for spec in [controlled, static_max] {
        let rec = harness.run(&spec, cfg.seed)?;
        let all = rec.aggregate().expect("ALL row");
        println!(
            "  {:<16} p99 {:>7.1} µs, violations {:>5.1}%, {:.2e} replica-seconds, peak {:.0} replicas",
            spec.name,
            all.metric("p99_ns").unwrap_or(0.0) / 1e3,
            all.metric("slo_violation_rate").unwrap_or(0.0) * 100.0,
            all.metric("replica_seconds").unwrap_or(0.0),
            all.metric("replicas_max").unwrap_or(0.0),
        );
    }

    // 6. The committed canonical suite — what `gdr-bench` embeds into
    //    grid reports and CI gates against bench/baseline.json (the
    //    crash/straggler/lossy scenarios pin the availability headline).
    println!("\ncanonical suite:");
    for record in default_suite(&cfg)? {
        let all = record.aggregate().expect("ALL row");
        println!(
            "  {:<42} {:>10.0} req/s, p99 {:>8.1} µs, avail {:>6.2}%",
            record.scenario,
            all.metric("throughput_rps").unwrap_or(0.0),
            all.metric("p99_ns").unwrap_or(0.0) / 1e3,
            all.metric("availability").unwrap_or(1.0) * 100.0,
        );
    }

    // 7. Sweep a slice of the scenario space and let the Pareto
    //    recommender pick a config: expand a small axis grid, run every
    //    scenario, keep the non-dominated configs, and name the
    //    cheapest one meeting a p99 SLO. (`gdr-bench sweep` does the
    //    same over worker lanes, with identical results — the sweep is
    //    a pure function of the spec.)
    let sweep = SweepSpec {
        requests: 192,
        ..SweepSpec::default()
    };
    let rows: Vec<SweepRowRecord> = sweep
        .expand(&cfg)?
        .iter()
        .map(|spec| {
            let record = harness.run(spec, cfg.seed)?;
            let all = record.aggregate().expect("ALL row");
            let metrics = SWEEP_OBJECTIVES
                .iter()
                .filter_map(|&(key, _)| all.metric(key).map(|v| (key.to_string(), v)))
                .collect();
            Ok(SweepRowRecord {
                scenario: record.scenario.clone(),
                metrics,
            })
        })
        .collect::<GdrResult<_>>()?;
    let frontier = pareto_frontier(&rows);
    println!(
        "\nsweep: {} scenarios, {} on the Pareto frontier \
         (p99 ↓, req/s ↑, replica-s ↓, DRAM ↓)",
        rows.len(),
        frontier.len()
    );
    let slo_ns = 100_000.0;
    let pick = recommend(&rows, &frontier, slo_ns, 0.0);
    if pick.feasible {
        println!(
            "cheapest config meeting p99 <= {:.0} µs: {} (p99 {:.1} µs, {:.2e} replica-seconds)",
            slo_ns / 1e3,
            pick.scenario,
            pick.metric("p99_ns").unwrap_or(0.0) / 1e3,
            pick.metric("replica_seconds").unwrap_or(0.0),
        );
    } else {
        println!("no swept config meets a p99 of {:.0} µs", slo_ns / 1e3);
    }

    // 8. Trace a run and attribute its latency. `run_traced` replays
    //    the crash scenario with the trace sink attached — the record
    //    is byte-identical to the untraced run — and folds the spans
    //    into a per-stage latency breakdown plus a Perfetto-loadable
    //    Chrome trace. Write `traced.chrome.to_json().to_pretty()` to a
    //    file and open it at https://ui.perfetto.dev to see one track
    //    per replica: batch spans (with their bind/service/stall split
    //    in `args`), the crash/recover instants, and the view change.
    //    `gdr-bench trace --out trace.json` does exactly this from the
    //    command line.
    let traced = harness.run_traced(&crashed("traced crash", true), cfg.seed)?;
    assert_eq!(
        traced.record,
        harness.run(&crashed("traced crash", true), cfg.seed)?
    );
    println!(
        "\nlatency attribution ({} events, {} completed requests):",
        traced.events.len(),
        traced.requests.len()
    );
    for stage in &traced.breakdown.stages {
        println!(
            "  {:<14} mean {:>8.2} µs  p50 {:>8.2} µs  p99 {:>8.2} µs",
            stage.stage,
            stage.mean_ns / 1e3,
            stage.p50_ns / 1e3,
            stage.p99_ns / 1e3,
        );
    }
    println!(
        "  {:<14} mean {:>8.2} µs (stages sum to the end-to-end mean exactly)",
        "end-to-end",
        traced.breakdown.mean_latency_ns / 1e3
    );
    let trace_json = traced.chrome.to_json().to_pretty();
    println!(
        "trace: {} Chrome trace events, {} bytes of JSON — write them to a \
         file and load it at ui.perfetto.dev",
        traced.chrome.len(),
        trace_json.len()
    );

    // 9. Replay a simulated schedule on real threads. Everything above
    //    ran in virtual time; `run_replayable` folds the scheduler's
    //    batch placements out of the run's trace and `replay` executes
    //    them on `std::thread` worker lanes — each lane drives the
    //    zero-allocation frontend hot path for every batch, cache hits
    //    included (replay does not model the simulator's warm and
    //    feature-cache discounts). The completed set and per-replica
    //    order are identical at any lane count; only the wall-clock
    //    throughput is machine-dependent (host family: reported, never
    //    gated). `gdr-bench replay --jobs N` does this from the CLI.
    let (_, log) = harness.run_replayable(
        &sharded(
            "replayed shard-affinity",
            SchedPolicy::ShardAffinityPartial,
            64 << 20,
        ),
        cfg.seed,
    )?;
    let datasets = ReplayDatasets::build(&log.config);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\nreal-threads replay ({} recorded batches):",
        log.assignments.len()
    );
    let mut reference: Option<ReplayReport> = None;
    for jobs in [1, cores] {
        let report = replay(&log, &datasets, jobs)?;
        if let Some(solo) = &reference {
            assert_eq!(report.completed_ids, solo.completed_ids);
            assert_eq!(report.per_replica_ids, solo.per_replica_ids);
        }
        println!(
            "  jobs={:<2} {:>8.0} graphs/s  ({} graphs, mean lane utilization {:>4.0}%)",
            jobs,
            report.graphs_per_sec(),
            report.graphs(),
            report.host_record().metric("util_mean").unwrap_or(0.0) * 100.0,
        );
        if reference.is_none() {
            reference = Some(report);
        }
        if jobs == cores {
            break; // cores == 1: one run is both reference and replay
        }
    }
    Ok(())
}

//! The sweep executor behind `gdr-bench sweep`.
//!
//! [`run_sweep`] expands a [`SweepSpec`] and fans the scenarios out
//! over std-thread worker lanes. Each lane owns its own clone of the
//! measured [`ServeHarness`] (one `CostModel::measure` result per
//! lane), lanes pull scenario indices from a shared atomic counter,
//! and the merged results are sorted back into expansion order — so
//! the output is a pure function of `(cfg, spec)`, byte-identical
//! regardless of the lane count. [`sweep_record`] then folds the
//! records into the `sweep` family of `gdr-bench/v1`: the results
//! table, the Pareto frontier over
//! [`SWEEP_OBJECTIVES`], and the
//! SLO recommendation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use gdr_hetgraph::GdrResult;
use gdr_serve::suite::ServeHarness;
use gdr_serve::sweep::SweepSpec;
use gdr_system::grid::ExperimentConfig;
use gdr_system::json::Json;
use gdr_system::report::{
    pareto_frontier, recommend, ServeScenarioRecord, SweepRecord, SweepRowRecord, SWEEP_OBJECTIVES,
};
use gdr_system::trace_export::ChromeTrace;

use crate::default_jobs;

/// Chrome-trace process id for the sweep executor's wall-clock lane
/// timeline, apart from the virtual-time serving trace's
/// `gdr_serve::trace::TRACE_PID` so the two clock domains never share
/// a track.
pub const SWEEP_TRACE_PID: u64 = 3;

/// Expands `spec` at `cfg` and runs every scenario over `jobs` worker
/// lanes (0 = [`default_jobs`]), returning the records in expansion
/// order. Scenarios are independent and simulated in virtual time, so
/// the result — and its serialized bytes — does not depend on the lane
/// count or on scheduling: the CI `sweep-smoke` job `cmp`s `--jobs 1`
/// against `--jobs 4` byte for byte.
///
/// # Errors
///
/// Propagates expansion errors ([`SweepSpec::expand`]), harness
/// construction errors, and the first scenario error in expansion
/// order.
pub fn run_sweep(
    cfg: &ExperimentConfig,
    spec: &SweepSpec,
    jobs: usize,
) -> GdrResult<Vec<ServeScenarioRecord>> {
    run_sweep_traced(cfg, spec, jobs, None)
}

/// [`run_sweep`] with an optional wall-clock lane timeline.
///
/// When `trace` is given, every scenario becomes one duration span on
/// the lane that executed it (process [`SWEEP_TRACE_PID`], thread
/// `lane + 1`), timed against a shared origin taken at entry. The
/// spans show how work spread across lanes — and, like the host
/// records, they are **wall clock**: the returned records stay
/// byte-identical across runs and lane counts, the trace does not.
pub fn run_sweep_traced(
    cfg: &ExperimentConfig,
    spec: &SweepSpec,
    jobs: usize,
    trace: Option<&mut ChromeTrace>,
) -> GdrResult<Vec<ServeScenarioRecord>> {
    let scenarios = spec.expand(cfg)?;
    let harness = ServeHarness::new(cfg, &[spec.platform.as_str()])?;
    let lanes = if jobs == 0 { default_jobs() } else { jobs }
        .min(scenarios.len())
        .max(1);
    let next = AtomicUsize::new(0);
    let timing = trace.is_some();
    let origin = Instant::now();
    type LaneResult = (
        usize,
        usize,
        Option<(u64, u64)>,
        GdrResult<ServeScenarioRecord>,
    );
    let mut indexed: Vec<LaneResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane_idx| {
                // Each lane owns its own copy of the measured cost
                // table; the scenario list and the work counter are
                // shared read-only / atomically.
                let lane = harness.clone();
                let (next, scenarios, origin) = (&next, &scenarios, &origin);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = scenarios.get(i) else {
                            break;
                        };
                        let started_ns = timing.then(|| origin.elapsed().as_nanos() as u64);
                        let result = lane.run(spec, lane.config().seed);
                        let span = started_ns.map(|start| {
                            let end = origin.elapsed().as_nanos() as u64;
                            (start, end.saturating_sub(start).max(1))
                        });
                        out.push((i, lane_idx, span, result));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep lane panicked"))
            .collect()
    });
    // Lanes finish in wall-clock order; the report must not. Restore
    // expansion order, and fail on the *first* scenario error by index
    // so even the error is deterministic.
    indexed.sort_by_key(|&(i, ..)| i);
    if let Some(t) = trace {
        t.process_name(SWEEP_TRACE_PID, "gdr-bench sweep");
        for lane_idx in 0..lanes {
            t.thread_name(
                SWEEP_TRACE_PID,
                lane_idx as u64 + 1,
                &format!("lane {lane_idx}"),
            );
        }
        for (_, lane_idx, span, result) in &indexed {
            if let (Some((start_ns, dur_ns)), Ok(rec)) = (span, result) {
                t.duration(
                    SWEEP_TRACE_PID,
                    *lane_idx as u64 + 1,
                    *start_ns,
                    *dur_ns,
                    &rec.scenario,
                    "sweep",
                    Vec::<(&str, Json)>::new(),
                );
            }
        }
    }
    indexed.into_iter().map(|(.., r)| r).collect()
}

/// Folds sweep records into one [`SweepRecord`]: one table row per
/// scenario (the pool-wide aggregate of each [`SWEEP_OBJECTIVES`]
/// key), the Pareto frontier, and — when an SLO was requested — the
/// cheapest-within-budget recommendation (a zero budget is unbounded).
pub fn sweep_record(
    name: &str,
    spec: &SweepSpec,
    records: &[ServeScenarioRecord],
    slo_p99_ns: Option<f64>,
    budget_replica_seconds: f64,
) -> SweepRecord {
    let table: Vec<SweepRowRecord> = records
        .iter()
        .map(|rec| SweepRowRecord {
            scenario: rec.scenario.clone(),
            metrics: SWEEP_OBJECTIVES
                .iter()
                .filter_map(|&(key, _)| {
                    rec.aggregate()
                        .and_then(|all| all.metric(key))
                        .map(|v| (key.to_string(), v))
                })
                .collect(),
        })
        .collect();
    let frontier_idx = pareto_frontier(&table);
    SweepRecord {
        name: name.to_string(),
        axes: spec.axis_summary(),
        requests: spec.requests as u64,
        platform: spec.platform.clone(),
        frontier: frontier_idx
            .iter()
            .map(|&i| table[i].scenario.clone())
            .collect(),
        recommend: slo_p99_ns
            .map(|slo| recommend(&table, &frontier_idx, slo, budget_replica_seconds)),
        table,
    }
}

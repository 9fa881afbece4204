//! Real-threads replay of a simulated serving schedule.
//!
//! The virtual-time scheduler decides *what runs where*; this module
//! answers *how fast the host can actually push that plan through the
//! frontend*. [`ServeHarness::run_replayable`] folds the simulator's
//! batch starts out of its trace into an [`AssignmentLog`]
//! ([`AssignmentLog::from_events`]) and [`replay`] executes the log on
//! real [`std::thread`] worker lanes:
//!
//! * **one lane per job**, each owning its own [`Workspace`] — the
//!   frontend's zero-alloc arena — plus a [`Restructurer`] and an
//!   [`NaBufferSim`];
//! * **replica pinning**: replica `r` always lands on lane
//!   `r % jobs`, so shard affinity decided by the scheduler is
//!   preserved (a lane re-serves the same datasets its replicas were
//!   sharded to) and every replica's batches execute in exactly the
//!   order the simulator issued them;
//! * **per-lane plans**: the log is split into one list of assignment
//!   indices per lane up front, and each lane walks its own list in
//!   assignment order — no lane ever touches another's work;
//! * **work per batch**: for every semantic graph of the batch's
//!   dataset, decouple → recouple → schedule
//!   ([`Restructurer::restructure_with`](gdr_core::restructure::Restructurer::restructure_with))
//!   then execute the restructured schedule through the pooled NA
//!   buffer
//!   ([`NaBufferSim::simulate_edges_with`](gdr_accel::na_engine::NaBufferSim::simulate_edges_with))
//!   — the steady-state zero-allocation hot path.
//!
//! Replay runs that full decouple → recouple → schedule → NA-sim path
//! for **every** batch, including batches the simulator priced as
//! schedule-cache (dataset-warm) or feature-cache hits: the virtual-time
//! cost model discounts those, the host replay does not. Replay
//! therefore times the plan's frontend work as if every batch ran
//! cold.
//!
//! Replay measures **wall-clock** host throughput, so its numbers land
//! in the `host` record family: reported, compared by eye, never gated
//! (see `bench/README.md`). Everything *about the plan* is still
//! deterministic — which requests ran, on which replica, in which order
//! — and that is what the property tests pin.
//!
//! [`ServeHarness::run_replayable`]: crate::suite::ServeHarness::run_replayable

use std::time::Instant;

use gdr_accel::hihgnn::HiHgnnConfig;
use gdr_accel::na_engine::NaBufferSim;
use gdr_core::restructure::Restructurer;
use gdr_core::workspace::Workspace;
use gdr_hetgraph::datasets::Dataset;
use gdr_hetgraph::{BipartiteGraph, GdrError, GdrResult};
use gdr_system::grid::ExperimentConfig;
use gdr_system::report::{HostRecord, HOST_METRIC_KEYS};

use crate::request::Cell;
use crate::scheduler::Assignment;
use crate::trace::TraceEvent;

/// The replayable product of one simulated scenario run: every batch
/// placement the virtual-time scheduler made, in issue order, plus the
/// context needed to rebuild the datasets the batches touch.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentLog {
    /// Scenario name the log was recorded from.
    pub scenario: String,
    /// Request-stream seed of the recorded run.
    pub seed: u64,
    /// Grid configuration the harness measured at — replay rebuilds
    /// each dataset with `build_scaled(config.seed, config.scale)`,
    /// matching what the simulated replicas served.
    pub config: ExperimentConfig,
    /// Batch placements in simulator issue order.
    pub assignments: Vec<Assignment>,
}

impl AssignmentLog {
    /// Folds a recorded trace into the replay log: one [`Assignment`]
    /// per [`TraceEvent::BatchStarted`], in start order. A batch that a
    /// crash voided and the control plane re-issued appears once per
    /// start, as the simulated replicas ran it.
    pub fn from_events(
        scenario: impl Into<String>,
        seed: u64,
        config: ExperimentConfig,
        events: &[TraceEvent],
    ) -> Self {
        let assignments = events
            .iter()
            .filter_map(|event| match event {
                TraceEvent::BatchStarted {
                    replica,
                    cell,
                    requests,
                    ..
                } => Some(Assignment {
                    replica: *replica,
                    cell: Cell::from_index(*cell),
                    request_ids: requests.iter().map(|&(id, _)| id).collect(),
                }),
                _ => None,
            })
            .collect();
        Self {
            scenario: scenario.into(),
            seed,
            config,
            assignments,
        }
    }

    /// Number of replica slots the log references (max replica + 1).
    pub fn replica_count(&self) -> usize {
        self.assignments
            .iter()
            .map(|a| a.replica + 1)
            .max()
            .unwrap_or(0)
    }

    /// Total requests across all recorded batches.
    pub fn total_requests(&self) -> usize {
        self.assignments.iter().map(|a| a.request_ids.len()).sum()
    }

    /// All recorded request ids, sorted ascending — the conservation
    /// reference a replay's completed set must equal exactly.
    pub fn request_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .assignments
            .iter()
            .flat_map(|a| a.request_ids.iter().copied())
            .collect();
        ids.sort_unstable();
        ids
    }
}

/// The semantic graphs replay executes, prebuilt once per dataset and
/// shared read-only across lanes (each simulated replica served these
/// same scaled builds through the cost model).
#[derive(Debug, Clone)]
pub struct ReplayDatasets {
    graphs: Vec<Vec<BipartiteGraph>>,
}

impl ReplayDatasets {
    /// Builds every dataset's semantic graphs at the log's grid
    /// configuration. This is the expensive, one-off step; replay
    /// itself only borrows.
    pub fn build(cfg: &ExperimentConfig) -> Self {
        Self {
            graphs: Dataset::ALL
                .iter()
                .map(|d| d.build_scaled(cfg.seed, cfg.scale).all_semantic_graphs())
                .collect(),
        }
    }

    /// The semantic graphs of one dataset.
    pub fn graphs(&self, dataset: Dataset) -> &[BipartiteGraph] {
        let i = Dataset::ALL
            .iter()
            .position(|&d| d == dataset)
            .expect("Dataset::ALL is exhaustive");
        &self.graphs[i]
    }
}

/// One worker lane's replay tally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneStats {
    /// Lane index (`0..jobs`).
    pub lane: usize,
    /// Batches the lane executed.
    pub batches: u64,
    /// Semantic graphs restructured and executed.
    pub graphs: u64,
    /// Requests completed (summed over executed batches).
    pub requests: u64,
    /// Wall-clock nanoseconds the lane spent between starting its plan
    /// and its last completion.
    pub busy_ns: u64,
}

/// What one replay run measured: wall-clock throughput plus the
/// deterministic completion evidence the property tests check.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Scenario the replayed log was recorded from.
    pub scenario: String,
    /// Seed of the recorded run.
    pub seed: u64,
    /// Worker-lane count the replay ran with.
    pub jobs: usize,
    /// End-to-end wall-clock nanoseconds (lane spawn to last join).
    pub wall_ns: u64,
    /// Per-lane tallies, indexed by lane.
    pub lanes: Vec<LaneStats>,
    /// Every completed request id, sorted ascending — compare with
    /// [`AssignmentLog::request_ids`] for conservation.
    pub completed_ids: Vec<u64>,
    /// Completed request ids per replica, in execution order — equal
    /// to the log's per-replica issue order when replay is correct.
    pub per_replica_ids: Vec<Vec<u64>>,
}

impl ReplayReport {
    /// Total semantic graphs executed across lanes.
    pub fn graphs(&self) -> u64 {
        self.lanes.iter().map(|l| l.graphs).sum()
    }

    /// Total batches executed across lanes.
    pub fn batches(&self) -> u64 {
        self.lanes.iter().map(|l| l.batches).sum()
    }

    /// Total requests completed across lanes.
    pub fn requests(&self) -> u64 {
        self.lanes.iter().map(|l| l.requests).sum()
    }

    /// End-to-end wall-clock seconds.
    pub fn wall_s(&self) -> f64 {
        (self.wall_ns as f64 / 1e9).max(f64::MIN_POSITIVE)
    }

    /// Sustained graphs per second over the whole replay.
    pub fn graphs_per_sec(&self) -> f64 {
        self.graphs() as f64 / self.wall_s()
    }

    /// Per-lane utilization: busy time over end-to-end wall time,
    /// indexed by lane. An idle lane (no assignments) reports 0.
    pub fn lane_utilization(&self) -> Vec<f64> {
        let wall = self.wall_ns.max(1) as f64;
        self.lanes
            .iter()
            .map(|l| (l.busy_ns as f64 / wall).min(1.0))
            .collect()
    }

    /// The replay's `host` record: the standard host metric keys
    /// (graphs, passes, wall_clock_s, graphs_per_sec, ns_per_graph —
    /// `passes` counts executed batches) plus replay-specific extras
    /// (`jobs`, `requests`, `util_mean`, `util_min`). Named
    /// `replay/{scenario}/jobs{N}`.
    pub fn host_record(&self) -> HostRecord {
        let graphs = self.graphs();
        let wall_s = self.wall_s();
        let util = self.lane_utilization();
        let active = self.lanes.iter().filter(|l| l.batches > 0).count().max(1);
        let util_mean = util.iter().sum::<f64>() / active as f64;
        let util_min = util
            .iter()
            .zip(&self.lanes)
            .filter(|(_, l)| l.batches > 0)
            .map(|(&u, _)| u)
            .fold(f64::INFINITY, f64::min);
        let value = |key: &str| -> f64 {
            match key {
                "graphs" => graphs as f64,
                "passes" => self.batches() as f64,
                "wall_clock_s" => wall_s,
                "graphs_per_sec" => self.graphs_per_sec(),
                "ns_per_graph" => {
                    if graphs == 0 {
                        0.0
                    } else {
                        self.wall_ns as f64 / graphs as f64
                    }
                }
                _ => unreachable!("unknown host metric key {key}"),
            }
        };
        let mut metrics: Vec<(String, f64)> = HOST_METRIC_KEYS
            .iter()
            .map(|&k| (k.to_string(), value(k)))
            .collect();
        metrics.push(("jobs".to_string(), self.jobs as f64));
        metrics.push(("requests".to_string(), self.requests() as f64));
        metrics.push(("util_mean".to_string(), util_mean));
        metrics.push((
            "util_min".to_string(),
            if util_min.is_finite() { util_min } else { 0.0 },
        ));
        HostRecord {
            name: format!("replay/{}/jobs{}", self.scenario, self.jobs),
            metrics,
        }
    }
}

/// One lane's per-batch work, shared between the threaded executor and
/// the zero-allocation harness (`tests/zero_alloc.rs` drives exactly
/// this function after warmup): for each semantic graph of the batch's
/// dataset, restructure into the workspace and execute the restructured
/// schedule through the pooled NA buffer. Returns the graph count.
///
/// This is the full decouple → recouple → schedule → NA-sim path for
/// every batch, including batches the simulator priced as
/// schedule-cache or feature-cache hits — replay does not model those
/// discounts (see the [module docs](self)).
///
/// At steady state — once the workspace has grown to the largest graph
/// and the pooled buffer has seen every fetch tag — this performs
/// **zero heap allocations**.
pub fn replay_batch(
    ws: &mut Workspace,
    restructurer: &Restructurer,
    na_sim: &NaBufferSim,
    datasets: &ReplayDatasets,
    assignment: &Assignment,
) -> usize {
    let graphs = datasets.graphs(assignment.cell.dataset);
    for (gi, g) in graphs.iter().enumerate() {
        restructurer.restructure_with(ws, g);
        na_sim.simulate_edges_with(&mut ws.buffer_scratch, g, &ws.edges, gi as u64);
    }
    graphs.len()
}

/// The NA-buffer model replay lanes execute against: the default
/// HiHGNN window and associativity (the same geometry
/// [`HiHgnnSim`](gdr_accel::hihgnn::HiHgnnSim) simulates with).
pub fn lane_na_sim() -> NaBufferSim {
    let cfg = HiHgnnConfig::default();
    NaBufferSim::new(cfg.na_window_features(), cfg.na_ways)
}

/// Replays an [`AssignmentLog`] on `jobs` real worker lanes and
/// measures sustained wall-clock throughput.
///
/// Replica → lane pinning is `replica % jobs`; each lane walks its
/// share of the log in assignment order. Which requests complete, on
/// which replica, in which order is identical for every `jobs` value —
/// only the wall-clock numbers (never gated) differ between machines.
///
/// # Errors
///
/// Returns [`GdrError::InvalidConfig`] when `jobs` is zero.
pub fn replay(
    log: &AssignmentLog,
    datasets: &ReplayDatasets,
    jobs: usize,
) -> GdrResult<ReplayReport> {
    if jobs == 0 {
        return Err(GdrError::invalid_config(
            "jobs",
            "replay needs at least one worker lane",
        ));
    }
    // Plan: per-lane assignment indices, preserving log order. Replica
    // pinning keeps every replica's batches on a single lane, so the
    // simulator's per-replica issue order survives by construction.
    let mut plans: Vec<Vec<usize>> = vec![Vec::new(); jobs];
    for (i, a) in log.assignments.iter().enumerate() {
        plans[a.replica % jobs].push(i);
    }

    let start = Instant::now();
    let lanes: Vec<LaneStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(lane, plan)| {
                scope.spawn(move || {
                    let mut ws = Workspace::new();
                    let restructurer = Restructurer::new();
                    let na_sim = lane_na_sim();
                    let mut stats = LaneStats {
                        lane,
                        batches: 0,
                        graphs: 0,
                        requests: 0,
                        busy_ns: 0,
                    };
                    let t0 = Instant::now();
                    for &idx in plan {
                        let a = &log.assignments[idx];
                        stats.graphs +=
                            replay_batch(&mut ws, &restructurer, &na_sim, datasets, a) as u64;
                        stats.batches += 1;
                        stats.requests += a.request_ids.len() as u64;
                    }
                    stats.busy_ns = t0.elapsed().as_nanos() as u64;
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay lane panicked"))
            .collect()
    });
    let wall_ns = start.elapsed().as_nanos() as u64;

    // Fold execution evidence: completed ids (sorted) and per-replica
    // completion order (walk each lane's plan in order — a lane that
    // returned executed its whole plan, in exactly that order).
    let replica_count = log.replica_count();
    let mut per_replica_ids: Vec<Vec<u64>> = vec![Vec::new(); replica_count];
    let mut completed_ids: Vec<u64> = Vec::with_capacity(log.total_requests());
    for plan in &plans {
        for &idx in plan {
            let a = &log.assignments[idx];
            per_replica_ids[a.replica].extend(a.request_ids.iter().copied());
            completed_ids.extend(a.request_ids.iter().copied());
        }
    }
    completed_ids.sort_unstable();

    Ok(ReplayReport {
        scenario: log.scenario.clone(),
        seed: log.seed,
        jobs,
        wall_ns,
        lanes,
        completed_ids,
        per_replica_ids,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::BatchPolicy;
    use crate::scheduler::SchedPolicy;
    use crate::suite::{ScenarioSpec, ServeHarness};
    use crate::workload::ArrivalProcess;

    fn tiny_log() -> AssignmentLog {
        let cfg = ExperimentConfig {
            seed: 11,
            scale: 0.04,
        };
        let harness = ServeHarness::new(&cfg, &["HiHGNN+GDR"]).unwrap();
        let spec = ScenarioSpec::new(
            "replay-unit",
            ArrivalProcess::Poisson { rate_rps: 50_000.0 },
            24,
            BatchPolicy::SizeCapped { cap: 4 },
            SchedPolicy::LeastLoaded,
            vec!["HiHGNN+GDR".into(), "HiHGNN+GDR".into()],
        );
        let (record, log) = harness.run_replayable(&spec, 7).unwrap();
        // Tracing never perturbs the run.
        assert_eq!(record, harness.run(&spec, 7).unwrap());
        assert!(!log.assignments.is_empty());
        log
    }

    #[test]
    fn replay_conserves_requests_and_replica_order() {
        let log = tiny_log();
        let datasets = ReplayDatasets::build(&log.config);
        let expected_ids = log.request_ids();
        let mut expected_order: Vec<Vec<u64>> = vec![Vec::new(); log.replica_count()];
        for a in &log.assignments {
            expected_order[a.replica].extend(a.request_ids.iter().copied());
        }
        let expected_graphs: u64 = log
            .assignments
            .iter()
            .map(|a| datasets.graphs(a.cell.dataset).len() as u64)
            .sum();
        for jobs in [1, 2, 3] {
            let report = replay(&log, &datasets, jobs).unwrap();
            assert_eq!(report.completed_ids, expected_ids, "jobs={jobs}");
            assert_eq!(report.per_replica_ids, expected_order, "jobs={jobs}");
            assert_eq!(report.batches(), log.assignments.len() as u64);
            // Every batch replays its whole dataset, cache hits included.
            assert_eq!(report.graphs(), expected_graphs, "jobs={jobs}");
            assert!(report.graphs_per_sec() > 0.0);
        }
    }

    #[test]
    fn replay_host_record_uses_standard_keys() {
        let log = tiny_log();
        let datasets = ReplayDatasets::build(&log.config);
        let report = replay(&log, &datasets, 2).unwrap();
        let rec = report.host_record();
        assert_eq!(rec.name, "replay/replay-unit/jobs2");
        for &key in HOST_METRIC_KEYS {
            assert!(rec.metric(key).is_some(), "missing {key}");
        }
        assert_eq!(rec.metric("jobs"), Some(2.0));
        assert!(rec.metric("graphs_per_sec").unwrap() > 0.0);
        assert!(rec.metric("util_mean").unwrap() > 0.0);
    }

    #[test]
    fn zero_jobs_is_rejected() {
        let log = AssignmentLog {
            scenario: "x".into(),
            seed: 0,
            config: ExperimentConfig {
                seed: 0,
                scale: 0.02,
            },
            assignments: Vec::new(),
        };
        let datasets = ReplayDatasets::build(&log.config);
        assert!(replay(&log, &datasets, 0).is_err());
    }
}

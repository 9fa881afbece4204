//! The serving harness and the canonical scenario suite.
//!
//! [`ServeHarness`] measures a platform pool once ([`CostModel`]) and
//! then runs any number of [`ScenarioSpec`]s against it, producing
//! `gdr-bench/v1` serve records. [`default_suite`] is the committed,
//! CI-gated set: it contrasts batching policies under identical
//! high-rate traffic (the size-capped vs immediate throughput headline),
//! stresses tails with bursty arrivals, exercises dataset-affine
//! scheduling over a heterogeneous replica pool, contrasts warm-cache
//! partial-replica sharding against blind cold routing, drives the
//! queue-driven autoscaler through a burst, pits the **SLO-driven
//! controller** against a static max-size pool on the same burst (the
//! meet-the-SLO-at-lower-`replica_seconds` headline), and serves
//! through faults — the availability headline pair (a primary crash
//! with the replicated control plane failing over vs. the same crash
//! dropping the dead replica's work), a deadline-gated straggler, and
//! in-transit loss.

use gdr_hetgraph::{GdrError, GdrResult};
use gdr_system::grid::{platform_refs, select_platforms, ExperimentConfig};
use gdr_system::report::{BreakdownRecord, ServeScenarioRecord};
use gdr_system::trace_export::ChromeTrace;

use crate::batcher::{BatchPolicy, Batcher};
use crate::cost::CostModel;
use crate::fault::{CrashWindow, FaultSpec, Slowdown};
use crate::metrics::{aggregate_breakdowns, request_breakdowns, scenario_record, RequestBreakdown};
use crate::replay::AssignmentLog;
use crate::scheduler::{AutoscaleSpec, PoolConfig, SchedPolicy, SimResult, Simulator, SloSpec};
use crate::trace::{chrome_trace, RecordingSink, TraceEvent, TraceSink};
use crate::workload::{ArrivalProcess, Traffic};

/// The shared `arrival/batch/scheduler` scenario-label prefix — the
/// one formatting rule behind the canonical suite labels, the
/// `gdr-bench serve` default scenario name, and the first three
/// segments of every sweep label, so the three can never drift apart.
pub fn scenario_label(arrival: &str, batch: &str, sched: &str) -> String {
    format!("{arrival}/{batch}/{sched}")
}

/// One serving scenario: traffic shape, batching, scheduling, the
/// replica pool (platform names; repeat a name for several replicas of
/// the same backend), and the pool shaping — dataset sharding, the
/// per-replica feature cache, and autoscaling.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Stable scenario label (the regression gate matches on it).
    pub name: String,
    /// Arrival process.
    pub process: ArrivalProcess,
    /// Total requests to generate.
    pub requests: usize,
    /// Batching policy.
    pub batch: BatchPolicy,
    /// Dispatch policy.
    pub sched: SchedPolicy,
    /// Replica pool as platform names ([`gdr_system::grid::select_platforms`]
    /// names).
    pub pool: Vec<String>,
    /// Dataset shards per replica (`0` or `1` = full replicas).
    pub shards: usize,
    /// Per-replica feature-cache capacity, bytes (`0` = disabled).
    pub cache_bytes: u64,
    /// Queue-driven autoscaling (`None` = fixed pool).
    pub autoscale: Option<AutoscaleSpec>,
    /// Latency SLO (`None` = no target). With `autoscale` set, the
    /// predictive SLO controller supersedes the queue thresholds; on a
    /// fixed pool it just measures `slo_violation_rate`.
    pub slo: Option<SloSpec>,
    /// Deterministic fault plan (empty = fault-free).
    pub faults: FaultSpec,
    /// Whether the replicated control plane orders dispatches and fails
    /// over on a primary crash ([`crate::control`]).
    pub control: bool,
}

impl ScenarioSpec {
    /// A classic fixed-pool scenario: full replicas, no feature cache,
    /// no autoscaling. Use struct update syntax to shape the pool:
    /// `ScenarioSpec { shards: 3, ..ScenarioSpec::new(...) }`.
    pub fn new(
        name: impl Into<String>,
        process: ArrivalProcess,
        requests: usize,
        batch: BatchPolicy,
        sched: SchedPolicy,
        pool: Vec<String>,
    ) -> Self {
        Self {
            name: name.into(),
            process,
            requests,
            batch,
            sched,
            pool,
            shards: 0,
            cache_bytes: 0,
            autoscale: None,
            slo: None,
            faults: FaultSpec::default(),
            control: false,
        }
    }

    /// The pool shaping of this scenario as the simulator consumes it.
    pub fn pool_config(&self) -> PoolConfig {
        PoolConfig {
            shards: self.shards,
            cache_bytes: self.cache_bytes,
            autoscale: self.autoscale,
            slo: self.slo,
        }
    }
}

/// A measured platform pool ready to serve scenarios.
///
/// # Examples
///
/// ```
/// use gdr_serve::suite::{ServeHarness, ScenarioSpec};
/// use gdr_serve::workload::ArrivalProcess;
/// use gdr_serve::batcher::BatchPolicy;
/// use gdr_serve::scheduler::SchedPolicy;
/// use gdr_system::grid::ExperimentConfig;
///
/// let cfg = ExperimentConfig { seed: 7, scale: 0.04 };
/// let harness = ServeHarness::new(&cfg, &["HiHGNN"]).unwrap();
/// let record = harness
///     .run(
///         &ScenarioSpec::new(
///             "demo",
///             ArrivalProcess::Poisson { rate_rps: 5_000.0 },
///             64,
///             BatchPolicy::SizeCapped { cap: 4 },
///             SchedPolicy::RoundRobin,
///             vec!["HiHGNN".into(), "HiHGNN".into()],
///         ),
///         7,
///     )
///     .unwrap();
/// assert_eq!(record.aggregate().unwrap().metric("completed"), Some(64.0));
/// ```
#[derive(Debug, Clone)]
pub struct ServeHarness {
    cfg: ExperimentConfig,
    cost: CostModel,
}

impl ServeHarness {
    /// Builds the harness: constructs the named platforms and measures
    /// their service costs at `cfg` (the expensive, one-off step —
    /// scenarios then run in microseconds of wall time). Repeated names
    /// are measured once, in first-occurrence order, so a scenario pool
    /// can be passed as is.
    ///
    /// # Errors
    ///
    /// Returns [`GdrError::InvalidConfig`] for unknown platform names.
    pub fn new(cfg: &ExperimentConfig, platform_names: &[&str]) -> GdrResult<Self> {
        let mut unique: Vec<&str> = Vec::new();
        for &n in platform_names {
            if !unique.contains(&n) {
                unique.push(n);
            }
        }
        let platforms = select_platforms(&unique)?;
        let cost = CostModel::measure(&platform_refs(&platforms), cfg)?;
        Ok(Self { cfg: *cfg, cost })
    }

    /// The grid configuration the costs were measured at.
    pub fn config(&self) -> &ExperimentConfig {
        &self.cfg
    }

    /// The measured cost table.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Runs one scenario with the given request-stream seed.
    ///
    /// # Errors
    ///
    /// Returns [`GdrError::InvalidConfig`] when the spec's pool names a
    /// platform the harness did not measure, the pool is empty, the
    /// autoscale spec is inconsistent (`max_replicas` below the pool
    /// size, or `down_depth >= up_depth`), the SLO is inconsistent (a
    /// zero target, or headroom outside `(0, 1]`), or the fault plan is
    /// inconsistent with the slot count ([`FaultSpec::validate`]).
    pub fn run(&self, spec: &ScenarioSpec, seed: u64) -> GdrResult<ServeScenarioRecord> {
        Ok(self.simulate(spec, seed, None)?.0)
    }

    /// [`ServeHarness::run`] traced, plus the [`AssignmentLog`] the
    /// real-threads replay executor ([`mod@crate::replay`]) consumes,
    /// folded from the trace by [`AssignmentLog::from_events`]. Tracing
    /// never perturbs the simulation, so the returned record is
    /// byte-identical to [`run`]'s for the same `(spec, seed)`.
    ///
    /// # Errors
    ///
    /// Exactly [`ServeHarness::run`]'s errors.
    ///
    /// [`run`]: ServeHarness::run
    pub fn run_replayable(
        &self,
        spec: &ScenarioSpec,
        seed: u64,
    ) -> GdrResult<(ServeScenarioRecord, AssignmentLog)> {
        let mut sink = RecordingSink::default();
        let (record, _) = self.simulate(spec, seed, Some(&mut sink))?;
        let log = AssignmentLog::from_events(&spec.name, seed, self.cfg, &sink.events);
        Ok((record, log))
    }

    /// [`ServeHarness::run`] with a [`RecordingSink`] attached: one
    /// simulation, four views of it. Tracing never perturbs the run, so
    /// [`TracedRun::record`] is byte-identical to what [`run`] returns
    /// for the same `(spec, seed)`.
    ///
    /// # Errors
    ///
    /// Exactly [`ServeHarness::run`]'s errors.
    ///
    /// [`run`]: ServeHarness::run
    pub fn run_traced(&self, spec: &ScenarioSpec, seed: u64) -> GdrResult<TracedRun> {
        let mut sink = RecordingSink::default();
        let (record, result) = self.simulate(spec, seed, Some(&mut sink))?;
        let requests = request_breakdowns(&result, &sink.events);
        let breakdown = aggregate_breakdowns(&spec.name, seed, &requests);
        let chrome = chrome_trace(
            &spec.name,
            &sink.events,
            &result.replica_platforms,
            self.cost.platforms(),
        );
        Ok(TracedRun {
            record,
            breakdown,
            requests,
            events: sink.events,
            chrome,
        })
    }

    /// The one simulation path behind [`run`](Self::run),
    /// [`run_replayable`](Self::run_replayable) and
    /// [`run_traced`](Self::run_traced): validates `spec`, simulates the
    /// request stream `seed` with `sink` attached (if any), and returns
    /// the serve record with the raw result it was built from.
    fn simulate(
        &self,
        spec: &ScenarioSpec,
        seed: u64,
        sink: Option<&mut dyn TraceSink>,
    ) -> GdrResult<(ServeScenarioRecord, SimResult)> {
        let replicas = self.validate(spec)?;
        let traffic = Traffic {
            process: spec.process,
            requests: spec.requests,
            seed,
        };
        let pool = spec.pool_config();
        let sim = Simulator::with_faults(
            &self.cost,
            spec.sched,
            &replicas,
            &pool,
            &spec.faults,
            spec.control,
            seed,
        );
        let sim = match sink {
            Some(sink) => sim.with_trace(sink),
            None => sim,
        };
        let result = sim.run(traffic.stream(), Batcher::new(spec.batch));
        let record = scenario_record(
            &spec.name,
            &traffic,
            spec.batch,
            spec.sched,
            &pool,
            &spec.faults,
            spec.control,
            &result,
            self.cost.platforms(),
        );
        Ok((record, result))
    }

    /// The simulation path's validation: checks the spec against
    /// the harness and resolves the pool to cost-model platform
    /// indices.
    fn validate(&self, spec: &ScenarioSpec) -> GdrResult<Vec<usize>> {
        if spec.pool.is_empty() {
            return Err(GdrError::invalid_config(
                "pool",
                "a scenario needs at least one replica",
            ));
        }
        let slots = spec
            .autoscale
            .map_or(spec.pool.len(), |a| a.max_replicas.max(spec.pool.len()));
        if let Err(msg) = spec.faults.validate(slots) {
            return Err(GdrError::invalid_config("faults", msg));
        }
        if let Some(a) = &spec.autoscale {
            if a.max_replicas < spec.pool.len() {
                return Err(GdrError::invalid_config(
                    "autoscale",
                    format!(
                        "max_replicas {} below the pool size {}",
                        a.max_replicas,
                        spec.pool.len()
                    ),
                ));
            }
            if a.down_depth >= a.up_depth {
                return Err(GdrError::invalid_config(
                    "autoscale",
                    format!(
                        "down_depth {} must be below up_depth {}",
                        a.down_depth, a.up_depth
                    ),
                ));
            }
        }
        if let Some(slo) = &spec.slo {
            if slo.p99_target_ns == 0 {
                return Err(GdrError::invalid_config(
                    "slo",
                    "p99 target must be positive",
                ));
            }
            if !(slo.headroom > 0.0 && slo.headroom <= 1.0) {
                return Err(GdrError::invalid_config(
                    "slo",
                    format!("headroom {} must be in (0, 1]", slo.headroom),
                ));
            }
        }
        spec.pool
            .iter()
            .map(|name| {
                self.cost.platform_index(name).ok_or_else(|| {
                    GdrError::invalid_config(
                        "pool",
                        format!(
                            "platform {name:?} not measured by this harness (have: {})",
                            self.cost.platforms().join(", ")
                        ),
                    )
                })
            })
            .collect()
    }
}

/// Everything one traced scenario run produces: the ordinary scenario
/// record, the latency-attribution breakdown, the raw lifecycle event
/// log (virtual-ns order), and the Perfetto-loadable export. All four
/// are views of the *same* simulation — the run is not repeated.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedRun {
    /// The `serve` record, byte-identical to an untraced run's.
    pub record: ServeScenarioRecord,
    /// The scenario's `breakdown` record.
    pub breakdown: BreakdownRecord,
    /// Per-completed-request stage attribution, in completion order.
    /// Each entry's components sum to its end-to-end latency exactly.
    pub requests: Vec<RequestBreakdown>,
    /// Every lifecycle event the simulator emitted, in virtual-time
    /// order.
    pub events: Vec<TraceEvent>,
    /// The Chrome-trace-event export (write
    /// `chrome.to_json().to_pretty()` to a file and load it at
    /// <https://ui.perfetto.dev>).
    pub chrome: ChromeTrace,
}

/// Offered load of the high-rate scenarios **at test scale**, requests
/// per second. Chosen above the immediate-mode (one execution per
/// request) capacity of the two-replica HiHGNN+GDR pool but well inside
/// its size-capped capacity, so the suite demonstrates the batching
/// headline. [`default_specs`] rescales it (and the time constants)
/// with the dataset scale, since service times grow with the datasets.
pub const HIGH_RATE_RPS: f64 = 1_200_000.0;

/// Requests per canonical scenario: enough for stable p99 estimates,
/// small enough that the whole suite simulates in milliseconds.
pub const SUITE_REQUESTS: usize = 384;

/// Bursty on/off cycle length at test scale, ns — shared by the
/// canonical suite and the `gdr-bench serve --burst-period` default.
pub const BASE_BURST_PERIOD_NS: f64 = 100_000.0;

/// Closed-loop think time at test scale, ns — shared by the canonical
/// suite and the `gdr-bench serve --think` default.
pub const BASE_THINK_NS: f64 = 100_000.0;

/// Deadline-policy formation bound at test scale, ns — shared by the
/// canonical suite and the `gdr-bench serve --batch-timeout` default.
pub const BASE_DEADLINE_TIMEOUT_NS: f64 = 20_000.0;

/// Per-replica feature-cache capacity of the canonical sharded
/// scenarios **at test scale**, bytes: large enough for one dataset
/// shard (three cells of one dataset), too small for the whole grid —
/// the regime where shard-affinity keeps the cache warm and blind
/// routing thrashes it. Rescaled with the dataset scale by
/// [`scaled_bytes`], since feature footprints grow with the datasets.
pub const BASE_CACHE_BYTES: f64 = 64.0 * 1024.0 * 1024.0;

/// Crash time of the canonical fault scenarios **at test scale**, ns:
/// about a quarter into the high-rate arrival window, so the primary
/// dies holding queued work and most of the stream is served through
/// the failover. Rescaled with [`scaled_ns`].
pub const BASE_CRASH_AT_NS: f64 = 80_000.0;

/// Availability deadline of the canonical straggler scenario **at test
/// scale**, ns: above the healthy pool's median latency, below a 4×
/// straggler's tail — late completions are exactly what the deadline is
/// meant to surface. Rescaled with [`scaled_ns`].
pub const BASE_FAULT_DEADLINE_NS: f64 = 60_000.0;

/// p99 latency target of the canonical SLO scenarios **at test scale**,
/// ns: loose enough that a static max-size pool meets it comfortably,
/// tight enough that a single replica cannot ride out the bursts — the
/// regime where the SLO controller must scale up through each burst yet
/// can drain back between them, meeting the same target as the static
/// pool at materially lower `replica_seconds`. Rescaled with
/// [`scaled_ns`].
pub const BASE_SLO_TARGET_NS: f64 = 100_000.0;

/// Rescales a test-scale offered load to `cfg`'s dataset scale: service
/// times grow roughly linearly with the datasets, so rates shrink by
/// the same factor. The single rescaling rule for suite and CLI.
pub fn scaled_rate(cfg: &ExperimentConfig, base_rps: f64) -> f64 {
    base_rps * ExperimentConfig::test_scale().scale / cfg.scale
}

/// Rescales a test-scale time constant to `cfg`'s dataset scale, in
/// whole ns (at least 1). The counterpart of [`scaled_rate`].
pub fn scaled_ns(cfg: &ExperimentConfig, base_ns: f64) -> u64 {
    (base_ns * cfg.scale / ExperimentConfig::test_scale().scale)
        .round()
        .max(1.0) as u64
}

/// Rescales a test-scale byte budget to `cfg`'s dataset scale, in whole
/// bytes (at least 1): dataset feature footprints grow roughly linearly
/// with the scale, so cache capacities must too.
pub fn scaled_bytes(cfg: &ExperimentConfig, base_bytes: f64) -> u64 {
    (base_bytes * cfg.scale / ExperimentConfig::test_scale().scale)
        .round()
        .max(1.0) as u64
}

/// The committed scenario suite (see module docs). Labels are stable —
/// the CI gate matches on them. Rates and time constants are expressed
/// at [`ExperimentConfig::test_scale`] and rescaled via [`scaled_rate`]
/// / [`scaled_ns`] so every scenario stays in its intended load regime
/// at any dataset scale.
pub fn default_specs(cfg: &ExperimentConfig) -> Vec<ScenarioSpec> {
    let rate = |r: f64| scaled_rate(cfg, r);
    let ns = |t: f64| scaled_ns(cfg, t);

    let gdr = "HiHGNN+GDR".to_string();
    let pool2 = vec![gdr.clone(), gdr.clone()];
    let pool3 = vec![gdr.clone(), gdr.clone(), gdr.clone()];
    vec![
        ScenarioSpec::new(
            "poisson-hi/immediate/round-robin",
            ArrivalProcess::Poisson {
                rate_rps: rate(HIGH_RATE_RPS),
            },
            SUITE_REQUESTS,
            BatchPolicy::Immediate,
            SchedPolicy::RoundRobin,
            pool2.clone(),
        ),
        ScenarioSpec::new(
            "poisson-hi/size-capped/round-robin",
            ArrivalProcess::Poisson {
                rate_rps: rate(HIGH_RATE_RPS),
            },
            SUITE_REQUESTS,
            BatchPolicy::SizeCapped { cap: 8 },
            SchedPolicy::RoundRobin,
            pool2.clone(),
        ),
        ScenarioSpec::new(
            "poisson-hi/deadline/least-loaded",
            ArrivalProcess::Poisson {
                rate_rps: rate(HIGH_RATE_RPS),
            },
            SUITE_REQUESTS,
            BatchPolicy::Deadline {
                cap: 8,
                timeout_ns: ns(BASE_DEADLINE_TIMEOUT_NS),
            },
            SchedPolicy::LeastLoaded,
            pool2.clone(),
        ),
        ScenarioSpec::new(
            "bursty/size-capped/least-loaded",
            ArrivalProcess::Bursty {
                rate_rps: rate(HIGH_RATE_RPS / 2.0),
                period_ns: ns(BASE_BURST_PERIOD_NS),
                duty: 0.25,
            },
            SUITE_REQUESTS,
            BatchPolicy::SizeCapped { cap: 8 },
            SchedPolicy::LeastLoaded,
            pool2,
        ),
        ScenarioSpec::new(
            "closed-loop/size-capped/shard-affinity",
            ArrivalProcess::ClosedLoop {
                clients: 16,
                think_ns: ns(BASE_THINK_NS),
            },
            SUITE_REQUESTS,
            BatchPolicy::SizeCapped { cap: 4 },
            SchedPolicy::ShardAffinity,
            vec![gdr.clone(), gdr.clone(), "HiHGNN".into()],
        ),
        // The sharding headline pair: identical traffic over identical
        // partial replicas (each holds one dataset shard). Warm-cache
        // shard-affinity routes every batch to its holder and reuses the
        // cached features; blind round-robin cold-binds ~2/3 of its
        // batches and re-streams the working set each time.
        ScenarioSpec {
            shards: 3,
            cache_bytes: scaled_bytes(cfg, BASE_CACHE_BYTES),
            ..ScenarioSpec::new(
                "sharded/warm-cache/shard-affinity-partial",
                ArrivalProcess::Poisson {
                    rate_rps: rate(HIGH_RATE_RPS),
                },
                SUITE_REQUESTS,
                BatchPolicy::SizeCapped { cap: 8 },
                SchedPolicy::ShardAffinityPartial,
                pool3.clone(),
            )
        },
        ScenarioSpec {
            shards: 3,
            ..ScenarioSpec::new(
                "sharded/cold/round-robin",
                ArrivalProcess::Poisson {
                    rate_rps: rate(HIGH_RATE_RPS),
                },
                SUITE_REQUESTS,
                BatchPolicy::SizeCapped { cap: 8 },
                SchedPolicy::RoundRobin,
                pool3.clone(),
            )
        },
        // Queue-driven autoscaling through a burst: one warm replica
        // carries the base load; each burst backs the queue up past the
        // threshold, adding replicas (cold-started at a full session
        // bind) that drain away in the off part of the cycle.
        ScenarioSpec {
            cache_bytes: scaled_bytes(cfg, BASE_CACHE_BYTES),
            autoscale: Some(AutoscaleSpec {
                max_replicas: 4,
                up_depth: 32,
                down_depth: 4,
            }),
            ..ScenarioSpec::new(
                "autoscale/bursty/least-loaded",
                ArrivalProcess::Bursty {
                    rate_rps: rate(HIGH_RATE_RPS / 2.0),
                    period_ns: ns(BASE_BURST_PERIOD_NS * 10.0),
                    duty: 0.25,
                },
                SUITE_REQUESTS,
                BatchPolicy::SizeCapped { cap: 8 },
                SchedPolicy::LeastLoaded,
                vec![gdr.clone()],
            )
        },
        // The SLO headline pair: identical bursty traffic against the
        // same p99 target. The SLO-controlled pool starts at one warm
        // replica and scales on predicted p99, paying replica-seconds
        // only while the bursts demand them; the static pool pins the
        // controller's max size for the whole run. Both meet the
        // target; the controller does it materially cheaper.
        ScenarioSpec {
            cache_bytes: scaled_bytes(cfg, BASE_CACHE_BYTES),
            autoscale: Some(AutoscaleSpec {
                max_replicas: 4,
                up_depth: 32,
                down_depth: 4,
            }),
            slo: Some(SloSpec {
                p99_target_ns: ns(BASE_SLO_TARGET_NS),
                headroom: 0.8,
            }),
            ..ScenarioSpec::new(
                "slo/bursty/least-loaded",
                ArrivalProcess::Bursty {
                    rate_rps: rate(HIGH_RATE_RPS / 2.0),
                    period_ns: ns(BASE_BURST_PERIOD_NS * 10.0),
                    duty: 0.25,
                },
                SUITE_REQUESTS,
                BatchPolicy::SizeCapped { cap: 8 },
                SchedPolicy::LeastLoaded,
                vec![gdr.clone()],
            )
        },
        ScenarioSpec {
            cache_bytes: scaled_bytes(cfg, BASE_CACHE_BYTES),
            slo: Some(SloSpec {
                p99_target_ns: ns(BASE_SLO_TARGET_NS),
                headroom: 0.8,
            }),
            ..ScenarioSpec::new(
                "slo/static-max/least-loaded",
                ArrivalProcess::Bursty {
                    rate_rps: rate(HIGH_RATE_RPS / 2.0),
                    period_ns: ns(BASE_BURST_PERIOD_NS * 10.0),
                    duty: 0.25,
                },
                SUITE_REQUESTS,
                BatchPolicy::SizeCapped { cap: 8 },
                SchedPolicy::LeastLoaded,
                vec![gdr.clone(), gdr.clone(), gdr.clone(), gdr.clone()],
            )
        },
        // The availability headline pair: identical traffic, pool, and
        // primary crash — with the replicated control plane the dead
        // primary's batches migrate to the survivors (availability stays
        // 1.0 at the cost of failover time); without it they die with
        // the replica and availability measurably degrades.
        ScenarioSpec {
            faults: FaultSpec {
                crashes: vec![CrashWindow {
                    replica: 0,
                    crash_at_ns: ns(BASE_CRASH_AT_NS),
                    recover_after_ns: 0,
                }],
                ..FaultSpec::default()
            },
            control: true,
            ..ScenarioSpec::new(
                "crash/failover/least-loaded",
                ArrivalProcess::Poisson {
                    rate_rps: rate(HIGH_RATE_RPS),
                },
                SUITE_REQUESTS,
                BatchPolicy::SizeCapped { cap: 8 },
                SchedPolicy::LeastLoaded,
                pool3.clone(),
            )
        },
        ScenarioSpec {
            faults: FaultSpec {
                crashes: vec![CrashWindow {
                    replica: 0,
                    crash_at_ns: ns(BASE_CRASH_AT_NS),
                    recover_after_ns: 0,
                }],
                ..FaultSpec::default()
            },
            ..ScenarioSpec::new(
                "crash/no-control/least-loaded",
                ArrivalProcess::Poisson {
                    rate_rps: rate(HIGH_RATE_RPS),
                },
                SUITE_REQUESTS,
                BatchPolicy::SizeCapped { cap: 8 },
                SchedPolicy::LeastLoaded,
                pool3.clone(),
            )
        },
        // A deadline-gated straggler: one replica serves 4× slower, so
        // its completions blow the availability deadline while the
        // healthy replicas' do not — degradation without a single drop.
        ScenarioSpec {
            faults: FaultSpec {
                slowdowns: vec![Slowdown {
                    replica: 1,
                    factor: 4.0,
                }],
                deadline_ns: ns(BASE_FAULT_DEADLINE_NS),
                ..FaultSpec::default()
            },
            ..ScenarioSpec::new(
                "straggler/deadline/least-loaded",
                ArrivalProcess::Poisson {
                    rate_rps: rate(HIGH_RATE_RPS),
                },
                SUITE_REQUESTS,
                BatchPolicy::SizeCapped { cap: 8 },
                SchedPolicy::LeastLoaded,
                pool3,
            )
        },
        // In-transit loss: batches vanish with seeded probability; the
        // closed-loop-free stream simply loses them, so availability
        // settles near 1 − drop_prob.
        ScenarioSpec {
            faults: FaultSpec {
                drop_prob: 0.05,
                ..FaultSpec::default()
            },
            ..ScenarioSpec::new(
                "lossy/drop/least-loaded",
                ArrivalProcess::Poisson {
                    rate_rps: rate(HIGH_RATE_RPS),
                },
                SUITE_REQUESTS,
                BatchPolicy::SizeCapped { cap: 8 },
                SchedPolicy::LeastLoaded,
                vec![gdr.clone(), gdr],
            )
        },
    ]
}

/// Runs [`default_specs`] at `cfg` (request streams seeded from
/// `cfg.seed`) and returns the records in suite order — what `gdr-bench`
/// embeds into grid reports and the committed baseline.
///
/// # Errors
///
/// Propagates harness construction errors; the canonical specs
/// themselves cannot fail on a measured harness.
pub fn default_suite(cfg: &ExperimentConfig) -> GdrResult<Vec<ServeScenarioRecord>> {
    let harness = suite_harness(cfg)?;
    default_specs(cfg)
        .iter()
        .map(|s| harness.run(s, cfg.seed))
        .collect()
}

/// [`default_suite`] traced: runs the same committed scenarios with a
/// sink attached and returns, alongside the (byte-identical) serve
/// records, one `breakdown` record per scenario. This is what
/// `gdr-bench serve --suite` embeds so every gated scenario ships its
/// latency attribution.
///
/// # Errors
///
/// Exactly [`default_suite`]'s errors.
pub fn default_suite_with_breakdown(
    cfg: &ExperimentConfig,
) -> GdrResult<(Vec<ServeScenarioRecord>, Vec<BreakdownRecord>)> {
    let harness = suite_harness(cfg)?;
    let mut records = Vec::new();
    let mut breakdowns = Vec::new();
    for spec in default_specs(cfg) {
        let traced = harness.run_traced(&spec, cfg.seed)?;
        records.push(traced.record);
        breakdowns.push(traced.breakdown);
    }
    Ok((records, breakdowns))
}

/// One harness measuring every platform the canonical suite pools.
fn suite_harness(cfg: &ExperimentConfig) -> GdrResult<ServeHarness> {
    let specs = default_specs(cfg);
    let names: Vec<&str> = specs
        .iter()
        .flat_map(|spec| spec.pool.iter().map(String::as_str))
        .collect();
    ServeHarness::new(cfg, &names)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig {
            seed: 11,
            scale: 0.04,
        }
    }

    #[test]
    fn harness_rejects_unknown_pool_entries() {
        assert!(ServeHarness::new(&tiny_cfg(), &["V100"]).is_err());
        let harness = ServeHarness::new(&tiny_cfg(), &["HiHGNN"]).unwrap();
        let mut spec = default_specs(&tiny_cfg()).remove(0);
        spec.pool = vec!["T4".into()];
        let err = harness.run(&spec, 1).unwrap_err();
        assert!(err.to_string().contains("T4"));
        spec.pool.clear();
        assert!(harness.run(&spec, 1).is_err(), "empty pool is rejected");
    }

    #[test]
    fn harness_rejects_inconsistent_autoscale_specs() {
        let harness = ServeHarness::new(&tiny_cfg(), &["HiHGNN"]).unwrap();
        let base = ScenarioSpec::new(
            "bad-autoscale",
            ArrivalProcess::Poisson { rate_rps: 1000.0 },
            16,
            BatchPolicy::Immediate,
            SchedPolicy::LeastLoaded,
            vec!["HiHGNN".into(), "HiHGNN".into()],
        );
        let too_small = ScenarioSpec {
            autoscale: Some(AutoscaleSpec {
                max_replicas: 1,
                up_depth: 8,
                down_depth: 1,
            }),
            ..base.clone()
        };
        let err = harness.run(&too_small, 1).unwrap_err();
        assert!(err.to_string().contains("below the pool size"));
        let inverted = ScenarioSpec {
            autoscale: Some(AutoscaleSpec {
                max_replicas: 4,
                up_depth: 8,
                down_depth: 8,
            }),
            ..base.clone()
        };
        let err = harness.run(&inverted, 1).unwrap_err();
        assert!(err.to_string().contains("below up_depth"));
        let zero_target = ScenarioSpec {
            slo: Some(SloSpec {
                p99_target_ns: 0,
                headroom: 0.8,
            }),
            ..base.clone()
        };
        let err = harness.run(&zero_target, 1).unwrap_err();
        assert!(err.to_string().contains("p99 target must be positive"));
        let bad_headroom = ScenarioSpec {
            slo: Some(SloSpec {
                p99_target_ns: 1_000_000,
                headroom: 1.5,
            }),
            ..base
        };
        let err = harness.run(&bad_headroom, 1).unwrap_err();
        assert!(err.to_string().contains("must be in (0, 1]"));
    }

    #[test]
    fn suite_labels_are_unique_and_stable() {
        let specs = default_specs(&tiny_cfg());
        assert_eq!(specs.len(), 14);
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "scenario labels must be unique");
        assert!(
            specs.iter().any(|s| s.pool.iter().any(|p| p == "HiHGNN")
                && s.pool.iter().any(|p| p == "HiHGNN+GDR")),
            "the suite exercises a heterogeneous pool"
        );
        // the sharding headline pair runs identical traffic and pools,
        // differing only in routing and cache
        let warm = specs
            .iter()
            .find(|s| s.name == "sharded/warm-cache/shard-affinity-partial")
            .expect("warm sharded scenario");
        let cold = specs
            .iter()
            .find(|s| s.name == "sharded/cold/round-robin")
            .expect("cold sharded scenario");
        assert_eq!(warm.process, cold.process);
        assert_eq!(warm.pool, cold.pool);
        assert_eq!(warm.batch, cold.batch);
        assert_eq!((warm.shards, cold.shards), (3, 3));
        assert!(warm.cache_bytes > 0 && cold.cache_bytes == 0);
        assert_eq!(warm.sched, SchedPolicy::ShardAffinityPartial);
        // …and the autoscaled scenario can actually scale
        let auto = specs
            .iter()
            .find(|s| s.name == "autoscale/bursty/least-loaded")
            .expect("autoscale scenario");
        let spec = auto.autoscale.expect("autoscaler on");
        assert!(spec.max_replicas > auto.pool.len());
        assert!(spec.down_depth < spec.up_depth);
        // the SLO headline pair shares traffic and target; the static
        // twin pins the controller's max size for the whole run
        let slo = specs
            .iter()
            .find(|s| s.name == "slo/bursty/least-loaded")
            .expect("slo scenario");
        let static_max = specs
            .iter()
            .find(|s| s.name == "slo/static-max/least-loaded")
            .expect("static-max scenario");
        assert_eq!(slo.process, static_max.process);
        assert_eq!(slo.batch, static_max.batch);
        assert_eq!(slo.slo, static_max.slo);
        assert!(slo.slo.is_some());
        let cap = slo.autoscale.expect("slo scenario autoscales");
        assert_eq!(static_max.pool.len(), cap.max_replicas);
        assert!(static_max.autoscale.is_none());
        // the availability headline pair differs only in the control
        // plane — same traffic, pool, batching, and crash schedule
        let failover = specs
            .iter()
            .find(|s| s.name == "crash/failover/least-loaded")
            .expect("failover scenario");
        let no_control = specs
            .iter()
            .find(|s| s.name == "crash/no-control/least-loaded")
            .expect("no-control scenario");
        assert_eq!(failover.process, no_control.process);
        assert_eq!(failover.pool, no_control.pool);
        assert_eq!(failover.batch, no_control.batch);
        assert_eq!(failover.faults, no_control.faults);
        assert!(failover.control && !no_control.control);
        assert_eq!(failover.faults.crashes[0].replica, 0, "the primary dies");
        // every fault scenario carries a validated, non-empty plan
        let faulty: Vec<&ScenarioSpec> = specs.iter().filter(|s| !s.faults.is_none()).collect();
        assert_eq!(faulty.len(), 4);
        for s in &faulty {
            s.faults.validate(s.pool.len()).expect("plan fits the pool");
        }
    }

    #[test]
    fn scaled_bytes_tracks_dataset_scale() {
        let test = ExperimentConfig::test_scale();
        assert_eq!(scaled_bytes(&test, 1024.0), 1024);
        let double = ExperimentConfig {
            scale: test.scale * 2.0,
            ..test
        };
        assert_eq!(scaled_bytes(&double, 1024.0), 2048);
        assert_eq!(
            scaled_bytes(
                &ExperimentConfig {
                    scale: 1e-9,
                    ..test
                },
                1.0
            ),
            1,
            "never rescales to zero"
        );
    }
}

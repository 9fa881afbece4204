//! # gdr-serve — deterministic online-serving simulation
//!
//! The paper frames GDR-HGNN as a *frontend that feeds an accelerator on
//! demand*; this crate puts that frontend behind a request queue. It
//! simulates an **online serving system** over the existing
//! [`Platform`](gdr_accel::platform::Platform) and
//! [`Session`](gdr_frontend::session::Session) APIs:
//!
//! * [`workload`] — seeded arrival processes (Poisson, bursty,
//!   closed-loop) generating inference requests over the dataset × model
//!   grid;
//! * [`batcher`] — dynamic batching policies (immediate, size-capped,
//!   deadline) amortizing each backend's per-execution fixed cost;
//! * [`scheduler`] — a virtual-time discrete-event simulator dispatching
//!   batches across a replica pool (round-robin, least-loaded,
//!   shard-affinity, shard-affinity-partial), shaped by a
//!   [`PoolConfig`]: **partial-replica dataset sharding** with
//!   miss-penalty routing, and an **autoscaler** — queue-driven by
//!   default, or **SLO-driven** (scaling on predicted p99 against an
//!   [`SloSpec`] deadline) — whose scale-ups are priced as full cold
//!   session binds and whose scale-downs migrate the drained replica's
//!   queued batches to the survivors;
//! * [`cache`] — the per-replica cross-batch **feature cache**
//!   (LRU-by-bytes over cell working sets) whose hits discount marginal
//!   service time and DRAM traffic;
//! * [`cost`] — the per-(platform, cell) service-time model, measured
//!   once from the platforms' own cycle models (with a reused frontend
//!   [`Session`](gdr_frontend::session::Session) pricing the
//!   dataset-warm schedule cache and the cold-bind penalty);
//! * [`fault`] — deterministic, seeded **fault plans**
//!   ([`FaultSpec`]): scheduled crash/recover windows, per-replica
//!   slowdown factors, per-batch in-transit drop probability, and an
//!   availability deadline, all replayed in virtual time so a faulty
//!   run is as byte-reproducible as a healthy one;
//! * [`control`] — the Viewstamped-Replication-style **control plane**
//!   ([`ControlPlane`]): the primary orders batch assignments, backups
//!   acknowledge through buffered mailboxes, a heartbeat lapse elects a
//!   new view, and a crashed replica's batches migrate to survivors;
//! * [`metrics`] — p50/p95/p99 latency, throughput, queue-depth, DRAM,
//!   cache, shard, autoscale, and fault aggregation (availability,
//!   under-failure tail, failover time, re-issued batches) into the
//!   `gdr-bench/v1` `serve` record family;
//! * [`suite`] — the [`ServeHarness`] runner and the committed,
//!   CI-gated scenario suite, including the crash/failover availability
//!   headline pair;
//! * [`mod@replay`] — the **real-threads replay executor**: the simulator's
//!   batch placements, folded from its trace ([`AssignmentLog`]), executed on
//!   `std::thread` worker lanes over the zero-alloc frontend hot path,
//!   measuring sustained wall-clock graphs/sec (the `host` record
//!   family — reported, never gated);
//! * [`sweep`] — per-axis value lists ([`SweepSpec`]) expanded into a
//!   capped, deterministically ordered cartesian scenario grid — the
//!   enumeration behind `gdr-bench sweep` and its Pareto recommender;
//! * [`trace`] — the zero-cost-when-disabled [`TraceSink`] lifecycle
//!   event stream (arrival → seal → dispatch → start → complete/drop,
//!   plus replica-scope fault and autoscale events) and its folds: the
//!   per-request latency-attribution breakdown, the replay log, and a
//!   Perfetto-loadable
//!   [`ChromeTrace`](gdr_system::trace_export::ChromeTrace).
//!
//! Time is **virtual**: the simulation never reads a wall clock, so a
//! fixed seed produces byte-for-byte identical reports on any machine —
//! which is what lets CI gate tail latency and throughput like any other
//! simulated metric.
//!
//! # Examples
//!
//! Serve Poisson traffic on two HiHGNN replicas and read the tail:
//!
//! ```
//! use gdr_serve::prelude::*;
//!
//! let cfg = ExperimentConfig { seed: 7, scale: 0.04 };
//! let harness = ServeHarness::new(&cfg, &["HiHGNN"])?;
//! let record = harness.run(
//!     &ScenarioSpec::new(
//!         "two-replicas",
//!         ArrivalProcess::Poisson { rate_rps: 4_000.0 },
//!         96,
//!         BatchPolicy::SizeCapped { cap: 4 },
//!         SchedPolicy::LeastLoaded,
//!         vec!["HiHGNN".into(), "HiHGNN".into()],
//!     ),
//!     7,
//! )?;
//! let all = record.aggregate().unwrap();
//! assert_eq!(all.metric("completed"), Some(96.0));
//! assert!(all.metric("p99_ns") >= all.metric("p50_ns"));
//! # Ok::<(), gdr_hetgraph::GdrError>(())
//! ```
//!
//! Shard the dataset grid across partial replicas, cache features
//! across batches, and let the queue drive the pool size:
//!
//! ```
//! use gdr_serve::prelude::*;
//!
//! let cfg = ExperimentConfig { seed: 7, scale: 0.04 };
//! let harness = ServeHarness::new(&cfg, &["HiHGNN+GDR"])?;
//! let record = harness.run(
//!     &ScenarioSpec {
//!         shards: 3,                     // each replica holds one dataset
//!         cache_bytes: 64 << 20,         // per-replica feature cache
//!         autoscale: Some(AutoscaleSpec {
//!             max_replicas: 4,
//!             up_depth: 16,
//!             down_depth: 2,
//!         }),
//!         ..ScenarioSpec::new(
//!             "sharded",
//!             ArrivalProcess::Poisson { rate_rps: 100_000.0 },
//!             96,
//!             BatchPolicy::SizeCapped { cap: 4 },
//!             SchedPolicy::ShardAffinityPartial,
//!             vec!["HiHGNN+GDR".into(); 3],
//!         )
//!     },
//!     7,
//! )?;
//! let all = record.aggregate().unwrap();
//! let hit_rate = all.metric("cache_hit_rate").unwrap();
//! assert!((0.0..=1.0).contains(&hit_rate));
//! assert_eq!(all.metric("shard_miss_count"), Some(0.0));
//! assert!(all.metric("replicas_max").unwrap() <= 4.0);
//! # Ok::<(), gdr_hetgraph::GdrError>(())
//! ```
//!
//! # Serving through failures
//!
//! Crash the primary mid-run and let the replicated control plane
//! migrate its batches — the scenario stays fully available, the
//! failover is priced, and the run is still byte-reproducible:
//!
//! ```
//! use gdr_serve::prelude::*;
//!
//! let cfg = ExperimentConfig { seed: 7, scale: 0.04 };
//! let harness = ServeHarness::new(&cfg, &["HiHGNN+GDR"])?;
//! let record = harness.run(
//!     &ScenarioSpec {
//!         faults: FaultSpec {
//!             // replica 0 — the initial primary — dies for good
//!             crashes: vec![CrashWindow {
//!                 replica: 0,
//!                 crash_at_ns: 80_000,
//!                 recover_after_ns: 0,
//!             }],
//!             ..FaultSpec::default()
//!         },
//!         control: true, // replicate assignments; elect on heartbeat lapse
//!         ..ScenarioSpec::new(
//!             "crash-failover",
//!             ArrivalProcess::Poisson { rate_rps: 100_000.0 },
//!             96,
//!             BatchPolicy::SizeCapped { cap: 4 },
//!             SchedPolicy::LeastLoaded,
//!             vec!["HiHGNN+GDR".into(); 3],
//!         )
//!     },
//!     7,
//! )?;
//! let all = record.aggregate().unwrap();
//! assert_eq!(all.metric("dropped"), Some(0.0)); // survivors absorb the work
//! assert_eq!(all.metric("availability"), Some(1.0));
//! assert!(all.metric("failover_ns").unwrap() > 0.0); // the election is priced
//! assert_eq!(record.faults, "crash:0@80000;control:vr");
//! # Ok::<(), gdr_hetgraph::GdrError>(())
//! ```
//!
//! The same plan with `control: false` drops the dead primary's queued
//! batches and measurably degrades availability — that contrast is the
//! committed `crash/failover` vs `crash/no-control` suite pair.
//!
//! # Serving under an SLO
//!
//! Attach an [`SloSpec`] to an autoscaled pool and the controller scales
//! on *predicted* p99 instead of raw queue depth: up whenever the
//! estimate (live queued work over the serving replicas, priced by the
//! measured per-request cost) exceeds the headroom-tightened deadline,
//! down — migrating the drained replica's queued batches to the
//! survivors — once one replica fewer would still clear it with margin.
//! The record gains an `slo_violation_rate` metric, and `replica_seconds`
//! says what meeting the target cost:
//!
//! ```
//! use gdr_serve::prelude::*;
//!
//! let cfg = ExperimentConfig { seed: 7, scale: 0.04 };
//! let harness = ServeHarness::new(&cfg, &["HiHGNN+GDR"])?;
//! let record = harness.run(
//!     &ScenarioSpec {
//!         autoscale: Some(AutoscaleSpec {
//!             max_replicas: 4, // the cap; thresholds are superseded
//!             up_depth: 32,
//!             down_depth: 4,
//!         }),
//!         slo: Some(SloSpec {
//!             p99_target_ns: 100_000,
//!             headroom: 0.8, // scale at 80% of the target
//!         }),
//!         ..ScenarioSpec::new(
//!             "slo",
//!             ArrivalProcess::Bursty {
//!                 rate_rps: 600_000.0,
//!                 period_ns: 1_000_000,
//!                 duty: 0.25,
//!             },
//!             96,
//!             BatchPolicy::SizeCapped { cap: 8 },
//!             SchedPolicy::LeastLoaded,
//!             vec!["HiHGNN+GDR".into()], // one warm replica to start
//!         )
//!     },
//!     7,
//! )?;
//! let all = record.aggregate().unwrap();
//! let violations = all.metric("slo_violation_rate").unwrap();
//! assert!((0.0..=1.0).contains(&violations));
//! assert!(all.metric("replicas_max").unwrap() <= 4.0);
//! # Ok::<(), gdr_hetgraph::GdrError>(())
//! ```
//!
//! Without `autoscale` the SLO is purely observational: the run keeps
//! its fixed pool and just reports the violation rate — which is how the
//! committed `slo/static-max` twin pins the cost of meeting the same
//! target with a statically provisioned pool.
//!
//! # Replaying a scenario on real threads
//!
//! Everything above runs in virtual time. To measure what the *host*
//! can sustain, fold a traced run's batch starts into an assignment
//! log with [`ServeHarness::run_replayable`] and execute the log on
//! real worker lanes: each lane owns a frontend
//! [`Workspace`](gdr_core::workspace::Workspace) and drives the
//! steady-state zero-allocation decouple → recouple → schedule →
//! NA-sim path per batch — for every batch, including the ones the
//! simulator priced as schedule-cache or feature-cache hits, so replay
//! times the plan as if every batch ran cold. Which requests complete,
//! where, and in what per-replica order is identical for every lane
//! count — only the wall-clock throughput (reported through the `host`
//! family, never gated) depends on the machine:
//!
//! ```
//! use gdr_serve::prelude::*;
//! use gdr_serve::replay::{replay, ReplayDatasets};
//!
//! let cfg = ExperimentConfig { seed: 7, scale: 0.04 };
//! let harness = ServeHarness::new(&cfg, &["HiHGNN+GDR"])?;
//! let spec = ScenarioSpec::new(
//!     "replayed",
//!     ArrivalProcess::Poisson { rate_rps: 50_000.0 },
//!     32,
//!     BatchPolicy::SizeCapped { cap: 4 },
//!     SchedPolicy::LeastLoaded,
//!     vec!["HiHGNN+GDR".into(), "HiHGNN+GDR".into()],
//! );
//! let (_record, log) = harness.run_replayable(&spec, 7)?;
//! let datasets = ReplayDatasets::build(&log.config);
//! let solo = replay(&log, &datasets, 1)?;
//! let duo = replay(&log, &datasets, 2)?;
//! // The plan replays identically at any lane count…
//! assert_eq!(solo.completed_ids, duo.completed_ids);
//! assert_eq!(solo.per_replica_ids, duo.per_replica_ids);
//! // …and the wall-clock throughput lands in a host record.
//! assert!(duo.host_record().metric("graphs_per_sec").unwrap() > 0.0);
//! # Ok::<(), gdr_hetgraph::GdrError>(())
//! ```
//!
//! `gdr-bench replay --jobs N` wraps exactly this flow over the
//! committed scenario suite and emits the host records alongside the
//! session rows.
//!
//! # Tracing a serving run
//!
//! [`ServeHarness::run_traced`] runs a scenario with a
//! [`RecordingSink`] attached and returns, alongside the ordinary
//! scenario record, the full virtual-ns event log, the per-request
//! latency-attribution [`breakdown`](crate::metrics::breakdown_record)
//! (queue wait / batch formation / bind / service / stall), and a
//! Chrome-trace-event export you can load at
//! <https://ui.perfetto.dev>. Tracing never perturbs the simulation —
//! a traced run's record is byte-identical to an untraced one:
//!
//! ```
//! use gdr_serve::prelude::*;
//!
//! let cfg = ExperimentConfig { seed: 7, scale: 0.04 };
//! let harness = ServeHarness::new(&cfg, &["HiHGNN"])?;
//! let spec = ScenarioSpec::new(
//!     "traced",
//!     ArrivalProcess::Poisson { rate_rps: 4_000.0 },
//!     48,
//!     BatchPolicy::SizeCapped { cap: 4 },
//!     SchedPolicy::LeastLoaded,
//!     vec!["HiHGNN".into(), "HiHGNN".into()],
//! );
//! let traced = harness.run_traced(&spec, 7)?;
//! assert_eq!(traced.record, harness.run(&spec, 7)?);
//! assert!(traced
//!     .events
//!     .iter()
//!     .any(|e| matches!(e, TraceEvent::BatchStarted { .. })));
//! // Write this string to a file and open it in Perfetto.
//! let json = traced.chrome.to_json().to_pretty();
//! assert!(json.contains("\"traceEvents\""));
//! # Ok::<(), gdr_hetgraph::GdrError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batcher;
pub mod cache;
pub mod control;
pub mod cost;
pub mod fault;
pub mod metrics;
pub mod replay;
pub mod request;
pub mod scheduler;
pub mod suite;
pub mod sweep;
pub mod trace;
pub mod workload;

pub use batcher::{Batch, BatchPolicy, Batcher};
pub use cache::FeatureCache;
pub use control::{ControlPlane, ControlStats};
pub use cost::{CostModel, ServiceCost, MINI_BATCH_DIVISOR};
pub use fault::{CrashWindow, FaultSpec, Slowdown};
pub use replay::{replay, AssignmentLog, LaneStats, ReplayDatasets, ReplayReport};
pub use request::{Cell, Request};
pub use scheduler::{
    Assignment, AutoscaleSpec, PoolConfig, SchedPolicy, ShardMap, SimResult, Simulator, SloSpec,
};
pub use suite::{
    default_specs, default_suite, default_suite_with_breakdown, scenario_label, ScenarioSpec,
    ServeHarness, TracedRun,
};
pub use sweep::{ArrivalKind, FaultVariant, SweepSpec};
pub use trace::{chrome_trace, RecordingSink, TraceEvent, TraceSink};
pub use workload::{ArrivalProcess, Traffic, TrafficStream};

/// Everything needed to define and run a serving scenario.
pub mod prelude {
    pub use crate::batcher::{Batch, BatchPolicy, Batcher};
    pub use crate::cache::FeatureCache;
    pub use crate::control::{ControlPlane, ControlStats};
    pub use crate::cost::{CostModel, ServiceCost};
    pub use crate::fault::{CrashWindow, FaultSpec, Slowdown};
    pub use crate::metrics::{breakdown_record, request_breakdowns, RequestBreakdown};
    pub use crate::replay::{replay, AssignmentLog, LaneStats, ReplayDatasets, ReplayReport};
    pub use crate::request::{Cell, Request};
    pub use crate::scheduler::{
        Assignment, AutoscaleSpec, PoolConfig, SchedPolicy, ShardMap, SimResult, Simulator, SloSpec,
    };
    pub use crate::suite::{
        default_specs, default_suite, default_suite_with_breakdown, scenario_label, ScenarioSpec,
        ServeHarness, TracedRun,
    };
    pub use crate::sweep::{ArrivalKind, FaultVariant, SweepSpec};
    pub use crate::trace::{chrome_trace, RecordingSink, TraceEvent, TraceSink};
    pub use crate::workload::{ArrivalProcess, Traffic, TrafficStream};
    pub use gdr_system::grid::ExperimentConfig;
    pub use gdr_system::report::{
        BreakdownRecord, BreakdownStage, ServeRunRecord, ServeScenarioRecord,
    };
    pub use gdr_system::trace_export::ChromeTrace;
}

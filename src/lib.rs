//! # gdr — the GDR-HGNN reproduction facade
//!
//! One-stop re-export of the whole workspace reproducing *GDR-HGNN: A
//! Heterogeneous Graph Neural Networks Accelerator Frontend with Graph
//! Decoupling and Recoupling* (Xue et al., DAC 2024):
//!
//! | crate | contents |
//! |---|---|
//! | [`hetgraph`] | heterogeneous graph substrate + Table 2 datasets |
//! | [`core`] | graph decoupling / recoupling algorithms |
//! | [`memsim`] | HBM, buffers, FIFOs, CACTI-lite |
//! | [`hgnn`] | RGCN / RGAT / Simple-HGN models and workloads |
//! | [`accel`] | [`prelude::Platform`] trait, HiHGNN cycle model, T4/A100 baselines |
//! | [`frontend`] | the GDR-HGNN hardware frontend + streaming [`prelude::Session`] |
//! | [`system`] | [`prelude::SystemBuilder`], combined system, experiment drivers |
//! | [`serve`] | online-serving simulation: arrivals, batching, replica scheduling |
//!
//! # Getting started
//!
//! [`prelude`] is the documented entry point: it re-exports the builder,
//! the platform abstraction, and the streaming session API. Assemble a
//! system with [`prelude::SystemBuilder`], then run it end to end or
//! stream the frontend per semantic graph:
//!
//! ```
//! use gdr::prelude::*;
//!
//! // Dataset + model + hardware, validated up front.
//! let system = SystemBuilder::new()
//!     .dataset(Dataset::Acm)
//!     .model(ModelKind::Rgcn)
//!     .scale(0.05)
//!     .build()?;
//!
//! // The combined GDR-HGNN + HiHGNN pipeline…
//! let combined = system.run()?;
//! assert_eq!(combined.report().platform, "HiHGNN+GDR");
//!
//! // …or any other execution platform, behind one trait.
//! let t4 = system.execute_on(&GpuSim::new(T4))?;
//! assert!(combined.report().time_ns < t4.report.time_ns);
//!
//! // …or the frontend alone, streamed one semantic graph at a time.
//! for result in system.session().iter().take(2) {
//!     assert!(result.cycles > 0);
//! }
//! # Ok::<(), gdr::prelude::GdrError>(())
//! ```
//!
//! # Evaluating platforms
//!
//! The report subsystem runs **any** [`prelude::Platform`] list over
//! the dataset × model grid and emits markdown plus the stable
//! `gdr-bench/v1` JSON schema (documented in `bench/README.md`). The
//! same schema backs the `gdr-bench` CLI
//! (`cargo run -p gdr-bench --bin gdr-bench -- --scale test --out bench.json`,
//! with `--baseline old.json --threshold 10%` as the CI perf gate):
//!
//! ```
//! use gdr::prelude::*;
//!
//! // Any subset, any order; the first platform is the speedup baseline.
//! let platforms = select_platforms(&["HiHGNN", "HiHGNN+GDR"])?;
//! let cfg = ExperimentConfig { seed: 42, scale: 0.04 };
//! let report = BenchReport::collect(&platform_refs(&platforms), &cfg)?;
//! assert_eq!(report.points.len(), 9);
//!
//! // Machine-readable out, regression gate back in.
//! let json = report.to_json().to_pretty();
//! let baseline = BenchReport::parse(&json).expect("own output parses");
//! assert!(compare(&baseline, &report, 10.0).passed());
//! # Ok::<(), gdr::prelude::GdrError>(())
//! ```
//!
//! # Serving
//!
//! The serving subsystem ([`serve`]) puts the same platforms behind a
//! request queue: seeded arrival processes over the dataset × model
//! grid, dynamic batching, multi-replica scheduling with
//! partial-replica dataset sharding, a per-replica cross-batch feature
//! cache, and queue-driven autoscaling — all simulated in **virtual
//! time**, so a fixed seed reproduces every latency percentile byte for
//! byte. The `gdr-bench serve` CLI exposes it
//! (`cargo run -p gdr-bench --bin gdr-bench -- serve --scale test
//! --shards 3 --cache-bytes 67108864 --autoscale 4:32:2`), and the
//! canonical suite rides along in grid reports and the CI gate:
//!
//! ```
//! use gdr::prelude::*;
//!
//! let cfg = ExperimentConfig { seed: 7, scale: 0.04 };
//! // Measure the backend once, then shard the dataset grid across
//! // three partial replicas: each holds one dataset, routes its own
//! // traffic, and reuses cached features across batches, while the
//! // autoscaler follows the queue.
//! let harness = ServeHarness::new(&cfg, &["HiHGNN+GDR"])?;
//! let record = harness.run(
//!     &ScenarioSpec {
//!         shards: 3,
//!         cache_bytes: 64 << 20,
//!         autoscale: Some(AutoscaleSpec {
//!             max_replicas: 4,
//!             up_depth: 16,
//!             down_depth: 2,
//!         }),
//!         ..ScenarioSpec::new(
//!             "quickstart",
//!             ArrivalProcess::Poisson { rate_rps: 50_000.0 },
//!             64,
//!             BatchPolicy::SizeCapped { cap: 4 },
//!             SchedPolicy::ShardAffinityPartial,
//!             vec!["HiHGNN+GDR".into(); 3],
//!         )
//!     },
//!     7,
//! )?;
//! let all = record.aggregate().unwrap();
//! assert_eq!(all.metric("completed"), Some(64.0));
//! assert!(all.metric("p99_ns").unwrap() >= all.metric("p50_ns").unwrap());
//! assert_eq!(all.metric("shard_miss_count"), Some(0.0));
//! assert!((0.0..=1.0).contains(&all.metric("cache_hit_rate").unwrap()));
//! # Ok::<(), gdr::prelude::GdrError>(())
//! ```
//!
//! # Reusing a workspace
//!
//! The restructuring hot path — decouple → recouple → schedule — runs
//! **allocation-free at steady state** when a [`prelude::Workspace`] is
//! threaded through it: matching tables, BFS arrays, partition FIFOs,
//! and subgraph CSR storage are rebuilt in place instead of reallocated
//! per graph. [`prelude::Session`] does this automatically (one
//! workspace per [`Session::iter`](prelude::Session::iter) stream, one
//! per [`Session::par_process`](prelude::Session::par_process) worker
//! lane), and long-lived callers — serving replicas, benchmark loops —
//! hold their own and pass it to
//! [`Session::process_with`](prelude::Session::process_with). Results
//! are byte-identical to the allocating paths; the host-speed
//! benchmark (`benchmark/`) times
//! [`Session::par_process`](prelude::Session::par_process) per edge as
//! `frontend.session.ns_per_edge`, with median and spread:
//!
//! ```
//! use gdr::prelude::*;
//!
//! let graphs = Dataset::Acm.build_scaled(1, 0.03).all_semantic_graphs();
//! let session = Session::new(FrontendConfig::default(), &graphs);
//!
//! // One workspace, reused across every graph (and every later rebind).
//! let mut ws = Workspace::new();
//! let reused = session.process_with(&mut ws);
//!
//! // Identical to the allocating path, graph for graph.
//! let fresh = session.process();
//! for (a, b) in reused.per_graph().iter().zip(fresh.per_graph()) {
//!     assert_eq!(a.schedule, b.schedule);
//!     assert_eq!(a.cycles, b.cycles);
//! }
//!
//! // The core algorithm driver has the same shape: results land in the
//! // workspace slots, nothing is reallocated between graphs.
//! use gdr::core::restructure::Restructurer;
//! let restructurer = Restructurer::new();
//! let mut core_ws = gdr::core::workspace::Workspace::new();
//! for g in &graphs {
//!     restructurer.restructure_with(&mut core_ws, g);
//!     assert_eq!(core_ws.edges.len(), g.edge_count());
//!     assert_eq!(core_ws.subgraphs.cover_violations(), 0);
//! }
//! ```
//!
//! Lower-level pieces stay available through the per-crate re-exports —
//! e.g. restructure one semantic graph by hand and measure the
//! locality win:
//!
//! ```
//! use gdr::hetgraph::datasets::Dataset;
//! use gdr::core::restructure::Restructurer;
//! use gdr::core::schedule::EdgeSchedule;
//! use gdr::core::locality::simulate_lru;
//!
//! let acm = Dataset::Acm.build_scaled(42, 0.05);
//! let sg = acm.all_semantic_graphs().into_iter()
//!     .max_by_key(|g| g.edge_count()).unwrap();
//! let restructured = Restructurer::new().restructure(&sg);
//! let cap = 256;
//! let before = simulate_lru(&sg, &EdgeSchedule::dst_major(&sg), cap);
//! let after = simulate_lru(&sg, restructured.schedule(), cap);
//! assert!(after.misses() <= before.misses());
//! ```

#![warn(missing_docs)]

pub use gdr_accel as accel;
pub use gdr_core as core;
pub use gdr_frontend as frontend;
pub use gdr_hetgraph as hetgraph;
pub use gdr_hgnn as hgnn;
pub use gdr_memsim as memsim;
pub use gdr_serve as serve;
pub use gdr_system as system;

/// The single documented entry point: everything needed to build,
/// execute, and compare simulated systems.
///
/// * build: [`SystemBuilder`](prelude::SystemBuilder) →
///   [`System`](prelude::System)
/// * execute: [`Platform`](prelude::Platform)
///   ([`HiHgnnSim`](prelude::HiHgnnSim), [`GpuSim`](prelude::GpuSim),
///   [`CombinedSystem`](prelude::CombinedSystem))
/// * stream: [`Session`](prelude::Session) →
///   [`GraphResult`](prelude::GraphResult) /
///   [`FrontendRun`](prelude::FrontendRun), with
///   [`Workspace`](prelude::Workspace) as the reusable zero-allocation
///   restructuring arena
/// * evaluate: [`run_grid`](prelude::run_grid) /
///   [`run_platforms`](prelude::run_platforms) and
///   [`ExecReport`](prelude::ExecReport)
/// * report: [`BenchReport`](prelude::BenchReport) /
///   [`PaperReport`](prelude::PaperReport) /
///   [`compare`](prelude::compare) (markdown + `gdr-bench/v1` JSON,
///   CI perf gate)
/// * trace: [`TracedRun`](prelude::TracedRun) /
///   [`ChromeTrace`](prelude::ChromeTrace) /
///   [`BreakdownRecord`](prelude::BreakdownRecord) (deterministic
///   per-request lifecycle spans, Perfetto export, latency
///   attribution)
/// * serve: [`ServeHarness`](prelude::ServeHarness) /
///   [`ScenarioSpec`](prelude::ScenarioSpec) /
///   [`ArrivalProcess`](prelude::ArrivalProcess) /
///   [`BatchPolicy`](prelude::BatchPolicy) /
///   [`SchedPolicy`](prelude::SchedPolicy) (online-serving simulation),
///   with [`PoolConfig`](prelude::PoolConfig) /
///   [`ShardMap`](prelude::ShardMap) /
///   [`FeatureCache`](prelude::FeatureCache) /
///   [`AutoscaleSpec`](prelude::AutoscaleSpec) /
///   [`SloSpec`](prelude::SloSpec) shaping the pool (partial-replica
///   sharding, cross-batch feature cache, queue- or SLO-driven
///   autoscaling with drain-time batch migration)
/// * errors: [`GdrError`](prelude::GdrError) /
///   [`GdrResult`](prelude::GdrResult) across all of the above
pub mod prelude {
    pub use gdr_accel::calib::{A100, T4};
    pub use gdr_accel::gpu::{GpuRun, GpuSim};
    pub use gdr_accel::hihgnn::{HiHgnnConfig, HiHgnnRun, HiHgnnSim};
    pub use gdr_accel::platform::{Platform, PlatformRun};
    pub use gdr_accel::report::{geomean, ExecReport, StageBreakdown};
    pub use gdr_core::restructure::Restructurer;
    pub use gdr_core::schedule::EdgeSchedule;
    pub use gdr_frontend::config::FrontendConfig;
    pub use gdr_frontend::pipeline::{FrontendPipeline, FrontendRun, GraphResult};
    pub use gdr_frontend::session::Session;
    pub use gdr_frontend::Workspace;
    pub use gdr_hetgraph::datasets::Dataset;
    pub use gdr_hetgraph::{BipartiteGraph, GdrError, GdrResult, HeteroGraph};
    pub use gdr_hgnn::model::{ModelConfig, ModelKind};
    pub use gdr_hgnn::workload::Workload;
    pub use gdr_serve::metrics::{breakdown_record, request_breakdowns, RequestBreakdown};
    pub use gdr_serve::{
        chrome_trace, default_specs, default_suite, default_suite_with_breakdown, replay,
        scenario_label, ArrivalKind, ArrivalProcess, Assignment, AssignmentLog, AutoscaleSpec,
        BatchPolicy, Batcher, ControlPlane, CostModel, CrashWindow, FaultSpec, FaultVariant,
        FeatureCache, LaneStats, PoolConfig, RecordingSink, ReplayDatasets, ReplayReport,
        ScenarioSpec, SchedPolicy, ServeHarness, ServiceCost, ShardMap, Simulator, SloSpec,
        Slowdown, SweepSpec, TraceEvent, TraceSink, TracedRun, Traffic, TrafficStream,
    };
    pub use gdr_system::builder::{System, SystemBuilder};
    pub use gdr_system::combined::{CombinedRun, CombinedSystem};
    pub use gdr_system::grid::{
        paper_platforms, platform_names, platform_refs, run_grid, run_platforms, select_platforms,
        ExperimentConfig, GridPoint,
    };
    pub use gdr_system::json::Json;
    pub use gdr_system::report::{
        compare, dominates, pareto_frontier, recommend, BenchReport, BreakdownRecord,
        BreakdownStage, Comparison, HostRecord, PaperReport, ServeRunRecord, ServeScenarioRecord,
        SweepRecommendation, SweepRecord, SweepRowRecord, BREAKDOWN_STAGE_KEYS, SWEEP_OBJECTIVES,
    };
    pub use gdr_system::trace_export::ChromeTrace;
}

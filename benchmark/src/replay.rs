//! `replay`: the committed sharded warm-cache scenario, recorded once in
//! set-up and replayed on one lane through the frontend hot path.
//!
//! The untraced pass does what `gdr_serve::replay::replay(&log,
//! &datasets, 1)` does on its one lane: `replay_batch` for each
//! assignment in log order. It keeps one lane's workspace, restructurer
//! and NA buffer across passes, so after the warm-up pass it runs at the
//! workspace's zero-allocation steady state, and it times each batch as
//! one unit of the pass. The traced pass does the same work graph by
//! graph, with a span around each restructuring stage and the NA-buffer
//! sim. `replay` itself runs once, as a check, at the end of the run.

use std::time::Instant;

use gdr_accel::na_engine::NaBufferSim;
use gdr_core::backbone::Backbone;
use gdr_core::matching::{fifo_matching_into, greedy_matching_into, hopcroft_karp_into, Matching};
use gdr_core::recouple::{RestructuredSubgraphs, VertexPartition};
use gdr_core::restructure::{MatcherKind, Restructurer};
use gdr_core::schedule::EdgeSchedule;
use gdr_core::workspace::{MatchScratch, Workspace};
use gdr_hetgraph::datasets::Dataset;
use gdr_hetgraph::BipartiteGraph;
use gdr_serve::metrics::percentile;
use gdr_serve::replay::{lane_na_sim, replay, replay_batch, AssignmentLog, ReplayDatasets};
use gdr_serve::scheduler::Assignment;
use gdr_serve::suite::{default_specs, ServeHarness, SUITE_REQUESTS};
use gdr_system::grid::ExperimentConfig;

use crate::spans::Recorder;
use crate::{
    dataset_index, grid, layer_metric, ns_per, pool_names, Bench, Check, Digest, Options, Outcome,
    DATASET_KEYS,
};

/// The replayed scenario.
pub const SCENARIO: &str = "sharded/warm-cache/shard-affinity-partial";
/// Dataset scale of the replay workload: small enough that a pass is
/// a few tenths of a second and its graphs stay mostly cache-resident,
/// so a run holds many passes and the host's memory contention moves
/// it less.
pub const SCALE: f64 = 0.1;
/// Requests replayed per pass: four times the suite's 384, so the mix of
/// datasets in the log (and with it graphs/s) moves little between
/// request seeds.
pub const REQUESTS: usize = 4 * SUITE_REQUESTS;

/// What a pass completed, in the order it completed it.
#[derive(Debug)]
pub struct ReplayOut {
    graphs: u64,
    completed_ids: Vec<u64>,
    per_replica_ids: Vec<Vec<u64>>,
}

impl ReplayOut {
    /// Nothing completed yet.
    fn new(log: &AssignmentLog) -> Self {
        Self {
            graphs: 0,
            completed_ids: Vec::with_capacity(log.total_requests()),
            per_replica_ids: vec![Vec::new(); log.replica_count()],
        }
    }

    /// Records `a`'s requests as completed on its replica.
    fn complete(&mut self, a: &Assignment) {
        self.per_replica_ids[a.replica].extend(a.request_ids.iter().copied());
        self.completed_ids.extend(a.request_ids.iter().copied());
    }
}

/// Set-up state of the replay workload.
#[derive(Debug)]
pub struct ReplayBench {
    log: AssignmentLog,
    datasets: ReplayDatasets,
    record_json: String,
    graphs_per_pass: u64,
    expected_ids: Vec<u64>,
    expected_order: Vec<Vec<u64>>,
    restructurer: Restructurer,
    na_sim: NaBufferSim,
    ws: Workspace,
    /// Configuration of the grid probe of a traced run.
    grid: ExperimentConfig,
    /// Edges executed per dataset over all traced passes.
    traced_edges: [u64; 3],
}

impl Bench for ReplayBench {
    type Out = ReplayOut;

    fn setup(opts: &Options, rec: &mut Recorder) -> Result<Self, String> {
        let cfg = ExperimentConfig {
            seed: opts.dataset_seed,
            scale: opts.scale.unwrap_or(SCALE),
        };
        let mut spec = default_specs(&cfg)
            .into_iter()
            .find(|s| s.name == SCENARIO)
            .ok_or("the committed sharded scenario is missing from the suite")?;
        spec.requests = opts.requests.unwrap_or(REQUESTS);
        let names = pool_names(&spec);
        let harness = rec
            .time("serve.cost.measure", None, |_| {
                ServeHarness::new(&cfg, &names)
            })
            .map_err(|e| e.to_string())?;
        let (record, log) = harness
            .run_replayable(&spec, opts.seed)
            .map_err(|e| e.to_string())?;
        let datasets = rec.time("hetgraph.build", None, |_| {
            ReplayDatasets::build(&log.config)
        });

        let graphs_per_pass = log
            .assignments
            .iter()
            .map(|a| datasets.graphs(a.cell.dataset).len() as u64)
            .sum();
        let expected_ids = log.request_ids();
        let mut expected_order: Vec<Vec<u64>> = vec![Vec::new(); log.replica_count()];
        for a in &log.assignments {
            expected_order[a.replica].extend(a.request_ids.iter().copied());
        }
        let restructurer = Restructurer::new();
        if restructurer.recursion_depth_value() != 0 {
            return Err("the staged replay assumes a non-recursive restructurer".into());
        }
        Ok(Self {
            record_json: record.to_json().to_compact(),
            log,
            datasets,
            graphs_per_pass,
            expected_ids,
            expected_order,
            restructurer,
            na_sim: lane_na_sim(),
            ws: Workspace::new(),
            grid: ExperimentConfig {
                seed: opts.dataset_seed,
                scale: opts.scale.unwrap_or(grid::SCALE),
            },
            traced_edges: [0; 3],
        })
    }

    fn items(&self) -> f64 {
        self.graphs_per_pass as f64
    }

    fn pass(&mut self, unit_s: &mut Vec<f64>) -> ReplayOut {
        let Self {
            log,
            datasets,
            restructurer,
            na_sim,
            ws,
            ..
        } = self;
        let mut out = ReplayOut::new(log);
        for a in &log.assignments {
            let t = Instant::now();
            out.graphs += replay_batch(ws, restructurer, na_sim, datasets, a) as u64;
            unit_s.push(t.elapsed().as_secs_f64());
            out.complete(a);
        }
        out.completed_ids.sort_unstable();
        out
    }

    fn traced_pass(&mut self, rec: &mut Recorder) -> ReplayOut {
        let Self {
            log,
            datasets,
            restructurer,
            na_sim,
            ws,
            traced_edges,
            ..
        } = self;
        let mut out = ReplayOut::new(log);
        for a in &log.assignments {
            let d = dataset_index(a.cell.dataset);
            rec.time("serve.replay.batch", None, |rec| {
                for (gi, g) in datasets.graphs(a.cell.dataset).iter().enumerate() {
                    restructure_staged(rec, restructurer, ws, g, Some(d));
                    rec.time("accel.na_sim", Some(d), |_| {
                        na_sim.simulate_edges_with(&mut ws.buffer_scratch, g, &ws.edges, gi as u64)
                    });
                    traced_edges[d] += g.edge_count() as u64;
                    out.graphs += 1;
                }
            });
            out.complete(a);
        }
        out.completed_ids.sort_unstable();
        out
    }

    fn check(&mut self, out: &ReplayOut) -> Check {
        if out.completed_ids != self.expected_ids {
            return Err("replay: completed ids differ from the log's request ids".into());
        }
        if out.per_replica_ids != self.expected_order {
            return Err("replay: a replica's completion order differs from the log".into());
        }
        if out.graphs != self.graphs_per_pass {
            return Err(format!(
                "replay: executed {} graphs, the log holds {}",
                out.graphs, self.graphs_per_pass
            ));
        }
        Ok(())
    }

    fn finish(&mut self, out: &mut Outcome, rec: &mut Recorder) -> Check {
        let mut digest = Digest::default();
        digest.str(&self.record_json);
        for id in &self.expected_ids {
            digest.u64(*id);
        }
        // The threaded executor the timed passes stand in for must
        // complete the same requests in the same order.
        let report = replay(&self.log, &self.datasets, 1).map_err(|e| e.to_string())?;
        let executor = ReplayOut {
            graphs: report.graphs(),
            completed_ids: report.completed_ids,
            per_replica_ids: report.per_replica_ids,
        };
        let verdict = self
            .check(&executor)
            .map_err(|e| format!("gdr_serve::replay: {e}"))
            .and(self.verify_stages(&mut digest, out, rec));
        out.digest = digest.value();
        out.notes.push(format!(
            "{} assignments, {} requests, {} graphs per pass (1 lane)",
            self.log.assignments.len(),
            self.log.total_requests(),
            self.graphs_per_pass
        ));
        if !rec.enabled() {
            return verdict;
        }
        self.layer_metrics(out, rec);
        verdict.and(grid::probe(&self.grid, out, rec))
    }
}

impl ReplayBench {
    /// Checks, once per distinct graph, that the staged calls the traced
    /// pass times leave exactly `restructure_with`'s schedule behind, that
    /// the schedule is a permutation of the graph's edges and that no
    /// cover violation occurred. Feeds the schedules and NA-buffer
    /// statistics into `digest`. When `rec` records, also times the
    /// paper's FIFO matcher (Algorithm 1, not the default restructurer's
    /// engine) and counts its edge probes.
    fn verify_stages(&self, digest: &mut Digest, out: &mut Outcome, rec: &mut Recorder) -> Check {
        let traced = rec.enabled();
        let mut reference = Workspace::new();
        let mut staged = Workspace::new();
        let mut off = Recorder::new(false);
        let mut fifo = Matching::default();
        let mut fifo_scratch = MatchScratch::default();
        let mut violations = 0usize;
        let mut first_error = None;
        for d in Dataset::ALL {
            let di = dataset_index(d);
            let (mut hits, mut accesses, mut edges, mut probes) = (0u64, 0u64, 0u64, 0u64);
            for (gi, g) in self.datasets.graphs(d).iter().enumerate() {
                self.restructurer.restructure_with(&mut reference, g);
                restructure_staged(&mut off, &self.restructurer, &mut staged, g, None);
                if staged.edges != reference.edges && first_error.is_none() {
                    first_error = Some(format!(
                        "replay: staged schedule of {}#{gi} differs from restructure_with",
                        d.name()
                    ));
                }
                if !EdgeSchedule::new("check", reference.edges.clone()).is_permutation_of(g)
                    && first_error.is_none()
                {
                    first_error = Some(format!(
                        "replay: schedule of {}#{gi} is not a permutation of its edges",
                        d.name()
                    ));
                }
                violations += reference.subgraphs.cover_violations();
                let stats = self.na_sim.simulate_edges_with(
                    &mut reference.buffer_scratch,
                    g,
                    &reference.edges,
                    gi as u64,
                );
                hits += stats.hits;
                accesses += stats.accesses;
                edges += g.edge_count() as u64;
                digest.u64(stats.hits);
                digest.u64(stats.misses);
                digest.u64(stats.accesses);
                for e in &reference.edges {
                    digest.u64(u64::from(e.src.raw()) << 32 | u64::from(e.dst.raw()));
                }
                if traced {
                    let stats = rec.time("core.fifo_matching", Some(di), |_| {
                        fifo_matching_into(g, &mut fifo, &mut fifo_scratch)
                    });
                    probes += stats.edge_probes as u64;
                }
            }
            if traced {
                let d = DATASET_KEYS[di];
                let (ns, _) = rec.sum("core.fifo_matching", |s| s.key == Some(di));
                for (name, value) in [
                    (
                        "accel.na_sim.hit_rate",
                        hits as f64 / accesses.max(1) as f64,
                    ),
                    (
                        "core.matching.edge_probes_per_edge",
                        probes as f64 / edges.max(1) as f64,
                    ),
                    ("core.fifo_matching.ns_per_edge", ns_per(ns, edges as f64)),
                ] {
                    out.metrics
                        .insert(layer_metric(&format!("{name}.{d}")), value);
                }
            }
        }
        if traced {
            out.metrics
                .insert("core.cover_violations", violations as f64);
        }
        if violations > 0 && first_error.is_none() {
            first_error = Some(format!("replay: {violations} cover violations"));
        }
        first_error.map_or(Ok(()), Err)
    }

    /// Per-stage ns/edge per dataset, batch latency percentiles and
    /// set-up splits from the recorded spans.
    fn layer_metrics(&self, out: &mut Outcome, rec: &Recorder) {
        let traced = |s: &crate::spans::Span| s.pass > 0;
        let by_key = rec.self_ns_by(traced);
        for (di, &edges) in self.traced_edges.iter().enumerate() {
            for stage in STAGES {
                let ns = by_key.get(&(stage, Some(di))).copied().unwrap_or(0);
                let name = layer_metric(&format!("{stage}.ns_per_edge.{}", DATASET_KEYS[di]));
                out.metrics.insert(name, ns_per(ns, edges as f64));
            }
        }
        let mut batch_ns: Vec<u64> = rec
            .spans()
            .iter()
            .filter(|s| s.name == "serve.replay.batch")
            .map(|s| s.dur_ns())
            .collect();
        batch_ns.sort_unstable();
        for (name, pct) in [
            ("serve.replay.batch_ms.p50", 50.0),
            ("serve.replay.batch_ms.p99", 99.0),
        ] {
            out.metrics
                .insert(name, percentile(&batch_ns, pct) as f64 / 1e6);
        }
        out.metrics
            .insert("serve.replay.batch_samples", batch_ns.len() as f64);
        let reps = out.setup_s.len() as f64;
        let setup = |s: &crate::spans::Span| s.pass == 0;
        out.metrics.insert(
            "serve.cost.measure_s",
            rec.sum("serve.cost.measure", setup).0 as f64 / 1e9 / reps,
        );
        out.metrics.insert(
            "hetgraph.build_s",
            rec.sum("hetgraph.build", setup).0 as f64 / 1e9 / reps,
        );
    }
}

/// Span names of the timed stages, in execution order (the NA sim last).
const STAGES: [&str; 6] = [
    "core.matching",
    "core.backbone",
    "core.partition",
    "core.subgraphs",
    "core.schedule",
    "accel.na_sim",
];

/// `Restructurer::restructure_with` for a non-recursive restructurer,
/// one public call per stage, each in its own span.
fn restructure_staged(
    rec: &mut Recorder,
    r: &Restructurer,
    ws: &mut Workspace,
    g: &BipartiteGraph,
    key: Option<usize>,
) {
    rec.time("core.matching", key, |_| match r.matcher_kind() {
        MatcherKind::Fifo => {
            fifo_matching_into(g, &mut ws.matching, &mut ws.match_scratch);
        }
        MatcherKind::HopcroftKarp => {
            hopcroft_karp_into(g, &mut ws.matching, &mut ws.match_scratch);
        }
        MatcherKind::Greedy => greedy_matching_into(g, &mut ws.matching),
    });
    rec.time("core.backbone", key, |_| {
        Backbone::select_into(
            g,
            &ws.matching,
            r.strategy_kind(),
            &mut ws.backbone,
            &mut ws.match_scratch,
        )
    });
    rec.time("core.partition", key, |_| {
        VertexPartition::from_backbone_into(g, &ws.backbone, &mut ws.partition)
    });
    rec.time("core.subgraphs", key, |_| {
        RestructuredSubgraphs::generate_into(
            g,
            &ws.backbone,
            &mut ws.subgraphs,
            &mut ws.recouple_scratch,
        )
    });
    rec.time("core.schedule", key, |_| {
        EdgeSchedule::restructured_into(&ws.subgraphs, &mut ws.edges)
    });
}

//! The frontend pipeline: Decoupler → Recoupler, overlapped with the
//! host accelerator.
//!
//! "They operate concurrently and share the memory controller …
//! GDR-HGNN continuously receives and restructures the next semantic
//! graph" (§4.3): while the accelerator executes semantic graph *i*, the
//! frontend restructures graph *i+1*, so only non-overlapped frontend
//! cycles are exposed.

use gdr_core::schedule::EdgeSchedule;
use gdr_core::workspace::Workspace;
use gdr_hetgraph::{BipartiteGraph, GdrError, GdrResult};
use gdr_memsim::hbm::MemRequest;

use crate::config::FrontendConfig;
use crate::decoupler::{Decoupler, DecouplerStats};
use crate::recoupler::{Recoupler, RecouplerStats};

/// Per-semantic-graph frontend result.
#[derive(Debug, Clone)]
pub struct GraphResult {
    /// Restructured edge schedule for the accelerator.
    pub schedule: EdgeSchedule,
    /// Frontend cycles (Decoupler + Recoupler, themselves pipelined).
    pub cycles: u64,
    /// Matching size found by decoupling.
    pub matching_size: usize,
    /// Backbone size selected by recoupling.
    pub backbone_size: usize,
    /// DRAM traffic of the frontend for this graph.
    pub requests: Vec<MemRequest>,
    /// Decoupler counters.
    pub decoupler_stats: DecouplerStats,
    /// Recoupler counters.
    pub recoupler_stats: RecouplerStats,
}

/// The complete frontend run over a dataset's semantic graphs.
#[derive(Debug, Clone)]
pub struct FrontendRun {
    per_graph: Vec<GraphResult>,
}

impl FrontendRun {
    /// Aggregates per-graph results (input order) into a run. This is
    /// the adapter between the streaming [`crate::session::Session`] API
    /// and the batch totals below.
    pub fn from_results(per_graph: Vec<GraphResult>) -> Self {
        Self { per_graph }
    }

    /// Per-graph results in input order.
    pub fn per_graph(&self) -> &[GraphResult] {
        &self.per_graph
    }

    /// The restructured schedules, index-aligned with the input graphs,
    /// borrowed from the per-graph results. Collect into
    /// `Vec<&EdgeSchedule>` to feed an accelerator — no edge lists are
    /// cloned.
    pub fn schedules(&self) -> impl ExactSizeIterator<Item = &EdgeSchedule> + '_ {
        self.per_graph.iter().map(|g| &g.schedule)
    }

    /// Sum of frontend cycles over all graphs (un-overlapped).
    pub fn total_cycles(&self) -> u64 {
        self.per_graph.iter().map(|g| g.cycles).sum()
    }

    /// Total frontend DRAM bytes.
    pub fn total_bytes(&self) -> u64 {
        self.per_graph
            .iter()
            .flat_map(|g| g.requests.iter())
            .map(|r| r.bytes as u64)
            .sum()
    }

    /// Total matching size found by decoupling, summed over graphs.
    pub fn total_matching(&self) -> usize {
        self.per_graph.iter().map(|g| g.matching_size).sum()
    }

    /// Total backbone size selected by recoupling, summed over graphs.
    pub fn total_backbone(&self) -> usize {
        self.per_graph.iter().map(|g| g.backbone_size).sum()
    }

    /// The run's aggregate statistics as stable `(key, value)` pairs, in
    /// the order the bench schema serializes them. This is how a
    /// [`crate::session::Session`]'s results surface in platform reports:
    /// the combined system forwards these into its `PlatformRun::extra`.
    pub fn summary_metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("frontend_graphs", self.per_graph.len() as f64),
            ("frontend_cycles", self.total_cycles() as f64),
            ("frontend_bytes", self.total_bytes() as f64),
            ("frontend_matching", self.total_matching() as f64),
            ("frontend_backbone", self.total_backbone() as f64),
        ]
    }

    /// Retires the run, returning every per-graph DRAM request log's
    /// storage to `ws`'s request pool. Replay-heavy callers (the serving
    /// cost model re-runs the restructuring pass per dataset) recycle the
    /// retired run before the next replay so the logs stop allocating at
    /// steady state; callers that keep runs alive simply drop them as
    /// before.
    pub fn recycle_into(self, ws: &mut Workspace) {
        for g in self.per_graph {
            ws.recycle_request_log(g.requests);
        }
    }

    /// Frontend cycles left exposed when overlapped with an accelerator
    /// that spends `accel_cycles_per_graph[i]` on graph *i*.
    ///
    /// The restructured topology buffers through HBM (§4.3's shared
    /// memory controller), so the two stages form an *elastic* pipeline:
    /// only the first restructuring is on the critical path, plus
    /// whatever part of the total frontend work the accelerator cannot
    /// absorb while executing everything but its last graph.
    ///
    /// # Errors
    ///
    /// Returns [`GdrError::LengthMismatch`] if the slice length does not
    /// match the number of graphs — the overlap accounting is meaningless
    /// unless exactly one accelerator time is supplied per semantic graph.
    pub fn exposed_cycles(&self, accel_cycles_per_graph: &[u64]) -> GdrResult<u64> {
        GdrError::check_aligned(
            "accelerator times",
            self.per_graph.len(),
            accel_cycles_per_graph.len(),
        )?;
        if self.per_graph.is_empty() {
            return Ok(0);
        }
        let first = self.per_graph.first().map(|g| g.cycles).unwrap_or(0);
        let total_fc = self.total_cycles();
        let total_accel: u64 = accel_cycles_per_graph.iter().sum();
        let absorbable =
            total_accel.saturating_sub(accel_cycles_per_graph.last().copied().unwrap_or(0));
        Ok(first.max(total_fc.saturating_sub(absorbable)))
    }
}

/// Decoupler + Recoupler pipeline. [`crate::session::Session`] drives it
/// over a set of semantic graphs.
///
/// # Examples
///
/// ```
/// use gdr_hetgraph::datasets::Dataset;
/// use gdr_frontend::pipeline::FrontendPipeline;
/// use gdr_frontend::config::FrontendConfig;
/// use gdr_frontend::Workspace;
///
/// let het = Dataset::Acm.build_scaled(1, 0.03);
/// let pipeline = FrontendPipeline::new(FrontendConfig::default());
/// let mut ws = Workspace::new();
/// for g in het.all_semantic_graphs() {
///     let r = pipeline.process_with(&mut ws, &g);
///     assert!(r.schedule.is_permutation_of(&g));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FrontendPipeline {
    decoupler: Decoupler,
    recoupler: Recoupler,
}

impl FrontendPipeline {
    /// Creates the pipeline from one shared configuration.
    pub fn new(cfg: FrontendConfig) -> Self {
        Self {
            decoupler: Decoupler::new(cfg.clone()),
            recoupler: Recoupler::new(cfg),
        }
    }

    /// Restructures one semantic graph through a reusable [`Workspace`]:
    /// Decoupler and Recoupler intermediates (matching tables, BFS
    /// arrays, the backbone) are rebuilt in place, and the DRAM request
    /// log draws its storage from the workspace's request pool (retire
    /// whole runs back into it with [`FrontendRun::recycle_into`]). At
    /// steady state a graph still allocates its retained schedule and
    /// the Decoupler's modeled hash table; the Recoupler counts its four
    /// class FIFOs and builds no partition or subgraphs.
    pub fn process_with(&self, ws: &mut Workspace, g: &BipartiteGraph) -> GraphResult {
        let dec = self.decoupler.decouple_with(ws, g);
        let matching_size = ws.matching.size();
        let rec = self.recoupler.recouple_with(ws, g);
        let mut requests = dec.requests;
        let mut rec_requests = rec.requests;
        requests.append(&mut rec_requests);
        // the Recoupler's log buffer is spent; hand its storage back
        ws.recycle_request_log(rec_requests);
        // Decoupler and Recoupler are themselves pipelined (Fig. 4): the
        // Recoupler consumes candidates while the Decoupler works on the
        // remainder, so the stage time is dominated by the slower of the
        // two plus a drain term.
        let cycles = dec.cycles.max(rec.cycles) + dec.cycles.min(rec.cycles) / 8;
        GraphResult {
            schedule: rec.schedule,
            cycles,
            matching_size,
            backbone_size: ws.backbone.len(),
            requests,
            decoupler_stats: dec.stats,
            recoupler_stats: rec.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use gdr_hetgraph::datasets::Dataset;

    fn run() -> (Vec<BipartiteGraph>, FrontendRun) {
        let het = Dataset::Imdb.build_scaled(1, 0.05);
        let graphs = het.all_semantic_graphs();
        let run = Session::new(FrontendConfig::default(), &graphs).process();
        (graphs, run)
    }

    #[test]
    fn schedules_align_and_permute() {
        let (graphs, run) = run();
        let schedules: Vec<&EdgeSchedule> = run.schedules().collect();
        assert_eq!(schedules.len(), graphs.len());
        for (g, s) in graphs.iter().zip(&schedules) {
            assert!(s.is_permutation_of(g), "{}", g.name());
        }
    }

    #[test]
    fn totals_accumulate() {
        let (_, run) = run();
        assert!(run.total_cycles() > 0);
        assert!(run.total_bytes() > 0);
        assert_eq!(
            run.total_cycles(),
            run.per_graph().iter().map(|g| g.cycles).sum::<u64>()
        );
    }

    #[test]
    fn summary_metrics_match_totals() {
        let (_, run) = run();
        let m = run.summary_metrics();
        let keys: Vec<&str> = m.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            [
                "frontend_graphs",
                "frontend_cycles",
                "frontend_bytes",
                "frontend_matching",
                "frontend_backbone"
            ]
        );
        assert_eq!(m[1].1, run.total_cycles() as f64);
        assert_eq!(m[2].1, run.total_bytes() as f64);
        assert!(run.total_matching() > 0 && run.total_backbone() > 0);
    }

    #[test]
    fn workspace_reuse_matches_fresh_processing() {
        // The hardware path through one long-lived workspace must be
        // indistinguishable from transient-workspace processing, graph
        // by graph — schedules, cycles, requests, and both counter sets.
        let het = Dataset::Dblp.build_scaled(3, 0.05);
        let graphs = het.all_semantic_graphs();
        let pipeline = FrontendPipeline::new(FrontendConfig::default());
        let mut ws = Workspace::new();
        for g in &graphs {
            let reused = pipeline.process_with(&mut ws, g);
            let fresh = pipeline.process_with(&mut Workspace::new(), g);
            assert_eq!(reused.schedule, fresh.schedule, "{}", g.name());
            assert_eq!(reused.cycles, fresh.cycles, "{}", g.name());
            assert_eq!(reused.matching_size, fresh.matching_size);
            assert_eq!(reused.backbone_size, fresh.backbone_size);
            assert_eq!(reused.requests, fresh.requests, "{}", g.name());
            assert_eq!(reused.decoupler_stats, fresh.decoupler_stats);
            assert_eq!(reused.recoupler_stats, fresh.recoupler_stats);
        }
    }

    #[test]
    fn recycled_runs_feed_the_request_pool_and_replays_stay_identical() {
        let het = Dataset::Acm.build_scaled(2, 0.05);
        let graphs = het.all_semantic_graphs();
        let pipeline = FrontendPipeline::new(FrontendConfig::default());
        let mut ws = Workspace::new();
        let first = FrontendRun::from_results(
            graphs
                .iter()
                .map(|g| pipeline.process_with(&mut ws, g))
                .collect(),
        );
        let first_requests: Vec<Vec<_>> = first
            .per_graph()
            .iter()
            .map(|g| g.requests.clone())
            .collect();
        first.recycle_into(&mut ws);
        assert!(!ws.request_pool.is_empty(), "retired logs land in the pool");
        let pooled = ws.request_pool.len();
        // the replay drains the pool for its own logs and produces the
        // byte-identical request streams
        let second = FrontendRun::from_results(
            graphs
                .iter()
                .map(|g| pipeline.process_with(&mut ws, g))
                .collect(),
        );
        for (a, b) in first_requests.iter().zip(second.per_graph()) {
            assert_eq!(a, &b.requests, "pooled storage must not change results");
        }
        second.recycle_into(&mut ws);
        assert_eq!(
            ws.request_pool.len(),
            pooled,
            "steady state: the replay reuses exactly the pooled vectors"
        );
    }

    #[test]
    fn overlap_hides_frontend_behind_fast_accelerator() {
        let (_, run) = run();
        let n = run.per_graph().len();
        // accelerator far slower than the frontend: only graph 0 exposed
        let slow = vec![u64::MAX / 16; n];
        assert_eq!(
            run.exposed_cycles(&slow).unwrap(),
            run.per_graph()[0].cycles
        );
        // accelerator instant: everything exposed
        let instant = vec![0; n];
        assert_eq!(run.exposed_cycles(&instant).unwrap(), run.total_cycles());
    }

    #[test]
    fn backbone_never_exceeds_double_matching() {
        // vertex cover from matching: |cover| <= 2|matching| always, and
        // <= |matching| for König (the paper heuristic sits in between
        // before fixups).
        let (_, run) = run();
        for g in run.per_graph() {
            assert!(g.backbone_size <= 2 * g.matching_size.max(1));
        }
    }

    #[test]
    fn exposed_cycles_length_mismatch_is_err() {
        let (_, run) = run();
        let n = run.per_graph().len();
        assert_ne!(n, 2, "test wants a real mismatch");
        let err = run.exposed_cycles(&[1, 2]).unwrap_err();
        assert_eq!(err, GdrError::length_mismatch("accelerator times", n, 2));
        // empty run, empty times: trivially zero exposure, not an error
        let empty = FrontendRun::from_results(Vec::new());
        assert_eq!(empty.exposed_cycles(&[]).unwrap(), 0);
    }
}

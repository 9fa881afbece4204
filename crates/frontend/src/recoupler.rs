//! Cycle-level Recoupler model (Fig. 6).
//!
//! The Backbone Searcher consumes candidates from the Candidate Buffer,
//! reads their adjacency from the Src/Dst adjacency buffers, checks
//! neighbors against the Matching Bm., and sorts vertices into the four
//! class FIFOs (`Src_in`, `Src_out`, `Dst_in`, `Dst_out`). The Graph
//! Generator drains those FIFOs into the three restructured subgraphs.
//!
//! The model charges the class FIFOs' pushes and stalls from the four
//! class sizes, and emits the three subgraphs' execution schedule
//! straight from the backbone
//! ([`EdgeSchedule::from_backbone_into`]), without building the
//! partition or the subgraphs.

use gdr_core::backbone::{Backbone, BackboneStrategy};
use gdr_core::schedule::EdgeSchedule;
use gdr_core::workspace::Workspace;
use gdr_hetgraph::BipartiteGraph;
use gdr_memsim::hbm::MemRequest;

use crate::config::FrontendConfig;

/// Micro-operation counters of one recoupling run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecouplerStats {
    /// Candidates examined by the Backbone Searcher.
    pub candidates_examined: u64,
    /// Neighbor lookups against the Matching Bm.
    pub neighbor_checks: u64,
    /// Pushes into the four class FIFOs.
    pub class_pushes: u64,
    /// Class-FIFO back-pressure events (FIFO full, drained next cycle).
    pub fifo_stalls: u64,
    /// Edges emitted by the Graph Generator.
    pub edges_emitted: u64,
    /// Adjacency-buffer overflow fetches served from DRAM.
    pub adj_spill_fetches: u64,
}

/// Outcome of recoupling one semantic graph in hardware
/// ([`Recoupler::recouple_with`]): the owned products — the schedule
/// handed to the accelerator, cycles, counters, DRAM requests — while
/// the selected backbone lands in the workspace's `backbone` slot for
/// in-place reuse by the next graph.
#[derive(Debug, Clone)]
pub struct RecoupleOutcome {
    /// The restructured edge schedule handed to the accelerator.
    pub schedule: EdgeSchedule,
    /// Cycle count of the run.
    pub cycles: u64,
    /// Micro-operation counters.
    pub stats: RecouplerStats,
    /// DRAM traffic (adjacency overflow fetches, subgraph write-out).
    pub requests: Vec<MemRequest>,
}

/// The Recoupler model.
///
/// # Examples
///
/// ```
/// use gdr_hetgraph::BipartiteGraph;
/// use gdr_frontend::config::FrontendConfig;
/// use gdr_frontend::decoupler::Decoupler;
/// use gdr_frontend::recoupler::Recoupler;
/// use gdr_frontend::Workspace;
/// let g = BipartiteGraph::from_pairs("g", 3, 3, &[(0, 0), (1, 0), (2, 2)])?;
/// let cfg = FrontendConfig::default();
/// let mut ws = Workspace::new();
/// Decoupler::new(cfg.clone()).decouple_with(&mut ws, &g);
/// let rec = Recoupler::new(cfg).recouple_with(&mut ws, &g);
/// assert!(ws.backbone.covers_all_edges(&g));
/// assert!(rec.schedule.is_permutation_of(&g));
/// # Ok::<(), gdr_hetgraph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Recoupler {
    cfg: FrontendConfig,
}

/// Restructured-topology write-out region.
const OUT_BASE: u64 = 0xF000_0000;

impl Recoupler {
    /// Creates a Recoupler with the given configuration.
    pub fn new(cfg: FrontendConfig) -> Self {
        Self { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FrontendConfig {
        &self.cfg
    }

    /// Runs graph recoupling through a reusable [`Workspace`]: consumes
    /// the matching left in `ws.matching` by
    /// [`Decoupler::decouple_with`](crate::decoupler::Decoupler::decouple_with),
    /// rebuilds `ws.backbone` in place, and returns the owned products:
    /// the restructured subgraphs' execution schedule, cycles, counters
    /// and DRAM requests. `ws.partition` and `ws.subgraphs` are left
    /// untouched. The request log draws its storage from the
    /// workspace's request pool; the schedule is the one allocation per
    /// run, and the four class FIFOs are counted, not built.
    pub fn recouple_with(&self, ws: &mut Workspace, g: &BipartiteGraph) -> RecoupleOutcome {
        let mut requests = ws.take_request_log();
        let Workspace {
            matching,
            match_scratch,
            backbone,
            ..
        } = ws;
        let mut stats = RecouplerStats::default();
        debug_assert!(requests.is_empty(), "pooled logs arrive cleared");

        // ---- Backbone Searcher (Algorithm 2 through the datapath) ----
        // The functional selection is delegated to gdr-core (same
        // algorithm); here we charge the hardware events it implies.
        Backbone::select_into(
            g,
            matching,
            BackboneStrategy::Paper,
            backbone,
            match_scratch,
        );
        for s in 0..g.src_count() {
            if matching.src_matched(s) {
                stats.candidates_examined += 1;
                stats.neighbor_checks += g.out_degree(s) as u64;
            }
        }
        for d in 0..g.dst_count() {
            if matching.dst_matched(d) {
                stats.candidates_examined += 1;
                stats.neighbor_checks += g.in_degree(d) as u64;
            }
        }
        // Adjacency working set beyond the on-chip buffer refetches from DRAM.
        let adj_entries = 2 * g.edge_count() as u64; // src + dst halves
        let adj_capacity = self.cfg.adj_capacity_edges() as u64;
        if adj_entries > adj_capacity {
            stats.adj_spill_fetches = adj_entries - adj_capacity;
            let bytes = stats.adj_spill_fetches * 4;
            let mut off = 0;
            while off < bytes {
                let chunk = (bytes - off).min(256) as u32;
                requests.push(MemRequest::read(OUT_BASE + 0x0800_0000 + off, chunk));
                off += chunk as u64;
            }
        }

        // ---- Class FIFOs ----
        // Every classified vertex is pushed into its class FIFO once, and
        // only a stall drains one: a push into a full FIFO stalls one
        // cycle while the Graph Generator drains an entry. So a class of
        // `n` vertices fills its `entries` (at least 1) slots, then
        // stalls once per further push.
        let entries = self.cfg.class_fifo_entries() as u64;
        for n in class_sizes(g, backbone) {
            stats.class_pushes += n;
            stats.fifo_stalls += n.saturating_sub(entries);
        }

        // ---- Graph Generator ----
        let mut edges = Vec::with_capacity(g.edge_count());
        EdgeSchedule::from_backbone_into(g, backbone, &mut edges);
        let schedule = EdgeSchedule::new("restructured", edges);
        stats.edges_emitted = schedule.len() as u64;
        // restructured topology streams back to HBM for the accelerator
        let out_bytes = stats.edges_emitted * 8;
        let mut off = 0;
        while off < out_bytes {
            let chunk = (out_bytes - off).min(256) as u32;
            requests.push(MemRequest::write(OUT_BASE + off, chunk));
            off += chunk as u64;
        }

        // Cycle model: neighbor checks and edge emission retire
        // `dispatch_width` per cycle; stalls and spills serialize.
        let w = self.cfg.dispatch_width as u64;
        let cycles = stats.neighbor_checks.div_ceil(w)
            + stats.edges_emitted.div_ceil(w)
            + stats.class_pushes.div_ceil(w)
            + stats.fifo_stalls
            + stats.adj_spill_fetches.div_ceil(w);

        RecoupleOutcome {
            schedule,
            cycles,
            stats,
            requests,
        }
    }
}

/// Sizes of the four vertex classes `[Src_in, Src_out, Dst_in, Dst_out]`
/// of `g` against `b`, isolated vertices excluded, as
/// [`VertexPartition::from_backbone_into`](gdr_core::recouple::VertexPartition::from_backbone_into)
/// classifies them.
fn class_sizes(g: &BipartiteGraph, b: &Backbone) -> [u64; 4] {
    let mut sizes = [0; 4];
    for s in (0..g.src_count()).filter(|&s| g.out_degree(s) > 0) {
        sizes[usize::from(!b.src_in(s))] += 1;
    }
    for d in (0..g.dst_count()).filter(|&d| g.in_degree(d) > 0) {
        sizes[2 + usize::from(!b.dst_in(d))] += 1;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use crate::decoupler::Decoupler;
    use gdr_core::recouple::{RestructuredSubgraphs, VertexPartition};
    use gdr_core::workspace::RecoupleScratch;
    use gdr_hetgraph::datasets::Dataset;
    use gdr_hetgraph::gen::PowerLawConfig;

    /// Decouples and recouples a generated graph on a fresh workspace:
    /// the graph, the workspace holding the backbone and subgraphs, and
    /// the Recoupler's outcome.
    fn pipeline(seed: u64, cfg: FrontendConfig) -> (BipartiteGraph, Workspace, RecoupleOutcome) {
        let g = PowerLawConfig::new(300, 280, 1400)
            .dst_alpha(0.9)
            .generate("g", seed);
        let mut ws = Workspace::new();
        Decoupler::new(cfg.clone()).decouple_with(&mut ws, &g);
        let rec = Recoupler::new(cfg).recouple_with(&mut ws, &g);
        (g, ws, rec)
    }

    #[test]
    fn produces_valid_restructuring() {
        for seed in 0..6 {
            let (g, ws, rec) = pipeline(seed, FrontendConfig::default());
            assert!(ws.backbone.covers_all_edges(&g), "seed {seed}");
            assert!(rec.schedule.is_permutation_of(&g), "seed {seed}");
            assert_eq!(rec.schedule.len(), g.edge_count());
            assert_eq!(rec.stats.edges_emitted as usize, g.edge_count());
        }
    }

    /// The Recoupler as first modeled, kept as the reference for the
    /// counted class FIFOs: the four-way partition pushed vertex by
    /// vertex through four bounded FIFOs (a push into a full one stalls,
    /// pops an entry and pushes again), then the three subgraphs
    /// generated and walked. Reads the backbone `recouple_with` left in
    /// `ws`.
    fn reference_recouple(
        cfg: &FrontendConfig,
        ws: &Workspace,
        g: &BipartiteGraph,
    ) -> RecoupleOutcome {
        let mut stats = RecouplerStats::default();
        let mut requests = Vec::new();
        for s in (0..g.src_count()).filter(|&s| ws.matching.src_matched(s)) {
            stats.candidates_examined += 1;
            stats.neighbor_checks += g.out_degree(s) as u64;
        }
        for d in (0..g.dst_count()).filter(|&d| ws.matching.dst_matched(d)) {
            stats.candidates_examined += 1;
            stats.neighbor_checks += g.in_degree(d) as u64;
        }
        let adj_entries = 2 * g.edge_count() as u64;
        let adj_capacity = cfg.adj_capacity_edges() as u64;
        if adj_entries > adj_capacity {
            stats.adj_spill_fetches = adj_entries - adj_capacity;
            let bytes = stats.adj_spill_fetches * 4;
            for off in (0..bytes).step_by(256) {
                let chunk = (bytes - off).min(256) as u32;
                requests.push(MemRequest::read(OUT_BASE + 0x0800_0000 + off, chunk));
            }
        }
        let mut partition = VertexPartition::default();
        VertexPartition::from_backbone_into(g, &ws.backbone, &mut partition);
        let entries = cfg.class_fifo_entries();
        for class in [
            partition.src_in(),
            partition.src_out(),
            partition.dst_in(),
            partition.dst_out(),
        ] {
            let mut fifo = VecDeque::with_capacity(entries);
            for &v in class {
                stats.class_pushes += 1;
                if fifo.len() == entries {
                    stats.fifo_stalls += 1;
                    fifo.pop_front();
                }
                fifo.push_back(v);
            }
        }
        let mut subgraphs = RestructuredSubgraphs::default();
        RestructuredSubgraphs::generate_into(g, &ws.backbone, &mut subgraphs, &mut RecoupleScratch);
        let mut edges = Vec::new();
        EdgeSchedule::restructured_into(&subgraphs, &mut edges);
        let schedule = EdgeSchedule::new("restructured", edges);
        stats.edges_emitted = schedule.len() as u64;
        let out_bytes = stats.edges_emitted * 8;
        for off in (0..out_bytes).step_by(256) {
            let chunk = (out_bytes - off).min(256) as u32;
            requests.push(MemRequest::write(OUT_BASE + off, chunk));
        }
        let w = cfg.dispatch_width as u64;
        let cycles = stats.neighbor_checks.div_ceil(w)
            + stats.edges_emitted.div_ceil(w)
            + stats.class_pushes.div_ceil(w)
            + stats.fifo_stalls
            + stats.adj_spill_fetches.div_ceil(w);
        RecoupleOutcome {
            schedule,
            cycles,
            stats,
            requests,
        }
    }

    /// Recouples `g` on a fresh workspace and asserts the outcome equals
    /// [`reference_recouple`]'s; returns the FIFO stalls.
    fn assert_matches_reference(cfg: &FrontendConfig, g: &BipartiteGraph, ctx: &str) -> u64 {
        let mut ws = Workspace::new();
        Decoupler::new(cfg.clone()).decouple_with(&mut ws, g);
        let rec = Recoupler::new(cfg.clone()).recouple_with(&mut ws, g);
        let want = reference_recouple(cfg, &ws, g);
        assert_eq!(rec.stats, want.stats, "stats: {ctx}");
        assert_eq!(rec.cycles, want.cycles, "cycles: {ctx}");
        assert_eq!(rec.schedule, want.schedule, "schedule: {ctx}");
        assert_eq!(rec.requests, want.requests, "requests: {ctx}");
        rec.stats.fifo_stalls
    }

    #[test]
    fn counted_class_fifos_match_the_fifo_walk() {
        let small = FrontendConfig {
            fifo_bytes: 64, // 4 entries per class FIFO
            ..FrontendConfig::default()
        };
        let mut stalls = 0;
        for cfg in [FrontendConfig::default(), small] {
            for seed in 0..6 {
                let g = PowerLawConfig::new(300, 280, 1400)
                    .dst_alpha(0.9)
                    .generate("g", seed);
                let ctx = format!("seed {seed}, {} B of FIFOs", cfg.fifo_bytes);
                stalls += assert_matches_reference(&cfg, &g, &ctx);
            }
            for dataset in Dataset::ALL {
                for g in dataset.build_scaled(42, 0.1).all_semantic_graphs() {
                    let ctx = format!(
                        "{} {}, {} B of FIFOs",
                        dataset.name(),
                        g.name(),
                        cfg.fifo_bytes
                    );
                    stalls += assert_matches_reference(&cfg, &g, &ctx);
                }
            }
        }
        assert!(stalls > 0, "the net must stall a class FIFO");
    }

    #[test]
    fn cycles_and_checks_scale_with_edges() {
        let (g, _, rec) = pipeline(1, FrontendConfig::default());
        assert!(rec.stats.neighbor_checks >= g.edge_count() as u64 / 2);
        assert!(rec.cycles > 0);
    }

    #[test]
    fn small_class_fifos_stall_but_stay_correct() {
        let cfg = FrontendConfig {
            fifo_bytes: 64, // 4 entries per class FIFO
            ..FrontendConfig::default()
        };
        let (g, _, rec) = pipeline(2, cfg);
        assert!(rec.stats.fifo_stalls > 0);
        assert!(rec.schedule.is_permutation_of(&g));
    }

    #[test]
    fn adjacency_overflow_fetches_from_dram() {
        let cfg = FrontendConfig {
            adj_buffer_bytes: 1024, // 256 edges
            ..FrontendConfig::default()
        };
        let (_, _, rec) = pipeline(3, cfg);
        assert!(rec.stats.adj_spill_fetches > 0);
        assert!(rec.requests.iter().any(|r| !r.write));
    }

    #[test]
    fn restructured_topology_written_back() {
        let (g, _, rec) = pipeline(4, FrontendConfig::default());
        let written: u64 = rec
            .requests
            .iter()
            .filter(|r| r.write)
            .map(|r| r.bytes as u64)
            .sum();
        assert_eq!(written, g.edge_count() as u64 * 8);
    }
}

//! Top-level graph restructuring driver (decoupling + recoupling).
//!
//! [`Restructurer`] wires the pieces together exactly as the GDR-HGNN
//! frontend does: decouple (maximum matching) → select backbone → generate
//! the three subgraphs → emit a locality-friendly edge schedule. It also
//! implements the paper's proposed extension of applying the method
//! *recursively* to subgraphs ("…can be applied to subgraphs to generate
//! smaller sub-subgraphs, thereby exploiting data locality in a smaller
//! on-chip buffer", §4.3).

use gdr_hetgraph::BipartiteGraph;

use crate::backbone::{Backbone, BackboneStrategy};
use crate::matching::{
    fifo_matching_into, fifo_matching_with_stats, greedy_matching, greedy_matching_into,
    hopcroft_karp, hopcroft_karp_into, DecouplingStats, Matching,
};
use crate::recouple::{RestructuredSubgraphs, SubgraphKind, VertexPartition};
use crate::schedule::EdgeSchedule;
use crate::workspace::Workspace;

/// Which matching engine performs graph decoupling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MatcherKind {
    /// The paper's FIFO-driven Algorithm 1 (what the hardware executes).
    #[default]
    Fifo,
    /// Hopcroft-Karp, the engine of [`Restructurer::new`].
    HopcroftKarp,
    /// One-pass greedy (maximal only) — decoupling-quality ablation.
    Greedy,
}

impl std::fmt::Display for MatcherKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MatcherKind::Fifo => "fifo",
            MatcherKind::HopcroftKarp => "hopcroft-karp",
            MatcherKind::Greedy => "greedy",
        };
        f.write_str(s)
    }
}

/// Configuration of the restructuring method.
///
/// # Examples
///
/// ```
/// use gdr_core::restructure::Restructurer;
/// use gdr_core::backbone::BackboneStrategy;
/// let r = Restructurer::new()
///     .backbone_strategy(BackboneStrategy::KonigExact)
///     .recursion_depth(1);
/// assert_eq!(r.recursion_depth_value(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Restructurer {
    matcher: MatcherKind,
    strategy: BackboneStrategy,
    recursion_depth: usize,
    min_recurse_edges: usize,
}

impl Default for Restructurer {
    fn default() -> Self {
        Self::new()
    }
}

impl Restructurer {
    /// Creates a restructurer with the defaults: Hopcroft-Karp matcher
    /// (same maximum matching as the paper's Algorithm 1, but `O(E·√V)`
    /// instead of worst-case quadratic on dense semantic graphs — the
    /// hardware's concurrent searches behave like its phases), paper
    /// backbone heuristic, no recursion.
    pub fn new() -> Self {
        Self {
            matcher: MatcherKind::HopcroftKarp,
            strategy: BackboneStrategy::Paper,
            recursion_depth: 0,
            min_recurse_edges: 64,
        }
    }

    /// Sets the matching engine.
    pub fn matcher(mut self, matcher: MatcherKind) -> Self {
        self.matcher = matcher;
        self
    }

    /// Sets the backbone selection strategy.
    pub fn backbone_strategy(mut self, strategy: BackboneStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Applies the method recursively to subgraphs, `depth` extra levels.
    pub fn recursion_depth(mut self, depth: usize) -> Self {
        self.recursion_depth = depth;
        self
    }

    /// Subgraphs below this edge count are not recursed into.
    pub fn min_recurse_edges(mut self, min_edges: usize) -> Self {
        self.min_recurse_edges = min_edges;
        self
    }

    /// Configured recursion depth.
    pub fn recursion_depth_value(&self) -> usize {
        self.recursion_depth
    }

    /// Configured matcher.
    pub fn matcher_kind(&self) -> MatcherKind {
        self.matcher
    }

    /// Configured backbone strategy.
    pub fn strategy_kind(&self) -> BackboneStrategy {
        self.strategy
    }

    fn run_matcher(&self, g: &BipartiteGraph) -> (Matching, DecouplingStats) {
        match self.matcher {
            MatcherKind::Fifo => fifo_matching_with_stats(g),
            MatcherKind::HopcroftKarp => (hopcroft_karp(g), DecouplingStats::default()),
            MatcherKind::Greedy => (greedy_matching(g), DecouplingStats::default()),
        }
    }

    /// Restructures one semantic graph.
    ///
    /// This is the allocating entry point: it builds a transient
    /// [`Workspace`], runs [`Restructurer::restructure_with`], and moves
    /// the results out — so it costs exactly one restructuring pass
    /// worth of allocations. Callers restructuring many graphs should
    /// hold a workspace and call `restructure_with` directly.
    pub fn restructure(&self, g: &BipartiteGraph) -> Restructured {
        let mut ws = Workspace::new();
        let decoupling_stats = self.restructure_with(&mut ws, g);
        let name = if self.recursion_depth == 0 {
            "restructured"
        } else {
            "restructured-recursive"
        };
        Restructured {
            matching: ws.matching,
            backbone: ws.backbone,
            partition: ws.partition,
            subgraphs: ws.subgraphs,
            schedule: EdgeSchedule::new(name, ws.edges),
            decoupling_stats,
        }
    }

    /// Restructures one semantic graph **into a reusable workspace**:
    /// decouple → select backbone → partition → generate subgraphs →
    /// emit the schedule, with every intermediate rebuilt in place. At
    /// steady state (buffers grown to the largest graph seen) the pass
    /// performs zero heap allocation; results are byte-identical to
    /// [`Restructurer::restructure`], which the 48-seed property net in
    /// `crates/core/tests/workspace_properties.rs` pins.
    ///
    /// On return the workspace holds the full result: `ws.matching`,
    /// `ws.backbone`, `ws.partition`, `ws.subgraphs` (including
    /// [`RestructuredSubgraphs::cover_violations`]), and the schedule
    /// edge order in `ws.edges`. The returned [`DecouplingStats`] carry
    /// the FIFO matcher's work counters (zero for the other engines, as
    /// in the allocating path).
    ///
    /// Recursive refinement (`recursion_depth > 0`) reuses the workspace
    /// for the top level; the recursion into sub-subgraphs allocates per
    /// level, exactly as before — it is an offline schedule-quality
    /// extension, not the streaming hot path.
    pub fn restructure_with(&self, ws: &mut Workspace, g: &BipartiteGraph) -> DecouplingStats {
        let stats = match self.matcher {
            MatcherKind::Fifo => fifo_matching_into(g, &mut ws.matching, &mut ws.match_scratch),
            MatcherKind::HopcroftKarp => {
                hopcroft_karp_into(g, &mut ws.matching, &mut ws.match_scratch);
                DecouplingStats::default()
            }
            MatcherKind::Greedy => {
                greedy_matching_into(g, &mut ws.matching);
                DecouplingStats::default()
            }
        };
        Backbone::select_into(
            g,
            &ws.matching,
            self.strategy,
            &mut ws.backbone,
            &mut ws.match_scratch,
        );
        VertexPartition::from_backbone_into(g, &ws.backbone, &mut ws.partition);
        RestructuredSubgraphs::generate_into(
            g,
            &ws.backbone,
            &mut ws.subgraphs,
            &mut ws.recouple_scratch,
        );
        if self.recursion_depth == 0 {
            EdgeSchedule::restructured_into(&ws.subgraphs, &mut ws.edges);
        } else {
            let Workspace {
                subgraphs, edges, ..
            } = ws;
            edges.clear();
            edges.reserve(g.edge_count());
            for (kind, sg) in subgraphs.iter() {
                self.schedule_recursive(kind, sg, self.recursion_depth, edges);
            }
        }
        stats
    }

    fn schedule_recursive(
        &self,
        kind: SubgraphKind,
        sg: &BipartiteGraph,
        depth: usize,
        out: &mut Vec<gdr_hetgraph::Edge>,
    ) {
        if depth == 0 || sg.edge_count() < self.min_recurse_edges {
            out.extend(single_subgraph_schedule(kind, sg));
            return;
        }
        let (m, _) = self.run_matcher(sg);
        let b = Backbone::select(sg, &m, self.strategy);
        let subs = RestructuredSubgraphs::generate(sg, &b);
        for (k2, sg2) in subs.iter() {
            self.schedule_recursive(k2, sg2, depth - 1, out);
        }
    }
}

/// Emits one subgraph's edges in its locality-friendly order (see
/// [`EdgeSchedule::restructured`] for the rationale).
fn single_subgraph_schedule(kind: SubgraphKind, sg: &BipartiteGraph) -> Vec<gdr_hetgraph::Edge> {
    let mut edges = Vec::with_capacity(sg.edge_count());
    match kind {
        SubgraphKind::OutIn => {
            for s in 0..sg.src_count() {
                for &d in sg.out_neighbors(s) {
                    edges.push(gdr_hetgraph::Edge::new(s as u32, d));
                }
            }
        }
        SubgraphKind::InIn | SubgraphKind::InOut => {
            for d in 0..sg.dst_count() {
                for &s in sg.in_neighbors(d) {
                    edges.push(gdr_hetgraph::Edge::new(s, d as u32));
                }
            }
        }
    }
    edges
}

/// The complete result of restructuring one semantic graph.
#[derive(Debug, Clone)]
pub struct Restructured {
    matching: Matching,
    backbone: Backbone,
    partition: VertexPartition,
    subgraphs: RestructuredSubgraphs,
    schedule: EdgeSchedule,
    decoupling_stats: DecouplingStats,
}

impl Restructured {
    /// The maximum matching found by graph decoupling.
    pub fn matching(&self) -> &Matching {
        &self.matching
    }

    /// The selected graph backbone.
    pub fn backbone(&self) -> &Backbone {
        &self.backbone
    }

    /// The four-way vertex partition.
    pub fn partition(&self) -> &VertexPartition {
        &self.partition
    }

    /// The three generated subgraphs.
    pub fn subgraphs(&self) -> &RestructuredSubgraphs {
        &self.subgraphs
    }

    /// Vertex-cover violations seen while generating the subgraphs
    /// (see [`RestructuredSubgraphs::cover_violations`]). Always 0 for
    /// the shipped backbone strategies; a nonzero value in a release
    /// build means the restructuring consumed a broken backbone and the
    /// schedule's locality guarantees do not hold.
    pub fn cover_violations(&self) -> usize {
        self.subgraphs.cover_violations()
    }

    /// The restructured edge schedule (possibly recursively refined).
    pub fn schedule(&self) -> &EdgeSchedule {
        &self.schedule
    }

    /// Work counters from the decoupling engine (FIFO matcher only).
    pub fn decoupling_stats(&self) -> DecouplingStats {
        self.decoupling_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locality::simulate_lru;
    use gdr_hetgraph::gen::PowerLawConfig;

    fn graph(seed: u64) -> BipartiteGraph {
        PowerLawConfig::new(300, 300, 2400)
            .dst_alpha(0.9)
            .generate("g", seed)
    }

    #[test]
    fn default_config_restructures() {
        let g = graph(1);
        let r = Restructurer::new().restructure(&g);
        assert!(r.schedule().is_permutation_of(&g));
        assert!(r.backbone().covers_all_edges(&g));
        assert!(r.matching().is_valid(&g));
        assert_eq!(r.subgraphs().total_edges(), g.edge_count());
    }

    #[test]
    fn fifo_matcher_reports_work_counters() {
        let g = graph(1);
        let r = Restructurer::new()
            .matcher(MatcherKind::Fifo)
            .restructure(&g);
        assert!(r.decoupling_stats().expansions > 0);
        assert!(r.schedule().is_permutation_of(&g));
    }

    #[test]
    fn all_matchers_produce_valid_results() {
        let g = graph(2);
        for m in [
            MatcherKind::Fifo,
            MatcherKind::HopcroftKarp,
            MatcherKind::Greedy,
        ] {
            let r = Restructurer::new().matcher(m).restructure(&g);
            assert!(r.schedule().is_permutation_of(&g), "{m}");
            assert!(r.backbone().covers_all_edges(&g), "{m}");
        }
    }

    #[test]
    fn recursion_keeps_permutation_property() {
        let g = graph(3);
        for depth in 0..=2 {
            let r = Restructurer::new()
                .backbone_strategy(BackboneStrategy::KonigExact)
                .recursion_depth(depth)
                .restructure(&g);
            assert!(
                r.schedule().is_permutation_of(&g),
                "depth {depth} broke the permutation property"
            );
        }
    }

    #[test]
    fn recursion_improves_small_buffer_locality() {
        let g = PowerLawConfig::new(600, 600, 4800)
            .dst_alpha(0.9)
            .generate("g", 4);
        let flat = Restructurer::new()
            .backbone_strategy(BackboneStrategy::KonigExact)
            .restructure(&g);
        let deep = Restructurer::new()
            .backbone_strategy(BackboneStrategy::KonigExact)
            .recursion_depth(2)
            .restructure(&g);
        let tiny_cap = 48;
        let m_flat = simulate_lru(&g, flat.schedule(), tiny_cap).misses();
        let m_deep = simulate_lru(&g, deep.schedule(), tiny_cap).misses();
        // Recursion targets smaller buffers; it must not be much worse and
        // should typically help.
        assert!(
            (m_deep as f64) <= m_flat as f64 * 1.10,
            "recursive {m_deep} vs flat {m_flat}"
        );
    }

    #[test]
    fn builder_accessors() {
        let r = Restructurer::new()
            .matcher(MatcherKind::Greedy)
            .backbone_strategy(BackboneStrategy::GreedyDegree)
            .recursion_depth(3)
            .min_recurse_edges(10);
        assert_eq!(r.matcher_kind(), MatcherKind::Greedy);
        assert_eq!(r.strategy_kind(), BackboneStrategy::GreedyDegree);
        assert_eq!(r.recursion_depth_value(), 3);
    }

    #[test]
    fn display_matcher_names() {
        assert_eq!(MatcherKind::Fifo.to_string(), "fifo");
        assert_eq!(MatcherKind::HopcroftKarp.to_string(), "hopcroft-karp");
        assert_eq!(MatcherKind::Greedy.to_string(), "greedy");
    }

    #[test]
    fn empty_graph_restructures_to_empty() {
        let g = BipartiteGraph::from_pairs("e", 5, 5, &[]).unwrap();
        let r = Restructurer::new().restructure(&g);
        assert!(r.schedule().is_empty());
        assert!(r.backbone().is_empty());
        assert_eq!(r.subgraphs().total_edges(), 0);
    }
}

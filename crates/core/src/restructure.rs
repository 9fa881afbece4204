//! Top-level graph restructuring driver (decoupling + recoupling).
//!
//! [`Restructurer`] wires the pieces together exactly as the GDR-HGNN
//! frontend does: decouple (maximum matching) → select backbone → emit the
//! locality-friendly edge schedule of the three subgraphs (straight from
//! the backbone, without building them, unless it recurses). It also
//! implements the paper's proposed extension of applying the method
//! *recursively* to subgraphs ("…can be applied to subgraphs to generate
//! smaller sub-subgraphs, thereby exploiting data locality in a smaller
//! on-chip buffer", §4.3).

use gdr_hetgraph::BipartiteGraph;

use crate::backbone::{Backbone, BackboneStrategy};
use crate::matching::{
    fifo_matching_into, greedy_matching_into, hopcroft_karp_into, DecouplingStats, Matching,
};
use crate::recouple::{RestructuredSubgraphs, SubgraphKind, VertexPartition};
use crate::schedule::{push_subgraph, EdgeSchedule};
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

    /// Restructures one semantic graph.
    ///
    /// This is the allocating entry point: it builds a transient
    /// [`Workspace`], runs [`Restructurer::restructure_with`], then
    /// builds the four-way partition
    /// ([`VertexPartition::from_backbone_into`]) and, at depth 0, the
    /// three subgraphs ([`RestructuredSubgraphs::generate_into`]), which
    /// `restructure_with` leaves out, and moves the results out. So it
    /// costs one restructuring pass worth of allocations plus the
    /// partition and subgraph storage. Callers restructuring many graphs
    /// should hold a workspace and call `restructure_with` directly.
    pub fn restructure(&self, g: &BipartiteGraph) -> Restructured {
        let mut ws = Workspace::new();
        let decoupling_stats = self.restructure_with(&mut ws, g);
        VertexPartition::from_backbone_into(g, &ws.backbone, &mut ws.partition);
        if self.recursion_depth == 0 {
            RestructuredSubgraphs::generate_into(
                g,
                &ws.backbone,
                &mut ws.subgraphs,
                &mut ws.recouple_scratch,
            );
        }
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
    /// decouple → select backbone → emit the schedule, with every
    /// intermediate rebuilt in place. At steady state (buffers grown to
    /// the largest graph seen) the pass performs zero heap allocation,
    /// and its results do not depend on what the workspace held before:
    /// the 48-seed property net in
    /// `crates/core/tests/workspace_properties.rs` pins a reused
    /// workspace against a fresh one, the emitted order against the
    /// subgraph walk, and the recursive order against a reference
    /// construction.
    ///
    /// It fills exactly `ws.matching`, `ws.backbone`, the schedule edge
    /// order in `ws.edges`, and the graph's cover-violation count
    /// ([`RestructuredSubgraphs::cover_violations`] on `ws.subgraphs`).
    /// At depth 0 the schedule comes straight from the backbone
    /// ([`EdgeSchedule::from_backbone_into`]): `ws.partition` and the
    /// three subgraph graphs keep whatever they held, and callers that
    /// need them run the stage steps
    /// ([`VertexPartition::from_backbone_into`],
    /// [`RestructuredSubgraphs::generate_into`]) or
    /// [`Restructurer::restructure`]. The returned [`DecouplingStats`]
    /// carry the FIFO matcher's work counters (zero for the other
    /// engines).
    ///
    /// Recursive refinement (`recursion_depth > 0`) generates the top
    /// level's three subgraphs into `ws.subgraphs` (not the partition)
    /// and walks them; each recursion level restructures its
    /// sub-subgraphs in a workspace of its own, so it allocates per
    /// level — it is an offline schedule-quality extension, not the
    /// streaming hot path.
    pub fn restructure_with(&self, ws: &mut Workspace, g: &BipartiteGraph) -> DecouplingStats {
        if self.recursion_depth == 0 {
            let stats = self.decouple_into(ws, g);
            let violations = EdgeSchedule::from_backbone_into(g, &ws.backbone, &mut ws.edges);
            ws.subgraphs.set_cover_violations(violations);
            return stats;
        }
        let stats = self.split_into(ws, g);
        let Workspace {
            subgraphs, edges, ..
        } = ws;
        edges.clear();
        edges.reserve(g.edge_count());
        for (kind, sg) in subgraphs.iter() {
            self.schedule_recursive(kind, sg, self.recursion_depth, edges);
        }
        stats
    }

    /// Decouples `g` with the configured matcher and selects the
    /// backbone, both into `ws`. Returns the FIFO matcher's work counters
    /// (zero for the other engines).
    fn decouple_into(&self, ws: &mut Workspace, g: &BipartiteGraph) -> DecouplingStats {
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
        stats
    }

    /// [`Restructurer::decouple_into`], then generates the three
    /// subgraphs into `ws.subgraphs`.
    fn split_into(&self, ws: &mut Workspace, g: &BipartiteGraph) -> DecouplingStats {
        let stats = self.decouple_into(ws, g);
        RestructuredSubgraphs::generate_into(
            g,
            &ws.backbone,
            &mut ws.subgraphs,
            &mut ws.recouple_scratch,
        );
        stats
    }

    /// Appends `sg`'s edges to `out`: in its kind's walk order at depth
    /// 0 or below `min_recurse_edges`, else as the restructured order of
    /// its own three subgraphs, one level shallower. At depth 0 for every
    /// subgraph this is [`EdgeSchedule::restructured_into`].
    fn schedule_recursive(
        &self,
        kind: SubgraphKind,
        sg: &BipartiteGraph,
        depth: usize,
        out: &mut Vec<gdr_hetgraph::Edge>,
    ) {
        if depth == 0 || sg.edge_count() < self.min_recurse_edges {
            push_subgraph(kind, sg, out);
            return;
        }
        let mut ws = Workspace::new();
        self.split_into(&mut ws, sg);
        for (k2, sg2) in ws.subgraphs.iter() {
            self.schedule_recursive(k2, sg2, depth - 1, out);
        }
    }
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

//! Graph recoupling: vertex partition and subgraph generation
//! (paper Algorithm 2 and `GenerateGraph`).

use gdr_hetgraph::BipartiteGraph;

use crate::backbone::Backbone;
use crate::workspace::RecoupleScratch;

/// The four vertex classes of §4.1: source/destination vertices inside or
/// outside the graph backbone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VertexClass {
    /// Source vertex included in the backbone.
    SrcIn,
    /// Source vertex excluded from the backbone.
    SrcOut,
    /// Destination vertex included in the backbone.
    DstIn,
    /// Destination vertex excluded from the backbone.
    DstOut,
}

/// Vertex partition derived from a [`Backbone`]: the contents of the four
/// FIFOs (`Src_in`, `Src_out`, `Dst_in`, `Dst_out`) the Recoupler fills.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VertexPartition {
    src_in: Vec<u32>,
    src_out: Vec<u32>,
    dst_in: Vec<u32>,
    dst_out: Vec<u32>,
}

impl VertexPartition {
    /// Classifies every vertex of `g` against the backbone.
    ///
    /// Isolated vertices (degree 0) are excluded from the partition
    /// entirely — the paper's "eliminating irrelevant vertices from each
    /// subgraph".
    pub fn from_backbone(g: &BipartiteGraph, b: &Backbone) -> Self {
        let mut p = VertexPartition::default();
        Self::from_backbone_into(g, b, &mut p);
        p
    }

    /// Workspace variant of [`VertexPartition::from_backbone`]: the four
    /// class FIFOs are refilled in place, reusing their storage. Results
    /// are identical to the allocating path.
    pub fn from_backbone_into(g: &BipartiteGraph, b: &Backbone, out: &mut VertexPartition) {
        out.src_in.clear();
        out.src_out.clear();
        out.dst_in.clear();
        out.dst_out.clear();
        for s in 0..g.src_count() {
            if g.out_degree(s) == 0 {
                continue;
            }
            if b.src_in(s) {
                out.src_in.push(s as u32);
            } else {
                out.src_out.push(s as u32);
            }
        }
        for d in 0..g.dst_count() {
            if g.in_degree(d) == 0 {
                continue;
            }
            if b.dst_in(d) {
                out.dst_in.push(d as u32);
            } else {
                out.dst_out.push(d as u32);
            }
        }
    }

    /// Sources inside the backbone.
    pub fn src_in(&self) -> &[u32] {
        &self.src_in
    }

    /// Sources outside the backbone.
    pub fn src_out(&self) -> &[u32] {
        &self.src_out
    }

    /// Destinations inside the backbone.
    pub fn dst_in(&self) -> &[u32] {
        &self.dst_in
    }

    /// Destinations outside the backbone.
    pub fn dst_out(&self) -> &[u32] {
        &self.dst_out
    }

    /// Class of a source vertex, or `None` if isolated.
    pub fn classify_src(&self, s: u32) -> Option<VertexClass> {
        if self.src_in.binary_search(&s).is_ok() {
            Some(VertexClass::SrcIn)
        } else if self.src_out.binary_search(&s).is_ok() {
            Some(VertexClass::SrcOut)
        } else {
            None
        }
    }

    /// Class of a destination vertex, or `None` if isolated.
    pub fn classify_dst(&self, d: u32) -> Option<VertexClass> {
        if self.dst_in.binary_search(&d).is_ok() {
            Some(VertexClass::DstIn)
        } else if self.dst_out.binary_search(&d).is_ok() {
            Some(VertexClass::DstOut)
        } else {
            None
        }
    }
}

/// Which of the three restructured subgraphs an edge belongs to.
///
/// Every edge has at least one backbone endpoint (vertex-cover property),
/// so these three classes are exhaustive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SubgraphKind {
    /// `Src_in × Dst_out`: backbone sources feeding streamed destinations.
    InOut,
    /// `Src_in × Dst_in`: edges internal to the backbone.
    InIn,
    /// `Src_out × Dst_in`: streamed sources feeding backbone destinations.
    OutIn,
}

impl SubgraphKind {
    /// All kinds in the emission order of the paper's Fig. 4 pipeline
    /// (`Src_out+Dst_in`, `Src_in+Dst_in`, `Src_in+Dst_out`).
    pub const ALL: [SubgraphKind; 3] =
        [SubgraphKind::OutIn, SubgraphKind::InIn, SubgraphKind::InOut];
}

impl std::fmt::Display for SubgraphKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SubgraphKind::InOut => "src_in x dst_out",
            SubgraphKind::InIn => "src_in x dst_in",
            SubgraphKind::OutIn => "src_out x dst_in",
        };
        f.write_str(s)
    }
}

/// The output of `GenerateGraph`: the three subgraphs `G_Ps1..G_Ps3`, each
/// over the **original** vertex id spaces so feature tables need no
/// remapping.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RestructuredSubgraphs {
    subgraphs: [BipartiteGraph; 3],
    cover_violations: usize,
}

impl RestructuredSubgraphs {
    /// Partitions the edges of `g` into the three subgraphs.
    ///
    /// A backbone that is not a vertex cover of `g` trips a debug
    /// assertion; in release builds the offending edges are filed into
    /// the `in-out` subgraph to keep the partition total, and counted
    /// into [`RestructuredSubgraphs::cover_violations`] so callers can
    /// detect the breach instead of silently consuming a wrong
    /// restructuring.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if an edge has neither endpoint in the
    /// backbone, i.e. if `b` is not a vertex cover of `g`.
    pub fn generate(g: &BipartiteGraph, b: &Backbone) -> Self {
        let mut out = RestructuredSubgraphs::default();
        let mut scratch = RecoupleScratch;
        Self::generate_into(g, b, &mut out, &mut scratch);
        out
    }

    /// Workspace variant of [`RestructuredSubgraphs::generate`]: the
    /// three subgraphs are rebuilt **in place**, reusing their CSR and
    /// name storage, so regenerating subgraphs in a loop performs no heap
    /// allocation at steady state. Results are identical to the
    /// allocating path, including the release-mode cover-violation
    /// accounting.
    ///
    /// [`BipartiteGraph::split_by_side_into`] deals `g`'s edges by
    /// backbone membership in one pass over
    /// [`g.out_csr()`](BipartiteGraph::out_csr) and one over
    /// [`g.in_csr()`](BipartiteGraph::in_csr). A row's neighbors are
    /// already ascending, so each subgraph's rows come out sorted, and
    /// every `Dst_out` row goes whole into `in-out` (its sources are in
    /// the backbone, or are violations filed there too). Violations are
    /// counted during the source-major pass. `scratch` holds nothing; it
    /// stays in the signature so callers that pass
    /// [`Workspace::recouple_scratch`](crate::workspace::Workspace::recouple_scratch)
    /// keep compiling.
    pub fn generate_into(
        g: &BipartiteGraph,
        b: &Backbone,
        out: &mut RestructuredSubgraphs,
        _scratch: &mut RecoupleScratch,
    ) {
        // Slots 0/1/2 are in-out/in-in/out-in; `[src in][dst in]` routes
        // a non-cover edge (both outside) into in-out.
        const ROUTE: [[usize; 2]; 2] = [[0, 2], [0, 1]];
        let cells = g.split_by_side_into(
            b.src_bitmap(),
            b.dst_bitmap(),
            ROUTE,
            &mut out.subgraphs,
            ["in-out", "in-in", "out-in"],
        );
        let violations = cells[0][0];
        debug_assert!(
            violations == 0,
            "backbone is not a vertex cover: {violations} edges of {} have no backbone endpoint",
            g.name()
        );
        out.cover_violations = violations;
    }

    /// Number of edges whose endpoints were **both** outside the
    /// backbone — vertex-cover violations. Always 0 for a valid
    /// backbone; nonzero means the restructuring consumed a non-cover
    /// backbone and mis-filed these edges into the `in-out` subgraph
    /// (debug builds assert instead).
    pub fn cover_violations(&self) -> usize {
        self.cover_violations
    }

    /// The subgraph of a given kind.
    pub fn get(&self, kind: SubgraphKind) -> &BipartiteGraph {
        match kind {
            SubgraphKind::InOut => &self.subgraphs[0],
            SubgraphKind::InIn => &self.subgraphs[1],
            SubgraphKind::OutIn => &self.subgraphs[2],
        }
    }

    /// Iterates `(kind, subgraph)` pairs in pipeline emission order.
    pub fn iter(&self) -> impl Iterator<Item = (SubgraphKind, &BipartiteGraph)> {
        SubgraphKind::ALL.iter().map(move |&k| (k, self.get(k)))
    }

    /// Total edges across the three subgraphs (equals the original graph's
    /// edge count — the partition property).
    pub fn total_edges(&self) -> usize {
        self.subgraphs.iter().map(|g| g.edge_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backbone::BackboneStrategy;
    use crate::matching::hopcroft_karp;
    use gdr_hetgraph::gen::PowerLawConfig;

    fn setup(seed: u64) -> (BipartiteGraph, Backbone) {
        let g = PowerLawConfig::new(40, 40, 160)
            .dst_alpha(0.9)
            .generate("t", seed);
        let m = hopcroft_karp(&g);
        let b = Backbone::select(&g, &m, BackboneStrategy::KonigExact);
        (g, b)
    }

    #[test]
    fn partition_is_exhaustive_and_disjoint() {
        let (g, b) = setup(1);
        let p = VertexPartition::from_backbone(&g, &b);
        let touched_src = (0..g.src_count()).filter(|&s| g.out_degree(s) > 0).count();
        let touched_dst = (0..g.dst_count()).filter(|&d| g.in_degree(d) > 0).count();
        assert_eq!(p.src_in().len() + p.src_out().len(), touched_src);
        assert_eq!(p.dst_in().len() + p.dst_out().len(), touched_dst);
        for &s in p.src_in() {
            assert!(p.src_out().binary_search(&s).is_err());
        }
    }

    #[test]
    fn classify_matches_membership() {
        let (g, b) = setup(2);
        let p = VertexPartition::from_backbone(&g, &b);
        for s in 0..g.src_count() as u32 {
            match p.classify_src(s) {
                Some(VertexClass::SrcIn) => assert!(b.src_in(s as usize)),
                Some(VertexClass::SrcOut) => assert!(!b.src_in(s as usize)),
                None => assert_eq!(g.out_degree(s as usize), 0),
                other => panic!("source classified as {other:?}"),
            }
        }
        for d in 0..g.dst_count() as u32 {
            match p.classify_dst(d) {
                Some(VertexClass::DstIn) => assert!(b.dst_in(d as usize)),
                Some(VertexClass::DstOut) => assert!(!b.dst_in(d as usize)),
                None => assert_eq!(g.in_degree(d as usize), 0),
                other => panic!("destination classified as {other:?}"),
            }
        }
    }

    #[test]
    fn subgraphs_partition_the_edge_set() {
        for seed in 0..10 {
            let (g, b) = setup(seed);
            let r = RestructuredSubgraphs::generate(&g, &b);
            assert_eq!(r.total_edges(), g.edge_count(), "seed {seed}");
            // every original edge appears in exactly one subgraph
            let mut all: Vec<(u32, u32)> = r
                .iter()
                .flat_map(|(_, sg)| sg.iter_edges().map(|e| (e.src.raw(), e.dst.raw())))
                .collect();
            all.sort_unstable();
            let mut orig: Vec<(u32, u32)> =
                g.iter_edges().map(|e| (e.src.raw(), e.dst.raw())).collect();
            orig.sort_unstable();
            assert_eq!(all, orig, "seed {seed}");
        }
    }

    #[test]
    fn subgraph_classes_respect_backbone() {
        let (g, b) = setup(3);
        let r = RestructuredSubgraphs::generate(&g, &b);
        for e in r.get(SubgraphKind::InOut).iter_edges() {
            assert!(b.src_in(e.src.index()) && !b.dst_in(e.dst.index()));
        }
        for e in r.get(SubgraphKind::InIn).iter_edges() {
            assert!(b.src_in(e.src.index()) && b.dst_in(e.dst.index()));
        }
        for e in r.get(SubgraphKind::OutIn).iter_edges() {
            assert!(!b.src_in(e.src.index()) && b.dst_in(e.dst.index()));
        }
    }

    #[test]
    fn valid_backbones_report_zero_cover_violations() {
        for seed in 0..5 {
            let (g, b) = setup(seed);
            let r = RestructuredSubgraphs::generate(&g, &b);
            assert_eq!(r.cover_violations(), 0, "seed {seed}");
        }
    }

    /// The release-mode fallback: a non-cover backbone mis-files edges
    /// into `in-out` but now *counts* them, so callers can detect the
    /// breach without the debug assertion. (In debug builds the
    /// assertion fires first, so this test only runs in release.)
    #[cfg(not(debug_assertions))]
    #[test]
    fn non_cover_backbone_is_counted_not_silent() {
        use crate::matching::Matching;
        // An all-out backbone selected for an edgeless graph…
        let empty = BipartiteGraph::from_pairs("e", 2, 2, &[]).unwrap();
        let m = Matching::empty(2, 2);
        let b = Backbone::select(&empty, &m, BackboneStrategy::Paper);
        assert!(b.is_empty());
        // …misses every edge of a non-empty graph of the same shape.
        let g = BipartiteGraph::from_pairs("g", 2, 2, &[(0, 0), (1, 1)]).unwrap();
        let r = RestructuredSubgraphs::generate(&g, &b);
        assert_eq!(r.cover_violations(), 2);
        assert_eq!(r.total_edges(), g.edge_count(), "partition stays total");
        assert_eq!(r.get(SubgraphKind::InOut).edge_count(), 2);
    }

    /// A partly covering backbone: the non-cover edges sit mid-row in
    /// both directions, and the one-pass split must still file each into
    /// `in-out` in ascending order, exactly as `from_pairs` over the
    /// classified edges would. Release only, like the test above.
    #[cfg(not(debug_assertions))]
    #[test]
    fn non_cover_edges_are_filed_like_from_pairs() {
        // a backbone selected for another graph of the same shape
        let (g, _) = setup(4);
        let (_, b) = setup(5);
        let mut classes: [Vec<(u32, u32)>; 3] = Default::default();
        let mut violations = 0;
        for e in g.iter_edges() {
            let (s, d) = (e.src.raw(), e.dst.raw());
            let slot = match (b.src_in(s as usize), b.dst_in(d as usize)) {
                (true, true) => 1,
                (false, true) => 2,
                (true, false) => 0,
                (false, false) => {
                    violations += 1;
                    0
                }
            };
            classes[slot].push((s, d));
        }
        assert!(violations > 0, "test premise: the backbone misses edges");
        let r = RestructuredSubgraphs::generate(&g, &b);
        assert_eq!(r.cover_violations(), violations);
        for (kind, name, pairs) in [
            (SubgraphKind::InOut, "in-out", &classes[0]),
            (SubgraphKind::InIn, "in-in", &classes[1]),
            (SubgraphKind::OutIn, "out-in", &classes[2]),
        ] {
            let want = BipartiteGraph::from_pairs(format!("t/{name}"), 40, 40, pairs).unwrap();
            assert_eq!(r.get(kind), &want, "{kind}");
        }
    }

    #[test]
    fn kind_display_and_order() {
        assert_eq!(SubgraphKind::ALL.len(), 3);
        assert_eq!(SubgraphKind::InOut.to_string(), "src_in x dst_out");
        assert_eq!(SubgraphKind::ALL[0], SubgraphKind::OutIn);
    }
}

//! Graph backbone selection (graph recoupling step 1, paper §4.1-4.2).
//!
//! The *backbone* is a vertex set such that every edge of the semantic
//! graph has at least one endpoint inside it — a vertex cover. Built from
//! a maximum matching it can be made **minimum** (König's theorem), and
//! its small size is exactly what lets an accelerator pin backbone-side
//! features on-chip while streaming the rest.

use gdr_hetgraph::BipartiteGraph;

use crate::matching::Matching;
use crate::workspace::MatchScratch;

/// Which construction to use when selecting the backbone from the
/// decoupling result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackboneStrategy {
    /// The paper's Algorithm 2: matched vertices that have at least one
    /// unmatched neighbor enter the backbone, plus a totality fixup for
    /// edges both of whose endpoints the heuristic left out (possible when
    /// a component admits a perfect matching; see DESIGN.md).
    #[default]
    Paper,
    /// Exact minimum vertex cover via König's construction
    /// (`|cover| == |maximum matching|`).
    KonigExact,
    /// Greedy max-degree vertex cover — the I-GCN-"islandization"-like
    /// baseline the paper argues degrades on directed bipartite graphs.
    GreedyDegree,
}

impl std::fmt::Display for BackboneStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BackboneStrategy::Paper => "paper",
            BackboneStrategy::KonigExact => "konig",
            BackboneStrategy::GreedyDegree => "greedy-degree",
        };
        f.write_str(s)
    }
}

/// The selected backbone: membership bitmaps for both sides.
///
/// # Examples
///
/// ```
/// use gdr_hetgraph::BipartiteGraph;
/// use gdr_core::matching::hopcroft_karp;
/// use gdr_core::backbone::{Backbone, BackboneStrategy};
/// let g = BipartiteGraph::from_pairs("g", 2, 2, &[(0, 0), (1, 0)])?;
/// let m = hopcroft_karp(&g);
/// let b = Backbone::select(&g, &m, BackboneStrategy::KonigExact);
/// assert!(b.covers_all_edges(&g));
/// assert_eq!(b.len(), m.size()); // König: |cover| == |matching|
/// # Ok::<(), gdr_hetgraph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Backbone {
    src_in: Vec<bool>,
    dst_in: Vec<bool>,
    strategy: BackboneStrategy,
    fixup_promotions: usize,
}

impl Backbone {
    /// Selects the backbone from a decoupling result.
    pub fn select(g: &BipartiteGraph, m: &Matching, strategy: BackboneStrategy) -> Self {
        let mut out = Backbone::default();
        let mut scratch = MatchScratch::default();
        Self::select_into(g, m, strategy, &mut out, &mut scratch);
        out
    }

    /// Workspace variant of [`Backbone::select`]: the membership bitmaps
    /// are rebuilt in place in `out` and BFS state comes from `scratch`,
    /// so the paper heuristic and König construction allocate nothing at
    /// steady state. The greedy-degree baseline keeps its allocating
    /// construction — it is the islandization ablation, not a hot path.
    /// Results are identical to [`Backbone::select`].
    pub fn select_into(
        g: &BipartiteGraph,
        m: &Matching,
        strategy: BackboneStrategy,
        out: &mut Backbone,
        scratch: &mut MatchScratch,
    ) {
        match strategy {
            BackboneStrategy::Paper => Self::paper_heuristic_into(g, m, out),
            BackboneStrategy::KonigExact => Self::konig_into(g, m, out, scratch),
            BackboneStrategy::GreedyDegree => *out = Self::greedy_degree(g),
        }
    }

    /// The paper's Algorithm 2, lines 1-18, plus the totality fixup.
    ///
    /// Only unmatched vertices can supply the "unmatched neighbor" the
    /// algorithm asks about, so each step reads the rows of unmatched
    /// vertices instead of scanning every row: a matched source has an
    /// unmatched destination neighbor exactly when it is a matched
    /// in-neighbor of some unmatched destination, and symmetrically for
    /// destinations. This holds for any matching, maximum or not.
    fn paper_heuristic_into(g: &BipartiteGraph, m: &Matching, out: &mut Backbone) {
        out.src_in.clear();
        out.src_in.resize(g.src_count(), false);
        out.dst_in.clear();
        out.dst_in.resize(g.dst_count(), false);
        // Lines 3-9: matched sources with an unmatched destination neighbor.
        for d in (0..g.dst_count()).filter(|&d| !m.dst_matched(d)) {
            for &s in g.in_neighbors(d) {
                out.src_in[s as usize] |= m.src_matched(s as usize);
            }
        }
        // Lines 10-16: matched destinations with an unmatched source neighbor.
        for s in (0..g.src_count()).filter(|&s| !m.src_matched(s)) {
            for &d in g.out_neighbors(s) {
                out.dst_in[d as usize] |= m.dst_matched(d as usize);
            }
        }
        // Totality fixup: an edge between two vertices the heuristic left
        // out is uncovered; promote its source, which covers the rest of
        // that source's row too.
        out.fixup_promotions = 0;
        for (s, slot) in out.src_in.iter_mut().enumerate() {
            if !*slot && g.out_neighbors(s).iter().any(|&d| !out.dst_in[d as usize]) {
                *slot = true;
                out.fixup_promotions += 1;
            }
        }
        out.strategy = BackboneStrategy::Paper;
    }

    /// König's minimum vertex cover: `Z` = vertices reachable from
    /// unmatched sources via alternating paths; cover =
    /// `(V_src \ Z) ∪ (V_dst ∩ Z)`.
    fn konig_into(
        g: &BipartiteGraph,
        m: &Matching,
        out: &mut Backbone,
        scratch: &mut MatchScratch,
    ) {
        let n_src = g.src_count();
        let n_dst = g.dst_count();
        let MatchScratch {
            z_src,
            z_dst,
            queue,
            ..
        } = scratch;
        z_src.clear();
        z_src.resize(n_src, false);
        z_dst.clear();
        z_dst.resize(n_dst, false);
        queue.clear();
        for (s, z) in z_src.iter_mut().enumerate() {
            if !m.src_matched(s) {
                *z = true;
                queue.push(s as u32);
            }
        }
        let mut head = 0;
        while let Some(&s) = queue.get(head) {
            head += 1;
            for &d in g.out_neighbors(s as usize) {
                // Travel unmatched edges src -> dst.
                if m.match_of_src(s as usize) == Some(d) {
                    continue;
                }
                if !z_dst[d as usize] {
                    z_dst[d as usize] = true;
                    // Travel the matched edge dst -> src.
                    if let Some(w) = m.match_of_dst(d as usize) {
                        if !z_src[w as usize] {
                            z_src[w as usize] = true;
                            queue.push(w);
                        }
                    }
                }
            }
        }
        out.src_in.clear();
        out.src_in
            .extend((0..n_src).map(|s| m.src_matched(s) && !z_src[s]));
        out.dst_in.clear();
        out.dst_in.extend((0..n_dst).map(|d| z_dst[d]));
        out.strategy = BackboneStrategy::KonigExact;
        out.fixup_promotions = 0;
    }

    /// Greedy max-degree cover: repeatedly take the vertex covering the
    /// most uncovered edges. Ignores the matching entirely.
    fn greedy_degree(g: &BipartiteGraph) -> Self {
        let n_src = g.src_count();
        let n_dst = g.dst_count();
        let mut src_in = vec![false; n_src];
        let mut dst_in = vec![false; n_dst];
        let mut src_deg: Vec<usize> = (0..n_src).map(|s| g.out_degree(s)).collect();
        let mut dst_deg: Vec<usize> = (0..n_dst).map(|d| g.in_degree(d)).collect();
        let mut covered = vec![false; g.edge_count()];
        // Edge index lookup: edges in source-major order.
        let mut edge_ids_by_src: Vec<Vec<usize>> = vec![Vec::new(); n_src];
        let mut edge_ids_by_dst: Vec<Vec<usize>> = vec![Vec::new(); n_dst];
        for (i, e) in g.iter_edges().enumerate() {
            edge_ids_by_src[e.src.index()].push(i);
            edge_ids_by_dst[e.dst.index()].push(i);
        }
        let edges: Vec<_> = g.iter_edges().collect();
        let mut remaining = g.edge_count();
        while remaining > 0 {
            // Pick the globally highest-degree vertex (ties: src side, low id).
            let (best_is_src, best_id, best_deg) = {
                let (si, sd) = src_deg
                    .iter()
                    .enumerate()
                    .max_by_key(|&(i, &d)| (d, std::cmp::Reverse(i)))
                    .map(|(i, &d)| (i, d))
                    .unwrap_or((0, 0));
                let (di, dd) = dst_deg
                    .iter()
                    .enumerate()
                    .max_by_key(|&(i, &d)| (d, std::cmp::Reverse(i)))
                    .map(|(i, &d)| (i, d))
                    .unwrap_or((0, 0));
                if sd >= dd {
                    (true, si, sd)
                } else {
                    (false, di, dd)
                }
            };
            debug_assert!(best_deg > 0, "uncovered edges imply a positive degree");
            let ids = if best_is_src {
                src_in[best_id] = true;
                std::mem::take(&mut edge_ids_by_src[best_id])
            } else {
                dst_in[best_id] = true;
                std::mem::take(&mut edge_ids_by_dst[best_id])
            };
            for i in ids {
                if covered[i] {
                    continue;
                }
                covered[i] = true;
                remaining -= 1;
                let e = edges[i];
                src_deg[e.src.index()] -= 1;
                dst_deg[e.dst.index()] -= 1;
            }
        }
        Self {
            src_in,
            dst_in,
            strategy: BackboneStrategy::GreedyDegree,
            fixup_promotions: 0,
        }
    }

    /// Membership of source `s`.
    pub fn src_in(&self, s: usize) -> bool {
        self.src_in[s]
    }

    /// Membership of destination `d`.
    pub fn dst_in(&self, d: usize) -> bool {
        self.dst_in[d]
    }

    /// Source-side membership bitmap.
    pub fn src_bitmap(&self) -> &[bool] {
        &self.src_in
    }

    /// Destination-side membership bitmap.
    pub fn dst_bitmap(&self) -> &[bool] {
        &self.dst_in
    }

    /// Total backbone size (both sides).
    pub fn len(&self) -> usize {
        self.src_len() + self.dst_len()
    }

    /// Returns `true` when the backbone is empty (only possible for an
    /// edgeless graph).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of source-side backbone vertices.
    pub fn src_len(&self) -> usize {
        self.src_in.iter().filter(|&&b| b).count()
    }

    /// Number of destination-side backbone vertices.
    pub fn dst_len(&self) -> usize {
        self.dst_in.iter().filter(|&&b| b).count()
    }

    /// Strategy used to build this backbone.
    pub fn strategy(&self) -> BackboneStrategy {
        self.strategy
    }

    /// Number of sources promoted by the totality fixup (always 0 for the
    /// exact and greedy strategies).
    pub fn fixup_promotions(&self) -> usize {
        self.fixup_promotions
    }

    /// Verifies the vertex-cover property: every edge has an endpoint in
    /// the backbone.
    pub fn covers_all_edges(&self, g: &BipartiteGraph) -> bool {
        g.iter_edges()
            .all(|e| self.src_in[e.src.index()] || self.dst_in[e.dst.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::{fifo_matching, hopcroft_karp};
    use gdr_hetgraph::gen::PowerLawConfig;

    #[test]
    fn konig_cover_size_equals_matching() {
        for seed in 0..20 {
            let g = PowerLawConfig::new(60, 50, 240)
                .dst_alpha(0.7)
                .generate("k", seed);
            let m = hopcroft_karp(&g);
            let b = Backbone::select(&g, &m, BackboneStrategy::KonigExact);
            assert!(b.covers_all_edges(&g), "seed {seed}");
            assert_eq!(b.len(), m.size(), "König failed at seed {seed}");
        }
    }

    #[test]
    fn paper_heuristic_covers_with_fixup() {
        for seed in 0..20 {
            let g = PowerLawConfig::new(60, 60, 200).generate("p", seed);
            let m = fifo_matching(&g);
            let b = Backbone::select(&g, &m, BackboneStrategy::Paper);
            assert!(b.covers_all_edges(&g), "seed {seed}");
        }
    }

    #[test]
    fn paper_fixup_triggers_on_perfect_matching() {
        // K2,2 has a perfect matching; no vertex has an unmatched neighbor,
        // so Algorithm 2 as printed selects nothing — the fixup must act.
        let g = BipartiteGraph::from_pairs("k22", 2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let m = hopcroft_karp(&g);
        assert_eq!(m.size(), 2);
        let b = Backbone::select(&g, &m, BackboneStrategy::Paper);
        assert!(b.fixup_promotions() > 0);
        assert!(b.covers_all_edges(&g));
    }

    #[test]
    fn greedy_degree_covers() {
        for seed in 0..10 {
            let g = PowerLawConfig::new(50, 50, 300)
                .dst_alpha(1.0)
                .generate("g", seed);
            let m = hopcroft_karp(&g);
            let b = Backbone::select(&g, &m, BackboneStrategy::GreedyDegree);
            assert!(b.covers_all_edges(&g), "seed {seed}");
            // Greedy is a valid cover but can exceed the optimum.
            let exact = Backbone::select(&g, &m, BackboneStrategy::KonigExact);
            assert!(b.len() >= exact.len());
        }
    }

    #[test]
    fn star_graph_backbone_is_hub() {
        // one destination hub covering everything
        let g = BipartiteGraph::from_pairs("star", 5, 1, &[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)])
            .unwrap();
        let m = hopcroft_karp(&g);
        assert_eq!(m.size(), 1);
        let b = Backbone::select(&g, &m, BackboneStrategy::KonigExact);
        assert_eq!(b.len(), 1);
        assert!(b.dst_in(0));
        let bg = Backbone::select(&g, &m, BackboneStrategy::GreedyDegree);
        assert_eq!(bg.len(), 1);
        assert!(bg.dst_in(0));
    }

    #[test]
    fn empty_graph_has_empty_backbone() {
        let g = BipartiteGraph::from_pairs("e", 4, 4, &[]).unwrap();
        let m = hopcroft_karp(&g);
        for strat in [
            BackboneStrategy::Paper,
            BackboneStrategy::KonigExact,
            BackboneStrategy::GreedyDegree,
        ] {
            let b = Backbone::select(&g, &m, strat);
            assert!(b.is_empty(), "{strat}");
            assert!(b.covers_all_edges(&g));
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(BackboneStrategy::Paper.to_string(), "paper");
        assert_eq!(BackboneStrategy::KonigExact.to_string(), "konig");
        assert_eq!(BackboneStrategy::GreedyDegree.to_string(), "greedy-degree");
    }
}

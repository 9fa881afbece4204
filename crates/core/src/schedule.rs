//! Edge schedules: the order in which the NA stage walks a semantic
//! graph's edges.
//!
//! Buffer thrashing is a property of the *schedule*, not of the graph: the
//! same edges walked in a locality-friendly order produce far fewer buffer
//! replacements. This module provides the baseline orders the paper
//! compares against (natural destination-major, random, degree-sorted, and
//! an I-GCN-style islandized order) plus the restructured order produced
//! by graph decoupling/recoupling.

use gdr_hetgraph::{BipartiteGraph, Edge, GdrError, GdrResult};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::recouple::{RestructuredSubgraphs, SubgraphKind};

/// A named total order over a semantic graph's edges.
///
/// # Examples
///
/// ```
/// use gdr_hetgraph::BipartiteGraph;
/// use gdr_core::schedule::EdgeSchedule;
/// let g = BipartiteGraph::from_pairs("g", 2, 2, &[(0, 0), (1, 0), (1, 1)])?;
/// let sched = EdgeSchedule::dst_major(&g);
/// assert_eq!(sched.len(), 3);
/// // destination-major: all of dst 0's edges first
/// assert_eq!(sched.edges()[0].dst.raw(), 0);
/// assert_eq!(sched.edges()[1].dst.raw(), 0);
/// # Ok::<(), gdr_hetgraph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeSchedule {
    name: String,
    edges: Vec<Edge>,
}

impl EdgeSchedule {
    /// Creates a schedule from an explicit edge order.
    pub fn new(name: impl Into<String>, edges: Vec<Edge>) -> Self {
        Self {
            name: name.into(),
            edges,
        }
    }

    /// Natural aggregation order: for each destination in id order, all of
    /// its in-edges. This is how a vanilla NA engine walks the CSC — the
    /// *thrashing* baseline (destination partial sums have perfect
    /// locality, source features are effectively random).
    pub fn dst_major(g: &BipartiteGraph) -> Self {
        let mut edges = Vec::with_capacity(g.edge_count());
        for d in 0..g.dst_count() {
            for &s in g.in_neighbors(d) {
                edges.push(Edge::new(s, d as u32));
            }
        }
        Self::new("dst-major", edges)
    }

    /// Source-major order (scatter-style engines).
    pub fn src_major(g: &BipartiteGraph) -> Self {
        Self::new("src-major", g.iter_edges().collect())
    }

    /// Uniformly random edge order (worst case for both sides).
    pub fn random(g: &BipartiteGraph, seed: u64) -> Self {
        let mut edges: Vec<Edge> = g.iter_edges().collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in (1..edges.len()).rev() {
            let j = rng.gen_range(0..=i);
            edges.swap(i, j);
        }
        Self::new("random", edges)
    }

    /// Destination-major order with destinations sorted by descending
    /// in-degree — the common software "sort by degree" locality fix.
    pub fn degree_sorted(g: &BipartiteGraph) -> Self {
        let mut order: Vec<u32> = (0..g.dst_count() as u32).collect();
        order.sort_by_key(|&d| (std::cmp::Reverse(g.in_degree(d as usize)), d));
        let mut edges = Vec::with_capacity(g.edge_count());
        for &d in &order {
            for &s in g.in_neighbors(d as usize) {
                edges.push(Edge::new(s, d));
            }
        }
        Self::new("degree-sorted", edges)
    }

    /// I-GCN-style islandized order: repeatedly pick the destination
    /// sharing the most sources with the recently-processed working set.
    /// On directed bipartite graphs this degrades toward plain
    /// degree-order (the observation in the paper's related-work section),
    /// which this baseline lets us measure.
    pub fn islandized(g: &BipartiteGraph) -> Self {
        let n_dst = g.dst_count();
        let mut picked = vec![false; n_dst];
        let mut affinity: Vec<u32> = vec![0; n_dst];
        let mut edges = Vec::with_capacity(g.edge_count());
        let by_degree: Vec<u32> = {
            let mut v: Vec<u32> = (0..n_dst as u32).collect();
            v.sort_by_key(|&d| (std::cmp::Reverse(g.in_degree(d as usize)), d));
            v
        };
        let mut cursor = 0usize;
        let mut remaining = (0..n_dst).filter(|&d| g.in_degree(d) > 0).count();
        while remaining > 0 {
            // Prefer the highest-affinity unpicked destination; fall back to
            // the highest-degree one when no affinity has accumulated.
            let best_aff = affinity
                .iter()
                .enumerate()
                .filter(|&(d, _)| !picked[d] && g.in_degree(d) > 0)
                .max_by_key(|&(d, &a)| (a, std::cmp::Reverse(d)))
                .map(|(d, &a)| (d, a));
            let d = match best_aff {
                Some((d, a)) if a > 0 => d,
                _ => {
                    while picked[by_degree[cursor] as usize]
                        || g.in_degree(by_degree[cursor] as usize) == 0
                    {
                        cursor += 1;
                    }
                    by_degree[cursor] as usize
                }
            };
            picked[d] = true;
            remaining -= 1;
            for &s in g.in_neighbors(d) {
                edges.push(Edge::new(s, d as u32));
                // loading s raises affinity of s's other destinations
                for &d2 in g.out_neighbors(s as usize) {
                    if !picked[d2 as usize] {
                        affinity[d2 as usize] += 1;
                    }
                }
            }
        }
        Self::new("islandized", edges)
    }

    /// The GDR-HGNN restructured order: subgraphs in pipeline order, each
    /// walked so that the **backbone side stays resident** and the
    /// non-backbone side streams:
    ///
    /// * `Src_out × Dst_in` — source-major (each streamed source loads once,
    ///   backbone destinations' partial sums stay on-chip),
    /// * `Src_in × Dst_in` — destination-major (backbone-internal),
    /// * `Src_in × Dst_out` — destination-major (each streamed destination
    ///   finishes in one burst, backbone sources stay on-chip).
    pub fn restructured(r: &RestructuredSubgraphs) -> Self {
        let mut edges = Vec::with_capacity(r.total_edges());
        Self::restructured_into(r, &mut edges);
        Self::new("restructured", edges)
    }

    /// Workspace variant of [`EdgeSchedule::restructured`]: emits the
    /// restructured order into a reusable buffer (cleared first) instead
    /// of allocating a schedule, for callers that re-emit schedules in a
    /// loop. The buffer contents equal
    /// `EdgeSchedule::restructured(r).edges()`.
    pub fn restructured_into(r: &RestructuredSubgraphs, out: &mut Vec<Edge>) {
        out.clear();
        out.reserve(r.total_edges());
        for (kind, sg) in r.iter() {
            match kind {
                SubgraphKind::OutIn => {
                    for s in 0..sg.src_count() {
                        for &d in sg.out_neighbors(s) {
                            out.push(Edge::new(s as u32, d));
                        }
                    }
                }
                SubgraphKind::InIn | SubgraphKind::InOut => {
                    for d in 0..sg.dst_count() {
                        for &s in sg.in_neighbors(d) {
                            out.push(Edge::new(s, d as u32));
                        }
                    }
                }
            }
        }
    }

    /// Schedule label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ordered edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of scheduled edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Iterates the scheduled edges.
    pub fn iter(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter().copied()
    }

    /// Checks that this schedule is a permutation of `g`'s edge multiset.
    ///
    /// # Errors
    ///
    /// As a validation entry point: [`EdgeSchedule::validate_for`] wraps
    /// this check in a typed error.
    pub fn is_permutation_of(&self, g: &BipartiteGraph) -> bool {
        if self.edges.len() != g.edge_count() {
            return false;
        }
        let mut a: Vec<(u32, u32)> = self
            .edges
            .iter()
            .map(|e| (e.src.raw(), e.dst.raw()))
            .collect();
        let mut b: Vec<(u32, u32)> = g.iter_edges().map(|e| (e.src.raw(), e.dst.raw())).collect();
        a.sort_unstable();
        b.sort_unstable();
        a == b
    }

    /// Typed-error variant of [`EdgeSchedule::is_permutation_of`], for
    /// validation at API boundaries.
    ///
    /// # Errors
    ///
    /// Returns [`GdrError::LengthMismatch`] when the edge counts differ,
    /// and [`GdrError::InvalidConfig`] when the counts match but the edge
    /// multisets do not.
    pub fn validate_for(&self, g: &BipartiteGraph) -> GdrResult<()> {
        GdrError::check_aligned("schedule edges", g.edge_count(), self.edges.len())?;
        if self.is_permutation_of(g) {
            Ok(())
        } else {
            Err(GdrError::invalid_config(
                "schedule",
                format!("not a permutation of {}'s edges", g.name()),
            ))
        }
    }
}

impl AsRef<EdgeSchedule> for EdgeSchedule {
    fn as_ref(&self) -> &EdgeSchedule {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backbone::{Backbone, BackboneStrategy};
    use crate::matching::hopcroft_karp;
    use gdr_hetgraph::gen::PowerLawConfig;

    fn graph(seed: u64) -> BipartiteGraph {
        PowerLawConfig::new(30, 30, 120)
            .dst_alpha(0.8)
            .generate("g", seed)
    }

    #[test]
    fn all_schedules_are_permutations() {
        let g = graph(1);
        let m = hopcroft_karp(&g);
        let b = Backbone::select(&g, &m, BackboneStrategy::KonigExact);
        let r = RestructuredSubgraphs::generate(&g, &b);
        for sched in [
            EdgeSchedule::dst_major(&g),
            EdgeSchedule::src_major(&g),
            EdgeSchedule::random(&g, 7),
            EdgeSchedule::degree_sorted(&g),
            EdgeSchedule::islandized(&g),
            EdgeSchedule::restructured(&r),
        ] {
            assert!(
                sched.is_permutation_of(&g),
                "{} is not a permutation",
                sched.name()
            );
        }
    }

    #[test]
    fn dst_major_groups_destinations() {
        let g = graph(2);
        let s = EdgeSchedule::dst_major(&g);
        // destinations appear as contiguous runs
        let mut seen = std::collections::HashSet::new();
        let mut prev = None;
        for e in s.iter() {
            if Some(e.dst) != prev {
                assert!(seen.insert(e.dst), "destination revisited: {}", e.dst);
                prev = Some(e.dst);
            }
        }
    }

    #[test]
    fn degree_sorted_starts_with_max_degree() {
        let g = graph(3);
        let s = EdgeSchedule::degree_sorted(&g);
        let first_dst = s.edges()[0].dst.index();
        let max_deg = (0..g.dst_count()).map(|d| g.in_degree(d)).max().unwrap();
        assert_eq!(g.in_degree(first_dst), max_deg);
    }

    #[test]
    fn random_is_seeded() {
        let g = graph(4);
        assert_eq!(EdgeSchedule::random(&g, 5), EdgeSchedule::random(&g, 5));
        assert_ne!(
            EdgeSchedule::random(&g, 5).edges(),
            EdgeSchedule::random(&g, 6).edges()
        );
    }

    #[test]
    fn restructured_emits_subgraphs_in_pipeline_order() {
        let g = graph(5);
        let m = hopcroft_karp(&g);
        let b = Backbone::select(&g, &m, BackboneStrategy::KonigExact);
        let r = RestructuredSubgraphs::generate(&g, &b);
        let s = EdgeSchedule::restructured(&r);
        // first edges must come from the OutIn subgraph (if non-empty)
        let out_in = r.get(SubgraphKind::OutIn);
        if !out_in.is_empty() {
            let e = s.edges()[0];
            assert!(!b.src_in(e.src.index()) && b.dst_in(e.dst.index()));
        }
        assert_eq!(s.len(), g.edge_count());
    }

    #[test]
    fn empty_graph_schedules() {
        let g = BipartiteGraph::from_pairs("e", 3, 3, &[]).unwrap();
        assert!(EdgeSchedule::dst_major(&g).is_empty());
        assert!(EdgeSchedule::islandized(&g).is_empty());
        assert!(EdgeSchedule::random(&g, 0).is_empty());
    }
}

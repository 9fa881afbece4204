//! Edge schedules: the order in which the NA stage walks a semantic
//! graph's edges.
//!
//! Buffer thrashing is a property of the *schedule*, not of the graph: the
//! same edges walked in a locality-friendly order produce far fewer buffer
//! replacements. This module provides the baseline orders the paper
//! compares against (natural destination-major, random, and an
//! I-GCN-style islandized order) plus the restructured order produced by
//! graph decoupling/recoupling.

use gdr_hetgraph::{BipartiteGraph, Edge, GdrError, GdrResult};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::backbone::Backbone;
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

    /// The GDR-HGNN restructured order, emitted into a reusable buffer
    /// (cleared first): subgraphs in pipeline order, each walked so that
    /// the **backbone side stays resident** and the non-backbone side
    /// streams:
    ///
    /// * `Src_out × Dst_in` — source-major (each streamed source loads once,
    ///   backbone destinations' partial sums stay on-chip),
    /// * `Src_in × Dst_in` — destination-major (backbone-internal),
    /// * `Src_in × Dst_out` — destination-major (each streamed destination
    ///   finishes in one burst, backbone sources stay on-chip).
    ///
    /// A caller that keeps the schedule wraps the buffer with
    /// [`EdgeSchedule::new`]. [`EdgeSchedule::from_backbone_into`] emits
    /// the same order without the subgraphs.
    pub fn restructured_into(r: &RestructuredSubgraphs, out: &mut Vec<Edge>) {
        out.clear();
        out.reserve(r.total_edges());
        for (kind, sg) in r.iter() {
            push_subgraph(kind, sg, out);
        }
    }

    /// The restructured order of `g` against backbone `b`, emitted into
    /// a reusable buffer (cleared first) straight from `g`'s two CSRs and
    /// the backbone bitmaps: edge for edge what
    /// [`EdgeSchedule::restructured_into`] walks over the subgraphs
    /// [`RestructuredSubgraphs::generate_into`] builds from `b`, with no
    /// partition and no subgraph built. Three filtered passes, in
    /// pipeline order:
    ///
    /// * `Src_out × Dst_in` — each source outside the backbone, in id
    ///   order, then its out-neighbors inside it;
    /// * `Src_in × Dst_in` — each backbone destination, in id order, then
    ///   its in-neighbors inside the backbone;
    /// * `Src_in × Dst_out` — each destination outside the backbone, in id
    ///   order, then its whole in-row.
    ///
    /// Returns the number of edges with neither endpoint in the backbone
    /// (see [`RestructuredSubgraphs::cover_violations`]). They are
    /// counted in the first pass and emitted in the last, in ascending
    /// source order, where `generate_into` files them.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if `b` is not a vertex cover of `g`, and
    /// if a backbone bitmap is shorter than its vertex space.
    pub fn from_backbone_into(g: &BipartiteGraph, b: &Backbone, out: &mut Vec<Edge>) -> usize {
        out.clear();
        out.reserve(g.edge_count());
        let src_in = &b.src_bitmap()[..g.src_count()];
        let dst_in = &b.dst_bitmap()[..g.dst_count()];
        let mut violations = 0;
        for (s, _) in src_in.iter().enumerate().filter(|(_, &inside)| !inside) {
            for &d in g.out_neighbors(s) {
                if dst_in[d as usize] {
                    out.push(Edge::new(s as u32, d));
                } else {
                    violations += 1;
                }
            }
        }
        for (d, _) in dst_in.iter().enumerate().filter(|(_, &inside)| inside) {
            let row = g.in_neighbors(d).iter().filter(|&&s| src_in[s as usize]);
            out.extend(row.map(|&s| Edge::new(s, d as u32)));
        }
        for (d, _) in dst_in.iter().enumerate().filter(|(_, &inside)| !inside) {
            out.extend(g.in_neighbors(d).iter().map(|&s| Edge::new(s, d as u32)));
        }
        debug_assert!(
            violations == 0,
            "backbone is not a vertex cover: {violations} edges of {} have no backbone endpoint",
            g.name()
        );
        violations
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

    /// Checks that this schedule is a permutation of `g`'s edge multiset,
    /// in time linear in the edges: the scheduled edges are dealt into
    /// the rows of `g`'s out-CSR by source, and each row's destinations
    /// are then compared with the CSR row as a multiset, through one
    /// counter per destination.
    ///
    /// # Errors
    ///
    /// As a validation entry point: [`EdgeSchedule::validate_for`] wraps
    /// this check in a typed error.
    pub fn is_permutation_of(&self, g: &BipartiteGraph) -> bool {
        if self.edges.len() != g.edge_count() {
            return false;
        }
        let out = g.out_csr();
        let offsets = out.offsets();
        // `fill[s]` is the next free slot of row `s`; a full row means
        // the schedule has more edges from `s` than `g` does.
        let mut fill = offsets[..g.src_count()].to_vec();
        let mut dealt = vec![0u32; self.edges.len()];
        for e in &self.edges {
            let s = e.src.index();
            if s >= fill.len() || fill[s] == offsets[s + 1] {
                return false;
            }
            dealt[fill[s] as usize] = e.dst.raw();
            fill[s] += 1;
        }
        // The counts match, so every row is now exactly full. Each row
        // raises its CSR destinations' counters and lowers them again by
        // the dealt ones, which leaves every counter at zero unless a
        // dealt destination is missing from the row.
        let mut count = vec![0u32; g.dst_count()];
        for s in 0..g.src_count() {
            for &d in out.neighbors(s) {
                count[d as usize] += 1;
            }
            for &d in &dealt[offsets[s] as usize..offsets[s + 1] as usize] {
                match count.get_mut(d as usize) {
                    Some(c) if *c > 0 => *c -= 1,
                    _ => return false,
                }
            }
        }
        true
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

/// Appends one subgraph's edges to `out` in the walk order for its kind
/// (see [`EdgeSchedule::restructured_into`] for the rationale). The
/// restructured order and the leaves of the recursive refinement
/// ([`Restructurer::recursion_depth`](crate::restructure::Restructurer::recursion_depth))
/// both walk subgraphs through here.
pub(crate) fn push_subgraph(kind: SubgraphKind, sg: &BipartiteGraph, out: &mut Vec<Edge>) {
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

impl AsRef<EdgeSchedule> for EdgeSchedule {
    fn as_ref(&self) -> &EdgeSchedule {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backbone::BackboneStrategy;
    use crate::restructure::{Restructured, Restructurer};
    use gdr_hetgraph::gen::PowerLawConfig;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn graph(seed: u64) -> BipartiteGraph {
        PowerLawConfig::new(30, 30, 120)
            .dst_alpha(0.8)
            .generate("g", seed)
    }

    fn konig(g: &BipartiteGraph) -> Restructured {
        Restructurer::new()
            .backbone_strategy(BackboneStrategy::KonigExact)
            .restructure(g)
    }

    #[test]
    fn all_schedules_are_permutations() {
        let g = graph(1);
        for sched in [
            EdgeSchedule::dst_major(&g),
            EdgeSchedule::random(&g, 7),
            EdgeSchedule::islandized(&g),
            konig(&g).schedule().clone(),
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
        let r = konig(&g);
        let b = r.backbone();
        let mut edges = Vec::new();
        EdgeSchedule::restructured_into(r.subgraphs(), &mut edges);
        let s = EdgeSchedule::new("restructured", edges);
        assert_eq!(&s, r.schedule());
        // first edges must come from the OutIn subgraph (if non-empty)
        let out_in = r.subgraphs().get(SubgraphKind::OutIn);
        if !out_in.is_empty() {
            let e = s.edges()[0];
            assert!(!b.src_in(e.src.index()) && b.dst_in(e.dst.index()));
        }
        assert_eq!(s.len(), g.edge_count());
    }

    /// The permutation check as it was before the linear one: both edge
    /// lists copied and sorted, then compared.
    fn sorted_equal(s: &EdgeSchedule, g: &BipartiteGraph) -> bool {
        let mut a: Vec<(u32, u32)> = s.iter().map(|e| (e.src.raw(), e.dst.raw())).collect();
        let mut b: Vec<(u32, u32)> = g.iter_edges().map(|e| (e.src.raw(), e.dst.raw())).collect();
        a.sort_unstable();
        b.sort_unstable();
        a == b
    }

    #[test]
    fn permutation_check_matches_the_sorting_reference() {
        for case in 0..200u64 {
            let mut rng = SmallRng::seed_from_u64(case);
            // Few vertices and many edges drawn with replacement, so
            // multi-edges are common; some vertices stay isolated.
            let (n_src, n_dst) = (rng.gen_range(1..12u32), rng.gen_range(1..12u32));
            let pairs: Vec<(u32, u32)> = (0..rng.gen_range(0..60usize))
                .map(|_| (rng.gen_range(0..n_src), rng.gen_range(0..n_dst)))
                .collect();
            let g =
                BipartiteGraph::from_pairs("g", n_src as usize, n_dst as usize, &pairs).unwrap();
            let shuffled = EdgeSchedule::random(&g, case);
            let mut schedules = vec![shuffled.clone()];
            let edges = shuffled.edges();
            if !edges.is_empty() {
                let i = rng.gen_range(0..edges.len());
                let j = rng.gen_range(0..edges.len());
                let e = edges[i];
                let mut mutated = |f: &dyn Fn(&mut Vec<Edge>)| {
                    let mut v = edges.to_vec();
                    f(&mut v);
                    schedules.push(EdgeSchedule::new("mutated", v));
                };
                mutated(&|v| {
                    v.remove(i);
                });
                mutated(&|v| v.push(e));
                mutated(&|v| v[i] = v[j]);
                mutated(&|v| v[i] = Edge::new(e.src.raw(), (e.dst.raw() + 1) % n_dst));
                mutated(&|v| v[i] = Edge::new((e.src.raw() + 1) % n_src, e.dst.raw()));
                mutated(&|v| v[i] = Edge::new(n_src, e.dst.raw()));
                mutated(&|v| v[i] = Edge::new(e.src.raw(), n_dst));
                mutated(&|v| v[i] = Edge::new(u32::MAX, u32::MAX));
                // two retargets that cancel in the per-source counts
                if edges.len() > 1 && i != j {
                    let f = edges[j];
                    mutated(&|v| {
                        v[i] = Edge::new(e.src.raw(), f.dst.raw());
                        v[j] = Edge::new(f.src.raw(), e.dst.raw());
                    });
                }
            }
            for sched in &schedules {
                assert_eq!(
                    sched.is_permutation_of(&g),
                    sorted_equal(sched, &g),
                    "case {case}: {:?} against {pairs:?}",
                    sched.edges()
                );
            }
            assert!(shuffled.is_permutation_of(&g), "case {case}");
        }
    }

    #[test]
    fn empty_graph_schedules() {
        let g = BipartiteGraph::from_pairs("e", 3, 3, &[]).unwrap();
        assert!(EdgeSchedule::dst_major(&g).is_empty());
        assert!(EdgeSchedule::islandized(&g).is_empty());
        assert!(EdgeSchedule::random(&g, 0).is_empty());
    }
}

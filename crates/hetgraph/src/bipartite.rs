//! Bipartite semantic graphs.
//!
//! The semantic graph build (SGB) stage partitions a heterogeneous graph
//! into directed bipartite graphs, one per relation or metapath (paper §2,
//! [Hu et al. 2020]). [`BipartiteGraph`] is the unit of work handed to the
//! GDR-HGNN frontend and to the accelerator's neighbor-aggregation stage.

use crate::csr::Csr;
use crate::error::Result;
use crate::ids::{Edge, RelationId, VertexTypeId};

/// A directed bipartite semantic graph `G_P` with `src_count` source
/// vertices and `dst_count` destination vertices.
///
/// Both adjacency directions are materialized: `out` maps sources to
/// destinations (the direction edges point) and `inc` maps destinations to
/// sources (the direction neighbor aggregation walks).
///
/// # Examples
///
/// ```
/// use gdr_hetgraph::BipartiteGraph;
/// let g = BipartiteGraph::from_pairs("A->M", 3, 2, &[(0, 0), (1, 0), (2, 1)])?;
/// assert_eq!(g.edge_count(), 3);
/// assert_eq!(g.in_neighbors(0), &[0, 1]); // movie 0 has actors {0, 1}
/// # Ok::<(), gdr_hetgraph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BipartiteGraph {
    name: String,
    relation: Option<RelationId>,
    src_ty: Option<VertexTypeId>,
    dst_ty: Option<VertexTypeId>,
    out: Csr,
    inc: Csr,
}

impl BipartiteGraph {
    /// Builds a semantic graph from `(src, dst)` edge pairs.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GraphError::VertexOutOfRange`] when an endpoint
    /// exceeds its declared space.
    pub fn from_pairs(
        name: impl Into<String>,
        src_count: usize,
        dst_count: usize,
        pairs: &[(u32, u32)],
    ) -> Result<Self> {
        let out = Csr::from_pairs(src_count, dst_count, pairs)?;
        let inc = out.transpose();
        Ok(Self {
            name: name.into(),
            relation: None,
            src_ty: None,
            dst_ty: None,
            out,
            inc,
        })
    }

    /// Rebuilds `parts` **in place** as a partition of this graph's edges
    /// by endpoint side: edge `(s, d)` goes to part
    /// `route[src_side[s] as usize][dst_side[d] as usize]`, and part `k`
    /// is named `{name}/{suffixes[k]}`. Each part keeps this graph's vertex
    /// spaces and equals [`BipartiteGraph::from_pairs`] over its edges —
    /// provenance cleared, neighbors ascending, multi-edges kept — while
    /// reusing its CSR and name storage, so a caller splitting graphs in a
    /// loop stops allocating once the parts have grown to the largest
    /// graph seen.
    ///
    /// The split is one pass over each adjacency direction. A row's
    /// neighbors are already ascending, so dealing them in order keeps
    /// every part's rows ascending; a destination whose side routes both
    /// source sides to one part has its row copied whole.
    ///
    /// Returns the number of edges in each `[src side][dst side]` cell,
    /// counted during the source-major pass.
    ///
    /// # Panics
    ///
    /// Panics if a side bitmap is shorter than its vertex space or a
    /// route names a part outside `parts`.
    pub fn split_by_side_into<const K: usize>(
        &self,
        src_side: &[bool],
        dst_side: &[bool],
        route: [[usize; 2]; 2],
        parts: &mut [BipartiteGraph; K],
        suffixes: [&str; K],
    ) -> [[usize; 2]; 2] {
        let src_side = &src_side[..self.src_count()];
        let dst_side = &dst_side[..self.dst_count()];
        assert!(
            route.iter().flatten().all(|&k| k < K),
            "route names a part outside the {K} given"
        );
        use std::fmt::Write as _;
        for (part, suffix) in parts.iter_mut().zip(suffixes) {
            part.name.clear();
            write!(part.name, "{}/{suffix}", self.name).expect("writing to a String cannot fail");
            part.relation = None;
            part.src_ty = None;
            part.dst_ty = None;
            part.out.clear_rows(self.src_count(), self.dst_count());
            part.inc.clear_rows(self.dst_count(), self.src_count());
        }
        let mut cells = [[0usize; 2]; 2];
        let (offsets, cols) = (self.out.offsets(), self.out.col_indices());
        for (s, (&side, span)) in src_side.iter().zip(offsets.windows(2)).enumerate() {
            let to = route[side as usize];
            let row = &cols[span[0] as usize..span[1] as usize];
            let mut to_in = 0;
            for &d in row {
                let d_side = dst_side[d as usize];
                to_in += d_side as usize;
                parts[to[d_side as usize]].out.push_col(d);
            }
            cells[side as usize][1] += to_in;
            cells[side as usize][0] += row.len() - to_in;
            parts.iter_mut().for_each(|p| p.out.end_row(s));
        }
        let (offsets, cols) = (self.inc.offsets(), self.inc.col_indices());
        for (d, (&side, span)) in dst_side.iter().zip(offsets.windows(2)).enumerate() {
            let to = [route[0][side as usize], route[1][side as usize]];
            let row = &cols[span[0] as usize..span[1] as usize];
            if to[0] == to[1] {
                parts[to[0]].inc.extend_cols(row);
            } else {
                for &s in row {
                    parts[to[src_side[s as usize] as usize]].inc.push_col(s);
                }
            }
            parts.iter_mut().for_each(|p| p.inc.end_row(d));
        }
        cells
    }

    /// Attaches schema provenance (which relation and endpoint types this
    /// semantic graph was built from).
    pub fn with_provenance(
        mut self,
        relation: RelationId,
        src_ty: VertexTypeId,
        dst_ty: VertexTypeId,
    ) -> Self {
        self.relation = Some(relation);
        self.src_ty = Some(src_ty);
        self.dst_ty = Some(dst_ty);
        self
    }

    /// Semantic graph name (relation or metapath label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Relation this graph was built from, if known.
    pub fn relation(&self) -> Option<RelationId> {
        self.relation
    }

    /// Source vertex type, if known.
    pub fn src_ty(&self) -> Option<VertexTypeId> {
        self.src_ty
    }

    /// Destination vertex type, if known.
    pub fn dst_ty(&self) -> Option<VertexTypeId> {
        self.dst_ty
    }

    /// Number of source vertices (|V_src|).
    pub fn src_count(&self) -> usize {
        self.out.rows()
    }

    /// Number of destination vertices (|V_dst|).
    pub fn dst_count(&self) -> usize {
        self.out.cols()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.out.edge_count()
    }

    /// Source-major adjacency (src -> dst).
    pub fn out_csr(&self) -> &Csr {
        &self.out
    }

    /// Destination-major adjacency (dst -> src), the aggregation direction.
    pub fn in_csr(&self) -> &Csr {
        &self.inc
    }

    /// Destinations adjacent to source `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= self.src_count()`.
    pub fn out_neighbors(&self, s: usize) -> &[u32] {
        self.out.neighbors(s)
    }

    /// Sources adjacent to destination `d` (the neighbors aggregated into
    /// `d` during the NA stage).
    ///
    /// # Panics
    ///
    /// Panics if `d >= self.dst_count()`.
    pub fn in_neighbors(&self, d: usize) -> &[u32] {
        self.inc.neighbors(d)
    }

    /// Out-degree of source `s`.
    pub fn out_degree(&self, s: usize) -> usize {
        self.out.degree(s)
    }

    /// In-degree of destination `d`.
    pub fn in_degree(&self, d: usize) -> usize {
        self.inc.degree(d)
    }

    /// Iterates edges in source-major order.
    pub fn iter_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.out.iter_edges()
    }

    /// Edge list in source-major order (allocates).
    pub fn edges(&self) -> Vec<Edge> {
        self.iter_edges().collect()
    }

    /// Returns `true` if the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edge_count() == 0
    }

    /// Returns the reverse semantic graph (dst becomes src), modelling the
    /// paired reverse relation every HetG dataset in Table 2 carries.
    pub fn reversed(&self) -> BipartiteGraph {
        BipartiteGraph {
            name: format!("{}-rev", self.name),
            relation: self.relation,
            src_ty: self.dst_ty,
            dst_ty: self.src_ty,
            out: self.inc.clone(),
            inc: self.out.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> BipartiteGraph {
        BipartiteGraph::from_pairs("toy", 4, 3, &[(0, 0), (1, 0), (1, 2), (3, 1), (3, 2)]).unwrap()
    }

    #[test]
    fn counts_and_adjacency() {
        let g = toy();
        assert_eq!(g.src_count(), 4);
        assert_eq!(g.dst_count(), 3);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.out_neighbors(1), &[0, 2]);
        assert_eq!(g.in_neighbors(2), &[1, 3]);
        assert_eq!(g.out_degree(2), 0);
        assert_eq!(g.in_degree(0), 2);
        assert!(!g.is_empty());
        assert!(BipartiteGraph::from_pairs("e", 2, 2, &[])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn in_out_are_consistent() {
        let g = toy();
        let mut from_out: Vec<_> = g.iter_edges().map(|e| (e.src.raw(), e.dst.raw())).collect();
        let mut from_in: Vec<_> = (0..g.dst_count())
            .flat_map(|d| g.in_neighbors(d).iter().map(move |&s| (s, d as u32)))
            .collect();
        from_out.sort_unstable();
        from_in.sort_unstable();
        assert_eq!(from_out, from_in);
    }

    #[test]
    fn reversal_swaps_directions() {
        let g = toy();
        let r = g.reversed();
        assert_eq!(r.src_count(), 3);
        assert_eq!(r.dst_count(), 4);
        assert_eq!(r.edge_count(), g.edge_count());
        assert_eq!(r.out_neighbors(2), &[1, 3]);
        assert_eq!(r.name(), "toy-rev");
    }

    #[test]
    fn rebuild_matches_from_pairs() {
        let g = toy();
        let mut parts: [BipartiteGraph; 3] = Default::default();
        parts[1] = toy().with_provenance(
            RelationId::new(1),
            VertexTypeId::new(0),
            VertexTypeId::new(2),
        );
        // sources {1, 3} and destination {2} on side 1; cell [0][0] goes
        // to part 0 together with [1][0], the rest one part per cell
        let (src_side, dst_side) = ([false, true, false, true], [false, false, true]);
        let route = [[0, 2], [0, 1]];
        let cells = g.split_by_side_into(&src_side, &dst_side, route, &mut parts, ["a", "b", "c"]);
        assert_eq!(cells, [[1, 0], [2, 2]]);
        let expect = [
            ("toy/a", &[(0, 0), (1, 0), (3, 1)][..]),
            ("toy/b", &[(1, 2), (3, 2)][..]),
            ("toy/c", &[][..]),
        ];
        for (part, (name, pairs)) in parts.iter().zip(expect) {
            let fresh = BipartiteGraph::from_pairs(name, 4, 3, pairs).unwrap();
            assert_eq!(part, &fresh, "split must be indistinguishable from fresh");
        }
        assert_eq!(
            parts[1].relation(),
            None,
            "provenance resets like from_pairs"
        );
        // shrinking through the same storage still matches, multi-edges kept
        let small = BipartiteGraph::from_pairs("s", 2, 2, &[(0, 1), (0, 1), (1, 0)]).unwrap();
        let cells = small.split_by_side_into(
            &[true, false],
            &[false, true],
            [[1, 1], [2, 0]],
            &mut parts,
            ["x", "y", "z"],
        );
        assert_eq!(cells, [[1, 0], [0, 2]]);
        let expect = [
            ("s/x", &[(0, 1), (0, 1)][..]),
            ("s/y", &[(1, 0)][..]),
            ("s/z", &[][..]),
        ];
        for (part, (name, pairs)) in parts.iter().zip(expect) {
            assert_eq!(
                part,
                &BipartiteGraph::from_pairs(name, 2, 2, pairs).unwrap()
            );
        }
    }

    #[test]
    fn provenance_is_attached() {
        let g = toy().with_provenance(
            RelationId::new(1),
            VertexTypeId::new(0),
            VertexTypeId::new(2),
        );
        assert_eq!(g.relation(), Some(RelationId::new(1)));
        assert_eq!(g.src_ty(), Some(VertexTypeId::new(0)));
        assert_eq!(g.dst_ty(), Some(VertexTypeId::new(2)));
    }
}

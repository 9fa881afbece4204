//! Heterogeneous graph container and semantic graph build (SGB).

use crate::bipartite::BipartiteGraph;
use crate::error::{GraphError, Result};
use crate::ids::RelationId;
use crate::schema::Schema;

/// A heterogeneous graph: a [`Schema`] plus one edge list per relation.
///
/// `HeteroGraph` is deliberately storage-oriented: simulators never walk it
/// directly. Instead [`HeteroGraph::semantic_graph`] (the SGB stage) builds
/// the directed bipartite [`BipartiteGraph`]s that the HGNN stages and the
/// GDR-HGNN frontend consume.
///
/// # Examples
///
/// ```
/// use gdr_hetgraph::{HeteroGraph, Schema};
/// let mut schema = Schema::new();
/// let a = schema.add_vertex_type("author", 3, 16)?;
/// let p = schema.add_vertex_type("paper", 2, 16)?;
/// let writes = schema.add_relation("A->P", a, p)?;
/// let mut g = HeteroGraph::new(schema);
/// g.add_edges(writes, &[(0, 0), (1, 0), (2, 1)])?;
/// let sg = g.semantic_graph(writes)?;
/// assert_eq!(sg.edge_count(), 3);
/// assert_eq!(sg.name(), "A->P");
/// # Ok::<(), gdr_hetgraph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroGraph {
    schema: Schema,
    edges: Vec<Vec<(u32, u32)>>,
    name: String,
}

impl HeteroGraph {
    /// Creates an empty heterogeneous graph over `schema`.
    pub fn new(schema: Schema) -> Self {
        let relations = schema.relations().len();
        Self {
            schema,
            edges: vec![Vec::new(); relations],
            name: String::from("hetg"),
        }
    }

    /// Sets a human-readable dataset name (e.g. `"ACM"`).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The graph schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Appends edges to a relation.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownRelation`] for an unregistered relation
    /// and [`GraphError::VertexOutOfRange`] when an endpoint exceeds its
    /// type's vertex count.
    pub fn add_edges(&mut self, relation: RelationId, pairs: &[(u32, u32)]) -> Result<()> {
        let rel = self
            .schema
            .relation(relation)
            .ok_or(GraphError::UnknownRelation {
                relation,
                len: self.schema.relations().len(),
            })?;
        let src_count = self
            .schema
            .vertex_type(rel.src_ty())
            .expect("relation endpoints validated at registration")
            .count();
        let dst_count = self
            .schema
            .vertex_type(rel.dst_ty())
            .expect("relation endpoints validated at registration")
            .count();
        for &(s, d) in pairs {
            if s as usize >= src_count {
                return Err(GraphError::VertexOutOfRange {
                    what: "source",
                    index: s as usize,
                    len: src_count,
                });
            }
            if d as usize >= dst_count {
                return Err(GraphError::VertexOutOfRange {
                    what: "destination",
                    index: d as usize,
                    len: dst_count,
                });
            }
        }
        self.edges[relation.index()].extend_from_slice(pairs);
        Ok(())
    }

    /// Total edges across all relations.
    pub fn total_edges(&self) -> usize {
        self.edges.iter().map(|e| e.len()).sum()
    }

    /// **SGB stage**: builds the directed bipartite semantic graph of one
    /// relation.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownRelation`] for an unregistered relation.
    pub fn semantic_graph(&self, relation: RelationId) -> Result<BipartiteGraph> {
        let rel = self
            .schema
            .relation(relation)
            .ok_or(GraphError::UnknownRelation {
                relation,
                len: self.schema.relations().len(),
            })?;
        let src_count = self.schema.vertex_type(rel.src_ty()).unwrap().count();
        let dst_count = self.schema.vertex_type(rel.dst_ty()).unwrap().count();
        let g = BipartiteGraph::from_pairs(
            rel.name(),
            src_count,
            dst_count,
            &self.edges[relation.index()],
        )?;
        Ok(g.with_provenance(relation, rel.src_ty(), rel.dst_ty()))
    }

    /// **SGB stage**: builds semantic graphs for every relation, in
    /// relation-id order (the execution order HiHGNN's lanes receive them).
    pub fn all_semantic_graphs(&self) -> Vec<BipartiteGraph> {
        (0..self.schema.relations().len())
            .map(|i| {
                self.semantic_graph(RelationId::new(i as u16))
                    .expect("relation ids 0..len are registered")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (HeteroGraph, RelationId, RelationId) {
        let mut schema = Schema::new();
        let a = schema.add_vertex_type("a", 3, 8).unwrap();
        let b = schema.add_vertex_type("b", 2, 8).unwrap();
        let r1 = schema.add_relation("a->b", a, b).unwrap();
        let r2 = schema.add_relation("b->a", b, a).unwrap();
        let mut g = HeteroGraph::new(schema).with_name("toy");
        g.add_edges(r1, &[(0, 0), (2, 1)]).unwrap();
        g.add_edges(r2, &[(1, 2)]).unwrap();
        (g, r1, r2)
    }

    #[test]
    fn sgb_builds_per_relation_graphs() {
        let (g, r1, r2) = toy();
        assert_eq!(g.name(), "toy");
        assert_eq!(g.total_edges(), 3);
        let s1 = g.semantic_graph(r1).unwrap();
        assert_eq!(s1.src_count(), 3);
        assert_eq!(s1.dst_count(), 2);
        assert_eq!(s1.edge_count(), 2);
        let s2 = g.semantic_graph(r2).unwrap();
        assert_eq!(s2.src_count(), 2);
        assert_eq!(s2.dst_count(), 3);
        let all = g.all_semantic_graphs();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].name(), "a->b");
    }

    #[test]
    fn add_edges_validates() {
        let (mut g, r1, _) = toy();
        assert!(matches!(
            g.add_edges(r1, &[(9, 0)]),
            Err(GraphError::VertexOutOfRange { what: "source", .. })
        ));
        assert!(matches!(
            g.add_edges(r1, &[(0, 9)]),
            Err(GraphError::VertexOutOfRange {
                what: "destination",
                ..
            })
        ));
        let bogus = RelationId::new(42);
        assert!(matches!(
            g.add_edges(bogus, &[]),
            Err(GraphError::UnknownRelation { .. })
        ));
        assert!(g.semantic_graph(bogus).is_err());
    }
}

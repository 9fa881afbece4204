//! Graph schema: vertex types and relations.
//!
//! A heterogeneous graph `G = (V, E, T_v, T_e)` carries a vertex type set
//! and an edge type set; each edge type is a *relation* `R` from a source
//! vertex type to a destination vertex type (paper §2, Table 1).

use crate::error::{GraphError, Result};
use crate::ids::{RelationId, VertexTypeId};

/// Description of one vertex type (e.g. `paper` in ACM).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexType {
    name: String,
    count: usize,
    feature_dim: usize,
}

impl VertexType {
    /// Creates a vertex type description.
    ///
    /// `feature_dim == 0` models the featureless types in Table 2 (e.g.
    /// IMDB's `keyword`); downstream feature projection substitutes a
    /// learned embedding table for them.
    pub fn new(name: impl Into<String>, count: usize, feature_dim: usize) -> Self {
        Self {
            name: name.into(),
            count,
            feature_dim,
        }
    }

    /// Human-readable type name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of vertices of this type.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Raw input feature dimensionality (0 = featureless / embedding).
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }
}

/// Description of one relation (edge type) `src_ty -> dst_ty`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    name: String,
    src_ty: VertexTypeId,
    dst_ty: VertexTypeId,
}

impl Relation {
    /// Creates a relation description.
    pub fn new(name: impl Into<String>, src_ty: VertexTypeId, dst_ty: VertexTypeId) -> Self {
        Self {
            name: name.into(),
            src_ty,
            dst_ty,
        }
    }

    /// Human-readable relation name (e.g. `"A->M"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Source vertex type.
    pub fn src_ty(&self) -> VertexTypeId {
        self.src_ty
    }

    /// Destination vertex type.
    pub fn dst_ty(&self) -> VertexTypeId {
        self.dst_ty
    }
}

/// The type-level description of a heterogeneous graph.
///
/// # Examples
///
/// ```
/// use gdr_hetgraph::Schema;
/// let mut schema = Schema::new();
/// let paper = schema.add_vertex_type("paper", 3025, 1902)?;
/// let author = schema.add_vertex_type("author", 5959, 1902)?;
/// let writes = schema.add_relation("A->P", author, paper)?;
/// assert_eq!(schema.relation(writes).unwrap().name(), "A->P");
/// # Ok::<(), gdr_hetgraph::GraphError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schema {
    vertex_types: Vec<VertexType>,
    relations: Vec<Relation>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a vertex type; returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateName`] if the name is already taken.
    pub fn add_vertex_type(
        &mut self,
        name: impl Into<String>,
        count: usize,
        feature_dim: usize,
    ) -> Result<VertexTypeId> {
        let name = name.into();
        if self.vertex_types.iter().any(|t| t.name == name) {
            return Err(GraphError::DuplicateName { name });
        }
        let id = VertexTypeId::new(self.vertex_types.len() as u16);
        self.vertex_types
            .push(VertexType::new(name, count, feature_dim));
        Ok(id)
    }

    /// Registers a relation; returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownVertexType`] if either endpoint type is
    /// unregistered, or [`GraphError::DuplicateName`] on a name collision.
    pub fn add_relation(
        &mut self,
        name: impl Into<String>,
        src_ty: VertexTypeId,
        dst_ty: VertexTypeId,
    ) -> Result<RelationId> {
        let name = name.into();
        for ty in [src_ty, dst_ty] {
            if ty.index() >= self.vertex_types.len() {
                return Err(GraphError::UnknownVertexType {
                    ty,
                    len: self.vertex_types.len(),
                });
            }
        }
        if self.relations.iter().any(|r| r.name == name) {
            return Err(GraphError::DuplicateName { name });
        }
        let id = RelationId::new(self.relations.len() as u16);
        self.relations.push(Relation::new(name, src_ty, dst_ty));
        Ok(id)
    }

    /// Looks up a vertex type by id.
    pub fn vertex_type(&self, id: VertexTypeId) -> Option<&VertexType> {
        self.vertex_types.get(id.index())
    }

    /// Looks up a relation by id.
    pub fn relation(&self, id: RelationId) -> Option<&Relation> {
        self.relations.get(id.index())
    }

    /// Finds a vertex type id by name.
    pub fn vertex_type_by_name(&self, name: &str) -> Option<VertexTypeId> {
        self.vertex_types
            .iter()
            .position(|t| t.name == name)
            .map(|i| VertexTypeId::new(i as u16))
    }

    /// Finds a relation id by name.
    pub fn relation_by_name(&self, name: &str) -> Option<RelationId> {
        self.relations
            .iter()
            .position(|r| r.name == name)
            .map(|i| RelationId::new(i as u16))
    }

    /// All vertex types, in id order.
    pub fn vertex_types(&self) -> &[VertexType] {
        &self.vertex_types
    }

    /// All relations, in id order.
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// Total vertex count across all types.
    pub fn total_vertices(&self) -> usize {
        self.vertex_types.iter().map(|t| t.count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_registration_and_lookup() {
        let mut s = Schema::new();
        let m = s.add_vertex_type("movie", 4932, 3489).unwrap();
        let a = s.add_vertex_type("actor", 6124, 3341).unwrap();
        let r = s.add_relation("A->M", a, m).unwrap();
        assert_eq!(s.vertex_type(m).unwrap().count(), 4932);
        assert_eq!(s.vertex_type_by_name("actor"), Some(a));
        assert_eq!(s.relation_by_name("A->M"), Some(r));
        assert_eq!(s.relation(r).unwrap().src_ty(), a);
        assert_eq!(s.total_vertices(), 4932 + 6124);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut s = Schema::new();
        s.add_vertex_type("x", 1, 0).unwrap();
        assert!(matches!(
            s.add_vertex_type("x", 2, 0),
            Err(GraphError::DuplicateName { .. })
        ));
        let a = s.add_vertex_type("a", 1, 0).unwrap();
        s.add_relation("r", a, a).unwrap();
        assert!(matches!(
            s.add_relation("r", a, a),
            Err(GraphError::DuplicateName { .. })
        ));
    }

    #[test]
    fn unknown_type_rejected() {
        let mut s = Schema::new();
        let a = s.add_vertex_type("a", 1, 0).unwrap();
        let bogus = VertexTypeId::new(9);
        assert!(matches!(
            s.add_relation("r", a, bogus),
            Err(GraphError::UnknownVertexType { .. })
        ));
    }
}

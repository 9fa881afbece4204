//! Error types for graph construction and validation.

use std::error::Error;
use std::fmt;

use crate::ids::{RelationId, VertexTypeId};

/// Errors produced while building or validating heterogeneous graphs.
///
/// # Examples
///
/// ```
/// use gdr_hetgraph::GraphError;
/// let err = GraphError::VertexOutOfRange {
///     what: "source",
///     index: 10,
///     len: 4,
/// };
/// assert!(err.to_string().contains("source"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A vertex index referenced by an edge exceeds its type's vertex count.
    VertexOutOfRange {
        /// Which endpoint was out of range (`"source"` or `"destination"`).
        what: &'static str,
        /// The offending index.
        index: usize,
        /// The size of the id space that was indexed.
        len: usize,
    },
    /// A relation references a vertex type that is not in the schema.
    UnknownVertexType {
        /// The offending type id.
        ty: VertexTypeId,
        /// Number of types in the schema.
        len: usize,
    },
    /// A relation id is not present in the schema.
    UnknownRelation {
        /// The offending relation id.
        relation: RelationId,
        /// Number of relations in the schema.
        len: usize,
    },
    /// Two schema items were registered under the same name.
    DuplicateName {
        /// The duplicated name.
        name: String,
    },
    /// An operation required a non-empty graph but the graph had no edges.
    EmptyGraph,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { what, index, len } => {
                write!(
                    f,
                    "{what} vertex index {index} out of range for space of {len}"
                )
            }
            GraphError::UnknownVertexType { ty, len } => {
                write!(f, "vertex type {ty} not in schema of {len} types")
            }
            GraphError::UnknownRelation { relation, len } => {
                write!(f, "relation {relation} not in schema of {len} relations")
            }
            GraphError::DuplicateName { name } => {
                write!(f, "duplicate schema name `{name}`")
            }
            GraphError::EmptyGraph => write!(f, "graph has no edges"),
        }
    }
}

impl Error for GraphError {}

/// Convenience result alias for fallible graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;

/// The workspace-wide error type.
///
/// Every fallible public API of the simulation stack — graph
/// construction, schedule validation, platform execution, the
/// `SystemBuilder` — funnels into this enum, so callers match on one
/// type regardless of which layer rejected the input.
///
/// # Examples
///
/// ```
/// use gdr_hetgraph::{GdrError, GraphError};
/// let err: GdrError = GraphError::EmptyGraph.into();
/// assert!(matches!(err, GdrError::Graph(_)));
/// let err = GdrError::length_mismatch("schedules", 4, 2);
/// assert!(err.to_string().contains("expected 4"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GdrError {
    /// A graph-construction or validation error.
    Graph(GraphError),
    /// Two index-aligned inputs disagreed in length (e.g. one schedule
    /// per semantic graph, one accelerator time per graph).
    LengthMismatch {
        /// What was being aligned (`"schedules"`, `"accelerator times"`…).
        what: &'static str,
        /// The length the API required.
        expected: usize,
        /// The length the caller supplied.
        actual: usize,
    },
    /// A configuration value was rejected before any work started.
    InvalidConfig {
        /// The offending parameter.
        what: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// An operation required a non-empty input collection.
    EmptyInput {
        /// What was empty (`"semantic graphs"`, `"workload"`…).
        what: &'static str,
    },
}

impl GdrError {
    /// Builds a [`GdrError::LengthMismatch`].
    pub fn length_mismatch(what: &'static str, expected: usize, actual: usize) -> Self {
        GdrError::LengthMismatch {
            what,
            expected,
            actual,
        }
    }

    /// Builds a [`GdrError::InvalidConfig`].
    pub fn invalid_config(what: &'static str, reason: impl Into<String>) -> Self {
        GdrError::InvalidConfig {
            what,
            reason: reason.into(),
        }
    }

    /// Checks that two index-aligned inputs agree in length.
    pub fn check_aligned(what: &'static str, expected: usize, actual: usize) -> GdrResult<()> {
        if expected == actual {
            Ok(())
        } else {
            Err(GdrError::length_mismatch(what, expected, actual))
        }
    }
}

impl fmt::Display for GdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GdrError::Graph(e) => e.fmt(f),
            GdrError::LengthMismatch {
                what,
                expected,
                actual,
            } => write!(f, "{what} misaligned: expected {expected}, got {actual}"),
            GdrError::InvalidConfig { what, reason } => {
                write!(f, "invalid {what}: {reason}")
            }
            GdrError::EmptyInput { what } => write!(f, "{what} must not be empty"),
        }
    }
}

impl Error for GdrError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GdrError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for GdrError {
    fn from(e: GraphError) -> Self {
        GdrError::Graph(e)
    }
}

/// Convenience result alias for the workspace-wide error type.
pub type GdrResult<T> = std::result::Result<T, GdrError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<GraphError> = vec![
            GraphError::VertexOutOfRange {
                what: "destination",
                index: 9,
                len: 3,
            },
            GraphError::UnknownVertexType {
                ty: VertexTypeId::new(5),
                len: 2,
            },
            GraphError::UnknownRelation {
                relation: RelationId::new(4),
                len: 1,
            },
            GraphError::DuplicateName {
                name: "paper".into(),
            },
            GraphError::EmptyGraph,
        ];
        for c in cases {
            let msg = c.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
        assert_send_sync::<GdrError>();
    }

    #[test]
    fn gdr_error_wraps_and_formats() {
        let wrapped: GdrError = GraphError::EmptyGraph.into();
        assert_eq!(wrapped.to_string(), GraphError::EmptyGraph.to_string());
        assert!(std::error::Error::source(&wrapped).is_some());

        let lm = GdrError::length_mismatch("schedules", 6, 2);
        assert_eq!(lm.to_string(), "schedules misaligned: expected 6, got 2");

        let ic = GdrError::invalid_config("na_buffer_bytes", "must be positive");
        assert!(ic.to_string().contains("na_buffer_bytes"));

        let ei = GdrError::EmptyInput {
            what: "semantic graphs",
        };
        assert!(ei.to_string().contains("must not be empty"));
    }

    #[test]
    fn check_aligned_accepts_and_rejects() {
        assert!(GdrError::check_aligned("x", 3, 3).is_ok());
        assert_eq!(
            GdrError::check_aligned("x", 3, 1),
            Err(GdrError::length_mismatch("x", 3, 1))
        );
    }
}

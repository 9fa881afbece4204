//! # gdr-hetgraph — heterogeneous graph substrate
//!
//! Foundation crate of the GDR-HGNN reproduction (Xue et al., DAC 2024).
//! It provides the graph abstractions every other crate builds on:
//!
//! * typed identifiers ([`VertexId`], [`VertexTypeId`], [`RelationId`]),
//! * [`Csr`] adjacency storage,
//! * [`Schema`] / [`HeteroGraph`] heterogeneous graph containers with the
//!   semantic graph build (SGB) stage,
//! * [`BipartiteGraph`] directed bipartite semantic graphs,
//! * seeded random generators ([`gen`]) and the Table 2 dataset
//!   synthesizers ([`datasets`]),
//! * metapath composition ([`metapath`]).
//!
//! # Examples
//!
//! Build the synthetic ACM dataset and inspect a semantic graph:
//!
//! ```
//! use gdr_hetgraph::datasets::Dataset;
//!
//! let acm = Dataset::Acm.build_scaled(42, 0.05);
//! let pa = acm.schema().relation_by_name("P->A").unwrap();
//! let sg = acm.semantic_graph(pa)?;
//! assert!(sg.edge_count() > 0);
//! println!("{}: {} src, {} dst, {} edges", sg.name(), sg.src_count(),
//!          sg.dst_count(), sg.edge_count());
//! # Ok::<(), gdr_hetgraph::GraphError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bipartite;
mod csr;
mod error;
mod hetero;
mod ids;
mod schema;

pub mod datasets;
pub mod gen;
pub mod metapath;

pub use bipartite::BipartiteGraph;
pub use csr::Csr;
pub use error::{GdrError, GdrResult, GraphError, Result};
pub use hetero::HeteroGraph;
pub use ids::{Edge, RelationId, VertexId, VertexTypeId};
pub use schema::{Relation, Schema, VertexType};

//! # gdr-hgnn — HGNN models, reference execution and workloads
//!
//! The HGNN layer of the GDR-HGNN reproduction:
//!
//! * [`model`] — RGCN / RGAT / Simple-HGN configurations (paper §5.1),
//!   with per-stage operation counts;
//! * [`tensor`] / [`features`] — minimal dense math and deterministic
//!   synthetic feature tables;
//! * [`reference`](mod@reference) — functional FP → NA → SF execution, the numerical
//!   oracle proving restructured schedules preserve semantics;
//! * [`workload`] — per-semantic-graph work descriptors the hardware
//!   models charge from;
//! * [`similarity`] — HiHGNN's similarity-based semantic graph execution
//!   order (the reuse scheduling GDR-HGNN piggybacks on).
//!
//! # Examples
//!
//! ```
//! use gdr_hetgraph::datasets::Dataset;
//! use gdr_hgnn::model::{ModelConfig, ModelKind};
//! use gdr_hgnn::workload::Workload;
//!
//! let het = Dataset::Imdb.build_scaled(1, 0.05);
//! let w = Workload::from_hetero(ModelConfig::paper(ModelKind::Rgat), &het);
//! for g in w.graphs() {
//!     println!("{}: {} NA ops", g.name, w.na_ops(g));
//!     assert!(w.na_ops(g) > w.sf_ops(g));
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod features;
pub mod model;
pub mod reference;
pub mod similarity;
pub mod tensor;
pub mod workload;

pub use model::{ModelConfig, ModelKind};
pub use reference::HgnnReference;
pub use workload::{SgWork, Workload};

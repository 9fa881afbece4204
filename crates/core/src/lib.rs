//! # gdr-core — graph decoupling and recoupling
//!
//! The primary contribution of *GDR-HGNN* (Xue et al., DAC 2024) as a pure
//! algorithm library:
//!
//! * [`matching`] — graph **decoupling**: maximum bipartite matching via
//!   the paper's FIFO algorithm (Algorithm 1), Hopcroft-Karp, and a greedy
//!   baseline;
//! * [`backbone`] — graph **recoupling** step 1: backbone (vertex cover)
//!   selection (Algorithm 2, exact König, greedy-degree baseline);
//! * [`recouple`] — recoupling step 2: the `Src/Dst × in/out` vertex
//!   partition and the three-subgraph generation (`GenerateGraph`);
//! * [`schedule`] — edge schedules, including the locality-friendly
//!   restructured order (walked over the three subgraphs, or emitted
//!   straight from the backbone without them) and the baselines it is
//!   compared against;
//! * [`restructure`] — the end-to-end [`restructure::Restructurer`]
//!   driver, including the paper's recursive sub-subgraph extension;
//! * [`workspace`] — the reusable [`workspace::Workspace`] scratch arena.
//!   Each stage above has one entry point, and it takes the workspace
//!   (or the workspace slots it rebuilds); the one-shot
//!   [`restructure::Restructurer::restructure`] is the allocating
//!   convenience.
//!
//! # Examples
//!
//! Restructure a skewed semantic graph: the backbone covers every edge,
//! and the restructured schedule walks each edge exactly once. The
//! buffer misses a schedule causes are measured by the NA engine's
//! buffer model, `gdr_accel::na_engine::NaBufferSim`.
//!
//! ```
//! use gdr_hetgraph::gen::PowerLawConfig;
//! use gdr_core::restructure::Restructurer;
//!
//! let g = PowerLawConfig::new(500, 500, 4000).dst_alpha(0.9).generate("toy", 1);
//! let restructured = Restructurer::new().restructure(&g);
//!
//! assert!(restructured.backbone().covers_all_edges(&g));
//! assert!(restructured.schedule().is_permutation_of(&g));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backbone;
pub mod matching;
pub mod recouple;
pub mod restructure;
pub mod schedule;
pub mod workspace;

pub use backbone::{Backbone, BackboneStrategy};
pub use matching::Matching;
pub use recouple::{RestructuredSubgraphs, SubgraphKind, VertexPartition};
pub use restructure::{MatcherKind, Restructured, Restructurer};
pub use schedule::EdgeSchedule;
pub use workspace::{MatchScratch, RecoupleScratch, Workspace};

//! # gdr-frontend — the GDR-HGNN hardware frontend
//!
//! Cycle-level model of the paper's contribution as hardware (Fig. 4-6):
//!
//! * [`decoupler`] — Algorithm 1 through the modeled datapath (hash
//!   table, matching FIFOs, visited/matching bitmaps, Matching and
//!   Candidate buffers), producing a maximum matching and a cycle count;
//! * [`recoupler`] — Algorithm 2: the Backbone Searcher, four class
//!   FIFOs and the Graph Generator, producing the three restructured
//!   subgraphs' schedule (emitted straight from the backbone);
//! * [`pipeline`] — the epoch-overlapped Decoupler → Recoupler →
//!   accelerator pipeline with exposed-cycle accounting;
//! * [`session`] — the lazy, streaming [`Session`] API: per-graph
//!   results on demand, parallel fan-out across cores, one reused
//!   restructuring [`Workspace`] per stream/lane;
//! * [`area_power`] — Fig. 10's component-level area/power estimate;
//! * [`config`] — Table 3 hardware parameters.
//!
//! Each stage model has one entry point, and it takes the restructuring
//! [`Workspace`]: [`Decoupler::decouple_with`],
//! [`Recoupler::recouple_with`] and [`FrontendPipeline::process_with`].
//! [`Session`] drives them over a set of semantic graphs, and its
//! one-shot forms ([`Session::process`], [`Session::iter`],
//! [`Session::par_process`]) hold the workspaces themselves.
//!
//! # Examples
//!
//! ```
//! use gdr_hetgraph::datasets::Dataset;
//! use gdr_frontend::config::FrontendConfig;
//! use gdr_frontend::session::Session;
//!
//! let het = Dataset::Acm.build_scaled(1, 0.03);
//! let graphs = het.all_semantic_graphs();
//! let session = Session::new(FrontendConfig::default(), &graphs);
//! for (g, r) in graphs.iter().zip(session.iter()) {
//!     assert!(r.schedule.is_permutation_of(g));
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod area_power;
pub mod config;
pub mod decoupler;
pub mod pipeline;
pub mod recoupler;
pub mod session;

pub use area_power::FrontendAreaPower;
pub use config::FrontendConfig;
pub use decoupler::{DecoupleOutcome, Decoupler};
pub use pipeline::{FrontendPipeline, FrontendRun, GraphResult};
pub use recoupler::{RecoupleOutcome, Recoupler};
pub use session::Session;
// The reusable restructuring arena, re-exported so downstream layers
// (serving, benches) can hold one without a direct gdr-core dependency.
pub use gdr_core::workspace::Workspace;

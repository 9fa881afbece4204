//! [`SystemBuilder`]: the single entry point for assembling a simulated
//! system — dataset, model, frontend and accelerator configuration —
//! with validation up front instead of panics downstream.
//!
//! ```text
//! SystemBuilder::new()
//!     .dataset(..) .model(..) .scale(..)      // workload selection
//!     .accel_config(..) .frontend_config(..)  // hardware
//!     .build()?                               // validated System
//! ```
//!
//! [`System::run`] executes the combined GDR-HGNN + HiHGNN pipeline;
//! [`System::execute_on`] runs the same workload on any other
//! [`Platform`]; [`System::session`] opens a streaming frontend
//! [`Session`] over the built semantic graphs.

use gdr_accel::hihgnn::HiHgnnConfig;
use gdr_accel::platform::{Platform, PlatformRun};
use gdr_frontend::config::FrontendConfig;
use gdr_frontend::session::Session;
use gdr_hetgraph::datasets::Dataset;
use gdr_hetgraph::{BipartiteGraph, GdrError, GdrResult, HeteroGraph};
use gdr_hgnn::model::{ModelConfig, ModelKind};
use gdr_hgnn::workload::Workload;

use crate::combined::{CombinedRun, CombinedSystem};

/// Builder over the whole simulation stack.
///
/// Defaults reproduce the paper's headline cell: ACM, RGCN, Table 2
/// scale, Table 3 hardware.
///
/// # Examples
///
/// ```
/// use gdr_system::builder::SystemBuilder;
/// use gdr_hetgraph::datasets::Dataset;
/// use gdr_hgnn::model::ModelKind;
///
/// let system = SystemBuilder::new()
///     .dataset(Dataset::Imdb)
///     .model(ModelKind::Rgat)
///     .seed(7)
///     .scale(0.05)
///     .build()
///     .expect("valid configuration");
/// let run = system.run().expect("aligned by construction");
/// assert_eq!(run.report().platform, "HiHGNN+GDR");
/// ```
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    dataset: Dataset,
    model: ModelConfig,
    seed: u64,
    scale: f64,
    accel: HiHgnnConfig,
    frontend: FrontendConfig,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SystemBuilder {
    /// Starts from the paper's defaults (ACM, RGCN, full scale, Table 3
    /// hardware on both sides).
    pub fn new() -> Self {
        Self {
            dataset: Dataset::Acm,
            model: ModelConfig::paper(ModelKind::Rgcn),
            seed: 42,
            scale: 1.0,
            accel: HiHgnnConfig::default(),
            frontend: FrontendConfig::default(),
        }
    }

    /// Selects the dataset to synthesize.
    pub fn dataset(mut self, dataset: Dataset) -> Self {
        self.dataset = dataset;
        self
    }

    /// Selects an HGNN model with the paper's hyper-parameters.
    pub fn model(mut self, kind: ModelKind) -> Self {
        self.model = ModelConfig::paper(kind);
        self
    }

    /// Dataset generation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Dataset scale (1.0 = Table 2 sizes). Must be positive and finite.
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Accelerator-side hardware configuration.
    pub fn accel_config(mut self, cfg: HiHgnnConfig) -> Self {
        self.accel = cfg;
        self
    }

    /// Frontend-side hardware configuration.
    pub fn frontend_config(mut self, cfg: FrontendConfig) -> Self {
        self.frontend = cfg;
        self
    }

    /// Validates the configuration, synthesizes the dataset, and builds
    /// the executable [`System`].
    ///
    /// # Errors
    ///
    /// * [`GdrError::InvalidConfig`] — non-positive `scale`, zero
    ///   accelerator lanes or clock, any zero-capacity on-chip buffer on
    ///   either side;
    /// * [`GdrError::EmptyInput`] — the dataset produced no semantic
    ///   graphs (degenerate scale).
    pub fn build(self) -> GdrResult<System> {
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return Err(GdrError::invalid_config(
                "scale",
                format!("must be positive and finite, got {}", self.scale),
            ));
        }
        if self.accel.lanes == 0 {
            return Err(GdrError::invalid_config("lanes", "need at least one lane"));
        }
        let clock_ok = |ghz: f64| ghz.is_finite() && ghz > 0.0;
        if !clock_ok(self.accel.clock_ghz) || !clock_ok(self.frontend.clock_ghz) {
            return Err(GdrError::invalid_config(
                "clock_ghz",
                "clocks must be positive and finite",
            ));
        }
        for (what, bytes) in [
            ("na_buffer_bytes", self.accel.na_buffer_bytes),
            ("fp_buffer_bytes", self.accel.fp_buffer_bytes),
            ("sf_buffer_bytes", self.accel.sf_buffer_bytes),
            ("att_buffer_bytes", self.accel.att_buffer_bytes),
            ("fifo_bytes", self.frontend.fifo_bytes),
            ("matching_buffer_bytes", self.frontend.matching_buffer_bytes),
            (
                "candidate_buffer_bytes",
                self.frontend.candidate_buffer_bytes,
            ),
            ("adj_buffer_bytes", self.frontend.adj_buffer_bytes),
        ] {
            if bytes == 0 {
                return Err(GdrError::invalid_config(
                    what,
                    "on-chip buffers need non-zero capacity",
                ));
            }
        }

        let het = self.dataset.build_scaled(self.seed, self.scale);
        let graphs = het.all_semantic_graphs();
        if graphs.is_empty() {
            return Err(GdrError::EmptyInput {
                what: "semantic graphs",
            });
        }
        let workload = Workload::from_hetero(self.model, &het);
        Ok(System {
            combined: CombinedSystem::new(self.accel, self.frontend),
            workload,
            graphs,
            het,
        })
    }
}

/// A validated, ready-to-execute system: synthesized dataset, workload
/// descriptors, and the combined frontend + accelerator configuration.
#[derive(Debug, Clone)]
pub struct System {
    combined: CombinedSystem,
    workload: Workload,
    graphs: Vec<BipartiteGraph>,
    het: HeteroGraph,
}

impl System {
    /// The synthesized heterogeneous graph.
    pub fn hetero(&self) -> &HeteroGraph {
        &self.het
    }

    /// The semantic graphs (SGB output), in schema order.
    pub fn graphs(&self) -> &[BipartiteGraph] {
        &self.graphs
    }

    /// The workload descriptors, index-aligned with [`System::graphs`].
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The combined-system configuration.
    pub fn combined(&self) -> &CombinedSystem {
        &self.combined
    }

    /// Opens a streaming frontend [`Session`] over the built graphs.
    pub fn session(&self) -> Session<'_> {
        Session::new(self.combined.frontend_config().clone(), &self.graphs)
    }

    /// Executes the combined GDR-HGNN + HiHGNN pipeline.
    ///
    /// # Errors
    ///
    /// Propagates platform validation errors; with a builder-built
    /// system the inputs are aligned by construction, so this only
    /// fails if the workload or graphs were swapped out manually.
    pub fn run(&self) -> GdrResult<CombinedRun> {
        self.combined.try_execute(&self.workload, &self.graphs)
    }

    /// Executes this system's workload on an arbitrary [`Platform`]
    /// (GPU baselines, plain HiHGNN, or any external implementation).
    ///
    /// # Errors
    ///
    /// Propagates the platform's validation errors.
    pub fn execute_on(&self, platform: &dyn Platform) -> GdrResult<PlatformRun> {
        platform.execute(&self.workload, &self.graphs, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdr_accel::gpu::GpuSim;

    #[test]
    fn defaults_build_and_run() {
        let system = SystemBuilder::new().scale(0.04).build().unwrap();
        assert!(!system.graphs().is_empty());
        let run = system.run().unwrap();
        assert_eq!(run.report().platform, "HiHGNN+GDR");
        assert!(run.report().time_ns > 0.0);
    }

    #[test]
    fn zero_capacity_buffers_rejected() {
        let err = SystemBuilder::new()
            .accel_config(HiHgnnConfig {
                na_buffer_bytes: 0,
                ..HiHgnnConfig::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            GdrError::InvalidConfig {
                what: "na_buffer_bytes",
                ..
            }
        ));

        let err = SystemBuilder::new()
            .frontend_config(FrontendConfig {
                fifo_bytes: 0,
                ..FrontendConfig::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            GdrError::InvalidConfig {
                what: "fifo_bytes",
                ..
            }
        ));
    }

    #[test]
    fn bad_scale_and_lanes_rejected() {
        for scale in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = SystemBuilder::new().scale(scale).build().unwrap_err();
            assert!(matches!(err, GdrError::InvalidConfig { what: "scale", .. }));
        }
        let err = SystemBuilder::new()
            .accel_config(HiHgnnConfig {
                lanes: 0,
                ..HiHgnnConfig::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, GdrError::InvalidConfig { what: "lanes", .. }));
    }

    #[test]
    fn session_and_platforms_share_the_workload() {
        let system = SystemBuilder::new()
            .dataset(Dataset::Dblp)
            .model(ModelKind::SimpleHgn)
            .scale(0.04)
            .build()
            .unwrap();
        let fe = system.session().par_process();
        assert_eq!(fe.per_graph().len(), system.graphs().len());
        let t4 = system
            .execute_on(&GpuSim::new(gdr_accel::calib::T4))
            .unwrap();
        assert_eq!(t4.report.platform, "T4");
    }
}

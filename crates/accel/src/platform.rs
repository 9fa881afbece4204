//! The [`Platform`] abstraction: every execution target of the
//! evaluation — the HiHGNN cycle model, the DGL-on-GPU baselines, and
//! (in `gdr-system`) the combined GDR-HGNN + HiHGNN system — behind one
//! trait, so experiment drivers iterate over `&dyn Platform` instead of
//! hand-writing one call per backend.
//!
//! The paper frames the accelerator as one pluggable stage of a larger
//! pipeline (HiHGNN §2, SiHGNN §4); this trait is that plug point. New
//! backends (multi-GPU, different accelerators, analytic models) drop in
//! by implementing [`Platform`] and joining the platform list passed to
//! `gdr-system`'s grid drivers.
//!
//! A platform with an internal GDR frontend (the combined system) names
//! its frontend configuration through [`Platform::restructures_with`],
//! and executes from a frontend run its caller already holds through
//! [`Platform::execute_restructured`]: the serving cost model
//! restructures each dataset once that way and prices all of the
//! dataset's models from the one run.
//!
//! # Examples
//!
//! ```
//! use gdr_hetgraph::datasets::Dataset;
//! use gdr_hgnn::model::{ModelConfig, ModelKind};
//! use gdr_hgnn::workload::Workload;
//! use gdr_accel::platform::Platform;
//! use gdr_accel::hihgnn::{HiHgnnConfig, HiHgnnSim};
//! use gdr_accel::gpu::GpuSim;
//! use gdr_accel::calib::{A100, T4};
//!
//! let het = Dataset::Acm.build_scaled(1, 0.05);
//! let w = Workload::from_hetero(ModelConfig::paper(ModelKind::Rgcn), &het);
//! let graphs = het.all_semantic_graphs();
//! let platforms: Vec<Box<dyn Platform>> = vec![
//!     Box::new(GpuSim::new(T4)),
//!     Box::new(GpuSim::new(A100)),
//!     Box::new(HiHgnnSim::new(HiHgnnConfig::default())),
//! ];
//! for p in &platforms {
//!     let run = p.execute(&w, &graphs, None).unwrap();
//!     assert_eq!(run.report.platform, p.name());
//! }
//! ```

use gdr_core::schedule::EdgeSchedule;
use gdr_frontend::config::FrontendConfig;
use gdr_frontend::pipeline::FrontendRun;
use gdr_hetgraph::{BipartiteGraph, GdrResult};
use gdr_hgnn::workload::Workload;

use crate::report::ExecReport;

/// The result of executing one workload on one platform: the common
/// report plus the cross-platform NA-locality observables the paper's
/// motivation figures are built from.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformRun {
    /// The execution report (time, traffic, bandwidth, stage breakdown).
    pub report: ExecReport,
    /// Per-source-feature replacement (re-fetch) counts in the platform's
    /// NA-stage buffer, when the platform models one (Fig. 2 data).
    /// Empty for platforms without a feature-granular buffer model.
    pub src_replacement_times: Vec<u32>,
    /// Platform-specific numeric observables beyond the common report
    /// (e.g. accelerator cycles, frontend restructuring stats), as
    /// stable-ordered `(key, value)` pairs. The bench schema serializes
    /// these under `"extra"` so new platforms can surface their own
    /// counters without widening [`ExecReport`].
    pub extra: Vec<(String, f64)>,
}

impl PlatformRun {
    /// Wraps a bare report with no buffer observables.
    pub fn from_report(report: ExecReport) -> Self {
        Self {
            report,
            src_replacement_times: Vec::new(),
            extra: Vec::new(),
        }
    }

    /// NA-stage hit rate, when modeled (forwarded from the report).
    pub fn na_hit_rate(&self) -> Option<f64> {
        self.report.na_hit_rate
    }
}

/// An execution target for HGNN inference workloads.
///
/// Implementations validate their inputs and return typed errors instead
/// of panicking, so drivers can sweep untrusted configuration spaces.
/// The trait is dyn-compatible: drivers hold `Vec<Box<dyn Platform>>`.
pub trait Platform {
    /// The platform label used in reports and figure tables
    /// (`"T4"`, `"A100"`, `"HiHGNN"`, `"HiHGNN+GDR"`).
    fn name(&self) -> &str;

    /// Whether the platform consumes externally-supplied edge schedules
    /// (restructured topology from the GDR-HGNN frontend). Platforms that
    /// return `false` reject a `Some` schedule argument with
    /// [`gdr_hetgraph::GdrError::InvalidConfig`] rather than silently
    /// ignoring it.
    fn supports_schedules(&self) -> bool {
        false
    }

    /// The configuration of the GDR frontend with which the platform
    /// restructures its own edge schedules, or `None` (the default) for
    /// platforms without an internal frontend.
    fn restructures_with(&self) -> Option<&FrontendConfig> {
        None
    }

    /// Whether consecutive executions over the *same dataset* can reuse
    /// internally restructured edge schedules (a schedule cache): true
    /// exactly for platforms with an internal frontend
    /// ([`Platform::restructures_with`]). Online serving schedulers use
    /// this capability flag to model locality: dataset-affine dispatch
    /// saves the restructuring cost on a warm replica.
    fn reuses_schedules(&self) -> bool {
        self.restructures_with().is_some()
    }

    /// Executes `workload` over `graphs`, optionally with one edge
    /// schedule per semantic graph (index-aligned with `graphs`).
    ///
    /// # Errors
    ///
    /// * [`gdr_hetgraph::GdrError::LengthMismatch`] when `graphs` and the
    ///   workload descriptors (or `schedules`) disagree in length;
    /// * [`gdr_hetgraph::GdrError::InvalidConfig`] when schedules are
    ///   supplied but [`Platform::supports_schedules`] is `false`.
    fn execute(
        &self,
        workload: &Workload,
        graphs: &[BipartiteGraph],
        schedules: Option<&[EdgeSchedule]>,
    ) -> GdrResult<PlatformRun>;

    /// Executes `workload` over `graphs` from `frontend`, a run of the
    /// platform's own frontend ([`Platform::restructures_with`]) over
    /// the same `graphs`, instead of restructuring them again. The
    /// frontend's output depends only on the semantic graphs, so a
    /// caller that executes several workloads of one dataset (the
    /// serving cost model prices three models per dataset) restructures
    /// the dataset once. The report is the one [`Platform::execute`]
    /// gives with no schedules. The default ignores `frontend` and calls
    /// exactly that.
    ///
    /// # Errors
    ///
    /// As [`Platform::execute`]; and
    /// [`gdr_hetgraph::GdrError::LengthMismatch`] when `frontend` does
    /// not hold one result per graph, or
    /// [`gdr_hetgraph::GdrError::InvalidConfig`] when one of its
    /// schedules is not a permutation of its graph's edges.
    fn execute_restructured(
        &self,
        workload: &Workload,
        graphs: &[BipartiteGraph],
        frontend: &FrontendRun,
    ) -> GdrResult<PlatformRun> {
        let _ = frontend;
        self.execute(workload, graphs, None)
    }
}

/// Rejects schedules on platforms that cannot consume them.
pub(crate) fn reject_schedules(
    platform: &str,
    schedules: Option<&[EdgeSchedule]>,
) -> GdrResult<()> {
    if schedules.is_some() {
        return Err(gdr_hetgraph::GdrError::invalid_config(
            "schedules",
            format!("platform {platform} does not consume external edge schedules"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::StageBreakdown;

    fn report() -> ExecReport {
        ExecReport {
            platform: "X".into(),
            workload: "RGCN/ACM".into(),
            time_ns: 1.0,
            dram_bytes: 1,
            dram_accesses: 1,
            bandwidth_utilization: 0.1,
            stages: StageBreakdown::default(),
            na_hit_rate: Some(0.5),
        }
    }

    #[test]
    fn platform_run_wraps_report() {
        let run = PlatformRun::from_report(report());
        assert!(run.src_replacement_times.is_empty());
        assert!(run.extra.is_empty());
        assert_eq!(run.na_hit_rate(), Some(0.5));
    }

    #[test]
    fn schedule_rejection_is_typed() {
        assert!(reject_schedules("T4", None).is_ok());
        let err = reject_schedules("T4", Some(&[])).unwrap_err();
        assert!(err.to_string().contains("T4"));
    }

    #[test]
    fn trait_is_dyn_compatible() {
        fn _takes(_: &dyn Platform) {}
    }
}

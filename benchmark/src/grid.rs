//! The paper's 3 models x 3 datasets x 4 platforms grid, run once inside
//! the traced `replay` run.
//!
//! One grid pass (the 36 `Platform::execute` calls over
//! `paper_platforms()`) takes about ten seconds, too long for its own
//! workload within the benchmark's time budget (see `README.md`). The
//! probe still times every platform and the frontend session, checks
//! every report, and yields the modelled design's result: the mean
//! per-cell speedup of HiHGNN+GDR over HiHGNN and over the A100, set
//! beside the paper's figures. The modelled NA buffer and L2 start empty
//! on every `execute`.

use gdr_accel::report::ExecReport;
use gdr_frontend::config::FrontendConfig;
use gdr_frontend::session::Session;
use gdr_hetgraph::datasets::Dataset;
use gdr_hgnn::model::{ModelConfig, ModelKind};
use gdr_hgnn::workload::Workload;
use gdr_system::grid::{paper_platforms, ExperimentConfig};

use crate::spans::Recorder;
use crate::{dataset_index, ns_per, Check, Digest, Outcome, A100_KEY, T4_KEY};

/// Dataset scale of the grid probe unless a run overrides the scale.
pub const SCALE: f64 = 0.5;
/// The paper's speedup of HiHGNN+GDR over HiHGNN.
pub const PAPER_SPEEDUP_VS_HIHGNN: f64 = 1.78;
/// The paper's speedup of HiHGNN+GDR over the A100.
pub const PAPER_SPEEDUP_VS_A100: f64 = 14.6;

/// Span names and sub-keys of the four platforms, in
/// `paper_platforms()` order.
const PLATFORMS: [(&str, Option<usize>); 4] = [
    ("accel.gpu", Some(T4_KEY)),
    ("accel.gpu", Some(A100_KEY)),
    ("accel.hihgnn", None),
    ("system.combined", None),
];

/// Builds the grid at `cfg` (the steps of `cell_inputs`, one span each),
/// executes it once on every platform and the frontend session alone,
/// checks every report, and fills the grid's per-layer metrics and notes.
/// Spans carry the recorder's current pass id.
pub(crate) fn probe(cfg: &ExperimentConfig, out: &mut Outcome, rec: &mut Recorder) -> Check {
    let platforms = paper_platforms();
    let mut edges = 0u64;
    let mut digest = Digest::default();
    // Mean over cells of HiHGNN / HiHGNN+GDR time, A100 / HiHGNN+GDR
    // time, then the T4 and A100 L2 hit rates.
    let mut sums = [0.0; 4];
    let cells = ModelKind::ALL.len() * Dataset::ALL.len();
    for model in ModelKind::ALL {
        for dataset in Dataset::ALL {
            let label = format!("{}/{}", model.name(), dataset.name());
            let key = Some(dataset_index(dataset));
            let het = rec.time("hetgraph.build", key, |_| {
                dataset.build_scaled(cfg.seed, cfg.scale)
            });
            let workload = rec.time("hgnn.workload", key, |_| {
                Workload::from_hetero(ModelConfig::paper(model), &het)
            });
            let graphs = rec.time("hetgraph.build", key, |_| het.all_semantic_graphs());
            edges += graphs.iter().map(|g| g.edge_count() as u64).sum::<u64>();
            let mut reports: Vec<ExecReport> = Vec::with_capacity(platforms.len());
            for (p, (span, key)) in platforms.iter().zip(PLATFORMS) {
                let run = rec
                    .time(span, key, |_| p.execute(&workload, &graphs, None))
                    .map_err(|e| format!("grid: {label} on {}: {e}", p.name()))?;
                let r = &run.report;
                if !(r.time_ns.is_finite() && r.time_ns > 0.0) || r.dram_bytes == 0 {
                    return Err(format!(
                        "grid: {label} on {}: time_ns {} dram_bytes {}",
                        r.platform, r.time_ns, r.dram_bytes
                    ));
                }
                digest.str(&format!("{r:?}{:?}", run.extra));
                let mut replacements = run.src_replacement_times;
                replacements.sort_unstable();
                for x in replacements {
                    digest.u64(u64::from(x));
                }
                reports.push(run.report);
            }
            let [t4, a100, hihgnn, gdr] = [0, 1, 2, 3].map(|i| &reports[i]);
            sums[0] += hihgnn.time_ns / gdr.time_ns;
            sums[1] += a100.time_ns / gdr.time_ns;
            sums[2] += t4.na_hit_rate.unwrap_or(0.0);
            sums[3] += a100.na_hit_rate.unwrap_or(0.0);
            rec.time("frontend.session", None, |_| {
                Session::new(FrontendConfig::default(), &graphs).par_process()
            });
        }
    }
    let [vs_hihgnn, vs_a100, t4_l2, a100_l2] = sums.map(|s| s / cells as f64);
    for (name, value, paper) in [
        ("sim_speedup_vs_hihgnn", vs_hihgnn, PAPER_SPEEDUP_VS_HIHGNN),
        ("sim_speedup_vs_a100", vs_a100, PAPER_SPEEDUP_VS_A100),
    ] {
        out.notes.push(format!(
            "{name}: {value:.4}x (paper {paper}x, relative error {:+.1}%) over the \
             3x3 grid at scale {}",
            (value / paper - 1.0) * 100.0,
            cfg.scale
        ));
    }
    out.notes.push(
        "the model is validated only against those two paper figures; every other \
         modelled number is unvalidated"
            .to_string(),
    );
    out.notes.push(format!(
        "digest of the grid's simulated statistics: {:016x}",
        digest.value()
    ));

    let edges = edges as f64;
    let ns = |name: &str, key: Option<usize>| rec.sum(name, |s| s.key == key).0;
    for (name, value) in [
        ("sim.speedup_vs_hihgnn", vs_hihgnn),
        ("sim.speedup_vs_a100", vs_a100),
        ("accel.gpu.l2_hit_rate.t4", t4_l2),
        ("accel.gpu.l2_hit_rate.a100", a100_l2),
        (
            "accel.gpu.ns_per_edge.t4",
            ns_per(ns("accel.gpu", Some(T4_KEY)), edges),
        ),
        (
            "accel.gpu.ns_per_edge.a100",
            ns_per(ns("accel.gpu", Some(A100_KEY)), edges),
        ),
        (
            "accel.hihgnn.ns_per_edge",
            ns_per(ns("accel.hihgnn", None), edges),
        ),
        (
            "system.combined.ns_per_edge",
            ns_per(ns("system.combined", None), edges),
        ),
        (
            "frontend.session.ns_per_edge",
            ns_per(ns("frontend.session", None), edges),
        ),
        (
            "hgnn.workload_s",
            rec.sum("hgnn.workload", |_| true).0 as f64 / 1e9,
        ),
    ] {
        out.metrics.insert(name, value);
    }
    Ok(())
}

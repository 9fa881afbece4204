//! GPU baseline models: DGL 1.0.2 on NVIDIA T4 and A100.
//!
//! A hybrid trace + roofline model, standing in for the paper's GPU runs:
//! the NA stage's feature gathers run through a sector-accurate L2 cache
//! simulation — reproducing the paper's measured L2 hit ratios and the
//! dataset-dependent thrashing — while regular streaming stages use
//! bandwidth/compute rooflines with calibrated efficiencies. DGL's
//! per-relation eager execution is charged per-kernel launch overhead and
//! its heterogeneous COO path materializes per-edge messages through
//! DRAM, both of which the characterization study [Yan et al., CAL 2022]
//! identifies as the dominant GPU inefficiencies.

use gdr_core::schedule::EdgeSchedule;
use gdr_hetgraph::{BipartiteGraph, GdrError, GdrResult};
use gdr_hgnn::workload::Workload;
use gdr_memsim::buffer::{Replacement, SetAssocBuffer};

use crate::calib::{
    dgl_kernels, dgl_message_bytes_per_edge, GpuParams, DRAM_ACCESS_BYTES, FEATURE_BYTES,
};
use crate::platform::{reject_schedules, Platform, PlatformRun};
use crate::report::{ExecReport, StageBreakdown};

/// One GPU execution: the report plus NA-stage cache observables.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuRun {
    /// Platform execution report.
    pub report: ExecReport,
    /// L2 hit ratio over NA-stage feature gathers (the §3 motivation
    /// metric: 30.1% IMDB / 17.5% DBLP on T4 with RGCN).
    pub na_l2_hit_rate: f64,
}

/// DGL-on-GPU simulator.
///
/// # Examples
///
/// ```
/// use gdr_hetgraph::datasets::Dataset;
/// use gdr_hgnn::model::{ModelConfig, ModelKind};
/// use gdr_hgnn::workload::Workload;
/// use gdr_accel::gpu::GpuSim;
/// use gdr_accel::calib::T4;
///
/// let het = Dataset::Acm.build_scaled(1, 0.05);
/// let w = Workload::from_hetero(ModelConfig::paper(ModelKind::Rgcn), &het);
/// let run = GpuSim::new(T4).execute(&w, &het.all_semantic_graphs());
/// assert!(run.report.time_ns > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSim {
    params: GpuParams,
}

impl GpuSim {
    /// Creates a simulator for a GPU parameter set ([`crate::calib::T4`]
    /// or [`crate::calib::A100`]).
    pub fn new(params: GpuParams) -> Self {
        Self { params }
    }

    /// The parameters in use.
    pub fn params(&self) -> &GpuParams {
        &self.params
    }

    /// Executes a workload end to end.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is not index-aligned with the workload. Use
    /// [`GpuSim::try_execute`] for a fallible variant.
    pub fn execute(&self, workload: &Workload, graphs: &[BipartiteGraph]) -> GpuRun {
        self.try_execute(workload, graphs)
            .expect("GPU execution inputs misaligned")
    }

    /// Fallible [`GpuSim::execute`].
    ///
    /// # Errors
    ///
    /// Returns [`GdrError::LengthMismatch`] if `graphs` is not
    /// index-aligned with the workload descriptors.
    pub fn try_execute(&self, workload: &Workload, graphs: &[BipartiteGraph]) -> GdrResult<GpuRun> {
        GdrError::check_aligned(
            "workload graph descriptors",
            workload.graphs().len(),
            graphs.len(),
        )?;
        let p = self.params;
        let model = *workload.model();
        let attention = model.kind.uses_attention();
        let (k_fp, k_na, k_sf) = dgl_kernels(attention);
        let sectors_per_feature = (FEATURE_BYTES / p.l2_sector).max(1);
        let mut l2 =
            SetAssocBuffer::with_capacity(p.l2_bytes / p.l2_sector, p.l2_ways, Replacement::Lru);

        let mut stage = StageBreakdown::default();
        let mut dram_bytes: u64 = 0;
        let mut na_gather_accesses = 0u64;
        let mut na_gather_hits = 0u64;

        for (gi, (sgw, g)) in workload.graphs().iter().zip(graphs).enumerate() {
            // ---- FP: per-relation dense projection. DGL's relational
            //      models apply W_r to the *source* features of every
            //      relation (attention models also project the destination
            //      side for the logits), reading the materialized dense
            //      fp32 feature tensors each time — the framework-vs-
            //      accelerator gap HiHGNN's shared, zero-skipping FP
            //      avoids. ----
            let mut fp_bytes = 0u64;
            let mut fp_flops = 0f64;
            let mut endpoints = vec![(sgw.touched_src, sgw.src_in_dim)];
            if attention {
                endpoints.push((sgw.touched_dst, sgw.dst_in_dim));
            }
            for &(count, in_dim) in &endpoints {
                if in_dim == 0 {
                    fp_bytes += count as u64 * FEATURE_BYTES as u64; // embedding rows
                    fp_flops += (count * model.hidden_dim) as f64;
                } else {
                    fp_bytes += count as u64 * in_dim as u64 * 4;
                    fp_flops += 2.0 * (count * in_dim * model.hidden_dim) as f64;
                }
                fp_bytes += count as u64 * FEATURE_BYTES as u64; // projected write
            }
            // deeper layers project from hidden_dim instead of raw dims
            let deep = model.layers.saturating_sub(1) as u64;
            for &(count, _) in &endpoints {
                fp_bytes +=
                    deep * count as u64 * (model.hidden_dim as u64 * 4 + FEATURE_BYTES as u64);
                fp_flops +=
                    (deep * 2 * (count * model.hidden_dim * model.hidden_dim) as u64) as f64;
            }
            let t_fp_mem = fp_bytes as f64 / (p.mem_bw * p.stream_eff) * 1e9;
            let t_fp_cmp = fp_flops / (p.peak_flops * p.compute_eff) * 1e9;
            stage.fp_ns += t_fp_mem.max(t_fp_cmp);
            dram_bytes += fp_bytes;

            // ---- NA: sector-level L2 simulation of the source gathers,
            //      plus DGL's materialized per-edge message traffic ----
            let mut gather_miss_bytes = 0u64;
            let msg_per_edge = dgl_message_bytes_per_edge(attention, model.heads);
            let msg_sectors = (msg_per_edge as usize / p.l2_sector).max(1);
            let mut edge_idx = 0u64;
            for d in 0..g.dst_count() {
                for &s in g.in_neighbors(d) {
                    for sector in 0..sectors_per_feature {
                        let tag = ((gi as u64) << 48) | ((s as u64) << 8) | sector as u64;
                        na_gather_accesses += 1;
                        if l2.access(tag).is_hit() {
                            na_gather_hits += 1;
                        } else {
                            gather_miss_bytes += p.l2_sector as u64;
                        }
                    }
                    // DGL's COO path writes the per-edge message right after
                    // the gather; the stream pollutes L2 in place.
                    for sector in 0..msg_sectors {
                        let tag = 0x8000_0000_0000_0000
                            | ((gi as u64) << 48)
                            | (edge_idx << 8)
                            | sector as u64;
                        l2.access(tag);
                    }
                    edge_idx += 1;
                }
            }
            // the NA (and SF) stages repeat every layer over the same
            // topology, with the same per-layer traffic profile
            let layers = model.layers as u64;
            let message_bytes = sgw.edges as u64 * msg_per_edge * layers;
            let accum_bytes = sgw.touched_dst as u64 * FEATURE_BYTES as u64 * 2 * layers;
            let gather_bytes = gather_miss_bytes * layers;
            let t_na_gather = gather_bytes as f64 / (p.mem_bw * p.gather_eff) * 1e9;
            let t_na_stream =
                (message_bytes + accum_bytes) as f64 / (p.mem_bw * p.stream_eff) * 1e9;
            let na_flops = (workload.na_ops(sgw) * 2 * layers) as f64;
            let t_na_cmp = na_flops / (p.peak_flops * 0.10) * 1e9;
            stage.na_ns += (t_na_gather + t_na_stream).max(t_na_cmp);
            dram_bytes += gather_bytes + message_bytes + accum_bytes;

            // ---- SF: streaming fuse over destination embeddings ----
            let sf_bytes = sgw.touched_dst as u64 * FEATURE_BYTES as u64 * 2 * layers;
            let t_sf_mem = sf_bytes as f64 / (p.mem_bw * p.stream_eff) * 1e9;
            let t_sf_cmp = (workload.sf_ops(sgw) * 2 * layers) as f64 / (p.peak_flops * 0.2) * 1e9;
            stage.sf_ns += t_sf_mem.max(t_sf_cmp);
            dram_bytes += sf_bytes;

            stage.overhead_ns += (k_fp + k_na + k_sf) as f64 * p.launch_ns * layers as f64;
        }

        let time_ns = stage.total_ns();
        let na_l2_hit_rate = if na_gather_accesses == 0 {
            0.0
        } else {
            na_gather_hits as f64 / na_gather_accesses as f64
        };
        let report = ExecReport {
            platform: p.name.to_string(),
            workload: format!("{}/{}", model.kind.name(), workload.dataset()),
            time_ns,
            dram_bytes,
            dram_accesses: dram_bytes.div_ceil(DRAM_ACCESS_BYTES),
            bandwidth_utilization: (dram_bytes as f64 / (p.mem_bw * time_ns * 1e-9)).min(1.0),
            stages: stage,
            na_hit_rate: Some(na_l2_hit_rate),
        };
        Ok(GpuRun {
            report,
            na_l2_hit_rate,
        })
    }
}

impl Platform for GpuSim {
    fn name(&self) -> &str {
        self.params.name
    }

    fn execute(
        &self,
        workload: &Workload,
        graphs: &[BipartiteGraph],
        schedules: Option<&[EdgeSchedule]>,
    ) -> GdrResult<PlatformRun> {
        // DGL fixes its own kernel iteration order; restructured
        // schedules cannot be injected into the baseline.
        reject_schedules(Platform::name(self), schedules)?;
        let run = self.try_execute(workload, graphs)?;
        // `na_l2_hit_rate` already travels as `report.na_hit_rate`; the
        // GPU baselines have no further platform-specific observables.
        Ok(PlatformRun::from_report(run.report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::{A100, T4};
    use gdr_hetgraph::datasets::Dataset;
    use gdr_hgnn::model::{ModelConfig, ModelKind};

    fn run_on(params: GpuParams, kind: ModelKind, d: Dataset, scale: f64) -> GpuRun {
        let het = d.build_scaled(1, scale);
        let w = Workload::from_hetero(ModelConfig::paper(kind), &het);
        GpuSim::new(params).execute(&w, &het.all_semantic_graphs())
    }

    #[test]
    fn a100_is_faster_than_t4() {
        let t4 = run_on(T4, ModelKind::Rgcn, Dataset::Acm, 0.1);
        let a100 = run_on(A100, ModelKind::Rgcn, Dataset::Acm, 0.1);
        assert!(
            a100.report.time_ns < t4.report.time_ns,
            "a100 {} vs t4 {}",
            a100.report.time_ns,
            t4.report.time_ns
        );
    }

    #[test]
    fn bigger_l2_hits_more() {
        // At a scale where DBLP's feature working set overflows T4's 4 MiB
        // L2 but not A100's 40 MiB, the hit-ratio gap must appear.
        let t4 = run_on(T4, ModelKind::Rgcn, Dataset::Dblp, 0.6);
        let a100 = run_on(A100, ModelKind::Rgcn, Dataset::Dblp, 0.6);
        assert!(
            a100.na_l2_hit_rate > t4.na_l2_hit_rate,
            "a100 {} vs t4 {}",
            a100.na_l2_hit_rate,
            t4.na_l2_hit_rate
        );
    }

    #[test]
    fn na_is_a_major_time_fraction() {
        // The paper's motivation cites NA at up to ~74% of inference; in
        // our model DGL's dense per-relation FP is also charged, so NA
        // lands lower but must remain a major component.
        let run = run_on(T4, ModelKind::Rgcn, Dataset::Dblp, 0.5);
        assert!(
            run.report.stages.na_fraction() > 0.15,
            "na fraction {}",
            run.report.stages.na_fraction()
        );
    }

    #[test]
    fn attention_models_cost_more() {
        let rgcn = run_on(T4, ModelKind::Rgcn, Dataset::Acm, 0.1);
        let shgn = run_on(T4, ModelKind::SimpleHgn, Dataset::Acm, 0.1);
        assert!(shgn.report.time_ns > rgcn.report.time_ns);
        assert!(shgn.report.dram_bytes > rgcn.report.dram_bytes);
    }

    #[test]
    fn platform_trait_rejects_schedules() {
        let het = Dataset::Acm.build_scaled(1, 0.05);
        let w = Workload::from_hetero(ModelConfig::paper(ModelKind::Rgcn), &het);
        let graphs = het.all_semantic_graphs();
        let sim = GpuSim::new(T4);
        let p: &dyn Platform = &sim;
        assert_eq!(p.name(), "T4");
        assert!(!p.supports_schedules());
        let run = p.execute(&w, &graphs, None).unwrap();
        assert_eq!(run.report.platform, "T4");
        let schedules: Vec<EdgeSchedule> = graphs.iter().map(EdgeSchedule::dst_major).collect();
        let err = p.execute(&w, &graphs, Some(&schedules)).unwrap_err();
        assert!(matches!(err, gdr_hetgraph::GdrError::InvalidConfig { .. }));
    }

    #[test]
    fn utilization_bounded() {
        let run = run_on(A100, ModelKind::Rgat, Dataset::Imdb, 0.1);
        let u = run.report.bandwidth_utilization;
        assert!(u > 0.0 && u <= 1.0);
        assert_eq!(run.report.platform, "A100");
    }
}

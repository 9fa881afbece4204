//! Cycle-level HiHGNN accelerator model.
//!
//! Implements the host accelerator of the paper's evaluation with the
//! published Table 3 parameters: a multi-lane architecture (each lane a
//! systolic array + SIMD + activation module), the four-buffer on-chip
//! hierarchy, similarity-ordered semantic graph scheduling, and HBM 1.0
//! at 512 GB/s. The NA stage walks a real buffer model, so thrashing —
//! and GDR-HGNN's effect on it — emerges from topology, not constants.

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

use gdr_core::schedule::EdgeSchedule;
use gdr_core::workspace::BufferScratch;
use gdr_hetgraph::{BipartiteGraph, GdrError, GdrResult};
use gdr_hgnn::similarity::similarity_order;
use gdr_hgnn::workload::Workload;
use gdr_memsim::hbm::{HbmConfig, HbmModel, MemRequest};

use crate::platform::{Platform, PlatformRun};

use crate::calib::{
    DRAM_ACCESS_BYTES, FEATURE_BYTES, HIHGNN_CLOCK_GHZ, HIHGNN_LANES, HIHGNN_SIMD_OPS,
    HIHGNN_SYSTOLIC_MACS, RAW_FEATURE_DENSITY,
};
use crate::na_engine::NaBufferSim;
use crate::report::{ExecReport, StageBreakdown};

/// Raw-feature DRAM region base per vertex type.
const RAW_BASE: u64 = 0x1_0000_0000;
/// Projected-feature DRAM region base.
const PROJ_BASE: u64 = 0x2_0000_0000;
/// Fused-output DRAM region base.
const OUT_BASE: u64 = 0x3_0000_0000;

/// HiHGNN hardware configuration (Table 3 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct HiHgnnConfig {
    /// Semantic-graph lanes.
    pub lanes: usize,
    /// NA buffer bytes (14.52 MB).
    pub na_buffer_bytes: usize,
    /// FP buffer bytes (2.44 MB).
    pub fp_buffer_bytes: usize,
    /// SF (SA) buffer bytes (0.12 MB).
    pub sf_buffer_bytes: usize,
    /// Attention buffer bytes (0.38 MB).
    pub att_buffer_bytes: usize,
    /// NA buffer associativity.
    pub na_ways: usize,
    /// Systolic MACs per cycle.
    pub systolic_macs: u64,
    /// SIMD ops per cycle.
    pub simd_ops: u64,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Off-chip memory configuration.
    pub hbm: HbmConfig,
}

impl Default for HiHgnnConfig {
    fn default() -> Self {
        Self {
            lanes: HIHGNN_LANES,
            na_buffer_bytes: (14.52 * 1024.0 * 1024.0) as usize,
            fp_buffer_bytes: (2.44 * 1024.0 * 1024.0) as usize,
            sf_buffer_bytes: (0.12 * 1024.0 * 1024.0) as usize,
            att_buffer_bytes: (0.38 * 1024.0 * 1024.0) as usize,
            na_ways: 8,
            systolic_macs: HIHGNN_SYSTOLIC_MACS,
            simd_ops: HIHGNN_SIMD_OPS,
            clock_ghz: HIHGNN_CLOCK_GHZ,
            hbm: HbmConfig::hbm1_512gbps(),
        }
    }
}

impl HiHgnnConfig {
    /// Usable NA-buffer feature window. The physical buffer is banked per
    /// lane, each bank double-buffered, and half of each active bank holds
    /// in-flight aggregation state (partial-sum tags, attention
    /// coefficients, edge metadata) rather than resident features — a
    /// `lanes × 4` derate overall. All lanes' concurrently-executing
    /// semantic graphs contend inside this window; that contention is the
    /// buffer thrashing of §3.
    pub fn na_window_features(&self) -> usize {
        (self.na_buffer_bytes / (self.lanes * 4) / FEATURE_BYTES).max(1)
    }

    /// Total on-chip buffer bytes (Table 3 sum).
    pub fn total_buffer_bytes(&self) -> usize {
        self.na_buffer_bytes + self.fp_buffer_bytes + self.sf_buffer_bytes + self.att_buffer_bytes
    }
}

/// One HiHGNN execution: the report plus the NA replacement statistics.
#[derive(Debug, Clone)]
pub struct HiHgnnRun {
    /// Platform execution report.
    pub report: ExecReport,
    /// Aggregated NA fetch counts (tag → fetches) across semantic graphs.
    pub na_fetch_counts: HashMap<u64, u32>,
    /// NA buffer hit rate across semantic graphs.
    pub na_hit_rate: f64,
    /// Decoupler-visible work: edges processed (for frontend overlap
    /// accounting).
    pub total_edges: usize,
}

impl HiHgnnRun {
    /// Replacement-times table over **source** features (Fig. 2 data).
    pub fn src_replacement_times(&self) -> Vec<u32> {
        self.na_fetch_counts
            .iter()
            .filter(|(&t, _)| t >> 40 == 0)
            .map(|(_, &f)| f.saturating_sub(1))
            .collect()
    }

    /// The accelerator's platform-specific report extras (`cycles`,
    /// `edges`) at the given clock — the single definition shared by the
    /// standalone HiHGNN and combined-system `Platform` impls, so their
    /// `gdr-bench/v1` records cannot drift apart.
    pub fn platform_extras(&self, clock_ghz: f64) -> Vec<(String, f64)> {
        vec![
            (
                "cycles".to_string(),
                (self.report.time_ns * clock_ghz).round(),
            ),
            ("edges".to_string(), self.total_edges as f64),
        ]
    }
}

/// The HiHGNN simulator.
///
/// # Examples
///
/// ```
/// use gdr_hetgraph::datasets::Dataset;
/// use gdr_hgnn::model::{ModelConfig, ModelKind};
/// use gdr_hgnn::workload::Workload;
/// use gdr_accel::hihgnn::{HiHgnnConfig, HiHgnnSim};
///
/// let het = Dataset::Acm.build_scaled(1, 0.05);
/// let workload = Workload::from_hetero(ModelConfig::paper(ModelKind::Rgcn), &het);
/// let graphs = het.all_semantic_graphs();
/// let run = HiHgnnSim::new(HiHgnnConfig::default()).execute(&workload, &graphs, None, "HiHGNN");
/// assert!(run.report.time_ns > 0.0);
/// ```
#[derive(Debug)]
pub struct HiHgnnSim {
    cfg: HiHgnnConfig,
    /// Pooled per-execution state — the NA buffer scratch and the lane
    /// cycle counters — `clear()`ed at each [`HiHgnnSim::try_execute`]
    /// but never dropped, so repeated executions on one sim reuse
    /// capacity. Behind a mutex because the `Platform` trait executes
    /// through `&self`; uncontended in practice (each worker lane owns
    /// its own sim).
    scratch: Mutex<HiHgnnScratch>,
}

/// The pooled state of one [`HiHgnnSim`].
#[derive(Debug, Default)]
struct HiHgnnScratch {
    /// NA buffer + per-wave request log; its fetch counts aggregate
    /// across waves within one execution.
    na: BufferScratch,
    /// Per-lane cycle accumulators.
    lane_cycles: Vec<u64>,
    /// Size of the previous execution's fetch-count table — pre-sizes
    /// the next output map in one allocation instead of rehash growth.
    counts_hint: usize,
}

impl Clone for HiHgnnSim {
    fn clone(&self) -> Self {
        // scratch is transient capacity, not state: a clone starts cold
        Self::new(self.cfg.clone())
    }
}

impl HiHgnnSim {
    /// Creates a simulator with the given configuration.
    pub fn new(cfg: HiHgnnConfig) -> Self {
        Self {
            cfg,
            scratch: Mutex::new(HiHgnnScratch::default()),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HiHgnnConfig {
        &self.cfg
    }

    /// Executes a workload. `schedules`, when given, supplies one edge
    /// schedule per semantic graph (index-aligned with `graphs`) — this is
    /// how the GDR-HGNN frontend feeds restructured topology in.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` and the workload's descriptors disagree in
    /// length, or if `schedules` is given with a mismatched length. Use
    /// [`HiHgnnSim::try_execute`] for a fallible variant.
    pub fn execute(
        &self,
        workload: &Workload,
        graphs: &[BipartiteGraph],
        schedules: Option<&[EdgeSchedule]>,
        label: &str,
    ) -> HiHgnnRun {
        self.try_execute(workload, graphs, schedules, label)
            .expect("HiHGNN execution inputs misaligned")
    }

    /// Fallible [`HiHgnnSim::execute`]: validates input alignment and
    /// returns typed errors instead of panicking.
    ///
    /// Generic over the schedule storage so callers can pass owned
    /// schedules (`&[EdgeSchedule]`) or schedules borrowed from a
    /// frontend run (`&[&EdgeSchedule]`) without cloning edge lists.
    ///
    /// # Errors
    ///
    /// Returns [`GdrError::LengthMismatch`] if `graphs` is not
    /// index-aligned with the workload descriptors, or if `schedules` is
    /// given and does not supply exactly one schedule per graph, and
    /// [`GdrError::InvalidConfig`] if a supplied schedule is not a
    /// permutation of its graph's edge multiset.
    pub fn try_execute<S: AsRef<EdgeSchedule>>(
        &self,
        workload: &Workload,
        graphs: &[BipartiteGraph],
        schedules: Option<&[S]>,
        label: &str,
    ) -> GdrResult<HiHgnnRun> {
        GdrError::check_aligned(
            "workload graph descriptors",
            workload.graphs().len(),
            graphs.len(),
        )?;
        if let Some(s) = schedules {
            GdrError::check_aligned("schedules", graphs.len(), s.len())?;
            // A wrong-but-right-length schedule would silently simulate
            // garbage traffic; validate the permutation per graph here,
            // at the boundary.
            for (g, sched) in graphs.iter().zip(s) {
                sched.as_ref().validate_for(g)?;
            }
        }
        let model = *workload.model();
        let order = similarity_order(workload.graphs());
        let na_sim = NaBufferSim::new(self.cfg.na_window_features(), self.cfg.na_ways);
        let layers = model.layers.max(1) as u64;

        // One schedule per graph: borrow the provided restructured ones,
        // or materialize the natural destination-major order.
        let fallback: Vec<EdgeSchedule>;
        let all_schedules: Vec<&EdgeSchedule> = match schedules {
            Some(s) => s.iter().map(AsRef::as_ref).collect(),
            None => {
                fallback = graphs.iter().map(EdgeSchedule::dst_major).collect();
                fallback.iter().collect()
            }
        };

        let mut hbm = HbmModel::new(self.cfg.hbm.clone());
        let mut guard = self.scratch.lock().unwrap_or_else(PoisonError::into_inner);
        let HiHgnnScratch {
            na,
            lane_cycles,
            counts_hint,
        } = &mut *guard;
        na.reset();
        lane_cycles.clear();
        lane_cycles.resize(self.cfg.lanes, 0);
        let mut stage = StageBreakdown::default();
        let mut na_hits = 0u64;
        let mut na_accesses = 0u64;
        let mut prev_types: Option<(usize, usize)> = None;
        let mut total_edges = 0usize;

        // Lanes execute `lanes` semantic graphs concurrently (one wave),
        // contending for the shared NA buffer.
        for wave in order.chunks(self.cfg.lanes) {
            for (lane, &gi) in wave.iter().enumerate() {
                let sgw = &workload.graphs()[gi];

                // ---- FP stage (systolic, zero-skipping over sparse raw
                //      features; similarity scheduling reuses the previous
                //      graph's projected types) ----
                let mut fp_macs = 0u64;
                for &(ty, count, in_dim) in &[
                    (sgw.src_ty, sgw.touched_src, sgw.src_in_dim),
                    (sgw.dst_ty, sgw.touched_dst, sgw.dst_in_dim),
                ] {
                    let reused = prev_types.map(|(a, b)| ty == a || ty == b).unwrap_or(false);
                    if reused {
                        continue;
                    }
                    let (macs, read_bytes) = if in_dim == 0 {
                        (
                            count as u64 * model.hidden_dim as u64,
                            count as u64 * FEATURE_BYTES as u64,
                        )
                    } else {
                        let nnz =
                            (count as f64 * in_dim as f64 * RAW_FEATURE_DENSITY).ceil() as u64;
                        (nnz * model.hidden_dim as u64, nnz * 8)
                    };
                    fp_macs += macs;
                    issue_stream(
                        &mut hbm,
                        RAW_BASE + ty as u64 * 0x0800_0000,
                        read_bytes,
                        false,
                    );
                    issue_stream(
                        &mut hbm,
                        PROJ_BASE + ty as u64 * 0x0080_0000,
                        count as u64 * FEATURE_BYTES as u64,
                        true,
                    );
                }
                prev_types = Some((sgw.src_ty, sgw.dst_ty));
                // deeper layers re-project from hidden_dim (dense, streamed)
                let deep = model.layers.saturating_sub(1) as u64;
                if deep > 0 {
                    let touched = (sgw.touched_src + sgw.touched_dst) as u64;
                    fp_macs += deep * touched * (model.hidden_dim * model.hidden_dim) as u64;
                    issue_stream(
                        &mut hbm,
                        PROJ_BASE + 0x4000_0000 + gi as u64 * 0x0100_0000,
                        deep * touched * FEATURE_BYTES as u64 * 2,
                        false,
                    );
                }
                let fp_cycles = fp_macs.div_ceil(self.cfg.systolic_macs);

                // ---- NA / SF compute (SIMD), charged per lane ----
                let na_cycles = (workload.na_ops(sgw) * layers).div_ceil(self.cfg.simd_ops);
                let sf_bytes = sgw.touched_dst as u64 * FEATURE_BYTES as u64 * layers;
                issue_stream(
                    &mut hbm,
                    OUT_BASE + gi as u64 * 0x0100_0000,
                    sf_bytes,
                    false,
                );
                issue_stream(
                    &mut hbm,
                    OUT_BASE + 0x8000_0000 + gi as u64 * 0x0100_0000,
                    sf_bytes,
                    true,
                );
                let sf_cycles = (workload.sf_ops(sgw) * layers).div_ceil(self.cfg.simd_ops);

                lane_cycles[lane] += fp_cycles + na_cycles + sf_cycles;
                let ghz = self.cfg.clock_ghz;
                stage.fp_ns += fp_cycles as f64 / ghz;
                stage.na_ns += na_cycles as f64 / ghz;
                stage.sf_ns += sf_cycles as f64 / ghz;
                total_edges += sgw.edges;
            }

            // ---- NA buffer traffic: the wave's lanes interleave chunks
            //      of their schedules through the shared buffer ----
            let items: Vec<(&BipartiteGraph, &EdgeSchedule, u64)> = wave
                .iter()
                .map(|&gi| (&graphs[gi], all_schedules[gi], gi as u64))
                .collect();
            // The pooled buffer is reset per wave (fresh residency,
            // identical stats) while `na.fetch_counts` aggregates the
            // waves — tags are graph-namespaced, so the final table is
            // exactly the per-wave sum. Fig. 2 reports per-NA-pass
            // replacement times; deeper layers repeat the same pattern,
            // so one pass is recorded.
            let trace = na_sim.simulate_wave_with(na, &items, 16);
            na_hits += trace.hits * layers;
            na_accesses += trace.accesses * layers;
            // Every layer replays the wave's log into the memory model.
            for _ in 0..layers {
                hbm.drain_trace(0, na.requests.iter().copied());
            }
        }

        // Every request arrived at cycle 0, so the makespan is the
        // latest completion.
        let mem_makespan = hbm.stats().last_completion;
        let compute_cycles = lane_cycles.iter().copied().max().unwrap_or(0);
        // pipeline fill/drain overhead across the stage pipeline
        let fill = 2_000u64;
        let total_cycles = mem_makespan.max(compute_cycles) + fill;
        stage.overhead_ns = fill as f64 / self.cfg.clock_ghz;
        // Stage times above are per-lane sums; rescale NA/FP/SF so the
        // breakdown reflects the bound resource when memory dominates.
        let time_ns = total_cycles as f64 / self.cfg.clock_ghz;

        // Move the aggregated counters out in one right-sized allocation
        // (the previous execution's table size is the capacity hint).
        let mut na_fetch_counts: HashMap<u64, u32> = HashMap::with_capacity((*counts_hint).max(16));
        na_fetch_counts.extend(na.fetch_counts.iter().map(|(&t, &f)| (t, f)));
        *counts_hint = na_fetch_counts.len();

        let stats = hbm.stats().clone();
        let report = ExecReport {
            platform: label.to_string(),
            workload: format!("{}/{}", model.kind.name(), workload.dataset()),
            time_ns,
            dram_bytes: stats.bytes_total(),
            dram_accesses: stats.bytes_total().div_ceil(DRAM_ACCESS_BYTES),
            bandwidth_utilization: hbm.bandwidth_utilization(total_cycles),
            stages: stage,
            na_hit_rate: Some(if na_accesses == 0 {
                0.0
            } else {
                na_hits as f64 / na_accesses as f64
            }),
        };
        Ok(HiHgnnRun {
            report,
            na_fetch_counts,
            na_hit_rate: if na_accesses == 0 {
                0.0
            } else {
                na_hits as f64 / na_accesses as f64
            },
            total_edges,
        })
    }
}

impl Platform for HiHgnnSim {
    fn name(&self) -> &str {
        "HiHGNN"
    }

    fn supports_schedules(&self) -> bool {
        true
    }

    fn execute(
        &self,
        workload: &Workload,
        graphs: &[BipartiteGraph],
        schedules: Option<&[EdgeSchedule]>,
    ) -> GdrResult<PlatformRun> {
        // report.platform == Platform::name() for every accepted input,
        // so drivers can join results back to their platform list.
        let run = self.try_execute(workload, graphs, schedules, Platform::name(self))?;
        Ok(PlatformRun {
            src_replacement_times: run.src_replacement_times(),
            extra: run.platform_extras(self.cfg.clock_ghz),
            report: run.report,
        })
    }
}

/// Issues a streaming (sequential) transfer as 256 B bursts, all
/// arriving at cycle 0.
fn issue_stream(hbm: &mut HbmModel, base: u64, bytes: u64, write: bool) {
    let mut off = 0;
    while off < bytes {
        let chunk = (bytes - off).min(256) as u32;
        hbm.access_at(
            0,
            MemRequest {
                addr: base + off,
                bytes: chunk,
                write,
            },
        );
        off += chunk as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdr_core::backbone::BackboneStrategy;
    use gdr_core::restructure::Restructurer;
    use gdr_hetgraph::datasets::Dataset;
    use gdr_hgnn::model::{ModelConfig, ModelKind};

    fn setup(scale: f64) -> (Workload, Vec<BipartiteGraph>) {
        let het = Dataset::Dblp.build_scaled(1, scale);
        let w = Workload::from_hetero(ModelConfig::paper(ModelKind::Rgcn), &het);
        let graphs = het.all_semantic_graphs();
        (w, graphs)
    }

    #[test]
    fn executes_and_reports() {
        let (w, graphs) = setup(0.05);
        let run = HiHgnnSim::new(HiHgnnConfig::default()).execute(&w, &graphs, None, "HiHGNN");
        assert!(run.report.time_ns > 0.0);
        assert!(run.report.dram_bytes > 0);
        assert!(run.report.bandwidth_utilization > 0.0 && run.report.bandwidth_utilization <= 1.0);
        assert_eq!(run.report.platform, "HiHGNN");
        assert!(run.total_edges > 0);
    }

    #[test]
    fn restructured_schedules_reduce_dram_traffic() {
        // Size the NA window between the largest backbone (must fit) and
        // the working set (must not) — the frontend's design point.
        let (w, graphs) = setup(0.10);
        let restructurer = gdr_core::restructure::Restructurer::new()
            .backbone_strategy(BackboneStrategy::KonigExact);
        let max_backbone = graphs
            .iter()
            .map(|g| restructurer.restructure(g).backbone().len())
            .max()
            .unwrap();
        let window = max_backbone + 128;
        let cfg = HiHgnnConfig {
            lanes: 1,
            na_buffer_bytes: window * 4 * 256,
            ..HiHgnnConfig::default()
        };
        let sim = HiHgnnSim::new(cfg);
        let base = sim.execute(&w, &graphs, None, "HiHGNN");
        let restructurer = Restructurer::new().backbone_strategy(BackboneStrategy::KonigExact);
        let schedules: Vec<EdgeSchedule> = graphs
            .iter()
            .map(|g| restructurer.restructure(g).schedule().clone())
            .collect();
        let gdr = sim.execute(&w, &graphs, Some(&schedules), "HiHGNN+GDR");
        assert!(
            gdr.report.dram_bytes < base.report.dram_bytes,
            "gdr {} >= base {}",
            gdr.report.dram_bytes,
            base.report.dram_bytes
        );
        assert!(gdr.report.time_ns <= base.report.time_ns);
        assert!(gdr.na_hit_rate > base.na_hit_rate);
    }

    #[test]
    fn na_window_is_double_buffered_shared_capacity() {
        let cfg = HiHgnnConfig::default();
        let expect = cfg.na_buffer_bytes / (cfg.lanes * 4) / FEATURE_BYTES;
        assert_eq!(cfg.na_window_features(), expect);
        assert!(cfg.total_buffer_bytes() > cfg.na_buffer_bytes);
    }

    #[test]
    fn replacement_times_surface_thrashing() {
        let (w, graphs) = setup(0.10);
        let cfg = HiHgnnConfig {
            na_buffer_bytes: 128 * 1024,
            ..HiHgnnConfig::default()
        };
        let run = HiHgnnSim::new(cfg).execute(&w, &graphs, None, "HiHGNN");
        let rt = run.src_replacement_times();
        assert!(rt.iter().any(|&r| r > 0), "expected feature refetches");
    }

    #[test]
    fn schedule_length_checked() {
        let (w, graphs) = setup(0.03);
        let sim = HiHgnnSim::new(HiHgnnConfig::default());
        let err = sim
            .try_execute::<EdgeSchedule>(&w, &graphs, Some(&[]), "x")
            .unwrap_err();
        assert_eq!(
            err,
            gdr_hetgraph::GdrError::length_mismatch("schedules", graphs.len(), 0)
        );
    }

    #[test]
    fn wrong_permutation_schedules_rejected() {
        // right length, wrong edges: schedules built from the *previous*
        // graph must be rejected at the boundary, not simulated
        let (w, graphs) = setup(0.05);
        let rotated: Vec<EdgeSchedule> = (0..graphs.len())
            .map(|i| EdgeSchedule::dst_major(&graphs[(i + 1) % graphs.len()]))
            .collect();
        let sim = HiHgnnSim::new(HiHgnnConfig::default());
        let err = sim
            .try_execute(&w, &graphs, Some(&rotated), "x")
            .unwrap_err();
        assert!(
            matches!(
                err,
                gdr_hetgraph::GdrError::InvalidConfig { .. }
                    | gdr_hetgraph::GdrError::LengthMismatch { .. }
            ),
            "got {err}"
        );
    }

    #[test]
    fn workload_alignment_checked() {
        let (w, graphs) = setup(0.03);
        let sim = HiHgnnSim::new(HiHgnnConfig::default());
        let err = sim
            .try_execute::<EdgeSchedule>(&w, &graphs[..1], None, "x")
            .unwrap_err();
        assert!(matches!(
            err,
            gdr_hetgraph::GdrError::LengthMismatch { what, .. } if what.contains("workload")
        ));
    }

    #[test]
    fn borrowed_schedules_match_owned() {
        let (w, graphs) = setup(0.05);
        let schedules: Vec<EdgeSchedule> = graphs.iter().map(EdgeSchedule::dst_major).collect();
        let refs: Vec<&EdgeSchedule> = schedules.iter().collect();
        let sim = HiHgnnSim::new(HiHgnnConfig::default());
        let owned = sim.try_execute(&w, &graphs, Some(&schedules), "x").unwrap();
        let borrowed = sim.try_execute(&w, &graphs, Some(&refs), "x").unwrap();
        assert_eq!(owned.report, borrowed.report);
    }

    #[test]
    fn platform_trait_reports_hihgnn() {
        let (w, graphs) = setup(0.03);
        let sim = HiHgnnSim::new(HiHgnnConfig::default());
        let p: &dyn Platform = &sim;
        assert!(p.supports_schedules());
        let run = p.execute(&w, &graphs, None).unwrap();
        assert_eq!(run.report.platform, "HiHGNN");
        let direct = sim.execute(&w, &graphs, None, "HiHGNN");
        assert_eq!(run.report, direct.report);
        assert_eq!(
            run.src_replacement_times.len(),
            direct.src_replacement_times().len()
        );
    }
}

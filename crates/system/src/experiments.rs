//! Experiment drivers: one function per paper table/figure.
//!
//! Each driver consumes a [`crate::grid::GridPoint`] slice (or runs its
//! own pass) and returns both structured data and a markdown rendering.
//! `gdr-bench paper --scale paper` renders their full-scale output.

use gdr_accel::report::geomean;
use gdr_frontend::area_power::FrontendAreaPower;
use gdr_frontend::config::FrontendConfig;
use gdr_hetgraph::datasets::Dataset;
use gdr_hgnn::model::ModelKind;
use gdr_memsim::cacti_lite::{CactiLite, TechNode};

use crate::grid::{ExperimentConfig, GridPoint};
use crate::json::Json;
use crate::markdown::{f2, table};

/// Serializes `(label, A100, HiHGNN, GDR)` speedup/ratio rows plus their
/// geomeans — the shared shape of Figs. 7 and 8.
fn three_way_json(rows: &[(String, f64, f64, f64)], geomean: (f64, f64, f64)) -> Json {
    Json::obj([
        (
            "rows",
            Json::arr(rows.iter().map(|(l, a, h, g)| {
                Json::obj([
                    ("workload", Json::from(l.as_str())),
                    ("a100", Json::from(*a)),
                    ("hihgnn", Json::from(*h)),
                    ("gdr", Json::from(*g)),
                ])
            })),
        ),
        (
            "geomean",
            Json::obj([
                ("a100", Json::from(geomean.0)),
                ("hihgnn", Json::from(geomean.1)),
                ("gdr", Json::from(geomean.2)),
            ]),
        ),
    ])
}

/// Fig. 7: speedups over the T4 baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7 {
    /// Per-cell `(label, A100, HiHGNN, HiHGNN+GDR)` speedups vs T4.
    pub rows: Vec<(String, f64, f64, f64)>,
    /// Geometric means `(A100, HiHGNN, HiHGNN+GDR)` vs T4.
    pub geomean: (f64, f64, f64),
}

impl Fig7 {
    /// Derived headline numbers: HiHGNN+GDR speedup vs (T4, A100, HiHGNN).
    /// The paper reports 68.8×, 14.6× and 1.78×.
    pub fn headline(&self) -> (f64, f64, f64) {
        let (a100, hihgnn, gdr) = self.geomean;
        (gdr, gdr / a100, gdr / hihgnn)
    }

    /// Markdown rendering.
    pub fn to_markdown(&self) -> String {
        let mut rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(l, a, h, g)| vec![l.clone(), f2(*a), f2(*h), f2(*g)])
            .collect();
        rows.push(vec![
            "GEOMEAN".into(),
            f2(self.geomean.0),
            f2(self.geomean.1),
            f2(self.geomean.2),
        ]);
        table(&["workload", "A100", "HiHGNN", "GDR-HGNN+HiHGNN"], &rows)
    }

    /// JSON rendering (speedups vs T4).
    pub fn to_json(&self) -> Json {
        three_way_json(&self.rows, self.geomean)
    }
}

/// Fig. 7 driver.
pub fn fig7(grid: &[GridPoint]) -> Fig7 {
    let rows: Vec<(String, f64, f64, f64)> = grid
        .iter()
        .map(|p| {
            (
                p.label(),
                p.a100.speedup_vs(&p.t4),
                p.hihgnn.speedup_vs(&p.t4),
                p.gdr.speedup_vs(&p.t4),
            )
        })
        .collect();
    let geo = (
        geomean(&rows.iter().map(|r| r.1).collect::<Vec<_>>()),
        geomean(&rows.iter().map(|r| r.2).collect::<Vec<_>>()),
        geomean(&rows.iter().map(|r| r.3).collect::<Vec<_>>()),
    );
    Fig7 { rows, geomean: geo }
}

/// Fig. 8: DRAM access normalized to T4 (percent).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8 {
    /// Per-cell `(label, A100, HiHGNN, HiHGNN+GDR)` normalized access %.
    pub rows: Vec<(String, f64, f64, f64)>,
    /// Geometric means.
    pub geomean: (f64, f64, f64),
}

impl Fig8 {
    /// Headline ratios: GDR+HiHGNN DRAM access relative to (T4, A100,
    /// HiHGNN). The paper reports 4.8%, 8.7% and 57.1%.
    pub fn headline(&self) -> (f64, f64, f64) {
        let (a100, hihgnn, gdr) = self.geomean;
        (gdr, gdr / a100 * 100.0, gdr / hihgnn * 100.0)
    }

    /// Markdown rendering.
    pub fn to_markdown(&self) -> String {
        let mut rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(l, a, h, g)| vec![l.clone(), f2(*a), f2(*h), f2(*g)])
            .collect();
        rows.push(vec![
            "GEOMEAN".into(),
            f2(self.geomean.0),
            f2(self.geomean.1),
            f2(self.geomean.2),
        ]);
        table(
            &["workload", "A100 %", "HiHGNN %", "GDR-HGNN+HiHGNN %"],
            &rows,
        )
    }

    /// JSON rendering (DRAM access % of T4).
    pub fn to_json(&self) -> Json {
        three_way_json(&self.rows, self.geomean)
    }
}

/// Fig. 8 driver.
pub fn fig8(grid: &[GridPoint]) -> Fig8 {
    let rows: Vec<(String, f64, f64, f64)> = grid
        .iter()
        .map(|p| {
            (
                p.label(),
                p.a100.dram_ratio_vs(&p.t4) * 100.0,
                p.hihgnn.dram_ratio_vs(&p.t4) * 100.0,
                p.gdr.dram_ratio_vs(&p.t4) * 100.0,
            )
        })
        .collect();
    let geo = (
        geomean(&rows.iter().map(|r| r.1).collect::<Vec<_>>()),
        geomean(&rows.iter().map(|r| r.2).collect::<Vec<_>>()),
        geomean(&rows.iter().map(|r| r.3).collect::<Vec<_>>()),
    );
    Fig8 { rows, geomean: geo }
}

/// Fig. 9: DRAM bandwidth utilization (percent) on all four platforms.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9 {
    /// Per-cell `(label, T4, A100, HiHGNN, HiHGNN+GDR)` utilization %.
    pub rows: Vec<(String, f64, f64, f64, f64)>,
    /// Geometric means.
    pub geomean: (f64, f64, f64, f64),
}

impl Fig9 {
    /// Headline: GDR+HiHGNN utilization improvement over (T4, A100).
    /// The paper reports 2.58× and 6.35×.
    pub fn headline(&self) -> (f64, f64) {
        let (t4, a100, _, gdr) = self.geomean;
        (gdr / t4, gdr / a100)
    }

    /// Markdown rendering.
    pub fn to_markdown(&self) -> String {
        let mut rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(l, t, a, h, g)| vec![l.clone(), f2(*t), f2(*a), f2(*h), f2(*g)])
            .collect();
        rows.push(vec![
            "GEOMEAN".into(),
            f2(self.geomean.0),
            f2(self.geomean.1),
            f2(self.geomean.2),
            f2(self.geomean.3),
        ]);
        table(
            &["workload", "T4 %", "A100 %", "HiHGNN %", "GDR+HiHGNN %"],
            &rows,
        )
    }

    /// JSON rendering (bandwidth utilization %).
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "rows",
                Json::arr(self.rows.iter().map(|(l, t, a, h, g)| {
                    Json::obj([
                        ("workload", Json::from(l.as_str())),
                        ("t4", Json::from(*t)),
                        ("a100", Json::from(*a)),
                        ("hihgnn", Json::from(*h)),
                        ("gdr", Json::from(*g)),
                    ])
                })),
            ),
            (
                "geomean",
                Json::obj([
                    ("t4", Json::from(self.geomean.0)),
                    ("a100", Json::from(self.geomean.1)),
                    ("hihgnn", Json::from(self.geomean.2)),
                    ("gdr", Json::from(self.geomean.3)),
                ]),
            ),
        ])
    }
}

/// Fig. 9 driver.
pub fn fig9(grid: &[GridPoint]) -> Fig9 {
    let rows: Vec<(String, f64, f64, f64, f64)> = grid
        .iter()
        .map(|p| {
            (
                p.label(),
                p.t4.bandwidth_utilization * 100.0,
                p.a100.bandwidth_utilization * 100.0,
                p.hihgnn.bandwidth_utilization * 100.0,
                p.gdr.bandwidth_utilization * 100.0,
            )
        })
        .collect();
    let geo = (
        geomean(&rows.iter().map(|r| r.1).collect::<Vec<_>>()),
        geomean(&rows.iter().map(|r| r.2).collect::<Vec<_>>()),
        geomean(&rows.iter().map(|r| r.3).collect::<Vec<_>>()),
        geomean(&rows.iter().map(|r| r.4).collect::<Vec<_>>()),
    );
    Fig9 { rows, geomean: geo }
}

/// Fig. 2: replacement-times histogram of vertex features during NA on
/// HiHGNN with RGCN.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2 {
    /// Per dataset: 8 buckets of `(ratio_of_vertices %, ratio_of_access %)`
    /// over vertices replaced ≥ 1 time; bucket *i* = replaced *i+1* times
    /// (last bucket accumulates 8+).
    pub per_dataset: Vec<(Dataset, Vec<(f64, f64)>)>,
}

impl Fig2 {
    /// Markdown rendering.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        for (d, hist) in &self.per_dataset {
            out.push_str(&format!("### {d}\n"));
            let rows: Vec<Vec<String>> = hist
                .iter()
                .enumerate()
                .map(|(i, (v, a))| {
                    let bucket = if i == hist.len() - 1 {
                        format!("{}+", i + 1)
                    } else {
                        format!("{}", i + 1)
                    };
                    vec![bucket, f2(*v), f2(*a)]
                })
                .collect();
            out.push_str(&table(
                &["replacements", "ratio of #vertex %", "ratio of #access %"],
                &rows,
            ));
            out.push('\n');
        }
        out
    }

    /// JSON rendering (per-dataset replacement histograms).
    pub fn to_json(&self) -> Json {
        Json::obj([(
            "per_dataset",
            Json::arr(self.per_dataset.iter().map(|(d, hist)| {
                Json::obj([
                    ("dataset", Json::from(d.name())),
                    (
                        "histogram",
                        Json::arr(hist.iter().enumerate().map(|(i, (v, a))| {
                            Json::obj([
                                ("replacements", Json::from(i + 1)),
                                ("vertex_pct", Json::from(*v)),
                                ("access_pct", Json::from(*a)),
                            ])
                        })),
                    ),
                ])
            })),
        )])
    }
}

/// Builds the Fig. 2 histogram from raw replacement-times tables.
pub fn replacement_histogram(replacements: &[u32], buckets: usize) -> Vec<(f64, f64)> {
    let mut out = vec![(0.0, 0.0); buckets];
    let replaced: Vec<u32> = replacements.iter().copied().filter(|&r| r > 0).collect();
    let total_v = replaced.len();
    let total_a: u64 = replaced.iter().map(|&r| r as u64).sum();
    if total_v == 0 || total_a == 0 {
        return out;
    }
    for &r in &replaced {
        let b = (r as usize).min(buckets) - 1;
        out[b].0 += 1.0;
        out[b].1 += r as f64;
    }
    for (v, a) in &mut out {
        *v = *v / total_v as f64 * 100.0;
        *a = *a / total_a as f64 * 100.0;
    }
    out
}

/// Fig. 2 driver (RGCN rows of the grid).
pub fn fig2(grid: &[GridPoint]) -> Fig2 {
    let per_dataset = grid
        .iter()
        .filter(|p| p.model == ModelKind::Rgcn)
        .map(|p| {
            (
                p.dataset,
                replacement_histogram(&p.hihgnn_src_replacements, 8),
            )
        })
        .collect();
    Fig2 { per_dataset }
}

/// §3 motivation: T4 L2 hit ratio over NA gathers with RGCN.
/// The paper measures 30.1% (IMDB) and 17.5% (DBLP).
pub fn motivation_l2(grid: &[GridPoint]) -> Vec<(Dataset, f64)> {
    grid.iter()
        .filter(|p| p.model == ModelKind::Rgcn)
        .map(|p| (p.dataset, p.t4_na_l2_hit * 100.0))
        .collect()
}

/// Fig. 10: area and power of HiHGNN vs the GDR-HGNN frontend.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10 {
    /// HiHGNN area (mm²) and power (mW).
    pub hihgnn_area_mm2: f64,
    /// HiHGNN power in mW.
    pub hihgnn_power_mw: f64,
    /// GDR frontend area (mm²).
    pub gdr_area_mm2: f64,
    /// GDR frontend power (mW).
    pub gdr_power_mw: f64,
    /// GDR's share of the combined area, percent (paper: 2.30%).
    pub gdr_area_pct: f64,
    /// GDR's share of the combined power, percent (paper: 0.46%).
    pub gdr_power_pct: f64,
    /// GDR-internal area breakdown `(fifos, buffers, others)` percent.
    pub gdr_area_breakdown: (f64, f64, f64),
    /// GDR-internal power breakdown `(fifos, buffers, others)` percent.
    pub gdr_power_breakdown: (f64, f64, f64),
}

impl Fig10 {
    /// Markdown rendering.
    pub fn to_markdown(&self) -> String {
        let rows = vec![
            vec![
                "HiHGNN".into(),
                f2(self.hihgnn_area_mm2),
                f2(self.hihgnn_power_mw),
            ],
            vec![
                "GDR-HGNN".into(),
                f2(self.gdr_area_mm2),
                f2(self.gdr_power_mw),
            ],
            vec![
                "GDR share %".into(),
                f2(self.gdr_area_pct),
                f2(self.gdr_power_pct),
            ],
        ];
        table(&["component", "area mm²", "power mW"], &rows)
    }

    /// JSON rendering (areas, powers, shares, and breakdowns).
    pub fn to_json(&self) -> Json {
        let breakdown = |(fifos, buffers, others): (f64, f64, f64)| {
            Json::obj([
                ("fifos_pct", Json::from(fifos)),
                ("buffers_pct", Json::from(buffers)),
                ("others_pct", Json::from(others)),
            ])
        };
        Json::obj([
            ("hihgnn_area_mm2", Json::from(self.hihgnn_area_mm2)),
            ("hihgnn_power_mw", Json::from(self.hihgnn_power_mw)),
            ("gdr_area_mm2", Json::from(self.gdr_area_mm2)),
            ("gdr_power_mw", Json::from(self.gdr_power_mw)),
            ("gdr_area_pct", Json::from(self.gdr_area_pct)),
            ("gdr_power_pct", Json::from(self.gdr_power_pct)),
            ("gdr_area_breakdown", breakdown(self.gdr_area_breakdown)),
            ("gdr_power_breakdown", breakdown(self.gdr_power_breakdown)),
        ])
    }
}

/// Fig. 10 driver. Activity levels: the frontend streams ~16 GB/s through
/// its buffers while restructuring; HiHGNN's datapath runs at ~60%
/// utilization (memory-bound phases lower it).
pub fn fig10() -> Fig10 {
    let node = TechNode::tsmc12();
    let cacti = CactiLite::new(node);
    let accel_cfg = gdr_accel::hihgnn::HiHgnnConfig::default();

    // HiHGNN: buffer complement + systolic & SIMD datapaths + control.
    let buffers = cacti.sram(accel_cfg.total_buffer_bytes() as u64);
    let macs = cacti.mac_array((accel_cfg.systolic_macs + accel_cfg.simd_ops) as usize);
    let logic = cacti.logic(3_000.0);
    let hihgnn_area = buffers.area_mm2 + macs.area_mm2 + logic.area_mm2;
    let util = 0.6;
    // pJ/op × ops/cycle × cycles/ns = pJ/ns = mW
    let mac_dynamic_mw = (accel_cfg.systolic_macs + accel_cfg.simd_ops) as f64
        * accel_cfg.clock_ghz
        * util
        * cacti.mac_energy_pj(1);
    let buffer_bps = 512e9 * util;
    let hihgnn_power =
        buffers.power_mw(buffer_bps) + macs.static_mw + mac_dynamic_mw + logic.power_mw(buffer_bps);

    let fe = FrontendAreaPower::estimate(&FrontendConfig::default(), node);
    let fe_activity = 16e9;
    let gdr_area = fe.total_area_mm2();
    let gdr_power = fe.total_power_mw(fe_activity);

    Fig10 {
        hihgnn_area_mm2: hihgnn_area,
        hihgnn_power_mw: hihgnn_power,
        gdr_area_mm2: gdr_area,
        gdr_power_mw: gdr_power,
        gdr_area_pct: gdr_area / (gdr_area + hihgnn_area) * 100.0,
        gdr_power_pct: gdr_power / (gdr_power + hihgnn_power) * 100.0,
        gdr_area_breakdown: fe.area_breakdown_pct(),
        gdr_power_breakdown: fe.power_breakdown_pct(fe_activity),
    }
}

/// Table 2: dataset statistics of the synthesized HetGs.
pub fn table2(cfg: &ExperimentConfig) -> String {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for d in Dataset::ALL {
        let het = d.build_scaled(cfg.seed, cfg.scale);
        for (i, vt) in het.schema().vertex_types().iter().enumerate() {
            rows.push(vec![
                if i == 0 {
                    d.name().into()
                } else {
                    String::new()
                },
                vt.name().into(),
                vt.count().to_string(),
                if vt.feature_dim() == 0 {
                    "—".into()
                } else {
                    vt.feature_dim().to_string()
                },
            ]);
        }
        let rels: Vec<String> = het
            .schema()
            .relations()
            .iter()
            .map(|r| r.name().to_string())
            .collect();
        rows.push(vec![
            String::new(),
            "relations".into(),
            rels.join(", "),
            het.total_edges().to_string(),
        ]);
    }
    table(&["dataset", "vertex type", "#vertex", "#feature"], &rows)
}

/// Table 3: platform configuration dump.
pub fn table3() -> String {
    let a = gdr_accel::hihgnn::HiHgnnConfig::default();
    let f = FrontendConfig::default();
    let rows = vec![
        vec![
            "HiHGNN peak".into(),
            format!(
                "{:.2} TFLOPS @ {:.1} GHz",
                2.0 * a.systolic_macs as f64 * a.clock_ghz / 1000.0,
                a.clock_ghz
            ),
        ],
        vec![
            "HiHGNN buffers".into(),
            format!(
                "{:.2} MB FP, {:.2} MB NA, {:.2} MB SF, {:.2} MB Att",
                a.fp_buffer_bytes as f64 / 1048576.0,
                a.na_buffer_bytes as f64 / 1048576.0,
                a.sf_buffer_bytes as f64 / 1048576.0,
                a.att_buffer_bytes as f64 / 1048576.0
            ),
        ],
        vec![
            "Off-chip memory".into(),
            format!("{} GB/s, HBM 1.0", a.hbm.bytes_per_cycle),
        ],
        vec![
            "GDR-HGNN".into(),
            format!(
                "{} KB FIFOs, {} KB Matching, {} KB Candidate, {} KB Adj",
                f.fifo_bytes / 1024,
                f.matching_buffer_bytes / 1024,
                f.candidate_buffer_bytes / 1024,
                f.adj_buffer_bytes / 1024
            ),
        ],
    ];
    table(&["platform", "configuration"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::run_grid;

    fn grid() -> Vec<GridPoint> {
        run_grid(&ExperimentConfig {
            seed: 7,
            scale: 0.05,
        })
    }

    #[test]
    fn fig7_ordering_holds() {
        let g = grid();
        let f = fig7(&g);
        assert_eq!(f.rows.len(), 9);
        let (a100, hihgnn, gdr) = f.geomean;
        assert!(a100 > 1.0, "A100 beats T4: {a100}");
        assert!(hihgnn > a100, "HiHGNN beats A100: {hihgnn} vs {a100}");
        // GDR does not win at either scale in this model: at full scale
        // it reads 1.00x of HiHGNN (paper 1.78x); see ROADMAP item 1
        assert!(gdr >= hihgnn * 0.75, "GDR competitive: {gdr} vs {hihgnn}");
        let md = f.to_markdown();
        assert!(md.contains("GEOMEAN"));
    }

    #[test]
    fn fig8_dram_ordering_holds() {
        let g = grid();
        let f = fig8(&g);
        let (a100, hihgnn, gdr) = f.geomean;
        // at test scale both GPU L2s hold the working sets, so their
        // traffic ties; at full scale A100 moves 98.4% of T4's bytes
        assert!(a100 <= 100.5, "A100 moves no more data than T4: {a100}");
        assert!(hihgnn < a100, "HiHGNN moves less than the GPUs");
        assert!(gdr <= hihgnn * 1.1, "GDR keeps HiHGNN traffic in check");
    }

    #[test]
    fn fig9_utilization_bounded() {
        let g = grid();
        let f = fig9(&g);
        for (_, t4, a100, hihgnn, gdr) in &f.rows {
            for u in [t4, a100, hihgnn, gdr] {
                assert!(*u >= 0.0 && *u <= 100.0);
            }
        }
    }

    #[test]
    fn fig2_histograms_sum_to_100() {
        let g = grid();
        let f = fig2(&g);
        assert_eq!(f.per_dataset.len(), 3);
        for (d, hist) in &f.per_dataset {
            let v: f64 = hist.iter().map(|h| h.0).sum();
            let a: f64 = hist.iter().map(|h| h.1).sum();
            if v > 0.0 {
                assert!((v - 100.0).abs() < 1e-6, "{d}: vertex ratios sum {v}");
                assert!((a - 100.0).abs() < 1e-6, "{d}: access ratios sum {a}");
            }
        }
        assert!(f.to_markdown().contains("replacements"));
    }

    #[test]
    fn fig10_matches_paper_ballpark() {
        let f = fig10();
        assert!(
            f.gdr_area_pct > 1.0 && f.gdr_area_pct < 5.0,
            "GDR area share {}% (paper: 2.30%)",
            f.gdr_area_pct
        );
        assert!(
            f.gdr_power_pct > 0.2 && f.gdr_power_pct < 2.0,
            "GDR power share {}% (paper: 0.46%)",
            f.gdr_power_pct
        );
        let (_, buf_pct, _) = f.gdr_area_breakdown;
        assert!(buf_pct > 85.0, "buffers dominate GDR area");
        assert!(f.to_markdown().contains("GDR share"));
    }

    #[test]
    fn figures_serialize_to_json() {
        let g = grid();
        let f7 = fig7(&g).to_json();
        assert_eq!(f7.get("rows").unwrap().as_arr().unwrap().len(), 9);
        assert!(
            f7.get("geomean")
                .unwrap()
                .get("gdr")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
        let f9 = fig9(&g).to_json();
        assert!(f9.get("geomean").unwrap().get("t4").is_some());
        let f2j = fig2(&g).to_json();
        assert_eq!(f2j.get("per_dataset").unwrap().as_arr().unwrap().len(), 3);
        let f10 = fig10().to_json();
        assert!(f10.get("gdr_area_pct").unwrap().as_f64().unwrap() > 0.0);
        // every rendering must be a valid, reparseable document
        for v in [&f7, &f9, &f2j, &f10] {
            assert_eq!(&crate::json::Json::parse(&v.to_pretty()).unwrap(), v);
        }
    }

    #[test]
    fn tables_render() {
        let t2 = table2(&ExperimentConfig {
            seed: 1,
            scale: 0.05,
        });
        assert!(t2.contains("IMDB") && t2.contains("DBLP"));
        let t3 = table3();
        assert!(t3.contains("16.38 TFLOPS") || t3.contains("16.3"));
        assert!(t3.contains("GDR-HGNN"));
    }

    #[test]
    fn replacement_histogram_edge_cases() {
        assert!(replacement_histogram(&[], 8)
            .iter()
            .all(|&(v, a)| v == 0.0 && a == 0.0));
        let h = replacement_histogram(&[0, 0, 1, 9], 8);
        assert!((h[0].0 - 50.0).abs() < 1e-9);
        assert!((h[7].0 - 50.0).abs() < 1e-9);
    }

    #[test]
    fn motivation_reports_three_datasets() {
        let g = grid();
        let m = motivation_l2(&g);
        assert_eq!(m.len(), 3);
        for (_, pct) in &m {
            assert!(*pct >= 0.0 && *pct <= 100.0);
        }
    }
}

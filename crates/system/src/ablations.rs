//! Design-choice ablations (not in the paper).
//!
//! * backbone strategy: paper heuristic vs exact König vs greedy-degree
//!   (the I-GCN-like baseline) vs no restructuring;
//! * recursive restructuring depth (the paper's §4.3 extension);
//! * NA-buffer capacity sweep.

use gdr_accel::na_engine::NaBufferSim;
use gdr_core::backbone::BackboneStrategy;
use gdr_core::restructure::Restructurer;
use gdr_core::schedule::EdgeSchedule;
use gdr_hetgraph::datasets::Dataset;
use gdr_hetgraph::BipartiteGraph;

use crate::grid::ExperimentConfig;
use crate::json::Json;

/// Largest semantic graph of a dataset (the thrashing-dominant one).
pub fn largest_semantic_graph(cfg: &ExperimentConfig, dataset: Dataset) -> BipartiteGraph {
    let het = dataset.build_scaled(cfg.seed, cfg.scale);
    het.all_semantic_graphs()
        .into_iter()
        .max_by_key(|g| g.edge_count())
        .expect("datasets have relations")
}

/// A1: NA buffer misses per scheduling strategy on one semantic graph.
/// Returns `(strategy label, misses)`; lower is better.
pub fn ablation_backbone(g: &BipartiteGraph, buffer_features: usize) -> Vec<(String, u64)> {
    let sim = NaBufferSim::new(buffer_features, 8);
    let mut out = Vec::new();
    let baseline = sim.simulate(g, &EdgeSchedule::dst_major(g), 0);
    out.push(("none (dst-major)".to_string(), baseline.misses));
    let island = sim.simulate(g, &EdgeSchedule::islandized(g), 0);
    out.push(("islandized (I-GCN-like)".to_string(), island.misses));
    for strat in [
        BackboneStrategy::Paper,
        BackboneStrategy::KonigExact,
        BackboneStrategy::GreedyDegree,
    ] {
        let r = Restructurer::new().backbone_strategy(strat).restructure(g);
        let t = sim.simulate(g, r.schedule(), 0);
        out.push((format!("gdr/{strat}"), t.misses));
    }
    out
}

/// A2: recursive restructuring depth sweep at a given buffer size.
/// Returns `(depth, misses)`.
pub fn ablation_recursive(
    g: &BipartiteGraph,
    buffer_features: usize,
    max_depth: usize,
) -> Vec<(usize, u64)> {
    let sim = NaBufferSim::new(buffer_features, 8);
    (0..=max_depth)
        .map(|depth| {
            let r = Restructurer::new()
                .backbone_strategy(BackboneStrategy::KonigExact)
                .recursion_depth(depth)
                .restructure(g);
            (depth, sim.simulate(g, r.schedule(), 0).misses)
        })
        .collect()
}

/// A3: NA buffer capacity sweep: `(features, baseline misses, gdr misses)`.
pub fn ablation_buffer_sweep(g: &BipartiteGraph, capacities: &[usize]) -> Vec<(usize, u64, u64)> {
    let r = Restructurer::new()
        .backbone_strategy(BackboneStrategy::KonigExact)
        .restructure(g);
    capacities
        .iter()
        .map(|&c| {
            let sim = NaBufferSim::new(c, 8);
            let base = sim.simulate(g, &EdgeSchedule::dst_major(g), 0).misses;
            let gdr = sim.simulate(g, r.schedule(), 0).misses;
            (c, base, gdr)
        })
        .collect()
}

/// All three ablations on one dataset's thrashing-dominant semantic
/// graph, bundled for the report subsystem (A1–A3 render as markdown
/// and JSON alongside the paper figures).
#[derive(Debug, Clone, PartialEq)]
pub struct AblationReport {
    /// Dataset the semantic graph came from.
    pub dataset: Dataset,
    /// Name of the semantic graph used.
    pub graph: String,
    /// NA buffer capacity (features) for A1/A2.
    pub buffer_features: usize,
    /// A1 rows: `(strategy label, misses)`.
    pub backbone: Vec<(String, u64)>,
    /// A2 rows: `(recursion depth, misses)` at `buffer_features / 8`.
    pub recursive: Vec<(usize, u64)>,
    /// A3 rows: `(capacity, baseline misses, gdr misses)`.
    pub buffer_sweep: Vec<(usize, u64, u64)>,
}

impl AblationReport {
    /// Runs A1–A3 on `dataset`'s largest semantic graph with the given
    /// NA-buffer capacity (A2 sweeps at an eighth of it, A3 around it).
    /// Tiny capacities are clamped to the smallest meaningful buffer
    /// (8 features) and deduplicated, so no sweep point degenerates to
    /// a zero-capacity simulator.
    pub fn collect(cfg: &ExperimentConfig, dataset: Dataset, buffer_features: usize) -> Self {
        let g = largest_semantic_graph(cfg, dataset);
        let cap = buffer_features.max(8);
        let mut sweep_caps: Vec<usize> = [cap / 8, cap / 4, cap / 2, cap, cap * 2]
            .iter()
            .map(|&c| c.max(8))
            .collect();
        sweep_caps.dedup();
        Self {
            dataset,
            graph: g.name().to_string(),
            buffer_features: cap,
            backbone: ablation_backbone(&g, cap),
            recursive: ablation_recursive(&g, (cap / 8).max(64), 2),
            buffer_sweep: ablation_buffer_sweep(&g, &sweep_caps),
        }
    }

    /// Markdown rendering (the ablation section of `gdr-bench paper`).
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "### A1: backbone strategy ({} semantic graph `{}`, buffer {} features)\n\n",
            self.dataset.name(),
            self.graph,
            self.buffer_features
        );
        for (name, misses) in &self.backbone {
            out.push_str(&format!("- {name}: {misses} misses\n"));
        }
        out.push_str("\n### A2: recursion depth (buffer / 8)\n\n");
        for (depth, misses) in &self.recursive {
            out.push_str(&format!("- depth {depth}: {misses} misses\n"));
        }
        out.push_str("\n### A3: NA buffer sweep\n\n");
        for (c, base, gdr) in &self.buffer_sweep {
            out.push_str(&format!("- {c} features: baseline {base}, gdr {gdr}\n"));
        }
        out
    }

    /// JSON rendering.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("dataset", Json::from(self.dataset.name())),
            ("graph", Json::from(self.graph.as_str())),
            ("buffer_features", Json::from(self.buffer_features)),
            (
                "backbone",
                Json::arr(self.backbone.iter().map(|(name, misses)| {
                    Json::obj([
                        ("strategy", Json::from(name.as_str())),
                        ("misses", Json::from(*misses)),
                    ])
                })),
            ),
            (
                "recursive",
                Json::arr(self.recursive.iter().map(|(depth, misses)| {
                    Json::obj([
                        ("depth", Json::from(*depth)),
                        ("misses", Json::from(*misses)),
                    ])
                })),
            ),
            (
                "buffer_sweep",
                Json::arr(self.buffer_sweep.iter().map(|(c, base, gdr)| {
                    Json::obj([
                        ("capacity", Json::from(*c)),
                        ("baseline_misses", Json::from(*base)),
                        ("gdr_misses", Json::from(*gdr)),
                    ])
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_graph() -> BipartiteGraph {
        largest_semantic_graph(
            &ExperimentConfig {
                seed: 3,
                scale: 0.08,
            },
            Dataset::Dblp,
        )
    }

    #[test]
    fn backbone_ablation_ranks_strategies() {
        let g = test_graph();
        // capacity between backbone and working set (the design point)
        let cap = (g.src_count() + g.dst_count()) / 4;
        let results = ablation_backbone(&g, cap.max(64));
        assert_eq!(results.len(), 5);
        let baseline = results[0].1;
        let gdr_paper = results.iter().find(|(n, _)| n == "gdr/paper").unwrap().1;
        assert!(
            gdr_paper < baseline,
            "paper strategy {gdr_paper} should beat baseline {baseline}"
        );
    }

    #[test]
    fn recursion_depths_all_valid() {
        let g = test_graph();
        let sweep = ablation_recursive(&g, 96, 2);
        assert_eq!(sweep.len(), 3);
        // all depths produce *some* misses (compulsory at least)
        assert!(sweep.iter().all(|&(_, m)| m > 0));
    }

    #[test]
    fn ablation_report_bundles_all_three() {
        let r = AblationReport::collect(
            &ExperimentConfig {
                seed: 3,
                scale: 0.08,
            },
            Dataset::Dblp,
            512,
        );
        assert_eq!(r.backbone.len(), 5);
        assert_eq!(r.recursive.len(), 3);
        assert_eq!(r.buffer_sweep.len(), 5);
        let md = r.to_markdown();
        assert!(md.contains("A1") && md.contains("A2") && md.contains("A3"));
        let j = r.to_json();
        assert_eq!(j.get("backbone").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(&Json::parse(&j.to_compact()).unwrap(), &j);
    }

    #[test]
    fn ablation_report_clamps_degenerate_capacities() {
        // A tiny capacity must clamp (no zero-capacity NaBufferSim
        // assert) and dedup the collapsed sweep points.
        let r = AblationReport::collect(
            &ExperimentConfig {
                seed: 3,
                scale: 0.08,
            },
            Dataset::Dblp,
            4,
        );
        assert_eq!(r.buffer_features, 8);
        assert_eq!(
            r.buffer_sweep.iter().map(|s| s.0).collect::<Vec<_>>(),
            [8, 16]
        );
    }

    #[test]
    fn buffer_sweep_is_monotone_for_gdr() {
        let g = test_graph();
        let sweep = ablation_buffer_sweep(&g, &[64, 256, 1024, 4096]);
        for w in sweep.windows(2) {
            assert!(w[1].2 <= w[0].2, "gdr misses increased with capacity");
        }
        // at large capacity both converge to compulsory misses
        let last = sweep.last().unwrap();
        assert_eq!(last.1, last.2);
    }
}

//! Cross-crate integration tests: the full GDR-HGNN stack end to end.

use gdr::core::backbone::{Backbone, BackboneStrategy};
use gdr::core::matching::{fifo_matching, hopcroft_karp};
use gdr::core::restructure::Restructurer;
use gdr::core::schedule::EdgeSchedule;
use gdr::frontend::config::FrontendConfig;
use gdr::frontend::decoupler::Decoupler;
use gdr::frontend::pipeline::FrontendPipeline;
use gdr::hetgraph::datasets::Dataset;
use gdr::hetgraph::BipartiteGraph;
use gdr::hgnn::model::{ModelConfig, ModelKind};
use gdr::hgnn::reference::HgnnReference;
use gdr::hgnn::tensor::Matrix;
use gdr::hgnn::workload::Workload;
use gdr::system::combined::CombinedSystem;
use gdr::system::grid::{ExperimentConfig, GridPoint};

const SCALE: f64 = 0.06;

#[test]
fn every_dataset_and_model_runs_end_to_end() {
    for dataset in Dataset::ALL {
        for model in ModelKind::ALL {
            let het = dataset.build_scaled(11, SCALE);
            let workload = Workload::from_hetero(ModelConfig::paper(model), &het);
            let graphs = het.all_semantic_graphs();
            let run = CombinedSystem::default_config().execute(&workload, &graphs);
            let r = run.report();
            assert!(r.time_ns > 0.0, "{model}/{dataset}");
            assert!(r.dram_bytes > 0, "{model}/{dataset}");
            assert!(
                r.bandwidth_utilization > 0.0 && r.bandwidth_utilization <= 1.0,
                "{model}/{dataset}"
            );
        }
    }
}

#[test]
fn frontend_matches_software_restructuring_semantics() {
    // The cycle-level hardware frontend must produce a maximum matching of
    // oracle size and a valid edge-permutation schedule on every semantic
    // graph of every dataset.
    for dataset in Dataset::ALL {
        let het = dataset.build_scaled(5, SCALE);
        let graphs = het.all_semantic_graphs();
        let fe = FrontendPipeline::new(FrontendConfig::default()).process_all(&graphs);
        for (g, fr) in graphs.iter().zip(fe.per_graph()) {
            let oracle = hopcroft_karp(g);
            assert_eq!(
                fr.matching_size,
                oracle.size(),
                "{dataset}/{}: matching below maximum",
                g.name()
            );
            assert!(
                fr.schedule.is_permutation_of(g),
                "{dataset}/{}: schedule lost edges",
                g.name()
            );
        }
    }
}

#[test]
fn a_long_augmenting_path_does_not_overflow_the_stack() {
    // s_i -> {d_i, d_(i+1)} for i < n and s_n -> {d_0}: greedy strands
    // s_n, and the one augmenting path runs through every source. A
    // recursive augmenting DFS needs one call frame per source on it.
    const N: u32 = 200_000;
    let worker = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let mut pairs: Vec<(u32, u32)> = (0..N).flat_map(|i| [(i, i), (i, i + 1)]).collect();
            pairs.push((N, 0));
            let n = N as usize + 1;
            let g = BipartiteGraph::from_pairs("chain", n, n, &pairs).expect("valid");
            let sizes = [
                hopcroft_karp(&g).size(),
                fifo_matching(&g).size(),
                Restructurer::new().restructure(&g).matching().size(),
                Decoupler::new(FrontendConfig::default())
                    .decouple(&g)
                    .matching
                    .size(),
            ];
            assert_eq!(sizes, [n; 4]);
        })
        .expect("spawn");
    worker
        .join()
        .expect("every engine finishes on a 2 MB stack");
}

#[test]
fn restructured_execution_is_numerically_equivalent() {
    // Restructuring only reorders commutative accumulations: the NA result
    // computed in restructured order must match the natural order.
    let het = Dataset::Acm.build_scaled(3, 0.03);
    let graphs = het.all_semantic_graphs();
    for model in ModelKind::ALL {
        let hgnn = HgnnReference::new(ModelConfig::paper(model), 17);
        for (i, g) in graphs.iter().enumerate() {
            if g.is_empty() {
                continue;
            }
            let src = Matrix::random(g.src_count(), 64, 1.0, i as u64);
            let dst = Matrix::random(g.dst_count(), 64, 1.0, 1000 + i as u64);
            let natural = hgnn.neighbor_aggregation(g, &src, &dst, i as u64);
            let restructured = Restructurer::new().restructure(g);
            let reordered =
                hgnn.na_with_schedule(g, restructured.schedule().edges(), &src, &dst, i as u64);
            let diff = natural.max_abs_diff(&reordered);
            assert!(
                diff < 1e-3,
                "{model}/{}: restructured result drifted by {diff}",
                g.name()
            );
        }
    }
}

#[test]
fn backbone_strategies_all_cover_all_datasets() {
    for dataset in Dataset::ALL {
        let het = dataset.build_scaled(7, SCALE);
        for g in het.all_semantic_graphs() {
            let m = hopcroft_karp(&g);
            for strat in [
                BackboneStrategy::Paper,
                BackboneStrategy::KonigExact,
                BackboneStrategy::GreedyDegree,
            ] {
                let b = Backbone::select(&g, &m, strat);
                assert!(
                    b.covers_all_edges(&g),
                    "{dataset}/{} with {strat}",
                    g.name()
                );
            }
        }
    }
}

#[test]
fn platform_ordering_holds_on_a_grid_cell() {
    let p = GridPoint::run(
        ModelKind::Rgat,
        Dataset::Imdb,
        &ExperimentConfig {
            seed: 42,
            scale: SCALE,
        },
    );
    assert!(p.a100.time_ns < p.t4.time_ns);
    assert!(p.hihgnn.time_ns < p.a100.time_ns);
    assert!(p.hihgnn.dram_bytes < p.a100.dram_bytes);
}

#[test]
fn builder_prelude_and_platforms_cover_the_stack() {
    use gdr::prelude::*;

    let system = SystemBuilder::new()
        .dataset(Dataset::Imdb)
        .model(ModelKind::Rgcn)
        .seed(11)
        .scale(SCALE)
        .build()
        .expect("valid configuration");

    // streaming frontend, then the full platform sweep behind the trait
    let frontend = system.session().par_process();
    assert_eq!(frontend.per_graph().len(), system.graphs().len());

    let platforms = paper_platforms();
    let refs: Vec<&dyn Platform> = platforms.iter().map(|p| p.as_ref()).collect();
    let runs = run_platforms(&refs, system.workload(), system.graphs()).unwrap();
    let names: Vec<&str> = runs.iter().map(|r| r.report.platform.as_str()).collect();
    assert_eq!(names, ["T4", "A100", "HiHGNN", "HiHGNN+GDR"]);
    assert!(
        runs[1].report.time_ns < runs[0].report.time_ns,
        "A100 beats T4"
    );
    assert!(
        runs[2].report.time_ns < runs[1].report.time_ns,
        "HiHGNN beats A100"
    );

    // builder validation is typed, not a panic
    let err = SystemBuilder::new().scale(-0.5).build().unwrap_err();
    assert!(matches!(err, GdrError::InvalidConfig { .. }));
}

#[test]
fn restructuring_reduces_na_misses_under_pressure() {
    use gdr::accel::na_engine::NaBufferSim;
    let het = Dataset::Dblp.build_scaled(13, 0.15);
    let g = het
        .all_semantic_graphs()
        .into_iter()
        .max_by_key(|g| g.edge_count())
        .expect("DBLP has relations");
    let r = Restructurer::new().restructure(&g);
    let cap = (r.backbone().len() + 128).max(64);
    let sim = NaBufferSim::new(cap, 8);
    let base = sim.simulate(&g, &EdgeSchedule::dst_major(&g), 0);
    let gdr = sim.simulate(&g, r.schedule(), 0);
    assert!(
        gdr.misses < base.misses,
        "restructured {} >= baseline {}",
        gdr.misses,
        base.misses
    );
}

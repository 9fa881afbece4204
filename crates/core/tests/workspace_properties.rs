//! Reuse-vs-fresh equivalence net over the restructuring workspace.
//!
//! Each case draws a randomized restructurer configuration — matching
//! engine, backbone strategy, recursion depth — from the in-workspace
//! seeded `rand` shim and drives **one long-lived [`Workspace`]**
//! through a sequence of graphs of wildly different sizes (tiny ↔ large
//! interleaved, plus empty and star-shaped degenerates), asserting after
//! every step that the workspace contents are byte-identical to the
//! fresh-allocation path on the same graph:
//!
//! * **matching** — same assignment tables and size;
//! * **backbone** — same membership bitmaps, strategy, fixups;
//! * **partition** — same four class FIFOs;
//! * **subgraphs** — same three edge lists, names, and
//!   `cover_violations`;
//! * **schedule** — same emitted edge order;
//! * **stats** — same decoupling work counters;
//! * **locality** — the pooled LRU scratch produces the same
//!   [`LocalityReport`](gdr_core::locality::LocalityReport) as a fresh
//!   simulation at any capacity.
//!
//! This is what makes the allocating wrappers safe as thin adapters:
//! any divergence between the paths is a correctness bug, not a tuning
//! difference. Since both paths run the same subgraph generation, an
//! oracle net checks that generation itself: each subgraph must equal
//! [`BipartiteGraph::from_pairs`] over the edges of its class.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use gdr_core::backbone::BackboneStrategy;
use gdr_core::restructure::{MatcherKind, Restructurer};
use gdr_core::workspace::Workspace;
use gdr_hetgraph::gen::PowerLawConfig;
use gdr_hetgraph::BipartiteGraph;

/// Seeds per property — matches the serve property net's count; cheap
/// because everything runs on generated graphs.
const SEEDS: u64 = 48;

fn random_restructurer(rng: &mut SmallRng) -> Restructurer {
    let matcher = [
        MatcherKind::Fifo,
        MatcherKind::HopcroftKarp,
        MatcherKind::Greedy,
    ][rng.gen_range(0..3usize)];
    let strategy = [
        BackboneStrategy::Paper,
        BackboneStrategy::KonigExact,
        BackboneStrategy::GreedyDegree,
    ][rng.gen_range(0..3usize)];
    // Recursion reuses the workspace at the top level only, but its
    // schedule must still match the fresh path exactly.
    let depth = rng.gen_range(0..2usize);
    Restructurer::new()
        .matcher(matcher)
        .backbone_strategy(strategy)
        .recursion_depth(depth)
        .min_recurse_edges(32)
}

/// A graph whose size class alternates between steps, so the workspace
/// repeatedly grows, shrinks, and regrows its buffers.
fn random_graph(rng: &mut SmallRng, step: usize) -> BipartiteGraph {
    match step % 4 {
        // large, skewed
        0 => PowerLawConfig::new(
            rng.gen_range(200..400usize),
            rng.gen_range(200..400usize),
            rng.gen_range(1200..2400usize),
        )
        .dst_alpha(rng.gen_range(0.5..1.1))
        .generate("big", rng.gen_range(0..1_000_000u64)),
        // tiny
        1 => PowerLawConfig::new(
            rng.gen_range(2..12usize),
            rng.gen_range(2..12usize),
            rng.gen_range(1..24usize),
        )
        .generate("tiny", rng.gen_range(0..1_000_000u64)),
        // degenerate: edgeless or a star hub
        2 => {
            if rng.gen_bool(0.5) {
                BipartiteGraph::from_pairs("empty", 7, 5, &[]).expect("valid")
            } else {
                let spokes = rng.gen_range(1..40u32);
                let pairs: Vec<(u32, u32)> = (0..spokes).map(|s| (s, 0)).collect();
                BipartiteGraph::from_pairs("star", spokes as usize, 1, &pairs).expect("valid")
            }
        }
        // medium
        _ => PowerLawConfig::new(
            rng.gen_range(40..120usize),
            rng.gen_range(40..120usize),
            rng.gen_range(100..600usize),
        )
        .dst_alpha(rng.gen_range(0.3..1.0))
        .generate("mid", rng.gen_range(0..1_000_000u64)),
    }
}

#[test]
fn reused_workspace_is_byte_identical_to_fresh_restructuring() {
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let r = random_restructurer(&mut rng);
        let mut ws = Workspace::new();
        for step in 0..6 {
            let g = random_graph(&mut rng, step);
            let stats = r.restructure_with(&mut ws, &g);
            let fresh = r.restructure(&g);
            let ctx = format!("seed {seed} step {step} graph {}", g.name());
            assert_eq!(&ws.matching, fresh.matching(), "matching: {ctx}");
            assert_eq!(&ws.backbone, fresh.backbone(), "backbone: {ctx}");
            assert_eq!(&ws.partition, fresh.partition(), "partition: {ctx}");
            assert_eq!(&ws.subgraphs, fresh.subgraphs(), "subgraphs: {ctx}");
            assert_eq!(
                ws.edges.as_slice(),
                fresh.schedule().edges(),
                "schedule: {ctx}"
            );
            assert_eq!(stats, fresh.decoupling_stats(), "stats: {ctx}");
            assert_eq!(ws.subgraphs.cover_violations(), 0, "cover: {ctx}");
            // and the workspace result is a real restructuring
            assert!(ws.backbone.covers_all_edges(&g), "{ctx}");
            assert_eq!(ws.edges.len(), g.edge_count(), "{ctx}");
        }
    }
}

#[test]
fn pooled_lru_scratch_is_byte_identical_to_fresh_simulation() {
    use gdr_core::locality::{try_simulate_lru, try_simulate_lru_with};
    use gdr_core::schedule::EdgeSchedule;

    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(2_000 + seed);
        let mut ws = Workspace::new();
        for step in 0..6 {
            let g = random_graph(&mut rng, step);
            // Alternate natural and restructured orders so the pooled
            // scratch sees both hit-heavy and miss-heavy access streams.
            let schedule = if rng.gen_bool(0.5) {
                EdgeSchedule::dst_major(&g)
            } else {
                random_restructurer(&mut rng)
                    .restructure(&g)
                    .schedule()
                    .clone()
            };
            let capacity = rng.gen_range(1..96usize);
            let pooled =
                try_simulate_lru_with(&mut ws.lru_scratch, &g, &schedule, capacity).unwrap();
            let fresh = try_simulate_lru(&g, &schedule, capacity).unwrap();
            assert_eq!(pooled, fresh, "seed {seed} step {step} cap {capacity}");
        }
    }
}

#[test]
fn granular_into_steps_match_their_allocating_twins() {
    use gdr_core::backbone::Backbone;
    use gdr_core::matching::{
        fifo_matching_into, fifo_matching_with_stats, greedy_matching, greedy_matching_into,
        hopcroft_karp_into, hopcroft_karp_with_stats,
    };
    use gdr_core::recouple::{RestructuredSubgraphs, VertexPartition};
    use gdr_core::schedule::EdgeSchedule;

    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(1_000 + seed);
        let mut ws = Workspace::new();
        for step in 0..3 {
            let g = random_graph(&mut rng, step);
            let ctx = format!("seed {seed} step {step}");

            let stats = fifo_matching_into(&g, &mut ws.matching, &mut ws.match_scratch);
            let (m_fresh, stats_fresh) = fifo_matching_with_stats(&g);
            assert_eq!(ws.matching, m_fresh, "fifo: {ctx}");
            assert_eq!(stats, stats_fresh, "fifo stats: {ctx}");

            let hk_stats = hopcroft_karp_into(&g, &mut ws.matching, &mut ws.match_scratch);
            let (hk_fresh, hk_stats_fresh) = hopcroft_karp_with_stats(&g);
            assert_eq!(ws.matching, hk_fresh, "hk: {ctx}");
            assert_eq!(hk_stats, hk_stats_fresh, "hk stats: {ctx}");

            greedy_matching_into(&g, &mut ws.matching);
            assert_eq!(ws.matching, greedy_matching(&g), "greedy: {ctx}");

            for strategy in [
                BackboneStrategy::Paper,
                BackboneStrategy::KonigExact,
                BackboneStrategy::GreedyDegree,
            ] {
                Backbone::select_into(
                    &g,
                    &ws.matching,
                    strategy,
                    &mut ws.backbone,
                    &mut ws.match_scratch,
                );
                let fresh = Backbone::select(&g, &ws.matching, strategy);
                assert_eq!(ws.backbone, fresh, "{strategy}: {ctx}");
            }

            VertexPartition::from_backbone_into(&g, &ws.backbone, &mut ws.partition);
            assert_eq!(
                ws.partition,
                VertexPartition::from_backbone(&g, &ws.backbone),
                "partition: {ctx}"
            );

            RestructuredSubgraphs::generate_into(
                &g,
                &ws.backbone,
                &mut ws.subgraphs,
                &mut ws.recouple_scratch,
            );
            let fresh = RestructuredSubgraphs::generate(&g, &ws.backbone);
            assert_eq!(ws.subgraphs, fresh, "subgraphs: {ctx}");

            EdgeSchedule::restructured_into(&ws.subgraphs, &mut ws.edges);
            assert_eq!(
                ws.edges.as_slice(),
                EdgeSchedule::restructured(&ws.subgraphs).edges(),
                "schedule: {ctx}"
            );
        }
    }
}

/// The three subgraphs from first principles, in `SubgraphKind::ALL`
/// order: each edge of `g` filed by its endpoints' backbone membership
/// (an edge with neither endpoint inside goes to `in-out`), each class
/// built by `BipartiteGraph::from_pairs` over `g`'s vertex spaces. Also
/// returns the number of such non-cover edges.
fn oracle_subgraphs(
    g: &BipartiteGraph,
    b: &gdr_core::backbone::Backbone,
) -> ([BipartiteGraph; 3], usize) {
    let mut classes: [Vec<(u32, u32)>; 3] = Default::default();
    let mut violations = 0;
    for e in g.iter_edges() {
        let (s, d) = (e.src.raw(), e.dst.raw());
        let class = match (b.src_in(s as usize), b.dst_in(d as usize)) {
            (false, true) => 0,
            (true, true) => 1,
            (true, false) => 2,
            (false, false) => {
                violations += 1;
                2
            }
        };
        classes[class].push((s, d));
    }
    let build = |name: &str, pairs: &[(u32, u32)]| {
        BipartiteGraph::from_pairs(
            format!("{}/{name}", g.name()),
            g.src_count(),
            g.dst_count(),
            pairs,
        )
        .expect("edges of a valid graph")
    };
    let graphs = [
        build("out-in", &classes[0]),
        build("in-in", &classes[1]),
        build("in-out", &classes[2]),
    ];
    (graphs, violations)
}

#[test]
fn generated_subgraphs_equal_from_pairs_over_each_edge_class() {
    use gdr_core::backbone::Backbone;
    use gdr_core::matching::{fifo_matching, greedy_matching, hopcroft_karp};
    use gdr_core::recouple::{RestructuredSubgraphs, SubgraphKind};

    let (mut multi_edges, mut empty, mut stars) = (0, 0, 0);
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(3_000 + seed);
        let mut ws = Workspace::new();
        for step in 0..4 {
            let g = random_graph(&mut rng, step);
            let pairs: Vec<_> = g.out_csr().iter_pairs().collect();
            multi_edges += pairs.windows(2).filter(|w| w[0] == w[1]).count();
            empty += usize::from(g.is_empty());
            stars += usize::from(g.name() == "star");
            let m = [fifo_matching, hopcroft_karp, greedy_matching][rng.gen_range(0..3usize)](&g);
            for strategy in [
                BackboneStrategy::Paper,
                BackboneStrategy::KonigExact,
                BackboneStrategy::GreedyDegree,
            ] {
                let b = Backbone::select(&g, &m, strategy);
                RestructuredSubgraphs::generate_into(
                    &g,
                    &b,
                    &mut ws.subgraphs,
                    &mut ws.recouple_scratch,
                );
                let (expected, violations) = oracle_subgraphs(&g, &b);
                let ctx = format!("seed {seed} step {step} {strategy} graph {}", g.name());
                for (kind, want) in SubgraphKind::ALL.into_iter().zip(&expected) {
                    let got = ws.subgraphs.get(kind);
                    assert_eq!(got.name(), want.name(), "{kind}: {ctx}");
                    assert_eq!(
                        (got.src_count(), got.dst_count()),
                        (want.src_count(), want.dst_count()),
                        "{kind} vertex spaces: {ctx}"
                    );
                    assert_eq!(got.out_csr(), want.out_csr(), "{kind} out CSR: {ctx}");
                    assert_eq!(got.in_csr(), want.in_csr(), "{kind} in CSR: {ctx}");
                    assert_eq!(got, want, "{kind}: {ctx}");
                }
                assert_eq!(ws.subgraphs.cover_violations(), violations, "{ctx}");
            }
        }
    }
    assert!(multi_edges > 0, "the net must cover multi-edges");
    assert!(
        empty > 0 && stars > 0,
        "the net must cover empty and star graphs"
    );
}

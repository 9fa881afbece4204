//! Reuse-vs-fresh equivalence net over the restructuring workspace.
//!
//! Each case draws a randomized restructurer configuration — matching
//! engine, backbone strategy, recursion depth — from the in-workspace
//! seeded `rand` shim and drives **one long-lived [`Workspace`]**
//! through a sequence of graphs of wildly different sizes (tiny ↔ large
//! interleaved, plus empty and star-shaped degenerates), asserting after
//! every step that the workspace contents are byte-identical to a
//! restructuring on a fresh workspace of the same graph:
//!
//! * **matching** — same assignment tables and size;
//! * **backbone** — same membership bitmaps, strategy, fixups;
//! * **schedule** — same emitted edge order;
//! * **stats** — same decoupling work counters;
//! * **partition** and **subgraphs** — rebuilt in the reused workspace by
//!   the stage steps (which `restructure_with` leaves out at depth 0),
//!   same four class FIFOs, three edge lists, names, and
//!   `cover_violations`.
//!
//! Any divergence between a reused and a fresh workspace is a
//! correctness bug, not a tuning difference. The one-shot
//! [`Restructurer::restructure`] runs the same code as
//! [`Restructurer::restructure_with`], so four more nets check the
//! code itself against constructions of their own:
//!
//! * the granular `_into` steps, called one by one, must reproduce
//!   `restructure_with` and `restructure`;
//! * the schedule emitted straight from the backbone must equal the walk
//!   of the generated subgraphs, edge for edge, with the same
//!   cover-violation count;
//! * the recursive schedule must equal a reference recursion with its
//!   own matcher dispatch and its own per-kind walk order;
//! * each generated subgraph must equal
//!   [`BipartiteGraph::from_pairs`] over the edges of its class.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use gdr_core::backbone::{Backbone, BackboneStrategy};
use gdr_core::matching::{
    fifo_matching_into, greedy_matching_into, hopcroft_karp_into, DecouplingStats,
};
use gdr_core::recouple::{RestructuredSubgraphs, SubgraphKind, VertexPartition};
use gdr_core::restructure::{MatcherKind, Restructurer};
use gdr_core::schedule::EdgeSchedule;
use gdr_core::workspace::{RecoupleScratch, Workspace};
use gdr_hetgraph::datasets::Dataset;
use gdr_hetgraph::gen::PowerLawConfig;
use gdr_hetgraph::{BipartiteGraph, Edge};

/// Seeds per property — matches the serve property net's count; cheap
/// because everything runs on generated graphs.
const SEEDS: u64 = 48;

const MATCHERS: [MatcherKind; 3] = [
    MatcherKind::Fifo,
    MatcherKind::HopcroftKarp,
    MatcherKind::Greedy,
];

const STRATEGIES: [BackboneStrategy; 3] = [
    BackboneStrategy::Paper,
    BackboneStrategy::KonigExact,
    BackboneStrategy::GreedyDegree,
];

fn random_restructurer(rng: &mut SmallRng) -> Restructurer {
    let matcher = MATCHERS[rng.gen_range(0..3usize)];
    let strategy = STRATEGIES[rng.gen_range(0..3usize)];
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
            // The partition, and at depth 0 the subgraphs, come from the
            // stage steps; rebuilt in the reused workspace they must
            // equal the fresh ones too.
            VertexPartition::from_backbone_into(&g, &ws.backbone, &mut ws.partition);
            if r.recursion_depth_value() == 0 {
                RestructuredSubgraphs::generate_into(
                    &g,
                    &ws.backbone,
                    &mut ws.subgraphs,
                    &mut ws.recouple_scratch,
                );
            }
            assert_eq!(&ws.partition, fresh.partition(), "partition: {ctx}");
            assert_eq!(&ws.subgraphs, fresh.subgraphs(), "subgraphs: {ctx}");
        }
    }
}

/// Runs `matcher` into `ws.matching` and returns the FIFO engine's work
/// counters (zero for the other engines).
fn match_into(ws: &mut Workspace, matcher: MatcherKind, g: &BipartiteGraph) -> DecouplingStats {
    match matcher {
        MatcherKind::Fifo => fifo_matching_into(g, &mut ws.matching, &mut ws.match_scratch),
        MatcherKind::HopcroftKarp => {
            hopcroft_karp_into(g, &mut ws.matching, &mut ws.match_scratch);
            DecouplingStats::default()
        }
        MatcherKind::Greedy => {
            greedy_matching_into(g, &mut ws.matching);
            DecouplingStats::default()
        }
    }
}

#[test]
fn granular_into_steps_match_restructure_with() {
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(1_000 + seed);
        let mut ws = Workspace::new();
        let mut whole = Workspace::new();
        for step in 0..3 {
            let g = random_graph(&mut rng, step);
            for matcher in MATCHERS {
                for strategy in STRATEGIES {
                    let ctx = format!("seed {seed} step {step} {matcher} {strategy}");
                    let stats = match_into(&mut ws, matcher, &g);
                    Backbone::select_into(
                        &g,
                        &ws.matching,
                        strategy,
                        &mut ws.backbone,
                        &mut ws.match_scratch,
                    );
                    VertexPartition::from_backbone_into(&g, &ws.backbone, &mut ws.partition);
                    RestructuredSubgraphs::generate_into(
                        &g,
                        &ws.backbone,
                        &mut ws.subgraphs,
                        &mut ws.recouple_scratch,
                    );
                    EdgeSchedule::restructured_into(&ws.subgraphs, &mut ws.edges);

                    let r = Restructurer::new()
                        .matcher(matcher)
                        .backbone_strategy(strategy);
                    let want = r.restructure_with(&mut whole, &g);
                    assert_eq!(stats, want, "stats: {ctx}");
                    assert_eq!(ws.matching, whole.matching, "matching: {ctx}");
                    assert_eq!(ws.backbone, whole.backbone, "backbone: {ctx}");
                    assert_eq!(ws.edges, whole.edges, "schedule: {ctx}");
                    assert_eq!(
                        ws.subgraphs.cover_violations(),
                        whole.subgraphs.cover_violations(),
                        "cover: {ctx}"
                    );
                    // `restructure_with` builds no partition or subgraphs
                    // at depth 0; `restructure` does, through these steps.
                    let fresh = r.restructure(&g);
                    assert_eq!(&ws.partition, fresh.partition(), "partition: {ctx}");
                    assert_eq!(&ws.subgraphs, fresh.subgraphs(), "subgraphs: {ctx}");
                }
            }
        }
    }
}

/// Matching, backbone and subgraphs of `g` on a fresh workspace, through
/// this file's own matcher dispatch.
fn reference_split(
    g: &BipartiteGraph,
    matcher: MatcherKind,
    strategy: BackboneStrategy,
) -> Workspace {
    let mut ws = Workspace::new();
    match_into(&mut ws, matcher, g);
    Backbone::select_into(
        g,
        &ws.matching,
        strategy,
        &mut ws.backbone,
        &mut ws.match_scratch,
    );
    RestructuredSubgraphs::generate_into(
        g,
        &ws.backbone,
        &mut ws.subgraphs,
        &mut ws.recouple_scratch,
    );
    ws
}

/// The recursive refinement as first written: a subgraph below
/// `min_edges` edges, or at depth 0, is walked source-major if it is
/// `Src_out × Dst_in` and destination-major otherwise; any other
/// subgraph is split again and its three parts recursed into one level
/// shallower.
fn reference_recurse(
    kind: SubgraphKind,
    sg: &BipartiteGraph,
    depth: usize,
    cfg: (MatcherKind, BackboneStrategy, usize),
    out: &mut Vec<Edge>,
) {
    let (matcher, strategy, min_edges) = cfg;
    if depth == 0 || sg.edge_count() < min_edges {
        if kind == SubgraphKind::OutIn {
            out.extend(sg.iter_edges()); // source-major
        } else {
            for d in 0..sg.dst_count() {
                out.extend(sg.in_neighbors(d).iter().map(|&s| Edge::new(s, d as u32)));
            }
        }
        return;
    }
    let ws = reference_split(sg, matcher, strategy);
    for kind in [SubgraphKind::OutIn, SubgraphKind::InIn, SubgraphKind::InOut] {
        reference_recurse(kind, ws.subgraphs.get(kind), depth - 1, cfg, out);
    }
}

#[test]
fn recursive_schedule_equals_the_reference_recursion() {
    const MIN_EDGES: usize = 32;
    let mut recursed = 0;
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(4_000 + seed);
        let mut ws = Workspace::new();
        for step in 0..4 {
            let g = random_graph(&mut rng, step);
            recursed += usize::from(g.edge_count() >= MIN_EDGES);
            for matcher in MATCHERS {
                for strategy in STRATEGIES {
                    let top = reference_split(&g, matcher, strategy);
                    for depth in [1, 2] {
                        let mut want = Vec::new();
                        for (kind, sg) in top.subgraphs.iter() {
                            let cfg = (matcher, strategy, MIN_EDGES);
                            reference_recurse(kind, sg, depth, cfg, &mut want);
                        }
                        Restructurer::new()
                            .matcher(matcher)
                            .backbone_strategy(strategy)
                            .recursion_depth(depth)
                            .min_recurse_edges(MIN_EDGES)
                            .restructure_with(&mut ws, &g);
                        let ctx = format!(
                            "seed {seed} step {step} {matcher} {strategy} depth {depth} graph {}",
                            g.name()
                        );
                        assert_eq!(ws.edges, want, "{ctx}");
                    }
                }
            }
        }
    }
    assert!(recursed > 0, "the net must recurse somewhere");
}

/// The three subgraphs from first principles, in `SubgraphKind::ALL`
/// order: each edge of `g` filed by its endpoints' backbone membership
/// (an edge with neither endpoint inside goes to `in-out`), each class
/// built by `BipartiteGraph::from_pairs` over `g`'s vertex spaces. Also
/// returns the number of such non-cover edges.
fn oracle_subgraphs(g: &BipartiteGraph, b: &Backbone) -> ([BipartiteGraph; 3], usize) {
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
            match_into(&mut ws, MATCHERS[rng.gen_range(0..3usize)], &g);
            for strategy in STRATEGIES {
                let mut b = Backbone::default();
                Backbone::select_into(&g, &ws.matching, strategy, &mut b, &mut ws.match_scratch);
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

/// The depth-0 schedule as first built: the three subgraphs generated
/// from `b`, then walked in pipeline order. Returns the edges and the
/// cover-violation count.
fn reference_schedule(g: &BipartiteGraph, b: &Backbone) -> (Vec<Edge>, usize) {
    let mut subgraphs = RestructuredSubgraphs::default();
    RestructuredSubgraphs::generate_into(g, b, &mut subgraphs, &mut RecoupleScratch);
    let mut edges = Vec::new();
    EdgeSchedule::restructured_into(&subgraphs, &mut edges);
    (edges, subgraphs.cover_violations())
}

#[test]
fn backbone_emitter_equals_the_subgraph_walk() {
    let mut graphs: Vec<BipartiteGraph> = Dataset::ALL
        .iter()
        .flat_map(|d| d.build_scaled(42, 0.1).all_semantic_graphs())
        .collect();
    let mut rng = SmallRng::seed_from_u64(5_000);
    for step in 0..4 * SEEDS as usize {
        graphs.push(random_graph(&mut rng, step));
    }
    let (mut multi_edges, mut empty, mut stars) = (0, 0, 0);
    let mut ws = Workspace::new();
    for g in &graphs {
        let pairs: Vec<_> = g.out_csr().iter_pairs().collect();
        multi_edges += pairs.windows(2).filter(|w| w[0] == w[1]).count();
        empty += usize::from(g.is_empty());
        stars += usize::from(g.name() == "star");
        for matcher in MATCHERS {
            match_into(&mut ws, matcher, g);
            for strategy in STRATEGIES {
                Backbone::select_into(
                    g,
                    &ws.matching,
                    strategy,
                    &mut ws.backbone,
                    &mut ws.match_scratch,
                );
                let violations = EdgeSchedule::from_backbone_into(g, &ws.backbone, &mut ws.edges);
                let (want, want_violations) = reference_schedule(g, &ws.backbone);
                let ctx = format!("{matcher} {strategy} graph {}", g.name());
                assert_eq!(ws.edges, want, "schedule: {ctx}");
                assert_eq!(violations, want_violations, "cover: {ctx}");
            }
        }
    }
    assert!(multi_edges > 0, "the net must cover multi-edges");
    assert!(
        empty > 0 && stars > 0,
        "the net must cover empty and star graphs"
    );
}

/// Two graphs of one shape, from different seeds.
#[cfg(not(debug_assertions))]
fn same_shape(seed: u64) -> (BipartiteGraph, BipartiteGraph) {
    let shape = |s| {
        PowerLawConfig::new(60, 50, 300)
            .dst_alpha(0.9)
            .generate("g", s)
    };
    (shape(seed), shape(seed + 1_000))
}

/// A backbone selected for another graph of the same shape leaves edges
/// of this one uncovered: the emitter must order and count them as the
/// subgraph walk does. Release only: debug builds assert on a non-cover
/// backbone.
#[cfg(not(debug_assertions))]
#[test]
fn non_cover_backbone_emits_like_the_subgraph_walk() {
    let mut uncovered = 0;
    let mut ws = Workspace::new();
    for seed in 0..SEEDS {
        let (g, other) = same_shape(seed);
        match_into(&mut ws, MatcherKind::HopcroftKarp, &other);
        for strategy in STRATEGIES {
            Backbone::select_into(
                &other,
                &ws.matching,
                strategy,
                &mut ws.backbone,
                &mut ws.match_scratch,
            );
            let violations = EdgeSchedule::from_backbone_into(&g, &ws.backbone, &mut ws.edges);
            let (want, want_violations) = reference_schedule(&g, &ws.backbone);
            assert_eq!(ws.edges, want, "schedule: seed {seed} {strategy}");
            assert_eq!(violations, want_violations, "cover: seed {seed} {strategy}");
            uncovered += violations;
        }
    }
    assert!(uncovered > 0, "test premise: the backbones miss edges");
}

/// At depth 0 `restructure_with` generates no subgraphs, yet
/// `ws.subgraphs.cover_violations()` must still read the count of the
/// graph it just restructured, not one an earlier generation left there.
/// Release only, like the test above.
#[cfg(not(debug_assertions))]
#[test]
fn restructure_with_replaces_a_stale_cover_violation_count() {
    let (g, other) = same_shape(1);
    let r = Restructurer::new();
    let mut ws = Workspace::new();
    r.restructure_with(&mut ws, &other);
    RestructuredSubgraphs::generate_into(
        &g,
        &ws.backbone,
        &mut ws.subgraphs,
        &mut ws.recouple_scratch,
    );
    assert!(
        ws.subgraphs.cover_violations() > 0,
        "test premise: a nonzero count is left over"
    );
    r.restructure_with(&mut ws, &g);
    assert_eq!(ws.subgraphs.cover_violations(), 0);
}

//! Property-based tests over the core invariants, on arbitrary random
//! bipartite graphs (not just the paper's datasets).
//!
//! The build environment cannot fetch `proptest`, so these are hand-rolled
//! property loops: each case derives graph dimensions, edge count, alpha
//! and generator seed from a deterministic per-case seed, giving the same
//! breadth of inputs (empty graphs, duplicates, skewed degrees) with
//! reproducible failures — the panic message names the failing case.

use gdr::accel::na_engine::NaBufferSim;
use gdr::core::backbone::BackboneStrategy;
use gdr::core::restructure::{MatcherKind, Restructured, Restructurer};
use gdr::core::schedule::EdgeSchedule;
use gdr::hetgraph::gen::PowerLawConfig;
use gdr::hetgraph::BipartiteGraph;
use gdr::memsim::buffer::Replacement;
use gdr::prelude::{FrontendConfig, Session};

const CASES: u64 = 64;

/// Deterministic case expansion (SplitMix64), so every case is
/// reproducible from its index alone.
fn mix(case: u64, salt: u64) -> u64 {
    let mut z = case
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random bipartite graph with up to 60×60 vertices and up to 400 edges
/// (possibly empty, possibly with duplicates).
fn arb_graph(case: u64) -> BipartiteGraph {
    let ns = 1 + (mix(case, 1) % 59) as usize;
    let nd = 1 + (mix(case, 2) % 59) as usize;
    let ne = (mix(case, 3) % 400) as usize;
    let alpha = (mix(case, 4) % 20) as f64 / 10.0;
    let seed = mix(case, 5);
    PowerLawConfig::new(ns, nd, ne)
        .dst_alpha(alpha)
        .generate("prop", seed)
}

/// A fully associative LRU buffer of `cap` feature vectors: the NA
/// engine's buffer model with one set of `cap` ways.
fn lru(cap: usize) -> NaBufferSim {
    NaBufferSim::new(cap, cap).with_policy(Replacement::Lru)
}

/// Restructures `g` with the given matcher and backbone strategy.
fn restructure(g: &BipartiteGraph, matcher: MatcherKind, strat: BackboneStrategy) -> Restructured {
    Restructurer::new()
        .matcher(matcher)
        .backbone_strategy(strat)
        .restructure(g)
}

#[test]
fn fifo_matching_is_maximum() {
    for case in 0..CASES {
        let g = arb_graph(case);
        let oracle = restructure(&g, MatcherKind::HopcroftKarp, BackboneStrategy::Paper);
        let fifo = restructure(&g, MatcherKind::Fifo, BackboneStrategy::Paper);
        let (oracle, fifo) = (oracle.matching(), fifo.matching());
        assert!(oracle.is_valid(&g), "case {case}");
        assert!(fifo.is_valid(&g), "case {case}");
        assert_eq!(fifo.size(), oracle.size(), "case {case}");
    }
}

#[test]
fn greedy_matching_is_half_approximate() {
    for case in 0..CASES {
        let g = arb_graph(case);
        let oracle = restructure(&g, MatcherKind::HopcroftKarp, BackboneStrategy::Paper);
        let greedy = restructure(&g, MatcherKind::Greedy, BackboneStrategy::Paper);
        let (oracle, greedy) = (oracle.matching(), greedy.matching());
        assert!(greedy.is_valid(&g), "case {case}");
        assert!(greedy.is_maximal(&g), "case {case}");
        assert!(2 * greedy.size() >= oracle.size(), "case {case}");
    }
}

#[test]
fn konig_cover_size_equals_maximum_matching() {
    for case in 0..CASES {
        let g = arb_graph(case);
        let r = restructure(&g, MatcherKind::HopcroftKarp, BackboneStrategy::KonigExact);
        assert!(r.backbone().covers_all_edges(&g), "case {case}");
        assert_eq!(r.backbone().len(), r.matching().size(), "case {case}");
    }
}

#[test]
fn every_backbone_strategy_is_a_vertex_cover() {
    for case in 0..CASES {
        let g = arb_graph(case);
        for strat in [
            BackboneStrategy::Paper,
            BackboneStrategy::KonigExact,
            BackboneStrategy::GreedyDegree,
        ] {
            let b = restructure(&g, MatcherKind::HopcroftKarp, strat);
            let b = b.backbone();
            assert!(b.covers_all_edges(&g), "case {case}, strategy {strat}");
        }
    }
}

#[test]
fn subgraphs_partition_the_edge_multiset() {
    for case in 0..CASES {
        let g = arb_graph(case);
        let r = restructure(&g, MatcherKind::HopcroftKarp, BackboneStrategy::Paper);
        let r = r.subgraphs();
        assert_eq!(r.total_edges(), g.edge_count(), "case {case}");
        let mut got: Vec<(u32, u32)> = r
            .iter()
            .flat_map(|(_, sg)| sg.iter_edges().map(|e| (e.src.raw(), e.dst.raw())))
            .collect();
        let mut want: Vec<(u32, u32)> =
            g.iter_edges().map(|e| (e.src.raw(), e.dst.raw())).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "case {case}");
    }
}

#[test]
fn all_schedules_are_permutations() {
    for case in 0..CASES {
        let g = arb_graph(case);
        let seed = mix(case, 99);
        let r = Restructurer::new().restructure(&g);
        for sched in [
            EdgeSchedule::dst_major(&g),
            EdgeSchedule::random(&g, seed),
            EdgeSchedule::islandized(&g),
            r.schedule().clone(),
        ] {
            assert!(sched.is_permutation_of(&g), "case {case}: {}", sched.name());
        }
    }
}

#[test]
fn lru_misses_bounded_and_monotone() {
    for case in 0..CASES {
        let g = arb_graph(case);
        let cap = 1 + (mix(case, 7) % 63) as usize;
        let sched = EdgeSchedule::dst_major(&g);
        let small = lru(cap).simulate(&g, &sched, 0);
        let big = lru(cap * 2).simulate(&g, &sched, 0);
        // stack property of LRU
        assert!(big.misses <= small.misses, "case {case}");
        // bounds: compulsory <= misses <= accesses
        let compulsory = (0..g.src_count()).filter(|&s| g.out_degree(s) > 0).count()
            + (0..g.dst_count()).filter(|&d| g.in_degree(d) > 0).count();
        assert!(small.misses >= compulsory as u64, "case {case}");
        assert!(small.misses <= small.accesses, "case {case}");
    }
}

#[test]
fn recursion_improves_small_buffer_locality() {
    // With skew on the destination side only, depth 2 emits the depth-0
    // order unchanged; skew on both sides gives the recursion work.
    let g = PowerLawConfig::new(600, 600, 4800)
        .src_alpha(0.9)
        .dst_alpha(0.9)
        .generate("g", 4);
    let konig = Restructurer::new().backbone_strategy(BackboneStrategy::KonigExact);
    let flat = konig.restructure(&g);
    let deep = konig.recursion_depth(2).restructure(&g);
    assert_ne!(
        flat.schedule().edges(),
        deep.schedule().edges(),
        "depth 2 left the schedule unchanged"
    );
    let m_flat = lru(48).simulate(&g, flat.schedule(), 0).misses;
    let m_deep = lru(48).simulate(&g, deep.schedule(), 0).misses;
    // Recursion targets smaller buffers; it must not be much worse and
    // should typically help.
    assert!(
        (m_deep as f64) <= m_flat as f64 * 1.10,
        "recursive {m_deep} vs flat {m_flat}"
    );
}

#[test]
fn all_matchers_produce_covering_restructurings() {
    for case in 0..CASES {
        let g = arb_graph(case);
        for matcher in [
            MatcherKind::Fifo,
            MatcherKind::HopcroftKarp,
            MatcherKind::Greedy,
        ] {
            let r = Restructurer::new().matcher(matcher).restructure(&g);
            assert!(r.backbone().covers_all_edges(&g), "case {case}, {matcher}");
            assert!(r.schedule().is_permutation_of(&g), "case {case}, {matcher}");
        }
    }
}

#[test]
fn session_streaming_equals_batch_graph_for_graph() {
    // The streaming Session API must be a pure re-packaging of the batch
    // run: same results, same order, on arbitrary graph sets —
    // sequential or parallel.
    for case in 0..CASES / 4 {
        let graphs: Vec<BipartiteGraph> = (0..(mix(case, 10) % 5))
            .map(|i| arb_graph(mix(case, 11 + i)))
            .collect();
        let session = Session::new(FrontendConfig::default(), &graphs);
        let batch = session.process();

        let streamed: Vec<_> = session.iter().collect();
        let parallel = session.par_process_with(4);
        assert_eq!(streamed.len(), batch.per_graph().len(), "case {case}");
        assert_eq!(
            parallel.per_graph().len(),
            batch.per_graph().len(),
            "case {case}"
        );
        for (i, b) in batch.per_graph().iter().enumerate() {
            for s in [&streamed[i], &parallel.per_graph()[i]] {
                assert_eq!(b.schedule, s.schedule, "case {case}, graph {i}");
                assert_eq!(b.cycles, s.cycles, "case {case}, graph {i}");
                assert_eq!(b.matching_size, s.matching_size, "case {case}, graph {i}");
                assert_eq!(b.backbone_size, s.backbone_size, "case {case}, graph {i}");
                assert_eq!(b.requests, s.requests, "case {case}, graph {i}");
            }
        }
        // aggregates agree too
        assert_eq!(batch.total_cycles(), parallel.total_cycles(), "case {case}");
        assert_eq!(batch.total_bytes(), parallel.total_bytes(), "case {case}");
    }
}

#[test]
fn recursion_preserves_the_permutation_property() {
    for case in 0..CASES {
        let g = arb_graph(case);
        let depth = (mix(case, 8) % 3) as usize;
        let r = Restructurer::new()
            .recursion_depth(depth)
            .min_recurse_edges(16)
            .restructure(&g);
        assert!(
            r.schedule().is_permutation_of(&g),
            "case {case}, depth {depth}"
        );
    }
}

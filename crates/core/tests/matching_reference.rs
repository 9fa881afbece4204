//! Reference-model net for graph decoupling and Algorithm 2.
//!
//! [`hopcroft_karp_into`] opens with a greedy pass, keeps a list of the
//! free sources, skips the final BFS once a side is saturated and runs an
//! iterative augmenting DFS; the paper heuristic of
//! [`Backbone::select_into`] reads only the rows of unmatched vertices,
//! and its greedy-degree baseline picks from a lazy heap. Each must
//! produce exactly what the plain constructions below produce:
//!
//! * [`reference_hopcroft_karp`] — every phase a full BFS seeded from all
//!   free sources, then a recursive DFS from each of them, until a BFS
//!   finds no free destination or a DFS phase augments nothing;
//! * [`reference_paper_backbone`] — Algorithm 2 as printed, one scan of
//!   every source row and every destination row, then a totality fixup
//!   over every edge;
//! * [`reference_greedy_backbone`] — the greedy max-degree cover as a
//!   scan of every vertex per pick.
//!
//! The matching and its DFS step count must be equal. The engine may run
//! one phase fewer, the final BFS it skips, and so probe no more edges.
//! The paper backbone must be equal under maximum, maximal, empty and
//! partial matchings alike; the greedy one ignores the matching.

use std::cmp::Reverse;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use gdr_core::backbone::{Backbone, BackboneStrategy};
use gdr_core::matching::{
    fifo_matching_into, greedy_matching_into, hopcroft_karp_into, Matching, PhaseStats,
};
use gdr_core::workspace::MatchScratch;
use gdr_hetgraph::datasets::Dataset;
use gdr_hetgraph::gen::PowerLawConfig;
use gdr_hetgraph::BipartiteGraph;

/// Seeds of random graphs, as in the workspace property net.
const SEEDS: u64 = 48;

/// Hopcroft-Karp before its greedy pass, free list, saturation exit and
/// iterative DFS.
fn reference_hopcroft_karp(g: &BipartiteGraph) -> (Matching, PhaseStats) {
    const INF: u32 = u32::MAX;
    fn dfs(
        u: u32,
        g: &BipartiteGraph,
        m: &mut Matching,
        dist: &mut [u32],
        steps: &mut usize,
    ) -> bool {
        for &v in g.out_neighbors(u as usize) {
            *steps += 1;
            let ok = match m.match_of_dst(v as usize) {
                None => true,
                Some(w) => dist[w as usize] == dist[u as usize] + 1 && dfs(w, g, m, dist, steps),
            };
            if ok {
                m.link(u, v);
                dist[u as usize] = INF;
                return true;
            }
        }
        dist[u as usize] = INF;
        false
    }

    let n_src = g.src_count();
    let mut m = Matching::empty(n_src, g.dst_count());
    let mut stats = PhaseStats::default();
    let mut dist = vec![INF; n_src];
    let mut queue = std::collections::VecDeque::new();
    loop {
        stats.phases += 1;
        queue.clear();
        let mut found_free_dst = false;
        for (s, slot) in dist.iter_mut().enumerate() {
            if !m.src_matched(s) {
                *slot = 0;
                queue.push_back(s as u32);
            } else {
                *slot = INF;
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in g.out_neighbors(u as usize) {
                stats.bfs_probes += 1;
                match m.match_of_dst(v as usize) {
                    None => found_free_dst = true,
                    Some(w) => {
                        if dist[w as usize] == INF {
                            dist[w as usize] = dist[u as usize] + 1;
                            queue.push_back(w);
                        }
                    }
                }
            }
        }
        if !found_free_dst {
            break;
        }
        let mut augmented = false;
        for s in 0..n_src as u32 {
            if !m.src_matched(s as usize)
                && dist[s as usize] == 0
                && dfs(s, g, &mut m, &mut dist, &mut stats.dfs_steps)
            {
                augmented = true;
            }
        }
        if !augmented {
            break;
        }
    }
    (m, stats)
}

/// Algorithm 2 as printed, plus the fixup over every edge: the source
/// bitmap, the destination bitmap and the number of fixup promotions.
fn reference_paper_backbone(g: &BipartiteGraph, m: &Matching) -> (Vec<bool>, Vec<bool>, usize) {
    let mut src_in: Vec<bool> = (0..g.src_count())
        .map(|s| {
            m.src_matched(s)
                && g.out_neighbors(s)
                    .iter()
                    .any(|&d| !m.dst_matched(d as usize))
        })
        .collect();
    let dst_in: Vec<bool> = (0..g.dst_count())
        .map(|d| {
            m.dst_matched(d)
                && g.in_neighbors(d)
                    .iter()
                    .any(|&s| !m.src_matched(s as usize))
        })
        .collect();
    let mut promotions = 0;
    for e in g.iter_edges() {
        if !src_in[e.src.index()] && !dst_in[e.dst.index()] {
            src_in[e.src.index()] = true;
            promotions += 1;
        }
    }
    (src_in, dst_in, promotions)
}

/// The greedy max-degree cover as a scan: each pick rescans every vertex
/// for the most uncovered edges, ties to the source side, then to the
/// lowest id. The source bitmap and the destination bitmap.
fn reference_greedy_backbone(g: &BipartiteGraph) -> (Vec<bool>, Vec<bool>) {
    let mut src_in = vec![false; g.src_count()];
    let mut dst_in = vec![false; g.dst_count()];
    let mut src_deg: Vec<usize> = (0..g.src_count()).map(|s| g.out_degree(s)).collect();
    let mut dst_deg: Vec<usize> = (0..g.dst_count()).map(|d| g.in_degree(d)).collect();
    let edges: Vec<_> = g.iter_edges().collect();
    let mut edge_ids_by_src: Vec<Vec<usize>> = vec![Vec::new(); g.src_count()];
    let mut edge_ids_by_dst: Vec<Vec<usize>> = vec![Vec::new(); g.dst_count()];
    for (i, e) in edges.iter().enumerate() {
        edge_ids_by_src[e.src.index()].push(i);
        edge_ids_by_dst[e.dst.index()].push(i);
    }
    let mut covered = vec![false; edges.len()];
    let mut remaining = edges.len();
    let best = |deg: &[usize]| {
        deg.iter()
            .enumerate()
            .max_by_key(|&(i, &d)| (d, Reverse(i)))
            .map_or((0, 0), |(i, &d)| (i, d))
    };
    while remaining > 0 {
        let ((si, sd), (di, dd)) = (best(&src_deg), best(&dst_deg));
        let ids = if sd >= dd {
            src_in[si] = true;
            std::mem::take(&mut edge_ids_by_src[si])
        } else {
            dst_in[di] = true;
            std::mem::take(&mut edge_ids_by_dst[di])
        };
        for i in ids {
            if !std::mem::replace(&mut covered[i], true) {
                remaining -= 1;
                src_deg[edges[i].src.index()] -= 1;
                dst_deg[edges[i].dst.index()] -= 1;
            }
        }
    }
    (src_in, dst_in)
}

/// A power-law graph with multi-edges (no dedup) and, at these edge
/// densities and skews, isolated vertices on both sides.
fn random_graph(rng: &mut SmallRng, seed: u64) -> BipartiteGraph {
    let n_src = rng.gen_range(1..160usize);
    let n_dst = rng.gen_range(1..160usize);
    let edges = rng.gen_range(0..3 * n_src.max(n_dst));
    PowerLawConfig::new(n_src, n_dst, edges)
        .src_alpha(rng.gen_range(0.0..1.3))
        .dst_alpha(rng.gen_range(0.0..1.3))
        .generate("random", seed)
}

/// `s_i → {d_i, d_{i+1}}` for `i < n` and `s_n → {d_0}`: greedy strands
/// `s_n`, and the one augmenting path runs through every source.
fn chain(n: u32) -> BipartiteGraph {
    let mut pairs: Vec<(u32, u32)> = (0..n).flat_map(|i| [(i, i), (i, i + 1)]).collect();
    pairs.push((n, 0));
    BipartiteGraph::from_pairs("chain", n as usize + 1, n as usize + 1, &pairs).expect("valid")
}

fn complete(n: u32) -> BipartiteGraph {
    let pairs: Vec<(u32, u32)> = (0..n).flat_map(|s| (0..n).map(move |d| (s, d))).collect();
    BipartiteGraph::from_pairs("complete", n as usize, n as usize, &pairs).expect("valid")
}

/// Every source into destination 0, or source 0 into every destination.
fn star(spokes: u32, into_hub: bool) -> BipartiteGraph {
    let (n_src, n_dst, pairs): (usize, usize, Vec<(u32, u32)>) = if into_hub {
        (spokes as usize, 1, (0..spokes).map(|s| (s, 0)).collect())
    } else {
        (1, spokes as usize, (0..spokes).map(|d| (0, d)).collect())
    };
    BipartiteGraph::from_pairs("star", n_src, n_dst, &pairs).expect("valid")
}

/// The fixed shapes, the random graphs, and every semantic graph of the
/// three datasets at scale 0.1 for dataset seeds 42 and 7.
fn corpus() -> Vec<BipartiteGraph> {
    let mut graphs = vec![
        BipartiteGraph::from_pairs("empty", 0, 0, &[]).expect("valid"),
        BipartiteGraph::from_pairs("edgeless", 5, 3, &[]).expect("valid"),
        star(9, true),
        star(9, false),
        complete(1),
        complete(6),
        chain(1),
        chain(12),
    ];
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(0x4B_0000 + seed);
        graphs.push(random_graph(&mut rng, seed));
    }
    for dataset_seed in [42, 7] {
        for d in Dataset::ALL {
            graphs.extend(d.build_scaled(dataset_seed, 0.1).all_semantic_graphs());
        }
    }
    graphs
}

/// Greedy's pairs at even positions in source order: a matching that is
/// neither maximum nor maximal.
fn half_of_greedy(g: &BipartiteGraph, greedy: &Matching) -> Matching {
    let mut m = Matching::empty(g.src_count(), g.dst_count());
    for (s, d) in greedy.pairs().into_iter().step_by(2) {
        m.link(s, d);
    }
    m
}

#[test]
fn hopcroft_karp_equals_the_recursive_reference() {
    let mut m = Matching::default();
    let mut scratch = MatchScratch::default();
    let mut skipped_final_bfs = 0;
    for g in corpus() {
        let ctx = format!("{} ({} edges)", g.name(), g.edge_count());
        let stats = hopcroft_karp_into(&g, &mut m, &mut scratch);
        let (want, want_stats) = reference_hopcroft_karp(&g);
        assert_eq!(m, want, "matching: {ctx}");
        assert_eq!(stats.dfs_steps, want_stats.dfs_steps, "dfs_steps: {ctx}");
        if stats.phases == want_stats.phases {
            assert_eq!(stats.bfs_probes, want_stats.bfs_probes, "bfs_probes: {ctx}");
        } else {
            assert_eq!(stats.phases + 1, want_stats.phases, "phases: {ctx}");
            assert!(
                stats.bfs_probes <= want_stats.bfs_probes,
                "bfs_probes: {ctx}"
            );
            skipped_final_bfs += 1;
        }
    }
    assert!(
        skipped_final_bfs > 0,
        "the saturation exit must fire somewhere"
    );
}

#[test]
fn paper_backbone_equals_the_three_pass_reference() {
    let mut scratch = MatchScratch::default();
    let (mut hk, mut fifo, mut greedy) = Default::default();
    let mut b = Backbone::default();
    let mut promoted = 0;
    for g in corpus() {
        hopcroft_karp_into(&g, &mut hk, &mut scratch);
        fifo_matching_into(&g, &mut fifo, &mut scratch);
        greedy_matching_into(&g, &mut greedy);
        let matchings = [
            ("hopcroft-karp", &hk),
            ("fifo", &fifo),
            ("greedy", &greedy),
            ("empty", &Matching::empty(g.src_count(), g.dst_count())),
            ("half-greedy", &half_of_greedy(&g, &greedy)),
        ];
        for (name, m) in matchings {
            let ctx = format!("{} ({} edges) under {name}", g.name(), g.edge_count());
            Backbone::select_into(&g, m, BackboneStrategy::Paper, &mut b, &mut scratch);
            let (src_in, dst_in, promotions) = reference_paper_backbone(&g, m);
            assert_eq!(b.src_bitmap(), src_in.as_slice(), "sources: {ctx}");
            assert_eq!(b.dst_bitmap(), dst_in.as_slice(), "destinations: {ctx}");
            assert_eq!(b.fixup_promotions(), promotions, "fixup: {ctx}");
            assert_eq!(b.strategy(), BackboneStrategy::Paper, "{ctx}");
            promoted += promotions;
        }
    }
    assert!(promoted > 0, "the fixup must fire somewhere");
}

#[test]
fn greedy_degree_backbone_equals_the_scan_reference() {
    let mut scratch = MatchScratch::default();
    let mut b = Backbone::default();
    for g in corpus() {
        let ctx = format!("{} ({} edges)", g.name(), g.edge_count());
        let m = Matching::empty(g.src_count(), g.dst_count());
        Backbone::select_into(&g, &m, BackboneStrategy::GreedyDegree, &mut b, &mut scratch);
        let (src_in, dst_in) = reference_greedy_backbone(&g);
        assert_eq!(b.src_bitmap(), src_in.as_slice(), "sources: {ctx}");
        assert_eq!(b.dst_bitmap(), dst_in.as_slice(), "destinations: {ctx}");
        assert_eq!(b.fixup_promotions(), 0, "{ctx}");
        assert_eq!(b.strategy(), BackboneStrategy::GreedyDegree, "{ctx}");
        assert!(b.covers_all_edges(&g), "{ctx}");
    }
}

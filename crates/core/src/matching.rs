//! Maximum bipartite matching engines (graph decoupling, paper §4.2).
//!
//! Graph decoupling "separates the original semantic graph into a set of
//! edges that do not share common vertices" — a maximum matching. Three
//! engines are provided:
//!
//! * [`fifo_matching`] — the paper's Algorithm 1: a FIFO-driven
//!   breadth-first augmenting search, the algorithm the Decoupler hardware
//!   executes (inspired by the Hungarian method).
//! * [`hopcroft_karp`] — the classic `O(E·√V)` phase algorithm, the
//!   default engine of
//!   [`Restructurer::new`](crate::restructure::Restructurer::new), so
//!   replay and serving run it. Its first phase is a greedy pass;
//!   [`augment`], its augmenting DFS, is shared with the Decoupler
//!   hardware model.
//! * [`greedy_matching`] — one-pass maximal (not maximum) matching, the
//!   quality baseline for ablations.

use gdr_hetgraph::BipartiteGraph;

use crate::workspace::MatchScratch;

/// A matching over a bipartite semantic graph.
///
/// Invariant: `pair_src[s] == Some(d)` iff `pair_dst[d] == Some(s)`.
///
/// # Examples
///
/// ```
/// use gdr_hetgraph::BipartiteGraph;
/// use gdr_core::matching::hopcroft_karp;
/// let g = BipartiteGraph::from_pairs("g", 2, 2, &[(0, 0), (0, 1), (1, 0)])?;
/// let m = hopcroft_karp(&g);
/// assert_eq!(m.size(), 2);
/// assert!(m.is_valid(&g));
/// # Ok::<(), gdr_hetgraph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Matching {
    pair_src: Vec<Option<u32>>,
    pair_dst: Vec<Option<u32>>,
    size: usize,
}

impl Matching {
    /// Creates an empty matching over `src_count` sources and `dst_count`
    /// destinations.
    pub fn empty(src_count: usize, dst_count: usize) -> Self {
        Self {
            pair_src: vec![None; src_count],
            pair_dst: vec![None; dst_count],
            size: 0,
        }
    }

    /// Resets to an empty matching over new vertex counts, reusing the
    /// assignment-table storage — the workspace path of
    /// [`Matching::empty`]. Equivalent to `*self = Matching::empty(..)`
    /// without the allocation.
    pub fn reset(&mut self, src_count: usize, dst_count: usize) {
        self.pair_src.clear();
        self.pair_src.resize(src_count, None);
        self.pair_dst.clear();
        self.pair_dst.resize(dst_count, None);
        self.size = 0;
    }

    /// Number of matched pairs.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The destination matched to source `s`, if any.
    pub fn match_of_src(&self, s: usize) -> Option<u32> {
        self.pair_src[s]
    }

    /// The source matched to destination `d`, if any.
    pub fn match_of_dst(&self, d: usize) -> Option<u32> {
        self.pair_dst[d]
    }

    /// Whether source `s` is matched.
    pub fn src_matched(&self, s: usize) -> bool {
        self.pair_src[s].is_some()
    }

    /// Whether destination `d` is matched.
    pub fn dst_matched(&self, d: usize) -> bool {
        self.pair_dst[d].is_some()
    }

    /// Source-side assignment table (`pair_src[s]` = matched destination).
    pub fn pair_src(&self) -> &[Option<u32>] {
        &self.pair_src
    }

    /// Destination-side assignment table.
    pub fn pair_dst(&self) -> &[Option<u32>] {
        &self.pair_dst
    }

    /// Matched `(src, dst)` pairs in ascending source order.
    pub fn pairs(&self) -> Vec<(u32, u32)> {
        self.pair_src
            .iter()
            .enumerate()
            .filter_map(|(s, d)| d.map(|d| (s as u32, d)))
            .collect()
    }

    /// Records the pair `(s, d)`, unlinking any previous partners.
    pub fn link(&mut self, s: u32, d: u32) {
        if let Some(old_d) = self.pair_src[s as usize] {
            self.pair_dst[old_d as usize] = None;
            self.size -= 1;
        }
        if let Some(old_s) = self.pair_dst[d as usize] {
            self.pair_src[old_s as usize] = None;
            self.size -= 1;
        }
        self.pair_src[s as usize] = Some(d);
        self.pair_dst[d as usize] = Some(s);
        self.size += 1;
    }

    /// Checks the structural invariants against a graph: symmetry, and
    /// every matched pair is an actual edge.
    pub fn is_valid(&self, g: &BipartiteGraph) -> bool {
        if self.pair_src.len() != g.src_count() || self.pair_dst.len() != g.dst_count() {
            return false;
        }
        let mut count = 0;
        for (s, d) in self.pair_src.iter().enumerate() {
            if let Some(d) = *d {
                if self.pair_dst[d as usize] != Some(s as u32) {
                    return false;
                }
                if !g.out_csr().contains(s as u32, d) {
                    return false;
                }
                count += 1;
            }
        }
        for (d, s) in self.pair_dst.iter().enumerate() {
            if let Some(s) = *s {
                if self.pair_src[s as usize] != Some(d as u32) {
                    return false;
                }
            }
        }
        count == self.size
    }

    /// Checks maximality: no edge has both endpoints unmatched.
    pub fn is_maximal(&self, g: &BipartiteGraph) -> bool {
        g.iter_edges()
            .all(|e| self.src_matched(e.src.index()) || self.dst_matched(e.dst.index()))
    }
}

/// One-pass greedy maximal matching: scan edges source-major and link the
/// first free pair seen. Maximal but in general only a 1/2-approximation
/// of maximum. Baseline for the decoupling-quality ablation.
pub fn greedy_matching(g: &BipartiteGraph) -> Matching {
    let mut m = Matching::default();
    greedy_matching_into(g, &mut m);
    m
}

/// Workspace variant of [`greedy_matching`]: the matching is rebuilt in
/// `out`, reusing its assignment-table storage.
pub fn greedy_matching_into(g: &BipartiteGraph, out: &mut Matching) {
    out.reset(g.src_count(), g.dst_count());
    for s in 0..g.src_count() {
        if out.src_matched(s) {
            continue;
        }
        for &d in g.out_neighbors(s) {
            if !out.dst_matched(d as usize) {
                out.link(s as u32, d);
                break;
            }
        }
    }
}

/// The paper's Algorithm 1: FIFO-driven augmenting search.
///
/// For each unmatched source the engine runs a breadth-first alternating
/// search through a `Search_List` FIFO; when an unmatched destination is
/// found the path is augmented by walking parent pointers (the hardware
/// realizes these as per-destination `Matching_FIFO`s, see
/// `gdr-frontend`). Every augmentation grows the matching by one, and BFS
/// finds an augmenting path whenever one exists, so the result is a
/// **maximum** matching (property-tested against [`hopcroft_karp`]).
///
/// Returns the matching together with the number of vertex-expansion steps
/// performed (the work measure the Decoupler's cycle model consumes).
pub fn fifo_matching_with_stats(g: &BipartiteGraph) -> (Matching, DecouplingStats) {
    let mut m = Matching::default();
    let mut scratch = MatchScratch::default();
    let stats = fifo_matching_into(g, &mut m, &mut scratch);
    (m, stats)
}

/// Workspace variant of [`fifo_matching_with_stats`]: the matching is
/// rebuilt in `out` and every FIFO/bitmap comes from `scratch`, so a
/// caller looping over graphs performs no heap allocation once the
/// buffers have grown to the largest graph seen. Results are identical
/// to the allocating path.
pub fn fifo_matching_into(
    g: &BipartiteGraph,
    out: &mut Matching,
    scratch: &mut MatchScratch,
) -> DecouplingStats {
    let n_src = g.src_count();
    let n_dst = g.dst_count();
    out.reset(n_src, n_dst);
    let m = out;
    let mut stats = DecouplingStats::default();

    // Per-destination "parent" source of the current BFS tree, i.e. the
    // content of Matching_FIFO[v] in hardware.
    let MatchScratch {
        parent_of_dst,
        visited_dst,
        search_list,
        ..
    } = scratch;
    parent_of_dst.clear();
    parent_of_dst.resize(n_dst, u32::MAX);
    visited_dst.clear();
    visited_dst.resize(n_dst, u32::MAX); // epoch-tagged Visited Bm.

    for root in 0..n_src as u32 {
        if m.src_matched(root as usize) || g.out_degree(root as usize) == 0 {
            continue;
        }
        stats.searches += 1;
        search_list.clear();
        search_list.push_back(root);
        let epoch = root;

        'bfs: while let Some(u) = search_list.pop_front() {
            stats.expansions += 1;
            for &v in g.out_neighbors(u as usize) {
                stats.edge_probes += 1;
                if visited_dst[v as usize] == epoch {
                    continue; // line 9-11: v already visited this epoch
                }
                visited_dst[v as usize] = epoch;
                parent_of_dst[v as usize] = u; // line 12: push u to Matching_FIFO[v]
                if !m.dst_matched(v as usize) {
                    // lines 13-19: augment along parent pointers
                    let mut d = v;
                    loop {
                        let s = parent_of_dst[d as usize];
                        let prev = m.match_of_src(s as usize);
                        m.link(s, d);
                        stats.augment_steps += 1;
                        match prev {
                            Some(pd) => d = pd,
                            None => break,
                        }
                    }
                    break 'bfs;
                } else {
                    // lines 22-26: enqueue the source currently matched to v
                    let owner = m.match_of_dst(v as usize).expect("checked matched");
                    search_list.push_back(owner);
                }
            }
        }
    }
    stats
}

/// Convenience wrapper over [`fifo_matching_with_stats`] discarding stats.
pub fn fifo_matching(g: &BipartiteGraph) -> Matching {
    fifo_matching_with_stats(g).0
}

/// Work counters of one decoupling run, consumed by the Decoupler cycle
/// model and by EXPERIMENTS.md's complexity validation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecouplingStats {
    /// Augmenting searches started (one per initially-unmatched source).
    pub searches: usize,
    /// Vertices popped from the Search_List FIFO.
    pub expansions: usize,
    /// Edges probed during expansion.
    pub edge_probes: usize,
    /// Parent-pointer augmentation steps.
    pub augment_steps: usize,
}

/// Work counters of a Hopcroft-Karp run ([`hopcroft_karp_with_stats`]),
/// read by tests only.
///
/// Phase 1 is the greedy pass: with every source free at layer 0, the
/// first BFS would probe each edge once and the first DFS would never
/// descend, so the pass is credited with one BFS probe per edge and one
/// DFS step per edge it scans. Later phases count their probes and steps
/// as they run. The final BFS, which could only prove the matching
/// maximum, is skipped when a side is already saturated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// BFS/DFS phases executed, the greedy pass included.
    pub phases: usize,
    /// Edge probes across all BFS sweeps.
    pub bfs_probes: usize,
    /// DFS augmentation steps.
    pub dfs_steps: usize,
}

/// Layer of a source that is not on any BFS layer (or has left the
/// current phase's DFS).
const INF: u32 = u32::MAX;

/// Hopcroft-Karp maximum matching (`O(E·√V)`), the default engine of
/// [`Restructurer::new`](crate::restructure::Restructurer::new).
pub fn hopcroft_karp(g: &BipartiteGraph) -> Matching {
    hopcroft_karp_with_stats(g).0
}

/// [`hopcroft_karp`] with work counters (see [`PhaseStats`]).
pub fn hopcroft_karp_with_stats(g: &BipartiteGraph) -> (Matching, PhaseStats) {
    let mut m = Matching::default();
    let mut scratch = MatchScratch::default();
    let stats = hopcroft_karp_into(g, &mut m, &mut scratch);
    (m, stats)
}

/// Workspace variant of [`hopcroft_karp_with_stats`]: the matching is
/// rebuilt in `out`, BFS layers, queues, the free-source list and the DFS
/// stack come from `scratch`. Results are identical to the allocating
/// path.
pub fn hopcroft_karp_into(
    g: &BipartiteGraph,
    out: &mut Matching,
    scratch: &mut MatchScratch,
) -> PhaseStats {
    let n_src = g.src_count();
    out.reset(n_src, g.dst_count());
    let m = out;
    let MatchScratch {
        dist,
        queue,
        free,
        stack,
        ..
    } = scratch;

    // Phase 1, the greedy pass: each source takes its first free
    // destination. Sources left free with edges seed the later phases.
    let mut stats = PhaseStats {
        phases: 1,
        bfs_probes: g.edge_count(),
        dfs_steps: 0,
    };
    free.clear();
    for s in 0..n_src {
        let row = g.out_neighbors(s);
        match row.iter().position(|&d| !m.dst_matched(d as usize)) {
            Some(i) => {
                stats.dfs_steps += i + 1;
                m.link(s as u32, row[i]);
            }
            None if row.is_empty() => {}
            None => {
                stats.dfs_steps += row.len();
                free.push(s as u32);
            }
        }
    }

    // Later phases. Once no free source has an edge, or every destination
    // with an edge is matched, no augmenting path exists.
    let live_dst = (0..g.dst_count()).filter(|&d| g.in_degree(d) > 0).count();
    dist.clear();
    dist.resize(n_src, INF);
    while !free.is_empty() && m.size() < live_dst {
        // BFS phase: layer the graph from the free sources.
        stats.phases += 1;
        dist.fill(INF);
        queue.clear();
        for &s in free.iter() {
            dist[s as usize] = 0;
            queue.push(s);
        }
        let mut found_free_dst = false;
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            for &v in g.out_neighbors(u as usize) {
                stats.bfs_probes += 1;
                match m.match_of_dst(v as usize) {
                    None => found_free_dst = true,
                    Some(w) => {
                        if dist[w as usize] == INF {
                            dist[w as usize] = dist[u as usize] + 1;
                            queue.push(w);
                        }
                    }
                }
            }
        }
        if !found_free_dst {
            break;
        }
        // DFS phase: find vertex-disjoint augmenting paths along the layers.
        let before = free.len();
        free.retain(|&s| !augment(g, m, dist, stack, s, &mut stats.dfs_steps));
        if free.len() == before {
            break;
        }
    }
    stats
}

/// One augmenting-path search of a Hopcroft-Karp phase, from the free
/// source `root` at layer 0: a depth-first walk over matched
/// destinations into sources one layer deeper (`dist`). On reaching a
/// free destination it relinks the path in `m`, deepest pair first, and
/// returns `true`. Every source it leaves gets `dist = u32::MAX`, so no
/// later search of the phase enters it. `steps` counts the edges probed.
///
/// The walk is iterative: `stack` holds the parent frames (source, next
/// column index, row end), so a path through every source of the graph
/// needs no call stack.
pub fn augment(
    g: &BipartiteGraph,
    m: &mut Matching,
    dist: &mut [u32],
    stack: &mut Vec<(u32, u32, u32)>,
    root: u32,
    steps: &mut usize,
) -> bool {
    let offsets = g.out_csr().offsets();
    let cols = g.out_csr().col_indices();
    let row = |s: u32| (s, offsets[s as usize], offsets[s as usize + 1]);
    stack.clear();
    let (mut u, mut i, mut end) = row(root);
    loop {
        if i == end {
            dist[u as usize] = INF;
            match stack.pop() {
                Some(parent) => (u, i, end) = parent,
                None => return false,
            }
            continue;
        }
        let v = cols[i as usize];
        i += 1;
        *steps += 1;
        match m.match_of_dst(v as usize) {
            Some(w) => {
                if dist[w as usize] == dist[u as usize] + 1 {
                    stack.push((u, i, end));
                    (u, i, end) = row(w);
                }
            }
            None => {
                m.link(u, v);
                dist[u as usize] = INF;
                while let Some((p, next, _)) = stack.pop() {
                    m.link(p, cols[next as usize - 1]);
                    dist[p as usize] = INF;
                }
                return true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdr_hetgraph::gen::PowerLawConfig;

    fn toy() -> BipartiteGraph {
        // Classic augmenting-path example: greedy can lock 0-0 and strand 1.
        BipartiteGraph::from_pairs("t", 2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap()
    }

    #[test]
    fn hopcroft_karp_finds_maximum() {
        let m = hopcroft_karp(&toy());
        assert_eq!(m.size(), 2);
        assert!(m.is_valid(&toy()));
        assert!(m.is_maximal(&toy()));
    }

    #[test]
    fn fifo_matching_matches_oracle_on_toy() {
        let m = fifo_matching(&toy());
        assert_eq!(m.size(), 2);
        assert!(m.is_valid(&toy()));
    }

    #[test]
    fn greedy_is_maximal_but_can_be_smaller() {
        // Build a graph where greedy strands a source:
        // s0: {d0, d1}, s1: {d0} -> greedy in source order picks (0,0), strands 1.
        let g = BipartiteGraph::from_pairs("g", 2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        let gm = greedy_matching(&g);
        assert!(gm.is_valid(&g));
        assert!(gm.is_maximal(&g));
        assert!(gm.size() <= hopcroft_karp(&g).size());
    }

    #[test]
    fn all_engines_agree_on_random_graphs() {
        for seed in 0..10 {
            let g = PowerLawConfig::new(80, 60, 300)
                .dst_alpha(0.8)
                .generate("r", seed);
            let hk = hopcroft_karp(&g);
            let (ff, stats) = fifo_matching_with_stats(&g);
            assert!(hk.is_valid(&g), "hk invalid at seed {seed}");
            assert!(ff.is_valid(&g), "fifo invalid at seed {seed}");
            assert_eq!(ff.size(), hk.size(), "sizes differ at seed {seed}");
            assert!(ff.is_maximal(&g));
            assert!(stats.edge_probes >= g.edge_count().min(stats.expansions));
            let gm = greedy_matching(&g);
            assert!(gm.size() <= hk.size());
            assert!(2 * gm.size() >= hk.size(), "greedy below 1/2-approx");
        }
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::from_pairs("e", 3, 3, &[]).unwrap();
        assert_eq!(hopcroft_karp(&g).size(), 0);
        assert_eq!(fifo_matching(&g).size(), 0);
        assert_eq!(greedy_matching(&g).size(), 0);
    }

    #[test]
    fn perfect_matching_case() {
        // complete bipartite K3,3 admits a perfect matching
        let mut pairs = vec![];
        for s in 0..3 {
            for d in 0..3 {
                pairs.push((s, d));
            }
        }
        let g = BipartiteGraph::from_pairs("k33", 3, 3, &pairs).unwrap();
        assert_eq!(hopcroft_karp(&g).size(), 3);
        assert_eq!(fifo_matching(&g).size(), 3);
    }

    #[test]
    fn link_relinks_cleanly() {
        let mut m = Matching::empty(2, 2);
        m.link(0, 0);
        assert_eq!(m.size(), 1);
        m.link(0, 1); // re-link source 0
        assert_eq!(m.size(), 1);
        assert_eq!(m.match_of_dst(0), None);
        assert_eq!(m.match_of_src(0), Some(1));
        m.link(1, 1); // steal destination 1
        assert_eq!(m.size(), 1);
        assert_eq!(m.match_of_src(0), None);
        m.link(0, 0);
        assert_eq!(m.size(), 2);
        assert_eq!(m.pairs(), vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn stats_scale_with_graph() {
        let g = PowerLawConfig::new(200, 200, 1000).generate("s", 3);
        let (_, st) = fifo_matching_with_stats(&g);
        assert!(st.searches > 0);
        assert!(st.expansions >= st.searches);
        assert!(st.augment_steps > 0);
    }
}

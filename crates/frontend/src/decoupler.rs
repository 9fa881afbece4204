//! Cycle-level Decoupler model (Fig. 5).
//!
//! Executes graph decoupling *through the modeled datapath*: the hash
//! table allocates matching-FIFO slots for destination vertices,
//! visited/matching bitmaps gate the search, the Matching Buffer absorbs
//! displaced FIFO state, and backbone candidates drain to the Candidate
//! Buffer. The search itself runs greedy-then-phased: the hardware
//! advances all free sources' searches concurrently, one sweep of them
//! per bulk-synchronous phase, which is exactly a Hopcroft-Karp phase.
//! With the software engine's augmenting DFS it produces exactly
//! Hopcroft-Karp's maximum matching — tests verify the equality — plus a
//! cycle count derived from the micro-operations performed.

use gdr_core::matching::augment;
use gdr_core::workspace::{MatchScratch, Workspace};
use gdr_hetgraph::BipartiteGraph;
use gdr_memsim::hashtable::HashTable;
use gdr_memsim::hbm::MemRequest;

use crate::config::FrontendConfig;

/// Micro-operation counters of one decoupling run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecouplerStats {
    /// Bulk-synchronous search phases (the hardware searches all free
    /// sources concurrently through the per-destination matching FIFOs;
    /// one phase = one sweep of those parallel searches).
    pub phases: u64,
    /// Edge probes (visited-bitmap + hash-table lookups).
    pub edge_probes: u64,
    /// Matching-FIFO pushes routed through the hash table.
    pub fifo_pushes: u64,
    /// Hash-table set conflicts spilled to the Matching Buffer.
    pub matching_buffer_spills: u64,
    /// Augmenting path steps (match re-links).
    pub augment_steps: u64,
    /// Candidate pairs emitted to the Candidate Buffer.
    pub candidates: u64,
    /// Candidate Buffer overflows spilled to DRAM.
    pub candidate_spills: u64,
}

/// Outcome of decoupling one semantic graph in hardware
/// ([`Decoupler::decouple_with`]): everything but the maximum matching
/// (the backbone candidates), which lands in the workspace's `matching`
/// slot so its tables can be reused by the next graph.
#[derive(Debug, Clone)]
pub struct DecoupleOutcome {
    /// Cycle count of the run.
    pub cycles: u64,
    /// Micro-operation counters.
    pub stats: DecouplerStats,
    /// DRAM traffic issued by the Decoupler (topology streaming,
    /// candidate spills). The log is owned — callers retain it across
    /// graphs — but its storage is drawn from the
    /// workspace's request pool, so retiring runs through
    /// [`Workspace::recycle_request_log`] makes replays allocation-free
    /// at steady state.
    pub requests: Vec<MemRequest>,
}

/// The Decoupler model.
///
/// # Examples
///
/// ```
/// use gdr_hetgraph::BipartiteGraph;
/// use gdr_frontend::config::FrontendConfig;
/// use gdr_frontend::decoupler::Decoupler;
/// use gdr_frontend::Workspace;
/// let g = BipartiteGraph::from_pairs("g", 2, 2, &[(0, 0), (0, 1), (1, 0)])?;
/// let mut ws = Workspace::new();
/// let run = Decoupler::new(FrontendConfig::default()).decouple_with(&mut ws, &g);
/// assert_eq!(ws.matching.size(), 2); // maximum matching
/// assert!(run.cycles > 0);
/// # Ok::<(), gdr_hetgraph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Decoupler {
    cfg: FrontendConfig,
}

/// Decoupler topology DRAM region.
const TOPO_BASE: u64 = 0xD000_0000;
/// Candidate spill DRAM region.
const SPILL_BASE: u64 = 0xE000_0000;

impl Decoupler {
    /// Creates a Decoupler with the given configuration.
    pub fn new(cfg: FrontendConfig) -> Self {
        Self { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FrontendConfig {
        &self.cfg
    }

    /// Runs graph decoupling on one semantic graph through a reusable
    /// [`Workspace`]: the matching is rebuilt in `ws.matching` and the
    /// bulk-synchronous search reuses `ws.match_scratch`'s BFS arrays.
    /// The DRAM request log draws its storage from the workspace's
    /// request pool. The modeled hash table is built per run.
    pub fn decouple_with(&self, ws: &mut Workspace, g: &BipartiteGraph) -> DecoupleOutcome {
        let n_src = g.src_count();
        let n_dst = g.dst_count();
        let mut requests = ws.take_request_log();
        let matching = &mut ws.matching;
        matching.reset(n_src, n_dst);
        let mut stats = DecouplerStats::default();

        // Epoch start: the topology streams in from HBM (Fig. 4 dataflow).
        let topo_bytes = (g.edge_count() as u64) * 8;
        let mut off = 0;
        while off < topo_bytes {
            let chunk = (topo_bytes - off).min(256) as u32;
            requests.push(MemRequest::read(TOPO_BASE + off, chunk));
            off += chunk as u64;
        }

        // Hash table allocating matching-FIFO slots to destinations.
        let mut hash = HashTable::new(self.cfg.hash_sets, self.cfg.hash_ways);

        // Greedy first pass: as the topology streams in, each source
        // grabs the first free destination it probes (the "match
        // condition changes" fast path of Fig. 5). This typically leaves
        // only a few percent of the matching for the augmenting phases.
        for s in 0..n_src {
            for &v in g.out_neighbors(s) {
                stats.edge_probes += 1;
                if !matching.dst_matched(v as usize) {
                    matching.link(s as u32, v);
                    stats.fifo_pushes += 1;
                    break;
                }
            }
        }

        // The hardware starts one search per free source and advances all
        // of them concurrently through the per-destination matching FIFOs;
        // one sweep of those parallel searches is a bulk-synchronous phase
        // (this is exactly a Hopcroft-Karp phase, keeping the Decoupler
        // linear even on dense semantic graphs).
        const INF: u32 = u32::MAX;
        let MatchScratch {
            dist, queue, stack, ..
        } = &mut ws.match_scratch;
        dist.clear();
        dist.resize(n_src, INF);
        loop {
            stats.phases += 1;
            queue.clear();
            let mut found_free_dst = false;
            for (s, slot) in dist.iter_mut().enumerate() {
                if !matching.src_matched(s) && g.out_degree(s) > 0 {
                    *slot = 0;
                    queue.push(s as u32);
                } else {
                    *slot = INF;
                }
            }
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                for &v in g.out_neighbors(u as usize) {
                    stats.edge_probes += 1;
                    stats.fifo_pushes += 1;
                    // hash table allocates/locates Matching_FIFO[v]
                    if let gdr_memsim::hashtable::Insert::Displaced { .. } = hash.insert(v as u64) {
                        stats.matching_buffer_spills += 1;
                    }
                    match matching.match_of_dst(v as usize) {
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
            // Augment along vertex-disjoint shortest paths (the matching
            // FIFOs' parent pointers), charging one step per link walked.
            // The search is the software engine's own, so the modeled
            // datapath finds exactly `hopcroft_karp_into`'s matching.
            let mut augmented = false;
            let mut steps = 0;
            for s in 0..n_src as u32 {
                if !matching.src_matched(s as usize)
                    && dist[s as usize] == 0
                    && augment(g, matching, dist, stack, s, &mut steps)
                {
                    augmented = true;
                }
            }
            stats.augment_steps += steps as u64;
            if !augmented {
                break;
            }
        }

        // Final matches drain into the Candidate Buffer; overflow spills.
        stats.candidates = matching.size() as u64;
        let cap = self.cfg.candidate_capacity_pairs() as u64;
        if stats.candidates > cap {
            stats.candidate_spills = stats.candidates - cap;
            let bytes = stats.candidate_spills * 8;
            let mut off = 0;
            while off < bytes {
                let chunk = (bytes - off).min(256) as u32;
                requests.push(MemRequest::write(SPILL_BASE + off, chunk));
                off += chunk as u64;
            }
        }

        // Cycle model: the set-associative FIFO banks let `dispatch_width`
        // edge probes / candidate drains retire per cycle (Fig. 5's
        // parallel dispatch); each phase re-scans the free-source list;
        // augmenting-path walks and Matching Buffer spills serialize.
        let parallel_ops = (stats.edge_probes + stats.candidates + stats.phases * n_src as u64)
            .div_ceil(self.cfg.dispatch_width as u64);
        let serial_ops = stats.augment_steps + stats.matching_buffer_spills;
        let cycles = parallel_ops + serial_ops;

        DecoupleOutcome {
            cycles,
            stats,
            requests,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdr_core::matching::Matching;
    use gdr_core::restructure::Restructurer;
    use gdr_hetgraph::gen::PowerLawConfig;

    fn graph(seed: u64) -> BipartiteGraph {
        PowerLawConfig::new(200, 180, 900)
            .dst_alpha(0.9)
            .generate("g", seed)
    }

    /// Decouples `g` on a fresh workspace: the matching and the outcome.
    fn decouple(cfg: FrontendConfig, g: &BipartiteGraph) -> (Matching, DecoupleOutcome) {
        let mut ws = Workspace::new();
        let run = Decoupler::new(cfg).decouple_with(&mut ws, g);
        (ws.matching, run)
    }

    /// Hopcroft-Karp's matching, the default engine of the software
    /// restructurer.
    fn software_matching(g: &BipartiteGraph) -> Matching {
        Restructurer::new().restructure(g).matching().clone()
    }

    #[test]
    fn hardware_matching_is_maximum() {
        for seed in 0..8 {
            let g = graph(seed);
            let (matching, _) = decouple(FrontendConfig::default(), &g);
            let oracle = software_matching(&g);
            assert!(matching.is_valid(&g), "seed {seed}");
            assert_eq!(matching.size(), oracle.size(), "seed {seed}");
        }
    }

    #[test]
    fn hardware_matching_size_equals_oracle() {
        // the greedy first pass is exactly Hopcroft-Karp's first phase
        // (every source at layer 0, no DFS descends), and the later
        // phases run the same search, so the pairs chosen are the same
        for seed in 0..8 {
            let g = graph(seed);
            let (hw, _) = decouple(FrontendConfig::default(), &g);
            assert_eq!(hw, software_matching(&g), "seed {seed}");
            assert!(hw.is_valid(&g));
            assert!(hw.is_maximal(&g));
        }
    }

    #[test]
    fn cycles_scale_with_work() {
        let (_, small) = decouple(FrontendConfig::default(), &graph(1));
        let big_graph = PowerLawConfig::new(2000, 1800, 9000)
            .dst_alpha(0.9)
            .generate("b", 1);
        let (_, big) = decouple(FrontendConfig::default(), &big_graph);
        assert!(big.cycles > small.cycles);
        assert!(big.stats.edge_probes >= big_graph.edge_count() as u64 / 4);
    }

    #[test]
    fn wider_dispatch_is_faster() {
        let g = graph(3);
        let narrow_cfg = FrontendConfig {
            dispatch_width: 1,
            ..FrontendConfig::default()
        };
        let wide_cfg = FrontendConfig {
            dispatch_width: 16,
            ..FrontendConfig::default()
        };
        let (narrow_m, narrow) = decouple(narrow_cfg, &g);
        let (wide_m, wide) = decouple(wide_cfg, &g);
        assert!(wide.cycles < narrow.cycles);
        assert_eq!(wide_m.size(), narrow_m.size());
    }

    #[test]
    fn topology_streamed_from_dram() {
        let g = graph(4);
        let (_, run) = decouple(FrontendConfig::default(), &g);
        let read_bytes: u64 = run
            .requests
            .iter()
            .filter(|r| !r.write)
            .map(|r| r.bytes as u64)
            .sum();
        assert_eq!(read_bytes, g.edge_count() as u64 * 8);
    }

    #[test]
    fn candidate_overflow_spills() {
        // tiny candidate buffer forces spills
        let g = PowerLawConfig::new(400, 400, 2000).generate("s", 5);
        let cfg = FrontendConfig {
            candidate_buffer_bytes: 64, // 8 pairs
            ..FrontendConfig::default()
        };
        let (_, run) = decouple(cfg, &g);
        assert!(run.stats.candidate_spills > 0);
        assert!(run.requests.iter().any(|r| r.write));
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::from_pairs("e", 4, 4, &[]).unwrap();
        let (matching, run) = decouple(FrontendConfig::default(), &g);
        assert_eq!(matching.size(), 0);
        assert_eq!(run.stats.edge_probes, 0);
    }
}

//! NA-stage buffer simulation.
//!
//! Walks an edge schedule against the (set-associative) NA feature buffer
//! and produces the DRAM request trace plus the per-vertex replacement
//! statistics of Fig. 2. Used by the HiHGNN model with either the natural
//! destination-major schedule or a GDR-restructured schedule.
//!
//! The buffer itself models residency only; the Fig. 2 statistics are
//! fetch counts per tag, kept in
//! [`BufferScratch::fetch_counts`](gdr_core::workspace::BufferScratch::fetch_counts)
//! by the paths that report them ([`NaBufferSim::simulate_wave_with`] and
//! the allocating wrappers). The replay path,
//! [`NaBufferSim::simulate_edges_with`], counts nothing.

use std::collections::HashMap;

use gdr_core::schedule::EdgeSchedule;
use gdr_core::workspace::BufferScratch;
use gdr_hetgraph::BipartiteGraph;
use gdr_memsim::buffer::{Access, BufferStats, Replacement, SetAssocBuffer};
use gdr_memsim::hbm::MemRequest;

use crate::calib::FEATURE_BYTES;

/// DRAM layout bases for the NA stage's feature spaces.
const SRC_BASE: u64 = 0x4000_0000;
const DST_BASE: u64 = 0x8000_0000;
const TOPO_BASE: u64 = 0xC000_0000;

/// Tag encoding: bit 40 distinguishes destination accumulators from
/// source features; the low bits carry `graph_tag` and the vertex id.
fn tag(graph_tag: u64, is_dst: bool, id: u32) -> u64 {
    ((is_dst as u64) << 40) | (graph_tag << 32) | id as u64
}

/// One edge's buffer traffic: a source feature read and a destination
/// partial-sum read-modify-write, with dirty accumulator write-backs.
/// Each fetched tag is reported to `on_fetch`.
fn access_edge(
    buf: &mut SetAssocBuffer,
    requests: &mut Vec<MemRequest>,
    graph_tag: u64,
    e: &gdr_hetgraph::Edge,
    fb: u32,
    on_fetch: &mut impl FnMut(u64),
) {
    let t = tag(graph_tag, false, e.src.raw());
    if let Access::Miss { .. } = buf.access(t) {
        on_fetch(t);
        requests.push(MemRequest::read(
            SRC_BASE + e.src.raw() as u64 * fb as u64,
            fb,
        ));
    }
    let t = tag(graph_tag, true, e.dst.raw());
    if let Access::Miss { evicted } = buf.access(t) {
        on_fetch(t);
        requests.push(MemRequest::read(
            DST_BASE + e.dst.raw() as u64 * fb as u64,
            fb,
        ));
        if let Some(victim) = evicted {
            // dirty accumulator write-back (sources are clean)
            if victim >> 40 == 1 {
                let vid = victim & 0xFFFF_FFFF;
                requests.push(MemRequest::write(DST_BASE + vid * fb as u64, fb));
            }
        }
    }
}

/// Result of simulating the NA stage of one semantic graph.
#[derive(Debug, Clone)]
pub struct NaTrace {
    /// Buffer accesses (2 per edge).
    pub accesses: u64,
    /// Buffer hits.
    pub hits: u64,
    /// Buffer misses (feature fetches).
    pub misses: u64,
    /// The DRAM request trace (feature fetches, dirty write-backs,
    /// topology streaming).
    pub requests: Vec<MemRequest>,
    /// Fetch counts per tag (see [`NaBufferSim::simulate`]); replacement
    /// times = fetches − 1.
    pub fetch_counts: HashMap<u64, u32>,
}

impl NaTrace {
    /// Buffer hit rate (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Total bytes of the request trace.
    pub fn bytes(&self) -> u64 {
        self.requests.iter().map(|r| r.bytes as u64).sum()
    }

    /// Replacement times of **source** features only (the statistic
    /// Fig. 2 plots: how often a neighbor's feature vector had to be
    /// re-fetched during aggregation).
    pub fn src_replacement_times(&self) -> Vec<u32> {
        self.fetch_counts
            .iter()
            .filter(|(&t, _)| t >> 40 == 0)
            .map(|(_, &f)| f.saturating_sub(1))
            .collect()
    }
}

/// The NA buffer simulator.
///
/// # Examples
///
/// ```
/// use gdr_hetgraph::BipartiteGraph;
/// use gdr_core::schedule::EdgeSchedule;
/// use gdr_accel::na_engine::NaBufferSim;
/// let g = BipartiteGraph::from_pairs("g", 4, 4, &[(0, 0), (1, 1)])?;
/// let sim = NaBufferSim::new(64, 8);
/// let trace = sim.simulate(&g, &EdgeSchedule::dst_major(&g), 0);
/// assert_eq!(trace.misses, 4); // two sources + two destinations, cold
/// # Ok::<(), gdr_hetgraph::GraphError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NaBufferSim {
    capacity_features: usize,
    ways: usize,
    policy: Replacement,
}

impl NaBufferSim {
    /// Creates a simulator for a buffer holding `capacity_features`
    /// vectors with the given associativity. The replacement policy
    /// defaults to FIFO — the policy large accelerator scratchpads
    /// implement in practice (true LRU over tens of thousands of lines is
    /// not economical); see [`NaBufferSim::with_policy`].
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(capacity_features: usize, ways: usize) -> Self {
        assert!(capacity_features > 0 && ways > 0, "degenerate na buffer");
        Self {
            capacity_features,
            ways,
            policy: Replacement::Fifo,
        }
    }

    /// Overrides the replacement policy.
    pub fn with_policy(mut self, policy: Replacement) -> Self {
        self.policy = policy;
        self
    }

    /// Buffer capacity in feature vectors.
    pub fn capacity_features(&self) -> usize {
        self.capacity_features
    }

    /// Simulates a *wave* of semantic graphs executing concurrently on the
    /// accelerator's lanes, all contending for this one buffer: edge
    /// chunks of `chunk` edges are interleaved round-robin across the
    /// lanes, which is how the multi-lane NA engines interleave their
    /// buffer traffic in time.
    pub fn simulate_wave(
        &self,
        items: &[(&BipartiteGraph, &EdgeSchedule, u64)],
        chunk: usize,
    ) -> NaTrace {
        let mut scratch = BufferScratch::default();
        let stats = self.simulate_wave_with(&mut scratch, items, chunk);
        Self::into_trace(stats, &mut scratch)
    }

    /// [`NaBufferSim::simulate_wave`] over caller-pooled scratch. The
    /// returned stats cover this wave only and the DRAM request trace is
    /// left in `scratch.requests`. Every fetch is counted into
    /// `scratch.fetch_counts` (Fig. 2's table), which keeps aggregating
    /// across waves (tags are graph-namespaced) until the caller resets
    /// the scratch or changes the geometry. Per-wave residency, stats,
    /// and requests are identical to the transient-buffer path.
    pub fn simulate_wave_with(
        &self,
        scratch: &mut BufferScratch,
        items: &[(&BipartiteGraph, &EdgeSchedule, u64)],
        chunk: usize,
    ) -> BufferStats {
        assert!(chunk > 0, "chunk must be positive");
        let (buf, requests, fetch_counts) =
            scratch.prepare(self.capacity_features, self.ways, self.policy);
        let fb = FEATURE_BYTES as u32;
        let mut count = |t: u64| *fetch_counts.entry(t).or_insert(0) += 1;

        // Topology streams per lane.
        for &(g, _, graph_tag) in items {
            stream_topology(requests, g, graph_tag);
        }

        let mut cursors = vec![0usize; items.len()];
        let mut live = items.len();
        while live > 0 {
            live = 0;
            for (i, &(_, schedule, graph_tag)) in items.iter().enumerate() {
                let edges = schedule.edges();
                if cursors[i] >= edges.len() {
                    continue;
                }
                let end = (cursors[i] + chunk).min(edges.len());
                for e in &edges[cursors[i]..end] {
                    access_edge(buf, requests, graph_tag, e, fb, &mut count);
                }
                cursors[i] = end;
                if cursors[i] < edges.len() {
                    live += 1;
                }
            }
        }
        // Per-graph flush of finished accumulators.
        for &(g, _, _) in items {
            flush_accumulators(requests, g, fb);
        }
        buf.stats().clone()
    }

    /// Simulates the schedule; `graph_tag` namespaces the tags so traces
    /// from several semantic graphs can be aggregated. A one-graph wave
    /// whose single chunk is the whole schedule, so the trace carries
    /// the fetch counts.
    pub fn simulate(&self, g: &BipartiteGraph, schedule: &EdgeSchedule, graph_tag: u64) -> NaTrace {
        self.simulate_wave(&[(g, schedule, graph_tag)], schedule.len().max(1))
    }

    /// The NA-buffer walk of [`NaBufferSim::simulate`] over caller-pooled
    /// scratch and a raw edge slice — the zero-allocation entry point
    /// for replayed schedules living in a
    /// [`Workspace`](gdr_core::workspace::Workspace)'s `edges` buffer
    /// (the state [`restructure_with`](gdr_core::restructure::Restructurer::restructure_with)
    /// leaves behind). Per-run stats are returned and the requests left
    /// in `scratch.requests`, as in [`NaBufferSim::simulate_wave_with`];
    /// fetches are **not** counted, so `scratch.fetch_counts` is left as
    /// it was.
    pub fn simulate_edges_with(
        &self,
        scratch: &mut BufferScratch,
        g: &BipartiteGraph,
        edges: &[gdr_hetgraph::Edge],
        graph_tag: u64,
    ) -> BufferStats {
        let (buf, requests, _) = scratch.prepare(self.capacity_features, self.ways, self.policy);
        let fb = FEATURE_BYTES as u32;

        // Topology streaming: the edge list itself (8 B per edge), read
        // sequentially in 256 B bursts.
        stream_topology(requests, g, graph_tag);

        for e in edges {
            access_edge(buf, requests, graph_tag, e, fb, &mut |_| {});
        }
        // Flush: every destination written once at the end (finished
        // accumulators stream out to the SF stage's DRAM region).
        flush_accumulators(requests, g, fb);
        buf.stats().clone()
    }

    /// Folds a transient scratch into the owned [`NaTrace`] the
    /// allocating wrappers return.
    fn into_trace(stats: BufferStats, scratch: &mut BufferScratch) -> NaTrace {
        NaTrace {
            accesses: stats.accesses,
            hits: stats.hits,
            misses: stats.misses,
            requests: std::mem::take(&mut scratch.requests),
            fetch_counts: std::mem::take(&mut scratch.fetch_counts),
        }
    }
}

/// Streams a graph's edge list (8 B per edge) in 256 B bursts.
fn stream_topology(requests: &mut Vec<MemRequest>, g: &BipartiteGraph, graph_tag: u64) {
    let topo_bytes = (g.edge_count() as u64) * 8;
    let mut off = 0;
    while off < topo_bytes {
        let size = (topo_bytes - off).min(256) as u32;
        requests.push(MemRequest::read(
            TOPO_BASE + graph_tag * 0x0100_0000 + off,
            size,
        ));
        off += size as u64;
    }
}

/// Writes every finished destination accumulator out once.
fn flush_accumulators(requests: &mut Vec<MemRequest>, g: &BipartiteGraph, fb: u32) {
    for d in 0..g.dst_count() {
        if g.in_degree(d) > 0 {
            requests.push(MemRequest::write(DST_BASE + d as u64 * fb as u64, fb));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdr_core::backbone::BackboneStrategy;
    use gdr_core::restructure::Restructurer;
    use gdr_hetgraph::gen::PowerLawConfig;

    fn graph() -> BipartiteGraph {
        PowerLawConfig::new(600, 600, 4800)
            .dst_alpha(0.9)
            .generate("g", 7)
    }

    #[test]
    fn cold_misses_only_with_large_buffer() {
        let g = graph();
        let sim = NaBufferSim::new(1 << 20, 16);
        let t = sim.simulate(&g, &EdgeSchedule::dst_major(&g), 0);
        let touched_src = (0..g.src_count()).filter(|&s| g.out_degree(s) > 0).count();
        let touched_dst = (0..g.dst_count()).filter(|&d| g.in_degree(d) > 0).count();
        assert_eq!(t.misses as usize, touched_src + touched_dst);
        assert!(t.hit_rate() > 0.5);
    }

    #[test]
    fn small_buffer_thrashes_and_restructuring_helps() {
        // The frontend's contract: the backbone fits on-chip while the full
        // working set does not (DESIGN.md). Pick the capacity accordingly.
        let g = graph();
        let r = Restructurer::new()
            .backbone_strategy(BackboneStrategy::KonigExact)
            .restructure(&g);
        let backbone = r.backbone().len();
        let working_set = (0..g.src_count()).filter(|&s| g.out_degree(s) > 0).count()
            + (0..g.dst_count()).filter(|&d| g.in_degree(d) > 0).count();
        let cap = backbone + 128;
        assert!(
            cap < working_set,
            "test premise: backbone fits, WS does not"
        );
        let sim = NaBufferSim::new(cap, 8);
        let base = sim.simulate(&g, &EdgeSchedule::dst_major(&g), 0);
        let gdr = sim.simulate(&g, r.schedule(), 0);
        assert!(
            gdr.misses < base.misses,
            "restructured {} vs baseline {}",
            gdr.misses,
            base.misses
        );
        assert!(gdr.bytes() < base.bytes());
    }

    #[test]
    fn replacement_times_nonzero_under_thrash() {
        let g = graph();
        let sim = NaBufferSim::new(64, 8);
        let t = sim.simulate(&g, &EdgeSchedule::random(&g, 3), 0);
        let rt = t.src_replacement_times();
        assert!(rt.iter().any(|&r| r > 0), "expected refetches under thrash");
    }

    #[test]
    fn trace_contains_topology_and_flush() {
        let g = BipartiteGraph::from_pairs("t", 2, 2, &[(0, 0), (1, 1)]).unwrap();
        let sim = NaBufferSim::new(16, 4);
        let t = sim.simulate(&g, &EdgeSchedule::dst_major(&g), 1);
        let reads = t.requests.iter().filter(|r| !r.write).count();
        let writes = t.requests.iter().filter(|r| r.write).count();
        // 1 topo chunk + 2 src + 2 dst reads; 2 flush writes
        assert_eq!(reads, 5);
        assert_eq!(writes, 2);
    }

    #[test]
    fn graph_tags_namespace_fetch_counts() {
        let g = BipartiteGraph::from_pairs("t", 1, 1, &[(0, 0)]).unwrap();
        let sim = NaBufferSim::new(16, 4);
        let a = sim.simulate(&g, &EdgeSchedule::dst_major(&g), 0);
        let b = sim.simulate(&g, &EdgeSchedule::dst_major(&g), 3);
        let ka: Vec<u64> = a.fetch_counts.keys().copied().collect();
        let kb: Vec<u64> = b.fetch_counts.keys().copied().collect();
        assert!(ka.iter().all(|k| !kb.contains(k)));
        // pooled waves keep both graphs' counts apart in one table
        let mut scratch = BufferScratch::default();
        for graph_tag in [0, 3] {
            let sched = EdgeSchedule::dst_major(&g);
            sim.simulate_wave_with(&mut scratch, &[(&g, &sched, graph_tag)], 16);
        }
        assert_eq!(scratch.fetch_counts.len(), ka.len() + kb.len());
    }

    #[test]
    #[should_panic(expected = "degenerate na buffer")]
    fn zero_capacity_rejected() {
        let _ = NaBufferSim::new(0, 4);
    }

    #[test]
    fn pooled_scratch_matches_transient_runs() {
        let sim = NaBufferSim::new(96, 8);
        let mut scratch = BufferScratch::default();
        for seed in 0..5u64 {
            let g = PowerLawConfig::new(120, 120, 900)
                .dst_alpha(0.8)
                .generate("g", seed);
            let sched = EdgeSchedule::dst_major(&g);
            let stats = sim.simulate_edges_with(&mut scratch, &g, sched.edges(), seed);
            let fresh = sim.simulate(&g, &sched, seed);
            assert_eq!(stats.accesses, fresh.accesses, "seed {seed}");
            assert_eq!(stats.hits, fresh.hits, "seed {seed}");
            assert_eq!(stats.misses, fresh.misses, "seed {seed}");
            assert_eq!(scratch.requests, fresh.requests, "seed {seed}");
            // the replay path counts no fetches
            assert!(scratch.fetch_counts.is_empty(), "seed {seed}");
            assert!(!fresh.fetch_counts.is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn replacement_times_track_refetches() {
        // One line: every access evicts the previous tag.
        let g = BipartiteGraph::from_pairs("t", 1, 2, &[(0, 0), (0, 1)]).unwrap();
        let t = NaBufferSim::new(1, 1).simulate(&g, &EdgeSchedule::dst_major(&g), 0);
        // src 0 is fetched, evicted by dst 0, and fetched again for dst 1
        assert_eq!(t.fetch_counts[&tag(0, false, 0)], 2);
        assert_eq!(t.fetch_counts[&tag(0, true, 0)], 1);
        assert_eq!(t.fetch_counts[&tag(0, true, 1)], 1);
        assert_eq!(t.src_replacement_times(), vec![1]);
    }

    #[test]
    fn wave_fetch_counts_aggregate_until_reset() {
        let a = PowerLawConfig::new(90, 90, 700).generate("a", 1);
        let b = PowerLawConfig::new(60, 60, 400).generate("b", 2);
        let (sa, sb) = (EdgeSchedule::dst_major(&a), EdgeSchedule::dst_major(&b));
        let sim = NaBufferSim::new(64, 8);
        let mut scratch = BufferScratch::default();
        let mut expected: HashMap<u64, u32> = HashMap::new();
        // the third wave repeats the first graph's tags, so its counts add
        for (round, items) in [[(&a, &sa, 0u64)], [(&b, &sb, 1)], [(&a, &sa, 0)]]
            .iter()
            .enumerate()
        {
            sim.simulate_wave_with(&mut scratch, items, 16);
            for (t, f) in sim.simulate_wave(items, 16).fetch_counts {
                *expected.entry(t).or_insert(0) += f;
            }
            assert_eq!(scratch.fetch_counts, expected, "round {round}");
            // the replay path neither counts nor clears
            sim.simulate_edges_with(&mut scratch, &a, sa.edges(), 9);
            assert_eq!(scratch.fetch_counts, expected, "round {round}");
        }
        scratch.reset();
        assert!(scratch.fetch_counts.is_empty());
        sim.simulate_wave_with(&mut scratch, &[(&b, &sb, 1)], 16);
        assert_eq!(
            scratch.fetch_counts,
            sim.simulate_wave(&[(&b, &sb, 1)], 16).fetch_counts
        );
    }

    #[test]
    fn geometry_change_clears_fetch_counts() {
        let g = PowerLawConfig::new(90, 90, 700).generate("g", 3);
        let sched = EdgeSchedule::dst_major(&g);
        let mut scratch = BufferScratch::default();
        NaBufferSim::new(64, 8).simulate_wave_with(&mut scratch, &[(&g, &sched, 0)], 16);
        assert!(!scratch.fetch_counts.is_empty());
        // same geometry, other policy: the counts restart
        let lru = NaBufferSim::new(64, 8).with_policy(Replacement::Lru);
        lru.simulate_wave_with(&mut scratch, &[(&g, &sched, 1)], 16);
        let fresh = lru.simulate_wave(&[(&g, &sched, 1)], 16);
        assert_eq!(scratch.fetch_counts, fresh.fetch_counts);
        // and so do they on a size change seen by the replay path
        NaBufferSim::new(128, 8).simulate_edges_with(&mut scratch, &g, sched.edges(), 0);
        assert!(scratch.fetch_counts.is_empty());
    }

    #[test]
    fn pooled_wave_matches_transient_wave() {
        let a = PowerLawConfig::new(90, 90, 700).generate("a", 1);
        let b = PowerLawConfig::new(60, 60, 400).generate("b", 2);
        let sa = EdgeSchedule::dst_major(&a);
        let sb = EdgeSchedule::dst_major(&b);
        let items = [(&a, &sa, 0u64), (&b, &sb, 1u64)];
        let sim = NaBufferSim::new(64, 8);
        let mut scratch = BufferScratch::default();
        for round in 0..3 {
            let stats = sim.simulate_wave_with(&mut scratch, &items, 16);
            let fresh = sim.simulate_wave(&items, 16);
            assert_eq!(stats.accesses, fresh.accesses, "round {round}");
            assert_eq!(stats.misses, fresh.misses, "round {round}");
            assert_eq!(scratch.requests, fresh.requests, "round {round}");
        }
    }
}

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
//! [`NaBufferSim::simulate`]). The replay path,
//! [`NaBufferSim::simulate_edges_with`], counts nothing.
//!
//! A buffer tag names a (graph tag, side, vertex): the vertex id in the
//! low 32 bits, the graph tag in bits 32–39 and the side in bit 40, set
//! for a destination accumulator. A graph tag is therefore below 256.
//! Both walks drive the buffer through
//! [`SetAssocBuffer::access_keyed`] with a dense key per tag: within one
//! call, each distinct graph tag gets one key range, its sources first
//! and then its destinations, sized by the largest vertex counts among
//! the graphs that carry the tag. Items of a wave that share a graph tag
//! thus share keys exactly as they share tags.

use std::collections::HashMap;

use gdr_core::schedule::EdgeSchedule;
use gdr_core::workspace::BufferScratch;
use gdr_hetgraph::{BipartiteGraph, Edge};
use gdr_memsim::buffer::{Access, BufferStats, Replacement, SetAssocBuffer};
use gdr_memsim::hbm::MemRequest;

use crate::calib::FEATURE_BYTES;

/// DRAM layout bases for the NA stage's feature spaces.
const SRC_BASE: u64 = 0x4000_0000;
const DST_BASE: u64 = 0x8000_0000;
const TOPO_BASE: u64 = 0xC000_0000;

/// Graph tags a buffer tag can carry: bits 32–39.
const GRAPH_TAGS: u64 = 1 << 8;

/// Tag encoding: bit 40 distinguishes destination accumulators from
/// source features; the low bits carry `graph_tag` and the vertex id.
fn tag(graph_tag: u64, is_dst: bool, id: u32) -> u64 {
    ((is_dst as u64) << 40) | (graph_tag << 32) | id as u64
}

/// One graph tag's keys in the buffer's residency index: source `s` is
/// key `src_base + s` for `s < srcs`, destination `d` is key
/// `dst_base + d` for `d < dsts`.
#[derive(Debug, Clone, Copy)]
struct Keys {
    graph_tag: u64,
    src_base: usize,
    srcs: usize,
    dst_base: usize,
    dsts: usize,
}

impl Keys {
    /// The range of `graph_tag` from key `base`, sources first.
    ///
    /// # Panics
    ///
    /// Panics if `graph_tag` is 256 or more.
    fn new(graph_tag: u64, base: usize, srcs: usize, dsts: usize) -> Self {
        assert!(
            graph_tag < GRAPH_TAGS,
            "graph tag {graph_tag} does not fit in a buffer tag's 8 bits"
        );
        Self {
            graph_tag,
            src_base: base,
            srcs,
            dst_base: base + srcs,
            dsts,
        }
    }

    /// The key ranges of a wave's items, in item order: one range per
    /// distinct graph tag, sized by the largest vertex counts among the
    /// items carrying it.
    fn of_wave(items: &[(&BipartiteGraph, &EdgeSchedule, u64)]) -> Vec<Keys> {
        let mut ranges: Vec<Keys> = Vec::with_capacity(items.len());
        let mut next = 0;
        for &(_, _, graph_tag) in items {
            if let Some(&seen) = ranges.iter().find(|k| k.graph_tag == graph_tag) {
                ranges.push(seen);
                continue;
            }
            let (srcs, dsts) = items
                .iter()
                .filter(|item| item.2 == graph_tag)
                .fold((0, 0), |(s, d), item| {
                    (s.max(item.0.src_count()), d.max(item.0.dst_count()))
                });
            ranges.push(Keys::new(graph_tag, next, srcs, dsts));
            next += srcs + dsts;
        }
        ranges
    }
}

/// One edge's buffer traffic: a source feature read and a destination
/// partial-sum read-modify-write, with dirty accumulator write-backs.
/// Each fetched tag is reported to `on_fetch`.
///
/// # Panics
///
/// Panics if an endpoint lies outside `keys`' ranges, where its key
/// could name another tag.
fn access_edge(
    buf: &mut SetAssocBuffer,
    requests: &mut Vec<MemRequest>,
    keys: &Keys,
    e: &Edge,
    fb: u32,
    on_fetch: &mut impl FnMut(u64),
) {
    let (src, dst) = (e.src.raw(), e.dst.raw());
    assert!(
        (src as usize) < keys.srcs && (dst as usize) < keys.dsts,
        "edge ({src}, {dst}) lies outside its graph"
    );
    let t = tag(keys.graph_tag, false, src);
    if let Access::Miss { .. } = buf.access_keyed(t, keys.src_base + src as usize) {
        on_fetch(t);
        requests.push(MemRequest::read(SRC_BASE + src as u64 * fb as u64, fb));
    }
    let t = tag(keys.graph_tag, true, dst);
    if let Access::Miss { evicted } = buf.access_keyed(t, keys.dst_base + dst as usize) {
        on_fetch(t);
        requests.push(MemRequest::read(DST_BASE + dst as u64 * fb as u64, fb));
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
    /// buffer traffic in time. Each item's graph tag namespaces its
    /// buffer tags; items that share one share lines.
    ///
    /// The pooled buffer starts the wave empty, the returned stats cover
    /// this wave only and the DRAM request trace is left in
    /// `scratch.requests`. Every fetch is counted into
    /// `scratch.fetch_counts` (Fig. 2's table), which keeps aggregating
    /// across waves (tags are graph-namespaced) until the caller resets
    /// the scratch or changes the geometry.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero, if a graph tag is 256 or more, or if an
    /// edge lies outside its item's graph.
    pub fn simulate_wave_with(
        &self,
        scratch: &mut BufferScratch,
        items: &[(&BipartiteGraph, &EdgeSchedule, u64)],
        chunk: usize,
    ) -> BufferStats {
        assert!(chunk > 0, "chunk must be positive");
        let keys = Keys::of_wave(items);
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
            for (i, &(_, schedule, _)) in items.iter().enumerate() {
                let edges = schedule.edges();
                if cursors[i] >= edges.len() {
                    continue;
                }
                let end = (cursors[i] + chunk).min(edges.len());
                for e in &edges[cursors[i]..end] {
                    access_edge(buf, requests, &keys[i], e, fb, &mut count);
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
    /// whose single chunk is the whole schedule, run on a fresh
    /// [`BufferScratch`], so the trace carries the fetch counts.
    ///
    /// # Panics
    ///
    /// Panics if `graph_tag` is 256 or more, or if an edge lies outside
    /// `g`.
    pub fn simulate(&self, g: &BipartiteGraph, schedule: &EdgeSchedule, graph_tag: u64) -> NaTrace {
        let mut scratch = BufferScratch::default();
        let items = [(g, schedule, graph_tag)];
        let stats = self.simulate_wave_with(&mut scratch, &items, schedule.len().max(1));
        NaTrace {
            accesses: stats.accesses,
            hits: stats.hits,
            misses: stats.misses,
            requests: scratch.requests,
            fetch_counts: scratch.fetch_counts,
        }
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
    ///
    /// # Panics
    ///
    /// Panics if `graph_tag` is 256 or more, or if an edge lies outside
    /// `g`.
    pub fn simulate_edges_with(
        &self,
        scratch: &mut BufferScratch,
        g: &BipartiteGraph,
        edges: &[Edge],
        graph_tag: u64,
    ) -> BufferStats {
        let keys = Keys::new(graph_tag, 0, g.src_count(), g.dst_count());
        let (buf, requests, _) = scratch.prepare(self.capacity_features, self.ways, self.policy);
        let fb = FEATURE_BYTES as u32;

        // Topology streaming: the edge list itself (8 B per edge), read
        // sequentially in 256 B bursts.
        stream_topology(requests, g, graph_tag);

        for e in edges {
            access_edge(buf, requests, &keys, e, fb, &mut |_| {});
        }
        // Flush: every destination written once at the end (finished
        // accumulators stream out to the SF stage's DRAM region).
        flush_accumulators(requests, g, fb);
        buf.stats().clone()
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

    /// A wave on a fresh scratch, which pooled runs must equal.
    fn fresh_wave(
        sim: &NaBufferSim,
        items: &[(&BipartiteGraph, &EdgeSchedule, u64)],
        chunk: usize,
    ) -> (BufferStats, BufferScratch) {
        let mut scratch = BufferScratch::default();
        let stats = sim.simulate_wave_with(&mut scratch, items, chunk);
        (stats, scratch)
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
        // The premise: the backbone, a vertex cover, fits in the buffer
        // while the whole working set does not, so the restructured walk
        // can keep one endpoint of every edge resident. Pick the capacity
        // between the two.
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
            for (t, f) in fresh_wave(&sim, items, 16).1.fetch_counts {
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
            fresh_wave(&sim, &[(&b, &sb, 1)], 16).1.fetch_counts
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
        let (_, fresh) = fresh_wave(&lru, &[(&g, &sched, 1)], 16);
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
            let (fresh_stats, fresh) = fresh_wave(&sim, &items, 16);
            assert_eq!(stats, fresh_stats, "round {round}");
            assert_eq!(scratch.requests, fresh.requests, "round {round}");
        }
    }

    /// The edge walk before the residency index: a fresh buffer, each
    /// tag found by [`SetAssocBuffer::access`]'s set scan, edge chunks
    /// interleaved round-robin over the items. The reference both keyed
    /// walks must equal in stats, request trace and fetch counts.
    fn scan_reference(
        sim: &NaBufferSim,
        items: &[(&BipartiteGraph, &[Edge], u64)],
        chunk: usize,
    ) -> (BufferStats, Vec<MemRequest>, HashMap<u64, u32>) {
        let mut buf = SetAssocBuffer::with_capacity(sim.capacity_features, sim.ways, sim.policy);
        let (mut requests, mut counts) = (Vec::new(), HashMap::new());
        let fb = FEATURE_BYTES as u64;
        for &(g, _, graph_tag) in items {
            stream_topology(&mut requests, g, graph_tag);
        }
        let mut cursors = vec![0; items.len()];
        while items
            .iter()
            .zip(&cursors)
            .any(|(item, &c)| c < item.1.len())
        {
            for (&(_, edges, graph_tag), cursor) in items.iter().zip(&mut cursors) {
                let end = (*cursor + chunk).min(edges.len());
                for e in &edges[*cursor..end] {
                    let (src, dst) = (e.src.raw(), e.dst.raw());
                    let t = tag(graph_tag, false, src);
                    if let Access::Miss { .. } = buf.access(t) {
                        *counts.entry(t).or_insert(0) += 1;
                        requests.push(MemRequest::read(SRC_BASE + u64::from(src) * fb, fb as u32));
                    }
                    let t = tag(graph_tag, true, dst);
                    if let Access::Miss { evicted } = buf.access(t) {
                        *counts.entry(t).or_insert(0) += 1;
                        requests.push(MemRequest::read(DST_BASE + u64::from(dst) * fb, fb as u32));
                        if let Some(victim) = evicted.filter(|v| v >> 40 == 1) {
                            let at = DST_BASE + (victim & 0xFFFF_FFFF) * fb;
                            requests.push(MemRequest::write(at, fb as u32));
                        }
                    }
                }
                *cursor = end;
            }
        }
        for &(g, _, _) in items {
            flush_accumulators(&mut requests, g, fb as u32);
        }
        (buf.stats().clone(), requests, counts)
    }

    #[test]
    fn keyed_walks_match_the_scan_reference() {
        // Working sets from at most 8 vertices to about 7 000: the
        // largest evicts even from the 464×8 NA buffer.
        let graphs: Vec<(BipartiteGraph, EdgeSchedule)> = [
            (4_000, 3_000, 24_000),
            (600, 600, 4_800),
            (90, 40, 700),
            (30, 200, 900),
            (5, 3, 12),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(src, dst, edges))| {
            let g = PowerLawConfig::new(src, dst, edges)
                .dst_alpha(0.9)
                .generate("g", i as u64);
            let sched = EdgeSchedule::random(&g, i as u64);
            (g, sched)
        })
        .collect();
        let [big, mid, tall, wide, tiny] = [0, 1, 2, 3, 4].map(|i| (&graphs[i].0, &graphs[i].1));
        let waves: [Vec<(&BipartiteGraph, &EdgeSchedule, u64)>; 2] = [
            // four lanes of different sizes
            vec![
                (big.0, big.1, 0),
                (tall.0, tall.1, 1),
                (wide.0, wide.1, 2),
                (tiny.0, tiny.1, 3),
            ],
            // a repeated graph tag over two shapes: its range spans the
            // larger count on each side, and its lanes share lines
            vec![(tall.0, tall.1, 7), (mid.0, mid.1, 9), (wide.0, wide.1, 7)],
        ];
        // One pooled scratch across every geometry, policy and graph size.
        let mut scratch = BufferScratch::default();
        for policy in [Replacement::Lru, Replacement::Fifo] {
            for (sets, ways) in [(464, 8), (16, 8), (4, 2), (1, 1)] {
                let sim = NaBufferSim::new(sets * ways, ways).with_policy(policy);
                let mut evictions = 0;
                for (gi, (g, sched)) in graphs.iter().enumerate() {
                    let ctx = format!("{sets}x{ways} {policy:?} graph {gi}");
                    let stats = sim.simulate_edges_with(&mut scratch, g, sched.edges(), gi as u64);
                    let items = [(g, sched.edges(), gi as u64)];
                    let (want, requests, _) = scan_reference(&sim, &items, sched.len().max(1));
                    assert_eq!(stats, want, "{ctx}");
                    assert_eq!(scratch.requests, requests, "{ctx}");
                    evictions += want.evictions;
                }
                for (wi, wave) in waves.iter().enumerate() {
                    for chunk in [16, 3] {
                        let ctx = format!("{sets}x{ways} {policy:?} wave {wi} chunk {chunk}");
                        scratch.fetch_counts.clear();
                        let stats = sim.simulate_wave_with(&mut scratch, wave, chunk);
                        let items: Vec<_> =
                            wave.iter().map(|&(g, s, t)| (g, s.edges(), t)).collect();
                        let (want, requests, counts) = scan_reference(&sim, &items, chunk);
                        assert_eq!(stats, want, "{ctx}");
                        assert_eq!(scratch.requests, requests, "{ctx}");
                        assert_eq!(scratch.fetch_counts, counts, "{ctx}");
                    }
                }
                assert!(evictions > 0, "{sets}x{ways}: the graphs must evict");
            }
        }
    }

    #[test]
    #[should_panic(expected = "graph tag 256 does not fit")]
    fn replay_walk_rejects_graph_tag_256() {
        let g = BipartiteGraph::from_pairs("t", 2, 2, &[(0, 0), (1, 1)]).unwrap();
        let sched = EdgeSchedule::dst_major(&g);
        let sim = NaBufferSim::new(64, 8);
        let mut scratch = BufferScratch::default();
        // 255 is the largest tag that keeps source s and destination s
        // apart: four cold misses
        let stats = sim.simulate_edges_with(&mut scratch, &g, sched.edges(), 255);
        assert_eq!((stats.hits, stats.misses), (0, 4));
        sim.simulate_edges_with(&mut scratch, &g, sched.edges(), 256);
    }

    #[test]
    #[should_panic(expected = "graph tag 256 does not fit")]
    fn wave_walk_rejects_graph_tag_256() {
        let g = BipartiteGraph::from_pairs("t", 2, 2, &[(0, 0), (1, 1)]).unwrap();
        let sched = EdgeSchedule::dst_major(&g);
        let sim = NaBufferSim::new(64, 8);
        let mut scratch = BufferScratch::default();
        let stats = sim.simulate_wave_with(&mut scratch, &[(&g, &sched, 255)], 16);
        assert_eq!((stats.hits, stats.misses), (0, 4));
        sim.simulate_wave_with(&mut scratch, &[(&g, &sched, 0), (&g, &sched, 256)], 16);
    }

    #[test]
    #[should_panic(expected = "edge (2, 0) lies outside its graph")]
    fn edges_outside_the_graph_are_rejected() {
        // Source 2 of a 2×2 graph would take destination 0's key.
        let g = BipartiteGraph::from_pairs("t", 2, 2, &[(0, 0), (1, 1)]).unwrap();
        let other = BipartiteGraph::from_pairs("o", 3, 2, &[(2, 0)]).unwrap();
        let sim = NaBufferSim::new(64, 8);
        sim.simulate_edges_with(&mut BufferScratch::default(), &g, &other.edges(), 0);
    }
}

//! Reusable scratch arena for the restructuring hot path.
//!
//! The GDR-HGNN frontend restructures semantic graphs continuously —
//! one per accelerator execution, one per serving request batch — and
//! the naive implementation pays allocator traffic for every one of
//! them: fresh matching tables, BFS queues, partition FIFOs, and six
//! CSR arrays per graph. A [`Workspace`] owns all of that state once
//! and the `_into`/`_with` variants of the restructuring steps
//! ([`crate::matching::fifo_matching_into`],
//! [`crate::backbone::Backbone::select_into`],
//! [`crate::recouple::RestructuredSubgraphs::generate_into`],
//! [`crate::schedule::EdgeSchedule::restructured_into`],
//! [`crate::restructure::Restructurer::restructure_with`]) reuse it:
//! buffers are `clear()`ed, never dropped, and subgraph
//! [`BipartiteGraph`](gdr_hetgraph::BipartiteGraph)s are refilled in
//! place, row by row, by one pass over each of the parent graph's CSRs
//! ([`BipartiteGraph::split_by_side_into`](gdr_hetgraph::BipartiteGraph::split_by_side_into)).
//! At steady state — once every buffer has grown to the largest graph
//! seen — a restructuring pass performs **zero heap allocation** for
//! its intermediates. Retained products are pooled too: DRAM request
//! logs draw from [`Workspace::take_request_log`] and return through
//! [`Workspace::recycle_request_log`], so replay-heavy callers (the
//! serving cost model re-measures every cell per harness) recycle the
//! log storage instead of reallocating it per replay; only an owned
//! schedule still allocates.
//!
//! Results are byte-identical to the allocating paths, which remain
//! available as thin wrappers constructing a transient workspace; a
//! 48-seed property net (`crates/core/tests/workspace_properties.rs`)
//! pins the equivalence over long reuse sequences with interleaved
//! graph sizes.
//!
//! # Examples
//!
//! ```
//! use gdr_core::restructure::Restructurer;
//! use gdr_core::workspace::Workspace;
//! use gdr_hetgraph::gen::PowerLawConfig;
//!
//! let r = Restructurer::new();
//! let mut ws = Workspace::new();
//! for seed in 0..4 {
//!     let g = PowerLawConfig::new(60, 60, 240).generate("g", seed);
//!     r.restructure_with(&mut ws, &g);
//!     assert_eq!(ws.subgraphs.total_edges(), g.edge_count());
//!     assert_eq!(ws.edges.len(), g.edge_count());
//! }
//! ```

use std::collections::{HashMap, VecDeque};

use gdr_hetgraph::Edge;
use gdr_memsim::buffer::{Replacement, SetAssocBuffer};
use gdr_memsim::hbm::MemRequest;

use crate::backbone::Backbone;
use crate::locality::LruScratch;
use crate::matching::Matching;
use crate::recouple::{RestructuredSubgraphs, VertexPartition};

/// Pooled set-associative buffer simulation state: one
/// [`SetAssocBuffer`] (kept across runs, reset between them), a DRAM
/// request-log vector and a per-tag fetch-count table, all `clear()`ed,
/// never dropped. The NA-engine models drive their `_with` entry points
/// through one of these instead of constructing transient buffers per
/// wave.
#[derive(Debug, Clone, Default)]
pub struct BufferScratch {
    /// Pooled buffer; `None` until the first [`BufferScratch::prepare`].
    pub buffer: Option<SetAssocBuffer>,
    /// Pooled DRAM request log (cleared per prepare, capacity kept).
    pub requests: Vec<MemRequest>,
    /// Fetches per buffer tag, for the runs that count them (HiHGNN's
    /// NA waves: the "replacement times" table of Fig. 2, where a tag's
    /// replacement times are its fetches − 1). Kept by
    /// [`BufferScratch::prepare`], so the counts aggregate across runs
    /// until [`BufferScratch::reset`] or a geometry change clears them.
    pub fetch_counts: HashMap<u64, u32>,
}

impl BufferScratch {
    /// Readies the scratch for one simulation run at the given buffer
    /// geometry: the request log is cleared and the pooled buffer is
    /// reset (residency and stats restart; **fetch counts are kept**,
    /// aggregating across runs until [`BufferScratch::reset`]). A
    /// geometry change reshapes the buffer in place and clears the
    /// counts too.
    pub fn prepare(
        &mut self,
        capacity_lines: usize,
        ways: usize,
        policy: Replacement,
    ) -> (
        &mut SetAssocBuffer,
        &mut Vec<MemRequest>,
        &mut HashMap<u64, u32>,
    ) {
        self.requests.clear();
        let sets = (capacity_lines / ways).max(1);
        match &mut self.buffer {
            Some(buf) if buf.sets() == sets && buf.ways() == ways && buf.policy() == policy => {
                buf.reset();
            }
            Some(buf) => {
                buf.reshape(sets, ways, policy);
                self.fetch_counts.clear();
            }
            None => self.buffer = Some(SetAssocBuffer::new(sets, ways, policy)),
        }
        (
            self.buffer.as_mut().expect("just ensured"),
            &mut self.requests,
            &mut self.fetch_counts,
        )
    }

    /// Clears everything, fetch counts included (capacity kept).
    pub fn reset(&mut self) {
        self.requests.clear();
        self.fetch_counts.clear();
        if let Some(buf) = &mut self.buffer {
            buf.reset();
        }
    }
}

/// Scratch consumed by the matching engines and backbone selection:
/// the decoupling FIFOs, epoch-tagged bitmaps, BFS layer arrays, the
/// augmenting-DFS stack, and alternating-reachability marks. Every
/// buffer is length-reset per graph but keeps its capacity.
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    /// Per-destination BFS parent — the `Matching_FIFO` head contents
    /// of the paper's Algorithm 1.
    pub parent_of_dst: Vec<u32>,
    /// Epoch-tagged visited bitmap over destinations (`Visited Bm.`).
    pub visited_dst: Vec<u32>,
    /// The `Search_List` FIFO driving the augmenting search.
    pub search_list: VecDeque<u32>,
    /// Per-source BFS layer distances (Hopcroft-Karp phases, also the
    /// hardware decoupler's bulk-synchronous search).
    pub dist: Vec<u32>,
    /// Shared BFS queue (phase layering, König alternating paths): a
    /// `Vec` the BFS pushes to and reads through a head index, so it
    /// visits in FIFO order without popping.
    pub queue: Vec<u32>,
    /// Hopcroft-Karp's free sources with at least one edge, ascending:
    /// the BFS seeds and DFS roots of every phase after the greedy pass.
    pub free: Vec<u32>,
    /// Parent frames (source, next column index, row end) of the
    /// iterative augmenting DFS ([`crate::matching::augment`]).
    pub stack: Vec<(u32, u32, u32)>,
    /// König `Z`-set membership, source side.
    pub z_src: Vec<bool>,
    /// König `Z`-set membership, destination side.
    pub z_dst: Vec<bool>,
}

/// Scratch slot of three-subgraph generation. It holds nothing:
/// [`RestructuredSubgraphs::generate_into`] deals the parent graph's
/// CSR rows straight into the subgraphs. The type and the
/// [`Workspace::recouple_scratch`] field stay so the `generate_into`
/// signature, and every caller passing `&mut ws.recouple_scratch`, keep
/// compiling.
#[derive(Debug, Clone, Default)]
pub struct RecoupleScratch;

/// The reusable restructuring arena: output slots rebuilt in place
/// (matching, backbone, partition, subgraphs, schedule edges) plus the
/// scratch that produces them. One workspace serves any sequence of
/// graphs — sizes may differ wildly between calls; buffers resize
/// (upward allocations amortize away, downward resets are free).
///
/// Fields are public by design: the `_into` steps are usable à la carte
/// (an external engine like the hardware Decoupler model borrows
/// `matching` and `match_scratch` while leaving the rest untouched),
/// and disjoint field borrows keep the pipeline free of artificial
/// aliasing conflicts.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Matching output slot (graph decoupling result).
    pub matching: Matching,
    /// Matching-engine and backbone-selection scratch.
    pub match_scratch: MatchScratch,
    /// Backbone output slot (membership bitmaps rebuilt in place).
    pub backbone: Backbone,
    /// Four-way vertex partition output slot.
    pub partition: VertexPartition,
    /// Three-subgraph output slot; each
    /// [`BipartiteGraph`](gdr_hetgraph::BipartiteGraph) refills its CSR
    /// storage in place.
    pub subgraphs: RestructuredSubgraphs,
    /// Empty subgraph-generation scratch (see [`RecoupleScratch`]).
    pub recouple_scratch: RecoupleScratch,
    /// Schedule emission buffer: after
    /// [`Restructurer::restructure_with`](crate::restructure::Restructurer::restructure_with)
    /// this holds the restructured edge order.
    pub edges: Vec<Edge>,
    /// Retired DRAM request-log vectors, cleared but with their
    /// capacity intact. The frontend models take a log per stage
    /// through [`Workspace::take_request_log`] and callers that retire
    /// whole runs hand the storage back with
    /// [`Workspace::recycle_request_log`].
    pub request_pool: Vec<Vec<MemRequest>>,
    /// Pooled NA-buffer simulation state (set-associative buffer,
    /// request log, fetch counts) for the accelerator models' `_with`
    /// entry points.
    pub buffer_scratch: BufferScratch,
    /// Pooled fully-associative LRU analysis state for
    /// [`try_simulate_lru_with`](crate::locality::try_simulate_lru_with).
    pub lru_scratch: LruScratch,
}

impl Workspace {
    /// Creates an empty workspace. All buffers start unallocated and
    /// grow to the working-set size over the first graphs processed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes an empty DRAM request-log vector: pooled storage when a
    /// retired log has been recycled, a fresh vector otherwise.
    pub fn take_request_log(&mut self) -> Vec<MemRequest> {
        self.request_pool.pop().unwrap_or_default()
    }

    /// Returns a retired request log to the pool: the contents are
    /// cleared, the capacity is kept for the next
    /// [`Workspace::take_request_log`].
    pub fn recycle_request_log(&mut self, mut log: Vec<MemRequest>) {
        log.clear();
        self.request_pool.push(log);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::fifo_matching_into;
    use gdr_hetgraph::gen::PowerLawConfig;

    #[test]
    fn workspace_buffers_keep_capacity_across_graphs() {
        let mut ws = Workspace::new();
        let big = PowerLawConfig::new(300, 300, 1200).generate("b", 1);
        let small = PowerLawConfig::new(10, 10, 20).generate("s", 2);
        fifo_matching_into(&big, &mut ws.matching, &mut ws.match_scratch);
        let cap = ws.match_scratch.visited_dst.capacity();
        assert!(cap >= 300);
        fifo_matching_into(&small, &mut ws.matching, &mut ws.match_scratch);
        assert_eq!(
            ws.match_scratch.visited_dst.capacity(),
            cap,
            "shrinking graphs must not shed capacity"
        );
        assert_eq!(ws.matching.pair_src().len(), 10);
    }

    #[test]
    fn request_logs_recycle_with_their_capacity() {
        let mut ws = Workspace::new();
        // empty pool hands out a fresh vector
        let mut log = ws.take_request_log();
        assert!(log.is_empty() && log.capacity() == 0);
        log.extend((0..100).map(|i| MemRequest::read(i * 64, 64)));
        let cap = log.capacity();
        ws.recycle_request_log(log);
        // the recycled storage comes back cleared, capacity intact
        let reused = ws.take_request_log();
        assert!(reused.is_empty());
        assert_eq!(reused.capacity(), cap, "recycling must keep capacity");
        // pool drained again: the next take is fresh
        assert_eq!(ws.take_request_log().capacity(), 0);
    }
}

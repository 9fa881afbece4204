//! Fast locality analysis of edge schedules.
//!
//! This module answers "how much buffer thrashing does a schedule cause?"
//! with an idealized fully-associative LRU feature buffer — the
//! upper-bound of what any on-chip buffer organization can achieve. The
//! motivation experiments and the ablations do not use it: they run the
//! set-associative NA-buffer model (`gdr-accel`'s `NaBufferSim`, over
//! `gdr-memsim`'s buffer). This one is a quick, exact check of a
//! schedule's locality for tests and library users.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use gdr_hetgraph::{BipartiteGraph, GdrError, GdrResult};

use crate::schedule::EdgeSchedule;

/// Which feature class an access touches.
///
/// The NA stage reads *source features* (the neighbor being aggregated)
/// and reads-modifies-writes *destination partial sums*; both compete for
/// the same on-chip buffer capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Side {
    /// Source feature vector read.
    Src,
    /// Destination partial-sum accumulator access.
    Dst,
}

/// Result of simulating a schedule against a fully-associative LRU buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalityReport {
    name: String,
    capacity: usize,
    accesses: usize,
    src_misses: usize,
    dst_misses: usize,
}

impl LocalityReport {
    /// Schedule name this report was computed for.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Buffer capacity used, in resident feature vectors.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total accesses (2 per edge: one source read, one destination RMW).
    pub fn accesses(&self) -> usize {
        self.accesses
    }

    /// Total buffer misses (each miss is a DRAM feature fetch).
    pub fn misses(&self) -> usize {
        self.src_misses + self.dst_misses
    }

    /// Source-side misses.
    pub fn src_misses(&self) -> usize {
        self.src_misses
    }

    /// Destination-side misses.
    pub fn dst_misses(&self) -> usize {
        self.dst_misses
    }

    /// Miss rate over all accesses (0 for an empty schedule).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

/// Simulates `schedule` against a fully-associative LRU buffer holding
/// `capacity` feature vectors (sources and destination partial sums share
/// it, as in HiHGNN's NA buffer).
///
/// # Errors
///
/// Returns [`GdrError::InvalidConfig`] if `capacity == 0` — a zero-entry
/// buffer cannot hold the edge under process, so the model is undefined.
///
/// # Examples
///
/// ```
/// use gdr_hetgraph::BipartiteGraph;
/// use gdr_core::schedule::EdgeSchedule;
/// use gdr_core::locality::simulate_lru;
/// let g = BipartiteGraph::from_pairs("g", 4, 4, &[(0, 0), (1, 0), (2, 1), (3, 1)])?;
/// let rep = simulate_lru(&EdgeSchedule::dst_major(&g), 16)?;
/// // big enough buffer -> cold misses only: 4 sources + 2 destinations
/// assert_eq!(rep.misses(), 6);
/// # Ok::<(), gdr_hetgraph::GdrError>(())
/// ```
pub fn simulate_lru(schedule: &EdgeSchedule, capacity: usize) -> GdrResult<LocalityReport> {
    if capacity == 0 {
        return Err(GdrError::invalid_config(
            "capacity",
            "buffer capacity must be positive",
        ));
    }
    // key -> last-use stamp of every resident feature, and a min-heap of
    // `(stamp, key)` touches; a heap entry whose stamp no longer matches
    // `resident[key]` is stale and skipped at eviction time.
    let mut resident: HashMap<(Side, u32), u64> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(u64, Side, u32)>> = BinaryHeap::new();
    let mut stamp: u64 = 0;
    let mut touch = |key: (Side, u32)| -> bool {
        stamp += 1;
        heap.push(Reverse((stamp, key.0, key.1)));
        if resident.insert(key, stamp).is_some() {
            // hit: the old heap entry goes stale, the new stamp wins
            return false;
        }
        if resident.len() > capacity {
            // pop stale entries until a current one surfaces — that is
            // the genuinely least-recently-used resident feature
            loop {
                let Reverse((s, side, id)) = heap.pop().expect("buffer non-empty");
                let victim = (side, id);
                if resident.get(&victim) == Some(&s) {
                    resident.remove(&victim);
                    break;
                }
            }
        }
        true
    };

    let mut src_misses = 0usize;
    let mut dst_misses = 0usize;
    for e in schedule.iter() {
        src_misses += usize::from(touch((Side::Src, e.src.raw())));
        dst_misses += usize::from(touch((Side::Dst, e.dst.raw())));
    }

    Ok(LocalityReport {
        name: schedule.name().to_string(),
        capacity,
        accesses: schedule.len() * 2,
        src_misses,
        dst_misses,
    })
}

/// Lower bound on misses for any schedule and any buffer: each touched
/// vertex must be fetched at least once (compulsory misses).
pub fn compulsory_misses(g: &BipartiteGraph) -> usize {
    let src = (0..g.src_count()).filter(|&s| g.out_degree(s) > 0).count();
    let dst = (0..g.dst_count()).filter(|&d| g.in_degree(d) > 0).count();
    src + dst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backbone::BackboneStrategy;
    use crate::restructure::Restructurer;
    use gdr_hetgraph::gen::PowerLawConfig;

    #[test]
    fn infinite_buffer_gives_compulsory_misses() {
        let g = PowerLawConfig::new(50, 50, 200).generate("g", 1);
        for sched in [
            EdgeSchedule::dst_major(&g),
            EdgeSchedule::random(&g, 3),
            EdgeSchedule::src_major(&g),
        ] {
            let rep = simulate_lru(&sched, 1_000_000).unwrap();
            assert_eq!(rep.misses(), compulsory_misses(&g), "{}", sched.name());
        }
    }

    #[test]
    fn misses_monotone_in_capacity() {
        // LRU has the stack property: misses never increase with capacity.
        let g = PowerLawConfig::new(100, 100, 800)
            .dst_alpha(0.9)
            .generate("g", 2);
        let sched = EdgeSchedule::random(&g, 9);
        let curve: Vec<usize> = [4, 8, 16, 32, 64, 128, 256]
            .into_iter()
            .map(|c| simulate_lru(&sched, c).unwrap().misses())
            .collect();
        for w in curve.windows(2) {
            assert!(w[1] <= w[0], "misses increased: {curve:?}");
        }
    }

    #[test]
    fn restructured_beats_dst_major_under_pressure() {
        let g = PowerLawConfig::new(400, 400, 3200)
            .dst_alpha(0.9)
            .generate("g", 3);
        let r = Restructurer::new()
            .backbone_strategy(BackboneStrategy::KonigExact)
            .restructure(&g);
        let cap = 96; // far below the ~800-vertex working set
        let base = simulate_lru(&EdgeSchedule::dst_major(&g), cap).unwrap();
        let gdr = simulate_lru(r.schedule(), cap).unwrap();
        assert!(
            gdr.misses() < base.misses(),
            "restructured {} vs dst-major {}",
            gdr.misses(),
            base.misses()
        );
    }

    #[test]
    fn miss_rate_and_accessors() {
        let g = BipartiteGraph::from_pairs("g", 2, 2, &[(0, 0), (1, 1)]).unwrap();
        let rep = simulate_lru(&EdgeSchedule::dst_major(&g), 8).unwrap();
        assert_eq!(rep.accesses(), 4);
        assert_eq!(rep.misses(), 4); // all compulsory
        assert_eq!(rep.miss_rate(), 1.0);
        assert_eq!(rep.capacity(), 8);
        assert_eq!(rep.name(), "dst-major");
        assert_eq!(rep.src_misses() + rep.dst_misses(), rep.misses());
    }

    #[test]
    fn empty_schedule() {
        let g = BipartiteGraph::from_pairs("e", 2, 2, &[]).unwrap();
        let rep = simulate_lru(&EdgeSchedule::dst_major(&g), 4).unwrap();
        assert_eq!(rep.miss_rate(), 0.0);
        assert_eq!(rep.misses(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let g = BipartiteGraph::from_pairs("g", 1, 1, &[(0, 0)]).unwrap();
        let err = simulate_lru(&EdgeSchedule::dst_major(&g), 0).unwrap_err();
        assert!(matches!(err, GdrError::InvalidConfig { .. }), "{err}");
        panic!("{err}");
    }
}

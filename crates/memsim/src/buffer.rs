//! Set-associative on-chip buffer model.
//!
//! This is the hardware-accurate counterpart of `gdr-core`'s idealized LRU
//! analysis: HiHGNN's NA buffer is organized set-associatively, so
//! conflict misses add to the thrashing the paper measures in Fig. 2.
//! The model tracks residency only — which tags each set holds and which
//! one a miss evicts. Callers that need per-tag statistics (Fig. 2's
//! replacement times) count the misses [`SetAssocBuffer::access`]
//! reports.

/// Replacement policy of a buffer set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Replacement {
    /// Least-recently-used.
    #[default]
    Lru,
    /// First-in-first-out (cheaper hardware, what small frontends use).
    Fifo,
}

/// Outcome of one buffer access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Tag was resident.
    Hit,
    /// Tag was fetched; `evicted` carries the victim, if the set was full.
    Miss {
        /// Evicted tag, when the set had to replace.
        evicted: Option<u64>,
    },
}

impl Access {
    /// `true` for [`Access::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, Access::Hit)
    }
}

/// Buffer statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses (fetches from the next level).
    pub misses: u64,
    /// Evictions (replacements of live lines).
    pub evictions: u64,
}

impl BufferStats {
    /// Hit fraction (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// A set-associative buffer addressed by opaque 64-bit tags (one tag = one
/// resident feature vector / line).
///
/// # Examples
///
/// ```
/// use gdr_memsim::buffer::{Replacement, SetAssocBuffer};
/// let mut buf = SetAssocBuffer::new(4, 2, Replacement::Lru);
/// assert!(!buf.access(7).is_hit()); // cold miss
/// assert!(buf.access(7).is_hit());
/// assert_eq!(buf.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocBuffer {
    sets: usize,
    ways: usize,
    policy: Replacement,
    /// [`fastmod`] reciprocal of `sets` (see [`set_magic`]).
    set_magic: u64,
    /// `sets × ways` line tags, set-major; the first `fill[set]` ways of
    /// a set are resident.
    tags: Vec<u64>,
    /// Per line: the access count at its last use (LRU) or its insertion
    /// (FIFO). Every access stamps at most one line, so stamps are unique
    /// and the oldest line of a set is well defined.
    stamps: Vec<u64>,
    /// Resident lines per set.
    fill: Vec<u32>,
    stats: BufferStats,
}

/// Checks a buffer geometry and returns the [`fastmod`] reciprocal of
/// its set count, `⌈2⁶⁴ / sets⌉` (which wraps to 0 for one set).
///
/// # Panics
///
/// Panics if `sets == 0` or `ways == 0`, or if `sets` does not fit in 32
/// bits.
fn set_magic(sets: usize, ways: usize) -> u64 {
    assert!(sets > 0 && ways > 0, "degenerate buffer geometry");
    let sets = u32::try_from(sets).expect("set count fits in 32 bits");
    (u64::MAX / u64::from(sets)).wrapping_add(1)
}

/// `a % d` for a 32-bit numerator by one multiply-high instead of a
/// division; exact for every `a` and every `d` in `1..2³²` given
/// `magic = set_magic(d, _)` (Lemire, Kaser, Kurz, "Faster remainder by
/// direct computation", 2019).
fn fastmod(a: u32, magic: u64, d: u32) -> u32 {
    let low = magic.wrapping_mul(u64::from(a));
    ((u128::from(low) * u128::from(d)) >> 64) as u32
}

impl SetAssocBuffer {
    /// Creates a buffer with `sets × ways` lines.
    ///
    /// # Panics
    ///
    /// Panics if `sets == 0` or `ways == 0`, or if `sets` does not fit
    /// in 32 bits.
    pub fn new(sets: usize, ways: usize, policy: Replacement) -> Self {
        Self {
            sets,
            ways,
            policy,
            set_magic: set_magic(sets, ways),
            tags: vec![0; sets * ways],
            stamps: vec![0; sets * ways],
            fill: vec![0; sets],
            stats: BufferStats::default(),
        }
    }

    /// Builds a buffer sized for `capacity_lines` total lines with the
    /// given associativity (sets derived by division, at least 1).
    pub fn with_capacity(capacity_lines: usize, ways: usize, policy: Replacement) -> Self {
        let sets = (capacity_lines / ways).max(1);
        Self::new(sets, ways, policy)
    }

    /// Total line capacity.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity (lines per set).
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Replacement policy.
    pub fn policy(&self) -> Replacement {
        self.policy
    }

    /// Access statistics.
    pub fn stats(&self) -> &BufferStats {
        &self.stats
    }

    fn set_of(&self, tag: u64) -> usize {
        // Fibonacci hashing spreads structured vertex ids across sets;
        // the high half of the product is the 32-bit numerator.
        let hash = (tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32;
        fastmod(hash, self.set_magic, self.sets as u32) as usize
    }

    /// Touches `tag`, fetching it on a miss.
    #[inline]
    pub fn access(&mut self, tag: u64) -> Access {
        self.stats.accesses += 1;
        let set = self.set_of(tag);
        let base = set * self.ways;
        let resident = &self.tags[base..base + self.fill[set] as usize];
        if let Some(way) = resident.iter().position(|&t| t == tag) {
            if self.policy == Replacement::Lru {
                self.stamps[base + way] = self.stats.accesses;
            }
            self.stats.hits += 1;
            return Access::Hit;
        }
        self.fetch(set, tag)
    }

    /// The miss half of [`SetAssocBuffer::access`]: installs `tag` in
    /// `set`, in a free way or in place of the oldest line.
    fn fetch(&mut self, set: usize, tag: u64) -> Access {
        self.stats.misses += 1;
        let base = set * self.ways;
        let fill = self.fill[set] as usize;
        let tags = &mut self.tags[base..base + self.ways];
        let stamps = &mut self.stamps[base..base + self.ways];
        let (way, evicted) = if fill == self.ways {
            let (victim, _) = stamps
                .iter()
                .enumerate()
                .min_by_key(|&(_, &stamp)| stamp)
                .expect("ways > 0");
            self.stats.evictions += 1;
            (victim, Some(tags[victim]))
        } else {
            self.fill[set] += 1;
            (fill, None)
        };
        tags[way] = tag;
        stamps[way] = self.stats.accesses;
        Access::Miss { evicted }
    }

    /// Probes residency without changing state or statistics.
    pub fn contains(&self, tag: u64) -> bool {
        let set = self.set_of(tag);
        let base = set * self.ways;
        self.tags[base..base + self.fill[set] as usize].contains(&tag)
    }

    /// Invalidates everything and clears statistics. A reset buffer
    /// behaves exactly like a freshly constructed one on its next access
    /// stream (residency, stamps and stats all start over), which is what
    /// lets one pooled buffer stand in for a sequence of transient ones.
    pub fn reset(&mut self) {
        self.fill.iter_mut().for_each(|f| *f = 0);
        self.stats = BufferStats::default();
    }

    /// Re-geometries the buffer in place (reusing the line storage where
    /// possible) and resets it.
    ///
    /// # Panics
    ///
    /// Panics if `sets == 0` or `ways == 0`, or if `sets` does not fit
    /// in 32 bits.
    pub fn reshape(&mut self, sets: usize, ways: usize, policy: Replacement) {
        self.set_magic = set_magic(sets, ways);
        self.sets = sets;
        self.ways = ways;
        self.policy = policy;
        // Stale lines past a set's fill are never read, so only the fill
        // counts need clearing.
        self.tags.resize(sets * ways, 0);
        self.stamps.resize(sets * ways, 0);
        self.fill.resize(sets, 0);
        self.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses_counted() {
        let mut b = SetAssocBuffer::new(8, 2, Replacement::Lru);
        assert!(!b.access(1).is_hit());
        assert!(b.access(1).is_hit());
        assert!(!b.access(2).is_hit());
        let s = b.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut b = SetAssocBuffer::new(1, 2, Replacement::Lru);
        b.access(1);
        b.access(2);
        b.access(1); // 1 now MRU
        match b.access(3) {
            Access::Miss { evicted: Some(v) } => assert_eq!(v, 2),
            other => panic!("expected eviction of 2, got {other:?}"),
        }
        assert!(b.contains(1));
        assert!(!b.contains(2));
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut b = SetAssocBuffer::new(1, 2, Replacement::Fifo);
        b.access(1);
        b.access(2);
        b.access(1); // touch does not refresh FIFO order
        match b.access(3) {
            Access::Miss { evicted: Some(v) } => assert_eq!(v, 1),
            other => panic!("expected eviction of 1, got {other:?}"),
        }
    }

    #[test]
    fn capacity_and_reset() {
        let mut b = SetAssocBuffer::with_capacity(64, 4, Replacement::Lru);
        assert_eq!(b.capacity(), 64);
        b.access(9);
        b.reset();
        assert_eq!(b.stats().accesses, 0);
        assert!(!b.contains(9));
    }

    #[test]
    fn conflict_misses_exceed_full_assoc() {
        // Direct-mapped buffer suffers conflicts a fully-assoc one avoids.
        let mut dm = SetAssocBuffer::new(16, 1, Replacement::Lru);
        let mut fa = SetAssocBuffer::new(1, 16, Replacement::Lru);
        let stream: Vec<u64> = (0..8).cycle().take(256).collect();
        for &t in &stream {
            dm.access(t);
            fa.access(t);
        }
        assert!(dm.stats().misses >= fa.stats().misses);
        assert_eq!(fa.stats().misses, 8); // compulsory only
    }

    #[test]
    #[should_panic(expected = "degenerate buffer geometry")]
    fn zero_ways_rejected() {
        let _ = SetAssocBuffer::new(4, 0, Replacement::Lru);
    }

    #[test]
    fn reset_matches_fresh_construction() {
        let mut pooled = SetAssocBuffer::new(4, 2, Replacement::Lru);
        let stream: Vec<u64> = vec![1, 2, 3, 1, 9, 2, 7, 7];
        for &t in &stream {
            pooled.access(t);
        }
        pooled.reset();
        assert_eq!(pooled.stats(), &BufferStats::default());
        assert!(!pooled.contains(1));
        // The reset buffer replays the stream exactly like a fresh one.
        let mut fresh = SetAssocBuffer::new(4, 2, Replacement::Lru);
        for &t in &stream {
            assert_eq!(pooled.access(t), fresh.access(t));
        }
        assert_eq!(pooled.stats(), fresh.stats());
    }

    #[test]
    fn reshape_matches_fresh_construction() {
        let mut b = SetAssocBuffer::new(2, 1, Replacement::Fifo);
        b.access(5);
        b.reshape(8, 2, Replacement::Lru);
        assert_eq!((b.sets(), b.ways(), b.policy()), (8, 2, Replacement::Lru));
        assert_eq!(b.stats(), &BufferStats::default());
        let mut fresh = SetAssocBuffer::new(8, 2, Replacement::Lru);
        for t in [3u64, 9, 3, 11, 200, 9, 3] {
            assert_eq!(b.access(t), fresh.access(t));
        }
        assert_eq!(b.stats(), fresh.stats());
    }

    /// The buffer before its flat layout: one `Vec` of `(tag, stamp)`
    /// lines per set, `%` set indexing, and `swap_remove` + `push`
    /// replacement. The reference the flat buffer must match access for
    /// access.
    struct Reference {
        sets: usize,
        ways: usize,
        policy: Replacement,
        lines: Vec<Vec<(u64, u64)>>,
        clock: u64,
        stats: BufferStats,
    }

    impl Reference {
        fn new(sets: usize, ways: usize, policy: Replacement) -> Self {
            Self {
                sets,
                ways,
                policy,
                lines: vec![Vec::new(); sets],
                clock: 0,
                stats: BufferStats::default(),
            }
        }

        fn access(&mut self, tag: u64) -> Access {
            self.clock += 1;
            self.stats.accesses += 1;
            let set = ((tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % self.sets as u64) as usize;
            let lines = &mut self.lines[set];
            if let Some(entry) = lines.iter_mut().find(|(t, _)| *t == tag) {
                if self.policy == Replacement::Lru {
                    entry.1 = self.clock;
                }
                self.stats.hits += 1;
                return Access::Hit;
            }
            self.stats.misses += 1;
            let evicted = if lines.len() == self.ways {
                let (victim_idx, _) = lines
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (_, stamp))| *stamp)
                    .expect("set is full");
                self.stats.evictions += 1;
                Some(lines.swap_remove(victim_idx).0)
            } else {
                None
            };
            lines.push((tag, self.clock));
            Access::Miss { evicted }
        }
    }

    /// Geometries the models use: the HiHGNN NA buffer, the T4 L2 and the
    /// A100 L2 (sets, ways).
    const USED_GEOMETRIES: [(usize, usize); 3] = [(464, 8), (8_192, 16), (81_920, 16)];

    /// A random tag whose Fibonacci hash lands in `set` of `sets`: a hash
    /// `≡ set (mod sets)` with random low bits, times the inverse of the
    /// odd multiplier mod 2⁶⁴.
    fn tag_in_set(rng: &mut rand::rngs::SmallRng, set: usize, sets: usize) -> u64 {
        use rand::Rng;
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        // Newton's iteration doubles the correct low bits: 3, 6, …, 96.
        let k_inv = (0..5).fold(K, |inv, _| {
            inv.wrapping_mul(2u64.wrapping_sub(K.wrapping_mul(inv)))
        });
        assert_eq!(K.wrapping_mul(k_inv), 1);
        let (set, sets) = (set as u64, sets as u64);
        let hash = set + sets * rng.gen_range(0..=(u64::from(u32::MAX) - set) / sets);
        let tag = ((hash << 32) | rng.gen_range(0..=u64::from(u32::MAX))).wrapping_mul(k_inv);
        assert_eq!((tag.wrapping_mul(K) >> 32) % sets, set);
        tag
    }

    /// Drives the flat buffer and the reference with one random stream.
    /// Most tags target up to 32 random sets, twice as many as those sets
    /// hold, with a hot tenth taking half the accesses, so the stream
    /// hits, fills and evicts even in an 81 920-set buffer; one access in
    /// ten is a fresh random tag landing anywhere.
    fn assert_matches_reference(sets: usize, ways: usize, policy: Replacement, seed: u64) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let targets: Vec<usize> = (0..sets.min(32)).map(|_| rng.gen_range(0..sets)).collect();
        let universe: Vec<u64> = (0..2 * targets.len() * ways + 1)
            .map(|_| {
                let set = targets[rng.gen_range(0..targets.len())];
                tag_in_set(&mut rng, set, sets)
            })
            .collect();
        let hot = universe.len() / 10 + 1;
        let mut flat = SetAssocBuffer::new(sets, ways, policy);
        let mut reference = Reference::new(sets, ways, policy);
        for i in 0..3 * universe.len() + 64 {
            let tag = match rng.gen_range(0..10u32) {
                0 => rng.gen_range(0..=u64::MAX),
                1..=5 => universe[rng.gen_range(0..hot)],
                _ => universe[rng.gen_range(0..universe.len())],
            };
            let ctx = || format!("{sets}x{ways} {policy:?} seed {seed} access {i}");
            assert_eq!(flat.access(tag), reference.access(tag), "{}", ctx());
        }
        assert_eq!(
            flat.stats(),
            &reference.stats,
            "{sets}x{ways} {policy:?} seed {seed}"
        );
        assert!(reference.stats.evictions > 0, "the stream must evict");
        for set in &reference.lines {
            assert!(set.iter().all(|&(t, _)| flat.contains(t)));
        }
    }

    #[test]
    fn flat_buffer_matches_the_per_set_vec_reference() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xB0FF);
        for policy in [Replacement::Lru, Replacement::Fifo] {
            for seed in 0..24 {
                let (sets, ways) = (rng.gen_range(1..80usize), rng.gen_range(1..17usize));
                assert_matches_reference(sets, ways, policy, seed);
            }
            for (i, &(sets, ways)) in USED_GEOMETRIES.iter().enumerate() {
                assert_matches_reference(sets, ways, policy, 100 + i as u64);
            }
        }
    }

    #[test]
    fn reciprocal_set_index_equals_remainder() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xFA57);
        let used = USED_GEOMETRIES.iter().map(|&(sets, _)| sets as u32);
        for d in (1..=4096u32).chain(used) {
            let magic = set_magic(d as usize, 1);
            let edges = [0, 1, d - 1, d, d.wrapping_add(1), u32::MAX - 1, u32::MAX];
            let random = (0..64).map(|_| rng.gen_range(0..=u32::MAX));
            for a in edges.into_iter().chain(random) {
                assert_eq!(fastmod(a, magic, d), a % d, "{a} % {d}");
            }
        }
    }
}

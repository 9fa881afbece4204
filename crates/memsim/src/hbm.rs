//! Transaction-level HBM DRAM model (Ramulator substitute).
//!
//! Models the off-chip memory of Table 3: HBM 1.0 at 512 GB/s, with
//! channel/bank parallelism, per-bank open-row tracking (FR-FCFS-lite: a
//! request to the currently open row is a row hit), and DDR-style timing
//! parameters. The evaluation consumes exactly three observables —
//! latency, access counts and achieved bandwidth — which this abstraction
//! level captures.

/// A single memory transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Byte address.
    pub addr: u64,
    /// Transfer size in bytes.
    pub bytes: u32,
    /// `true` for writes, `false` for reads.
    pub write: bool,
}

impl MemRequest {
    /// Convenience read-request constructor.
    pub fn read(addr: u64, bytes: u32) -> Self {
        Self {
            addr,
            bytes,
            write: false,
        }
    }

    /// Convenience write-request constructor.
    pub fn write(addr: u64, bytes: u32) -> Self {
        Self {
            addr,
            bytes,
            write: true,
        }
    }
}

/// HBM timing/geometry configuration. All timings in memory-controller
/// clock cycles (1 GHz domain, matching HiHGNN's core clock).
#[derive(Debug, Clone, PartialEq)]
pub struct HbmConfig {
    /// Number of independent channels.
    pub channels: usize,
    /// Banks per channel.
    pub banks: usize,
    /// Open-row (page) size in bytes.
    pub row_bytes: u64,
    /// Channel interleave granularity in bytes.
    pub interleave_bytes: u64,
    /// Peak aggregate bandwidth in bytes per cycle (512 GB/s @ 1 GHz = 512).
    pub bytes_per_cycle: u64,
    /// Column access latency (row hit) in cycles.
    pub t_cas: u64,
    /// Row-to-column delay in cycles.
    pub t_rcd: u64,
    /// Precharge latency in cycles.
    pub t_rp: u64,
}

impl HbmConfig {
    /// HBM 1.0 as configured in Table 3: 512 GB/s, 8 channels, 16 banks
    /// per channel, 2 KiB rows, 256 B interleave.
    pub fn hbm1_512gbps() -> Self {
        Self {
            channels: 8,
            banks: 16,
            row_bytes: 2048,
            interleave_bytes: 256,
            bytes_per_cycle: 512,
            t_cas: 14,
            t_rcd: 14,
            t_rp: 14,
        }
    }

    /// Per-channel data-bus throughput in bytes per cycle.
    pub fn channel_bytes_per_cycle(&self) -> u64 {
        (self.bytes_per_cycle / self.channels as u64).max(1)
    }
}

/// Access statistics accumulated by the model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HbmStats {
    /// Read transactions served.
    pub reads: u64,
    /// Write transactions served.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Requests that hit an open row.
    pub row_hits: u64,
    /// Requests that required activate (+precharge) first.
    pub row_misses: u64,
    /// Cycles the data buses were busy, summed over channels.
    pub busy_cycles: u64,
    /// Completion time of the latest transaction.
    pub last_completion: u64,
}

impl HbmStats {
    /// Total transactions.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total bytes moved.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// The HBM model: per-channel, per-bank open-row state plus a busy-until
/// horizon per channel.
///
/// # Examples
///
/// ```
/// use gdr_memsim::hbm::{HbmConfig, HbmModel, MemRequest};
/// let mut hbm = HbmModel::new(HbmConfig::hbm1_512gbps());
/// let done = hbm.access_at(0, MemRequest::read(0x1000, 256));
/// assert!(done > 0);
/// assert_eq!(hbm.stats().reads, 1);
/// ```
#[derive(Debug, Clone)]
pub struct HbmModel {
    cfg: HbmConfig,
    decode: Decode,
    open_rows: Vec<Option<u64>>, // [channel * banks + bank]
    channel_free: Vec<u64>,
    stats: HbmStats,
}

/// The address and burst arithmetic of a power-of-two geometry, fixed
/// once in [`HbmModel::new`]: every field is a shift or a mask.
#[derive(Debug, Clone, Copy)]
struct Decode {
    /// `log2(interleave_bytes)`.
    channel_shift: u32,
    /// `channels - 1`.
    channel_mask: u64,
    /// `log2(row_bytes)`.
    bank_shift: u32,
    /// `banks - 1`.
    bank_mask: u64,
    /// `log2(row_bytes * banks)`.
    row_shift: u32,
    /// `log2(channel_bytes_per_cycle)`.
    burst_shift: u32,
}

impl Decode {
    /// # Panics
    ///
    /// Panics unless channels, banks, row and interleave bytes and the
    /// per-channel bytes per cycle are all powers of two.
    fn new(cfg: &HbmConfig) -> Self {
        let pow2 = |what: &str, x: u64| {
            assert!(
                x.is_power_of_two(),
                "hbm geometry must be powers of two: {what} is {x}"
            );
            x.trailing_zeros()
        };
        let channel_bits = pow2("channels", cfg.channels as u64);
        let bank_bits = pow2("banks", cfg.banks as u64);
        let bank_shift = pow2("row_bytes", cfg.row_bytes);
        assert!(
            bank_shift + bank_bits < u64::BITS,
            "hbm geometry overflows: row_bytes * banks exceeds u64"
        );
        Self {
            channel_shift: pow2("interleave_bytes", cfg.interleave_bytes),
            channel_mask: (1 << channel_bits) - 1,
            bank_shift,
            bank_mask: (1 << bank_bits) - 1,
            row_shift: bank_shift + bank_bits,
            burst_shift: pow2("channel bytes per cycle", cfg.channel_bytes_per_cycle()),
        }
    }
}

impl HbmModel {
    /// Creates a model from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero channels or banks, or if its
    /// channels, banks, row bytes, interleave bytes or per-channel bytes
    /// per cycle ([`HbmConfig::channel_bytes_per_cycle`]) are not powers
    /// of two: the model decodes addresses and burst lengths with shifts
    /// and masks.
    pub fn new(cfg: HbmConfig) -> Self {
        assert!(cfg.channels > 0 && cfg.banks > 0, "degenerate hbm geometry");
        Self {
            decode: Decode::new(&cfg),
            open_rows: vec![None; cfg.channels * cfg.banks],
            channel_free: vec![0; cfg.channels],
            stats: HbmStats::default(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HbmConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &HbmStats {
        &self.stats
    }

    /// Resets statistics and row-buffer state, keeping the configuration.
    pub fn reset(&mut self) {
        self.open_rows.iter_mut().for_each(|r| *r = None);
        self.channel_free.iter_mut().for_each(|c| *c = 0);
        self.stats = HbmStats::default();
    }

    /// Issues a transaction no earlier than cycle `now`; returns its
    /// completion cycle.
    pub fn access_at(&mut self, now: u64, req: MemRequest) -> u64 {
        let d = self.decode;
        let ch = ((req.addr >> d.channel_shift) & d.channel_mask) as usize;
        let bank = ((req.addr >> d.bank_shift) & d.bank_mask) as usize;
        let row = req.addr >> d.row_shift;
        let slot = ch * self.cfg.banks + bank;

        let hit = self.open_rows[slot] == Some(row);
        let prep = if hit {
            self.stats.row_hits += 1;
            self.cfg.t_cas
        } else {
            self.stats.row_misses += 1;
            self.open_rows[slot] = Some(row);
            self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas
        };
        let burst = (1u64 << d.burst_shift) - 1;
        let transfer = ((req.bytes as u64 + burst) >> d.burst_shift).max(1);
        let start = now.max(self.channel_free[ch]);
        let completion = start + prep + transfer;
        // The data bus is held for the transfer; activation overlaps with
        // other banks' traffic (bank-level parallelism).
        self.channel_free[ch] = start + transfer;
        self.stats.busy_cycles += transfer;
        if req.write {
            self.stats.writes += 1;
            self.stats.bytes_written += req.bytes as u64;
        } else {
            self.stats.reads += 1;
            self.stats.bytes_read += req.bytes as u64;
        }
        self.stats.last_completion = self.stats.last_completion.max(completion);
        completion
    }

    /// Issues every request of a trace as early as possible (all arrive at
    /// cycle `start`); returns the makespan (cycle when the last
    /// transaction finishes).
    pub fn drain_trace<I>(&mut self, start: u64, trace: I) -> u64
    where
        I: IntoIterator<Item = MemRequest>,
    {
        let mut last = start;
        for req in trace {
            last = last.max(self.access_at(start, req));
        }
        last
    }

    /// Achieved bandwidth utilization over `elapsed_cycles`:
    /// bytes moved / (peak bytes per cycle × elapsed).
    pub fn bandwidth_utilization(&self, elapsed_cycles: u64) -> f64 {
        if elapsed_cycles == 0 {
            return 0.0;
        }
        self.stats.bytes_total() as f64 / (self.cfg.bytes_per_cycle as f64 * elapsed_cycles as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The model as it decoded before the shifts: every address field
    /// and burst length by division and remainder.
    struct DivisionReference {
        cfg: HbmConfig,
        open_rows: Vec<Option<u64>>,
        channel_free: Vec<u64>,
        stats: HbmStats,
    }

    impl DivisionReference {
        fn new(cfg: HbmConfig) -> Self {
            Self {
                open_rows: vec![None; cfg.channels * cfg.banks],
                channel_free: vec![0; cfg.channels],
                stats: HbmStats::default(),
                cfg,
            }
        }

        fn access_at(&mut self, now: u64, req: MemRequest) -> u64 {
            let ch = ((req.addr / self.cfg.interleave_bytes) % self.cfg.channels as u64) as usize;
            let bank = ((req.addr / self.cfg.row_bytes) % self.cfg.banks as u64) as usize;
            let row = req.addr / (self.cfg.row_bytes * self.cfg.banks as u64);
            let slot = ch * self.cfg.banks + bank;
            let prep = if self.open_rows[slot] == Some(row) {
                self.stats.row_hits += 1;
                self.cfg.t_cas
            } else {
                self.stats.row_misses += 1;
                self.open_rows[slot] = Some(row);
                self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas
            };
            let transfer = (req.bytes as u64)
                .div_ceil(self.cfg.channel_bytes_per_cycle())
                .max(1);
            let start = now.max(self.channel_free[ch]);
            let completion = start + prep + transfer;
            self.channel_free[ch] = start + transfer;
            self.stats.busy_cycles += transfer;
            if req.write {
                self.stats.writes += 1;
                self.stats.bytes_written += req.bytes as u64;
            } else {
                self.stats.reads += 1;
                self.stats.bytes_read += req.bytes as u64;
            }
            self.stats.last_completion = self.stats.last_completion.max(completion);
            completion
        }
    }

    /// A random power-of-two geometry (the first case is Table 3's).
    fn arb_config(case: u64, rng: &mut SmallRng) -> HbmConfig {
        if case == 0 {
            return HbmConfig::hbm1_512gbps();
        }
        let channels = 1usize << rng.gen_range(0..5u32);
        HbmConfig {
            channels,
            banks: 1 << rng.gen_range(0..6u32),
            row_bytes: 1 << rng.gen_range(5..13u32),
            interleave_bytes: 1 << rng.gen_range(5..10u32),
            // per-channel bytes per cycle from 1 to 256
            bytes_per_cycle: (channels as u64) << rng.gen_range(0..9u32),
            t_cas: rng.gen_range(1..20u64),
            t_rcd: rng.gen_range(0..20u64),
            t_rp: rng.gen_range(0..20u64),
        }
    }

    #[test]
    fn shift_decoding_matches_division_on_random_streams() {
        for case in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(case);
            let cfg = arb_config(case, &mut rng);
            let mut model = HbmModel::new(cfg.clone());
            let mut reference = DivisionReference::new(cfg.clone());
            // Clustered and streaming addresses reach row hits; wide
            // ones reach the upper address bits.
            let base: u64 = rng.gen_range(0..1u64 << 36);
            let mut now = 0u64;
            for i in 0..2000u64 {
                let addr = match rng.gen_range(0..3u32) {
                    0 => base + i * 64,
                    1 => base + rng.gen_range(0..1u64 << 16),
                    _ => rng.gen_range(0..u64::MAX),
                };
                let bytes = match rng.gen_range(0..4u32) {
                    0 => 0,
                    1 => rng.gen_range(1..=1024u32),
                    2 => 256,
                    _ => rng.gen_range(0..=u32::MAX),
                };
                let req = MemRequest {
                    addr,
                    bytes,
                    write: rng.gen_bool(0.3),
                };
                if rng.gen_bool(0.1) {
                    now += rng.gen_range(0..200u64);
                }
                assert_eq!(
                    model.access_at(now, req),
                    reference.access_at(now, req),
                    "case {case}, request {i}: {req:?} on {cfg:?}"
                );
            }
            assert_eq!(model.stats(), &reference.stats, "case {case}: {cfg:?}");
        }
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn non_power_of_two_geometry_is_rejected() {
        HbmModel::new(HbmConfig {
            banks: 12,
            ..HbmConfig::hbm1_512gbps()
        });
    }

    #[test]
    fn every_non_power_of_two_field_is_rejected() {
        let base = HbmConfig::hbm1_512gbps();
        for cfg in [
            HbmConfig {
                channels: 6,
                bytes_per_cycle: 6 * 64,
                ..base.clone()
            },
            HbmConfig {
                row_bytes: 3000,
                ..base.clone()
            },
            HbmConfig {
                interleave_bytes: 96,
                ..base.clone()
            },
            // 8 channels sharing 500 B per cycle: 62 B each
            HbmConfig {
                bytes_per_cycle: 500,
                ..base.clone()
            },
        ] {
            let built = std::panic::catch_unwind(|| HbmModel::new(cfg.clone()));
            assert!(built.is_err(), "accepted {cfg:?}");
        }
    }

    #[test]
    fn sequential_reads_hit_rows() {
        let mut hbm = HbmModel::new(HbmConfig::hbm1_512gbps());
        // stay inside one interleave granule & row
        for i in 0..4 {
            hbm.access_at(0, MemRequest::read(i * 64, 64));
        }
        assert_eq!(hbm.stats().row_misses, 1);
        assert_eq!(hbm.stats().row_hits, 3);
        assert_eq!(hbm.stats().bytes_read, 256);
    }

    #[test]
    fn scattered_reads_miss_rows() {
        let mut hbm = HbmModel::new(HbmConfig::hbm1_512gbps());
        let stride =
            HbmConfig::hbm1_512gbps().row_bytes * HbmConfig::hbm1_512gbps().banks as u64 * 7; // distinct rows, same bank pattern
        for i in 0..8 {
            hbm.access_at(0, MemRequest::read(i * stride, 64));
        }
        assert_eq!(hbm.stats().row_hits, 0);
        assert_eq!(hbm.stats().row_misses, 8);
    }

    #[test]
    fn channels_serve_in_parallel() {
        let cfg = HbmConfig::hbm1_512gbps();
        let interleave = cfg.interleave_bytes;
        let mut hbm = HbmModel::new(cfg.clone());
        // 8 requests on 8 distinct channels: makespan ≈ one request's time
        let t_parallel = hbm.drain_trace(0, (0..8).map(|i| MemRequest::read(i * interleave, 256)));
        let mut hbm2 = HbmModel::new(cfg);
        // 8 requests on one channel: serialized transfers
        let t_serial =
            hbm2.drain_trace(0, (0..8).map(|i| MemRequest::read(i * 8 * interleave, 256)));
        assert!(
            t_serial > t_parallel,
            "serial {t_serial} should exceed parallel {t_parallel}"
        );
    }

    #[test]
    fn writes_and_reads_tracked_separately() {
        let mut hbm = HbmModel::new(HbmConfig::hbm1_512gbps());
        hbm.access_at(0, MemRequest::write(0, 128));
        hbm.access_at(0, MemRequest::read(4096, 64));
        let s = hbm.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_written, 128);
        assert_eq!(s.bytes_read, 64);
        assert_eq!(s.accesses(), 2);
        assert_eq!(s.bytes_total(), 192);
    }

    #[test]
    fn utilization_bounded_by_one() {
        let mut hbm = HbmModel::new(HbmConfig::hbm1_512gbps());
        let end = hbm.drain_trace(0, (0..1000).map(|i| MemRequest::read(i * 256, 256)));
        let util = hbm.bandwidth_utilization(end);
        assert!(util > 0.0 && util <= 1.0, "util {util}");
    }

    #[test]
    fn reset_clears_state() {
        let mut hbm = HbmModel::new(HbmConfig::hbm1_512gbps());
        hbm.access_at(0, MemRequest::read(0, 64));
        hbm.reset();
        assert_eq!(hbm.stats().accesses(), 0);
        assert_eq!(hbm.stats().last_completion, 0);
    }

    #[test]
    fn zero_elapsed_utilization_is_zero() {
        let hbm = HbmModel::new(HbmConfig::hbm1_512gbps());
        assert_eq!(hbm.bandwidth_utilization(0), 0.0);
    }
}

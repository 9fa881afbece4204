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
    open_rows: Vec<Option<u64>>, // [channel * banks + bank]
    channel_free: Vec<u64>,
    stats: HbmStats,
}

impl HbmModel {
    /// Creates a model from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero channels or banks.
    pub fn new(cfg: HbmConfig) -> Self {
        assert!(cfg.channels > 0 && cfg.banks > 0, "degenerate hbm geometry");
        Self {
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

    fn channel_of(&self, addr: u64) -> usize {
        ((addr / self.cfg.interleave_bytes) % self.cfg.channels as u64) as usize
    }

    fn bank_of(&self, addr: u64) -> usize {
        ((addr / self.cfg.row_bytes) % self.cfg.banks as u64) as usize
    }

    fn row_of(&self, addr: u64) -> u64 {
        addr / (self.cfg.row_bytes * self.cfg.banks as u64)
    }

    /// Issues a transaction no earlier than cycle `now`; returns its
    /// completion cycle.
    pub fn access_at(&mut self, now: u64, req: MemRequest) -> u64 {
        let ch = self.channel_of(req.addr);
        let bank = self.bank_of(req.addr);
        let row = self.row_of(req.addr);
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
        let transfer = (req.bytes as u64)
            .div_ceil(self.cfg.channel_bytes_per_cycle())
            .max(1);
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

//! Latency/throughput/queue metrics and the serve record assembly.
//!
//! Converts a raw [`SimResult`] into the `serve` record family of the
//! `gdr-bench/v1` schema: p50/p95/p99/mean/max latency, throughput,
//! batch shape, time-weighted queue depths, DRAM traffic, feature-cache
//! hit rate, shard-miss count, autoscale shape (peak replicas and
//! total cold-start latency), `replica_seconds` — the integral of
//! active replicas over virtual time, the cost-of-goods denominator for
//! comparing autoscale policies on efficiency — the fault family
//! (`dropped`, `availability`, `p99_under_failure_ns`, `failover_ns`,
//! `requeued_batches`), and `slo_violation_rate` — the fraction of this
//! row's completions whose end-to-end latency exceeded the pool's
//! [`SloSpec`] p99 target (0 when no SLO is set) — pool-wide (`"ALL"`)
//! and per distinct platform. Every value is a pure function of the
//! scenario configuration, so records diff byte-for-byte across runs.
//!
//! The record reads a [`SimResult`]'s terminal request states, its run
//! scalars and its [`RecordTotals`]: one [`RowTotals`] per row, summed
//! as each batch starts, each replica cold-starts and each event is
//! sampled. Per-batch and per-activation detail travels only in the
//! [`TraceEvent`] stream, which the breakdown folds.

use std::collections::HashMap;

use gdr_system::report::{
    BreakdownRecord, BreakdownStage, ServeRunRecord, ServeScenarioRecord, BREAKDOWN_STAGE_KEYS,
    SERVE_METRIC_KEYS,
};

use crate::batcher::BatchPolicy;
use crate::fault::{plan_label, FaultSpec};
use crate::scheduler::{PoolConfig, SchedPolicy, SimResult, SloSpec};
use crate::trace::TraceEvent;
use crate::workload::{Traffic, NS_PER_S};

/// The running totals behind one record row (see [`RecordTotals`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RowTotals {
    /// Batches started.
    pub batches: u64,
    /// Requests those batches carried.
    pub batched_requests: u64,
    /// DRAM traffic charged to those batches, bytes.
    pub dram_bytes: u64,
    /// Batches that hit the slot's feature cache.
    pub cache_hits: u64,
    /// Batches that cold-bound a dataset outside the slot's shard.
    pub shard_misses: u64,
    /// Slots that started at least one batch.
    pub served_slots: u64,
    /// Autoscale cold-start delay paid, ns.
    pub cold_start_ns: u64,
    /// Queued requests integrated over the sampled span, requests × ns.
    pub depth_ns: f64,
    /// The deepest queue at any sample, requests.
    pub max_depth: usize,
    /// Active replicas integrated over the sampled span, replicas × ns.
    pub replica_ns: f64,
    /// The last sample's depth and active replicas, charged to the
    /// interval that follows it.
    last: (usize, usize),
}

/// What the serve record reads of a run, summed as the simulator runs:
/// row 0 is the pool, row `1 + p` the slots of cost-model platform `p`.
/// Each sample charges the interval since the one before at the state
/// sampled then, so the depth and replica-time integrals take the same
/// `f64` additions, in the same order, as integrating a log of every
/// sample would.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordTotals {
    /// One total per record row.
    pub rows: Vec<RowTotals>,
    /// Virtual time from the first sample to the last, ns.
    pub span_ns: u64,
    /// Virtual time of the last sample, ns.
    last_ns: Option<u64>,
}

impl RecordTotals {
    /// Empty totals for a cost model of `platforms` platforms.
    pub fn new(platforms: usize) -> Self {
        Self {
            rows: vec![RowTotals::default(); 1 + platforms],
            span_ns: 0,
            last_ns: None,
        }
    }

    /// The pool row (`None`) or the row of platform `p` (`Some(p)`).
    pub fn row(&self, platform: Option<usize>) -> &RowTotals {
        &self.rows[platform.map_or(0, |p| 1 + p)]
    }

    /// A batch of `size` requests started on a slot of `platform`;
    /// `first` marks the slot's first batch.
    pub(crate) fn start(
        &mut self,
        platform: usize,
        size: usize,
        dram_bytes: u64,
        cache_hit: bool,
        shard_miss: bool,
        first: bool,
    ) {
        for row in [0, 1 + platform] {
            let row = &mut self.rows[row];
            row.batches += 1;
            row.batched_requests += size as u64;
            row.dram_bytes += dram_bytes;
            row.cache_hits += u64::from(cache_hit);
            row.shard_misses += u64::from(shard_miss);
            row.served_slots += u64::from(first);
        }
    }

    /// The autoscaler activated a slot of `platform`, paying `delay_ns`.
    pub(crate) fn cold_start(&mut self, platform: usize, delay_ns: u64) {
        for row in [0, 1 + platform] {
            self.rows[row].cold_start_ns += delay_ns;
        }
    }

    /// The queues at `now_ns`: `batcher_pending` requests gathering, and
    /// each slot's `(platform, queued requests, active and up)`. Pool
    /// depth counts the batcher, a platform's depth its slot queues.
    pub(crate) fn sample(
        &mut self,
        now_ns: u64,
        batcher_pending: usize,
        slots: impl Iterator<Item = (usize, usize, bool)>,
    ) {
        let dt = now_ns - self.last_ns.unwrap_or(now_ns);
        self.last_ns = Some(now_ns);
        self.span_ns += dt;
        for row in &mut self.rows {
            let (depth, active) = std::mem::take(&mut row.last);
            row.depth_ns += depth as f64 * dt as f64;
            row.replica_ns += active as f64 * dt as f64;
        }
        self.rows[0].last.0 = batcher_pending;
        for (platform, queued, active) in slots {
            for row in [0, 1 + platform] {
                self.rows[row].last.0 += queued;
                self.rows[row].last.1 += usize::from(active);
            }
        }
        for row in &mut self.rows {
            row.max_depth = row.max_depth.max(row.last.0);
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted sample.
///
/// The convention, chosen once here and used by every latency metric
/// in the crate: the value at 1-based rank `ceil(pct / 100 × len)`,
/// with the rank clamped into `[1, len]`. Consequences worth spelling
/// out rather than leaving implicit:
///
/// * the **empty slice** yields 0 (there is no sample to report, and
///   the record schema has no null);
/// * a **single sample** is every percentile of itself;
/// * **`pct <= 0`** clamps to rank 1 — the minimum — rather than
///   panicking or interpolating below the data;
/// * **`pct >= 100`** clamps to rank `len` — the maximum — so `p100`
///   and anything above it equal `max_ns`.
///
/// Nearest-rank always returns an observed sample (no interpolation),
/// which keeps percentiles of integer nanoseconds integers and makes
/// records byte-stable across platforms.
///
/// # Examples
///
/// ```
/// use gdr_serve::metrics::percentile;
/// let xs = [10, 20, 30, 40];
/// assert_eq!(percentile(&xs, 50.0), 20);
/// assert_eq!(percentile(&xs, 99.0), 40);
/// // The documented edges:
/// assert_eq!(percentile(&[], 50.0), 0); // empty ⇒ 0
/// assert_eq!(percentile(&[42], 1.0), 42); // single sample ⇒ itself
/// assert_eq!(percentile(&xs, 0.0), 10); // pct <= 0 ⇒ minimum
/// assert_eq!(percentile(&xs, 100.0), 40); // pct >= 100 ⇒ maximum
/// assert_eq!(percentile(&xs, 250.0), 40);
/// ```
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One completed request's end-to-end latency, attributed stage by
/// stage. The five components always sum to `latency_ns` **exactly**
/// (integer nanoseconds, no rounding): the scheduler stamps the batch
/// seal, every stall episode, and the bind/execute split of the final
/// service span, and completion time is by construction
/// `start + bind + service`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestBreakdown {
    /// Request id.
    pub request: u64,
    /// End-to-end latency (arrival to completion), ns.
    pub latency_ns: u64,
    /// Sealed and waiting for (or queued at) a replica, stall episodes
    /// excluded, ns. Partial executions voided by a crash land here:
    /// the time re-served after a migration was spent *waiting for the
    /// completion that counts*.
    pub queue_wait_ns: u64,
    /// Arrival to batch seal, ns.
    pub batch_form_ns: u64,
    /// The shard-miss cold-bind penalty of the completing service
    /// span, slowdown-stretched, ns (0 when the replica held the
    /// shard).
    pub bind_ns: u64,
    /// Pure batch execution of the completing service span,
    /// slowdown-stretched, ns.
    pub service_ns: u64,
    /// Parked or orphaned with no live replica (or no primary) to run
    /// on, ns.
    pub stall_ns: u64,
}

impl RequestBreakdown {
    /// The sum of the five stage components — always equals
    /// [`latency_ns`](Self::latency_ns).
    pub fn component_sum(&self) -> u64 {
        self.queue_wait_ns + self.batch_form_ns + self.bind_ns + self.service_ns + self.stall_ns
    }
}

/// Folds a trace into per-request latency attributions, in completion
/// order (the order of `result.completed`).
///
/// Only [`TraceEvent::BatchStarted`] carries attribution, and only the
/// *last* start per request corresponds to the completion that counts
/// (earlier spans were voided by a crash and re-issued), so later
/// events overwrite earlier ones. Dropped requests never complete and
/// are not attributed. `events` must come from the same run as
/// `result`; requests missing from the trace (impossible for a
/// complete trace) are skipped. Starts are keyed by request id, so the
/// fold reads each input once: linear in the run's length.
pub fn request_breakdowns(result: &SimResult, events: &[TraceEvent]) -> Vec<RequestBreakdown> {
    /// What the final start span recorded for one request.
    struct Started {
        arrival_ns: u64,
        formed_ns: u64,
        start_ns: u64,
        bind_ns: u64,
        service_ns: u64,
        stall_ns: u64,
    }
    let mut starts: HashMap<u64, Started> = HashMap::with_capacity(result.completed.len());
    for event in events {
        let TraceEvent::BatchStarted {
            time_ns,
            formed_ns,
            bind_ns,
            service_ns,
            stall_ns,
            requests,
            ..
        } = event
        else {
            continue;
        };
        for &(id, arrival_ns) in requests {
            // A later start voids the earlier one (crash + re-issue).
            starts.insert(
                id,
                Started {
                    arrival_ns,
                    formed_ns: *formed_ns,
                    start_ns: *time_ns,
                    bind_ns: *bind_ns,
                    service_ns: *service_ns,
                    stall_ns: *stall_ns,
                },
            );
        }
    }
    result
        .completed
        .iter()
        .filter_map(|c| {
            let s = starts.get(&c.request.id)?;
            Some(RequestBreakdown {
                request: c.request.id,
                latency_ns: c.latency_ns(),
                queue_wait_ns: (s.start_ns - s.formed_ns) - s.stall_ns,
                batch_form_ns: s.formed_ns - s.arrival_ns,
                bind_ns: s.bind_ns,
                service_ns: s.service_ns,
                stall_ns: s.stall_ns,
            })
        })
        .collect()
}

/// Aggregates a trace into the scenario's [`BreakdownRecord`]: one
/// [`BreakdownStage`] per [`BREAKDOWN_STAGE_KEYS`] entry with
/// mean/p50/p99 over the completed requests. `mean_latency_ns` is the
/// sum of the per-stage means, so the family's headline invariant —
/// components sum to end-to-end latency — holds exactly in the record,
/// not just per request.
pub fn breakdown_record(
    scenario: &str,
    seed: u64,
    result: &SimResult,
    events: &[TraceEvent],
) -> BreakdownRecord {
    aggregate_breakdowns(scenario, seed, &request_breakdowns(result, events))
}

/// [`breakdown_record`] over already-folded per-request rows.
pub(crate) fn aggregate_breakdowns(
    scenario: &str,
    seed: u64,
    per_request: &[RequestBreakdown],
) -> BreakdownRecord {
    let n = per_request.len();
    let stages = BREAKDOWN_STAGE_KEYS
        .iter()
        .map(|&key| {
            let mut samples: Vec<u64> = per_request
                .iter()
                .map(|b| match key {
                    "queue_wait_ns" => b.queue_wait_ns,
                    "batch_form_ns" => b.batch_form_ns,
                    "bind_ns" => b.bind_ns,
                    "service_ns" => b.service_ns,
                    "stall_ns" => b.stall_ns,
                    other => unreachable!("unknown breakdown stage key {other}"),
                })
                .collect();
            samples.sort_unstable();
            BreakdownStage {
                stage: key.to_string(),
                mean_ns: if n == 0 {
                    0.0
                } else {
                    samples.iter().sum::<u64>() as f64 / n as f64
                },
                p50_ns: percentile(&samples, 50.0) as f64,
                p99_ns: percentile(&samples, 99.0) as f64,
            }
        })
        .collect::<Vec<_>>();
    BreakdownRecord {
        scenario: scenario.to_string(),
        seed,
        requests: n as u64,
        mean_latency_ns: stages.iter().map(|s| s.mean_ns).sum(),
        stages,
    }
}

/// Builds the scenario record for one simulated scenario.
///
/// `platform_names` maps cost-model platform indices (as referenced by
/// `result.replica_platforms`) to labels. The record carries an `"ALL"`
/// aggregate row first, then one row per distinct platform in
/// first-replica order.
#[allow(clippy::too_many_arguments)]
pub fn scenario_record(
    scenario: &str,
    traffic: &Traffic,
    batch: BatchPolicy,
    sched: SchedPolicy,
    pool: &PoolConfig,
    faults: &FaultSpec,
    control: bool,
    result: &SimResult,
    platform_names: &[String],
) -> ServeScenarioRecord {
    let mut runs = vec![run_record("ALL", result, faults, pool.slo, None)];
    let mut seen: Vec<usize> = Vec::new();
    for &p in &result.replica_platforms {
        if !seen.contains(&p) {
            seen.push(p);
            runs.push(run_record(
                &platform_names[p],
                result,
                faults,
                pool.slo,
                Some(p),
            ));
        }
    }
    ServeScenarioRecord {
        scenario: scenario.to_string(),
        arrival: traffic.process.name().to_string(),
        rate_rps: traffic.process.rate_rps(),
        batch: batch.label(),
        scheduler: sched.name().to_string(),
        replicas: result.initial_replicas as u64,
        shards: if pool.shards > 1 {
            pool.shards as u64
        } else {
            0
        },
        cache_bytes: pool.cache_bytes,
        autoscale: {
            // The controller label carries the SLO when one is set:
            // `"off+slo:…"` for a static pool measured against a
            // target, `"queue:…+slo:…"` when the SLO controller
            // supersedes the queue thresholds.
            let base = pool
                .autoscale
                .map_or_else(|| "off".to_string(), |a| a.label());
            match pool.slo {
                None => base,
                Some(slo) => format!("{base}+{}", slo.label()),
            }
        },
        faults: plan_label(faults, control),
        seed: traffic.seed,
        requests: traffic.requests as u64,
        runs,
    }
}

/// One aggregate row: over the whole pool (`platform == None`) or over
/// the replicas of one platform index.
fn run_record(
    label: &str,
    result: &SimResult,
    faults: &FaultSpec,
    slo: Option<SloSpec>,
    platform: Option<usize>,
) -> ServeRunRecord {
    let on_platform =
        |replica: usize| platform.is_none_or(|p| result.replica_platforms[replica] == p);

    let mut latencies: Vec<u64> = result
        .completed
        .iter()
        .filter(|c| on_platform(c.replica))
        .map(|c| c.latency_ns())
        .collect();
    latencies.sort_unstable();
    let completed = latencies.len();
    let mean_ns = if completed == 0 {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / completed as f64
    };

    let row = result.totals.row(platform);
    let mean_batch_size = if row.batches == 0 {
        0.0
    } else {
        row.batched_requests as f64 / row.batches as f64
    };
    // Time-weighted queue depth over the event samples.
    let mean_queue_depth = if result.totals.span_ns == 0 {
        0.0
    } else {
        row.depth_ns / result.totals.span_ns as f64
    };

    let throughput_rps = if result.makespan_ns == 0 {
        0.0
    } else {
        completed as f64 * NS_PER_S as f64 / result.makespan_ns as f64
    };

    // Cost of goods: the integral of active replicas over virtual time
    // ("replica-seconds"), pool-wide or restricted to one platform's
    // slots — the denominator for comparing autoscale policies on
    // efficiency rather than tails alone.
    let replica_seconds = row.replica_ns / NS_PER_S as f64;

    // The feature-cache hit rate is over the cache-eligible batches:
    // shard misses bind transiently and never touch the cache.
    let cache_eligible = row.batches - row.shard_misses;
    let cache_hit_rate = if cache_eligible == 0 {
        0.0
    } else {
        row.cache_hits as f64 / cache_eligible as f64
    };
    let replicas_max = match platform {
        None => result.replicas_max as u64,
        // Per-platform peak concurrency is not sampled; report the
        // number of this platform's slots that ever served a batch.
        Some(_) => row.served_slots,
    };

    // Fault metrics. Drops attribute to the platform of the replica they
    // died on; in-transit drops (no replica) count only in the pool-wide
    // row. Availability is the fraction of this row's terminated
    // requests that completed within the plan's deadline (no deadline =
    // any completion counts; nothing terminated = fully available).
    // `p99_under_failure_ns` restricts the tail to requests arriving at
    // or after the plan's first fault — the failure-window tail the
    // healthy p99 would dilute.
    let dropped = result
        .dropped
        .iter()
        .filter(|d| match d.replica {
            Some(r) => on_platform(r),
            None => platform.is_none(),
        })
        .count();
    let within_deadline =
        |latency_ns: u64| -> bool { faults.deadline_ns == 0 || latency_ns <= faults.deadline_ns };
    let available = latencies.iter().filter(|&&l| within_deadline(l)).count();
    let availability = if completed + dropped == 0 {
        1.0
    } else {
        available as f64 / (completed + dropped) as f64
    };
    let p99_under_failure_ns = match faults.first_fault_ns() {
        None => 0.0,
        Some(first) => {
            let mut tail: Vec<u64> = result
                .completed
                .iter()
                .filter(|c| on_platform(c.replica) && c.request.arrival_ns >= first)
                .map(|c| c.latency_ns())
                .collect();
            tail.sort_unstable();
            percentile(&tail, 99.0) as f64
        }
    };

    // SLO violations: the fraction of this row's completions whose
    // end-to-end latency exceeded the pool's p99 target. Headroom is a
    // controller steering margin, not part of the contract, so the
    // *target* is what violations are measured against. No SLO (or no
    // completions) reports 0 — the key is always present.
    let slo_violation_rate = match slo {
        Some(spec) if completed > 0 => {
            latencies
                .iter()
                .filter(|&&l| l > spec.p99_target_ns)
                .count() as f64
                / completed as f64
        }
        _ => 0.0,
    };

    let value = |key: &str| -> f64 {
        match key {
            "completed" => completed as f64,
            "p50_ns" => percentile(&latencies, 50.0) as f64,
            "p95_ns" => percentile(&latencies, 95.0) as f64,
            "p99_ns" => percentile(&latencies, 99.0) as f64,
            "mean_ns" => mean_ns,
            "max_ns" => latencies.last().copied().unwrap_or(0) as f64,
            "throughput_rps" => throughput_rps,
            "batches" => row.batches as f64,
            "mean_batch_size" => mean_batch_size,
            "mean_queue_depth" => mean_queue_depth,
            "max_queue_depth" => row.max_depth as f64,
            "makespan_ns" => result.makespan_ns as f64,
            "dram_bytes" => row.dram_bytes as f64,
            "cache_hit_rate" => cache_hit_rate,
            "shard_miss_count" => row.shard_misses as f64,
            "replicas_max" => replicas_max as f64,
            "cold_start_ns" => row.cold_start_ns as f64,
            "replica_seconds" => replica_seconds,
            "dropped" => dropped as f64,
            "availability" => availability,
            "p99_under_failure_ns" => p99_under_failure_ns,
            // Failover and re-issue volume are control-plane-global:
            // identical on every row of the scenario.
            "failover_ns" => result.failover_ns as f64,
            "requeued_batches" => result.requeued_batches as f64,
            "slo_violation_rate" => slo_violation_rate,
            other => unreachable!("unknown serve metric key {other}"),
        }
    };
    ServeRunRecord {
        platform: label.to_string(),
        metrics: SERVE_METRIC_KEYS
            .iter()
            .map(|&k| (k.to_string(), value(k)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::Batcher;
    use crate::cost::{CostModel, ServiceCost};
    use crate::request::CELL_COUNT;
    use crate::scheduler::Simulator;
    use crate::workload::{ArrivalProcess, TrafficStream};

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50.0), 50);
        assert_eq!(percentile(&xs, 95.0), 95);
        assert_eq!(percentile(&xs, 99.0), 99);
        assert_eq!(percentile(&xs, 100.0), 100);
        assert_eq!(percentile(&[42], 99.0), 42);
    }

    #[test]
    fn percentile_edges_follow_the_documented_convention() {
        // Empty slice: 0, whatever the percentile.
        for pct in [-5.0, 0.0, 50.0, 100.0, 400.0] {
            assert_eq!(percentile(&[], pct), 0);
        }
        // Single sample: every percentile is the sample.
        for pct in [-5.0, 0.0, 0.1, 50.0, 100.0, 400.0] {
            assert_eq!(percentile(&[7], pct), 7);
        }
        // pct <= 0 clamps to the minimum, pct >= 100 to the maximum.
        let xs = [10, 20, 30, 40];
        assert_eq!(percentile(&xs, 0.0), 10);
        assert_eq!(percentile(&xs, -10.0), 10);
        assert_eq!(percentile(&xs, 100.0), 40);
        assert_eq!(percentile(&xs, 1_000.0), 40);
        // Just above 0 is still the minimum (rank ceil clamps to 1).
        assert_eq!(percentile(&xs, 0.0001), 10);
        // The result is always an observed sample — no interpolation.
        for pct in [12.5, 37.5, 62.5, 87.5] {
            assert!(xs.contains(&percentile(&xs, pct)));
        }
    }

    #[test]
    fn record_carries_all_and_per_platform_rows() {
        let base = ServiceCost {
            fixed_ns: 10_000,
            per_request_ns: 500,
            warm_save_ns: 0,
            hit_per_request_ns: 100,
            dram_bytes_per_request: 256,
            footprint_bytes: 8_192,
            bind_ns: 100_000,
        };
        let cost = CostModel::synthetic(
            vec!["A".into(), "B".into()],
            vec![
                [base; CELL_COUNT],
                [ServiceCost {
                    fixed_ns: 40_000,
                    per_request_ns: 2_000,
                    ..base
                }; CELL_COUNT],
            ],
        );
        let traffic = Traffic {
            process: ArrivalProcess::Poisson { rate_rps: 2_000.0 },
            requests: 120,
            seed: 5,
        };
        let batch = BatchPolicy::SizeCapped { cap: 4 };
        let pool = PoolConfig {
            cache_bytes: 1 << 20,
            ..PoolConfig::default()
        };
        let result = Simulator::new(&cost, SchedPolicy::LeastLoaded, &[0, 1], &pool)
            .run(TrafficStream::new(traffic), Batcher::new(batch));
        let rec = scenario_record(
            "test/scn",
            &traffic,
            batch,
            SchedPolicy::LeastLoaded,
            &pool,
            &FaultSpec::default(),
            false,
            &result,
            cost.platforms(),
        );
        assert_eq!(rec.scenario, "test/scn");
        assert_eq!(rec.replicas, 2);
        assert_eq!(rec.requests, 120);
        assert_eq!(rec.shards, 0, "unsharded pools record 0");
        assert_eq!(rec.cache_bytes, 1 << 20);
        assert_eq!(rec.autoscale, "off");
        assert_eq!(rec.faults, "none", "the empty plan labels as none");
        let platforms: Vec<&str> = rec.runs.iter().map(|r| r.platform.as_str()).collect();
        assert_eq!(platforms, ["ALL", "A", "B"]);
        let all = rec.aggregate().unwrap();
        assert_eq!(all.metric("completed"), Some(120.0));
        assert!(all.metric("p99_ns").unwrap() >= all.metric("p50_ns").unwrap());
        assert!(all.metric("throughput_rps").unwrap() > 0.0);
        // per-platform completions partition the total
        let a = rec.runs[1].metric("completed").unwrap();
        let b = rec.runs[2].metric("completed").unwrap();
        assert_eq!(a + b, 120.0);
        // every canonical key is present, in order
        let keys: Vec<&str> = all.metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, SERVE_METRIC_KEYS);
        // the scale-out metrics are well-formed
        let rate = all.metric("cache_hit_rate").unwrap();
        assert!((0.0..=1.0).contains(&rate) && rate > 0.0, "cache warms");
        assert_eq!(all.metric("shard_miss_count"), Some(0.0));
        assert_eq!(all.metric("replicas_max"), Some(2.0));
        assert_eq!(all.metric("cold_start_ns"), Some(0.0));
        assert!(all.metric("dram_bytes").unwrap() > 0.0);
        // per-platform DRAM partitions the pool-wide total
        let dram = |i: usize| rec.runs[i].metric("dram_bytes").unwrap();
        assert_eq!(dram(1) + dram(2), dram(0));
        // replica-seconds: positive, bounded by peak replicas × the
        // sampled span, and partitioned exactly by platform
        let rs = |i: usize| rec.runs[i].metric("replica_seconds").unwrap();
        assert!(rs(0) > 0.0, "a served scenario accrues replica time");
        let span_s = result.totals.span_ns as f64 / crate::workload::NS_PER_S as f64;
        assert!(rs(0) <= all.metric("replicas_max").unwrap() * span_s + 1e-9);
        assert!((rs(1) + rs(2) - rs(0)).abs() < 1e-9, "platforms partition");
        // a fixed 2-replica pool is active for the whole sampled span
        assert!((rs(0) - 2.0 * span_s).abs() < 1e-9);
        // fault metrics on a fault-free run: nothing dropped, fully
        // available, no failure window, no failover, nothing requeued
        assert_eq!(all.metric("dropped"), Some(0.0));
        assert_eq!(all.metric("availability"), Some(1.0));
        assert_eq!(all.metric("p99_under_failure_ns"), Some(0.0));
        assert_eq!(all.metric("failover_ns"), Some(0.0));
        assert_eq!(all.metric("requeued_batches"), Some(0.0));
    }

    #[test]
    fn fault_metrics_partition_drops_and_bound_availability() {
        use crate::fault::CrashWindow;

        let base = ServiceCost {
            fixed_ns: 100_000,
            per_request_ns: 2_000,
            warm_save_ns: 0,
            hit_per_request_ns: 2_000,
            dram_bytes_per_request: 0,
            footprint_bytes: 0,
            bind_ns: 0,
        };
        let cost = CostModel::synthetic(vec!["A".into()], vec![[base; CELL_COUNT]]);
        let traffic = Traffic {
            process: ArrivalProcess::Poisson { rate_rps: 50_000.0 },
            requests: 200,
            seed: 11,
        };
        let faults = FaultSpec {
            crashes: vec![CrashWindow {
                replica: 0,
                crash_at_ns: 1_000_000,
                recover_after_ns: 0,
            }],
            ..FaultSpec::default()
        };
        let batch = BatchPolicy::SizeCapped { cap: 4 };
        let pool = PoolConfig::default();
        let result = Simulator::with_faults(
            &cost,
            SchedPolicy::LeastLoaded,
            &[0, 0],
            &pool,
            &faults,
            false,
            11,
        )
        .run(TrafficStream::new(traffic), Batcher::new(batch));
        let rec = scenario_record(
            "faulty/scn",
            &traffic,
            batch,
            SchedPolicy::LeastLoaded,
            &pool,
            &faults,
            false,
            &result,
            cost.platforms(),
        );
        assert_eq!(rec.faults, "crash:0@1000000");
        let all = rec.aggregate().unwrap();
        let dropped = all.metric("dropped").unwrap();
        assert!(dropped > 0.0, "the dead replica held work");
        assert_eq!(
            all.metric("completed").unwrap() + dropped,
            200.0,
            "conservation surfaces in the record"
        );
        let avail = all.metric("availability").unwrap();
        assert!((0.0..1.0).contains(&avail), "drops cost availability");
        let expected = all.metric("completed").unwrap() / 200.0;
        assert!((avail - expected).abs() < 1e-12);
        // the failure-window tail is a latency percentile over a subset
        let p99f = all.metric("p99_under_failure_ns").unwrap();
        assert!(p99f > 0.0);
        assert!(p99f <= all.metric("max_ns").unwrap());
        // no control plane: no failover, but also no requeues
        assert_eq!(all.metric("failover_ns"), Some(0.0));
        assert_eq!(all.metric("requeued_batches"), Some(0.0));
        // the single-platform row equals the pool-wide row on drops
        assert_eq!(rec.runs[1].metric("dropped"), Some(dropped));
    }
}

//! Shared setup for the `gdr-bench` runner binary: the seed and scale
//! constants its reports are keyed by, the sweep executor, and the flag
//! parsers of every subcommand (kept here so they are unit-testable).

#![warn(missing_docs)]

pub mod sweep;

use gdr_serve::batcher::BatchPolicy;
use gdr_serve::fault::{CrashWindow, Slowdown};
use gdr_serve::scheduler::{AutoscaleSpec, SchedPolicy, SloSpec};
use gdr_serve::sweep::{ArrivalKind, FaultVariant, SweepSpec};
use gdr_serve::workload::ArrivalProcess;
use gdr_system::grid::ExperimentConfig;

/// The default worker-lane count everywhere `gdr-bench` takes one (the
/// `--jobs` default of `sweep` and `replay`): the machine's
/// available parallelism, clamped to at least 1 when it cannot be
/// determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The default `--seed` of every `gdr-bench` mode, and the seed the
/// committed baseline uses, taken from
/// [`ExperimentConfig::test_scale`] (the single source of truth).
/// Changing it invalidates `bench/baseline.json`.
pub const BENCH_SEED: u64 = ExperimentConfig::test_scale().seed;

/// Reduced scale used by the CI perf gate (`--scale test`), taken from
/// [`ExperimentConfig::test_scale`]: small enough to run the full grid
/// in seconds, large enough that the NA buffer thrashes and the
/// platform ordering matches full scale.
pub const TEST_SCALE: f64 = ExperimentConfig::test_scale().scale;

/// Parses a `--scale` argument: `test` (the CI gate scale), `paper`
/// (Table 2 sizes), or a literal factor.
///
/// # Errors
///
/// Returns a message for non-numeric, non-keyword input or a factor
/// that is not finite and positive (`inf` and `1e400` parse as
/// infinity, which no dataset can be built at).
///
/// # Examples
///
/// ```
/// assert_eq!(gdr_bench::parse_scale("test"), Ok(gdr_bench::TEST_SCALE));
/// assert_eq!(gdr_bench::parse_scale("paper"), Ok(1.0));
/// assert_eq!(gdr_bench::parse_scale("0.5"), Ok(0.5));
/// assert!(gdr_bench::parse_scale("big").is_err());
/// assert!(gdr_bench::parse_scale("inf").is_err());
/// ```
pub fn parse_scale(arg: &str) -> Result<f64, String> {
    match arg {
        "test" => Ok(TEST_SCALE),
        "paper" => Ok(1.0),
        other => match other.parse::<f64>() {
            Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
            _ => Err(format!(
                "invalid --scale {other:?}: expected \"test\", \"paper\", or a finite positive factor"
            )),
        },
    }
}

/// Parses a `--threshold` argument: a percentage with or without the
/// `%` sign.
///
/// # Errors
///
/// Returns a message for non-numeric, negative or non-finite input
/// (`inf` and `1e400` would let any regression through the gate).
///
/// # Examples
///
/// ```
/// assert_eq!(gdr_bench::parse_threshold("10%"), Ok(10.0));
/// assert_eq!(gdr_bench::parse_threshold("7.5"), Ok(7.5));
/// assert!(gdr_bench::parse_threshold("-1").is_err());
/// assert!(gdr_bench::parse_threshold("inf").is_err());
/// ```
pub fn parse_threshold(arg: &str) -> Result<f64, String> {
    match arg.strip_suffix('%').unwrap_or(arg).parse::<f64>() {
        Ok(x) if x.is_finite() && x >= 0.0 => Ok(x),
        _ => Err(format!(
            "invalid --threshold {arg:?}: expected a finite non-negative percentage like \"10%\""
        )),
    }
}

/// Parses a count flag (`--requests`, `--replicas`, `--batch-cap`,
/// `--clients`, `--max-scenarios`, `--jobs`): a positive
/// integer. Zero is an error, never silently clamped to 1, so a typo
/// cannot run a different experiment than the one asked for.
///
/// # Errors
///
/// Returns a message naming `flag` for non-numeric input or zero.
///
/// # Examples
///
/// ```
/// assert_eq!(gdr_bench::parse_count("--requests", "384"), Ok(384));
/// assert!(gdr_bench::parse_count("--requests", "0").is_err());
/// ```
pub fn parse_count(flag: &str, arg: &str) -> Result<usize, String> {
    match arg.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("invalid {flag} {arg:?}: expected a positive count")),
    }
}

/// Parameters of a `gdr-bench serve` scenario parsed from the CLI:
/// everything the arrival flags control, resolved into an
/// [`ArrivalProcess`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalArgs {
    /// Offered load, requests per second.
    pub rate_rps: f64,
    /// `--burst-period` (bursty only), virtual ns.
    pub burst_period_ns: u64,
    /// `--burst-duty` (bursty only), fraction in `(0, 1]`.
    pub burst_duty: f64,
    /// `--clients` (closed-loop only).
    pub clients: usize,
    /// `--think` (closed-loop only), virtual ns.
    pub think_ns: u64,
}

/// Parses the `--arrival` kind against its shape parameters.
///
/// # Errors
///
/// Returns a message naming the unknown kind, or, for `bursty`, a zero
/// `--burst-period` or an on-window (`--burst-period` × `--burst-duty`)
/// under 1 ns: either would silently run another traffic shape.
///
/// # Examples
///
/// ```
/// use gdr_bench::{parse_arrival, ArrivalArgs};
/// use gdr_serve::workload::ArrivalProcess;
///
/// let args = ArrivalArgs {
///     rate_rps: 1000.0,
///     burst_period_ns: 100_000,
///     burst_duty: 0.25,
///     clients: 16,
///     think_ns: 100_000,
/// };
/// assert_eq!(
///     parse_arrival("poisson", &args),
///     Ok(ArrivalProcess::Poisson { rate_rps: 1000.0 })
/// );
/// assert!(parse_arrival("tsunami", &args).is_err());
/// ```
pub fn parse_arrival(kind: &str, args: &ArrivalArgs) -> Result<ArrivalProcess, String> {
    match kind {
        "poisson" => Ok(ArrivalProcess::Poisson {
            rate_rps: args.rate_rps,
        }),
        "bursty" => {
            if args.burst_period_ns == 0 {
                return Err("invalid --burst-period 0: expected a positive period, ns".into());
            }
            let on_ns = args.burst_period_ns as f64 * args.burst_duty;
            if on_ns < 1.0 {
                return Err(format!(
                    "invalid --burst-duty {}: the on-window (--burst-period {} ns × \
                     --burst-duty) is {on_ns} ns, under 1 ns",
                    args.burst_duty, args.burst_period_ns
                ));
            }
            Ok(ArrivalProcess::Bursty {
                rate_rps: args.rate_rps,
                period_ns: args.burst_period_ns,
                duty: args.burst_duty,
            })
        }
        "closed-loop" => Ok(ArrivalProcess::ClosedLoop {
            clients: args.clients,
            think_ns: args.think_ns,
        }),
        other => Err(format!(
            "invalid --arrival {other:?}: expected \"poisson\", \"bursty\", or \"closed-loop\""
        )),
    }
}

/// Parses a `--batch-policy` name against its cap/timeout parameters.
///
/// # Errors
///
/// Returns a message naming the unknown policy.
///
/// # Examples
///
/// ```
/// use gdr_bench::parse_batch_policy;
/// use gdr_serve::batcher::BatchPolicy;
///
/// assert_eq!(
///     parse_batch_policy("size-capped", 8, 0),
///     Ok(BatchPolicy::SizeCapped { cap: 8 })
/// );
/// assert!(parse_batch_policy("psychic", 8, 0).is_err());
/// ```
pub fn parse_batch_policy(name: &str, cap: usize, timeout_ns: u64) -> Result<BatchPolicy, String> {
    match name {
        "immediate" => Ok(BatchPolicy::Immediate),
        "size-capped" => Ok(BatchPolicy::SizeCapped { cap }),
        "deadline" => Ok(BatchPolicy::Deadline { cap, timeout_ns }),
        other => Err(format!(
            "invalid --batch-policy {other:?}: expected \"immediate\", \"size-capped\", or \"deadline\""
        )),
    }
}

/// Parses a `--scheduler` name.
///
/// # Errors
///
/// Returns a message naming the unknown policy.
///
/// # Examples
///
/// ```
/// use gdr_bench::parse_scheduler;
/// use gdr_serve::scheduler::SchedPolicy;
///
/// assert_eq!(parse_scheduler("least-loaded"), Ok(SchedPolicy::LeastLoaded));
/// assert_eq!(
///     parse_scheduler("shard-affinity-partial"),
///     Ok(SchedPolicy::ShardAffinityPartial)
/// );
/// assert!(parse_scheduler("chaotic").is_err());
/// ```
pub fn parse_scheduler(name: &str) -> Result<SchedPolicy, String> {
    match name {
        "round-robin" => Ok(SchedPolicy::RoundRobin),
        "least-loaded" => Ok(SchedPolicy::LeastLoaded),
        "shard-affinity" => Ok(SchedPolicy::ShardAffinity),
        "shard-affinity-partial" => Ok(SchedPolicy::ShardAffinityPartial),
        other => Err(format!(
            "invalid --scheduler {other:?}: expected \"round-robin\", \"least-loaded\", \
             \"shard-affinity\", or \"shard-affinity-partial\""
        )),
    }
}

/// Parses an `--autoscale` argument of the form `MAX:UP:DOWN` — at most
/// `MAX` replicas, scale up past a total queue depth of `UP`, drain
/// below `DOWN` (the pool size given by `--replicas` is the minimum).
/// `DOWN` must be at least 1: `DOWN:1` drains on an empty queue, while
/// a zero threshold could never be undercut and would silently disable
/// draining.
///
/// # Errors
///
/// Returns a message describing the malformed field, a zero `DOWN`, or
/// an inverted `UP`/`DOWN` pair.
///
/// # Examples
///
/// ```
/// use gdr_bench::parse_autoscale;
/// use gdr_serve::scheduler::AutoscaleSpec;
///
/// assert_eq!(
///     parse_autoscale("4:32:2"),
///     Ok(AutoscaleSpec { max_replicas: 4, up_depth: 32, down_depth: 2 })
/// );
/// assert!(parse_autoscale("4:2:32").is_err(), "inverted thresholds");
/// assert!(parse_autoscale("4:32:0").is_err(), "DOWN 0 never drains");
/// assert!(parse_autoscale("4").is_err(), "missing fields");
/// ```
pub fn parse_autoscale(arg: &str) -> Result<AutoscaleSpec, String> {
    let bad = || {
        format!(
            "invalid --autoscale {arg:?}: expected MAX:UP:DOWN \
             (e.g. \"4:32:2\" = at most 4 replicas, scale up past queue \
             depth 32, drain below 2)"
        )
    };
    let mut fields = arg.split(':');
    let mut field =
        || -> Result<usize, String> { fields.next().and_then(|f| f.parse().ok()).ok_or_else(bad) };
    let spec = AutoscaleSpec {
        max_replicas: field()?,
        up_depth: field()?,
        down_depth: field()?,
    };
    if fields.next().is_some() || spec.max_replicas == 0 {
        return Err(bad());
    }
    if spec.down_depth == 0 {
        // `depth < 0` can never be undercut on an unsigned queue depth,
        // so DOWN 0 would silently disable draining. Library users who
        // really want a never-draining pool can build an AutoscaleSpec
        // with down_depth 0 directly.
        return Err(format!(
            "invalid --autoscale {arg:?}: DOWN must be at least 1 \
             (queue depth never goes below 0, so DOWN 0 would never drain)"
        ));
    }
    if spec.down_depth >= spec.up_depth {
        return Err(format!(
            "invalid --autoscale {arg:?}: DOWN ({}) must be below UP ({})",
            spec.down_depth, spec.up_depth
        ));
    }
    Ok(spec)
}

/// Parses a `--slo` argument of the form `NS[:HEADROOM]` — a p99
/// latency target in virtual ns, with an optional headroom fraction in
/// `(0, 1]` (default 1.0) that tightens the controller's internal
/// deadline below the target. With `--autoscale`, the SLO controller
/// supersedes the queue-depth thresholds; without it, the run measures
/// `slo_violation_rate` against a fixed pool.
///
/// # Errors
///
/// Returns a message for a malformed field, a zero target, or a
/// headroom outside `(0, 1]`.
///
/// # Examples
///
/// ```
/// use gdr_bench::parse_slo;
/// use gdr_serve::scheduler::SloSpec;
///
/// assert_eq!(
///     parse_slo("400000:0.8"),
///     Ok(SloSpec { p99_target_ns: 400_000, headroom: 0.8 })
/// );
/// assert_eq!(
///     parse_slo("400000"),
///     Ok(SloSpec { p99_target_ns: 400_000, headroom: 1.0 })
/// );
/// assert!(parse_slo("0:0.8").is_err(), "zero target");
/// assert!(parse_slo("400000:1.5").is_err(), "headroom above 1");
/// assert!(parse_slo("400000:0.8:2").is_err(), "too many fields");
/// ```
pub fn parse_slo(arg: &str) -> Result<SloSpec, String> {
    let bad = || {
        format!(
            "invalid --slo {arg:?}: expected NS[:HEADROOM] — a positive p99 \
             target in virtual ns and an optional headroom fraction in (0, 1] \
             (e.g. \"400000:0.8\")"
        )
    };
    let mut fields = arg.split(':');
    let p99_target_ns: u64 = fields.next().and_then(|f| f.parse().ok()).ok_or_else(bad)?;
    let headroom: f64 = match fields.next() {
        Some(f) => f.parse().map_err(|_| bad())?,
        None => 1.0,
    };
    if fields.next().is_some()
        || p99_target_ns == 0
        || !headroom.is_finite()
        || !(headroom > 0.0 && headroom <= 1.0)
    {
        return Err(bad());
    }
    Ok(SloSpec {
        p99_target_ns,
        headroom,
    })
}

/// Parses a `--faults` argument: comma-separated per-replica crash
/// windows, where the i-th entry schedules replica i. Each entry is
/// `CRASH_AT[:RECOVER_AFTER]` in virtual ns (`RECOVER_AFTER` 0 or
/// omitted = the replica never comes back), or `-` to leave that
/// replica alone.
///
/// # Errors
///
/// Returns a message for a malformed entry.
///
/// # Examples
///
/// ```
/// use gdr_bench::parse_faults;
/// use gdr_serve::fault::CrashWindow;
///
/// // replica 0 crashes at 80 µs for good; replica 2 crashes at 50 µs
/// // and recovers 20 µs later; replica 1 is untouched
/// assert_eq!(
///     parse_faults("80000,-,50000:20000"),
///     Ok(vec![
///         CrashWindow { replica: 0, crash_at_ns: 80_000, recover_after_ns: 0 },
///         CrashWindow { replica: 2, crash_at_ns: 50_000, recover_after_ns: 20_000 },
///     ])
/// );
/// assert!(parse_faults("80000:0:1").is_err(), "too many fields");
/// assert!(parse_faults("soon").is_err(), "times are virtual ns");
/// assert!(parse_faults("").is_err(), "an empty plan is spelled by omitting the flag");
/// ```
pub fn parse_faults(arg: &str) -> Result<Vec<CrashWindow>, String> {
    let bad = |entry: &str| {
        format!(
            "invalid --faults entry {entry:?}: expected CRASH_AT[:RECOVER_AFTER] \
             virtual ns for the i-th replica, or \"-\" to skip it \
             (e.g. \"80000,-,50000:20000\")"
        )
    };
    if arg.is_empty() {
        return Err(bad(arg));
    }
    let mut crashes = Vec::new();
    for (replica, entry) in arg.split(',').enumerate() {
        if entry == "-" {
            continue;
        }
        let mut fields = entry.split(':');
        let crash_at_ns = fields
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| bad(entry))?;
        let recover_after_ns = match fields.next() {
            Some(f) => f.parse().map_err(|_| bad(entry))?,
            None => 0,
        };
        if fields.next().is_some() {
            return Err(bad(entry));
        }
        crashes.push(CrashWindow {
            replica,
            crash_at_ns,
            recover_after_ns,
        });
    }
    Ok(crashes)
}

/// Parses a `--slow` argument of the form `REPLICA:FACTOR` — the named
/// replica serves every batch `FACTOR`× slower. The flag repeats, one
/// straggler per occurrence.
///
/// # Errors
///
/// Returns a message for a malformed pair or a factor below 1.
///
/// # Examples
///
/// ```
/// use gdr_bench::parse_slow;
/// use gdr_serve::fault::Slowdown;
///
/// assert_eq!(
///     parse_slow("1:4"),
///     Ok(Slowdown { replica: 1, factor: 4.0 })
/// );
/// assert!(parse_slow("1:0.5").is_err(), "a sub-1 factor is a speedup");
/// assert!(parse_slow("1").is_err(), "missing factor");
/// ```
pub fn parse_slow(arg: &str) -> Result<Slowdown, String> {
    let bad = || {
        format!(
            "invalid --slow {arg:?}: expected REPLICA:FACTOR with FACTOR >= 1 \
             (e.g. \"1:4\" = replica 1 serves 4x slower)"
        )
    };
    let (replica, factor) = arg.split_once(':').ok_or_else(bad)?;
    let replica = replica.parse().map_err(|_| bad())?;
    let factor: f64 = factor.parse().map_err(|_| bad())?;
    if !factor.is_finite() || factor < 1.0 {
        return Err(bad());
    }
    Ok(Slowdown { replica, factor })
}

/// Parses a `--drop` argument: the per-batch in-transit loss
/// probability, a fraction in `[0, 1)`.
///
/// # Errors
///
/// Returns a message for non-numeric input or a value outside `[0, 1)`.
///
/// # Examples
///
/// ```
/// assert_eq!(gdr_bench::parse_drop("0.05"), Ok(0.05));
/// assert_eq!(gdr_bench::parse_drop("0"), Ok(0.0));
/// assert!(gdr_bench::parse_drop("1").is_err(), "dropping everything serves nothing");
/// assert!(gdr_bench::parse_drop("5%").is_err());
/// ```
pub fn parse_drop(arg: &str) -> Result<f64, String> {
    match arg.parse::<f64>() {
        Ok(p) if p.is_finite() && (0.0..1.0).contains(&p) => Ok(p),
        _ => Err(format!(
            "invalid --drop {arg:?}: expected a loss probability in [0, 1)"
        )),
    }
}

/// Parses a batch-policy *label* — the exact strings
/// [`BatchPolicy::label`] emits (`"immediate"`, `"size-capped:8"`,
/// `"deadline:8:20000"`, timeouts in virtual ns at test scale) — used
/// by the sweep's `batch` axis, where each value must carry its own
/// parameters.
///
/// # Errors
///
/// Returns a message for an unknown policy, a zero cap, or a malformed
/// parameter.
///
/// # Examples
///
/// ```
/// use gdr_bench::parse_batch_label;
/// use gdr_serve::batcher::BatchPolicy;
///
/// assert_eq!(parse_batch_label("immediate"), Ok(BatchPolicy::Immediate));
/// assert_eq!(
///     parse_batch_label("size-capped:8"),
///     Ok(BatchPolicy::SizeCapped { cap: 8 })
/// );
/// assert_eq!(
///     parse_batch_label("deadline:8:20000"),
///     Ok(BatchPolicy::Deadline { cap: 8, timeout_ns: 20_000 })
/// );
/// assert!(parse_batch_label("size-capped").is_err(), "cap is required");
/// assert!(parse_batch_label("size-capped:0").is_err(), "zero cap");
/// ```
pub fn parse_batch_label(value: &str) -> Result<BatchPolicy, String> {
    let bad = || {
        format!(
            "invalid batch value {value:?}: expected \"immediate\", \
             \"size-capped:CAP\", or \"deadline:CAP:TIMEOUT_NS\""
        )
    };
    if value == "immediate" {
        return Ok(BatchPolicy::Immediate);
    }
    if let Some(cap) = value.strip_prefix("size-capped:") {
        let cap: usize = cap.parse().map_err(|_| bad())?;
        if cap == 0 {
            return Err(bad());
        }
        return Ok(BatchPolicy::SizeCapped { cap });
    }
    if let Some(rest) = value.strip_prefix("deadline:") {
        let (cap, timeout) = rest.split_once(':').ok_or_else(bad)?;
        let cap: usize = cap.parse().map_err(|_| bad())?;
        let timeout_ns: u64 = timeout.parse().map_err(|_| bad())?;
        if cap == 0 {
            return Err(bad());
        }
        return Ok(BatchPolicy::Deadline { cap, timeout_ns });
    }
    Err(bad())
}

/// Parses one `--axis KEY=V1,V2,...` argument of `gdr-bench sweep` and
/// replaces that axis of `spec`. Rates, cache capacities, and batch
/// timeouts are expressed at test scale, like the canonical suite's
/// constants, and rescaled at expansion. Duplicate values are rejected
/// — they would expand into duplicate scenario labels.
///
/// Axis keys: `arrival`, `rate`, `batch`, `scheduler`, `replicas`,
/// `shards`, `cache-bytes`, `autoscale` (`off` or `MAX:UP:DOWN`),
/// `slo` (`off` or `NS[:HEADROOM]` at test scale), and `faults`
/// (`none`, `crash`, `crash-failover`).
///
/// # Errors
///
/// Returns a message naming the unknown axis or the malformed value.
///
/// # Examples
///
/// ```
/// use gdr_bench::parse_axis;
/// use gdr_serve::sweep::{ArrivalKind, FaultVariant, SweepSpec};
///
/// let mut spec = SweepSpec::default();
/// parse_axis(&mut spec, "rate=600000,1200000").unwrap();
/// assert_eq!(spec.rates_rps, [600_000.0, 1_200_000.0]);
/// parse_axis(&mut spec, "arrival=closed-loop").unwrap();
/// assert_eq!(spec.arrivals, [ArrivalKind::ClosedLoop]);
/// parse_axis(&mut spec, "batch=immediate,size-capped:8").unwrap();
/// parse_axis(&mut spec, "autoscale=off,4:32:2").unwrap();
/// parse_axis(&mut spec, "slo=off,400000:0.8").unwrap();
/// parse_axis(&mut spec, "faults=none,crash-failover").unwrap();
/// assert_eq!(spec.faults, [FaultVariant::None, FaultVariant::CrashFailover]);
/// assert!(parse_axis(&mut spec, "vibes=high").is_err(), "unknown axis");
/// assert!(parse_axis(&mut spec, "rate=").is_err(), "empty value list");
/// assert!(parse_axis(&mut spec, "replicas=2,2").is_err(), "duplicate value");
/// ```
pub fn parse_axis(spec: &mut SweepSpec, arg: &str) -> Result<(), String> {
    fn values<T: PartialEq>(
        arg: &str,
        list: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        if list.is_empty() {
            return Err(format!("invalid --axis {arg:?}: empty value list"));
        }
        let mut out = Vec::new();
        for v in list.split(',') {
            let parsed = parse(v).map_err(|e| format!("invalid --axis {arg:?}: {e}"))?;
            if out.contains(&parsed) {
                return Err(format!("invalid --axis {arg:?}: duplicate value {v:?}"));
            }
            out.push(parsed);
        }
        Ok(out)
    }
    let (key, list) = arg
        .split_once('=')
        .ok_or_else(|| format!("invalid --axis {arg:?}: expected KEY=V1,V2,..."))?;
    match key {
        "arrival" => {
            spec.arrivals = values(arg, list, |v| {
                ArrivalKind::ALL
                    .iter()
                    .copied()
                    .find(|a| a.name() == v)
                    .ok_or_else(|| format!("unknown arrival {v:?} (poisson, bursty, closed-loop)"))
            })?;
        }
        "rate" => {
            spec.rates_rps = values(arg, list, |v| {
                v.parse::<f64>()
                    .ok()
                    .filter(|r| r.is_finite() && *r > 0.0)
                    .ok_or_else(|| format!("rate {v:?} is not a positive requests/s figure"))
            })?;
        }
        "batch" => spec.batches = values(arg, list, parse_batch_label)?,
        "scheduler" => spec.scheds = values(arg, list, parse_scheduler)?,
        "replicas" => {
            spec.replicas = values(arg, list, |v| {
                v.parse::<usize>()
                    .ok()
                    .filter(|r| *r >= 1)
                    .ok_or_else(|| format!("replicas {v:?} must be a count of at least 1"))
            })?;
        }
        "shards" => {
            spec.shards = values(arg, list, |v| {
                v.parse::<usize>()
                    .map_err(|_| format!("shards {v:?} must be a count (0 = full replicas)"))
            })?;
        }
        "cache-bytes" => {
            spec.cache_bytes = values(arg, list, |v| {
                v.parse::<u64>()
                    .map_err(|_| format!("cache-bytes {v:?} must be a byte count (0 = off)"))
            })?;
        }
        "autoscale" => {
            spec.autoscales = values(arg, list, |v| {
                if v == "off" {
                    Ok(None)
                } else {
                    parse_autoscale(v).map(Some)
                }
            })?;
        }
        "slo" => {
            spec.slos = values(arg, list, |v| {
                if v == "off" {
                    Ok(None)
                } else {
                    parse_slo(v).map(Some)
                }
            })?;
        }
        "faults" => {
            spec.faults = values(arg, list, |v| {
                FaultVariant::ALL
                    .iter()
                    .copied()
                    .find(|f| f.name() == v)
                    .ok_or_else(|| {
                        format!("unknown faults value {v:?} (none, crash, crash-failover)")
                    })
            })?;
        }
        other => {
            return Err(format!(
                "unknown --axis key {other:?}: expected arrival, rate, batch, scheduler, \
                 replicas, shards, cache-bytes, autoscale, slo, or faults"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_keywords_and_factors() {
        assert_eq!(parse_scale("test"), Ok(TEST_SCALE));
        assert_eq!(parse_scale("paper"), Ok(1.0));
        assert_eq!(parse_scale("0.25"), Ok(0.25));
        assert!(parse_scale("0").is_err());
        assert!(parse_scale("-1").is_err());
        assert!(parse_scale("fast").is_err());
        for infinite in ["inf", "1e400", "NaN"] {
            assert!(parse_scale(infinite).is_err(), "{infinite:?}");
        }
    }

    #[test]
    fn threshold_accepts_percent_suffix() {
        assert_eq!(parse_threshold("10%"), Ok(10.0));
        assert_eq!(parse_threshold("0"), Ok(0.0));
        assert!(parse_threshold("ten").is_err());
        for infinite in ["inf", "inf%", "1e400", "NaN"] {
            assert!(parse_threshold(infinite).is_err(), "{infinite:?}");
        }
    }

    #[test]
    fn count_flags_reject_zero_instead_of_clamping() {
        assert_eq!(parse_count("--requests", "384"), Ok(384));
        assert_eq!(parse_count("--jobs", "1"), Ok(1));
        for bad in ["0", "", "-1", "1.5", "many", " 4"] {
            let err = parse_count("--replicas", bad).unwrap_err();
            assert!(err.contains("--replicas"), "{bad:?}: {err}");
        }
        assert!(parse_count("--requests", "0")
            .unwrap_err()
            .contains("positive"));
    }

    #[test]
    fn serve_flag_parsers_cover_every_policy() {
        let args = ArrivalArgs {
            rate_rps: 500.0,
            burst_period_ns: 1000,
            burst_duty: 0.5,
            clients: 4,
            think_ns: 2000,
        };
        assert_eq!(
            parse_arrival("bursty", &args),
            Ok(ArrivalProcess::Bursty {
                rate_rps: 500.0,
                period_ns: 1000,
                duty: 0.5
            })
        );
        assert_eq!(
            parse_arrival("closed-loop", &args),
            Ok(ArrivalProcess::ClosedLoop {
                clients: 4,
                think_ns: 2000
            })
        );
        assert!(parse_arrival("", &args).is_err());
        assert_eq!(
            parse_batch_policy("immediate", 8, 0),
            Ok(BatchPolicy::Immediate)
        );
        assert_eq!(
            parse_batch_policy("deadline", 4, 99),
            Ok(BatchPolicy::Deadline {
                cap: 4,
                timeout_ns: 99
            })
        );
        assert!(parse_batch_policy("none", 1, 0).is_err());
        assert_eq!(parse_scheduler("round-robin"), Ok(SchedPolicy::RoundRobin));
        assert_eq!(
            parse_scheduler("shard-affinity"),
            Ok(SchedPolicy::ShardAffinity)
        );
        assert_eq!(
            parse_scheduler("shard-affinity-partial"),
            Ok(SchedPolicy::ShardAffinityPartial)
        );
        assert!(parse_scheduler("").is_err());
    }

    #[test]
    fn fault_parsers_cover_schedules_stragglers_and_loss() {
        // positional entries map to replicas; "-" skips; a bare time
        // means "never recovers"
        assert_eq!(
            parse_faults("80000"),
            Ok(vec![CrashWindow {
                replica: 0,
                crash_at_ns: 80_000,
                recover_after_ns: 0
            }])
        );
        assert_eq!(
            parse_faults("-,-,100:200"),
            Ok(vec![CrashWindow {
                replica: 2,
                crash_at_ns: 100,
                recover_after_ns: 200
            }])
        );
        assert_eq!(
            parse_faults("10:20,30"),
            Ok(vec![
                CrashWindow {
                    replica: 0,
                    crash_at_ns: 10,
                    recover_after_ns: 20
                },
                CrashWindow {
                    replica: 1,
                    crash_at_ns: 30,
                    recover_after_ns: 0
                },
            ])
        );
        for bad in ["", ",", "x", "10:x", "10:20:30", "10,,20"] {
            assert!(parse_faults(bad).is_err(), "{bad:?} must be rejected");
        }

        assert_eq!(
            parse_slow("2:1.5"),
            Ok(Slowdown {
                replica: 2,
                factor: 1.5
            })
        );
        for bad in ["", "2", ":4", "2:", "2:0.99", "2:inf", "2:nan", "x:4"] {
            assert!(parse_slow(bad).is_err(), "{bad:?} must be rejected");
        }

        assert_eq!(parse_drop("0.5"), Ok(0.5));
        for bad in ["", "1", "1.5", "-0.1", "nan", "5%"] {
            assert!(parse_drop(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn autoscale_parser_validates_shape_and_thresholds() {
        assert_eq!(
            parse_autoscale("8:64:4"),
            Ok(AutoscaleSpec {
                max_replicas: 8,
                up_depth: 64,
                down_depth: 4
            })
        );
        for bad in [
            "",
            "8",
            "8:64",
            "8:64:4:1",
            "zero:64:4",
            "0:64:4",
            "8:4:64",
            "8:4:4",
            "8:64:0",
        ] {
            assert!(parse_autoscale(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn slo_parser_validates_target_and_headroom() {
        assert_eq!(
            parse_slo("250000"),
            Ok(SloSpec {
                p99_target_ns: 250_000,
                headroom: 1.0
            })
        );
        assert_eq!(
            parse_slo("250000:0.5"),
            Ok(SloSpec {
                p99_target_ns: 250_000,
                headroom: 0.5
            })
        );
        for bad in [
            "",
            "soon",
            "0",
            "0:0.8",
            "250000:0",
            "250000:-0.5",
            "250000:1.01",
            "250000:nan",
            "250000:0.8:2",
        ] {
            assert!(parse_slo(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}

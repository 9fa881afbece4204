//! The platform-generic report subsystem.
//!
//! [`BenchReport::collect`] runs **any** [`Platform`] list over the
//! dataset × model grid and captures one machine-readable record per
//! (cell, platform): simulated latency, DRAM traffic, bandwidth
//! utilization, per-stage breakdown, buffer hit rate, platform-specific
//! extras (accelerator cycles, frontend session stats), speedup against
//! the list's first platform, and harness wall-clock. The same report
//! renders as markdown ([`BenchReport::to_markdown`]) and as the stable
//! `gdr-bench/v1` JSON schema ([`BenchReport::to_json`], documented in
//! `bench/README.md`) that the `gdr-bench` binary writes and the CI
//! perf gate compares with [`compare`].
//!
//! Everything but wall-clock is a deterministic function of
//! `(seed, scale)` — the simulators are cycle-accurate models, not
//! measurements — so two runs of the same commit produce byte-identical
//! metric values on any machine, and a regression in the JSON diff is a
//! real modeling change, never timer noise. [`compare`] therefore gates
//! on the simulated metrics of one table ([`GATED_METRICS`]) and ignores
//! the wall-clock fields.

use std::time::Instant;

use gdr_accel::platform::Platform;
use gdr_accel::report::geomean;
use gdr_hetgraph::datasets::Dataset;
use gdr_hetgraph::GdrResult;
use gdr_hgnn::model::ModelKind;

use crate::ablations::AblationReport;
use crate::experiments::{
    fig10, fig2, fig7, fig8, fig9, motivation_l2, table2, table3, Fig10, Fig2, Fig7, Fig8, Fig9,
};
use crate::grid::{cell_inputs, run_grid, run_platforms, ExperimentConfig};
use crate::json::Json;
use crate::markdown::{f2, table};
use crate::trace_export::ChromeTrace;

/// Schema identifier written into every report.
pub const SCHEMA: &str = "gdr-bench/v1";

/// The record family a [`GATED_METRICS`] entry applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateFamily {
    /// Grid records: one per (cell, platform).
    Grid,
    /// Serve records: one per (scenario, platform), plus `"ALL"`.
    Serve,
}

/// When [`compare`] checks a [`GATED_METRICS`] entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gating {
    /// On every record: the metric absent on either side fails the gate.
    Always,
    /// Only once the baseline pins the metric. Baselines written before
    /// the key existed parse and gate unchanged (default-absent, never
    /// gated-to-zero); a current report that lost a pinned metric fails.
    IfPinned,
}

/// Every metric the CI perf gate compares, as `(family, key,
/// higher_is_better, gating)`, in comparison order. Everything else is
/// recorded for observability only: derived (accesses, utilization),
/// direction-ambiguous (stage split, batch and queue shape), or wall
/// clock.
///
/// * Grid: simulated latency and DRAM traffic must not grow.
/// * Serve: tail latency must not grow, throughput must not shrink, the
///   cross-batch feature cache must not lose hits, and partial-replica
///   routing must not start missing shards.
/// * Serve faults, once pinned: availability must not shrink; the
///   under-failure tail, failover time and re-issue volume must not
///   grow.
/// * Serve cost, once pinned: the "meet the SLO at minimum
///   replica-seconds" half of the evaluation — neither
///   `replica_seconds` nor `slo_violation_rate` may grow.
pub const GATED_METRICS: &[(GateFamily, &str, bool, Gating)] = {
    use GateFamily::{Grid, Serve};
    use Gating::{Always, IfPinned};
    &[
        (Grid, "time_ns", false, Always),
        (Grid, "dram_bytes", false, Always),
        (Serve, "p99_ns", false, Always),
        (Serve, "throughput_rps", true, Always),
        (Serve, "cache_hit_rate", true, Always),
        (Serve, "shard_miss_count", false, Always),
        (Serve, "availability", true, IfPinned),
        (Serve, "p99_under_failure_ns", false, IfPinned),
        (Serve, "failover_ns", false, IfPinned),
        (Serve, "requeued_batches", false, IfPinned),
        (Serve, "replica_seconds", false, IfPinned),
        (Serve, "slo_violation_rate", false, IfPinned),
    ]
};

/// The canonical metric keys of a [`ServeRunRecord`], in serialization
/// order. `gdr-serve` emits exactly this set; the golden-file schema test
/// pins it. `replica_seconds` — the integral of active replicas over
/// virtual time — is the serving cost-of-goods metric, and
/// `slo_violation_rate` the fraction of completions that blew the
/// scenario's SLO target (0 when no SLO is set); both are deterministic
/// (virtual time, not wall clock) and gated [`Gating::IfPinned`] in
/// [`GATED_METRICS`] — only when the baseline pins them.
pub const SERVE_METRIC_KEYS: &[&str] = &[
    "completed",
    "p50_ns",
    "p95_ns",
    "p99_ns",
    "mean_ns",
    "max_ns",
    "throughput_rps",
    "batches",
    "mean_batch_size",
    "mean_queue_depth",
    "max_queue_depth",
    "makespan_ns",
    "dram_bytes",
    "cache_hit_rate",
    "shard_miss_count",
    "replicas_max",
    "cold_start_ns",
    "replica_seconds",
    "dropped",
    "availability",
    "p99_under_failure_ns",
    "failover_ns",
    "requeued_batches",
    "slo_violation_rate",
];

/// The canonical metric keys of a [`HostRecord`], in serialization
/// order. Host records measure **wall-clock** restructuring throughput
/// of the machine running the report — they are reported for
/// observability (the `host` family of `gdr-bench/v1`) but never gated:
/// wall clock is machine-dependent and nondeterministic, so
/// [`compare`] ignores them entirely.
pub const HOST_METRIC_KEYS: &[&str] = &[
    "graphs",
    "passes",
    "wall_clock_s",
    "graphs_per_sec",
    "ns_per_graph",
];

/// One host-side throughput measurement: how fast this machine's
/// frontend software restructures a dataset's semantic graphs, for one
/// execution strategy (fresh workspace per graph, reused workspace,
/// parallel lanes). The `host` record family of `gdr-bench/v1`.
#[derive(Debug, Clone, PartialEq)]
pub struct HostRecord {
    /// Measurement label (`"session/DBLP/reused"`).
    pub name: String,
    /// Stable-ordered numeric metrics, keyed by [`HOST_METRIC_KEYS`].
    pub metrics: Vec<(String, f64)>,
}

impl HostRecord {
    /// Looks up a metric by key (`"graphs_per_sec"`, `"ns_per_graph"`, …).
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// The host object of the `host` array in `gdr-bench/v1`.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("name".to_string(), Json::from(self.name.as_str()))];
        fields.extend(
            self.metrics
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(*v))),
        );
        Json::Obj(fields)
    }

    /// Parses one object of the `host` array.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed or missing field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let mut name = None;
        let mut metrics = Vec::new();
        for (k, field) in v.as_obj().ok_or("host record is not an object")? {
            match (k.as_str(), field) {
                ("name", Json::Str(n)) => name = Some(n.clone()),
                (_, Json::Num(x)) => metrics.push((k.clone(), *x)),
                _ => return Err(format!("unexpected host record field {k:?}")),
            }
        }
        Ok(HostRecord {
            name: name.ok_or("host record: missing name")?,
            metrics,
        })
    }
}

/// One platform's aggregate over a serving scenario: the latency
/// histogram summary, throughput, and queue/batch shape for every
/// request the scenario's replicas of that platform served. The
/// `"ALL"` platform row aggregates the whole replica pool.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRunRecord {
    /// Platform label, or `"ALL"` for the pool-wide aggregate.
    pub platform: String,
    /// Stable-ordered numeric metrics, keyed by [`SERVE_METRIC_KEYS`].
    pub metrics: Vec<(String, f64)>,
}

impl ServeRunRecord {
    /// Looks up a metric by key (`"p99_ns"`, `"throughput_rps"`, …).
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// One serving scenario's record: the full configuration that produced
/// it (so reports are self-describing and the gate can match scenarios
/// across commits) plus one [`ServeRunRecord`] per platform and the
/// `"ALL"` aggregate. Every value is a deterministic function of the
/// configuration — serve records carry **no wall-clock**, which is what
/// makes `gdr-bench serve` output byte-for-byte reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeScenarioRecord {
    /// Stable scenario label the gate matches on
    /// (e.g. `"poisson-hi/size-capped/round-robin"`).
    pub scenario: String,
    /// Arrival process name (`"poisson"`, `"bursty"`, `"closed-loop"`).
    pub arrival: String,
    /// Nominal offered load in requests per second.
    pub rate_rps: f64,
    /// Batching policy label (`"immediate"`, `"size-capped:8"`, …).
    pub batch: String,
    /// Scheduler policy label (`"round-robin"`, `"least-loaded"`,
    /// `"shard-affinity"`, `"shard-affinity-partial"`).
    pub scheduler: String,
    /// Initial (minimum) replica pool size.
    pub replicas: u64,
    /// Dataset shards per replica (0 = full replicas).
    pub shards: u64,
    /// Per-replica feature-cache capacity, bytes (0 = disabled).
    pub cache_bytes: u64,
    /// Autoscaler label (`"off"`, or `"queue:UP:DOWN:maxN"`).
    pub autoscale: String,
    /// Fault-plan label (`"none"`, or `;`-joined `crash:R@AT+REC` /
    /// `slow:R*F` / `drop:P` / `deadline:N` segments, with a
    /// `control:vr` suffix when the replicated control plane is on).
    pub faults: String,
    /// Request-stream seed.
    pub seed: u64,
    /// Total requests generated.
    pub requests: u64,
    /// `"ALL"` first, then one record per distinct platform, pool order.
    pub runs: Vec<ServeRunRecord>,
}

impl ServeScenarioRecord {
    /// The scenario's pool-wide aggregate record, when present.
    pub fn aggregate(&self) -> Option<&ServeRunRecord> {
        self.runs.iter().find(|r| r.platform == "ALL")
    }

    /// The scenario object of the `serve` array in `gdr-bench/v1`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", Json::from(self.scenario.as_str())),
            ("arrival", Json::from(self.arrival.as_str())),
            ("rate_rps", Json::from(self.rate_rps)),
            ("batch", Json::from(self.batch.as_str())),
            ("scheduler", Json::from(self.scheduler.as_str())),
            ("replicas", Json::from(self.replicas)),
            ("shards", Json::from(self.shards)),
            ("cache_bytes", Json::from(self.cache_bytes)),
            ("autoscale", Json::from(self.autoscale.as_str())),
            ("faults", Json::from(self.faults.as_str())),
            ("seed", Json::from(self.seed)),
            ("requests", Json::from(self.requests)),
            (
                "runs",
                Json::arr(self.runs.iter().map(|r| {
                    let mut fields =
                        vec![("platform".to_string(), Json::from(r.platform.as_str()))];
                    fields.extend(r.metrics.iter().map(|(k, v)| (k.clone(), Json::from(*v))));
                    Json::Obj(fields)
                })),
            ),
        ])
    }

    /// Parses one scenario object of the `serve` array.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed or missing field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let string = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("serve scenario: missing string field {key:?}"))
        };
        let num = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("serve scenario: missing numeric field {key:?}"))
        };
        let mut runs = Vec::new();
        for r in v
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("serve scenario: missing runs")?
        {
            let mut platform = None;
            let mut metrics = Vec::new();
            for (k, field) in r.as_obj().ok_or("serve run is not an object")? {
                match (k.as_str(), field) {
                    ("platform", Json::Str(p)) => platform = Some(p.clone()),
                    (_, Json::Num(x)) => metrics.push((k.clone(), *x)),
                    _ => return Err(format!("unexpected serve run field {k:?}")),
                }
            }
            runs.push(ServeRunRecord {
                platform: platform.ok_or("serve run: missing platform")?,
                metrics,
            });
        }
        Ok(ServeScenarioRecord {
            scenario: string("scenario")?,
            arrival: string("arrival")?,
            rate_rps: num("rate_rps")?,
            batch: string("batch")?,
            scheduler: string("scheduler")?,
            replicas: num("replicas")? as u64,
            // The scale-out fields were added within the same schema id:
            // records written before them parse as an unsharded,
            // uncached, fixed pool.
            shards: v.get("shards").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            cache_bytes: v.get("cache_bytes").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            autoscale: v
                .get("autoscale")
                .and_then(Json::as_str)
                .unwrap_or("off")
                .to_string(),
            // Likewise: pre-fault records parse as fault-free scenarios.
            faults: v
                .get("faults")
                .and_then(Json::as_str)
                .unwrap_or("none")
                .to_string(),
            seed: num("seed")? as u64,
            requests: num("requests")? as u64,
            runs,
        })
    }
}

/// The objectives of the sweep Pareto frontier, as
/// `(serve metric key, higher_is_better)`: the tail must be short, the
/// throughput high, the replica-seconds (serving cost of goods) and
/// DRAM traffic low. [`dominates`] and [`pareto_frontier`] read
/// exactly these keys from a [`SweepRowRecord`].
pub const SWEEP_OBJECTIVES: &[(&str, bool)] = &[
    ("p99_ns", false),
    ("throughput_rps", true),
    ("replica_seconds", false),
    ("dram_bytes", false),
];

/// One row of a sweep's result table: the scenario label plus its
/// pool-wide aggregate values for the [`SWEEP_OBJECTIVES`] (and any
/// additional numeric columns a future sweep records).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRowRecord {
    /// Scenario label, unique within the sweep.
    pub scenario: String,
    /// Stable-ordered numeric metrics, the [`SWEEP_OBJECTIVES`] keys.
    pub metrics: Vec<(String, f64)>,
}

impl SweepRowRecord {
    /// Looks up a metric by key (`"p99_ns"`, `"replica_seconds"`, …).
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// The row object of a sweep's `table` array.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("scenario".to_string(), Json::from(self.scenario.as_str()))];
        fields.extend(
            self.metrics
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(*v))),
        );
        Json::Obj(fields)
    }

    /// Parses one row object of a sweep's `table` array.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed or missing field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let mut scenario = None;
        let mut metrics = Vec::new();
        for (k, field) in v.as_obj().ok_or("sweep row is not an object")? {
            match (k.as_str(), field) {
                ("scenario", Json::Str(s)) => scenario = Some(s.clone()),
                (_, Json::Num(x)) => metrics.push((k.clone(), *x)),
                _ => return Err(format!("unexpected sweep row field {k:?}")),
            }
        }
        Ok(SweepRowRecord {
            scenario: scenario.ok_or("sweep row: missing scenario")?,
            metrics,
        })
    }
}

/// Whether `a` Pareto-dominates `b` over [`SWEEP_OBJECTIVES`]: no
/// worse on every objective and strictly better on at least one. Rows
/// missing an objective on either side dominate nothing and nothing
/// dominates through them (the comparison is undefined, not zero).
pub fn dominates(a: &SweepRowRecord, b: &SweepRowRecord) -> bool {
    let mut strictly_better = false;
    for &(key, higher_is_better) in SWEEP_OBJECTIVES {
        let (Some(av), Some(bv)) = (a.metric(key), b.metric(key)) else {
            return false;
        };
        let (better, worse) = if higher_is_better {
            (av > bv, av < bv)
        } else {
            (av < bv, av > bv)
        };
        if worse {
            return false;
        }
        if better {
            strictly_better = true;
        }
    }
    strictly_better
}

/// The Pareto frontier of a sweep table over [`SWEEP_OBJECTIVES`]:
/// table indices of every row no other row [`dominates`], in table
/// order. Dominance is transitive, so every excluded row is dominated
/// by some *frontier* row — the property net in `crates/bench` pins
/// this.
pub fn pareto_frontier(table: &[SweepRowRecord]) -> Vec<usize> {
    (0..table.len())
        .filter(|&i| !table.iter().any(|other| dominates(other, &table[i])))
        .collect()
}

/// The recommendation a sweep resolves for an SLO: the *cheapest*
/// (minimum `replica_seconds`) frontier config whose tail meets the
/// p99 SLO, within the replica-seconds budget when one is given.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecommendation {
    /// The requested p99 ceiling, virtual ns.
    pub slo_p99_ns: f64,
    /// The requested cost ceiling, replica-seconds (0 = unbounded).
    pub budget_replica_seconds: f64,
    /// Whether any frontier config met the constraints.
    pub feasible: bool,
    /// The chosen scenario label; empty when infeasible.
    pub scenario: String,
    /// The chosen row's objective values; empty when infeasible.
    pub metrics: Vec<(String, f64)>,
}

impl SweepRecommendation {
    /// Looks up a chosen-row objective by key (`"p99_ns"`, …).
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// The `recommend` object of a sweep record.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("slo_p99_ns".to_string(), Json::from(self.slo_p99_ns)),
            (
                "budget_replica_seconds".to_string(),
                Json::from(self.budget_replica_seconds),
            ),
            ("feasible".to_string(), Json::from(self.feasible)),
            ("scenario".to_string(), Json::from(self.scenario.as_str())),
        ];
        fields.extend(
            self.metrics
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(*v))),
        );
        Json::Obj(fields)
    }

    /// Parses the `recommend` object of a sweep record.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed or missing field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let mut out = SweepRecommendation {
            slo_p99_ns: v
                .get("slo_p99_ns")
                .and_then(Json::as_f64)
                .ok_or("sweep recommend: missing slo_p99_ns")?,
            budget_replica_seconds: v
                .get("budget_replica_seconds")
                .and_then(Json::as_f64)
                .ok_or("sweep recommend: missing budget_replica_seconds")?,
            feasible: v
                .get("feasible")
                .and_then(Json::as_bool)
                .ok_or("sweep recommend: missing feasible")?,
            scenario: v
                .get("scenario")
                .and_then(Json::as_str)
                .ok_or("sweep recommend: missing scenario")?
                .to_string(),
            metrics: Vec::new(),
        };
        for (k, field) in v.as_obj().ok_or("sweep recommend is not an object")? {
            if let (false, Json::Num(x)) = (
                matches!(k.as_str(), "slo_p99_ns" | "budget_replica_seconds"),
                field,
            ) {
                out.metrics.push((k.clone(), *x));
            }
        }
        Ok(out)
    }
}

/// Resolves the recommendation for a computed frontier: among the
/// frontier rows with `p99_ns <= slo_p99_ns` (and
/// `replica_seconds <= budget_replica_seconds` when the budget is
/// nonzero), the one with minimum `replica_seconds` — first in table
/// order on ties, so the answer is deterministic.
pub fn recommend(
    table: &[SweepRowRecord],
    frontier: &[usize],
    slo_p99_ns: f64,
    budget_replica_seconds: f64,
) -> SweepRecommendation {
    let mut best: Option<&SweepRowRecord> = None;
    for &i in frontier {
        let row = &table[i];
        let (Some(p99), Some(cost)) = (row.metric("p99_ns"), row.metric("replica_seconds")) else {
            continue;
        };
        if p99 > slo_p99_ns {
            continue;
        }
        if budget_replica_seconds > 0.0 && cost > budget_replica_seconds {
            continue;
        }
        let cheaper = best
            .and_then(|b| b.metric("replica_seconds"))
            .is_none_or(|b_cost| cost < b_cost);
        if cheaper {
            best = Some(row);
        }
    }
    SweepRecommendation {
        slo_p99_ns,
        budget_replica_seconds,
        feasible: best.is_some(),
        scenario: best.map(|r| r.scenario.clone()).unwrap_or_default(),
        metrics: best.map(|r| r.metrics.clone()).unwrap_or_default(),
    }
}

/// One scenario-space sweep: the swept axes, the full results table,
/// the Pareto frontier over [`SWEEP_OBJECTIVES`], and (when an SLO was
/// requested) the resolved recommendation. The `sweep` record family
/// of `gdr-bench/v1` — reported, never gated: the table's shape is
/// whatever the user swept, so there is no stable baseline to compare
/// against (the canonical `serve` family carries the gated scenarios).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// Sweep label (`"default"`, or a user-chosen name).
    pub name: String,
    /// The swept axes as `(axis, comma-joined values)` pairs, in
    /// expansion order — the sweep's self-description.
    pub axes: Vec<(String, String)>,
    /// Requests per scenario.
    pub requests: u64,
    /// The backend every replica ran.
    pub platform: String,
    /// One row per expanded scenario, in expansion order.
    pub table: Vec<SweepRowRecord>,
    /// Scenario labels of the Pareto frontier, in table order.
    pub frontier: Vec<String>,
    /// The SLO resolution, when `--slo-p99` was given.
    pub recommend: Option<SweepRecommendation>,
}

impl SweepRecord {
    /// The sweep object of the `sweep` array in `gdr-bench/v1`.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".to_string(), Json::from(self.name.as_str())),
            (
                "axes".to_string(),
                Json::arr(self.axes.iter().map(|(axis, values)| {
                    Json::obj([
                        ("axis", Json::from(axis.as_str())),
                        ("values", Json::from(values.as_str())),
                    ])
                })),
            ),
            ("requests".to_string(), Json::from(self.requests)),
            ("platform".to_string(), Json::from(self.platform.as_str())),
            (
                "table".to_string(),
                Json::arr(self.table.iter().map(SweepRowRecord::to_json)),
            ),
            (
                "frontier".to_string(),
                Json::arr(self.frontier.iter().map(|s| Json::from(s.as_str()))),
            ),
        ];
        if let Some(rec) = &self.recommend {
            fields.push(("recommend".to_string(), rec.to_json()));
        }
        Json::Obj(fields)
    }

    /// Parses one sweep object of the `sweep` array.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed or missing field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let string = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("sweep record: missing string field {key:?}"))
        };
        let mut axes = Vec::new();
        for a in v
            .get("axes")
            .and_then(Json::as_arr)
            .ok_or("sweep record: missing axes")?
        {
            let field = |key: &str| -> Result<String, String> {
                a.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("sweep axis: missing {key:?}"))
            };
            axes.push((field("axis")?, field("values")?));
        }
        let table = v
            .get("table")
            .and_then(Json::as_arr)
            .ok_or("sweep record: missing table")?
            .iter()
            .map(SweepRowRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let frontier = v
            .get("frontier")
            .and_then(Json::as_arr)
            .ok_or("sweep record: missing frontier")?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or("non-string frontier label")
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SweepRecord {
            name: string("name")?,
            axes,
            requests: v
                .get("requests")
                .and_then(Json::as_f64)
                .ok_or("sweep record: missing requests")? as u64,
            platform: string("platform")?,
            table,
            frontier,
            // `recommend` is present only when an SLO was requested.
            recommend: match v.get("recommend") {
                None => None,
                Some(r) => Some(SweepRecommendation::from_json(r)?),
            },
        })
    }
}

/// The latency-attribution stage keys of the `breakdown` record
/// family, in pipeline order. Per completed request the five
/// components sum *exactly* to end-to-end latency:
///
/// * `queue_wait_ns` — sealed batch waiting for (or queued at) a
///   replica, stall episodes excluded;
/// * `batch_form_ns` — request arrival to batch seal;
/// * `bind_ns` — the shard-miss cold-bind penalty, when paid;
/// * `service_ns` — pure batch execution (slowdown-stretched);
/// * `stall_ns` — parked/orphaned time with no live replica (or no
///   primary) to run on.
pub const BREAKDOWN_STAGE_KEYS: &[&str] = &[
    "queue_wait_ns",
    "batch_form_ns",
    "bind_ns",
    "service_ns",
    "stall_ns",
];

/// One stage's aggregate within a [`BreakdownRecord`]: the stage key
/// (one of [`BREAKDOWN_STAGE_KEYS`]) and its mean/p50/p99 over the
/// scenario's completed requests, virtual ns.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownStage {
    /// Stage key, one of [`BREAKDOWN_STAGE_KEYS`].
    pub stage: String,
    /// Mean over completed requests, ns.
    pub mean_ns: f64,
    /// Median over completed requests, ns.
    pub p50_ns: f64,
    /// 99th percentile over completed requests, ns.
    pub p99_ns: f64,
}

impl BreakdownStage {
    /// The stage object of a breakdown record's `stages` array.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("stage", Json::from(self.stage.as_str())),
            ("mean_ns", Json::from(self.mean_ns)),
            ("p50_ns", Json::from(self.p50_ns)),
            ("p99_ns", Json::from(self.p99_ns)),
        ])
    }

    /// Parses one stage object of a breakdown record's `stages` array.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed or missing field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let num = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("breakdown stage: missing numeric field {key:?}"))
        };
        Ok(BreakdownStage {
            stage: v
                .get("stage")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or("breakdown stage: missing stage")?,
            mean_ns: num("mean_ns")?,
            p50_ns: num("p50_ns")?,
            p99_ns: num("p99_ns")?,
        })
    }
}

/// One scenario's latency attribution: where the completed requests'
/// nanoseconds went, stage by stage ([`BREAKDOWN_STAGE_KEYS`]). The
/// `breakdown` record family of `gdr-bench/v1` — reported, never
/// gated: it decomposes the already-gated `serve` latencies rather
/// than adding an independent surface, and per-stage means sum to
/// `mean_latency_ns` exactly (the p50/p99 of different stages need
/// not, since each stage's tail is its own distribution).
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownRecord {
    /// Scenario label, matching the `serve` record it decomposes.
    pub scenario: String,
    /// Traffic seed of the run.
    pub seed: u64,
    /// Completed requests the attribution covers.
    pub requests: u64,
    /// Mean end-to-end latency over those requests, ns — the sum of
    /// the per-stage means.
    pub mean_latency_ns: f64,
    /// One aggregate per stage, in [`BREAKDOWN_STAGE_KEYS`] order.
    pub stages: Vec<BreakdownStage>,
}

impl BreakdownRecord {
    /// Looks up a stage by key (`"queue_wait_ns"`, …).
    pub fn stage(&self, key: &str) -> Option<&BreakdownStage> {
        self.stages.iter().find(|s| s.stage == key)
    }

    /// The breakdown object of the `breakdown` array in `gdr-bench/v1`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", Json::from(self.scenario.as_str())),
            ("seed", Json::from(self.seed)),
            ("requests", Json::from(self.requests)),
            ("mean_latency_ns", Json::from(self.mean_latency_ns)),
            (
                "stages",
                Json::arr(self.stages.iter().map(BreakdownStage::to_json)),
            ),
        ])
    }

    /// Parses one breakdown object of the `breakdown` array.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed or missing field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let num = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("breakdown record: missing numeric field {key:?}"))
        };
        Ok(BreakdownRecord {
            scenario: v
                .get("scenario")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or("breakdown record: missing scenario")?,
            seed: num("seed")? as u64,
            requests: num("requests")? as u64,
            mean_latency_ns: num("mean_latency_ns")?,
            stages: v
                .get("stages")
                .and_then(Json::as_arr)
                .ok_or("breakdown record: missing stages")?
                .iter()
                .map(BreakdownStage::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }
}

/// One platform's record for one grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Platform label ([`Platform::name`]).
    pub platform: String,
    /// Stable-ordered numeric metrics: the [`gdr_accel::report::ExecReport`]
    /// flat metrics followed by the platform's extras under an `extra.`
    /// prefix.
    pub metrics: Vec<(String, f64)>,
    /// NA-stage buffer/cache hit rate, when the platform models one.
    pub na_hit_rate: Option<f64>,
    /// Speedup against the platform list's first entry on the same cell.
    pub speedup_vs_baseline: f64,
}

impl RunRecord {
    /// Looks up a metric by key (`"time_ns"`, `"extra.cycles"`, …).
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// One (model, dataset) cell: every platform's record plus harness
/// wall-clock for the cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Model label (`"RGCN"`, …).
    pub model: String,
    /// Dataset label (`"ACM"`, …).
    pub dataset: String,
    /// Harness wall-clock spent running this cell, seconds.
    pub wall_clock_s: f64,
    /// One record per platform, in platform-list order.
    pub runs: Vec<RunRecord>,
}

impl PointRecord {
    /// Cell label as used in the figures (`"RGCN/ACM"`).
    pub fn label(&self) -> String {
        format!("{}/{}", self.model, self.dataset)
    }
}

/// A full evaluation pass of a platform list over the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Dataset generation seed.
    pub seed: u64,
    /// Dataset scale (1.0 = Table 2 sizes).
    pub scale: f64,
    /// Platform labels, in execution order (first = speedup baseline).
    pub platforms: Vec<String>,
    /// One record per grid cell, models outer, datasets inner.
    pub points: Vec<PointRecord>,
    /// Total harness wall-clock, seconds. Zero for serve-only reports,
    /// which must be byte-for-byte reproducible.
    pub wall_clock_s: f64,
    /// Serving-scenario records (`gdr-serve`), empty for grid-only runs.
    pub serve: Vec<ServeScenarioRecord>,
    /// Host wall-clock throughput records ([`collect_host_records`]).
    /// Reported, never gated; empty for serve-only reports, whose bytes
    /// must be deterministic.
    pub host: Vec<HostRecord>,
    /// Scenario-space sweep records (`gdr-bench sweep`). Reported,
    /// never gated; like serve records they carry no wall clock, so
    /// sweep-only reports are byte-for-byte reproducible.
    pub sweep: Vec<SweepRecord>,
    /// Per-scenario latency-attribution records built from serving
    /// traces ([`BreakdownRecord`]). Reported, never gated; fully
    /// virtual-time, so traced reports stay byte-for-byte
    /// reproducible.
    pub breakdown: Vec<BreakdownRecord>,
}

impl BenchReport {
    /// Runs every (model, dataset) cell of the grid on `platforms` and
    /// collects the report. The platform list is borrowed and reused
    /// across all cells; its first entry is the speedup baseline.
    ///
    /// # Errors
    ///
    /// Propagates the first platform error. The paper platforms cannot
    /// fail on grid-generated inputs; user-supplied [`Platform`]
    /// implementations may.
    pub fn collect(platforms: &[&dyn Platform], cfg: &ExperimentConfig) -> GdrResult<Self> {
        let t0 = Instant::now();
        let mut points = Vec::with_capacity(ModelKind::ALL.len() * Dataset::ALL.len());
        for model in ModelKind::ALL {
            for dataset in Dataset::ALL {
                let cell_t0 = Instant::now();
                let (workload, graphs) = cell_inputs(model, dataset, cfg);
                let runs = run_platforms(platforms, &workload, &graphs)?;
                let baseline_ns = runs.first().map(|r| r.report.time_ns).unwrap_or(0.0);
                let records = runs
                    .iter()
                    .map(|run| {
                        let mut metrics: Vec<(String, f64)> = run
                            .report
                            .flat_metrics()
                            .into_iter()
                            .map(|(k, v)| (k.to_string(), v))
                            .collect();
                        metrics.extend(run.extra.iter().map(|(k, v)| (format!("extra.{k}"), *v)));
                        RunRecord {
                            platform: run.report.platform.clone(),
                            metrics,
                            na_hit_rate: run.report.na_hit_rate,
                            speedup_vs_baseline: if run.report.time_ns > 0.0 {
                                baseline_ns / run.report.time_ns
                            } else {
                                0.0
                            },
                        }
                    })
                    .collect();
                points.push(PointRecord {
                    model: model.name().to_string(),
                    dataset: dataset.name().to_string(),
                    wall_clock_s: cell_t0.elapsed().as_secs_f64(),
                    runs: records,
                });
            }
        }
        Ok(BenchReport {
            seed: cfg.seed,
            scale: cfg.scale,
            platforms: platforms.iter().map(|p| p.name().to_string()).collect(),
            points,
            wall_clock_s: t0.elapsed().as_secs_f64(),
            serve: Vec::new(),
            host: Vec::new(),
            sweep: Vec::new(),
            breakdown: Vec::new(),
        })
    }

    /// Per-platform geometric-mean speedup over the baseline platform,
    /// in platform order.
    pub fn geomean_speedups(&self) -> Vec<(String, f64)> {
        self.platforms
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let ratios: Vec<f64> = self
                    .points
                    .iter()
                    .filter_map(|p| p.runs.get(i))
                    .map(|r| r.speedup_vs_baseline)
                    .collect();
                (name.clone(), geomean(&ratios))
            })
            .collect()
    }

    /// The `gdr-bench/v1` JSON document. Key order is fixed by
    /// construction and covered by a golden-file test — treat any
    /// ordering change as a schema version bump.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(SCHEMA)),
            (
                "config",
                Json::obj([
                    ("seed", Json::from(self.seed)),
                    ("scale", Json::from(self.scale)),
                ]),
            ),
            (
                "platforms",
                Json::arr(self.platforms.iter().map(|p| Json::from(p.as_str()))),
            ),
            ("wall_clock_s", Json::from(self.wall_clock_s)),
            (
                "points",
                Json::arr(self.points.iter().map(|p| {
                    Json::obj([
                        ("model", Json::from(p.model.as_str())),
                        ("dataset", Json::from(p.dataset.as_str())),
                        ("wall_clock_s", Json::from(p.wall_clock_s)),
                        (
                            "runs",
                            Json::arr(p.runs.iter().map(|r| {
                                let mut fields =
                                    vec![("platform".to_string(), Json::from(r.platform.as_str()))];
                                let mut extra: Vec<(String, Json)> = Vec::new();
                                for (k, v) in &r.metrics {
                                    match k.strip_prefix("extra.") {
                                        Some(name) => {
                                            extra.push((name.to_string(), Json::from(*v)))
                                        }
                                        None => fields.push((k.clone(), Json::from(*v))),
                                    }
                                }
                                fields.push(("na_hit_rate".into(), Json::from(r.na_hit_rate)));
                                fields.push((
                                    "speedup_vs_baseline".into(),
                                    Json::from(r.speedup_vs_baseline),
                                ));
                                fields.push(("extra".into(), Json::Obj(extra)));
                                Json::Obj(fields)
                            })),
                        ),
                    ])
                })),
            ),
            (
                "serve",
                Json::arr(self.serve.iter().map(ServeScenarioRecord::to_json)),
            ),
            ("host", Json::arr(self.host.iter().map(HostRecord::to_json))),
            (
                "sweep",
                Json::arr(self.sweep.iter().map(SweepRecord::to_json)),
            ),
            (
                "breakdown",
                Json::arr(self.breakdown.iter().map(BreakdownRecord::to_json)),
            ),
        ])
    }

    /// Parses a report previously produced by [`BenchReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed or missing field.
    /// Unknown numeric fields are kept (forward compatibility within the
    /// same schema id); an unknown `schema` value is rejected.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(text)?)
    }

    /// [`BenchReport::parse`] over an already-parsed value.
    ///
    /// # Errors
    ///
    /// See [`BenchReport::parse`].
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?} (want {SCHEMA:?})"));
        }
        let config = v.get("config").ok_or("missing config")?;
        let num = |obj: &Json, key: &str| -> Result<f64, String> {
            obj.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing numeric field {key:?}"))
        };
        let string = |obj: &Json, key: &str| -> Result<String, String> {
            obj.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {key:?}"))
        };
        let platforms = v
            .get("platforms")
            .and_then(Json::as_arr)
            .ok_or("missing platforms")?
            .iter()
            .map(|p| p.as_str().map(str::to_string).ok_or("non-string platform"))
            .collect::<Result<Vec<_>, _>>()?;
        let mut points = Vec::new();
        for p in v
            .get("points")
            .and_then(Json::as_arr)
            .ok_or("missing points")?
        {
            let mut runs = Vec::new();
            for r in p.get("runs").and_then(Json::as_arr).ok_or("missing runs")? {
                let mut metrics = Vec::new();
                for (k, field) in r.as_obj().ok_or("run is not an object")? {
                    match (k.as_str(), field) {
                        ("platform" | "na_hit_rate" | "speedup_vs_baseline", _) => {}
                        ("extra", Json::Obj(pairs)) => {
                            for (ek, ev) in pairs {
                                let x = ev.as_f64().ok_or("non-numeric extra metric")?;
                                metrics.push((format!("extra.{ek}"), x));
                            }
                        }
                        (_, Json::Num(x)) => metrics.push((k.clone(), *x)),
                        _ => return Err(format!("unexpected run field {k:?}")),
                    }
                }
                runs.push(RunRecord {
                    platform: string(r, "platform")?,
                    metrics,
                    na_hit_rate: r.get("na_hit_rate").and_then(Json::as_f64),
                    speedup_vs_baseline: num(r, "speedup_vs_baseline")?,
                });
            }
            points.push(PointRecord {
                model: string(p, "model")?,
                dataset: string(p, "dataset")?,
                wall_clock_s: num(p, "wall_clock_s")?,
                runs,
            });
        }
        // `serve` was added within the same schema id: reports written
        // before it exists parse with an empty record family.
        let serve = match v.get("serve") {
            None => Vec::new(),
            Some(s) => s
                .as_arr()
                .ok_or("serve is not an array")?
                .iter()
                .map(ServeScenarioRecord::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        };
        // `host` likewise: reports written before the host family exist
        // parse with no host records.
        let host = match v.get("host") {
            None => Vec::new(),
            Some(h) => h
                .as_arr()
                .ok_or("host is not an array")?
                .iter()
                .map(HostRecord::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        };
        // `sweep` likewise: reports written before the sweep family
        // exist parse with no sweep records.
        let sweep = match v.get("sweep") {
            None => Vec::new(),
            Some(s) => s
                .as_arr()
                .ok_or("sweep is not an array")?
                .iter()
                .map(SweepRecord::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        };
        // `breakdown` likewise: reports written before the breakdown
        // family exist parse with no breakdown records.
        let breakdown = match v.get("breakdown") {
            None => Vec::new(),
            Some(b) => b
                .as_arr()
                .ok_or("breakdown is not an array")?
                .iter()
                .map(BreakdownRecord::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        };
        Ok(BenchReport {
            seed: num(config, "seed")? as u64,
            scale: num(config, "scale")?,
            platforms,
            points,
            wall_clock_s: num(v, "wall_clock_s")?,
            serve,
            host,
            sweep,
            breakdown,
        })
    }

    /// Markdown rendering: per-cell latency and speedup table plus a
    /// DRAM traffic table with geomean rows (when the grid ran), a
    /// serving table (when serve scenarios ran), and a host throughput
    /// table (when host records were collected).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if !self.points.is_empty() {
            out.push_str(&self.grid_markdown());
        }
        if !self.serve.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&self.serve_markdown());
        }
        if !self.breakdown.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&self.breakdown_markdown());
        }
        if !self.host.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&self.host_markdown());
        }
        if !self.sweep.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&self.sweep_markdown());
        }
        out
    }

    fn grid_markdown(&self) -> String {
        let mut headers: Vec<String> = vec!["workload".into()];
        for p in &self.platforms {
            headers.push(format!("{p} ms"));
            headers.push(format!("{p} ×"));
        }
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut rows: Vec<Vec<String>> = Vec::new();
        for point in &self.points {
            let mut row = vec![point.label()];
            for run in &point.runs {
                row.push(f2(run.metric("time_ns").unwrap_or(0.0) / 1e6));
                row.push(f2(run.speedup_vs_baseline));
            }
            rows.push(row);
        }
        let mut geo_row = vec!["GEOMEAN".to_string()];
        for (_, g) in self.geomean_speedups() {
            geo_row.push(String::new());
            geo_row.push(f2(g));
        }
        rows.push(geo_row);
        let mut out = format!(
            "### Latency and speedup vs {} (seed {}, scale {})\n\n{}",
            self.platforms.first().map(String::as_str).unwrap_or("?"),
            self.seed,
            self.scale,
            table(&header_refs, &rows),
        );

        let mut dram_headers: Vec<String> = vec!["workload".into()];
        for p in &self.platforms {
            dram_headers.push(format!("{p} MiB"));
        }
        let dram_header_refs: Vec<&str> = dram_headers.iter().map(String::as_str).collect();
        let dram_rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|point| {
                let mut row = vec![point.label()];
                for run in &point.runs {
                    row.push(f2(
                        run.metric("dram_bytes").unwrap_or(0.0) / (1 << 20) as f64
                    ));
                }
                row
            })
            .collect();
        out.push_str("\n### DRAM traffic\n\n");
        out.push_str(&table(&dram_header_refs, &dram_rows));
        out
    }

    fn serve_markdown(&self) -> String {
        let headers = [
            "scenario",
            "platform",
            "req/s",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "batch ×",
            "queue",
            "cache %",
            "misses",
            "replicas",
            "avail %",
            "failover ms",
        ];
        let rows: Vec<Vec<String>> = self
            .serve
            .iter()
            .flat_map(|s| {
                s.runs.iter().map(|r| {
                    let ms = |key: &str| f2(r.metric(key).unwrap_or(0.0) / 1e6);
                    vec![
                        s.scenario.clone(),
                        r.platform.clone(),
                        f2(r.metric("throughput_rps").unwrap_or(0.0)),
                        ms("p50_ns"),
                        ms("p95_ns"),
                        ms("p99_ns"),
                        f2(r.metric("mean_batch_size").unwrap_or(0.0)),
                        f2(r.metric("mean_queue_depth").unwrap_or(0.0)),
                        f2(r.metric("cache_hit_rate").unwrap_or(0.0) * 100.0),
                        f2(r.metric("shard_miss_count").unwrap_or(0.0)),
                        f2(r.metric("replicas_max").unwrap_or(0.0)),
                        // Pre-fault records lack the fault metrics: show
                        // a fully available, failover-free pool.
                        f2(r.metric("availability").unwrap_or(1.0) * 100.0),
                        f2(r.metric("failover_ns").unwrap_or(0.0) / 1e6),
                    ]
                })
            })
            .collect();
        format!(
            "### Serving (seed {}, scale {})\n\n{}",
            self.seed,
            self.scale,
            table(&headers, &rows)
        )
    }

    fn breakdown_markdown(&self) -> String {
        let headers = ["scenario", "stage", "mean ms", "p50 ms", "p99 ms"];
        let rows: Vec<Vec<String>> = self
            .breakdown
            .iter()
            .flat_map(|b| {
                b.stages.iter().map(|s| {
                    vec![
                        b.scenario.clone(),
                        s.stage.clone(),
                        f2(s.mean_ns / 1e6),
                        f2(s.p50_ns / 1e6),
                        f2(s.p99_ns / 1e6),
                    ]
                })
            })
            .collect();
        format!(
            "### Latency attribution (virtual time, not gated; seed {}, scale {})\n\n{}",
            self.seed,
            self.scale,
            table(&headers, &rows)
        )
    }

    fn sweep_markdown(&self) -> String {
        let mut out = String::new();
        for s in &self.sweep {
            let headers = [
                "frontier scenario",
                "p99 ms",
                "req/s",
                "replica s",
                "DRAM MiB",
            ];
            let rows: Vec<Vec<String>> = s
                .table
                .iter()
                .filter(|row| s.frontier.contains(&row.scenario))
                .map(|row| {
                    vec![
                        row.scenario.clone(),
                        f2(row.metric("p99_ns").unwrap_or(0.0) / 1e6),
                        f2(row.metric("throughput_rps").unwrap_or(0.0)),
                        f2(row.metric("replica_seconds").unwrap_or(0.0)),
                        f2(row.metric("dram_bytes").unwrap_or(0.0) / (1 << 20) as f64),
                    ]
                })
                .collect();
            out.push_str(&format!(
                "### Sweep {} — {} scenarios, {} on the Pareto frontier (seed {}, scale {})\n\n{}",
                s.name,
                s.table.len(),
                s.frontier.len(),
                self.seed,
                self.scale,
                table(&headers, &rows),
            ));
            if let Some(rec) = &s.recommend {
                let budget = if rec.budget_replica_seconds > 0.0 {
                    format!(" within {} replica-seconds", rec.budget_replica_seconds)
                } else {
                    String::new()
                };
                if rec.feasible {
                    out.push_str(&format!(
                        "\nrecommended for p99 <= {} ms{budget}: {} \
                         (p99 {} ms, {} req/s, {} replica-seconds)\n",
                        f2(rec.slo_p99_ns / 1e6),
                        rec.scenario,
                        f2(rec.metric("p99_ns").unwrap_or(0.0) / 1e6),
                        f2(rec.metric("throughput_rps").unwrap_or(0.0)),
                        f2(rec.metric("replica_seconds").unwrap_or(0.0)),
                    ));
                } else {
                    out.push_str(&format!(
                        "\nno frontier config meets p99 <= {} ms{budget}\n",
                        f2(rec.slo_p99_ns / 1e6),
                    ));
                }
            }
        }
        out
    }

    fn host_markdown(&self) -> String {
        let headers = ["measurement", "graphs/s", "ns/graph", "wall s"];
        let rows: Vec<Vec<String>> = self
            .host
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    f2(r.metric("graphs_per_sec").unwrap_or(0.0)),
                    f2(r.metric("ns_per_graph").unwrap_or(0.0)),
                    f2(r.metric("wall_clock_s").unwrap_or(0.0)),
                ]
            })
            .collect();
        format!(
            "### Host restructuring throughput (wall clock, not gated; scale {})\n\n{}",
            self.scale,
            table(&headers, &rows)
        )
    }
}

/// Measures host-side restructuring throughput: for every Table 2
/// dataset, times `passes` full frontend passes over its semantic
/// graphs under three execution strategies —
///
/// * `fresh` — a transient restructuring workspace per graph (the
///   allocating baseline every pre-workspace caller paid),
/// * `reused` — one [`Workspace`](gdr_frontend::Workspace) carried
///   across all graphs and passes (the `Session` steady state),
/// * `parallel` —
///   [`Session::par_process`](gdr_frontend::session::Session::par_process)
///   with one workspace per lane,
///
/// and emits one [`HostRecord`] per (dataset, strategy) with
/// `graphs_per_sec` and `ns_per_graph`. This is **wall clock**: values
/// differ across machines and runs, which is exactly why the records
/// are reported but never gated ([`compare`] ignores the `host`
/// family). `passes` is clamped to at least 1.
pub fn collect_host_records(cfg: &ExperimentConfig, passes: usize) -> Vec<HostRecord> {
    collect_host_records_traced(cfg, passes, None)
}

/// Trace track (`pid`) carrying host-side wall-clock sections —
/// distinct from the serving trace's virtual-time process so the two
/// clock domains never share a lane.
pub const HOST_TRACE_PID: u64 = 2;

/// [`collect_host_records`] plus an optional [`ChromeTrace`] hook:
/// when a trace is given, every timed section lands on it as a
/// duration event — one thread track per strategy (`fresh`/`reused`/
/// `parallel`), one span per dataset, timestamped as wall-clock
/// offsets from the collection's start. Unlike serving traces these
/// spans are **not** byte-reproducible (they measure the host), which
/// is why they live on their own [`HOST_TRACE_PID`] process track.
pub fn collect_host_records_traced(
    cfg: &ExperimentConfig,
    passes: usize,
    mut trace: Option<&mut ChromeTrace>,
) -> Vec<HostRecord> {
    use gdr_frontend::config::FrontendConfig;
    use gdr_frontend::pipeline::FrontendPipeline;
    use gdr_frontend::session::Session;
    use gdr_frontend::Workspace;

    const STRATEGIES: [&str; 3] = ["fresh", "reused", "parallel"];
    if let Some(t) = trace.as_deref_mut() {
        t.process_name(HOST_TRACE_PID, "gdr-bench host");
        for (i, strategy) in STRATEGIES.iter().enumerate() {
            t.thread_name(HOST_TRACE_PID, i as u64 + 1, strategy);
        }
    }
    let origin = Instant::now();
    let passes = passes.max(1);
    let mut out = Vec::new();
    for dataset in Dataset::ALL {
        let graphs = dataset
            .build_scaled(cfg.seed, cfg.scale)
            .all_semantic_graphs();
        let pipeline = FrontendPipeline::new(FrontendConfig::default());
        let session = Session::with_pipeline(pipeline.clone(), &graphs);
        let total_graphs = graphs.len() * passes;
        let mut record = |strategy: &str, wall_s: f64| {
            let wall_s = wall_s.max(f64::MIN_POSITIVE);
            let value = |key: &str| -> f64 {
                match key {
                    "graphs" => graphs.len() as f64,
                    "passes" => passes as f64,
                    "wall_clock_s" => wall_s,
                    "graphs_per_sec" => total_graphs as f64 / wall_s,
                    "ns_per_graph" => wall_s * 1e9 / (total_graphs as f64).max(1.0),
                    other => unreachable!("unknown host metric key {other}"),
                }
            };
            out.push(HostRecord {
                name: format!("session/{}/{}", dataset.name(), strategy),
                metrics: HOST_METRIC_KEYS
                    .iter()
                    .map(|&k| (k.to_string(), value(k)))
                    .collect(),
            });
        };
        let span = |trace: &mut Option<&mut ChromeTrace>,
                    strategy_idx: usize,
                    started_ns: u64,
                    elapsed: std::time::Duration| {
            if let Some(t) = trace.as_deref_mut() {
                t.duration(
                    HOST_TRACE_PID,
                    strategy_idx as u64 + 1,
                    started_ns,
                    (elapsed.as_nanos() as u64).max(1),
                    &format!("session/{}", dataset.name()),
                    "host",
                    vec![],
                );
            }
        };

        let started_ns = origin.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        for _ in 0..passes {
            for g in &graphs {
                std::hint::black_box(pipeline.process(g));
            }
        }
        span(&mut trace, 0, started_ns, t0.elapsed());
        record("fresh", t0.elapsed().as_secs_f64());

        let mut ws = Workspace::new();
        let started_ns = origin.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        for _ in 0..passes {
            std::hint::black_box(session.process_with(&mut ws));
        }
        span(&mut trace, 1, started_ns, t0.elapsed());
        record("reused", t0.elapsed().as_secs_f64());

        let started_ns = origin.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        for _ in 0..passes {
            std::hint::black_box(session.par_process());
        }
        span(&mut trace, 2, started_ns, t0.elapsed());
        record("parallel", t0.elapsed().as_secs_f64());
    }
    out
}

/// Every table and figure of the paper's evaluation, regenerated from
/// one grid pass over [`crate::grid::paper_platforms`] and rendered as
/// one markdown document ([`PaperReport::to_markdown`], the source of
/// `EXPERIMENTS.md`) or one JSON document ([`PaperReport::to_json`]).
/// `gdr-bench paper` prints the first and writes the second with
/// `--out`.
///
/// This is the paper-shaped sibling of the platform-generic
/// [`BenchReport`]: it exists because Figs. 2 and 7–10 are projections
/// specific to the paper's four platforms, while [`BenchReport`] carries
/// raw per-record metrics for any platform list.
#[derive(Debug, Clone)]
pub struct PaperReport {
    /// Grid configuration the figures were generated at.
    pub config: ExperimentConfig,
    /// Table 2 (dataset statistics), markdown.
    pub table2_md: String,
    /// Table 3 (platform configurations), markdown.
    pub table3_md: String,
    /// §3 motivation: per-dataset T4 L2 hit % over RGCN NA gathers.
    pub motivation: Vec<(Dataset, f64)>,
    /// Fig. 2: replacement-times histograms.
    pub fig2: Fig2,
    /// Fig. 7: speedups over T4.
    pub fig7: Fig7,
    /// Fig. 8: DRAM access normalized to T4.
    pub fig8: Fig8,
    /// Fig. 9: bandwidth utilization.
    pub fig9: Fig9,
    /// Fig. 10: area and power.
    pub fig10: Fig10,
    /// Design-choice ablations A1–A3.
    pub ablations: AblationReport,
    /// Wall-clock spent running the grid, seconds.
    pub grid_wall_clock_s: f64,
}

impl PaperReport {
    /// Regenerates every figure and table at `cfg`, running the grid
    /// once. The ablations run on DBLP's largest semantic graph with the
    /// HiHGNN NA-window capacity.
    pub fn collect(cfg: &ExperimentConfig) -> Self {
        let t0 = Instant::now();
        let grid = run_grid(cfg);
        let grid_wall_clock_s = t0.elapsed().as_secs_f64();
        let cap = gdr_accel::hihgnn::HiHgnnConfig::default().na_window_features();
        Self {
            config: *cfg,
            table2_md: table2(cfg),
            table3_md: table3(),
            motivation: motivation_l2(&grid),
            fig2: fig2(&grid),
            fig7: fig7(&grid),
            fig8: fig8(&grid),
            fig9: fig9(&grid),
            fig10: fig10(),
            ablations: AblationReport::collect(cfg, Dataset::Dblp, cap),
            grid_wall_clock_s,
        }
    }

    /// The full experiment document (the `gdr-bench paper` stdout).
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "# GDR-HGNN experiment results (scale {})\n\n",
            self.config.scale
        );
        out.push_str("## Table 2: datasets\n\n");
        out.push_str(&self.table2_md);
        out.push_str("\n## Table 3: platforms\n\n");
        out.push_str(&self.table3_md);
        out.push_str("\n## Motivation (§3): T4 L2 hit ratio, RGCN NA stage\n\n");
        out.push_str("paper: IMDB 30.1%, DBLP 17.5%\n\n");
        for (d, pct) in &self.motivation {
            out.push_str(&format!("- {d}: {pct:.1}%\n"));
        }
        out.push_str("\n## Fig. 2: feature replacement times on HiHGNN (RGCN)\n\n");
        out.push_str(&self.fig2.to_markdown());
        out.push_str("\n## Fig. 7: speedup over T4\n\n");
        out.push_str(&self.fig7.to_markdown());
        let (vs_t4, vs_a100, vs_hihgnn) = self.fig7.headline();
        out.push_str(&format!(
            "\nheadline: GDR+HiHGNN = {vs_t4:.1}x vs T4 (paper 68.8x), {vs_a100:.1}x vs A100 (paper 14.6x), {vs_hihgnn:.2}x vs HiHGNN (paper 1.78x)\n"
        ));
        out.push_str("\n## Fig. 8: DRAM access normalized to T4 (%)\n\n");
        out.push_str(&self.fig8.to_markdown());
        let (g_t4, g_a100, g_hihgnn) = self.fig8.headline();
        out.push_str(&format!(
            "\nheadline: GDR+HiHGNN accesses {g_t4:.1}% of T4 (paper 4.8%), {g_a100:.1}% of A100 (paper 8.7%), {g_hihgnn:.1}% of HiHGNN (paper 57.1%)\n"
        ));
        out.push_str("\n## Fig. 9: DRAM bandwidth utilization (%)\n\n");
        out.push_str(&self.fig9.to_markdown());
        let (u_t4, u_a100) = self.fig9.headline();
        out.push_str(&format!(
            "\nheadline: GDR+HiHGNN utilization {u_t4:.2}x of T4 (paper 2.58x), {u_a100:.2}x of A100 (paper 6.35x)\n"
        ));
        out.push_str("\n## Fig. 10: area and power\n\n");
        out.push_str(&self.fig10.to_markdown());
        out.push_str(&format!(
            "\nGDR area share {:.2}% (paper 2.30%), power share {:.2}% (paper 0.46%)\n",
            self.fig10.gdr_area_pct, self.fig10.gdr_power_pct
        ));
        let (af, ab, ao) = self.fig10.gdr_area_breakdown;
        let (pf, pb, po) = self.fig10.gdr_power_breakdown;
        out.push_str(&format!(
            "GDR area breakdown: FIFOs {af:.2}% / buffers {ab:.2}% / others {ao:.2}% (paper 0.87/91.74/7.39)\n"
        ));
        out.push_str(&format!(
            "GDR power breakdown: FIFOs {pf:.2}% / buffers {pb:.2}% / others {po:.2}% (paper 2.17/93.48/4.35)\n"
        ));
        out.push_str("\n## Ablations (ours)\n\n");
        out.push_str(&self.ablations.to_markdown());
        out
    }

    /// One JSON document bundling every figure/table rendering.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from("gdr-paper-report/v1")),
            (
                "config",
                Json::obj([
                    ("seed", Json::from(self.config.seed)),
                    ("scale", Json::from(self.config.scale)),
                ]),
            ),
            ("grid_wall_clock_s", Json::from(self.grid_wall_clock_s)),
            ("table2_markdown", Json::from(self.table2_md.as_str())),
            ("table3_markdown", Json::from(self.table3_md.as_str())),
            (
                "motivation_t4_l2_hit_pct",
                Json::obj(
                    self.motivation
                        .iter()
                        .map(|(d, pct)| (d.name().to_string(), Json::from(*pct))),
                ),
            ),
            ("fig2", self.fig2.to_json()),
            ("fig7", self.fig7.to_json()),
            ("fig8", self.fig8.to_json()),
            ("fig9", self.fig9.to_json()),
            ("fig10", self.fig10.to_json()),
            ("ablations", self.ablations.to_json()),
        ])
    }
}

/// One metric's movement between two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Cell label (`"RGCN/ACM"`).
    pub point: String,
    /// Platform label.
    pub platform: String,
    /// Metric key.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
}

impl Delta {
    /// Percent change, positive = metric grew (worse, for gated
    /// lower-is-better metrics).
    pub fn change_pct(&self) -> f64 {
        if self.baseline == 0.0 {
            if self.current == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.current / self.baseline - 1.0) * 100.0
        }
    }
}

/// Outcome of comparing a current report against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Regression threshold in percent (e.g. `10.0`).
    pub threshold_pct: f64,
    /// Gated metrics that grew past the threshold.
    pub regressions: Vec<Delta>,
    /// Gated metrics that shrank past the threshold (celebrate, and
    /// refresh the committed baseline so the win is locked in).
    pub improvements: Vec<Delta>,
    /// `(cell, platform)` records present in the baseline but absent
    /// from the current report — a shrunk grid also fails the gate.
    pub missing: Vec<String>,
    /// Set when the two reports were produced from different
    /// `(seed, scale)` configurations and are not comparable.
    pub config_mismatch: Option<String>,
}

impl Comparison {
    /// Whether the gate passes: comparable configs, full coverage, no
    /// gated regression.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty() && self.config_mismatch.is_none()
    }

    /// Human-readable verdict for CI logs.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if let Some(m) = &self.config_mismatch {
            out.push_str(&format!("**config mismatch:** {m}\n"));
        }
        for m in &self.missing {
            out.push_str(&format!("**missing from current report:** {m}\n"));
        }
        let describe = |out: &mut String, title: &str, deltas: &[Delta]| {
            if deltas.is_empty() {
                return;
            }
            out.push_str(&format!(
                "\n**{title}** (threshold {}%):\n",
                self.threshold_pct
            ));
            for d in deltas {
                out.push_str(&format!(
                    "- {} on {}: {} {} → {} ({:+.1}%)\n",
                    d.metric,
                    d.point,
                    d.platform,
                    d.baseline,
                    d.current,
                    d.change_pct()
                ));
            }
        };
        describe(&mut out, "regressions", &self.regressions);
        describe(&mut out, "improvements", &self.improvements);
        if self.passed() {
            let keys = |family: GateFamily, gating: Gating| -> String {
                GATED_METRICS
                    .iter()
                    .filter(|&&(f, _, _, g)| f == family && g == gating)
                    .map(|&(_, k, higher, _)| {
                        format!("{k} ({} better)", if higher { "higher" } else { "lower" })
                    })
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            out.push_str(&format!(
                "perf gate PASSED: no gated metric (grid: {}; serve: {}; serve, when pinned: {}) \
                 moved more than {}% in the bad direction on all compared records\n",
                keys(GateFamily::Grid, Gating::Always),
                keys(GateFamily::Serve, Gating::Always),
                keys(GateFamily::Serve, Gating::IfPinned),
                self.threshold_pct,
            ));
        }
        out
    }

    /// Gates one baseline record against its current counterpart on
    /// every `family` entry of [`GATED_METRICS`]. `point` and `platform`
    /// label the deltas and the missing-metric messages.
    fn check_record(
        &mut self,
        family: GateFamily,
        point: &str,
        platform: &str,
        baseline: impl Fn(&str) -> Option<f64>,
        current: impl Fn(&str) -> Option<f64>,
    ) {
        let band = self.threshold_pct / 100.0;
        for &(f, metric, higher_is_better, gating) in GATED_METRICS {
            if f != family {
                continue;
            }
            let missing = || format!("{metric} for {point} on {platform}");
            // A gated metric absent on either side must not pass silently
            // — a vacuous comparison is a broken gate — unless the
            // baseline predates an IfPinned key.
            let b = match (baseline(metric), gating) {
                (Some(b), _) => b,
                (None, Gating::IfPinned) => continue,
                (None, Gating::Always) => {
                    self.missing.push(missing());
                    continue;
                }
            };
            let Some(c) = current(metric) else {
                self.missing.push(missing());
                continue;
            };
            let (grew, shrank) = (c > b * (1.0 + band), c < b * (1.0 - band));
            let (worse, better) = if higher_is_better {
                (shrank, grew)
            } else {
                (grew, shrank)
            };
            let delta = Delta {
                point: point.to_string(),
                platform: platform.to_string(),
                metric: metric.to_string(),
                baseline: b,
                current: c,
            };
            if worse {
                self.regressions.push(delta);
            } else if better {
                self.improvements.push(delta);
            }
        }
    }
}

/// Compares `current` against `baseline` on every [`GATED_METRICS`]
/// entry — the grid family on each (cell, platform) record, the serve
/// family on each (scenario, platform) record — flagging any gated
/// metric that moved in the bad direction by more than `threshold_pct`
/// percent. A baseline record absent from `current` fails as missing.
/// Wall-clock fields and non-gated metrics are never compared — they
/// are either machine-dependent or direction-ambiguous. The `host`,
/// `sweep`, and `breakdown` families are likewise ignored: host
/// records are wall clock, a sweep's table shape is whatever the user
/// swept, and a breakdown only decomposes latencies the `serve` family
/// already gates — so none has an independent stable baseline.
pub fn compare(baseline: &BenchReport, current: &BenchReport, threshold_pct: f64) -> Comparison {
    let mut cmp = Comparison {
        threshold_pct,
        regressions: Vec::new(),
        improvements: Vec::new(),
        missing: Vec::new(),
        config_mismatch: None,
    };
    if baseline.seed != current.seed || baseline.scale != current.scale {
        cmp.config_mismatch = Some(format!(
            "baseline (seed {}, scale {}) vs current (seed {}, scale {})",
            baseline.seed, baseline.scale, current.seed, current.scale
        ));
        return cmp;
    }
    for b_point in &baseline.points {
        let c_point = current
            .points
            .iter()
            .find(|p| p.model == b_point.model && p.dataset == b_point.dataset);
        let point = b_point.label();
        for b_run in &b_point.runs {
            let c_run = c_point.and_then(|p| p.runs.iter().find(|r| r.platform == b_run.platform));
            let Some(c_run) = c_run else {
                cmp.missing.push(format!("{point} on {}", b_run.platform));
                continue;
            };
            cmp.check_record(
                GateFamily::Grid,
                &point,
                &b_run.platform,
                |k| b_run.metric(k),
                |k| c_run.metric(k),
            );
        }
    }
    for b_scn in &baseline.serve {
        let c_scn = current.serve.iter().find(|s| s.scenario == b_scn.scenario);
        let point = format!("serve {}", b_scn.scenario);
        for b_run in &b_scn.runs {
            let c_run = c_scn.and_then(|s| s.runs.iter().find(|r| r.platform == b_run.platform));
            let Some(c_run) = c_run else {
                cmp.missing.push(format!("{point} on {}", b_run.platform));
                continue;
            };
            cmp.check_record(
                GateFamily::Serve,
                &point,
                &b_run.platform,
                |k| b_run.metric(k),
                |k| c_run.metric(k),
            );
        }
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{paper_platforms, platform_refs};

    fn tiny_report() -> BenchReport {
        let platforms = paper_platforms();
        let refs = platform_refs(&platforms);
        BenchReport::collect(
            &refs,
            &ExperimentConfig {
                seed: 11,
                scale: 0.04,
            },
        )
        .unwrap()
    }

    /// Scales a gated metric on every record, simulating a regression or
    /// improvement.
    fn scaled(report: &BenchReport, metric: &str, factor: f64) -> BenchReport {
        let mut out = report.clone();
        for p in &mut out.points {
            for r in &mut p.runs {
                for (k, v) in &mut r.metrics {
                    if k == metric {
                        *v *= factor;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn collect_covers_grid_and_baselines_speedup() {
        let r = tiny_report();
        assert_eq!(r.points.len(), 9);
        assert_eq!(r.platforms, ["T4", "A100", "HiHGNN", "HiHGNN+GDR"]);
        for p in &r.points {
            assert_eq!(p.runs.len(), 4);
            // first platform is its own baseline
            assert!((p.runs[0].speedup_vs_baseline - 1.0).abs() < 1e-12);
            // combined system surfaces frontend session stats
            assert!(p.runs[3].metric("extra.frontend_cycles").unwrap() > 0.0);
            assert!(p.runs[3].metric("extra.cycles").unwrap() > 0.0);
        }
        let geo = r.geomean_speedups();
        assert!((geo[0].1 - 1.0).abs() < 1e-12);
        assert!(geo[2].1 > geo[1].1, "HiHGNN geomean beats A100");
    }

    #[test]
    fn json_round_trip_preserves_records() {
        let r = tiny_report();
        let parsed = BenchReport::parse(&r.to_json().to_pretty()).unwrap();
        assert_eq!(parsed, r);
        // compact form parses identically
        assert_eq!(BenchReport::parse(&r.to_json().to_compact()).unwrap(), r);
    }

    #[test]
    fn markdown_renders_tables() {
        let r = tiny_report();
        let md = r.to_markdown();
        assert!(md.contains("GEOMEAN"));
        assert!(md.contains("RGCN/ACM"));
        assert!(md.contains("DRAM traffic"));
    }

    #[test]
    fn paper_report_renders_every_section() {
        let r = PaperReport::collect(&ExperimentConfig {
            seed: 7,
            scale: 0.05,
        });
        let md = r.to_markdown();
        for section in [
            "Table 2",
            "Table 3",
            "Motivation",
            "Fig. 2",
            "Fig. 7",
            "Fig. 8",
            "Fig. 9",
            "Fig. 10",
            "Ablations",
            "headline",
        ] {
            assert!(md.contains(section), "missing section {section}");
        }
        let j = r.to_json();
        assert!(j.get("fig7").is_some() && j.get("ablations").is_some());
        assert_eq!(Json::parse(&j.to_pretty()).unwrap(), j);
    }

    #[test]
    fn comparator_flags_20pct_slowdown_and_passes_5pct() {
        let base = tiny_report();
        let slow = scaled(&base, "time_ns", 1.20);
        let cmp = compare(&base, &slow, 10.0);
        assert!(!cmp.passed());
        assert_eq!(cmp.regressions.len(), 36, "9 cells × 4 platforms");
        assert!(cmp.regressions.iter().all(|d| d.metric == "time_ns"));
        assert!((cmp.regressions[0].change_pct() - 20.0).abs() < 1e-6);

        let ok = scaled(&base, "time_ns", 1.05);
        assert!(compare(&base, &ok, 10.0).passed());
    }

    #[test]
    fn comparator_reports_improvements_and_missing() {
        let base = tiny_report();
        let fast = scaled(&base, "dram_bytes", 0.5);
        let cmp = compare(&base, &fast, 10.0);
        assert!(cmp.passed(), "improvements alone must not fail the gate");
        assert_eq!(cmp.improvements.len(), 36);

        let mut shrunk = base.clone();
        shrunk.points[0].runs.pop();
        let cmp = compare(&base, &shrunk, 10.0);
        assert!(!cmp.passed());
        assert_eq!(cmp.missing, ["RGCN/ACM on HiHGNN+GDR"]);
        assert!(cmp.to_markdown().contains("missing"));
    }

    #[test]
    fn comparator_fails_when_a_gated_metric_is_absent() {
        // Stripping time_ns from one run must fail the gate, not pass
        // it vacuously.
        let base = tiny_report();
        let mut stripped = base.clone();
        stripped.points[0].runs[0]
            .metrics
            .retain(|(k, _)| k != "time_ns");
        let cmp = compare(&base, &stripped, 10.0);
        assert!(!cmp.passed());
        assert_eq!(cmp.missing, ["time_ns for RGCN/ACM on T4"]);
        // ...in either direction
        assert!(!compare(&stripped, &base, 10.0).passed());
    }

    #[test]
    fn comparator_rejects_mismatched_configs() {
        let base = tiny_report();
        let mut other = base.clone();
        other.scale = 1.0;
        let cmp = compare(&base, &other, 10.0);
        assert!(!cmp.passed());
        assert!(cmp.config_mismatch.is_some());
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        let r = tiny_report();
        let text = r.to_json().to_compact().replace(SCHEMA, "gdr-bench/v999");
        assert!(BenchReport::parse(&text).is_err());
    }

    /// A synthetic serve scenario with the canonical metric keys.
    fn serve_scenario(name: &str, p99_ns: f64, throughput_rps: f64) -> ServeScenarioRecord {
        serve_scenario_with(
            name,
            &[("p99_ns", p99_ns), ("throughput_rps", throughput_rps)],
        )
    }

    /// A synthetic serve scenario overriding the given metric keys.
    fn serve_scenario_with(name: &str, overrides: &[(&str, f64)]) -> ServeScenarioRecord {
        let metrics = SERVE_METRIC_KEYS
            .iter()
            .map(|&k| {
                let v = overrides
                    .iter()
                    .find(|(ok, _)| *ok == k)
                    .map(|&(_, v)| v)
                    .unwrap_or(64.0);
                (k.to_string(), v)
            })
            .collect();
        ServeScenarioRecord {
            scenario: name.into(),
            arrival: "poisson".into(),
            rate_rps: 1000.0,
            batch: "size-capped:8".into(),
            scheduler: "round-robin".into(),
            replicas: 2,
            shards: 3,
            cache_bytes: 1 << 20,
            autoscale: "queue:32:2:max4".into(),
            faults: "crash:0@80000;control:vr".into(),
            seed: 7,
            requests: 64,
            runs: vec![ServeRunRecord {
                platform: "ALL".into(),
                metrics,
            }],
        }
    }

    #[test]
    fn serve_records_round_trip_and_render() {
        let mut r = tiny_report();
        r.serve = vec![serve_scenario("poisson-hi/immediate", 5.0e6, 900.0)];
        let parsed = BenchReport::parse(&r.to_json().to_pretty()).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(
            parsed.serve[0].aggregate().unwrap().metric("p99_ns"),
            Some(5.0e6)
        );
        let md = r.to_markdown();
        assert!(md.contains("Serving") && md.contains("poisson-hi/immediate"));
        // a serve-only report renders only the serving table
        let only = BenchReport {
            points: Vec::new(),
            wall_clock_s: 0.0,
            ..r
        };
        let md = only.to_markdown();
        assert!(md.contains("Serving") && !md.contains("GEOMEAN"));
    }

    #[test]
    fn comparator_gates_serve_tail_latency_and_throughput() {
        let mut base = tiny_report();
        base.serve = vec![serve_scenario("s", 1.0e6, 1000.0)];

        // 20% p99 growth fails, 20% throughput loss fails …
        let mut slow = base.clone();
        slow.serve = vec![serve_scenario("s", 1.2e6, 1000.0)];
        assert!(!compare(&base, &slow, 10.0).passed());
        let mut starved = base.clone();
        starved.serve = vec![serve_scenario("s", 1.0e6, 800.0)];
        let cmp = compare(&base, &starved, 10.0);
        assert!(!cmp.passed());
        assert_eq!(cmp.regressions[0].metric, "throughput_rps");

        // … while gains in either direction only count as improvements.
        let mut faster = base.clone();
        faster.serve = vec![serve_scenario("s", 0.5e6, 2000.0)];
        let cmp = compare(&base, &faster, 10.0);
        assert!(cmp.passed());
        assert_eq!(cmp.improvements.len(), 2);

        // a vanished scenario fails the gate
        let mut gone = base.clone();
        gone.serve.clear();
        let cmp = compare(&base, &gone, 10.0);
        assert!(!cmp.passed());
        assert_eq!(cmp.missing, ["serve s on ALL"]);
    }

    #[test]
    fn comparator_gates_cache_hit_rate_and_shard_miss_count() {
        let mut base = tiny_report();
        base.serve = vec![serve_scenario_with(
            "s",
            &[("cache_hit_rate", 0.8), ("shard_miss_count", 10.0)],
        )];

        // a cooling feature cache fails the gate…
        let mut cooled = base.clone();
        cooled.serve = vec![serve_scenario_with(
            "s",
            &[("cache_hit_rate", 0.6), ("shard_miss_count", 10.0)],
        )];
        let cmp = compare(&base, &cooled, 10.0);
        assert!(!cmp.passed());
        assert_eq!(cmp.regressions.len(), 1);
        assert_eq!(cmp.regressions[0].metric, "cache_hit_rate");

        // …and so do growing shard misses…
        let mut missy = base.clone();
        missy.serve = vec![serve_scenario_with(
            "s",
            &[("cache_hit_rate", 0.8), ("shard_miss_count", 20.0)],
        )];
        let cmp = compare(&base, &missy, 10.0);
        assert!(!cmp.passed());
        assert_eq!(cmp.regressions.len(), 1);
        assert_eq!(cmp.regressions[0].metric, "shard_miss_count");

        // …while moves inside the threshold and in the good direction
        // pass.
        let mut better = base.clone();
        better.serve = vec![serve_scenario_with(
            "s",
            &[("cache_hit_rate", 0.95), ("shard_miss_count", 2.0)],
        )];
        let cmp = compare(&base, &better, 10.0);
        assert!(cmp.passed());
        assert_eq!(cmp.improvements.len(), 2);
        let mut close = base.clone();
        close.serve = vec![serve_scenario_with(
            "s",
            &[("cache_hit_rate", 0.75), ("shard_miss_count", 10.5)],
        )];
        assert!(compare(&base, &close, 10.0).passed());
    }

    /// A synthetic sweep row over the four frontier objectives.
    fn sweep_row(name: &str, p99: f64, thr: f64, cost: f64, dram: f64) -> SweepRowRecord {
        SweepRowRecord {
            scenario: name.into(),
            metrics: vec![
                ("p99_ns".into(), p99),
                ("throughput_rps".into(), thr),
                ("replica_seconds".into(), cost),
                ("dram_bytes".into(), dram),
            ],
        }
    }

    #[test]
    fn dominance_needs_no_worse_everywhere_and_better_somewhere() {
        let a = sweep_row("a", 1.0, 100.0, 1.0, 1.0);
        let better_tail = sweep_row("b", 0.5, 100.0, 1.0, 1.0);
        let tradeoff = sweep_row("c", 0.5, 100.0, 2.0, 1.0);
        assert!(dominates(&better_tail, &a));
        assert!(!dominates(&a, &better_tail));
        assert!(!dominates(&a, &a), "dominance is irreflexive");
        assert!(
            !dominates(&tradeoff, &a) && !dominates(&a, &tradeoff),
            "a tradeoff dominates nothing"
        );
        // a row missing an objective is incomparable, not zero
        let partial = SweepRowRecord {
            scenario: "partial".into(),
            metrics: vec![("p99_ns".into(), 0.1)],
        };
        assert!(!dominates(&partial, &a) && !dominates(&a, &partial));
    }

    #[test]
    fn frontier_excludes_exactly_the_dominated_rows() {
        let table = vec![
            sweep_row("cheap-slow", 4.0, 50.0, 1.0, 8.0),
            sweep_row("fast-costly", 1.0, 200.0, 4.0, 8.0),
            sweep_row("dominated", 4.0, 40.0, 2.0, 8.0), // worse than cheap-slow
            sweep_row("balanced", 2.0, 120.0, 2.0, 8.0),
        ];
        let frontier = pareto_frontier(&table);
        assert_eq!(frontier, [0, 1, 3]);
        // every excluded row is dominated by some frontier row
        assert!(frontier.iter().any(|&i| dominates(&table[i], &table[2])));
    }

    #[test]
    fn recommendation_picks_the_cheapest_slo_meeting_frontier_config() {
        let table = vec![
            sweep_row("cheap-slow", 4.0, 50.0, 1.0, 8.0),
            sweep_row("fast-costly", 1.0, 200.0, 4.0, 8.0),
            sweep_row("balanced", 2.0, 120.0, 2.0, 8.0),
        ];
        let frontier = pareto_frontier(&table);
        assert_eq!(frontier, [0, 1, 2]);

        // the cheapest config meeting a 2.5 ns SLO is "balanced"
        let rec = recommend(&table, &frontier, 2.5, 0.0);
        assert!(rec.feasible);
        assert_eq!(rec.scenario, "balanced");
        assert_eq!(rec.metric("replica_seconds"), Some(2.0));
        // a loose SLO picks the globally cheapest config
        assert_eq!(
            recommend(&table, &frontier, 10.0, 0.0).scenario,
            "cheap-slow"
        );
        // a budget can force the faster, pricier config out
        let rec = recommend(&table, &frontier, 1.5, 3.0);
        assert!(!rec.feasible, "only fast-costly meets the SLO, over budget");
        assert!(rec.scenario.is_empty() && rec.metrics.is_empty());
        // an impossible SLO is infeasible, not a panic
        assert!(!recommend(&table, &frontier, 0.1, 0.0).feasible);
    }

    #[test]
    fn sweep_records_round_trip_render_and_never_gate() {
        let table = vec![
            sweep_row("a", 1.0e6, 200.0, 4.0, 8.0),
            sweep_row("b", 4.0e6, 50.0, 1.0, 8.0),
        ];
        let frontier_idx = pareto_frontier(&table);
        let rec = recommend(&table, &frontier_idx, 5.0e6, 0.0);
        let mut r = tiny_report();
        r.sweep = vec![SweepRecord {
            name: "default".into(),
            axes: vec![("rate".into(), "600000,1200000".into())],
            requests: 384,
            platform: "HiHGNN+GDR".into(),
            frontier: frontier_idx
                .iter()
                .map(|&i| table[i].scenario.clone())
                .collect(),
            table,
            recommend: Some(rec),
        }];
        let parsed = BenchReport::parse(&r.to_json().to_pretty()).unwrap();
        assert_eq!(parsed, r);
        let md = r.to_markdown();
        assert!(md.contains("Pareto frontier") && md.contains("recommended"));

        // sweeps are reported, never gated: stripping or perturbing the
        // sweep family moves nothing in the comparator.
        let mut gone = r.clone();
        gone.sweep.clear();
        assert!(compare(&r, &gone, 10.0).passed());
        assert!(compare(&gone, &r, 10.0).passed());

        // a recommend-free record parses with recommend = None
        let mut bare = r.clone();
        bare.sweep[0].recommend = None;
        let parsed = BenchReport::parse(&bare.to_json().to_compact()).unwrap();
        assert_eq!(parsed, bare);
    }

    /// `report` as a baseline written before any [`Gating::IfPinned`]
    /// key existed.
    fn without_pinned_metrics(report: &BenchReport) -> BenchReport {
        let mut old = report.clone();
        for r in old.serve.iter_mut().flat_map(|s| &mut s.runs) {
            r.metrics.retain(|(k, _)| {
                !GATED_METRICS
                    .iter()
                    .any(|&(_, gk, _, g)| gk == k && g == Gating::IfPinned)
            });
        }
        old
    }

    #[test]
    fn comparator_gates_fault_metrics_only_when_the_baseline_pins_them() {
        let mut base = tiny_report();
        base.serve = vec![serve_scenario_with(
            "s",
            &[("availability", 1.0), ("failover_ns", 20_000.0)],
        )];

        // shrinking availability and growing failover both fail …
        let mut flaky = base.clone();
        flaky.serve = vec![serve_scenario_with(
            "s",
            &[("availability", 0.8), ("failover_ns", 20_000.0)],
        )];
        let cmp = compare(&base, &flaky, 10.0);
        assert!(!cmp.passed());
        assert_eq!(cmp.regressions[0].metric, "availability");
        let mut slow_failover = base.clone();
        slow_failover.serve = vec![serve_scenario_with(
            "s",
            &[("availability", 1.0), ("failover_ns", 40_000.0)],
        )];
        let cmp = compare(&base, &slow_failover, 10.0);
        assert!(!cmp.passed());
        assert_eq!(cmp.regressions[0].metric, "failover_ns");

        // … and a current report that *lost* a pinned fault metric fails
        // as missing, like any gated metric.
        let mut lost = base.clone();
        lost.serve = vec![serve_scenario_with(
            "s",
            &[("availability", 1.0), ("failover_ns", 20_000.0)],
        )];
        lost.serve[0].runs[0]
            .metrics
            .retain(|(k, _)| k != "availability");
        let cmp = compare(&base, &lost, 10.0);
        assert!(!cmp.passed());
        assert!(cmp.missing.iter().any(|m| m.contains("availability")));

        // A *baseline* without the fault keys gates nothing on them: the
        // same degraded current report passes (pre-fault back-compat).
        let old = without_pinned_metrics(&base);
        assert!(compare(&old, &flaky, 10.0).passed());
    }

    #[test]
    fn comparator_gates_cost_metrics_only_when_the_baseline_pins_them() {
        let mut base = tiny_report();
        base.serve = vec![serve_scenario_with(
            "s",
            &[("replica_seconds", 2.0), ("slo_violation_rate", 0.01)],
        )];

        // burning more replica-seconds fails — the "meet the SLO at
        // minimum cost" half of the serving evaluation …
        let mut pricey = base.clone();
        pricey.serve = vec![serve_scenario_with(
            "s",
            &[("replica_seconds", 3.0), ("slo_violation_rate", 0.01)],
        )];
        let cmp = compare(&base, &pricey, 10.0);
        assert!(!cmp.passed());
        assert_eq!(cmp.regressions[0].metric, "replica_seconds");

        // … and so does a growing violation rate.
        let mut violating = base.clone();
        violating.serve = vec![serve_scenario_with(
            "s",
            &[("replica_seconds", 2.0), ("slo_violation_rate", 0.2)],
        )];
        let cmp = compare(&base, &violating, 10.0);
        assert!(!cmp.passed());
        assert_eq!(cmp.regressions[0].metric, "slo_violation_rate");

        // A current report that *lost* a pinned cost metric fails as
        // missing, like any gated metric.
        let mut lost = base.clone();
        lost.serve[0].runs[0]
            .metrics
            .retain(|(k, _)| k != "replica_seconds");
        let cmp = compare(&base, &lost, 10.0);
        assert!(!cmp.passed());
        assert!(cmp.missing.iter().any(|m| m.contains("replica_seconds")));

        // A *baseline* without the cost keys gates nothing on them:
        // reports written before the keys existed stay comparable.
        let old = without_pinned_metrics(&base);
        assert!(compare(&old, &pricey, 10.0).passed());
        assert!(compare(&old, &violating, 10.0).passed());
    }
}

//! `gdr-perfbench`: how fast the GDR-HGNN host software runs, and what
//! speedup its models report.
//!
//! Two workloads, each a batch job with a fixed amount of work per
//! pass (see `README.md` in this directory for why each was chosen):
//!
//! * [`Workload::Replay`]: a recorded serving schedule replayed on one
//!   lane through the frontend hot path (restructure + NA-buffer sim);
//! * [`Workload::ServeTraced`]: a crash/failover scenario, 4 streams of
//!   10 000 requests, simulated with tracing, folded into a breakdown
//!   and exported.
//!
//! The traced `replay` run also probes the paper's 3 models x 3 datasets
//! x 4 platforms grid once ([`grid`]).
//!
//! [`run`] sets a workload up several times, runs one untimed warm-up
//! pass, then times passes until the time budget is spent. A pass is a
//! fixed sequence of units (replayed batches, serving streams), each
//! timed on its own; `work_per_s` rests on each unit's fastest time. With tracing
//! on, half of the budget runs traced passes that record a span around
//! every call into a layer's public API ([`spans::Recorder`]).

use std::collections::BTreeMap;
use std::time::Instant;

pub mod grid;
pub mod replay;
pub mod serve;
pub mod spans;

use spans::Recorder;

/// Dataset seed every workload uses unless told otherwise (the seed the
/// committed reports and `bench/baseline.json` are generated with).
pub const DEFAULT_DATASET_SEED: u64 = 42;
/// Request-stream seed every serving workload uses unless told otherwise.
pub const DEFAULT_REQUEST_SEED: u64 = 7;
/// Minimum set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Set-ups repeat past [`SETUP_REPS`] until they have taken this long...
const SETUP_BUDGET_S: f64 = 2.0;
/// ...or this many have run.
const MAX_SETUP_REPS: usize = 31;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"` is better.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    def("work_per_s", "1/s", "higher"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not call reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    def("core.matching.ns_per_edge.acm", "ns/edge", "lower"),
    def("core.matching.ns_per_edge.imdb", "ns/edge", "lower"),
    def("core.matching.ns_per_edge.dblp", "ns/edge", "lower"),
    def("core.backbone.ns_per_edge.acm", "ns/edge", "lower"),
    def("core.backbone.ns_per_edge.imdb", "ns/edge", "lower"),
    def("core.backbone.ns_per_edge.dblp", "ns/edge", "lower"),
    def("core.partition.ns_per_edge.acm", "ns/edge", "lower"),
    def("core.partition.ns_per_edge.imdb", "ns/edge", "lower"),
    def("core.partition.ns_per_edge.dblp", "ns/edge", "lower"),
    def("core.subgraphs.ns_per_edge.acm", "ns/edge", "lower"),
    def("core.subgraphs.ns_per_edge.imdb", "ns/edge", "lower"),
    def("core.subgraphs.ns_per_edge.dblp", "ns/edge", "lower"),
    def("core.schedule.ns_per_edge.acm", "ns/edge", "lower"),
    def("core.schedule.ns_per_edge.imdb", "ns/edge", "lower"),
    def("core.schedule.ns_per_edge.dblp", "ns/edge", "lower"),
    def(
        "core.matching.edge_probes_per_edge.acm",
        "probes/edge",
        "lower",
    ),
    def(
        "core.matching.edge_probes_per_edge.imdb",
        "probes/edge",
        "lower",
    ),
    def(
        "core.matching.edge_probes_per_edge.dblp",
        "probes/edge",
        "lower",
    ),
    def("core.cover_violations", "count", "lower"),
    def("core.fifo_matching.ns_per_edge.acm", "ns/edge", "lower"),
    def("core.fifo_matching.ns_per_edge.imdb", "ns/edge", "lower"),
    def("core.fifo_matching.ns_per_edge.dblp", "ns/edge", "lower"),
    def("accel.na_sim.ns_per_edge.acm", "ns/edge", "lower"),
    def("accel.na_sim.ns_per_edge.imdb", "ns/edge", "lower"),
    def("accel.na_sim.ns_per_edge.dblp", "ns/edge", "lower"),
    def("accel.na_sim.hit_rate.acm", "ratio", "higher"),
    def("accel.na_sim.hit_rate.imdb", "ratio", "higher"),
    def("accel.na_sim.hit_rate.dblp", "ratio", "higher"),
    def("accel.gpu.ns_per_edge.t4", "ns/edge", "lower"),
    def("accel.gpu.ns_per_edge.a100", "ns/edge", "lower"),
    def("accel.hihgnn.ns_per_edge", "ns/edge", "lower"),
    def("accel.gpu.l2_hit_rate.t4", "ratio", "higher"),
    def("accel.gpu.l2_hit_rate.a100", "ratio", "higher"),
    def("frontend.session.ns_per_edge", "ns/edge", "lower"),
    def("system.combined.ns_per_edge", "ns/edge", "lower"),
    def("serve.sim.ns_per_request", "ns/request", "lower"),
    def("serve.sim.traced_ns_per_request", "ns/request", "lower"),
    def("serve.sim.events_per_request", "events/request", "lower"),
    def("serve.sim.bytes_per_request", "B/request", "lower"),
    def("serve.record.ns_per_request", "ns/request", "lower"),
    def("serve.breakdown.ns_per_request", "ns/request", "lower"),
    def("serve.chrome.ns_per_event", "ns/event", "lower"),
    def("system.json.ns_per_byte", "ns/B", "lower"),
    def("serve.replay.batch_ms.p50", "ms", "lower"),
    def("serve.replay.batch_ms.p99", "ms", "lower"),
    def("serve.replay.batch_samples", "count", "higher"),
    def("hetgraph.build_s", "s", "lower"),
    def("hgnn.workload_s", "s", "lower"),
    def("serve.cost.measure_s", "s", "lower"),
    def("sim.speedup_vs_hihgnn", "x", "higher"),
    def("sim.speedup_vs_a100", "x", "higher"),
    def("trace.overhead_pct", "%", "lower"),
];

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Recorded sharded schedule replayed on one lane.
    Replay,
    /// Traced crash/failover scenario plus export.
    ServeTraced,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Replay, Workload::ServeTraced];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Replay => "replay",
            Workload::ServeTraced => "serve-traced",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What `work_per_s` counts on this workload, by the name the
    /// human-readable report prints it under.
    pub fn work_metric(self) -> &'static str {
        match self {
            Workload::Replay => "graphs_per_s",
            Workload::ServeTraced => "requests_per_s",
        }
    }
}

/// How one run is configured.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Request-stream seed (both workloads).
    pub seed: u64,
    /// Dataset generation seed (every workload).
    pub dataset_seed: u64,
    /// Time budget of the measured phase, seconds. At least one pass
    /// always runs.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Dataset scale override (the workload's own scale when `None`).
    pub scale: Option<f64>,
    /// Per-stream request-count override for the serving workload.
    pub requests: Option<usize>,
}

impl Options {
    /// The defaults for `workload`.
    pub fn new(workload: Workload) -> Self {
        Self {
            workload,
            seed: DEFAULT_REQUEST_SEED,
            dataset_seed: DEFAULT_DATASET_SEED,
            seconds: 10.0,
            trace: false,
            scale: None,
            requests: None,
        }
    }
}

/// What one run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// The workload run.
    pub workload: Workload,
    /// Passes attempted (warm-up included).
    pub attempted: u64,
    /// Passes whose correctness checks failed.
    pub failed: u64,
    /// The first failure messages (at most a few).
    pub failures: Vec<String>,
    /// Metrics by name: the end-to-end set untraced, the per-layer set
    /// traced.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each timed untraced pass.
    pub pass_s: Vec<f64>,
    /// Sum over a pass's units of each unit's fastest time in the timed
    /// untraced passes, seconds.
    pub unit_floor_s: f64,
    /// Wall seconds of each traced pass (traced run only).
    pub traced_pass_s: Vec<f64>,
    /// Work items per pass (graphs, requests or cells).
    pub items_per_pass: f64,
    /// Peak RSS growth over the warm-up pass, bytes.
    pub warmup_rss_growth_bytes: u64,
    /// FNV-1a digest of every simulated statistic of the workload.
    pub digest: u64,
    /// Human-readable lines the workload adds to the report.
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub recorder: Recorder,
}

/// One pass's correctness verdict.
pub type Check = Result<(), String>;

/// What each workload implements; [`run`] drives it.
pub(crate) trait Bench: Sized {
    /// One pass's output, checked after the timer stops.
    type Out;

    /// Builds the inputs (timed as `setup_s`; spans recorded when traced).
    fn setup(opts: &Options, rec: &mut Recorder) -> Result<Self, String>;
    /// Work items one pass performs.
    fn items(&self) -> f64;
    /// One untraced pass. Pushes onto `unit_s` the wall seconds of each
    /// of its units, the same units in the same order on every pass.
    fn pass(&mut self, unit_s: &mut Vec<f64>) -> Self::Out;
    /// One traced pass: the same work as [`Bench::pass`], split into
    /// spans around every public call.
    fn traced_pass(&mut self, rec: &mut Recorder) -> Self::Out;
    /// Checks one pass's output.
    fn check(&mut self, out: &Self::Out) -> Check;
    /// Digest, notes and (traced) per-layer metrics. Spans `rec` records
    /// here carry a pass id of their own, after the traced passes.
    fn finish(&mut self, out: &mut Outcome, rec: &mut Recorder) -> Check;
}

/// Runs one workload as `opts` says.
///
/// # Errors
///
/// Returns a message when the workload cannot be set up.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    match opts.workload {
        Workload::Replay => drive::<replay::ReplayBench>(opts),
        Workload::ServeTraced => drive::<serve::ServeBench>(opts),
    }
}

fn drive<B: Bench>(opts: &Options) -> Result<Outcome, String> {
    let mut rec = Recorder::new(opts.trace);
    let mut setup_s: Vec<f64> = Vec::new();
    let mut bench: Option<B> = None;
    // At least `SETUP_REPS` set-ups, more while they are cheap, so the
    // median of a short set-up still rests on enough samples.
    while setup_s.len() < SETUP_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < MAX_SETUP_REPS)
    {
        // Drop the previous copy first, so the peak holds one set of inputs.
        drop(bench.take());
        let t = Instant::now();
        let b = B::setup(opts, &mut rec)?;
        setup_s.push(t.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up ran");
    let mut out = Outcome {
        workload: opts.workload,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: BTreeMap::new(),
        setup_s,
        pass_s: Vec::new(),
        unit_floor_s: 0.0,
        traced_pass_s: Vec::new(),
        items_per_pass: bench.items(),
        warmup_rss_growth_bytes: 0,
        digest: 0,
        notes: Vec::new(),
        recorder: Recorder::new(false),
    };
    let tally = |out: &mut Outcome, verdict: Check| {
        out.attempted += 1;
        if let Err(msg) = verdict {
            out.failed += 1;
            if out.failures.len() < 8 {
                out.failures.push(msg);
            }
        }
    };

    // Untimed warm-up: page in the inputs and let pooled scratch grow
    // to its steady state.
    let rss_before = peak_rss_bytes();
    let mut unit_s = Vec::new();
    let warm = bench.pass(&mut unit_s);
    let verdict = bench.check(&warm);
    drop(warm);
    tally(&mut out, verdict);
    out.warmup_rss_growth_bytes = peak_rss_bytes().saturating_sub(rss_before);

    let untraced_budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    // Each unit's fastest time over the timed passes.
    let mut unit_best: Vec<f64> = Vec::new();
    let start = Instant::now();
    loop {
        unit_s.clear();
        let t = Instant::now();
        let o = bench.pass(&mut unit_s);
        out.pass_s.push(t.elapsed().as_secs_f64());
        if unit_best.is_empty() {
            unit_best.clone_from(&unit_s);
        }
        for (best, &t) in unit_best.iter_mut().zip(&unit_s) {
            *best = best.min(t);
        }
        let verdict = bench.check(&o);
        drop(o);
        tally(&mut out, verdict);
        if start.elapsed().as_secs_f64() >= untraced_budget {
            break;
        }
    }

    let mut pass_id = 1;
    if opts.trace {
        let start = Instant::now();
        loop {
            rec.set_pass(pass_id);
            pass_id += 1;
            let t = Instant::now();
            let o = bench.traced_pass(&mut rec);
            out.traced_pass_s.push(t.elapsed().as_secs_f64());
            let verdict = bench.check(&o);
            drop(o);
            tally(&mut out, verdict);
            if start.elapsed().as_secs_f64() >= opts.seconds / 2.0 {
                break;
            }
        }
        rec.set_pass(pass_id);
    }

    out.unit_floor_s = unit_best.iter().sum();
    let verdict = bench.finish(&mut out, &mut rec);
    tally(&mut out, verdict);

    if opts.trace {
        for m in PER_LAYER {
            out.metrics.entry(m.name).or_insert(0.0);
        }
        let untraced = fastest(&out.pass_s);
        let traced = fastest(&out.traced_pass_s);
        out.metrics
            .insert("trace.overhead_pct", (traced / untraced - 1.0) * 100.0);
    } else {
        // Each unit's fastest time, not the median pass: the host's
        // other tenants slow it for seconds to minutes at a time, so a
        // median moves with whichever phase a run caught, while a unit
        // of milliseconds finds a quiet moment in nearly every run
        // (see README.md).
        out.metrics
            .insert("work_per_s", out.items_per_pass / out.unit_floor_s);
        out.metrics.insert("setup_s", median(&out.setup_s));
        out.metrics
            .insert("peak_rss_mb", peak_rss_bytes() as f64 / (1024.0 * 1024.0));
    }
    out.recorder = rec;
    Ok(out)
}

/// Smallest of `xs` (infinite when empty).
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// 64-bit FNV-1a, fed piece by piece.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Feeds a string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Feeds a number.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process so far, bytes.
pub fn peak_rss_bytes() -> u64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (ru_utime,
    // ru_stime; two longs each) followed by fourteen longs, the first
    // of which is ru_maxrss in KiB.
    #[repr(C)]
    struct Rusage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage([0; 18]);
    // SAFETY: `usage` is a live, writable buffer at least as large and
    // as aligned as the C `struct rusage` getrusage fills.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return 0;
    }
    u64::try_from(usage.0[4]).unwrap_or(0) * 1024
}

/// The declared per-layer metric called `name`.
///
/// # Panics
///
/// Panics when [`PER_LAYER`] does not declare `name`: every metric a
/// workload emits must be in the catalog `BENCHMARK.json` mirrors.
pub(crate) fn layer_metric(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("per-layer metric {name} is not declared"))
        .name
}

/// The distinct platform names of a scenario's pool, in pool order.
pub(crate) fn pool_names(spec: &gdr_serve::suite::ScenarioSpec) -> Vec<&str> {
    let mut names: Vec<&str> = Vec::new();
    for n in &spec.pool {
        if !names.contains(&n.as_str()) {
            names.push(n);
        }
    }
    names
}

/// Dataset index into [`gdr_hetgraph::datasets::Dataset::ALL`].
pub(crate) fn dataset_index(d: gdr_hetgraph::datasets::Dataset) -> usize {
    gdr_hetgraph::datasets::Dataset::ALL
        .iter()
        .position(|&x| x == d)
        .expect("Dataset::ALL is exhaustive")
}

/// Names of span sub-keys, indexed by key: the datasets in
/// `Dataset::ALL` order, then the two GPUs.
pub(crate) const SPAN_KEYS: &[&str] = &["acm", "imdb", "dblp", "t4", "a100"];
/// The dataset names among [`SPAN_KEYS`].
pub(crate) const DATASET_KEYS: &[&str] = SPAN_KEYS.split_at(3).0;
/// [`SPAN_KEYS`] index of the T4.
pub(crate) const T4_KEY: usize = 3;
/// [`SPAN_KEYS`] index of the A100.
pub(crate) const A100_KEY: usize = 4;

/// Nanoseconds per item (0 when there are no items).
pub(crate) fn ns_per(ns: u64, items: f64) -> f64 {
    if items > 0.0 {
        ns as f64 / items
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_bytes() > 0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}

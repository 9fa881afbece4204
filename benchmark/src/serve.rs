//! `serve-traced`: the serving simulator with tracing, its latency
//! breakdown and its Perfetto export.
//!
//! A pass runs the committed `crash/failover/least-loaded` scenario at
//! test scale as 16 request streams of 2 500 requests each, each through
//! `ServeHarness::run_traced`, then serializes each stream's Perfetto
//! export: the work `gdr-bench trace` does. Each stream is one timed
//! unit of the pass. The streams' request seeds
//! derive from `--seed`, so one pass averages over several independent
//! traffic draws. The traced pass repeats the same work with one public
//! call per span: the simulator, the record fold, the breakdown fold,
//! the Chrome fold and the JSON serializer.

use std::time::Instant;

use gdr_serve::batcher::Batcher;
use gdr_serve::metrics::{breakdown_record, request_breakdowns, scenario_record, RequestBreakdown};
use gdr_serve::scheduler::{SimResult, Simulator};
use gdr_serve::suite::{default_specs, ScenarioSpec, ServeHarness};
use gdr_serve::trace::{chrome_trace, RecordingSink, TraceSink};
use gdr_serve::workload::Traffic;
use gdr_system::grid::ExperimentConfig;
use gdr_system::report::{BreakdownRecord, ServeScenarioRecord};

use crate::spans::{Recorder, Span};
use crate::{ns_per, pool_names, Bench, Check, Digest, Options, Outcome};

/// The scenario.
pub const SCENARIO: &str = "crash/failover/least-loaded";
/// Request streams per pass.
pub const STREAMS: usize = 16;
/// Requests per stream: small enough that a stream's trace events stay
/// in a core's L2 cache through the quadratic breakdown join, so the
/// host's memory contention moves the pass less.
pub const REQUESTS: usize = 2_500;

/// The traced views of one stream.
#[derive(Debug)]
pub struct TracedViews {
    breakdown: BreakdownRecord,
    requests: Vec<RequestBreakdown>,
    events: usize,
    export: String,
}

/// One pass's products, one entry per stream.
#[derive(Debug, Default)]
pub struct ServeOut {
    records: Vec<ServeScenarioRecord>,
    traced: Vec<TracedViews>,
}

/// Set-up state of the serving workload.
#[derive(Debug)]
pub struct ServeBench {
    harness: ServeHarness,
    /// The scenario; `spec.requests` is the requests of one stream.
    spec: ScenarioSpec,
    /// Request seed of each stream.
    seeds: Vec<u64>,
    replicas: Vec<usize>,
    /// Per stream, the untraced record every pass must equal; built at
    /// the first check.
    references: Vec<ServeScenarioRecord>,
    digest: Option<u64>,
    /// Trace events of one pass, all streams.
    events: u64,
    /// Exported trace bytes of one pass, all streams.
    export_bytes: u64,
}

impl Bench for ServeBench {
    type Out = ServeOut;

    fn setup(opts: &Options, rec: &mut Recorder) -> Result<Self, String> {
        let cfg = ExperimentConfig {
            seed: opts.dataset_seed,
            scale: opts.scale.unwrap_or(ExperimentConfig::test_scale().scale),
        };
        let mut spec = default_specs(&cfg)
            .into_iter()
            .find(|s| s.name == SCENARIO)
            .ok_or_else(|| format!("scenario {SCENARIO} is missing from the suite"))?;
        spec.requests = opts.requests.unwrap_or(REQUESTS);
        let names = pool_names(&spec);
        let harness = rec
            .time("serve.cost.measure", None, |_| {
                ServeHarness::new(&cfg, &names)
            })
            .map_err(|e| e.to_string())?;
        let replicas = spec
            .pool
            .iter()
            .map(|n| harness.cost().platform_index(n))
            .collect::<Option<Vec<usize>>>()
            .ok_or("the harness did not measure every pool platform")?;
        // Disjoint seed sets for distinct `--seed`s.
        let seeds = (0..STREAMS as u64)
            .map(|i| opts.seed.wrapping_mul(STREAMS as u64).wrapping_add(i))
            .collect();
        Ok(Self {
            harness,
            spec,
            seeds,
            replicas,
            references: Vec::new(),
            digest: None,
            events: 0,
            export_bytes: 0,
        })
    }

    fn items(&self) -> f64 {
        (self.spec.requests * self.seeds.len()) as f64
    }

    fn pass(&mut self, unit_s: &mut Vec<f64>) -> ServeOut {
        let mut out = ServeOut::default();
        for &seed in &self.seeds {
            let t = Instant::now();
            let run = self
                .harness
                .run_traced(&self.spec, seed)
                .expect("the committed scenario is valid");
            let export = run.chrome.to_json().to_pretty();
            unit_s.push(t.elapsed().as_secs_f64());
            out.records.push(run.record);
            out.traced.push(TracedViews {
                breakdown: run.breakdown,
                requests: run.requests,
                events: run.events.len(),
                export,
            });
        }
        out
    }

    fn traced_pass(&mut self, rec: &mut Recorder) -> ServeOut {
        let mut out = ServeOut::default();
        for &seed in &self.seeds {
            let mut sink = RecordingSink::default();
            let result = rec.time("serve.sim_traced", None, |_| {
                self.simulate(seed, Some(&mut sink))
            });
            out.records
                .push(rec.time("serve.record", None, |_| self.record(seed, &result)));
            let name = &self.spec.name;
            let breakdown = rec.time("serve.breakdown", None, |_| {
                breakdown_record(name, seed, &result, &sink.events)
            });
            let requests = rec.time("serve.breakdown", None, |_| {
                request_breakdowns(&result, &sink.events)
            });
            let chrome = rec.time("serve.chrome", None, |_| {
                chrome_trace(
                    name,
                    &sink.events,
                    &result.replica_platforms,
                    self.harness.cost().platforms(),
                )
            });
            let export = rec.time("system.json", None, |_| chrome.to_json().to_pretty());
            out.traced.push(TracedViews {
                breakdown,
                requests,
                events: sink.events.len(),
                export,
            });
        }
        out
    }

    fn check(&mut self, out: &ServeOut) -> Check {
        if out.records.len() != self.seeds.len() {
            return Err(format!(
                "serve: {} records for {} streams",
                out.records.len(),
                self.seeds.len()
            ));
        }
        if self.references.is_empty() {
            // The other view of the same runs: the untraced simulator.
            self.references = self
                .seeds
                .iter()
                .map(|&seed| self.record(seed, &self.simulate(seed, None)))
                .collect();
        }
        let mut digest = Digest::default();
        let mut completions = Vec::with_capacity(out.records.len());
        for (record, reference) in out.records.iter().zip(&self.references) {
            let all = record.aggregate().ok_or("serve: record has no ALL row")?;
            let completed = all.metric("completed").unwrap_or(-1.0);
            let dropped = all.metric("dropped").unwrap_or(-1.0);
            if completed + dropped != self.spec.requests as f64 {
                return Err(format!(
                    "serve: {completed} completed + {dropped} dropped != {} offered",
                    self.spec.requests
                ));
            }
            if record != reference {
                return Err("serve: the traced and untraced records differ".into());
            }
            digest.str(&record.to_json().to_compact());
            completions.push(completed);
        }
        if out.traced.len() != self.seeds.len() {
            return Err(format!(
                "serve: {} traced views for {} streams",
                out.traced.len(),
                self.seeds.len()
            ));
        }
        let (mut events, mut bytes) = (0, 0);
        for (t, completed) in out.traced.iter().zip(completions) {
            if t.requests.len() as f64 != completed {
                return Err(format!(
                    "serve: {} breakdown rows for {completed} completions",
                    t.requests.len()
                ));
            }
            if let Some(b) = t
                .requests
                .iter()
                .find(|b| b.component_sum() != b.latency_ns)
            {
                return Err(format!(
                    "serve: request {} parts sum to {} ns, latency is {} ns",
                    b.request,
                    b.component_sum(),
                    b.latency_ns
                ));
            }
            digest.str(&t.breakdown.to_json().to_compact());
            digest.str(&t.export);
            events += t.events as u64;
            bytes += t.export.len() as u64;
        }
        self.events = events;
        self.export_bytes = bytes;
        match self.digest {
            None => self.digest = Some(digest.value()),
            Some(d) if d != digest.value() => {
                return Err("serve: a pass produced different simulated statistics".into())
            }
            Some(_) => {}
        }
        Ok(())
    }

    fn finish(&mut self, out: &mut Outcome, rec: &mut Recorder) -> Check {
        out.digest = self.digest.unwrap_or(0);
        out.notes.push(format!(
            "scenario {} as {} streams of {} requests, request seeds {}..={}",
            self.spec.name,
            self.seeds.len(),
            self.spec.requests,
            self.seeds.first().copied().unwrap_or(0),
            self.seeds.last().copied().unwrap_or(0)
        ));
        if !rec.enabled() {
            return Ok(());
        }
        // Probe the view the timed pass does not use: the untraced
        // simulator.
        for &seed in &self.seeds {
            rec.time("serve.sim", None, |_| self.simulate(seed, None));
        }
        // Each simulator and record span covers one stream.
        let stream_requests = self.spec.requests as f64;
        let pass_requests = self.items();
        let all = |_: &Span| true;
        let per_request = |name: &str| {
            let (ns, n) = rec.sum(name, all);
            ns_per(ns, stream_requests * n as f64)
        };
        out.metrics
            .insert("serve.sim.ns_per_request", per_request("serve.sim"));
        out.metrics.insert(
            "serve.sim.traced_ns_per_request",
            per_request("serve.sim_traced"),
        );
        out.metrics
            .insert("serve.record.ns_per_request", per_request("serve.record"));
        out.metrics.insert(
            "serve.sim.events_per_request",
            self.events as f64 / pass_requests,
        );
        // A pass holds one stream's working set at a time.
        out.metrics.insert(
            "serve.sim.bytes_per_request",
            out.warmup_rss_growth_bytes as f64 / stream_requests,
        );
        let passes = out.traced_pass_s.len() as f64;
        let (ns, _) = rec.sum("serve.breakdown", all);
        out.metrics.insert(
            "serve.breakdown.ns_per_request",
            ns_per(ns, pass_requests * passes),
        );
        let (ns, _) = rec.sum("serve.chrome", all);
        out.metrics.insert(
            "serve.chrome.ns_per_event",
            ns_per(ns, self.events as f64 * passes),
        );
        let (ns, _) = rec.sum("system.json", all);
        out.metrics.insert(
            "system.json.ns_per_byte",
            ns_per(ns, self.export_bytes as f64 * passes),
        );
        let (ns, n) = rec.sum("serve.cost.measure", |s| s.pass == 0);
        out.metrics
            .insert("serve.cost.measure_s", ns as f64 / 1e9 / n.max(1) as f64);
        Ok(())
    }
}

impl ServeBench {
    /// The traffic of the stream with request seed `seed`.
    fn traffic(&self, seed: u64) -> Traffic {
        Traffic {
            process: self.spec.process,
            requests: self.spec.requests,
            seed,
        }
    }

    /// One simulator run of the stream `seed`, optionally with a sink.
    fn simulate(&self, seed: u64, sink: Option<&mut dyn TraceSink>) -> SimResult {
        let spec = &self.spec;
        let pool = spec.pool_config();
        let sim = Simulator::with_faults(
            self.harness.cost(),
            spec.sched,
            &self.replicas,
            &pool,
            &spec.faults,
            spec.control,
            seed,
        );
        let sim = match sink {
            Some(s) => sim.with_trace(s),
            None => sim,
        };
        sim.run(self.traffic(seed).stream(), Batcher::new(spec.batch))
    }

    /// The scenario record of one simulator run of the stream `seed`.
    fn record(&self, seed: u64, result: &SimResult) -> ServeScenarioRecord {
        let spec = &self.spec;
        scenario_record(
            &spec.name,
            &self.traffic(seed),
            spec.batch,
            spec.sched,
            &spec.pool_config(),
            &spec.faults,
            spec.control,
            result,
            self.harness.cost().platforms(),
        )
    }
}

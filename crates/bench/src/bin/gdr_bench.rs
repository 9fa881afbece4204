//! `gdr-bench` — the one runner behind every report this repository
//! produces.
//!
//! Runs a configurable subset of the dataset × model × platform grid
//! through `gdr-system`'s report subsystem (plus the canonical serving
//! suite) and emits the stable `gdr-bench/v1` JSON schema (see
//! `bench/README.md`), or compares two such reports and exits nonzero on
//! a gated regression. The `paper` subcommand regenerates the paper's
//! whole evaluation as one document. The `serve` subcommand simulates a
//! single online serving scenario (or the whole suite) and writes a
//! serve-only report whose bytes are a pure function of the flags — run
//! it twice, `cmp` the outputs.
//!
//! ```text
//! # run the grid + serving suite and write a report
//! gdr-bench --scale test --out bench.json
//! gdr-bench --scale paper --platforms HiHGNN,HiHGNN+GDR --no-serve --out paper.json
//!
//! # run, then gate against a committed baseline (exit 1 on regression)
//! gdr-bench --scale test --out bench.json --baseline bench/baseline.json --threshold 10%
//!
//! # pure file-vs-file gate (no simulation)
//! gdr-bench --compare bench.json --baseline bench/baseline.json --threshold 10%
//!
//! # every table, figure and ablation of the paper: markdown on stdout
//! gdr-bench paper --scale paper --out paper-report.json > EXPERIMENTS.md
//!
//! # simulate one serving scenario; byte-identical for a fixed seed
//! gdr-bench serve --scale test --seed 7 --rate 800000 --batch-policy deadline --out serve.json
//!
//! # sweep the serving config space and recommend a config for a 2 ms p99
//! gdr-bench sweep --scale test --slo-p99 2000000 --out sweep.json
//!
//! # trace one scenario's full lifecycle; load the JSON at ui.perfetto.dev
//! gdr-bench trace --scale test --seed 7 --faults 80000 --control --out trace.json
//!
//! # replay a simulated schedule on 4 real worker lanes; wall-clock host records
//! gdr-bench replay --scale test --seed 7 --shards 3 --replicas 3 \
//!           --scheduler shard-affinity-partial --jobs 4 --out replay.json
//! ```
//!
//! Exit codes: 0 = ok, 1 = perf gate failed, 2 = usage/IO error.

use gdr_bench::sweep::{run_sweep_traced, sweep_record};
use gdr_bench::{
    default_jobs, parse_arrival, parse_autoscale, parse_axis, parse_batch_policy, parse_count,
    parse_drop, parse_faults, parse_scale, parse_scheduler, parse_slo, parse_slow, parse_threshold,
    ArrivalArgs, BENCH_SEED,
};
use gdr_serve::fault::{CrashWindow, FaultSpec, Slowdown};
use gdr_serve::replay::{replay as replay_log, AssignmentLog, ReplayDatasets, ReplayReport};
use gdr_serve::scheduler::{AutoscaleSpec, SloSpec};
use gdr_serve::suite::{
    default_suite_with_breakdown, scaled_ns, scaled_rate, scenario_label, ScenarioSpec,
    ServeHarness, BASE_BURST_PERIOD_NS, BASE_DEADLINE_TIMEOUT_NS, BASE_THINK_NS, HIGH_RATE_RPS,
};
use gdr_serve::sweep::SweepSpec;
use gdr_system::grid::{
    paper_platforms, platform_names, platform_refs, select_platforms, ExperimentConfig,
};
use gdr_system::report::{compare, BenchReport, HostRecord, PaperReport};
use gdr_system::trace_export::ChromeTrace;

const USAGE: &str = "\
gdr-bench: run the GDR-HGNN evaluation grid, emit gdr-bench/v1 JSON, gate regressions;
           regenerate the paper's figures; simulate, sweep, trace and replay serving

USAGE:
  gdr-bench [--scale test|paper|<factor>] [--seed N] [--platforms A,B,..]
            [--no-serve] [--out FILE] [--baseline FILE] [--threshold PCT]
  gdr-bench --compare NEW --baseline OLD [--threshold PCT]
  gdr-bench --list-platforms
  gdr-bench paper [--scale S] [--seed N] [--out FILE] [--quiet]
  gdr-bench serve [--scale S] [--seed N] [--arrival poisson|bursty|closed-loop]
                  [--rate RPS] [--burst-period NS] [--burst-duty F]
                  [--clients N] [--think NS]
                  [--batch-policy immediate|size-capped|deadline]
                  [--batch-cap N] [--batch-timeout NS]
                  [--scheduler round-robin|least-loaded|shard-affinity|shard-affinity-partial]
                  [--replicas N] [--platforms A,B] [--requests N] [--suite]
                  [--shards N] [--cache-bytes N] [--autoscale MAX:UP:DOWN]
                  [--slo NS[:HEADROOM]]
                  [--faults CRASH_AT[:RECOVER_AFTER],..] [--slow REPLICA:FACTOR]
                  [--drop P] [--deadline NS] [--control]
                  [--out FILE] [--baseline FILE] [--threshold PCT]
  gdr-bench sweep [--scale S] [--seed N] [--axis KEY=V1,V2,...]...
                  [--jobs N] [--requests N] [--max-scenarios N]
                  [--slo NS[:HEADROOM]] [--slo-p99 NS] [--budget S] [--platforms A]
                  [--out FILE] [--trace-out FILE] [--quiet]
  gdr-bench trace --out TRACE_JSON [every serve scenario flag] [--quiet]
  gdr-bench replay [every serve scenario flag] [--jobs N] [--out FILE] [--quiet]

OPTIONS (grid mode):
  --scale       grid scale: \"test\" (CI gate), \"paper\" (Table 2 sizes), or a factor  [test]
  --seed        dataset generation seed                                             [42]
  --platforms   comma-separated subset of the registered platforms                  [all]
  --no-serve    skip the canonical serving suite (grid records only)
  --out         write the report as pretty JSON to FILE
  --baseline    compare against a previously written report; exit 1 on regression
  --threshold   regression threshold, e.g. \"10%\"                                    [10%]
  --compare     skip simulation; gate the given report file against --baseline
  --list-platforms  print the registered platform names and exit
  --quiet       suppress the markdown summary on stdout

OPTIONS (paper mode — Tables 2-3, Figs. 2 and 7-10, ablations A1-A3):
  --scale       as in grid mode; \"paper\" gives the published Table 2 sizes     [test]
  --out         also write the gdr-paper-report/v1 JSON document to FILE
  --quiet       suppress the markdown document on stdout

OPTIONS (serve mode — all simulated in virtual time, byte-for-byte reproducible):
  --arrival       arrival process                                                   [poisson]
  --rate          offered load, requests/s (poisson, bursty)             [suite high rate / scale]
  --burst-period  bursty on/off cycle length, ns                                    [100000·scale/test]
  --burst-duty    fraction of each period receiving traffic                         [0.25]
  --clients       closed-loop client population                                     [16]
  --think         closed-loop think time, ns                                        [100000·scale/test]
  --batch-policy  dynamic batching policy                                           [size-capped]
  --batch-cap     max batch size (size-capped, deadline)                            [8]
  --batch-timeout formation-delay bound, ns (deadline)                              [20000·scale/test]
  --scheduler     replica dispatch policy                                           [least-loaded]
  --replicas      replica pool size (cycles over --platforms)                       [2]
  --platforms     replica backends                                                  [HiHGNN+GDR]
  --requests      total requests to generate                                        [384]
  --shards        dataset shards per replica (partial replicas; 0 = full)           [0]
  --cache-bytes   per-replica cross-batch feature cache capacity (0 = off)          [0]
  --autoscale     autoscaler: MAX:UP:DOWN (e.g. 4:32:2) — queue-driven, unless
                  --slo switches the controller to predicted-p99 scaling           [off]
  --slo           p99 latency target, virtual ns, with an optional headroom
                  fraction in (0, 1] tightening the internal deadline
                  (e.g. 400000:0.8); measures slo_violation_rate and, with
                  --autoscale, drives scaling from predicted p99                   [off]
  --faults        per-replica crash schedule, virtual ns: the i-th comma-separated
                  entry crashes replica i at CRASH_AT and revives it RECOVER_AFTER
                  later (0 or omitted = never; \"-\" skips the replica)             [none]
  --slow          straggler: REPLICA serves every batch FACTOR x slower (repeatable) [none]
  --drop          per-batch in-transit loss probability in [0, 1)                   [0]
  --deadline      availability deadline, virtual ns (0 = any completion counts)     [0]
  --control       replicate batch assignments through the view-change control plane [off]
  --suite         run the committed canonical suite instead of one scenario

OPTIONS (sweep mode — cartesian scenario sweep + Pareto recommender):
  --axis          replace one axis with KEY=V1,V2,... (repeatable); keys: arrival,
                  rate, batch (immediate|size-capped:CAP|deadline:CAP:TIMEOUT_NS),
                  scheduler, replicas, shards, cache-bytes,
                  autoscale (off|MAX:UP:DOWN), slo (off|NS[:HEADROOM]),
                  faults (none|crash|crash-failover);
                  rates/timeouts/bytes at test scale       [default 64-scenario sweep]
  --jobs          worker lanes (results are lane-count invariant)  [available cores]
  --max-scenarios hard cap on the expanded scenario count                    [1024]
  --slo           run every scenario under this SLO (target at test scale,
                  like the axis values); shorthand for --axis slo=NS[:HEADROOM]  [off]
  --slo-p99       p99 SLO, virtual ns: emit a recommend block naming the
                  cheapest (min replica-seconds) frontier config meeting it  [off]
  --budget        replica-seconds ceiling for the recommendation             [unbounded]
  --platforms     the single backend every replica runs               [HiHGNN+GDR]
  --trace-out     also write a wall-clock lane timeline (Chrome trace JSON); the
                  record bytes stay lane-count invariant, the trace does not [off]

OPTIONS (trace mode — every serve scenario flag applies, plus):
  --out           write the Chrome-trace-event JSON here (required); load the file
                  at ui.perfetto.dev or chrome://tracing. Stamped in virtual ns,
                  so the bytes are a pure function of the flags: CI runs the same
                  scenario twice and cmp's the outputs

OPTIONS (replay mode — every serve scenario flag applies, plus):
  --jobs          real worker lanes for the threaded replay; the schedule is
                  simulated once, then executed at 1 lane and at N lanes so the
                  report carries the lane-count scaling    [available cores]
                  The serve record stays byte-reproducible; the replay rows are
                  wall clock (host family: reported, never gated)
";

/// The subcommand named by the first argument; none runs the grid.
#[derive(Clone, Copy)]
enum Command {
    Grid,
    Paper,
    Serve,
    Sweep,
    Trace,
    Replay,
}

impl Command {
    fn parse(word: &str) -> Option<Self> {
        Some(match word {
            "paper" => Self::Paper,
            "serve" => Self::Serve,
            "sweep" => Self::Sweep,
            "trace" => Self::Trace,
            "replay" => Self::Replay,
            _ => return None,
        })
    }
}

struct Args {
    command: Command,
    scale: f64,
    seed: u64,
    platforms: Option<Vec<String>>,
    out: Option<String>,
    baseline: Option<String>,
    threshold: f64,
    compare_file: Option<String>,
    quiet: bool,
    no_serve: bool,
    list_platforms: bool,
    trace_out: Option<String>,
    // sweep-mode flags (`jobs` also serves replay mode)
    axes: Vec<String>,
    jobs: Option<usize>,
    slo_p99: Option<f64>,
    budget: Option<f64>,
    max_scenarios: Option<usize>,
    // serve-mode flags
    suite: bool,
    arrival: String,
    rate: Option<f64>,
    burst_period: Option<u64>,
    burst_duty: f64,
    clients: usize,
    think: Option<u64>,
    batch_policy: String,
    batch_cap: usize,
    batch_timeout: Option<u64>,
    scheduler: String,
    replicas: usize,
    requests: usize,
    shards: usize,
    cache_bytes: u64,
    autoscale: Option<AutoscaleSpec>,
    slo: Option<SloSpec>,
    faults: Vec<CrashWindow>,
    slow: Vec<Slowdown>,
    drop: f64,
    deadline: u64,
    control: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let command = argv.first().and_then(|w| Command::parse(w));
    let mut args = Args {
        command: command.unwrap_or(Command::Grid),
        scale: parse_scale("test").expect("default scale is valid"),
        seed: BENCH_SEED,
        platforms: None,
        out: None,
        baseline: None,
        threshold: 10.0,
        compare_file: None,
        quiet: false,
        no_serve: false,
        list_platforms: false,
        trace_out: None,
        axes: Vec::new(),
        jobs: None,
        slo_p99: None,
        budget: None,
        max_scenarios: None,
        suite: false,
        arrival: "poisson".into(),
        rate: None,
        burst_period: None,
        burst_duty: 0.25,
        clients: 16,
        think: None,
        batch_policy: "size-capped".into(),
        batch_cap: 8,
        batch_timeout: None,
        scheduler: "least-loaded".into(),
        replicas: 2,
        requests: 384,
        shards: 0,
        cache_bytes: 0,
        autoscale: None,
        slo: None,
        faults: Vec::new(),
        slow: Vec::new(),
        drop: 0.0,
        deadline: 0,
        control: false,
    };
    let mut it = argv.iter().skip(usize::from(command.is_some()));
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let parse_num = |what: &str, v: &str| -> Result<u64, String> {
            v.parse().map_err(|e| format!("invalid {what}: {e}"))
        };
        match flag.as_str() {
            "--scale" => args.scale = parse_scale(value()?)?,
            "--seed" => args.seed = parse_num("--seed", value()?)?,
            "--platforms" => {
                args.platforms = Some(
                    value()?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                );
            }
            "--out" => args.out = Some(value()?.to_string()),
            "--trace-out" => args.trace_out = Some(value()?.to_string()),
            "--baseline" => args.baseline = Some(value()?.to_string()),
            "--threshold" => args.threshold = parse_threshold(value()?)?,
            "--compare" => args.compare_file = Some(value()?.to_string()),
            "--quiet" => args.quiet = true,
            "--no-serve" => args.no_serve = true,
            "--list-platforms" => args.list_platforms = true,
            "--suite" => args.suite = true,
            "--arrival" => args.arrival = value()?.to_string(),
            "--rate" => {
                args.rate = Some(
                    value()?
                        .parse()
                        .ok()
                        .filter(|x: &f64| *x > 0.0)
                        .ok_or("invalid --rate: expected a positive requests/s figure")?,
                );
            }
            "--burst-period" => args.burst_period = Some(parse_num("--burst-period", value()?)?),
            "--burst-duty" => {
                args.burst_duty = value()?
                    .parse()
                    .ok()
                    .filter(|x: &f64| *x > 0.0 && *x <= 1.0)
                    .ok_or("invalid --burst-duty: expected a fraction in (0, 1]")?;
            }
            "--clients" => args.clients = parse_count(flag, value()?)?,
            "--think" => args.think = Some(parse_num("--think", value()?)?),
            "--batch-policy" => args.batch_policy = value()?.to_string(),
            "--batch-cap" => args.batch_cap = parse_count(flag, value()?)?,
            "--batch-timeout" => args.batch_timeout = Some(parse_num("--batch-timeout", value()?)?),
            "--scheduler" => args.scheduler = value()?.to_string(),
            "--replicas" => args.replicas = parse_count(flag, value()?)?,
            "--requests" => args.requests = parse_count(flag, value()?)?,
            "--shards" => args.shards = parse_num("--shards", value()?)? as usize,
            "--cache-bytes" => args.cache_bytes = parse_num("--cache-bytes", value()?)?,
            "--autoscale" => args.autoscale = Some(parse_autoscale(value()?)?),
            "--slo" => args.slo = Some(parse_slo(value()?)?),
            "--faults" => args.faults = parse_faults(value()?)?,
            "--slow" => args.slow.push(parse_slow(value()?)?),
            "--drop" => args.drop = parse_drop(value()?)?,
            "--deadline" => args.deadline = parse_num("--deadline", value()?)?,
            "--control" => args.control = true,
            "--axis" => args.axes.push(value()?.to_string()),
            "--jobs" => args.jobs = Some(parse_count(flag, value()?)?),
            "--max-scenarios" => args.max_scenarios = Some(parse_count(flag, value()?)?),
            "--slo-p99" => {
                args.slo_p99 = Some(
                    value()?
                        .parse()
                        .ok()
                        .filter(|x: &f64| x.is_finite() && *x > 0.0)
                        .ok_or("invalid --slo-p99: expected a positive virtual-ns figure")?,
                );
            }
            "--budget" => {
                args.budget = Some(
                    value()?
                        .parse()
                        .ok()
                        .filter(|x: &f64| x.is_finite() && *x > 0.0)
                        .ok_or("invalid --budget: expected a positive replica-seconds figure")?,
                );
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn read_report(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    BenchReport::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn gate(baseline_path: &str, current: &BenchReport, threshold: f64) -> Result<bool, String> {
    let baseline = read_report(baseline_path)?;
    let cmp = compare(&baseline, current, threshold);
    print!("{}", cmp.to_markdown());
    Ok(cmp.passed())
}

/// Writes `text` to `path` and logs the path on stderr.
fn write_file(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("gdr-bench: wrote {path}");
    Ok(())
}

/// Emits the report (markdown, `--out`, `--baseline` gate) and returns
/// the process exit code.
fn finish(args: &Args, report: &BenchReport) -> Result<i32, String> {
    if !args.quiet {
        println!("{}", report.to_markdown());
    }
    if let Some(path) = &args.out {
        write_file(path, &report.to_json().to_pretty())?;
    }
    if let Some(baseline_path) = &args.baseline {
        return Ok(if gate(baseline_path, report, args.threshold)? {
            0
        } else {
            1
        });
    }
    Ok(0)
}

/// Writes a Chrome-trace-event JSON file (`--out` in trace mode,
/// `--trace-out` in sweep mode).
fn write_trace(path: &str, trace: &ChromeTrace) -> Result<(), String> {
    write_file(path, &trace.to_json().to_pretty())?;
    eprintln!("gdr-bench: {} trace events", trace.len());
    Ok(())
}

/// `gdr-bench paper`: regenerate the paper's whole evaluation — Tables
/// 2–3, the §3 motivation, Figs. 2 and 7–10 and the A1–A3 ablations —
/// as one [`PaperReport`]: the markdown document on stdout, the
/// `gdr-paper-report/v1` JSON with `--out`. Everything but
/// `grid_wall_clock_s` is a deterministic function of `(seed, scale)`.
fn run_paper(args: &Args) -> Result<i32, String> {
    let cfg = ExperimentConfig {
        seed: args.seed,
        scale: args.scale,
    };
    eprintln!(
        "gdr-bench paper: running the full grid (seed {}, scale {})",
        cfg.seed, cfg.scale
    );
    let report = PaperReport::collect(&cfg);
    eprintln!(
        "gdr-bench paper: grid done in {:.1}s",
        report.grid_wall_clock_s
    );
    if !args.quiet {
        print!("{}", report.to_markdown());
    }
    if let Some(path) = &args.out {
        write_file(path, &report.to_json().to_pretty())?;
    }
    Ok(0)
}

/// The lane counts one replay invocation measures: single-lane first
/// (the scaling denominator), then the requested count when it differs.
fn jobs_ladder(jobs: usize) -> Vec<usize> {
    if jobs > 1 {
        vec![1, jobs]
    } else {
        vec![1]
    }
}

/// Replays one recorded log across [`jobs_ladder`] and returns the host
/// rows, logging each run's sustained throughput.
fn replay_ladder(
    log: &AssignmentLog,
    datasets: &ReplayDatasets,
    jobs: usize,
) -> Result<Vec<HostRecord>, String> {
    jobs_ladder(jobs)
        .into_iter()
        .map(|j| {
            let report: ReplayReport = replay_log(log, datasets, j).map_err(|e| e.to_string())?;
            eprintln!(
                "gdr-bench replay: {} jobs={j}: {:.0} graphs/s \
                 ({} graphs, {} batches, mean lane util {:.2})",
                report.scenario,
                report.graphs_per_sec(),
                report.graphs(),
                report.batches(),
                report.host_record().metric("util_mean").unwrap_or(0.0),
            );
            Ok(report.host_record())
        })
        .collect()
}

/// `gdr-bench replay`: simulate one serving scenario (every `serve`
/// flag applies), record its batch assignments, and execute them on
/// real worker lanes — single-lane first, then `--jobs` lanes — so the
/// report carries the lane-count scaling. The serve record is the usual
/// byte-reproducible one; the replay rows are wall clock and land in
/// the `host` family (reported, never gated).
fn run_replay(args: &Args) -> Result<i32, String> {
    if args.suite {
        return Err("replay executes one scenario; drop --suite and pass its flags instead".into());
    }
    let cfg = ExperimentConfig {
        seed: args.seed,
        scale: args.scale,
    };
    let (spec, backends) = build_scenario(args, &cfg)?;
    announce_scenario("replay", args, &spec, args.seed);
    let names: Vec<&str> = backends.iter().map(String::as_str).collect();
    let harness = ServeHarness::new(&cfg, &names).map_err(|e| e.to_string())?;
    let (record, log) = harness
        .run_replayable(&spec, args.seed)
        .map_err(|e| e.to_string())?;
    let datasets = ReplayDatasets::build(&log.config);
    let jobs = args.jobs.unwrap_or_else(default_jobs);
    let host = replay_ladder(&log, &datasets, jobs)?;
    let wall_clock_s = host
        .iter()
        .filter_map(|r| r.metric("wall_clock_s"))
        .sum::<f64>();
    let report = BenchReport {
        seed: cfg.seed,
        scale: cfg.scale,
        platforms: backends,
        points: Vec::new(),
        wall_clock_s,
        serve: vec![record],
        host,
        sweep: Vec::new(),
        breakdown: Vec::new(),
    };
    finish(args, &report)
}

/// Builds the single-scenario spec (and its backend list) shared by the
/// `serve` and `trace` subcommands. Defaults are expressed at test
/// scale and rescaled by the same rule the canonical suite uses, so the
/// CLI cannot drift from it.
fn build_scenario(
    args: &Args,
    cfg: &ExperimentConfig,
) -> Result<(ScenarioSpec, Vec<String>), String> {
    let arrival = parse_arrival(
        &args.arrival,
        &ArrivalArgs {
            rate_rps: args.rate.unwrap_or_else(|| scaled_rate(cfg, HIGH_RATE_RPS)),
            burst_period_ns: args
                .burst_period
                .unwrap_or_else(|| scaled_ns(cfg, BASE_BURST_PERIOD_NS)),
            burst_duty: args.burst_duty,
            clients: args.clients,
            think_ns: args.think.unwrap_or_else(|| scaled_ns(cfg, BASE_THINK_NS)),
        },
    )?;
    let batch = parse_batch_policy(
        &args.batch_policy,
        args.batch_cap,
        args.batch_timeout
            .unwrap_or_else(|| scaled_ns(cfg, BASE_DEADLINE_TIMEOUT_NS)),
    )?;
    let sched = parse_scheduler(&args.scheduler)?;
    let backends = args
        .platforms
        .clone()
        .unwrap_or_else(|| vec!["HiHGNN+GDR".to_string()]);
    let pool: Vec<String> = (0..args.replicas)
        .map(|i| backends[i % backends.len()].clone())
        .collect();
    if let Some(a) = &args.autoscale {
        if a.max_replicas < pool.len() {
            return Err(format!(
                "--autoscale MAX ({}) below --replicas ({})",
                a.max_replicas,
                pool.len()
            ));
        }
    }
    let faults = FaultSpec {
        crashes: args.faults.clone(),
        slowdowns: args.slow.clone(),
        drop_prob: args.drop,
        deadline_ns: args.deadline,
    };
    let spec = ScenarioSpec {
        shards: args.shards,
        cache_bytes: args.cache_bytes,
        autoscale: args.autoscale,
        slo: args.slo,
        faults,
        control: args.control,
        ..ScenarioSpec::new(
            scenario_label(arrival.name(), &batch.label(), sched.name()),
            arrival,
            args.requests,
            batch,
            sched,
            pool,
        )
    };
    Ok((spec, backends))
}

/// One log line describing the scenario a subcommand is about to run.
fn announce_scenario(mode: &str, args: &Args, spec: &ScenarioSpec, seed: u64) {
    eprintln!(
        "gdr-bench {mode}: {} — {} requests over {} replicas{}{} (seed {seed})",
        spec.name,
        spec.requests,
        args.replicas,
        match &spec.autoscale {
            Some(a) => format!(" (autoscaled up to {})", a.max_replicas),
            None => String::new(),
        },
        match gdr_serve::fault::plan_label(&spec.faults, spec.control).as_str() {
            "none" => String::new(),
            plan => format!(" (faults: {plan})"),
        },
    );
}

/// `gdr-bench serve`: simulate one scenario (or the canonical suite) and
/// emit a serve-only report, with the matching latency-attribution
/// `breakdown` records riding along. No wall clock enters the records,
/// so the output is byte-for-byte identical across runs of the same
/// flags — attaching the trace sink does not perturb the simulation.
fn run_serve(args: &Args) -> Result<i32, String> {
    let cfg = ExperimentConfig {
        seed: args.seed,
        scale: args.scale,
    };
    let (records, breakdowns) = if args.suite {
        eprintln!(
            "gdr-bench serve: running the canonical suite (seed {})",
            cfg.seed
        );
        default_suite_with_breakdown(&cfg).map_err(|e| e.to_string())?
    } else {
        let (spec, backends) = build_scenario(args, &cfg)?;
        announce_scenario("serve", args, &spec, cfg.seed);
        let names: Vec<&str> = backends.iter().map(String::as_str).collect();
        let harness = ServeHarness::new(&cfg, &names).map_err(|e| e.to_string())?;
        let traced = harness
            .run_traced(&spec, args.seed)
            .map_err(|e| e.to_string())?;
        (vec![traced.record], vec![traced.breakdown])
    };

    let mut platforms: Vec<String> = Vec::new();
    for rec in &records {
        for run in &rec.runs {
            if run.platform != "ALL" && !platforms.contains(&run.platform) {
                platforms.push(run.platform.clone());
            }
        }
    }
    let report = BenchReport {
        seed: cfg.seed,
        scale: cfg.scale,
        platforms,
        points: Vec::new(),
        // Serve-only reports carry no wall clock: determinism is part of
        // the contract (CI diffs two runs byte-for-byte) — which is also
        // why they never carry host records.
        wall_clock_s: 0.0,
        serve: records,
        host: Vec::new(),
        sweep: Vec::new(),
        breakdown: breakdowns,
    };
    finish(args, &report)
}

/// `gdr-bench trace`: simulate one serving scenario with the trace sink
/// attached and write the Chrome-trace-event JSON to `--out` (load it
/// at ui.perfetto.dev). Shares every `serve` scenario flag; timestamps
/// are virtual ns, so the bytes are a pure function of the flags — the
/// CI `trace-smoke` job runs the same scenario twice and `cmp`s.
fn run_trace(args: &Args) -> Result<i32, String> {
    if args.suite {
        return Err("trace renders one scenario; drop --suite and pass its flags instead".into());
    }
    let out = args
        .out
        .as_deref()
        .ok_or("trace needs --out FILE for the Chrome trace JSON")?;
    let cfg = ExperimentConfig {
        seed: args.seed,
        scale: args.scale,
    };
    let (spec, backends) = build_scenario(args, &cfg)?;
    announce_scenario("trace", args, &spec, cfg.seed);
    let names: Vec<&str> = backends.iter().map(String::as_str).collect();
    let harness = ServeHarness::new(&cfg, &names).map_err(|e| e.to_string())?;
    let traced = harness
        .run_traced(&spec, args.seed)
        .map_err(|e| e.to_string())?;
    write_trace(out, &traced.chrome)?;
    if !args.quiet {
        let report = BenchReport {
            seed: cfg.seed,
            scale: cfg.scale,
            platforms: backends,
            points: Vec::new(),
            wall_clock_s: 0.0,
            serve: vec![traced.record],
            host: Vec::new(),
            sweep: Vec::new(),
            breakdown: vec![traced.breakdown],
        };
        println!("{}", report.to_markdown());
    }
    Ok(0)
}

/// `gdr-bench sweep`: expand the (possibly `--axis`-overridden) sweep
/// grid, fan it over worker lanes, and emit a sweep-only report with the
/// results table, the Pareto frontier, and — under `--slo-p99` — the
/// recommendation. Like `serve`, no wall clock enters the records: the
/// bytes depend only on the flags, never on `--jobs`.
fn run_sweep_cmd(args: &Args) -> Result<i32, String> {
    let cfg = ExperimentConfig {
        seed: args.seed,
        scale: args.scale,
    };
    let platform = match &args.platforms {
        None => "HiHGNN+GDR".to_string(),
        Some(names) if names.len() == 1 => names[0].clone(),
        Some(names) => {
            return Err(format!(
                "sweep runs a homogeneous pool: --platforms takes one backend, got {}",
                names.len()
            ))
        }
    };
    if args.budget.is_some() && args.slo_p99.is_none() {
        return Err("--budget needs --slo-p99".into());
    }
    let mut spec = SweepSpec {
        platform,
        requests: args.requests,
        cap: args.max_scenarios.unwrap_or(SweepSpec::default().cap),
        ..SweepSpec::default()
    };
    if let Some(slo) = args.slo {
        spec.slos = vec![Some(slo)];
    }
    for axis in &args.axes {
        parse_axis(&mut spec, axis)?;
    }
    let jobs = args.jobs.unwrap_or_else(default_jobs);
    eprintln!(
        "gdr-bench sweep: {} scenarios over {} lanes (seed {}, scale {})",
        spec.scenario_count()
            .map_or_else(|| "?".into(), |n| n.to_string()),
        jobs,
        cfg.seed,
        cfg.scale
    );
    let mut trace = args.trace_out.as_ref().map(|_| ChromeTrace::new());
    let records = run_sweep_traced(&cfg, &spec, jobs, trace.as_mut()).map_err(|e| e.to_string())?;
    if let (Some(path), Some(t)) = (&args.trace_out, &trace) {
        write_trace(path, t)?;
    }
    let record = sweep_record(
        "default",
        &spec,
        &records,
        args.slo_p99,
        args.budget.unwrap_or(0.0),
    );
    let report = BenchReport {
        seed: cfg.seed,
        scale: cfg.scale,
        platforms: vec![spec.platform.clone()],
        points: Vec::new(),
        // Sweep reports carry no wall clock and no host records:
        // byte-for-byte reproducibility across runs and lane counts is
        // part of the contract (CI cmp's --jobs 1 against --jobs 4). The
        // optional --trace-out lane timeline is the wall-clock exception,
        // which is why it lives in its own file, not the report.
        wall_clock_s: 0.0,
        serve: Vec::new(),
        host: Vec::new(),
        sweep: vec![record],
        breakdown: Vec::new(),
    };
    finish(args, &report)
}

fn run(argv: &[String]) -> Result<i32, String> {
    let args = parse_args(argv)?;

    if args.list_platforms {
        for name in platform_names() {
            println!("{name}");
        }
        return Ok(0);
    }
    match args.command {
        Command::Grid => run_grid(&args),
        Command::Paper => run_paper(&args),
        Command::Serve => run_serve(&args),
        Command::Sweep => run_sweep_cmd(&args),
        Command::Trace => run_trace(&args),
        Command::Replay => run_replay(&args),
    }
}

/// The default mode: gate a report file with `--compare`, or run the
/// grid (plus the serving suite unless skipped) and emit the report.
fn run_grid(args: &Args) -> Result<i32, String> {
    // Pure file-vs-file gate: no simulation.
    if let Some(current_path) = &args.compare_file {
        let baseline_path = args
            .baseline
            .as_deref()
            .ok_or("--compare needs --baseline")?;
        let current = read_report(current_path)?;
        return Ok(if gate(baseline_path, &current, args.threshold)? {
            0
        } else {
            1
        });
    }

    // Run the grid on the selected platforms.
    let platforms = match &args.platforms {
        Some(names) => {
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            select_platforms(&refs).map_err(|e| e.to_string())?
        }
        None => paper_platforms(),
    };
    let cfg = ExperimentConfig {
        seed: args.seed,
        scale: args.scale,
    };
    eprintln!(
        "gdr-bench: running {} platforms over the 3x3 grid (seed {}, scale {})",
        platforms.len(),
        cfg.seed,
        cfg.scale
    );
    let mut report =
        BenchReport::collect(&platform_refs(&platforms), &cfg).map_err(|e| e.to_string())?;
    eprintln!(
        "gdr-bench: grid done in {:.1}s ({} records)",
        report.wall_clock_s,
        report.points.iter().map(|p| p.runs.len()).sum::<usize>()
    );
    if !args.no_serve {
        let (serve, breakdown) = default_suite_with_breakdown(&cfg).map_err(|e| e.to_string())?;
        report.serve = serve;
        report.breakdown = breakdown;
        eprintln!(
            "gdr-bench: serving suite done ({} scenarios)",
            report.serve.len()
        );
    }
    finish(args, &report)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => std::process::exit(code),
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("gdr-bench: {msg}");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    }
}

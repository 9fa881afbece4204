//! `gdr-perfbench` command line.
//!
//! ```text
//! gdr-perfbench --workload replay|serve-traced
//!               [--seed N] [--dataset-seed N] [--seconds S] [--trace 0|1]
//!               [--trace-out FILE]
//! ```
//!
//! Prints a human-readable report, then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end set with `--trace 0`, the per-layer set
//! with `--trace 1`). Exit codes: 0 = ran (check `correct`), 1 = the
//! workload could not be set up, 2 = usage error.

use std::fmt::Write as _;
use std::path::PathBuf;

use gdr_perfbench::{median, quantile, run, Options, Outcome, Workload, END_TO_END, PER_LAYER};

const USAGE: &str = "\
usage: gdr-perfbench --workload replay|serve-traced
                     [--seed N] [--dataset-seed N] [--seconds S] [--trace 0|1]
                     [--trace-out FILE]

  --seed          request-stream seed (both workloads)                      [7]
  --dataset-seed  dataset generation seed (every workload)                  [42]
  --seconds       time budget of the measured phase; one pass always runs   [10]
  --trace         1 = traced run: per-layer metrics, span file               [0]
  --trace-out     span file of a traced run   [benchmark/out/<workload>.trace.json]
";

fn parse(argv: &[String]) -> Result<(Options, Option<PathBuf>), String> {
    let mut workload = None;
    let mut opts = Options::new(Workload::Replay);
    let mut trace_out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("invalid {flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--dataset-seed" => opts.dataset_seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok((opts, trace_out))
}

fn spread(xs: &[f64]) -> String {
    format!(
        "median {:.4} s, p10 {:.4} s, p90 {:.4} s over {} samples",
        median(xs),
        quantile(xs, 0.1),
        quantile(xs, 0.9),
        xs.len()
    )
}

/// The human-readable report.
fn report(opts: &Options, out: &Outcome) -> String {
    let mut s = String::new();
    let w = out.workload;
    let _ = writeln!(
        s,
        "gdr-perfbench {} (dataset seed {}, request seed {}; tracing {}; {} core(s))",
        w.name(),
        opts.dataset_seed,
        opts.seed,
        if opts.trace { "on" } else { "off" },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for note in &out.notes {
        let _ = writeln!(s, "  {note}");
    }
    let _ = writeln!(s, "  set-up: {}", spread(&out.setup_s));
    let _ = writeln!(s, "  untraced passes: {}", spread(&out.pass_s));
    let times: Vec<String> = out.pass_s.iter().map(|t| format!("{t:.4}")).collect();
    let _ = writeln!(s, "  untraced pass times, s: [{}]", times.join(", "));
    let _ = writeln!(
        s,
        "  each unit's fastest time, summed over a pass: {:.4} s",
        out.unit_floor_s
    );
    if opts.trace {
        let _ = writeln!(s, "  traced passes: {}", spread(&out.traced_pass_s));
        let _ = writeln!(
            s,
            "  self time per layer (traced passes and probes; set-up spans excluded):"
        );
        let layers = out.recorder.layer_self_ns(|sp| sp.pass > 0);
        let total: u64 = layers.values().sum();
        for (layer, ns) in &layers {
            let _ = writeln!(
                s,
                "    {layer:<10} {:>10.3} ms  {:>5.1}%",
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / total.max(1) as f64
            );
        }
        let _ = writeln!(
            s,
            "  per-layer metrics (0 = layer not called by this workload):"
        );
        for m in PER_LAYER {
            let v = out.metrics.get(m.name).copied().unwrap_or(0.0);
            let _ = writeln!(
                s,
                "    {:<42} {:>14.4} {:<15} {} is better",
                m.name, v, m.unit, m.better
            );
        }
    } else {
        let _ = writeln!(s, "  end-to-end metrics:");
        for m in END_TO_END {
            let v = out.metrics.get(m.name).copied().unwrap_or(0.0);
            let alias = if m.name == "work_per_s" {
                format!(" ({})", w.work_metric())
            } else {
                String::new()
            };
            let _ = writeln!(
                s,
                "    {:<12} {:>14.4} {:<4} {} is better{alias}",
                m.name, v, m.unit, m.better
            );
        }
    }
    let _ = writeln!(s, "  digest of simulated statistics: {:016x}", out.digest);
    let _ = writeln!(
        s,
        "  checks: {} passes attempted, {} failed",
        out.attempted, out.failed
    );
    for f in &out.failures {
        let _ = writeln!(s, "    FAILED: {f}");
    }
    s
}

/// The final JSON line.
fn json_line(opts: &Options, out: &Outcome) -> String {
    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut correct = out.failed == 0;
    let mut metrics = String::new();
    for (i, m) in defs.iter().enumerate() {
        let mut v = out.metrics.get(m.name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            correct = false;
            v = 0.0;
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted, out.failed
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    let (opts, trace_out) = match parse(&argv) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("gdr-perfbench: {msg}");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };
    let out = match run(&opts) {
        Ok(out) => out,
        Err(msg) => {
            eprintln!("gdr-perfbench: {}: {msg}", opts.workload.name());
            std::process::exit(1);
        }
    };
    print!("{}", report(&opts, &out));
    if opts.trace {
        let path = trace_out.unwrap_or_else(|| {
            PathBuf::from(format!("benchmark/out/{}.trace.json", opts.workload.name()))
        });
        let chrome = out.recorder.to_chrome(opts.workload.name());
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, chrome.to_json().to_pretty()));
        match written {
            Ok(()) => println!(
                "  wrote {} spans to {} (open at ui.perfetto.dev)",
                out.recorder.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("gdr-perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", json_line(&opts, &out));
}

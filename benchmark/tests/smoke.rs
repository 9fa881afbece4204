//! Smoke test: every workload at a tiny scale, untraced and traced.
//! Every declared metric must be present and finite, the end-to-end
//! ones positive, and every correctness check must pass.

use gdr_perfbench::{run, MetricDef, Options, Workload, END_TO_END, PER_LAYER};
use gdr_system::json::Json;

fn tiny(workload: Workload, trace: bool) -> Options {
    Options {
        seconds: 0.0,
        trace,
        scale: Some(0.02),
        requests: Some(300),
        ..Options::new(workload)
    }
}

/// A per-layer metric each workload's traced run must measure (non-zero).
fn exercised(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::Replay => &[
            "core.matching.ns_per_edge.acm",
            "core.fifo_matching.ns_per_edge.dblp",
            "core.matching.edge_probes_per_edge.acm",
            "accel.na_sim.ns_per_edge.imdb",
            "accel.na_sim.hit_rate.dblp",
            "serve.replay.batch_ms.p50",
            "serve.cost.measure_s",
            "accel.gpu.ns_per_edge.t4",
            "accel.hihgnn.ns_per_edge",
            "frontend.session.ns_per_edge",
            "sim.speedup_vs_hihgnn",
            "sim.speedup_vs_a100",
            "hgnn.workload_s",
        ],
        Workload::ServeTraced => &[
            "serve.sim.ns_per_request",
            "serve.sim.traced_ns_per_request",
            "serve.sim.events_per_request",
            "serve.record.ns_per_request",
            "serve.breakdown.ns_per_request",
            "serve.chrome.ns_per_event",
            "system.json.ns_per_byte",
        ],
    }
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = run(&tiny(workload, trace)).expect("tiny workloads set up");
            let label = format!("{} trace={trace}", workload.name());
            assert_eq!(out.failed, 0, "{label}: {:?}", out.failures);
            assert!(out.attempted >= 2, "{label}: warm-up or timed pass missing");
            let defs = if trace { PER_LAYER } else { END_TO_END };
            for name in out.metrics.keys() {
                assert!(
                    defs.iter().any(|m| m.name == *name),
                    "{label}: {name} is not declared"
                );
            }
            for m in defs {
                let v = out.metrics.get(m.name).copied();
                assert!(v.is_some_and(f64::is_finite), "{label}: {} = {v:?}", m.name);
                if !trace {
                    assert!(v.unwrap() > 0.0, "{label}: {} must be positive", m.name);
                }
            }
            if trace {
                for name in exercised(workload) {
                    assert!(out.metrics[name] > 0.0, "{label}: {name} not measured");
                }
                assert_eq!(out.metrics["core.cover_violations"], 0.0);
                assert!(!out.recorder.spans().is_empty(), "{label}: no spans");
            }
        }
    }
}

#[test]
fn benchmark_json_declares_exactly_the_catalog() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let same = |key: &str, defs: &[MetricDef]| {
        let listed = doc.get(key).and_then(Json::as_arr).expect("metric list");
        assert_eq!(listed.len(), defs.len(), "{key} length");
        for (j, d) in listed.iter().zip(defs) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name));
            assert_eq!(
                j.get("unit").and_then(Json::as_str),
                Some(d.unit),
                "{}",
                d.name
            );
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(d.better),
                "{}",
                d.name
            );
        }
    };
    same("end_to_end", END_TO_END);
    same("per_layer", PER_LAYER);
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workload list")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

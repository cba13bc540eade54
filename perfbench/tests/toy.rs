//! Every workload at toy size, untraced and traced: every metric the
//! benchmark declares is present, finite and has a unit; the end-to-end
//! metrics, and the per-layer metrics of the layers each workload loads,
//! are not zero; the result line is the JSON object the benchmark contract
//! asks for; and `BENCHMARK.json` declares exactly the metrics and
//! workloads the program reports.

use serde_json::Value;
use tsajs_perfbench::{result_json, run, Scale, Workload, END_TO_END, PER_LAYER};

const SECONDS: f64 = 0.5;

/// Per-layer metrics that are never 0 when the workload's layers ran: a
/// span that was not recorded, or a layer that silently stopped running,
/// shows here even where a bypassed layer's 0 would hide it.
fn loaded(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::Paper => &[
            "scenario_spec.materialize_ms",
            "tsajs.proposals",
            "tsajs.ns_per_proposal",
            "trace.spans",
        ],
        Workload::Service => &[
            "service.submit_us",
            "service.wait_ms_p50",
            "service.close_batch_ms_p50",
            "service.close_batch_ms_p99",
            "service.busy_share",
            "service.cut_latency_ms_p99",
            "service.batch_requests_mean",
            "service.proposals_per_batch",
            "service.warm_share",
            "service.tier_share.full",
            "service.regen_ms",
            "service.solve_ms",
            "service.evaluate_ms",
            "loadgen.late_ms_p99",
            "trace.spans",
        ],
        Workload::ServiceCity => &[
            "shard.partition_ms",
            "shard.cold_ms",
            "shard.warm_ms",
            "shard.sweeps",
            "shard.sweep_ms",
            "shard.epoch_ms_max",
            "shard.proposals",
            "shard.finish_ms",
            "service.submit_us",
            "service.wait_ms_p50",
            "service.close_batch_ms_p50",
            "service.busy_share",
            "service.batch_requests_mean",
            "service.tier_share.city_scale",
            "service.regen_ms",
            "service.solve_ms",
            "service.evaluate_ms",
            "trace.spans",
        ],
    }
}

#[test]
fn every_workload_reports_every_metric_at_toy_size() {
    let scale = Scale::toy();
    for workload in Workload::ALL {
        let mut utility = None;
        for trace in [false, true, false] {
            let name = workload.name();
            let report =
                run(workload, 3, SECONDS, trace, &scale).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(report.correct(), "{name}: {:?}", report.violations);
            assert!(report.attempted > 0, "{name}: nothing attempted");
            let defs = if trace { PER_LAYER } else { END_TO_END };
            for d in defs {
                let v = report.metrics.get(d.name).copied();
                assert!(
                    v.is_some_and(f64::is_finite),
                    "{name}: {} missing or non-finite: {v:?}",
                    d.name
                );
                assert!(!d.unit.is_empty(), "{}: no unit", d.name);
                if !trace || loaded(workload).contains(&d.name) {
                    assert_ne!(v, Some(0.0), "{name}: {} is zero", d.name);
                }
                if trace && loaded(workload).contains(&d.name) {
                    assert!(!workload.bypassed(d.name), "{name}: {} bypassed", d.name);
                }
            }
            if !trace {
                // Same seed, same code: bit-identical utility_mean.
                let u = report.metrics["utility_mean"].to_bits();
                assert_eq!(*utility.get_or_insert(u), u, "{name}: utility_mean moved");
            }

            let line: Value = serde_json::from_str(&result_json(&report, trace))
                .unwrap_or_else(|e| panic!("{name}: result line is not JSON: {e}"));
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
            assert!(line
                .get("attempted")
                .and_then(Value::as_u64)
                .is_some_and(|a| a >= 1));
            assert!(line.get("failed").and_then(Value::as_u64).is_some());
            let Some(Value::Object(metrics)) = line.get("metrics") else {
                panic!("{name}: no metrics object");
            };
            assert_eq!(
                metrics.len(),
                defs.len(),
                "{name}: extra or missing metrics"
            );
            for (d, (key, value)) in defs.iter().zip(metrics) {
                assert_eq!(d.name, key);
                assert!(value.get("value").and_then(Value::as_f64).is_some());
                assert_eq!(value.get("unit").and_then(Value::as_str), Some(d.unit));
            }
        }
    }
}

#[test]
fn benchmark_json_declares_what_the_program_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let bench: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");

    let names: Vec<&str> = bench["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("workload name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);

    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared = bench[key].as_array().expect(key);
        assert_eq!(declared.len(), defs.len(), "{key}: count");
        for (entry, d) in declared.iter().zip(defs) {
            assert_eq!(entry["name"].as_str(), Some(d.name), "{key}");
            assert_eq!(entry["unit"].as_str(), Some(d.unit), "{key}: {}", d.name);
            assert_eq!(
                entry["better"].as_str(),
                Some(d.better),
                "{key}: {}",
                d.name
            );
        }
    }
    let bounds: Vec<(&str, f64)> = bench["end_to_end"]
        .as_array()
        .expect("end_to_end")
        .iter()
        .map(|m| (m["name"].as_str().unwrap(), m["bound"].as_f64().unwrap()))
        .collect();
    let setup = bounds
        .iter()
        .find(|(n, _)| *n == "setup_s")
        .expect("setup_s")
        .1;
    for (name, bound) in &bounds {
        assert!(*bound > 0.0 && *bound <= 0.25, "{name}: bound {bound}");
        assert!(
            *bound <= setup,
            "{name}: setup_s must have the largest bound"
        );
    }
}

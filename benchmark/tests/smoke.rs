//! Runs the real binary in `--smoke` mode — all six workloads, tiny
//! windows — untraced and traced, and checks that every metric
//! `BENCHMARK.json` declares comes back with a finite value and that every
//! output check passed. Speed is not judged here.

use revel_serve::json::{self, Value};
use std::process::Command;

const WORKLOADS: [&str; 6] =
    ["grid_cold", "sim_steady", "batch_replay", "serve_hot", "serve_paced", "serve_churn"];

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let metrics = doc.get(section).and_then(Value::as_arr).expect("metric list");
    metrics
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Value::as_str).expect("string").to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

/// Runs `run --smoke` with `extra` arguments; returns the one-line results,
/// one per workload, in order.
fn smoke(extra: &[&str]) -> Vec<Value> {
    let output = Command::new(env!("CARGO_BIN_EXE_revel-benchmark"))
        .args(["run", "--smoke", "--seed", "3"])
        .args(extra)
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "benchmark failed:\n{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    lines[lines.len() - WORKLOADS.len()..]
        .iter()
        .map(|line| json::parse(line).expect("result line is JSON"))
        .collect()
}

fn assert_reports_exactly(result: &Value, declared: &[(String, String)], workload: &str) {
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true), "{workload}");
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0), "{workload}");
    assert!(result.get("attempted").and_then(Value::as_u64).expect("attempted") >= 1);
    let Some(Value::Obj(metrics)) = result.get("metrics") else { panic!("{workload}: no metrics") };
    let names: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
    let expected: Vec<&str> = declared.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, expected, "{workload} reports exactly the declared metrics");
    for ((name, metric), (_, unit)) in metrics.iter().zip(declared) {
        let value = metric.get("value").and_then(Value::as_f64).expect("value");
        assert!(value.is_finite(), "{workload} {name} = {value}");
        assert_eq!(metric.get("unit").and_then(Value::as_str), Some(unit.as_str()), "{name}");
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let declared = declared("end_to_end");
    for (result, workload) in smoke(&[]).iter().zip(WORKLOADS) {
        assert_reports_exactly(result, &declared, workload);
        let Some(Value::Obj(metrics)) = result.get("metrics") else { unreachable!() };
        for (name, metric) in metrics {
            let value = metric.get("value").and_then(Value::as_f64).expect("value");
            assert!(value > 0.0, "{workload} {name} must never read 0, got {value}");
        }
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric_and_a_span_file() {
    let declared = declared("per_layer");
    for (result, workload) in smoke(&["--trace", "1"]).iter().zip(WORKLOADS) {
        assert_reports_exactly(result, &declared, workload);
        let path = format!("{}/out/trace-{workload}.json", env!("CARGO_MANIFEST_DIR"));
        let file = json::parse(&std::fs::read_to_string(&path).expect("span file")).expect("JSON");
        let spans = file.get("spans").and_then(Value::as_arr).expect("spans");
        assert!(!spans.is_empty(), "{workload} recorded no spans");
        for key in ["name", "layer", "start_ns", "end_ns", "parent", "op"] {
            assert!(spans[0].get(key).is_some(), "{workload} span lacks {key}");
        }
    }
}

#[test]
fn the_same_seed_dumps_the_same_inputs() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("out directory");
    let dump = |tag: &str, seed: &str| {
        let path = dir.join(format!("inputs-{tag}.txt"));
        let status = Command::new(env!("CARGO_BIN_EXE_revel-benchmark"))
            .args(["run", "--smoke", "--workload", "serve_paced", "--seed", seed])
            .args(["--dump-inputs", path.to_str().expect("utf-8 path")])
            .status()
            .expect("benchmark starts");
        assert!(status.success());
        let bytes = std::fs::read(&path).expect("dump written");
        std::fs::remove_file(&path).ok();
        bytes
    };
    let first = dump("a", "5");
    assert!(!first.is_empty());
    assert_eq!(first, dump("b", "5"));
    assert_ne!(first, dump("c", "6"));
}

//! Tiny-size smoke runs of every workload. Each run must pass its own
//! output checks and print every metric `BENCHMARK.json` declares, with
//! the unit declared there; across the three traced runs every layer of
//! the per-layer table must report at least one non-zero metric.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["cpu-colonies", "gpu-kernels", "auto-service"];

/// Metric-name prefixes of the layers the traced runs must cover.
const LAYERS: [&str; 10] =
    ["tsp", "cache", "auto", "scheduler", "devices", "cpu", "gpu", "simt", "ls", "obs"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\":")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

fn field(object: &str, key: &str) -> String {
    let key = format!("\"{key}\": \"");
    let at = object.find(&key).expect("field present") + key.len();
    object[at..].split('"').next().expect("closing quote").to_string()
}

/// Run the benchmark binary at the tiny scale; returns its result line.
fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace])
        .arg("--tiny")
        .output()
        .expect("spawn perfbench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

/// The `(value, unit)` a result line reports for `name`.
fn reported(line: &str, name: &str) -> Option<(f64, String)> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let (value, rest) = rest.split_once(", \"unit\": \"")?;
    Some((value.parse().ok()?, rest.split('"').next()?.to_string()))
}

#[test]
fn every_workload_reports_every_declared_metric_and_traced_runs_cover_every_layer() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(!end_to_end.is_empty() && !per_layer.is_empty());
    let mut covered = BTreeSet::new();
    for workload in WORKLOADS {
        for (trace, metrics) in [("0", &end_to_end), ("1", &per_layer)] {
            let line = run(workload, trace);
            assert!(line.contains("\"correct\": true"), "{workload} --trace {trace}: {line}");
            assert!(line.contains("\"failed\": 0,"), "{workload} --trace {trace}: {line}");
            for (name, unit) in metrics {
                let (value, got) = reported(&line, name)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
                assert_eq!(&got, unit, "{workload}: unit of {name}");
                if trace == "1" && value != 0.0 {
                    covered.insert(name.split('.').next().expect("dotted name").to_string());
                }
            }
        }
    }
    for layer in LAYERS {
        assert!(covered.contains(layer), "no traced run measured the {layer} layer");
    }
}

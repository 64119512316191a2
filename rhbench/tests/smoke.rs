//! Every workload, untraced and traced, at smoke length: each run must exit
//! cleanly (no failed request, pending suggestions answered identically after
//! a restart, replay fingerprint equal to the served one) and print exactly
//! the metrics BENCHMARK.json names, each with its unit.

use std::path::Path;
use std::process::Command;

use serde::Value;

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::UInt(u) => *u as f64,
        Value::Float(f) => *f,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

/// (name, unit) of every metric in one BENCHMARK.json section.
fn declared(bench: &Value, section: &str) -> Vec<(String, String)> {
    items(bench.get_field(section))
        .iter()
        .map(|m| {
            (
                str_of(m.get_field("name")).to_string(),
                str_of(m.get_field("unit")).to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_passes_and_prints_the_declared_metrics() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(manifest.join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = serde_json::value_from_str(&text).expect("BENCHMARK.json parses");
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("rhbench-smoke");
    for workload in items(bench.get_field("workloads")) {
        let name = str_of(workload.get_field("name"));
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_rhbench"))
                .args([
                    "--workload",
                    name,
                    "--seed",
                    "7",
                    "--smoke",
                    "--trace",
                    trace,
                ])
                .arg("--out")
                .arg(&out_dir)
                .output()
                .expect("rhbench starts");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{name} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = serde_json::value_from_str(last).expect("the result line is JSON");
            assert!(matches!(result.get_field("correct"), Value::Bool(true)));
            assert_eq!(
                number(result.get_field("failed")),
                0.0,
                "{name}: failed requests"
            );
            assert!(number(result.get_field("attempted")) >= 1.0);
            let Value::Object(metrics) = result.get_field("metrics") else {
                panic!("{name}: metrics is not an object");
            };
            let want = declared(&bench, section);
            assert_eq!(
                metrics.len(),
                want.len(),
                "{name} --trace {trace}: metric count"
            );
            for (metric, unit) in &want {
                let m = result.get_field("metrics").get_field(metric);
                assert_eq!(
                    str_of(m.get_field("unit")),
                    unit,
                    "{name}: unit of {metric}"
                );
                assert!(number(m.get_field("value")).is_finite(), "{name}: {metric}");
                let line = format!("{name} {metric} ");
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(&line) && l.ends_with(&format!(" {unit}"))),
                    "{name}: no `{line}<value> {unit}` line"
                );
            }
            if trace == "1" {
                let errors = result
                    .get_field("metrics")
                    .get_field("error_rate")
                    .get_field("value");
                assert_eq!(number(errors), 0.0, "{name}: error_rate");
            }
        }
    }
}

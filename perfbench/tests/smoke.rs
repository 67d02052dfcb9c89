//! Every workload through the built runner with a 1 s window: the result
//! line has the contract's shape, every declared metric is there, and no
//! operation failed.

use perfbench::suite::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::Path;
use std::process::Command;

fn run(workload: &str, trace: &str, trace_dir: &Path) -> serde_json::Value {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", trace])
        .arg("--trace-dir")
        .arg(trace_dir)
        .output()
        .expect("bench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::parse(last).unwrap_or_else(|e| panic!("{workload}: result line {last}: {e}"))
}

fn assert_result(doc: &serde_json::Value, what: &str, expected: &[(&str, &str)]) {
    assert_eq!(
        doc.get("correct").and_then(|v| v.as_bool()),
        Some(true),
        "{what}"
    );
    assert_eq!(
        doc.get("failed").and_then(|v| v.as_u64()),
        Some(0),
        "{what}"
    );
    assert!(
        doc.get("attempted").and_then(|v| v.as_u64()) >= Some(1),
        "{what}"
    );
    let metrics = doc
        .get("metrics")
        .and_then(|m| m.as_object())
        .expect("metrics");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = expected.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, wanted, "{what}");
    for ((name, metric), (_, unit)) in metrics.iter().zip(expected) {
        let value = metric.get("value").and_then(|v| v.as_f64());
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {name} = {value:?}"
        );
        assert_eq!(
            metric.get("unit").and_then(|u| u.as_str()),
            Some(*unit),
            "{what}: {name}"
        );
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_no_failure() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-timed");
    let expected: Vec<(&str, &str)> = END_TO_END.iter().map(|(n, u, ..)| (*n, *u)).collect();
    for workload in WORKLOADS {
        let doc = run(workload, "0", &dir);
        assert_result(&doc, workload, &expected);
        // None of the gated metrics may be zero: a bound is a share of it.
        for (name, metric) in doc.get("metrics").and_then(|m| m.as_object()).unwrap() {
            let value = metric.get("value").and_then(|v| v.as_f64()).unwrap();
            assert!(value > 0.0, "{workload}: {name} = {value}");
        }
    }
}

#[test]
fn a_traced_run_reports_the_whole_layer_budget_and_writes_its_spans() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-traced");
    let expected: Vec<(&str, &str)> = PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect();
    for workload in ["paper_sim", "serve_miss"] {
        let doc = run(workload, "1", &dir);
        assert_result(&doc, workload, &expected);
        let trace =
            std::fs::read_to_string(dir.join(format!("{workload}.trace.json"))).expect("span file");
        let spans = serde_json::parse(&trace).expect("span file is JSON");
        let events = spans.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert!(events.len() > 50, "{workload}: {} spans", events.len());
    }
}

#[test]
fn a_bad_command_line_is_refused_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--seconds", "0", "--workload", "paper_sim"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(&args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

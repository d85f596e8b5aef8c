//! Short runs of every workload print every metric `BENCHMARK.json`
//! names, with its unit, in the result line the contract asks for.
//!
//! Run with `cargo test --release --manifest-path e2ebench/Cargo.toml`
//! (each short run still builds and times native harnesses).

use frodo_e2ebench::json::{self, Value};
use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 2] = ["table1-compile", "table1-run"];

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `name -> unit` of one metric list of the manifest.
fn declared(manifest: &Value, key: &str) -> BTreeMap<String, String> {
    manifest
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_frodo-e2ebench"))
        .args(args)
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs")
}

fn check_short_run(workload: &str, trace: &str, expected: &BTreeMap<String, String>) {
    let out = run(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0.5",
        "--trace",
        trace,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} --trace {trace}: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("a result line");
    let result = json::parse(line).expect("the result line is JSON");
    let Value::Object(top) = &result else {
        panic!("result is not an object: {line}");
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stderr}");
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        panic!("no metrics object: {line}");
    };
    let printed: BTreeMap<String, String> = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{workload}: {name} has no finite value"
            );
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or_default();
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(&printed, expected, "{workload} --trace {trace}");
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let expected = declared(&manifest(), "end_to_end");
    assert!(expected.contains_key("setup_s"));
    for w in WORKLOADS {
        check_short_run(w, "0", &expected);
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    let expected = declared(&manifest(), "per_layer");
    for w in WORKLOADS {
        check_short_run(w, "1", &expected);
    }
}

#[test]
fn manifest_lists_the_workloads_this_binary_runs() {
    let names: Vec<String> = manifest()
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "table1-run", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "table1-run",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

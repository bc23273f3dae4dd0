//! Drives the built `bench` binary as the driver does: every workload at
//! `--smoke` size (1/50), tracing off and on, and holds the result line to
//! the contract — exactly the keys `correct`, `attempted`, `failed` and
//! `metrics`, and exactly the metric names `BENCHMARK.json` declares for
//! that mode, each with its declared unit.

use std::process::Command;
use std::time::{Duration, Instant};

use ripple_core::obs::json::{self, Value};

/// `(name, unit)` of every entry of one of `BENCHMARK.json`'s lists; the
/// unit is empty for the workload list, which has none.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
    doc.get(key)
        .and_then(Value::as_arr)
        .expect("a list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

/// Runs one workload at smoke size and returns its parsed result line.
fn smoke(workload: &str, seed: u64, trace: bool) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0",
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
        ])
        .output()
        .expect("bench binary runs");
    assert!(
        output.status.success(),
        "{workload} trace={trace} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    assert!(
        stdout.contains(&format!("output_digest {workload} ")),
        "{workload} printed no output digest"
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last)
        .unwrap_or_else(|e| panic!("{workload} result line does not parse: {e}\n{last}"))
}

fn check_result(workload: &str, result: &Value, declared: &[(String, String)], nonzero: bool) {
    let keys: Vec<&str> = result
        .as_obj()
        .expect("result is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_u64)
            .expect("attempted")
            >= 1
    );

    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics");
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .expect("unit")
                .to_string();
            let value = m.get("value").and_then(Value::as_f64).expect("value");
            assert!(value.is_finite(), "{workload}: {name} is not finite");
            if nonzero {
                assert!(
                    value > 0.0,
                    "{workload}: end-to-end metric {name} reads {value}"
                );
            }
            (name.clone(), unit)
        })
        .collect();
    assert_eq!(
        printed, declared,
        "{workload}: printed names differ from BENCHMARK.json"
    );
}

#[test]
fn all_five_workloads_smoke_in_under_twenty_seconds() {
    let started = Instant::now();
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    let workloads: Vec<String> = declared("workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(workloads.len(), 5);
    for workload in &workloads {
        check_result(
            workload,
            &smoke(workload, 20130101, false),
            &end_to_end,
            true,
        );
    }
    let untraced = started.elapsed();
    assert!(
        untraced < Duration::from_secs(20),
        "smoke run of all five workloads took {untraced:?}"
    );
    // The traced run prints every per-layer name on every workload and
    // leaves a chrome trace behind.
    for workload in &workloads {
        check_result(
            workload,
            &smoke(workload, 20130101, true),
            &per_layer,
            false,
        );
    }
}

#[test]
fn equal_seeds_give_equal_digests_and_other_seeds_differ() {
    let digest = |seed: u64| {
        let output = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(["--workload", "paper_study", "--seed", &seed.to_string()])
            .args(["--seconds", "0", "--trace", "0", "--smoke"])
            .output()
            .expect("bench binary runs");
        let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
        stdout
            .lines()
            .find_map(|l| l.strip_prefix("output_digest paper_study "))
            .expect("digest line")
            .to_string()
    };
    assert_eq!(digest(7), digest(7));
    assert_ne!(digest(7), digest(8));
}

#[test]
fn unknown_workload_exits_non_zero_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args([
            "--workload",
            "no_such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("bench binary runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}

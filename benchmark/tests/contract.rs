//! Keeps `BENCHMARK.json`, the catalog behind `--list` and the harness
//! itself in step, so none of them can rot unnoticed.

use serde::Value;
use std::process::Command;
use std::time::Instant;

const BIN: &str = env!("CARGO_BIN_EXE_tsue_benchmark");

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    serde_json::value_from_str(&text).expect("BENCHMARK.json parses")
}

fn list(v: &Value, key: &str) -> Vec<Value> {
    match v.get(key) {
        Some(Value::Array(items)) => items.clone(),
        other => panic!("{key}: expected an array, found {other:?}"),
    }
}

fn name_of(v: &Value) -> String {
    match v.get("name") {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("entry without a name: {other:?}"),
    }
}

#[test]
fn names_and_counts_fit_the_contract() {
    let b = benchmark_json();
    for (key, max) in [("workloads", 8), ("end_to_end", 16), ("per_layer", 128)] {
        let items = list(&b, key);
        assert!(
            !items.is_empty() && items.len() <= max,
            "{key}: {} entries, limit {max}",
            items.len()
        );
    }
    let mut seen = std::collections::BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for item in list(&b, key) {
            let name = name_of(&item);
            assert!(
                name.len() <= 64
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad name {name:?}"
            );
            assert!(seen.insert(name.clone()), "name {name} used twice");
        }
    }
    let has_setup = list(&b, "end_to_end").iter().any(|m| {
        name_of(m) == "setup_s"
            && m.get("unit") == Some(&Value::Str("s".into()))
            && m.get("better") == Some(&Value::Str("lower".into()))
    });
    assert!(
        has_setup,
        "end_to_end must hold setup_s in s, lower is better"
    );
}

#[test]
fn list_emits_exactly_what_benchmark_json_names() {
    let out = Command::new(BIN)
        .arg("--list")
        .output()
        .expect("--list runs");
    assert!(out.status.success());
    let listed = serde_json::value_from_str(&String::from_utf8_lossy(&out.stdout))
        .expect("--list prints JSON");
    let b = benchmark_json();
    for key in ["workloads", "end_to_end", "per_layer"] {
        assert_eq!(
            list(&listed, key),
            list(&b, key),
            "{key} in BENCHMARK.json differs from the catalog"
        );
    }
}

#[test]
fn smoke_suite_finishes_quickly_and_correct() {
    let out = format!("{}/smoke.json", env!("CARGO_TARGET_TMPDIR"));
    let start = Instant::now();
    let status = Command::new(BIN)
        .args(["--smoke", "--seed", "7", "--out", &out])
        .status()
        .expect("suite runs");
    let secs = start.elapsed().as_secs_f64();
    assert!(status.success(), "smoke suite exited with {status}");
    assert!(secs < 15.0, "smoke suite took {secs:.1} s");
    let text = std::fs::read_to_string(&out).expect("result file written");
    let result = serde_json::value_from_str(&text).expect("result parses");
    let runs = list(&result, "runs");
    assert_eq!(runs.len(), 8, "four workloads, traced and untraced");
    for run in &runs {
        assert_eq!(run.get("correct"), Some(&Value::Bool(true)), "{run:?}");
        assert_eq!(run.get("failed"), Some(&Value::UInt(0)));
    }
    let spans = std::fs::read_to_string(format!("{out}.trace.json")).expect("spans written");
    assert!(spans.contains("ecfs.run_workload"));
}

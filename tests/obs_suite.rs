//! The observability layer, end to end: histogram/series determinism
//! across runs, op-lifecycle trace coverage on a faulted
//! run, and the per-phase latency snapshots in fault reports.

use tsue_repro::bench::{
    bundled_scenarios, default_registry, run_scenario_traced, run_scenario_with, ScenarioSpec,
};

fn bundled_spec(name: &str) -> ScenarioSpec {
    let (_, json) = bundled_scenarios()
        .iter()
        .find(|(p, _)| p.ends_with(name))
        .expect("scenario is bundled");
    serde_json::from_str(json).expect("bundled scenario parses")
}

/// Metric recording depends on virtual time only, so every histogram
/// bucket, stage span, and series sample must be byte-identical when
/// the same spec runs twice in one process.
#[test]
fn obs_sections_bit_identical_across_runs() {
    let spec = bundled_spec("smoke.json");
    let registry = default_registry();
    let reference = run_scenario_with(&spec, &registry).expect("scenario runs");
    let ref_obs = serde_json::to_string_pretty(&reference.obs).expect("obs serializes");
    let ref_all = serde_json::to_string_pretty(&reference).expect("result serializes");
    assert!(reference.latency.count > 0, "smoke completes client ops");
    let got = run_scenario_with(&spec, &registry).expect("scenario runs");
    let obs = serde_json::to_string_pretty(&got.obs).expect("obs serializes");
    assert_eq!(ref_obs, obs, "obs section diverged on the second run");
    let all = serde_json::to_string_pretty(&got).expect("result serializes");
    assert_eq!(ref_all, all, "full result diverged on the second run");
}

/// A faulted, traced run emits at least one complete Chrome span per op
/// class the run actually completed, and every event is a well-formed
/// complete (`"X"`) event.
#[test]
fn faulted_trace_covers_every_completed_op_class() {
    let spec = bundled_spec("rack_failure_online.json");
    let (result, trace) =
        run_scenario_traced(&spec, &default_registry(), 1, true).expect("scenario runs");
    let json = trace.expect("tracing was enabled");
    let v = serde_json::value_from_str(&json).expect("trace JSON parses");

    let serde::Value::Array(events) = v.get("traceEvents").expect("traceEvents present") else {
        panic!("traceEvents is not an array");
    };
    assert!(!events.is_empty(), "trace must contain spans");
    let mut op_spans: Vec<&str> = Vec::new();
    for e in events {
        assert_eq!(
            e.get("ph"),
            Some(&serde::Value::Str("X".into())),
            "all emitted events are complete spans"
        );
        for key in ["name", "cat", "ts", "dur", "pid", "tid"] {
            assert!(e.get(key).is_some(), "event missing '{key}'");
        }
        if let (Some(serde::Value::Str(cat)), Some(serde::Value::Str(name))) =
            (e.get("cat"), e.get("name"))
        {
            if cat == "op" && !op_spans.contains(&name.as_str()) {
                op_spans.push(name);
            }
        }
    }
    // The rack kill guarantees recovery decodes and degraded traffic on
    // top of the normal update/read classes.
    let decode = result.obs.class("recovery_decode").expect("class present");
    assert!(decode.count > 0, "the rack kill rebuilt blocks");
    for class in &result.obs.classes {
        if class.count > 0 {
            assert!(
                op_spans.contains(&class.name.as_str()),
                "completed {} '{}' ops but the trace has no such span",
                class.count,
                class.name
            );
        }
    }
}

/// Fault phases carry the client-latency story around the failure:
/// a populated before/during snapshot pair and a backfilled after-view
/// once the run completes.
#[test]
fn fault_phases_snapshot_client_latency_around_the_kill() {
    let spec = bundled_spec("rack_failure_online.json");
    let result = run_scenario_with(&spec, &default_registry()).expect("scenario runs");
    let rec = result.recovery.as_ref().expect("fault plan ran");
    assert!(!rec.phases.is_empty());
    for p in &rec.phases {
        assert!(
            p.lat_before.count > 0,
            "clients completed ops before the kill"
        );
        assert!(
            p.lat_during.count > 0,
            "clients kept completing ops during recovery"
        );
        let after = p.lat_after.as_ref().expect("harness backfills lat_after");
        // before + during + after partition the run's client completions.
        let total = p.lat_before.count + p.lat_during.count + after.count;
        assert_eq!(
            total, result.latency.count,
            "phase windows partition the run"
        );
    }
    // The per-node/per-rack series sampled on the default cadence.
    let series = &result.obs.series;
    assert_eq!(series.cadence_ms, 250);
    assert!(!series.samples.is_empty(), "series sampled during the run");
    let last = series.samples.last().unwrap();
    assert_eq!(last.nodes.len(), spec.osds());
    assert_eq!(last.racks.len(), 4, "rack4 topology");
    assert!(
        last.racks.iter().any(|r| r.up_bytes > 0),
        "rack-aware placement pushes bytes through uplinks"
    );
    assert!(
        last.racks.iter().all(|r| (0.0..=1.0).contains(&r.up_util)),
        "utilization is normalized"
    );
}

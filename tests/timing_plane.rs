//! One timing plane: `materialize` decides only whether block bytes
//! exist. Every spec here runs twice, timing-only and materialized, and
//! the two serialized `result`s must be identical, field for field, with
//! nothing exempted. A timing path that branches on bytes (a fence, a
//! memory model or a wire estimate that reads content) fails this test.
//!
//! The matrix: every bundled scenario, the four `fault-paths` golden
//! specs, each registry scheme on a handful of fault shapes, and TSUE's
//! ablation and extension knobs. The kill + heal cells do not flush
//! afterwards: some schemes stall their final drain after a heal (see
//! ROADMAP, DST known catch 1), in both modes alike.

use tsue_repro::bench::{
    bundled_scenarios, default_registry, run_scenario, ScenarioOutcome, ScenarioSpec, SchemeSpec,
};
use tsue_repro::fault::FaultEvent;

/// Runs `spec` as a timing-only and as a materialized twin and asserts
/// the two results serialize identically. Returns false, running
/// nothing, when the timing-only twin does not validate.
fn twins_agree(spec: &ScenarioSpec) -> bool {
    let mut ghost = spec.clone();
    ghost.materialize = Some(false);
    if ghost.validate(&default_registry()).is_err() {
        return false;
    }
    let mut real = spec.clone();
    real.materialize = Some(true);
    let run = |s: &ScenarioSpec| {
        let result = run_scenario(s).unwrap_or_else(|e| panic!("{}: {e}", s.name));
        serde_json::to_string_pretty(&result).expect("result serializes")
    };
    let (g, r) = (run(&ghost), run(&real));
    if let Some((i, (a, b))) = g
        .lines()
        .zip(r.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
    {
        panic!(
            "{} ({}): timing-only and materialized results differ at line {}:\n  \
             ghost: {a}\n  real:  {b}",
            spec.name,
            spec.scheme.name,
            i + 1
        );
    }
    assert_eq!(
        g, r,
        "{} ({}): result lengths differ",
        spec.name, spec.scheme.name
    );
    true
}

fn parse(json: &str) -> ScenarioSpec {
    serde_json::from_str(json).expect("scenario parses")
}

/// Every bundled scenario. Only `scrub_bitrot.json` has no timing-only
/// twin: its scrub and bit rot need bytes, and `validate` says so.
#[test]
fn bundled_scenarios_agree() {
    let skipped: Vec<&str> = bundled_scenarios()
        .iter()
        .filter(|(_, json)| !twins_agree(&parse(json)))
        .map(|(path, _)| *path)
        .collect();
    assert_eq!(skipped, ["scenarios/scrub_bitrot.json"]);
}

/// The kill/heal specs pinned by `tests/golden/fault-paths.json`.
#[test]
fn fault_path_specs_agree() {
    let golden: Vec<ScenarioOutcome> =
        serde_json::from_str(include_str!("golden/fault-paths.json")).expect("fault paths parse");
    assert_eq!(golden.len(), 4);
    for outcome in &golden {
        assert!(
            twins_agree(&outcome.spec),
            "{} validates",
            outcome.spec.name
        );
    }
}

/// Each registry scheme on: `smoke` flushed, `smoke` with a node kill,
/// the online rack kill, `heal_rejoin`'s kill + heal and a power loss in
/// its place, and a kill + heal on the HDD trace.
#[test]
fn every_scheme_agrees_fault_free_and_under_faults() {
    let smoke = parse(include_str!("../scenarios/smoke.json"));
    let mut smoke_kill = smoke.clone();
    smoke_kill.name = "smoke-kill".into();
    smoke_kill.faults = Some(vec![FaultEvent::KillNode {
        at_ms: 150,
        node: 1,
    }]);
    let rack = parse(include_str!("../scenarios/rack_failure_online.json"));
    let heal = parse(include_str!("../scenarios/heal_rejoin.json"));
    let mut power = heal.clone();
    power.name = "heal-rejoin-power-loss".into();
    power.faults = Some(vec![FaultEvent::PowerLoss {
        at_ms: 100,
        node: 3,
        seed: None,
    }]);
    let mut hdd = parse(include_str!("../scenarios/hdd_msr_parix.json"));
    hdd.name = "hdd-msr-kill-heal".into();
    hdd.faults = Some(vec![
        FaultEvent::KillNode {
            at_ms: 200,
            node: 1,
        },
        FaultEvent::HealNode {
            at_ms: 700,
            node: 1,
        },
    ]);
    for name in default_registry().names() {
        for base in [&smoke, &smoke_kill, &rack, &heal, &power, &hdd] {
            let mut spec = base.clone();
            spec.scheme = SchemeSpec::named(name);
            assert!(twins_agree(&spec), "{} ({name}) validates", spec.name);
        }
    }
}

/// TSUE's knobs that change what crosses the wire or where logs live:
/// delta compression, the raw-record ablation levels and a replicated
/// DataLog, each fault-free and with a node kill.
#[test]
fn tsue_knobs_agree() {
    let smoke = parse(include_str!("../scenarios/smoke.json"));
    for knob in [
        r#"{"compress_deltas": true}"#,
        r#"{"breakdown_level": 0}"#,
        r#"{"breakdown_level": 2}"#,
        r#"{"data_replicas": 3}"#,
    ] {
        for kill in [false, true] {
            let mut spec = smoke.clone();
            let knobs = serde_json::value_from_str(knob).expect("knobs parse");
            spec.scheme = SchemeSpec::with_knobs("tsue", knobs);
            if kill {
                spec.name = "smoke-kill".into();
                spec.faults = Some(vec![FaultEvent::KillNode {
                    at_ms: 150,
                    node: 1,
                }]);
            }
            assert!(twins_agree(&spec), "{} with {knob} validates", spec.name);
        }
    }
}

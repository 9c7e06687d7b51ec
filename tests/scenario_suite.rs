//! The declarative scenario API, end to end: serde round-trips, registry
//! coverage, knob validation, and the bundled golden scenarios.

use proptest::prelude::*;
use tsue_repro::bench::{
    bundled_scenarios, default_registry, run_scenario, ScenarioOutcome, ScenarioSpec, SchemeSpec,
    TraceKind,
};
use tsue_repro::ecfs::{DeviceKind, SchemeParams};
use tsue_repro::fault::FaultEvent;

/// Every scheme the paper evaluates is constructible by name.
#[test]
fn all_seven_schemes_constructible_by_name() {
    let reg = default_registry();
    let names = ["fo", "fl", "pl", "plr", "parix", "cord", "tsue"];
    assert_eq!(reg.names(), names.to_vec(), "registration order is fixed");
    for name in names {
        for device in [DeviceKind::Ssd, DeviceKind::Hdd] {
            let mut make = reg
                .instantiate(name, &SchemeParams::bare(device))
                .unwrap_or_else(|e| panic!("{name} on {device:?}: {e}"));
            let scheme = make(0);
            assert_eq!(scheme.backlog(), 0, "{name}: fresh scheme has no backlog");
        }
    }
}

/// Unknown names and typo'd knobs must fail loudly, naming the problem.
#[test]
fn unknown_scheme_and_knob_typos_are_rejected() {
    let reg = default_registry();
    let spec = ScenarioSpec::ssd(
        "bad-scheme",
        TraceKind::Ten,
        4,
        2,
        4,
        SchemeSpec::named("tseu"),
    );
    let err = spec.validate(&reg).expect_err("typo'd scheme must fail");
    assert!(err.contains("tseu") && err.contains("tsue"), "{err}");

    let knobs = serde_json::value_from_str(r#"{"maxunits": 2}"#).unwrap();
    let spec = ScenarioSpec::ssd(
        "bad-knob",
        TraceKind::Ten,
        4,
        2,
        4,
        SchemeSpec::with_knobs("tsue", knobs),
    );
    let err = spec.validate(&reg).expect_err("typo'd knob must fail");
    assert!(err.contains("maxunits"), "{err}");

    let spec = ScenarioSpec::ssd(
        "too-wide",
        TraceKind::Ten,
        12,
        8,
        4,
        SchemeSpec::named("fo"),
    );
    let err = spec.validate(&reg).expect_err("RS(12,8) needs > 16 OSDs");
    assert!(err.contains("OSD"), "{err}");
}

/// Work that only bytes can do fails validation in a timing-only run,
/// naming the scenario and what needs bytes: a scrub needs materialized,
/// checksummed blocks, and bit rot needs bytes to flip.
#[test]
fn byte_only_work_is_rejected_in_timing_only_runs() {
    let reg = default_registry();
    let mut spec = ScenarioSpec::ssd(
        "ghost-scrub",
        TraceKind::Ten,
        4,
        2,
        4,
        SchemeSpec::named("fo"),
    );
    spec.scrub_mb_s = Some(64);
    let err = spec
        .validate(&reg)
        .expect_err("a timing-only scrub must fail");
    assert!(
        err.contains("'ghost-scrub'") && err.contains("scrub_mb_s"),
        "{err}"
    );
    spec.materialize = Some(true);
    spec.checksums = Some(false);
    let err = spec
        .validate(&reg)
        .expect_err("a scrub without checksums must fail");
    assert!(err.contains("scrub_mb_s"), "{err}");
    spec.checksums = Some(true);
    spec.validate(&reg)
        .expect("a materialized, checksummed scrub is valid");

    let mut spec = ScenarioSpec::ssd(
        "ghost-rot",
        TraceKind::Ten,
        4,
        2,
        4,
        SchemeSpec::named("fo"),
    );
    spec.faults = Some(vec![
        FaultEvent::KillNode { at_ms: 50, node: 1 },
        FaultEvent::CorruptBlock {
            at_ms: 100,
            node: 2,
            blocks: Some(4),
            seed: Some(7),
        },
    ]);
    let err = spec
        .validate(&reg)
        .expect_err("timing-only bit rot must fail");
    assert!(
        err.contains("'ghost-rot'") && err.contains("corrupt_block") && err.contains("100 ms"),
        "{err}"
    );
    spec.materialize = Some(true);
    spec.validate(&reg).expect("materialized bit rot is valid");
}

/// A scenario JSON with an unknown top-level field must not load.
#[test]
fn scenario_files_reject_unknown_fields() {
    // A typo, and two keys the spec does not have: journaling is always
    // on and parity logs are single-copy.
    for (key, value) in [
        ("duration_sm", "100"),
        ("journal", "true"),
        ("log_replicas", "2"),
    ] {
        let json = format!(
            r#"{{"name": "x", "device": "ssd", "k": 4, "m": 2, "clients": 4,
                "trace": "ten", "scheme": {{"name": "fo"}}, "{key}": {value}}}"#
        );
        let err =
            serde_json::from_str::<ScenarioSpec>(&json).expect_err("an unknown key fails the load");
        assert!(err.to_string().contains(key), "{key}: {err}");
    }
}

/// Every bundled scenario parses, validates, and re-serializes to an
/// equivalent spec.
#[test]
fn bundled_scenarios_parse_and_validate() {
    let reg = default_registry();
    assert!(bundled_scenarios().len() >= 2, "at least two bundled files");
    for (path, json) in bundled_scenarios() {
        let spec: ScenarioSpec =
            serde_json::from_str(json).unwrap_or_else(|e| panic!("{path} does not parse: {e}"));
        spec.validate(&reg)
            .unwrap_or_else(|e| panic!("{path} does not validate: {e}"));
        let reprinted = serde_json::to_string_pretty(&spec).expect("spec serializes");
        let back: ScenarioSpec = serde_json::from_str(&reprinted).expect("reprint parses");
        assert_eq!(back, spec, "{path} round-trips");
    }
}

/// Golden run: the bundled smoke scenario executes deterministically
/// under its fixed seed — bit-identical metrics across runs — and the
/// emitted `{spec, result}` outcome round-trips through JSON.
#[test]
fn golden_smoke_scenario_runs_deterministically() {
    let (path, json) = &bundled_scenarios()[0];
    assert!(path.ends_with("smoke.json"), "smoke scenario is first");
    let spec: ScenarioSpec = serde_json::from_str(json).expect("smoke parses");

    let a = run_scenario(&spec).expect("smoke runs");
    let b = run_scenario(&spec).expect("smoke reruns");
    assert!(a.iops > 0.0, "smoke completes ops");
    assert_eq!(a.k, spec.k);
    assert_eq!(a.m, spec.m);
    assert_eq!(a.scheme, "TSUE");
    assert!(a.flush_s > 0.0, "smoke drains its logs (flush_after)");
    assert_eq!(a.iops.to_bits(), b.iops.to_bits(), "deterministic IOPS");
    assert_eq!(a.mean_latency_us.to_bits(), b.mean_latency_us.to_bits());
    assert_eq!(a.per_second, b.per_second);
    assert_eq!(a.cache_hits, b.cache_hits);
    assert_eq!(a.dev.rw_ops, b.dev.rw_ops);
    assert_eq!(a.mem_peak, b.mem_peak);

    let outcome = ScenarioOutcome {
        spec: spec.clone(),
        result: a,
    };
    let text = serde_json::to_string_pretty(&outcome).expect("outcome serializes");
    let back: ScenarioOutcome = serde_json::from_str(&text).expect("outcome parses");
    assert_eq!(back.spec, spec, "outcome carries the reproducing spec");
}

/// Builds an arbitrary-but-valid spec from drawn primitives
/// (`opt_mask` bit 8 selects the HDD device class).
#[allow(clippy::too_many_arguments)]
fn spec_from(
    seed_bits: u64,
    k: usize,
    m: usize,
    clients: usize,
    trace_idx: usize,
    scheme_idx: usize,
    knob_units: u64,
    opt_mask: u16,
) -> ScenarioSpec {
    let device_hdd = opt_mask & 256 != 0;
    let duration = 1 + seed_bits % 100_000;
    let traces = TraceKind::all();
    let trace = traces[trace_idx % traces.len()];
    let names = ["fo", "fl", "pl", "plr", "parix", "cord", "tsue"];
    let name = names[scheme_idx % names.len()];
    let scheme = if name == "tsue" && knob_units > 0 {
        SchemeSpec::with_knobs(
            "tsue",
            serde::Value::Object(vec![
                ("max_units".into(), serde::Value::UInt(knob_units)),
                ("compress_deltas".into(), serde::Value::Bool(device_hdd)),
            ]),
        )
    } else {
        SchemeSpec::named(name)
    };
    let mut s = ScenarioSpec::ssd("prop", trace, k, m, clients, scheme);
    if device_hdd {
        s.device = DeviceKind::Hdd;
    }
    // Exercise present/absent combinations of every optional field.
    if opt_mask & 1 != 0 {
        s.osds = Some(k + m + (seed_bits % 7) as usize);
    }
    if opt_mask & 2 != 0 {
        s.block_kib = Some(64 << (seed_bits % 5));
    }
    if opt_mask & 4 != 0 {
        s.duration_ms = Some(duration);
    }
    if opt_mask & 8 != 0 {
        s.ops_per_client = Some(1 + seed_bits % 1000);
    }
    if opt_mask & 16 != 0 {
        s.file_mb = Some(1 + seed_bits % 64);
    }
    if opt_mask & 32 != 0 {
        s.seed = Some(seed_bits);
    }
    if opt_mask & 64 != 0 {
        s.flush_after = Some(seed_bits & 1 == 0);
    }
    if opt_mask & 128 != 0 {
        s.net = Some(tsue_repro::net::NetSpec::infiniband_40g());
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// spec → JSON → spec is the identity, for any field combination.
    #[test]
    fn scenario_spec_round_trips_through_json(
        seed_bits: u64,
        k in 1usize..16,
        m in 1usize..8,
        clients in 1usize..64,
        trace_idx in 0usize..16,
        scheme_idx in 0usize..16,
        knob_units in 0u64..8,
        opt_mask: u16,
    ) {
        let spec = spec_from(
            seed_bits, k, m, clients, trace_idx, scheme_idx, knob_units, opt_mask,
        );
        let compact = serde_json::to_string(&spec).expect("spec serializes");
        let back: ScenarioSpec = serde_json::from_str(&compact)
            .unwrap_or_else(|e| panic!("compact reparse failed: {e}\n{compact}"));
        prop_assert_eq!(&back, &spec);
        let pretty = serde_json::to_string_pretty(&spec).expect("spec serializes");
        let back: ScenarioSpec = serde_json::from_str(&pretty)
            .unwrap_or_else(|e| panic!("pretty reparse failed: {e}\n{pretty}"));
        prop_assert_eq!(&back, &spec);
    }
}

//! The cross-scheme correctness spine: every baseline must converge to the
//! exact same cluster state once its logs drain — data blocks matching the
//! arrival-ordered replay, parity matching a fresh encode — for any
//! workload. Schemes differ in cost, never in state.

use tsue_ecfs::{
    check_consistency, run_workload, Cluster, ClusterBuilder, ClusterConfig, DeviceKind,
    MakeScheme, SchemeParams, SchemeRegistry,
};
use tsue_schemes::register_baselines;
use tsue_sim::{Sim, SECOND};
use tsue_trace::WorkloadProfile;

fn small_config(k: usize, m: usize, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::ssd_testbed(k, m, 4);
    cfg.osds = (k + m + 2).max(8);
    cfg.stripe = tsue_ec::StripeConfig::new(k, m, 64 << 10);
    cfg.file_size_per_client = 1 << 20;
    cfg.materialize = true;
    cfg.record_arrivals = true;
    cfg.seed = seed;
    cfg
}

fn test_profile() -> WorkloadProfile {
    WorkloadProfile {
        name: "correctness".into(),
        update_fraction: 0.8,
        size_dist: vec![(512, 0.3), (4096, 0.4), (16384, 0.2), (40960, 0.1)],
        hot_fraction: 0.2,
        hot_access_prob: 0.7,
        skew_depth: 2,
        repeat_prob: 0.3,
        seq_run_prob: 0.15,
        align: 512,
    }
}

/// The baselines as registered for scenario files and the CLI.
fn registry() -> SchemeRegistry {
    let mut reg = SchemeRegistry::new();
    register_baselines(&mut reg);
    reg
}

/// The per-OSD constructor of the baseline registered as `name`.
fn baseline(name: &str) -> MakeScheme {
    registry()
        .instantiate(name, &SchemeParams::bare(DeviceKind::Ssd))
        .expect("a registered baseline")
}

/// The baselines the paper evaluates on SSDs (Fig. 5): all but FL.
fn ssd_baselines() -> Vec<&'static str> {
    let names = registry().names();
    names.into_iter().filter(|&n| n != "fl").collect()
}

/// Runs `ops_per_client` ops under the baseline `name`, drains, and
/// checks consistency.
fn run_and_check(name: &str, k: usize, m: usize, seed: u64, ops: u64) {
    let mut world = ClusterBuilder::from_config(small_config(k, m, seed))
        .workload(&test_profile())
        .ops_per_client(ops)
        .scheme_fn(baseline(name))
        .build();
    let mut sim: Sim<Cluster> = Sim::new();
    run_workload(&mut world, &mut sim, 3600 * SECOND);
    assert!(world.core.pending.is_empty(), "ops still in flight");
    world.flush_all(&mut sim);
    assert_eq!(world.total_scheme_backlog(), 0, "{name}: backlog");
    let (blocks, stripes) =
        check_consistency(&world).unwrap_or_else(|e| panic!("{name} inconsistent: {e}"));
    assert!(blocks > 0, "no blocks were updated");
    assert!(stripes > 0);
}

#[test]
fn fo_converges_rs42() {
    run_and_check("fo", 4, 2, 11, 60);
}

#[test]
fn fl_converges_rs42() {
    run_and_check("fl", 4, 2, 12, 60);
}

#[test]
fn pl_converges_rs42() {
    run_and_check("pl", 4, 2, 13, 60);
}

#[test]
fn plr_converges_rs42() {
    run_and_check("plr", 4, 2, 14, 60);
}

#[test]
fn parix_converges_rs42() {
    run_and_check("parix", 4, 2, 15, 60);
}

#[test]
fn cord_converges_rs42() {
    run_and_check("cord", 4, 2, 16, 60);
}

#[test]
fn all_schemes_converge_rs63() {
    for (i, name) in ssd_baselines().into_iter().enumerate() {
        run_and_check(name, 6, 3, 100 + i as u64, 40);
    }
}

#[test]
fn all_schemes_converge_rs22() {
    // Minimal stripe width exercises the m=2 corner.
    for (i, name) in ssd_baselines().into_iter().enumerate() {
        run_and_check(name, 2, 2, 200 + i as u64, 40);
    }
}

#[test]
fn schemes_differ_in_cost_not_state() {
    // Same workload/seed under two schemes: identical end state, different
    // device-op counts.
    let mk = |name: &str| {
        let mut world = ClusterBuilder::from_config(small_config(4, 2, 77))
            .workload(&test_profile())
            .ops_per_client(50)
            .scheme_fn(baseline(name))
            .build();
        let mut sim: Sim<Cluster> = Sim::new();
        run_workload(&mut world, &mut sim, 3600 * SECOND);
        world.flush_all(&mut sim);
        world
    };
    let a = mk("fo");
    let b = mk("pl");
    // Completion-driven issue order makes op ids (and therefore payload
    // bytes) scheme-dependent, so raw contents differ between runs; the
    // invariant is that each run is self-consistent.
    check_consistency(&a).unwrap();
    check_consistency(&b).unwrap();
    let sa = a.device_stats();
    let sb = b.device_stats();
    assert_ne!(
        (sa.read_ops, sa.write_ops),
        (sb.read_ops, sb.write_ops),
        "FO and PL should differ in I/O profile"
    );
}

#[test]
fn hdd_cluster_converges() {
    let mut world = ClusterBuilder::from_config(small_config(4, 2, 55))
        .device(DeviceKind::Hdd)
        .workload(&test_profile())
        .ops_per_client(30)
        .scheme_fn(baseline("pl"))
        .build();
    let mut sim: Sim<Cluster> = Sim::new();
    run_workload(&mut world, &mut sim, 3600 * SECOND);
    world.flush_all(&mut sim);
    check_consistency(&world).unwrap();
}

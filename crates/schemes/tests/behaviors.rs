//! Behavioral tests: each baseline must exhibit the specific pathology or
//! strength the paper attributes to it, not just converge.

use tsue_ecfs::{run_workload, Cluster, ClusterBuilder, ClusterConfig, UpdateScheme};
use tsue_schemes::{Cord, Fl, Fo, Parix, Pl, Plr};
use tsue_sim::{Sim, MILLISECOND, SECOND};
use tsue_trace::WorkloadProfile;

fn cluster(seed: u64, clients: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::ssd_testbed(4, 2, clients);
    cfg.osds = 8;
    cfg.stripe = tsue_ec::StripeConfig::new(4, 2, 256 << 10);
    cfg.file_size_per_client = 4 << 20;
    cfg.seed = seed;
    cfg
}

fn hot_profile() -> WorkloadProfile {
    WorkloadProfile {
        name: "hot".into(),
        update_fraction: 0.9,
        size_dist: vec![(4096, 0.8), (16384, 0.2)],
        hot_fraction: 0.05,
        hot_access_prob: 0.9,
        skew_depth: 3,
        repeat_prob: 0.5,
        seq_run_prob: 0.05,
        align: 4096,
    }
}

fn cold_profile() -> WorkloadProfile {
    WorkloadProfile {
        name: "cold".into(),
        update_fraction: 0.9,
        size_dist: vec![(4096, 0.8), (16384, 0.2)],
        hot_fraction: 0.9,
        hot_access_prob: 0.1,
        skew_depth: 0,
        repeat_prob: 0.0,
        seq_run_prob: 0.0,
        align: 4096,
    }
}

fn run(
    cfg: ClusterConfig,
    profile: &WorkloadProfile,
    make: fn() -> Box<dyn UpdateScheme>,
    ms: u64,
) -> Cluster {
    let mut world = ClusterBuilder::from_config(cfg)
        .workload(profile)
        .scheme_fn(move |_| make())
        .build();
    let mut sim: Sim<Cluster> = Sim::new();
    run_workload(&mut world, &mut sim, ms * MILLISECOND);
    world
}

/// PL defers recycling: during a run its parity logs accumulate a backlog
/// proportional to the updates it absorbed, while FO (fully synchronous)
/// holds none.
#[test]
fn pl_accumulates_backlog_fo_does_not() {
    let pl = run(cluster(1, 8), &hot_profile(), || Box::new(Pl::new()), 500);
    let fo = run(cluster(1, 8), &hot_profile(), || Box::new(Fo::new()), 500);
    assert_eq!(fo.total_scheme_backlog(), 0, "FO is synchronous");
    assert!(
        pl.total_scheme_backlog() > 100,
        "PL must be sitting on unrecycled parity deltas, got {}",
        pl.total_scheme_backlog()
    );
}

/// PL's recycle threshold bounds its backlog: a tiny threshold forces
/// continual recycling.
#[test]
fn pl_threshold_bounds_backlog() {
    let mut world = ClusterBuilder::from_config(cluster(2, 8))
        .workload(&hot_profile())
        .scheme_fn(|_| {
            let mut pl = Pl::new();
            pl.threshold = 256 << 10; // recycle every 256 KiB
            Box::new(pl)
        })
        .build();
    let mut sim: Sim<Cluster> = Sim::new();
    run_workload(&mut world, &mut sim, SECOND / 2);
    let lazy = run(cluster(2, 8), &hot_profile(), || Box::new(Pl::new()), 500);
    assert!(
        world.total_scheme_backlog() < lazy.total_scheme_backlog() / 2,
        "tight threshold {} should hold far less than lazy {}",
        world.total_scheme_backlog(),
        lazy.total_scheme_backlog()
    );
}

/// PLR turns parity-delta appends into write-penalty (overwrite) traffic —
/// the highest overwrite count of all schemes on the same workload.
#[test]
fn plr_pays_the_write_penalty() {
    let plr = run(cluster(3, 8), &hot_profile(), || Box::new(Plr::new()), 500);
    let pl = run(cluster(3, 8), &hot_profile(), || Box::new(Pl::new()), 500);
    let plr_ow =
        plr.device_stats().overwrite_ops as f64 / plr.core.metrics.updates_completed.max(1) as f64;
    let pl_ow =
        pl.device_stats().overwrite_ops as f64 / pl.core.metrics.updates_completed.max(1) as f64;
    assert!(
        plr_ow > pl_ow * 1.5,
        "PLR per-update overwrites ({plr_ow:.2}) must far exceed PL's ({pl_ow:.2})"
    );
}

/// PARIX thrives on temporal locality: cold (no-repeat) workloads pay the
/// first-touch protocol — more network traffic per completed update and
/// lower throughput than hot workloads.
#[test]
fn parix_depends_on_temporal_locality() {
    let hot = run(
        cluster(4, 8),
        &hot_profile(),
        || Box::new(Parix::new()),
        500,
    );
    let cold = run(
        cluster(4, 8),
        &cold_profile(),
        || Box::new(Parix::new()),
        500,
    );
    let hot_net_per_op =
        hot.core.net.total_payload() as f64 / hot.core.metrics.updates_completed.max(1) as f64;
    let cold_net_per_op =
        cold.core.net.total_payload() as f64 / cold.core.metrics.updates_completed.max(1) as f64;
    assert!(
        cold_net_per_op > hot_net_per_op * 1.2,
        "cold per-op traffic ({cold_net_per_op:.0} B) should exceed hot ({hot_net_per_op:.0} B)"
    );
}

/// PARIX's speculation budget forces the first-touch protocol to recur:
/// a tiny budget behaves like a cold workload even under heavy locality.
#[test]
fn parix_speculation_budget_recurs() {
    let mk = |budget: u64| {
        let mut world = ClusterBuilder::from_config(cluster(5, 8))
            .workload(&hot_profile())
            .scheme_fn(move |_| {
                let mut p = Parix::new();
                p.speculation_budget = budget;
                Box::new(p)
            })
            .build();
        let mut sim: Sim<Cluster> = Sim::new();
        run_workload(&mut world, &mut sim, SECOND / 2);
        world.core.net.total_payload() as f64 / world.core.metrics.updates_completed.max(1) as f64
    };
    let tiny = mk(64 << 10);
    let large = mk(1 << 30);
    assert!(
        tiny > large,
        "tiny budget per-op traffic ({tiny:.0}) must exceed large ({large:.0})"
    );
}

/// CoRD's fixed collector buffer is a throughput bottleneck: shrinking it
/// hurts; growing it helps.
#[test]
fn cord_buffer_size_gates_throughput() {
    let mk = |capacity: u64| {
        let mut world = ClusterBuilder::from_config(cluster(6, 16))
            .workload(&hot_profile())
            .scheme_fn(move |_| {
                let mut c = Cord::new();
                c.capacity = capacity;
                Box::new(c)
            })
            .build();
        let mut sim: Sim<Cluster> = Sim::new();
        run_workload(&mut world, &mut sim, SECOND / 2);
        world.core.metrics.ops_completed
    };
    let small = mk(64 << 10);
    let large = mk(16 << 20);
    assert!(
        large > small,
        "larger collector buffer ({large}) must outperform tiny one ({small})"
    );
}

/// CoRD sends one delta to the collector instead of m to the parity
/// owners: its network traffic sits well below PL's on the same workload.
#[test]
fn cord_cuts_network_traffic() {
    let cord = run(cluster(7, 8), &hot_profile(), || Box::new(Cord::new()), 500);
    let pl = run(cluster(7, 8), &hot_profile(), || Box::new(Pl::new()), 500);
    let cord_net =
        cord.core.net.total_payload() as f64 / cord.core.metrics.updates_completed.max(1) as f64;
    let pl_net =
        pl.core.net.total_payload() as f64 / pl.core.metrics.updates_completed.max(1) as f64;
    assert!(
        cord_net < pl_net * 0.8,
        "CoRD per-op traffic ({cord_net:.0} B) must undercut PL ({pl_net:.0} B)"
    );
}

/// FL acks after appends only — its update latency beats FO's RMW path —
/// but it pays with log state that reads must consult.
#[test]
fn fl_trades_latency_for_log_state() {
    let fl = run(cluster(8, 8), &hot_profile(), || Box::new(Fl::new()), 500);
    let fo = run(cluster(8, 8), &hot_profile(), || Box::new(Fo::new()), 500);
    assert!(
        fl.core.metrics.mean_latency() < fo.core.metrics.mean_latency(),
        "FL append path ({:.0} ns) must beat FO RMW path ({:.0} ns)",
        fl.core.metrics.mean_latency(),
        fo.core.metrics.mean_latency()
    );
    assert!(
        fl.core.metrics.read_cache_hits > 0,
        "FL must serve some reads from its log"
    );
    assert!(fl.total_scheme_backlog() > 0, "FL defers merge work");
}

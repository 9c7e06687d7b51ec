//! Cross-crate integration tests: the full stack from GF arithmetic up to
//! cluster workloads, exercised through the umbrella crate.

use tsue_repro::core::{Tsue, TsueConfig};
use tsue_repro::ec::RsCode;
use tsue_repro::ecfs::{
    check_consistency, run_recovery, run_workload, Cluster, ClusterBuilder, ClusterConfig,
    DeviceKind,
};
use tsue_repro::schemes::{Cord, Fo, Pl};
use tsue_repro::sim::{Sim, SECOND};
use tsue_repro::trace::{ali_cloud, ten_cloud, TraceGen, TraceStats, WorkloadProfile};

fn correctness_cluster(k: usize, m: usize, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::ssd_testbed(k, m, 3);
    cfg.osds = (k + m + 2).max(8);
    cfg.stripe = tsue_repro::ec::StripeConfig::new(k, m, 64 << 10);
    cfg.file_size_per_client = 1 << 20;
    cfg.materialize = true;
    cfg.record_arrivals = true;
    cfg.seed = seed;
    cfg
}

fn fine_profile() -> WorkloadProfile {
    WorkloadProfile {
        name: "integration".into(),
        update_fraction: 0.75,
        size_dist: vec![(512, 0.25), (4096, 0.45), (16384, 0.2), (32768, 0.1)],
        hot_fraction: 0.15,
        hot_access_prob: 0.75,
        skew_depth: 2,
        repeat_prob: 0.25,
        seq_run_prob: 0.1,
        align: 512,
    }
}

/// The whole paper pipeline in one test: trace → cluster → TSUE →
/// drain → verify → fail → recover → verify.
#[test]
fn full_lifecycle_under_tsue() {
    let mut world = ClusterBuilder::from_config(correctness_cluster(4, 2, 7))
        .workload(&fine_profile())
        .ops_per_client(80)
        .scheme_fn(|_| {
            let mut c = TsueConfig::ssd_default();
            c.unit_size = 256 << 10;
            c.seal_interval = SECOND / 2;
            Box::new(Tsue::new(c))
        })
        .build();
    let mut sim: Sim<Cluster> = Sim::new();
    run_workload(&mut world, &mut sim, 3600 * SECOND);
    world.flush_all(&mut sim);
    let (blocks, stripes) = check_consistency(&world).expect("consistent after drain");
    assert!(blocks > 0 && stripes > 0);

    // Fail a node hosting blocks; recovery must restore byte-identical
    // content (guaranteed by RS reconstruction over verified stripes).
    let report = run_recovery(&mut world, &mut sim, 2);
    assert!(report.blocks_rebuilt > 0, "node 2 hosted blocks");
    assert!(report.bandwidth() > 0.0);
    check_consistency(&world).expect("consistent after recovery");
}

/// Determinism: identical seeds give bit-identical metrics; different
/// seeds differ.
#[test]
fn simulation_is_deterministic() {
    let run = |seed: u64| {
        let mut world = ClusterBuilder::ssd(4, 2, 4)
            .osds(8)
            .file_size_per_client(4 << 20)
            .seed(seed)
            .workload(&ten_cloud())
            .scheme_fn(|_| Box::new(Pl::new()))
            .build();
        let mut sim: Sim<Cluster> = Sim::new();
        run_workload(&mut world, &mut sim, SECOND);
        (
            world.core.metrics.ops_completed,
            world.core.metrics.total_latency(),
            world.device_stats().total_ops(),
            world.core.net.total_wire(),
        )
    };
    let a = run(99);
    let b = run(99);
    assert_eq!(a, b, "same seed must reproduce exactly");
    let c = run(100);
    assert_ne!(a, c, "different seed must differ");
}

/// Every scheme and TSUE settle to zero backlog and a consistent state on
/// a mixed read/write workload with sub-4K requests (MSR-like).
#[test]
fn all_schemes_and_tsue_converge_msr_style() {
    type SchemeFactory = Box<dyn Fn() -> Box<dyn tsue_repro::ecfs::UpdateScheme>>;
    let schemes: Vec<(String, SchemeFactory)> = vec![
        ("FO".into(), Box::new(|| Box::new(Fo::new()))),
        ("PL".into(), Box::new(|| Box::new(Pl::new()))),
        ("CoRD".into(), Box::new(|| Box::new(Cord::new()))),
        (
            "TSUE".into(),
            Box::new(|| {
                let mut c = TsueConfig::ssd_default();
                c.unit_size = 128 << 10;
                c.seal_interval = SECOND / 2;
                Box::new(Tsue::new(c))
            }),
        ),
    ];
    for (name, make) in schemes {
        let mut world = ClusterBuilder::from_config(correctness_cluster(3, 2, 31))
            .workload(&tsue_repro::trace::msr_volume(
                tsue_repro::trace::MsrVolume::Hm0,
            ))
            .ops_per_client(60)
            .scheme_fn(move |_| make())
            .build();
        let mut sim: Sim<Cluster> = Sim::new();
        run_workload(&mut world, &mut sim, 3600 * SECOND);
        world.flush_all(&mut sim);
        assert_eq!(world.total_scheme_backlog(), 0, "{name} backlog");
        check_consistency(&world).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// HDD cluster with TSUE's HDD profile (3-copy data log, no delta log).
#[test]
fn hdd_tsue_lifecycle() {
    let mut world = ClusterBuilder::from_config(correctness_cluster(4, 2, 44))
        .device(DeviceKind::Hdd)
        .workload(&fine_profile())
        .ops_per_client(40)
        .scheme_fn(|_| {
            let mut c = TsueConfig::hdd_default();
            c.unit_size = 128 << 10;
            c.seal_interval = SECOND / 2;
            Box::new(Tsue::new(c))
        })
        .build();
    let mut sim: Sim<Cluster> = Sim::new();
    run_workload(&mut world, &mut sim, 3600 * SECOND);
    world.flush_all(&mut sim);
    check_consistency(&world).expect("HDD TSUE consistent");
}

/// The codec reconstructs data a failed cluster node would lose, matching
/// exactly what the recovery engine produces.
#[test]
fn codec_and_cluster_agree_on_reconstruction() {
    let rs = RsCode::new(4, 2).unwrap();
    let data: Vec<Vec<u8>> = (0..4)
        .map(|i| (0..256).map(|j| (i * 37 + j) as u8).collect())
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
    let mut parity = vec![Vec::new(); 2];
    rs.encode_into(&refs, &mut parity).unwrap();
    // Lose shards 1 and 4 and rebuild each from the four survivors.
    let survivors: Vec<(usize, &[u8])> = [(0, &data[0]), (2, &data[2]), (3, &data[3])]
        .into_iter()
        .chain([(5, &parity[1])])
        .map(|(r, v)| (r, v.as_slice()))
        .collect();
    let mut out = vec![0u8; 256];
    rs.reconstruct_one(&survivors, 1, &mut out).unwrap();
    assert_eq!(out, data[1]);
    rs.reconstruct_one(&survivors, 4, &mut out).unwrap();
    assert_eq!(out, parity[0]);
}

/// Workload generators stay calibrated when consumed through the umbrella
/// crate (guards against re-export drift).
#[test]
fn trace_calibration_via_umbrella() {
    let vol = 128 << 20;
    let mut g = TraceGen::new(ali_cloud(), vol, 5);
    let stats = TraceStats::compute(&g.take_ops(20_000), vol);
    assert!((stats.write_fraction - 0.75).abs() < 0.03);
    assert!(stats.top_decile_share > 0.3);
}

/// Read path: cache hits must never exceed total reads, and TSUE should
/// serve some reads from its data log on a hot workload.
#[test]
fn tsue_read_cache_serves_hot_reads() {
    let mut world = ClusterBuilder::ssd(4, 2, 4)
        .osds(8)
        .file_size_per_client(4 << 20)
        .workload(&ten_cloud())
        .scheme_fn(|_| Box::new(Tsue::ssd()))
        .build();
    let mut sim: Sim<Cluster> = Sim::new();
    run_workload(&mut world, &mut sim, SECOND);
    let m = &world.core.metrics;
    assert!(m.reads_completed > 0);
    assert!(m.read_cache_hits <= m.reads_completed);
    assert!(
        m.read_cache_hits > 0,
        "hot Ten-Cloud reads should hit the data log cache"
    );
}

/// Reads keep working after a node failure via degraded (reconstructing)
/// reads, at a visible latency premium.
#[test]
fn degraded_reads_survive_node_failure() {
    // Read-only workload.
    let mut profile = fine_profile();
    profile.update_fraction = 0.0;
    let mut world = ClusterBuilder::ssd(4, 2, 4)
        .osds(8)
        .file_size_per_client(4 << 20)
        .workload(&profile)
        .ops_per_client(50)
        .scheme_fn(|_| Box::new(Fo::new()))
        .build();
    tsue_repro::ecfs::fail_node(&mut world, 1);
    let mut sim: Sim<Cluster> = Sim::new();
    run_workload(&mut world, &mut sim, 3600 * SECOND);
    let m = &world.core.metrics;
    assert_eq!(
        m.ops_completed, 200,
        "all reads must complete despite the failure"
    );
    assert!(
        m.degraded_reads > 0,
        "some extents lived on the dead node and required reconstruction"
    );
}

//! TSUE end-state correctness: with the full three-layer pipeline — and at
//! every Fig. 7 ablation level — the cluster must converge to exactly the
//! state the arrival-ordered update stream dictates, with parity equal to
//! a fresh encode, once the logs drain.

use tsue_core::{Tsue, TsueConfig};
use tsue_ecfs::scheme::{deliver_msg, DeltaKind};
use tsue_ecfs::{
    check_consistency, deliver_update, run_workload, BlockId, Chunk, Cluster, ClusterBuilder,
    ClusterConfig, DeviceKind, PowerLossReport, SchemeMsg, UpdateReq,
};
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
        name: "tsue-correctness".into(),
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

fn run_tsue(cfg_fn: impl Fn() -> TsueConfig + 'static, k: usize, m: usize, seed: u64, ops: u64) {
    // Shrink units so seals/recycles actually happen within a short test.
    let mut world = ClusterBuilder::from_config(small_config(k, m, seed))
        .workload(&test_profile())
        .ops_per_client(ops)
        .scheme_fn(move |_| {
            let mut c = cfg_fn();
            c.unit_size = 256 << 10;
            c.seal_interval = SECOND / 2;
            Box::new(Tsue::new(c))
        })
        .build();
    let mut sim: Sim<Cluster> = Sim::new();
    run_workload(&mut world, &mut sim, 3600 * SECOND);
    assert!(world.core.pending.is_empty(), "ops still in flight");
    world.flush_all(&mut sim);
    assert_eq!(world.total_scheme_backlog(), 0, "TSUE backlog after flush");
    let (blocks, stripes) =
        check_consistency(&world).unwrap_or_else(|e| panic!("TSUE inconsistent: {e}"));
    assert!(blocks > 0 && stripes > 0);
}

#[test]
fn tsue_converges_rs42() {
    run_tsue(TsueConfig::ssd_default, 4, 2, 21, 80);
}

#[test]
fn tsue_converges_rs63() {
    run_tsue(TsueConfig::ssd_default, 6, 3, 22, 60);
}

#[test]
fn tsue_converges_rs22_minimum_m() {
    run_tsue(TsueConfig::ssd_default, 2, 2, 23, 60);
}

#[test]
fn tsue_hdd_mode_converges() {
    // 3-copy data log, no delta log.
    let mut world = ClusterBuilder::from_config(small_config(4, 2, 24))
        .device(DeviceKind::Hdd)
        .workload(&test_profile())
        .ops_per_client(40)
        .scheme_fn(|_| {
            let mut c = TsueConfig::hdd_default();
            c.unit_size = 256 << 10;
            c.seal_interval = SECOND / 2;
            Box::new(Tsue::new(c))
        })
        .build();
    let mut sim: Sim<Cluster> = Sim::new();
    run_workload(&mut world, &mut sim, 3600 * SECOND);
    world.flush_all(&mut sim);
    check_consistency(&world).unwrap();
}

#[test]
fn every_breakdown_level_converges() {
    // Fig. 7's Baseline and O1–O5 must all be *correct*; they differ only
    // in performance.
    for level in 0..=5 {
        run_tsue(
            move || TsueConfig::breakdown(level),
            4,
            2,
            30 + level as u64,
            50,
        );
    }
}

#[test]
fn residency_stats_populate() {
    let mut world = ClusterBuilder::from_config(small_config(4, 2, 40))
        .workload(&test_profile())
        .ops_per_client(60)
        .scheme_fn(|_| {
            let mut c = TsueConfig::ssd_default();
            c.unit_size = 128 << 10;
            c.seal_interval = SECOND / 4;
            Box::new(Tsue::new(c))
        })
        .build();
    let mut sim: Sim<Cluster> = Sim::new();
    run_workload(&mut world, &mut sim, 3600 * SECOND);
    world.flush_all(&mut sim);
    let stats = tsue_core::tsue::harvest_residency(&world);
    assert!(stats.layers[0].append.count() > 0, "data appends recorded");
    assert!(stats.layers[0].buffer.count() > 0, "data units recycled");
    assert!(
        stats.layers[2].recycle.count() > 0,
        "parity units recycled: {:?}",
        stats
    );
}

/// Delivers one record to the scheme that logs it — so it is that OSD's
/// newest append — cuts the power there, and returns the restart's report
/// with the parities the MDS marked dirty. `layer` picks the log: 0 the
/// DataLog (an update at the block's owner), 1 the DeltaLog (a data delta
/// at the first parity owner), 2 the ParityLog of the stripe's last
/// parity.
fn torn_tail(m: usize, cfg: TsueConfig, layer: usize) -> (PowerLossReport, Vec<(u64, usize)>) {
    let k = 4;
    let mut world = ClusterBuilder::from_config(small_config(k, m, 50))
        .record_arrivals(false)
        .scheme_fn(move |_| Box::new(Tsue::new(cfg.clone())))
        .build();
    let mut sim: Sim<Cluster> = Sim::new();
    // A block of the third file, so the global stripe is not the
    // file-local one.
    let block = BlockId {
        file: 2,
        stripe: 1,
        role: 1,
    };
    let gstripe = world.core.global_stripe(block.file, block.stripe);
    assert_ne!(gstripe, block.stripe);
    let data = Chunk::real(vec![0xA5u8; 4096]);
    let osd = match layer {
        0 => {
            let osd = world.core.owner_of(gstripe, block.role);
            let req = UpdateReq {
                op_id: 1,
                ext: 0,
                block,
                off: 8192,
                data,
            };
            deliver_update(&mut world, &mut sim, osd, req);
            osd
        }
        _ => {
            let (kind, parity_index) = if layer == 1 {
                (DeltaKind::DataDelta, 0)
            } else {
                (DeltaKind::ParityDelta, m - 1)
            };
            let osd = world.core.owner_of(gstripe, k + parity_index);
            let msg = SchemeMsg::DeltaForward {
                from: world.core.owner_of(gstripe, block.role),
                block,
                off: 8192,
                data,
                kind,
                parity_index,
                tag: if layer == 1 { 2 } else { 0 },
            };
            deliver_msg(&mut world, &mut sim, osd, msg);
            osd
        }
    };
    let report = world.power_loss(&mut sim, osd, 11);
    let dirty = world.core.mds.dirty_parity_entries();
    if layer == 0 {
        // Replayed or reverted, the overlay never serves a torn record:
        // it holds the new bytes, or the store's (zero) bytes again.
        let mut buf = [0xFFu8; 4096];
        let scheme = &world.schemes[osd];
        scheme.patch_unmerged(block, 8192, 4096, &mut buf);
        let want = if report.torn_discarded == 1 { 0 } else { 0xA5 };
        assert!(buf.iter().all(|&b| b == want), "overlay after restart");
    }
    // The tail is consumed: a second cut finds nothing in flight.
    let again = world.power_loss(&mut sim, osd, 12);
    assert_eq!(again, PowerLossReport::default());
    assert_eq!(world.core.mds.dirty_parity_entries(), dirty);
    (report, dirty)
}

#[test]
fn power_loss_classifies_each_tail_kind() {
    let report = |torn_replayed, torn_discarded| PowerLossReport {
        torn_detected: 1,
        torn_replayed,
        torn_discarded,
    };
    let gstripe = 2 * 4 + 1; // third file of four-stripe files, stripe 1
    let ssd = TsueConfig::ssd_default;
    // DataLog tail: replayed from a replica peer; without one, discarded
    // and the overlay reverted.
    assert_eq!(torn_tail(2, ssd(), 0), (report(1, 0), vec![]));
    let single = TsueConfig {
        data_replicas: 1,
        ..ssd()
    };
    assert_eq!(torn_tail(2, single, 0), (report(0, 1), vec![]));
    // DeltaLog tail: re-fetched from the second parity owner's copy; with
    // m = 1 there is none and the stripe's parity goes stale.
    assert_eq!(torn_tail(2, ssd(), 1), (report(1, 0), vec![]));
    assert_eq!(torn_tail(1, ssd(), 1), (report(0, 1), vec![(gstripe, 4)]));
    // ParityLog tail: never replicated — exactly that parity goes stale.
    assert_eq!(torn_tail(2, ssd(), 2), (report(0, 1), vec![(gstripe, 5)]));
}

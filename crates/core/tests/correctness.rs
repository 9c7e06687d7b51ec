//! TSUE end-state correctness: with the full three-layer pipeline — and at
//! every Fig. 7 ablation level — the cluster must converge to exactly the
//! state the arrival-ordered update stream dictates, with parity equal to
//! a fresh encode, once the logs drain.

use tsue_core::{Tsue, TsueConfig};
use tsue_ecfs::scheme::{deliver_msg, DeltaKind};
use tsue_ecfs::{
    check_consistency, deliver_update, fail_node, fail_rack, heal_node, run_workload,
    start_recovery, start_resync, BlockId, Chunk, Cluster, ClusterBuilder, ClusterConfig,
    DeviceKind, PhaseStats, PlacementKind, PowerLossReport, SchemeMsg, UpdateReq,
};
use tsue_obs::LogLayer;
use tsue_sim::{Sim, MILLISECOND, SECOND};
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
    let obs = &world.core.metrics.obs;
    let data = &obs.residence[LogLayer::Data as usize];
    assert!(data.append.count() > 0, "data appends recorded");
    assert!(data.buffer.count() > 0, "data units recycled");
    assert!(
        obs.residence[LogLayer::Parity as usize].recycle.count() > 0,
        "parity units recycled: {:?}",
        obs.report().residence
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
        let Cluster { core, schemes } = &mut world;
        schemes[osd].read_overlay(core, osd, block, 8192, 4096, Some(&mut buf));
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

/// Bytes of one append in the rebuild-replay test, and a DataLog unit
/// size that seals on the eighth (each append also takes a record header).
const APPEND: u64 = 2048;
const REPLAY_UNIT: u64 = 16 << 10;

/// The first data block of the first stripe; the OSD hosting it is the
/// home the rebuild-replay test kills.
const A: BlockId = BlockId {
    file: 0,
    stripe: 0,
    role: 0,
};

/// The content of the test's `i`-th append.
fn payload(i: u64) -> Chunk {
    Chunk::real(vec![0x40 + i as u8; APPEND as usize])
}

/// Delivers the `i`-th append, of `block` at `off`, to the block's owner.
fn append(world: &mut Cluster, sim: &mut Sim<Cluster>, i: u64, block: BlockId, off: u64) {
    let gstripe = world.core.global_stripe(block.file, block.stripe);
    let osd = world.core.owner_of(gstripe, block.role);
    let req = UpdateReq {
        op_id: i + 1,
        ext: 0,
        block,
        off,
        data: payload(i),
    };
    deliver_update(world, sim, osd, req);
}

/// A TSUE cluster whose OSD hosting [`A`] has one DataLog pool recycled
/// and another holding an open unit: one append to `b` opens a unit in
/// `b`'s pool, then eight appends to `A` seal its unit after seven and
/// leave the eighth in a fresh one, and the sealed unit gets time to
/// recycle. Returns `None` when `b` turns out to share `A`'s pool.
fn replay_setup(replicas: usize, b: BlockId) -> Option<(Cluster, Sim<Cluster>, usize)> {
    let cfg = TsueConfig {
        pools: 2,
        unit_size: REPLAY_UNIT,
        // No unit seals on a timer within the test.
        seal_interval: 100 * SECOND,
        data_replicas: replicas,
        ..TsueConfig::ssd_default()
    };
    let mut world = ClusterBuilder::from_config(small_config(4, 2, 60))
        .record_arrivals(false)
        .scheme_fn(move |_| Box::new(Tsue::new(cfg.clone())))
        .build();
    let mut sim: Sim<Cluster> = Sim::new();
    append(&mut world, &mut sim, 0, b, 0);
    for i in 1..=8 {
        append(&mut world, &mut sim, i, A, (i - 1) * 2 * APPEND);
    }
    sim.run_until(&mut world, 200 * MILLISECOND);
    let home = world.core.owner_of(world.core.global_stripe(0, 0), 0);
    if replicas == 1 {
        assert!(owed(&world, home, A).is_empty(), "no peer copy");
        assert!(owed(&world, home, b).is_empty(), "no peer copy");
        return Some((world, sim, home));
    }
    if owed(&world, home, b).is_empty() {
        return None;
    }
    assert_eq!(owed(&world, home, b), [(0, APPEND)], "b's unit open");
    assert_eq!(
        owed(&world, home, A),
        [(14 * APPEND, APPEND)],
        "A's sealed unit recycled"
    );
    Some((world, sim, home))
}

/// `(offset, length)` of each record `home`'s DataLog would owe `block`
/// were the home to die now.
fn owed(world: &Cluster, home: usize, block: BlockId) -> Vec<(u64, u64)> {
    world.schemes[home]
        .unmerged_extents(&world.core.mds, block, None)
        .iter()
        .map(|e| (e.off, e.len))
        .collect()
}

/// Runs [`replay_setup`] with a `b` in the other pool, kills the home,
/// drains the live logs (the fault engine's gate) and rebuilds the home's
/// blocks online. Returns the phase's replayed replica bytes and the
/// rebuilt copies of `A` and `b` (their first 32 KiB).
fn kill_and_rebuild(replicas: usize) -> (u64, Vec<u8>, Vec<u8>) {
    let probe = ClusterBuilder::from_config(small_config(4, 2, 60))
        .scheme_fn(|_| Box::new(Tsue::ssd()))
        .build();
    let home = probe.core.owner_of(probe.core.global_stripe(0, 0), 0);
    let b = probe.core.osds[home]
        .block_ids()
        .filter(|b| b.role < 4 && *b != A)
        .find(|&b| replay_setup(2, b).is_some())
        .expect("a data block of the home in the other pool");
    let (mut world, mut sim, home) = replay_setup(replicas, b).expect("same pools");
    let stats = kill_and_recover(&mut world, &mut sim, home);
    let total = world.core.recovery.replica_replayed_bytes;
    assert_eq!(total, stats.replica_replayed_bytes, "one phase");
    let (a, b) = (rebuilt(&world, home, A), rebuilt(&world, home, b));
    (stats.replica_replayed_bytes, a, b)
}

/// Kills `home`, drains the live logs (the fault engine's gate) and
/// rebuilds the home's blocks online; returns the phase's counters.
fn kill_and_recover(world: &mut Cluster, sim: &mut Sim<Cluster>, home: usize) -> PhaseStats {
    fail_node(world, home);
    world.flush_all(sim);
    let phase = start_recovery(world, sim, &[home]);
    sim.run_while(world, |w| w.core.recovery.phase_stats(phase).pending() > 0);
    let stats = world.core.recovery.phase_stats(phase);
    assert!(stats.rebuilt > 0 && stats.rebuilt == stats.enqueued);
    stats
}

/// The first 32 KiB of `block`'s copy rebuilt away from `home`.
fn rebuilt(world: &Cluster, home: usize, block: BlockId) -> Vec<u8> {
    let gstripe = world.core.global_stripe(block.file, block.stripe);
    let owner = world.core.owner_of(gstripe, block.role);
    assert_ne!(owner, home, "rebuilt elsewhere");
    world.core.osds[owner]
        .peek_block_range(block, 0, 16 * APPEND)
        .expect("materialized")
        .as_slice()
        .to_vec()
}

/// True when `block` holds the `i`-th append at `at`.
fn holds(block: &[u8], at: u64, i: u64) -> bool {
    let at = at as usize;
    block[at..at + APPEND as usize] == *payload(i).bytes.expect("real bytes")
}

#[test]
fn rebuild_replays_exactly_what_the_dead_homes_log_owes() {
    for replicas in [2, 3] {
        let (replayed, a, b) = kill_and_rebuild(replicas);
        // b's open append and A's eighth — not A's recycled seven, and
        // each append once however many peers hold a copy.
        assert_eq!(replayed, 2 * APPEND, "data_replicas {replicas}");
        for i in 1..=8 {
            assert!(holds(&a, (i - 1) * 2 * APPEND, i), "A's append {i} lost");
        }
        assert!(holds(&b, 0, 0), "b's append lost");
    }
    let (replayed, _, _) = kill_and_rebuild(1);
    assert_eq!(replayed, 0, "no peer copy: nothing to replay");
}

/// A TSUE cluster for the peer-failure replay tests: `osds` OSDs in
/// `racks` racks (rack-aware placement when more than one), one DataLog
/// pool of [`REPLAY_UNIT`] units, no timer seals.
fn replica_cluster(replicas: usize, k: usize, racks: usize) -> Cluster {
    let mut cluster = small_config(k, 2, 61);
    if racks > 1 {
        cluster.topology.racks = racks;
        cluster.placement = PlacementKind::RackAware;
    }
    let cfg = TsueConfig {
        pools: 1,
        unit_size: REPLAY_UNIT,
        seal_interval: 100 * SECOND,
        data_replicas: replicas,
        ..TsueConfig::ssd_default()
    };
    ClusterBuilder::from_config(cluster)
        .record_arrivals(false)
        .scheme_fn(move |_| Box::new(Tsue::new(cfg.clone())))
        .build()
}

/// Appends that no surviving node holds are not replayed. The rack
/// holding every DataLog copy of [`A`]'s home dies with the home's first
/// appends still on the wire to it: they bounce, and the home acks them
/// with its own copy alone. Its next appends go to live peers instead,
/// so they survive the home's death; the first ones died with it — also
/// when that rack has rejoined by then, since a failed node kept nothing
/// for its peers.
#[test]
fn rebuild_replays_no_append_whose_copies_all_died() {
    for (replicas, rejoin) in [(2, false), (3, false), (2, true)] {
        let mut world = replica_cluster(replicas, 2, 4);
        let mut sim: Sim<Cluster> = Sim::new();
        let home = world.core.owner_of(world.core.global_stripe(0, 0), 0);
        let rack = |w: &Cluster, osd: usize| w.core.net.rack_of(w.core.osds[osd].node);
        // Two nodes a rack: the home's first peers fill the next rack.
        let peer_rack = (1..8)
            .map(|r| (home + r) % 8)
            .map(|p| rack(&world, p))
            .find(|&r| r != rack(&world, home))
            .expect("another rack");
        for i in 1..=4 {
            append(&mut world, &mut sim, i, A, (i - 1) * 2 * APPEND);
        }
        let dead = fail_rack(&mut world, peer_rack);
        assert_eq!(dead.len(), 2);
        sim.run_until(&mut world, 100 * MILLISECOND);
        assert_eq!(
            owed(&world, home, A),
            [],
            "no live copy of the first appends"
        );
        for i in 5..=6 {
            append(&mut world, &mut sim, i, A, (i - 1) * 2 * APPEND);
        }
        assert_eq!(
            owed(&world, home, A),
            [(8 * APPEND, APPEND), (10 * APPEND, APPEND)],
            "the later appends have live copies"
        );
        if rejoin {
            for &osd in &dead {
                heal_node(&mut world, &mut sim, osd);
            }
        }
        // The home dies before its sealed first unit finishes recycling.
        let stats = kill_and_recover(&mut world, &mut sim, home);
        assert_eq!(
            stats.replica_replayed_bytes,
            2 * APPEND,
            "data_replicas {replicas}, rejoin {rejoin}"
        );
        let a = rebuilt(&world, home, A);
        for i in 1..=4 {
            let at = ((i - 1) * 2 * APPEND) as usize;
            assert!(
                a[at..at + APPEND as usize].iter().all(|&b| b == 0),
                "append {i} had no surviving copy"
            );
        }
        assert!(holds(&a, 8 * APPEND, 5) && holds(&a, 10 * APPEND, 6));
    }
}

/// A rebuild replays a dead home's log once. The home dies with a
/// DataLog unit mid-recycle, so that unit never finishes; it is rebuilt
/// elsewhere, rejoins, takes its blocks back and a newer write to [`A`]
/// merges. When it dies again, the stuck unit's older appends must not
/// be replayed over that write.
#[test]
fn a_rejoined_home_replays_nothing_twice() {
    let mut world = replica_cluster(2, 4, 1);
    let mut sim: Sim<Cluster> = Sim::new();
    let home = world.core.owner_of(world.core.global_stripe(0, 0), 0);
    // Seven appends fill a unit, the eighth seals it and opens the next.
    for i in 1..=8 {
        append(&mut world, &mut sim, i, A, (i - 1) * 2 * APPEND);
    }
    let first = kill_and_recover(&mut world, &mut sim, home);
    assert_eq!(first.replica_replayed_bytes, 8 * APPEND);
    // The re-sync runs behind a drain gate, as in the fault engine.
    world.flush_all(&mut sim);
    heal_node(&mut world, &mut sim, home);
    let resync = start_resync(&mut world, &mut sim, home);
    assert!(resync.blocks_copied_back > 0);
    let gstripe = world.core.global_stripe(0, 0);
    assert_eq!(world.core.owner_of(gstripe, 0), home, "home again");
    // The newer write lands on the first append's range and merges. The
    // stuck unit keeps the home's backlog above zero, so drain by hand.
    append(&mut world, &mut sim, 9, A, 0);
    for _ in 0..20 {
        world.flush_live(&mut sim);
        sim.run_until(&mut world, sim.now() + 50 * MILLISECOND);
    }
    assert_eq!(owed(&world, home, A), [], "the newer write merged");

    let second = kill_and_recover(&mut world, &mut sim, home);
    assert_eq!(second.replica_replayed_bytes, 0, "nothing replayed twice");
    let a = rebuilt(&world, home, A);
    assert!(holds(&a, 0, 9), "the write made after the rejoin survives");
    for i in 2..=8 {
        assert!(holds(&a, (i - 1) * 2 * APPEND, i), "append {i} lost");
    }
}

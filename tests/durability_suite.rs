//! Durability across failure windows, end to end: the degraded-write
//! journal, rebuild-time replay, heal-time re-sync, and rehome
//! reclamation. The tentpole claim under test: **no acked write is ever
//! lost**, even when its home dies, gets rebuilt elsewhere, and later
//! rejoins — and after a full re-sync the rehome table returns to empty.

use proptest::prelude::*;
use tsue_repro::bench::{
    bundled_scenarios, default_registry, run_scenario, ScenarioSpec, SchemeSpec, TraceKind,
};
use tsue_repro::ecfs::{
    check_consistency, fail_node, heal_node, run_full_scrub, run_workload, start_resync,
    start_scrub, BlockId, Chunk, Cluster, ClusterBuilder, DegradedJournal, JournalEntry,
};
use tsue_repro::fault::{install, run_plan_to_completion, EngineConfig, FaultEvent, FaultPlan};
use tsue_repro::schemes::Fo;
use tsue_repro::sim::{Sim, SECOND};
use tsue_repro::trace::WorkloadProfile;

/// A write-heavy, small-extent profile that keeps every OSD busy so the
/// failure window is guaranteed to catch in-flight and future writes.
fn write_heavy() -> WorkloadProfile {
    WorkloadProfile {
        name: "durability".into(),
        update_fraction: 0.9,
        size_dist: vec![(512, 0.2), (4096, 0.5), (16384, 0.3)],
        hot_fraction: 0.2,
        hot_access_prob: 0.6,
        skew_depth: 2,
        repeat_prob: 0.2,
        seq_run_prob: 0.1,
        align: 512,
    }
}

/// A materialized correctness cluster under the write-through FO scheme
/// (journal durability is scheme-independent; a write-through scheme
/// keeps the kill-time store/parity cut well defined — log-buffered
/// schemes additionally need data-log replica replay, a roadmap item).
fn durability_cluster(seed: u64, file_size: u64, ops: u64) -> Cluster {
    ClusterBuilder::ssd(4, 2, 3)
        .osds(10)
        .stripe(tsue_repro::ec::StripeConfig::new(4, 2, 64 << 10))
        .file_size_per_client(file_size)
        .materialize(true)
        .record_arrivals(true)
        .seed(seed)
        .workload(&write_heavy())
        .ops_per_client(ops)
        .scheme_fn(|_| Box::new(Fo::new()))
        .build()
}

/// The tentpole, end to end: kill a node mid-traffic, keep writing
/// (degraded writes journal), rebuild online (journal replays into the
/// rebuilt blocks), heal the node (re-sync copies rebuilt blocks back
/// and reclaims the rehome table) — and every acked write reads back
/// byte-exact, with parity consistent, zero lost bytes.
#[test]
fn acked_writes_survive_kill_rebuild_heal_byte_exact() {
    // Enough stripes that the victim hosts dozens of blocks, and a
    // serial rebuild, so the failure window is long enough to catch a
    // steady stream of writes to the dead node's blocks.
    let mut world = durability_cluster(11, 8 << 20, 150);
    let mut sim: Sim<Cluster> = Sim::new();
    let plan = FaultPlan::new(vec![
        FaultEvent::KillNode { at_ms: 5, node: 2 },
        FaultEvent::HealNode {
            at_ms: 400,
            node: 2,
        },
    ]);
    let cfg = EngineConfig {
        rebuild_concurrency: 1,
    };
    let tracker = install(&world, &mut sim, &plan, cfg).expect("valid plan");
    run_workload(&mut world, &mut sim, 3600 * SECOND);
    run_plan_to_completion(&mut world, &mut sim, &tracker);
    world.flush_all(&mut sim);

    // Zero lost acked bytes: everything journaled was replayed.
    let journal = &world.core.journal;
    assert!(
        journal.entries_appended > 0,
        "the kill window must catch writes to the dead node's blocks"
    );
    assert_eq!(
        journal.bytes_appended, journal.bytes_replayed,
        "journaled bytes must equal replayed bytes (nothing parked is lost)"
    );
    assert_eq!(journal.pending_entries(), 0, "no entry left unreplayed");

    // One parked extent counts exactly once, whichever side detected the
    // dead home (regression for the double-count across
    // client.rs/scheme.rs): every degraded write is a journaled write.
    assert_eq!(
        world.core.metrics.degraded_writes, journal.entries_appended,
        "degraded_writes must equal journaled extents for this window"
    );

    // Rehome reclamation: the heal re-synced the node and the override
    // table shrank back to empty.
    assert_eq!(world.core.mds.rehomed_count(), 0, "rehome table reclaimed");
    assert!(
        world.core.resync.blocks_reclaimed > 0,
        "heal reclaimed rebuilds"
    );
    assert_eq!(
        world.core.mds.dirty_parity_count(),
        0,
        "no parity left dirty"
    );

    // Byte-exact reads of every acked write, and parity that matches the
    // data — across the whole failure window.
    let (blocks, stripes) = check_consistency(&world).expect("byte-exact end state");
    assert!(blocks > 0 && stripes > 0);

    // No rot was injected, so every hosted page — rebuilt copies
    // included — verifies against its stored digest.
    let bad: Vec<_> = world
        .core
        .osds
        .iter()
        .flat_map(|o| o.block_ids().map(move |b| (o.node, b, o.corrupt_pages(b))))
        .filter(|(_, _, pages)| !pages.is_empty())
        .collect();
    assert!(bad.is_empty(), "pages fail their digests: {bad:?}");

    // The fault report tells the same story.
    let report = tracker.borrow().report.clone();
    assert_eq!(report.phases.len(), 1);
    assert_eq!(report.resyncs.len(), 1);
    let resync = &report.resyncs[0];
    assert_eq!(resync.node, 2);
    assert_eq!(resync.rehomed_residual, 0);
    assert!(resync.blocks_copied_back > 0);
    assert_eq!(
        report.phases[0].journal_replayed_bytes + resync.replayed_bytes,
        journal.bytes_replayed,
        "every replayed byte is attributed to a rebuild phase or a heal"
    );
}

/// Heal-before-rebuild: the home comes back while its blocks were never
/// reconstructed. The journal replays *in place* at the heal instant and
/// the re-sync re-encodes parity that missed NACKed deltas — no recovery
/// engine involved at all.
#[test]
fn heal_before_rebuild_replays_journal_in_place() {
    let mut world = durability_cluster(23, 2 << 20, 120);
    let mut sim: Sim<Cluster> = Sim::new();
    // Kill mid-run without starting any rebuild.
    sim.schedule_at(
        5 * SECOND / 1000,
        |w: &mut Cluster, _sim: &mut Sim<Cluster>| {
            fail_node(w, 2);
        },
    );
    run_workload(&mut world, &mut sim, 3600 * SECOND);
    assert!(
        world.core.journal.pending_entries() > 0,
        "degraded writes must have parked in the journal"
    );

    let heal = heal_node(&mut world, &mut sim, 2);
    assert!(heal.blocks_replayed > 0, "stale blocks caught up in place");
    assert_eq!(
        world.core.journal.pending_entries(),
        0,
        "heal consumed the journal"
    );
    let stats = start_resync(&mut world, &mut sim, 2);
    assert_eq!(stats.blocks_copied_back, 0, "nothing was ever rehomed");
    assert!(stats.parity_repaired > 0, "NACKed deltas left parity dirty");
    sim.run_while(&mut world, |w| w.core.resync.pending() > 0);
    world.flush_all(&mut sim);

    assert_eq!(world.core.mds.rehomed_count(), 0);
    assert_eq!(
        world.core.journal.bytes_appended,
        world.core.journal.bytes_replayed
    );
    check_consistency(&world).expect("healed-in-place end state is byte-exact");
}

/// A flapping node must not be re-synced while dead: re-sync on a
/// re-killed node would reclaim rehome entries back onto the corpse,
/// pointing every future read at a dead OSD.
#[test]
fn resync_refuses_a_rekilled_node() {
    let mut world = durability_cluster(31, 2 << 20, 0);
    let mut sim: Sim<Cluster> = Sim::new();
    // A block of node 2 was rebuilt onto node 5 during an outage…
    let gstripe = {
        let core = &mut world.core;
        let bps = core.cfg.stripe.blocks_per_stripe();
        (0..)
            .find(|&gs| core.placement.node_for(gs, 0, bps) == 2)
            .unwrap()
    };
    world.core.mds.rehome(gstripe, 0, 5);
    // …and the node flapped: healed, then died again before the re-sync.
    fail_node(&mut world, 2);
    let stats = start_resync(&mut world, &mut sim, 2);
    assert_eq!(stats.blocks_reclaimed, 0, "no reclamation onto a corpse");
    assert_eq!(
        world.core.mds.rehomed(gstripe, 0),
        Some(5),
        "the rehome override must keep pointing at the live copy"
    );
}

/// The bundled heal-rejoin scenario through the declarative API: the
/// emitted result must show zero lost acked bytes (journaled ==
/// replayed), a reclaimed rehome table, and a re-sync report entry.
#[test]
fn heal_rejoin_scenario_reports_zero_lost_bytes() {
    let (_, json) = bundled_scenarios()
        .iter()
        .find(|(p, _)| p.ends_with("heal_rejoin.json"))
        .expect("heal-rejoin scenario is bundled");
    let spec: ScenarioSpec = serde_json::from_str(json).expect("scenario parses");
    assert!(spec.materialize(), "the bundled scenario runs materialized");
    let result = run_scenario(&spec).expect("scenario runs");

    assert!(result.journaled_writes > 0, "the window parked writes");
    assert_eq!(result.degraded_writes, result.journaled_writes);
    assert_eq!(result.journaled_bytes, result.replayed_bytes);
    assert_eq!(result.rehomed_residual, 0);
    assert!(result.reclaimed_blocks > 0);
    assert!(result.resync_bytes > 0);
    let rec = result.recovery.as_ref().expect("fault plan ran");
    assert_eq!(rec.resyncs.len(), 1);
    assert_eq!(rec.resyncs[0].rehomed_residual, 0);
}

/// A materialized, checksummed TSUE cluster for the composed
/// integrity-fault tests: a 3× replicated data log so acked appends
/// survive the home dying before recycle.
fn integrity_cluster(seed: u64, checksums: bool) -> Cluster {
    ClusterBuilder::ssd(4, 2, 3)
        .osds(10)
        .stripe(tsue_repro::ec::StripeConfig::new(4, 2, 64 << 10))
        .file_size_per_client(4 << 20)
        .materialize(true)
        .checksums(checksums)
        .record_arrivals(true)
        .seed(seed)
        .workload(&write_heavy())
        .ops_per_client(150)
        .scheme_fn(|_| {
            let mut c = tsue_repro::core::TsueConfig::ssd_default();
            c.data_replicas = 3;
            Box::new(tsue_repro::core::Tsue::new(c))
        })
        .build()
}

/// The composed integrity plan: silent bit rot, then a torn-tail power
/// loss, then a node kill — three different ways to lose bytes, stacked.
fn integrity_plan() -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent::CorruptBlock {
            at_ms: 3,
            node: 4,
            blocks: Some(6),
            seed: Some(7),
        },
        FaultEvent::PowerLoss {
            at_ms: 8,
            node: 1,
            seed: Some(11),
        },
        FaultEvent::KillNode { at_ms: 15, node: 2 },
    ])
}

/// The integrity tentpole, end to end: bit rot + power loss + node kill
/// composed on a checksummed, log-replicated TSUE cluster — and every
/// acked write still reads back byte-exact after the scrub repairs the
/// rot, the torn tail replays from a replica, and the rebuild replays
/// the dead home's data log.
#[test]
fn acked_writes_survive_bitrot_powerloss_kill_byte_exact() {
    let mut world = integrity_cluster(17, true);
    let mut sim: Sim<Cluster> = Sim::new();
    let tracker =
        install(&world, &mut sim, &integrity_plan(), EngineConfig::default()).expect("valid plan");
    run_workload(&mut world, &mut sim, 3600 * SECOND);
    run_plan_to_completion(&mut world, &mut sim, &tracker);
    world.flush_all(&mut sim);
    let report = tsue_repro::ecfs::run_full_scrub(&mut world, &mut sim);

    assert!(
        world.core.metrics.corruptions_detected > 0,
        "the injected rot must be detected"
    );
    assert_eq!(
        report.unrecoverable, 0,
        "every rotted page must repair from survivors"
    );
    assert!(
        world.core.metrics.torn_detected > 0,
        "the power loss must tear an in-flight append"
    );
    assert_eq!(
        world.core.metrics.failed_reads, 0,
        "no read may fail outright"
    );
    assert_eq!(world.core.mds.dirty_parity_count(), 0);
    let (blocks, stripes) = check_consistency(&world).expect("byte-exact end state");
    assert!(blocks > 0 && stripes > 0);
}

/// Pinned negative: the *same* composed faults with checksums disabled
/// demonstrably corrupt the end state — rot is never detected, the
/// rebuild decodes through the rotted survivor, and reads return wrong
/// bytes. This is the control proving the positive test above is doing
/// real work, not passing vacuously.
#[test]
fn checksums_off_returns_corrupt_bytes() {
    let mut world = integrity_cluster(17, false);
    let mut sim: Sim<Cluster> = Sim::new();
    let tracker =
        install(&world, &mut sim, &integrity_plan(), EngineConfig::default()).expect("valid plan");
    run_workload(&mut world, &mut sim, 3600 * SECOND);
    run_plan_to_completion(&mut world, &mut sim, &tracker);
    world.flush_all(&mut sim);

    assert_eq!(
        world.core.metrics.corruptions_detected, 0,
        "without checksums nothing can detect the rot"
    );
    let err = tsue_repro::ecfs::check_data_blocks(&world)
        .expect_err("with checksums off the rot must surface as wrong bytes");
    assert!(
        err.contains("content mismatch"),
        "the failure must be wrong data bytes, not a missing block: {err}"
    );
    // The first mismatch is the smallest mismatching block, every call.
    for _ in 1..16 {
        let again = tsue_repro::ecfs::check_data_blocks(&world).expect_err("still rotted");
        assert_eq!(again, err, "the reported first mismatch must not vary");
    }
}

/// The bundled scrub-bitrot scenario through the declarative API: the
/// emitted result must show the rot detected and repaired (none
/// unrecoverable), the torn append replayed, replica-replay traffic, and
/// zero failed reads.
#[test]
fn scrub_bitrot_scenario_reports_full_repair() {
    let (_, json) = bundled_scenarios()
        .iter()
        .find(|(p, _)| p.ends_with("scrub_bitrot.json"))
        .expect("scrub-bitrot scenario is bundled");
    let spec: ScenarioSpec = serde_json::from_str(json).expect("scenario parses");
    assert!(spec.materialize() && spec.checksums() && spec.scrub_mb_s() > 0);
    let result = run_scenario(&spec).expect("scenario runs");

    assert!(result.blocks_scrubbed > 0, "the sweep ran");
    assert!(result.corruptions_detected > 0, "rot detected");
    assert!(result.corruptions_repaired > 0, "rot repaired");
    assert_eq!(result.corruptions_unrecoverable, 0, "nothing written off");
    assert!(result.torn_detected > 0, "the power loss tore a tail");
    assert!(result.torn_replayed > 0, "torn tail replayed from a copy");
    assert!(
        result.replica_replayed_bytes > 0,
        "the dead home's data log replayed"
    );
    assert_eq!(result.failed_reads, 0, "no read failed outright");
}

/// Bit rot under the log-buffered baselines that source parity deltas
/// from stored data bytes: FL's recycle read-modify-write and PARIX's
/// first-touch capture of the original. A delta built from rotted bytes
/// carries the rot into parity, whose digests the XOR updates, so the
/// wrong parity verifies clean; only the source block's poison flag
/// makes the final sweep re-encode that stripe. Both schemes must end
/// byte-exact with consistent parity.
#[test]
fn rot_sourced_deltas_never_leave_parity_inconsistent() {
    for scheme in ["fl", "parix"] {
        for seed in 1..=3u64 {
            let scheme_spec = SchemeSpec::named(scheme);
            let mut spec =
                ScenarioSpec::ssd("rot-delta-source", TraceKind::Ten, 4, 2, 4, scheme_spec);
            spec.osds = Some(8);
            spec.block_kib = Some(64);
            spec.file_mb = Some(2);
            spec.seed = Some(seed);
            spec.ops_per_client = Some(300);
            spec.materialize = Some(true);
            spec.checksums = Some(true);
            spec.scrub_mb_s = Some(64);
            let mut world = spec
                .builder(&default_registry())
                .expect("valid spec")
                .record_arrivals(true)
                .build();
            let mut sim: Sim<Cluster> = Sim::new();
            let plan = FaultPlan::new(vec![FaultEvent::CorruptBlock {
                at_ms: 5,
                node: 2,
                blocks: Some(8),
                seed: Some(seed ^ 0xB17),
            }]);
            let tracker =
                install(&world, &mut sim, &plan, EngineConfig::default()).expect("valid plan");
            start_scrub(&mut world, &mut sim);
            run_workload(&mut world, &mut sim, 3600 * SECOND);
            run_plan_to_completion(&mut world, &mut sim, &tracker);
            world.flush_all(&mut sim);
            let report = run_full_scrub(&mut world, &mut sim);

            assert!(world.core.metrics.corruptions_detected > 0, "rot detected");
            assert_eq!(report.unrecoverable, 0);
            if let Err(e) = check_consistency(&world) {
                panic!("{scheme} seed {seed}: {e}");
            }
        }
    }
}

/// Strategy: a list of distinct journal entries (op ids unique by index)
/// with deterministic payloads.
fn entries_strategy() -> impl Strategy<Value = Vec<(u64, u64, u8)>> {
    // (offset page, length words, payload byte) per entry; offsets and
    // lengths are scaled below to stay inside a 4 KiB block.
    proptest::collection::vec((0u64..56, 1u64..8, any::<u8>()), 1..20)
}

proptest! {
    /// Journal replay is idempotent under duplicate delivery: appending
    /// every entry twice (client retransmit racing its failover timer)
    /// journals each parked extent once, and replaying the journal over
    /// an already-replayed buffer changes nothing.
    #[test]
    fn journal_replay_idempotent_under_duplicate_delivery(raw in entries_strategy()) {
        let block = BlockId { file: 0, stripe: 0, role: 0 };
        let make = |i: usize, off: u64, len: u64, byte: u8| JournalEntry {
            op_id: i as u64,
            ext: 0,
            off: off * 64,
            data: Chunk::real(vec![byte; (len * 64) as usize]),
        };

        let mut once = DegradedJournal::default();
        let mut dup = DegradedJournal::default();
        for (i, &(off, len, byte)) in raw.iter().enumerate() {
            prop_assert!(once.append(block, make(i, off, len, byte)));
            prop_assert!(dup.append(block, make(i, off, len, byte)));
            // Duplicate delivery of the same extent: rejected, not
            // double-journaled.
            prop_assert!(!dup.append(block, make(i, off, len, byte)));
        }
        prop_assert_eq!(once.entries_appended, dup.entries_appended);
        prop_assert_eq!(once.bytes_appended, dup.bytes_appended);

        let a = once.take(&block);
        let b = dup.take(&block);
        let mut buf_once = vec![0u8; 4096];
        let mut buf_dup = vec![0u8; 4096];
        DegradedJournal::apply_into(&a, &mut buf_once);
        DegradedJournal::apply_into(&b, &mut buf_dup);
        prop_assert_eq!(&buf_once, &buf_dup, "duplicates must not change the replay");

        // Replaying the same ordered entries again is a no-op.
        let snapshot = buf_once.clone();
        DegradedJournal::apply_into(&a, &mut buf_once);
        prop_assert_eq!(buf_once, snapshot, "replay is idempotent");
    }
}

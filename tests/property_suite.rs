//! Cross-crate property tests: randomized workloads against the strongest
//! system invariants.

use proptest::prelude::*;
use tsue_repro::core::{Tsue, TsueConfig};
use tsue_repro::ecfs::{
    check_consistency, run_workload, Cluster, ClusterBuilder, ClusterConfig, DeviceKind,
    SchemeParams, SchemeRegistry, UpdateScheme,
};
use tsue_repro::schemes::register_baselines;
use tsue_repro::sim::{Sim, SECOND};
use tsue_repro::trace::WorkloadProfile;

fn profile_from(update_frac: f64, hot: f64, repeat: f64, seq: f64) -> WorkloadProfile {
    WorkloadProfile {
        name: "prop".into(),
        update_fraction: update_frac,
        size_dist: vec![(512, 0.3), (4096, 0.4), (8192, 0.2), (24576, 0.1)],
        hot_fraction: hot,
        hot_access_prob: 0.8,
        skew_depth: 2,
        repeat_prob: repeat,
        seq_run_prob: seq,
        align: 512,
    }
}

fn converge_check(
    scheme: &str,
    make: impl FnMut(usize) -> Box<dyn UpdateScheme> + 'static,
    k: usize,
    m: usize,
    seed: u64,
    profile: &WorkloadProfile,
    ops: u64,
) -> Result<(), TestCaseError> {
    let mut cfg = ClusterConfig::ssd_testbed(k, m, 2);
    cfg.osds = (k + m + 1).max(7);
    cfg.stripe = tsue_repro::ec::StripeConfig::new(k, m, 32 << 10);
    cfg.file_size_per_client = 1 << 20;
    cfg.materialize = true;
    cfg.record_arrivals = true;
    cfg.seed = seed;
    let mut world = ClusterBuilder::from_config(cfg)
        .workload(profile)
        .ops_per_client(ops)
        .scheme_fn(make)
        .build();
    let mut sim: Sim<Cluster> = Sim::new();
    run_workload(&mut world, &mut sim, 3600 * SECOND);
    world.flush_all(&mut sim);
    prop_assert_eq!(world.total_scheme_backlog(), 0, "{} backlog", scheme);
    if let Err(e) = check_consistency(&world) {
        return Err(TestCaseError::fail(format!("{scheme}: {e}")));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any workload shape, any seed: every baseline converges to a
    /// consistent state. (The paper's comparison is only meaningful
    /// because schemes are state-equivalent.)
    #[test]
    fn baselines_converge_under_random_workloads(
        seed: u64,
        update_frac in 0.4f64..0.95,
        hot in 0.05f64..0.4,
        repeat in 0.0f64..0.5,
        seq in 0.0f64..0.3,
        scheme_idx in 0usize..6,
    ) {
        let mut registry = SchemeRegistry::new();
        register_baselines(&mut registry);
        let baseline = &registry.entries()[scheme_idx];
        let make = baseline
            .instantiate(&SchemeParams::bare(DeviceKind::Ssd))
            .expect("baselines take no knobs");
        let profile = profile_from(update_frac, hot, repeat, seq);
        converge_check(baseline.display, make, 3, 2, seed, &profile, 40)?;
    }

    /// TSUE under random workload shapes and random ablation levels.
    #[test]
    fn tsue_converges_under_random_workloads(
        seed: u64,
        update_frac in 0.4f64..0.95,
        hot in 0.05f64..0.4,
        repeat in 0.0f64..0.5,
        level in 0usize..6,
    ) {
        let profile = profile_from(update_frac, hot, repeat, 0.1);
        converge_check(
            "TSUE",
            move |_| {
                let mut c = TsueConfig::breakdown(level);
                c.unit_size = 128 << 10;
                c.seal_interval = SECOND / 2;
                Box::new(Tsue::new(c))
            },
            3,
            2,
            seed,
            &profile,
            40,
        )?;
    }

    /// Every single-bit flip, at any offset in any page, is caught by the
    /// per-page checksum table — the detection floor the whole scrub
    /// subsystem stands on.
    #[test]
    fn checksum_detects_every_single_bit_flip(
        seed: u64,
        len in 1u64..3 * tsue_repro::integrity::PAGE,
        flip_pos: u64,
    ) {
        use tsue_repro::integrity::{BlockChecksums, SplitRng, PAGE};
        let mut rng = SplitRng::new(seed);
        let mut data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let mut sums = BlockChecksums::new_zeroed(len);
        for (p, bytes) in data.chunks(PAGE as usize).enumerate() {
            sums.rehash(p, bytes);
        }
        let bad_pages = |data: &[u8]| -> Vec<usize> {
            data.chunks(PAGE as usize)
                .enumerate()
                .filter(|&(p, bytes)| sums.check(p, bytes).is_err())
                .map(|(p, _)| p)
                .collect()
        };
        prop_assert!(bad_pages(&data).is_empty());

        let bit = flip_pos % (len * 8);
        data[(bit / 8) as usize] ^= 1 << (bit % 8);
        let page = (bit / 8 / PAGE) as usize;
        prop_assert_eq!(bad_pages(&data), vec![page], "bit {bit} of {len} bytes flipped silently");
    }

    /// Scrub repair restores rotted blocks byte-exactly (against the
    /// arrival-replay oracle), and a second sweep over the repaired
    /// cluster is a no-op — repair is idempotent.
    #[test]
    fn scrub_repair_is_byte_exact_and_idempotent(
        seed: u64,
        hits in 1usize..6,
    ) {
        use tsue_repro::ecfs::run_full_scrub;
        use tsue_repro::integrity::SplitRng;

        let profile = profile_from(0.8, 0.2, 0.3, 0.1);
        let mut cfg = ClusterConfig::ssd_testbed(3, 2, 2);
        cfg.osds = 7;
        cfg.stripe = tsue_repro::ec::StripeConfig::new(3, 2, 32 << 10);
        cfg.file_size_per_client = 1 << 20;
        cfg.materialize = true;
        cfg.record_arrivals = true;
        cfg.seed = seed;
        let mut world = ClusterBuilder::from_config(cfg)
            .workload(&profile)
            .ops_per_client(30)
            .scheme_fn(|_| {
                let mut c = TsueConfig::ssd_default();
                c.unit_size = 128 << 10;
                c.seal_interval = SECOND / 2;
                Box::new(Tsue::new(c))
            })
            .build();
        let mut sim: Sim<Cluster> = Sim::new();
        run_workload(&mut world, &mut sim, 3600 * SECOND);
        world.flush_all(&mut sim);

        // Rot a few random bytes across random blocks (bypassing the
        // write path, exactly like media corruption would).
        let mut rng = SplitRng::new(seed ^ 0x5eed);
        for _ in 0..hits {
            let osd = rng.below(world.core.cfg.osds as u64) as usize;
            let ids: Vec<_> = world.core.osds[osd].block_ids().collect();
            if ids.is_empty() {
                continue;
            }
            let block = ids[rng.below(ids.len() as u64) as usize];
            world.core.osds[osd].corrupt_bits(block, &mut rng, 1);
        }

        let first = run_full_scrub(&mut world, &mut sim);
        prop_assert_eq!(first.unrecoverable, 0, "clean codeword rot must repair");
        if let Err(e) = check_consistency(&world) {
            return Err(TestCaseError::fail(format!("post-repair: {e}")));
        }
        let second = run_full_scrub(&mut world, &mut sim);
        prop_assert_eq!(second.repaired, 0, "second sweep must be a no-op");
        prop_assert_eq!(second.unrecoverable, 0);
        if let Err(e) = check_consistency(&world) {
            return Err(TestCaseError::fail(format!("post-idempotence: {e}")));
        }
    }

    /// A power loss tearing the in-flight log append at *any* offset
    /// (the seed drives the cut) never leaves a verified-but-wrong byte:
    /// after restart, replay, and drain, every block matches the
    /// arrival-replay oracle and parity re-encodes consistently.
    #[test]
    fn torn_append_never_yields_verified_but_wrong_reads(
        seed: u64,
        node_pick: u64,
        cut_seed: u64,
    ) {
        use tsue_repro::ecfs::repair_all_dirty_parity;

        let profile = profile_from(0.8, 0.2, 0.3, 0.1);
        let mut cfg = ClusterConfig::ssd_testbed(3, 2, 2);
        cfg.osds = 7;
        cfg.stripe = tsue_repro::ec::StripeConfig::new(3, 2, 32 << 10);
        cfg.file_size_per_client = 1 << 20;
        cfg.materialize = true;
        cfg.record_arrivals = true;
        cfg.seed = seed;
        let mut world = ClusterBuilder::from_config(cfg)
            .workload(&profile)
            .ops_per_client(30)
            .scheme_fn(|_| {
                let mut c = TsueConfig::ssd_default();
                c.unit_size = 128 << 10;
                c.seal_interval = SECOND / 2;
                Box::new(Tsue::new(c))
            })
            .build();
        let mut sim: Sim<Cluster> = Sim::new();
        // Half the workload, then yank power on a random OSD mid-flight.
        run_workload(&mut world, &mut sim, SECOND / 2);
        let node = (node_pick % world.core.cfg.osds as u64) as usize;
        world.power_loss(&mut sim, node, cut_seed);
        run_workload(&mut world, &mut sim, 3600 * SECOND);
        world.flush_all(&mut sim);
        repair_all_dirty_parity(&mut world, &mut sim);
        prop_assert_eq!(world.total_scheme_backlog(), 0);
        if let Err(e) = check_consistency(&world) {
            return Err(TestCaseError::fail(format!("post-power-loss: {e}")));
        }
    }

    /// Random RS shapes: TSUE converges for any (k, m) the cluster fits.
    #[test]
    fn tsue_converges_across_code_shapes(
        seed: u64,
        k in 2usize..7,
        m in 2usize..5,
    ) {
        let profile = profile_from(0.8, 0.2, 0.3, 0.1);
        converge_check(
            "TSUE",
            |_| {
                let mut c = TsueConfig::ssd_default();
                c.unit_size = 128 << 10;
                c.seal_interval = SECOND / 2;
                Box::new(Tsue::new(c))
            },
            k,
            m,
            seed,
            &profile,
            30,
        )?;
    }
}

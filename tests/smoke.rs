//! Workspace-wiring smoke test: exercises every umbrella re-export layer
//! end to end — GF algebra, the RS codec's incremental-update path, and a
//! full two-stage TSUE update cycle on a simulated cluster — so a broken
//! crate graph or re-export fails fast and obviously.

use tsue_repro::core::{Tsue, TsueConfig};
use tsue_repro::ec::{data_delta_into, RsCode, StripeConfig};
use tsue_repro::ecfs::{check_consistency, run_workload, Cluster, ClusterBuilder, ClusterConfig};
use tsue_repro::gf;
use tsue_repro::sim::{Sim, SECOND};
use tsue_repro::trace::WorkloadProfile;

/// The bottom layer answers: GF(2^8) really is a field through the
/// umbrella path.
#[test]
fn gf_reexport_is_a_field() {
    for a in 1u8..=255 {
        assert_eq!(gf::mul(a, gf::inv(a)), 1, "a * a^-1 must be 1 (a={a})");
        assert_eq!(gf::add(a, a), 0, "char-2 field: a + a must be 0");
    }
}

/// Encode a stripe, overwrite a range through the incremental
/// parity-delta equations (the algebra both TSUE stages rely on), and
/// verify parity stays identical to a full re-encode.
#[test]
fn incremental_stripe_update_matches_reencode() {
    let (k, m, len) = (4usize, 2usize, 512usize);
    let rs = RsCode::new(k, m).expect("valid RS shape");
    let mut data: Vec<Vec<u8>> = (0..k)
        .map(|i| (0..len).map(|j| (i * 37 + j * 11) as u8).collect())
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
    let mut parity = vec![Vec::new(); m];
    rs.encode_into(&refs, &mut parity).expect("encode");

    // Overwrite 100 bytes in block 2 at offset 300, updating parity
    // incrementally instead of re-encoding.
    let (block, off, ulen) = (2usize, 300usize, 100usize);
    let new: Vec<u8> = (0..ulen).map(|j| (j * 7 + 1) as u8).collect();
    let mut delta = vec![0u8; ulen];
    data_delta_into(&data[block][off..off + ulen], &new, &mut delta);
    data[block][off..off + ulen].copy_from_slice(&new);
    for (j, p) in parity.iter_mut().enumerate() {
        rs.parity_delta_into(j, block, &delta, &mut p[off..off + ulen]);
    }

    let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
    let mut expect = vec![Vec::new(); m];
    rs.encode_into(&refs, &mut expect).expect("re-encode");
    assert_eq!(parity, expect);

    // And the stripe geometry tiles the update exactly.
    let cfg = StripeConfig::new(k, m, len as u64);
    let extents = cfg.split_range((block * len + off) as u64, ulen as u64);
    assert_eq!(extents.iter().map(|e| e.len).sum::<u64>(), ulen as u64);
}

/// The headline path: a TSUE cluster absorbs an update workload, both
/// stages drain (DataLog recycle + ParityLog recycle), and every stripe
/// is byte-for-byte parity-consistent afterwards.
#[test]
fn two_stage_tsue_update_leaves_cluster_consistent() {
    let (k, m) = (3usize, 2usize);
    let mut cfg = ClusterConfig::ssd_testbed(k, m, 2);
    cfg.osds = (k + m + 1).max(7);
    cfg.stripe = StripeConfig::new(k, m, 32 << 10);
    cfg.file_size_per_client = 1 << 20;
    cfg.materialize = true;
    cfg.record_arrivals = true;
    cfg.seed = 0xEC;

    let mut world = ClusterBuilder::from_config(cfg)
        .scheme_fn(|_| {
            let mut c = TsueConfig::ssd_default();
            c.unit_size = 128 << 10;
            c.seal_interval = SECOND / 2;
            Box::new(Tsue::new(c))
        })
        .build();
    world.set_workload(&WorkloadProfile {
        name: "smoke".into(),
        update_fraction: 0.8,
        size_dist: vec![(4096, 0.6), (16384, 0.4)],
        hot_fraction: 0.2,
        hot_access_prob: 0.8,
        skew_depth: 2,
        repeat_prob: 0.3,
        seq_run_prob: 0.1,
        align: 512,
    });
    for c in &mut world.core.clients {
        c.max_ops = Some(60);
    }

    let mut sim: Sim<Cluster> = Sim::new();
    run_workload(&mut world, &mut sim, 3600 * SECOND);
    assert!(
        world.core.metrics.ops_completed > 0,
        "workload must complete ops"
    );

    world.flush_all(&mut sim);
    assert_eq!(
        world.total_scheme_backlog(),
        0,
        "both TSUE stages must drain on flush"
    );
    let (blocks, stripes) = check_consistency(&world).expect("cluster consistent after drain");
    assert!(
        blocks > 0 && stripes > 0,
        "consistency check must cover data"
    );
}

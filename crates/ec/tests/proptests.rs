//! Property tests: the codec invariants every update scheme relies on.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsue_ec::{data_delta, merge_deltas, RsCode, StripeConfig};

fn make_blocks(rng: &mut StdRng, k: usize, len: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|_| (0..len).map(|_| rng.gen()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any ≤ m erasure pattern is recoverable and recovers the exact bytes.
    #[test]
    fn reconstruct_any_erasure(
        k in 2usize..8,
        m in 1usize..5,
        len in 1usize..200,
        seed: u64,
        losses_seed: u64,
    ) {
        let rs = RsCode::new(k, m).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let data = make_blocks(&mut rng, k, len);
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let parity = rs.encode(&refs).unwrap();
        let full: Vec<Vec<u8>> = data.into_iter().chain(parity).collect();

        let mut loss_rng = StdRng::seed_from_u64(losses_seed);
        let n_lost = loss_rng.gen_range(1..=m);
        let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        let mut lost = std::collections::BTreeSet::new();
        while lost.len() < n_lost {
            lost.insert(loss_rng.gen_range(0..k + m));
        }
        for &i in &lost {
            shards[i] = None;
        }
        rs.reconstruct(&mut shards).unwrap();
        for (i, s) in shards.iter().enumerate() {
            prop_assert_eq!(s.as_ref().unwrap(), &full[i]);
        }
    }

    /// A random sequence of partial in-block updates, applied through the
    /// incremental parity-delta path, leaves parity identical to a full
    /// re-encode. This is the algebraic heart of every scheme in the paper.
    #[test]
    fn incremental_updates_equal_full_reencode(
        k in 2usize..7,
        m in 1usize..5,
        seed: u64,
        n_updates in 1usize..24,
    ) {
        let len = 96usize;
        let rs = RsCode::new(k, m).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = make_blocks(&mut rng, k, len);
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let mut parity = rs.encode(&refs).unwrap();

        for _ in 0..n_updates {
            let b = rng.gen_range(0..k);
            let off = rng.gen_range(0..len);
            let ulen = rng.gen_range(1..=len - off);
            let new: Vec<u8> = (0..ulen).map(|_| rng.gen()).collect();
            let delta = data_delta(&data[b][off..off + ulen], &new);
            data[b][off..off + ulen].copy_from_slice(&new);
            for (j, p) in parity.iter_mut().enumerate() {
                let pd = rs.parity_delta(j, b, &delta);
                tsue_ec::RsCode::apply_parity_delta(&mut p[off..off + ulen], &pd);
            }
        }

        let refs2: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let expect = rs.encode(&refs2).unwrap();
        prop_assert_eq!(parity, expect);
    }

    /// Folding chained per-update deltas (Eq. 3) equals the single delta
    /// against the original (Eq. 4), in any interleaving.
    #[test]
    fn delta_folding_is_order_insensitive(
        seed: u64,
        n in 1usize..10,
    ) {
        let len = 32usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let original: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let mut versions = vec![original.clone()];
        for _ in 0..n {
            versions.push((0..len).map(|_| rng.gen()).collect());
        }
        let mut acc = vec![0u8; len];
        for w in versions.windows(2) {
            let d = data_delta(&w[0], &w[1]);
            merge_deltas(&mut acc, &d);
        }
        prop_assert_eq!(acc, data_delta(&original, versions.last().unwrap()));
    }

    /// Eq. (5) grouping: one combined parity delta from many blocks equals
    /// applying each block's parity delta separately.
    #[test]
    fn combined_delta_matches_separate_application(
        k in 2usize..7,
        m in 1usize..4,
        seed: u64,
    ) {
        let len = 48usize;
        let rs = RsCode::new(k, m).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let deltas: Vec<Vec<u8>> = (0..k).map(|_| (0..len).map(|_| rng.gen()).collect()).collect();
        let pairs: Vec<(usize, &[u8])> = deltas.iter().enumerate().map(|(i, d)| (i, d.as_slice())).collect();
        for j in 0..m {
            let combined = rs.combined_parity_delta(j, &pairs);
            let mut sep = vec![0u8; len];
            for (i, d) in &pairs {
                let pd = rs.parity_delta(j, *i, d);
                merge_deltas(&mut sep, &pd);
            }
            prop_assert_eq!(combined, sep);
        }
    }

    /// split_range always tiles the request exactly with in-block extents.
    #[test]
    fn split_range_tiles_request(
        k in 1usize..16,
        m in 1usize..5,
        bs in 1u64..10_000,
        offset in 0u64..1_000_000,
        len in 1u64..100_000,
    ) {
        let cfg = StripeConfig::new(k, m, bs);
        let extents = cfg.split_range(offset, len);
        let mut cursor = offset;
        for e in &extents {
            prop_assert_eq!(e.logical_offset, cursor);
            prop_assert_eq!(cfg.locate(cursor), e.addr);
            prop_assert!(e.addr.offset + e.len <= bs);
            prop_assert!(e.len > 0);
            cursor += e.len;
        }
        prop_assert_eq!(cursor, offset + len);
    }
}

//! Property tests: the codec invariants every update scheme relies on.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsue_ec::{data_delta_into, RsCode, StripeConfig};

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
        let mut parity = vec![Vec::new(); m];
        rs.encode_into(&refs, &mut parity).unwrap();
        let full: Vec<Vec<u8>> = data.into_iter().chain(parity).collect();

        let mut loss_rng = StdRng::seed_from_u64(losses_seed);
        let n_lost = loss_rng.gen_range(1..=m);
        let mut lost = std::collections::BTreeSet::new();
        while lost.len() < n_lost {
            lost.insert(loss_rng.gen_range(0..k + m));
        }
        // One decode per lost shard, from the survivors.
        let survivors: Vec<(usize, &[u8])> = (0..k + m)
            .filter(|i| !lost.contains(i))
            .map(|i| (i, full[i].as_slice()))
            .collect();
        for &i in &lost {
            let mut out = vec![0u8; len];
            rs.reconstruct_one(&survivors, i, &mut out).unwrap();
            prop_assert_eq!(&out, &full[i]);
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
        let mut parity = vec![Vec::new(); m];
        rs.encode_into(&refs, &mut parity).unwrap();

        for _ in 0..n_updates {
            let b = rng.gen_range(0..k);
            let off = rng.gen_range(0..len);
            let ulen = rng.gen_range(1..=len - off);
            let new: Vec<u8> = (0..ulen).map(|_| rng.gen()).collect();
            let mut delta = vec![0u8; ulen];
            data_delta_into(&data[b][off..off + ulen], &new, &mut delta);
            data[b][off..off + ulen].copy_from_slice(&new);
            for (j, p) in parity.iter_mut().enumerate() {
                rs.parity_delta_into(j, b, &delta, &mut p[off..off + ulen]);
            }
        }

        let refs2: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let mut expect = vec![Vec::new(); m];
        rs.encode_into(&refs2, &mut expect).unwrap();
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
        let mut d = vec![0u8; len];
        for w in versions.windows(2) {
            data_delta_into(&w[0], &w[1], &mut d);
            tsue_gf::xor_slice(&d, &mut acc);
        }
        data_delta_into(&original, versions.last().unwrap(), &mut d);
        prop_assert_eq!(acc, d);
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
            let mut combined = vec![0u8; len];
            rs.fill_combined_parity_delta(j, &pairs, &mut combined);
            let mut sep = vec![0u8; len];
            for (i, d) in &pairs {
                rs.parity_delta_into(j, *i, d, &mut sep);
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

//! Codec-level cross-tier equivalence: a full Reed–Solomon encode and a
//! parity-delta round produce byte-identical outputs on every kernel
//! tier the host supports. This lifts the slice-level invariant from
//! `tsue_gf` up one layer — the place the simulator actually consumes
//! the kernels.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsue_ec::{data_delta_into, RsCode};
use tsue_gf::{set_kernel_tier, KernelTier};

#[test]
fn encode_and_parity_delta_identical_on_every_tier() {
    let rs = RsCode::new(4, 2).unwrap();
    let mut rng = StdRng::seed_from_u64(0x7e57_0e11);
    // Odd length so vector tails are exercised through the codec too.
    let len = 4097;
    let data: Vec<Vec<u8>> = (0..4)
        .map(|_| (0..len).map(|_| rng.gen()).collect())
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
    let new_block: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
    let mut delta = vec![0u8; len];
    data_delta_into(&data[1], &new_block, &mut delta);

    type Blocks = Vec<Vec<u8>>;
    let mut baseline: Option<(Blocks, Blocks)> = None;
    for tier in KernelTier::available() {
        set_kernel_tier(tier).unwrap();
        let mut parity = vec![Vec::new(); 2];
        rs.encode_into(&refs, &mut parity).unwrap();
        let parity_deltas: Vec<Vec<u8>> = (0..2)
            .map(|p| {
                let mut out = vec![0u8; len];
                rs.parity_delta_into(p, 1, &delta, &mut out);
                out
            })
            .collect();
        match &baseline {
            None => baseline = Some((parity, parity_deltas)),
            Some((p0, d0)) => {
                assert_eq!(&parity, p0, "encode differs on tier {tier:?}");
                assert_eq!(&parity_deltas, d0, "parity delta differs on tier {tier:?}");
            }
        }
    }
    set_kernel_tier(KernelTier::best()).unwrap();
}

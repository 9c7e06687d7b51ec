//! Cross-tier equivalence: every kernel backend the host can run must
//! produce bytes identical to the scalar reference for arbitrary
//! coefficients, lengths, and alignment offsets.
//!
//! This is the proof obligation behind the byte-identical-tiers
//! invariant (see `tsue_gf::kernel`): dispatch may pick any tier at any
//! time, so no tier may ever disagree with another. Lengths are drawn
//! below one vector register, around vector-width boundaries, and well
//! above them; an offset into an over-allocated buffer exercises
//! misaligned heads so the unaligned-load paths and scalar tails are
//! covered.
//!
//! These tests mutate the process-global dispatch tier. That is safe
//! precisely because of the invariant under test — a concurrent test
//! observing a different tier still sees identical bytes — but each
//! test restores the best tier on exit to keep the suite honest.

use proptest::prelude::*;
use tsue_gf::{reference, set_kernel_tier, KernelTier};

/// Runs `f` once per tier the host supports, restoring the default
/// (best) tier afterwards even if `f` panics mid-tier.
fn for_each_tier(mut f: impl FnMut(KernelTier)) {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_kernel_tier(KernelTier::best()).expect("the best tier is always available");
        }
    }
    let _restore = Restore;
    for tier in KernelTier::available() {
        set_kernel_tier(tier).expect("listed by available()");
        f(tier);
    }
}

/// Deterministic but non-trivial fill so nibble patterns vary.
fn fill(buf: &mut [u8], seed: u8) {
    let mut x = seed.wrapping_mul(167).wrapping_add(13);
    for b in buf.iter_mut() {
        x = x.wrapping_mul(31).wrapping_add(17);
        *b = x;
    }
}

proptest! {
    /// `mul_slice` / `mul_add_slice` agree with the scalar reference on
    /// every tier, for any (c, len, offset).
    #[test]
    fn mul_kernels_byte_identical_across_tiers(
        c: u8,
        len in 0usize..200,
        offset in 0usize..17,
        seed: u8,
    ) {
        let mut src_buf = vec![0u8; offset + len];
        fill(&mut src_buf, seed);
        let src = &src_buf[offset..];

        let mut expect = vec![0u8; len];
        reference::mul_slice(c, src, &mut expect);
        let mut expect_acc = src.to_vec();
        reference::mul_add_slice(c, src, &mut expect_acc);

        for_each_tier(|tier| {
            let mut dst_buf = vec![0xa5u8; offset + len];
            tsue_gf::mul_slice(c, src, &mut dst_buf[offset..]);
            assert_eq!(&dst_buf[offset..], &expect[..], "mul_slice {tier:?} c={c} len={len} off={offset}");

            let mut acc_buf = vec![0u8; offset + len];
            acc_buf[offset..].copy_from_slice(src);
            tsue_gf::mul_add_slice(c, src, &mut acc_buf[offset..]);
            assert_eq!(&acc_buf[offset..], &expect_acc[..], "mul_add_slice {tier:?} c={c} len={len} off={offset}");
        });
    }

    /// `xor_slice` / `xor_into` agree with the scalar reference on every
    /// tier, for any (len, offset).
    #[test]
    fn xor_kernels_byte_identical_across_tiers(
        len in 0usize..200,
        offset in 0usize..17,
        seed: u8,
    ) {
        let mut a_buf = vec![0u8; offset + len];
        let mut b_buf = vec![0u8; offset + len];
        fill(&mut a_buf, seed);
        fill(&mut b_buf, seed.wrapping_add(101));
        let a = &a_buf[offset..];
        let b = &b_buf[offset..];

        let mut expect = a.to_vec();
        reference::xor_slice(b, &mut expect);

        for_each_tier(|tier| {
            let mut acc_buf = vec![0u8; offset + len];
            acc_buf[offset..].copy_from_slice(a);
            tsue_gf::xor_slice(b, &mut acc_buf[offset..]);
            assert_eq!(&acc_buf[offset..], &expect[..], "xor_slice {tier:?} len={len} off={offset}");

            let mut dst_buf = vec![0x5au8; offset + len];
            tsue_gf::xor_into(a, b, &mut dst_buf[offset..]);
            assert_eq!(&dst_buf[offset..], &expect[..], "xor_into {tier:?} len={len} off={offset}");
        });
    }
}

/// Exhaustive sweep of every coefficient at lengths that straddle the
/// vector widths (sub-16, 16/32 boundaries, odd tails) — cheap enough
/// to run in full rather than sampled.
#[test]
fn every_coefficient_boundary_lengths_all_tiers() {
    for len in [0usize, 1, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65] {
        let mut src = vec![0u8; len];
        fill(&mut src, len as u8);
        for c in 0..=255u8 {
            let mut expect = vec![0u8; len];
            reference::mul_slice(c, &src, &mut expect);
            for_each_tier(|tier| {
                let mut dst = vec![0xccu8; len];
                tsue_gf::mul_slice(c, &src, &mut dst);
                assert_eq!(dst, expect, "{tier:?} c={c} len={len}");
            });
        }
    }
}

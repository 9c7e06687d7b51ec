//! Arithmetic over the finite field GF(2^8) and small dense matrices over it.
//!
//! This is the algebraic substrate for the Reed–Solomon codec in `tsue-ec`.
//! The field is GF(2^8) with the primitive polynomial
//! `x^8 + x^4 + x^3 + x^2 + 1` (0x11d), the conventional choice for
//! RS-based storage codes. Addition and subtraction are XOR; multiplication
//! and division go through compile-time log/exp tables.
//!
//! The slice kernels ([`mul_slice`], [`mul_add_slice`], [`xor_slice`]) are the
//! hot path of encoding. They dispatch at runtime to the widest backend the
//! host CPU supports — split-nibble SIMD (SSSE3/AVX2/NEON byte-shuffles that
//! compute 16 or 32 products per instruction) down to a portable word-wide
//! fallback — through a function-pointer vtable resolved once on first use.
//! See [`kernel`] for the backend design, the `TSUE_GF_KERNEL` override, and
//! the byte-identical-tiers invariant.

#![warn(missing_docs)]

pub mod kernel;
pub mod matrix;
pub mod tables;

pub use kernel::{cpu_features, kernel_tier, reference, set_kernel_tier, KernelTier};
pub use matrix::Matrix;
pub use tables::{EXP_TABLE, LOG_TABLE};

/// The field order (number of elements), 2^8.
pub const FIELD_SIZE: usize = 256;

/// Adds two field elements. In GF(2^8) addition is XOR.
#[inline(always)]
pub const fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Subtracts `b` from `a`. Identical to [`add`] in characteristic 2.
#[inline(always)]
pub const fn sub(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplies two field elements via the log/exp tables.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let log_sum = LOG_TABLE[a as usize] as usize + LOG_TABLE[b as usize] as usize;
    // EXP_TABLE is doubled in length so the sum (max 508) indexes directly.
    EXP_TABLE[log_sum]
}

/// Divides `a` by `b`.
///
/// # Panics
/// Panics if `b == 0` (division by zero is undefined in a field).
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "GF(2^8) division by zero");
    if a == 0 {
        return 0;
    }
    let log_diff = 255 + LOG_TABLE[a as usize] as usize - LOG_TABLE[b as usize] as usize;
    EXP_TABLE[log_diff]
}

/// Returns the multiplicative inverse of `a`.
///
/// # Panics
/// Panics if `a == 0`.
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "GF(2^8) inverse of zero");
    EXP_TABLE[255 - LOG_TABLE[a as usize] as usize]
}

/// Raises `a` to the integer power `n`.
pub fn pow(a: u8, n: usize) -> u8 {
    if n == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let log = LOG_TABLE[a as usize] as usize * n % 255;
    EXP_TABLE[log]
}

/// Returns the generator element `2` raised to `n` — a convenient way to
/// enumerate distinct non-zero elements for Vandermonde rows.
#[inline]
pub fn exp2(n: usize) -> u8 {
    EXP_TABLE[n % 255]
}

/// `dst[i] = c * src[i]` for all `i`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn mul_slice(c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "mul_slice length mismatch");
    if c == 0 {
        dst.fill(0);
        return;
    }
    if c == 1 {
        dst.copy_from_slice(src);
        return;
    }
    (kernel::active().mul_slice)(c, src, dst);
}

/// `dst[i] ^= c * src[i]` for all `i` — the fused multiply-accumulate that
/// dominates Reed–Solomon encode and parity-delta application.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn mul_add_slice(c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "mul_add_slice length mismatch");
    if c == 0 {
        return;
    }
    if c == 1 {
        xor_slice(src, dst);
        return;
    }
    (kernel::active().mul_add_slice)(c, src, dst);
}

/// `buf[i] = c * buf[i]` for all `i` — in-place scaling, for callers that
/// own their buffer uniquely and want no scratch at all.
pub fn mul_slice_assign(c: u8, buf: &mut [u8]) {
    if c == 0 {
        buf.fill(0);
        return;
    }
    if c == 1 {
        return;
    }
    (kernel::active().mul_slice_assign)(c, buf);
}

/// `dst[i] = a[i] ^ b[i]` for all `i` — a one-pass delta kernel writing
/// into caller-provided scratch (no intermediate copy of either input).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn xor_into(a: &[u8], b: &[u8], dst: &mut [u8]) {
    assert_eq!(a.len(), b.len(), "xor_into length mismatch");
    assert_eq!(a.len(), dst.len(), "xor_into length mismatch");
    // Short-slice regime (small-write deltas): the dispatch indirection
    // costs more than any vector-width advantage — the word-wide loop
    // inlines and auto-vectorizes here. XOR is tier-invariant by
    // definition, so this changes no observable behavior.
    if a.len() < XOR_DISPATCH_FLOOR {
        kernel::portable::xor_into(a, b, dst);
        return;
    }
    (kernel::active().xor_into)(a, b, dst);
}

/// Below this many bytes, [`xor_slice`]/[`xor_into`] skip the dispatch
/// vtable and run the inlined portable word loop: the indirect call and
/// tier lookup cost more than wider vectors save on short slices.
const XOR_DISPATCH_FLOOR: usize = 1024;

/// `dst[i] ^= src[i]` for all `i` — field addition of two buffers.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn xor_slice(src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "xor_slice length mismatch");
    // See xor_into: short slices take the inlined portable word loop.
    if src.len() < XOR_DISPATCH_FLOOR {
        kernel::portable::xor_slice(src, dst);
        return;
    }
    (kernel::active().xor_slice)(src, dst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_xor() {
        assert_eq!(add(0b1010, 0b0110), 0b1100);
        assert_eq!(sub(0b1010, 0b0110), 0b1100);
    }

    #[test]
    fn mul_identities() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(1, a), a);
        }
    }

    #[test]
    fn mul_matches_carryless_reference() {
        // Slow bitwise reference multiplication modulo 0x11d.
        fn slow_mul(mut a: u8, mut b: u8) -> u8 {
            let mut acc = 0u8;
            while b != 0 {
                if b & 1 != 0 {
                    acc ^= a;
                }
                let hi = a & 0x80 != 0;
                a <<= 1;
                if hi {
                    a ^= 0x1d;
                }
                b >>= 1;
            }
            acc
        }
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), slow_mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn inverses_roundtrip() {
        for a in 1..=255u8 {
            let ia = inv(a);
            assert_eq!(mul(a, ia), 1, "a={a}");
            assert_eq!(div(1, a), ia);
            assert_eq!(div(a, a), 1);
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = div(3, 0);
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn inv_of_zero_panics() {
        let _ = inv(0);
    }

    #[test]
    fn pow_basics() {
        assert_eq!(pow(0, 0), 1);
        assert_eq!(pow(0, 5), 0);
        assert_eq!(pow(7, 0), 1);
        assert_eq!(pow(7, 1), 7);
        assert_eq!(pow(7, 2), mul(7, 7));
        // Fermat: a^255 == 1 for a != 0.
        for a in 1..=255u8 {
            assert_eq!(pow(a, 255), 1);
        }
    }

    #[test]
    fn exp2_enumerates_nonzero_elements() {
        let mut seen = [false; 256];
        for n in 0..255 {
            let e = exp2(n);
            assert_ne!(e, 0);
            assert!(!seen[e as usize], "exp2({n}) repeated");
            seen[e as usize] = true;
        }
    }

    #[test]
    fn slice_kernels_match_scalar() {
        let src: Vec<u8> = (0..=255u8).chain(0..=41u8).collect(); // odd length 298
        for c in [0u8, 1, 2, 29, 127, 255] {
            let mut dst = vec![0xaau8; src.len()];
            mul_slice(c, &src, &mut dst);
            for (i, (&s, &d)) in src.iter().zip(dst.iter()).enumerate() {
                assert_eq!(d, mul(c, s), "c={c} i={i}");
            }
            let mut acc = src.clone();
            mul_add_slice(c, &src, &mut acc);
            for (i, (&s, &d)) in src.iter().zip(acc.iter()).enumerate() {
                assert_eq!(d, s ^ mul(c, s), "c={c} i={i}");
            }
        }
    }

    #[test]
    fn mul_slice_assign_matches_mul_slice() {
        let src: Vec<u8> = (0..=255u8).chain(0..=12u8).collect();
        for c in [0u8, 1, 2, 29, 255] {
            let mut expect = vec![0u8; src.len()];
            mul_slice(c, &src, &mut expect);
            let mut buf = src.clone();
            mul_slice_assign(c, &mut buf);
            assert_eq!(buf, expect, "c={c}");
        }
    }

    #[test]
    fn xor_into_matches_scalar() {
        let a: Vec<u8> = (0..103u8).collect();
        let b: Vec<u8> = (100..203u8).collect();
        let mut dst = vec![0xEEu8; a.len()];
        xor_into(&a, &b, &mut dst);
        for i in 0..a.len() {
            assert_eq!(dst[i], a[i] ^ b[i], "i={i}");
        }
    }

    #[test]
    fn xor_slice_matches_scalar() {
        let a: Vec<u8> = (0..100u8).collect();
        let mut b: Vec<u8> = (100..200u8).collect();
        let expect: Vec<u8> = a.iter().zip(b.iter()).map(|(x, y)| x ^ y).collect();
        xor_slice(&a, &mut b);
        assert_eq!(b, expect);
    }
}

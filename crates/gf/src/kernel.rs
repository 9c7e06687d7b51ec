//! Runtime-dispatched slice-kernel backends: split-nibble SIMD where the
//! host supports it, portable word-wide code everywhere else.
//!
//! # Design
//!
//! Every public slice kernel in the crate root ([`crate::mul_slice`],
//! [`crate::mul_add_slice`], [`crate::xor_slice`], [`crate::xor_into`])
//! funnels through one
//! function-pointer vtable (`Kernels`) selected once at first use and
//! cached in an atomic. Five tiers exist:
//!
//! * **`avx2`** — 32 products per `_mm256_shuffle_epi8` pair (x86_64).
//! * **`ssse3`** — 16 products per `_mm_shuffle_epi8` pair (x86_64).
//! * **`neon`** — 16 products per `vqtbl1q_u8` pair (aarch64).
//! * **`portable`** — unrolled 256-entry-row lookups for multiplies and
//!   8-bytes-at-a-time `u64` words for XOR; compiles everywhere.
//! * **`scalar`** — the one-byte-at-a-time reference the equivalence
//!   suite measures every other tier against (see [`crate::reference`]).
//!
//! The SIMD multiplies use the *split-nibble* construction: GF(2^8)
//! multiplication distributes over XOR, so the product `c · b` splits
//! into `c · (b & 0xf) ⊕ c · (b & 0xf0)` — two 16-entry table lookups
//! ([`tables::NIB_LO`]/[`tables::NIB_HI`]) that a byte-shuffle
//! instruction evaluates for a whole vector register at once.
//!
//! # Invariant
//!
//! **All tiers are byte-identical.** Dispatch may legally change at any
//! moment (the tests swap tiers mid-process); no observable output of
//! the simulator may depend on which tier ran. The cross-tier property
//! suite (`crates/gf/tests/`) and the golden reruns
//! (`tests/golden_equivalence.rs`) pin this.
//!
//! # Selection
//!
//! The first kernel call resolves the tier: the `TSUE_GF_KERNEL`
//! environment variable, when set, **forces** a tier (`scalar`,
//! `portable`, `ssse3`, `avx2`, `neon`, or `native` for
//! detect-the-best); otherwise the best tier the CPU supports wins
//! (`is_x86_feature_detected!` on x86_64). Forcing a tier the host
//! cannot run panics loudly — a silent fallback would let a CI matrix
//! think it covered a backend it never executed. [`set_kernel_tier`]
//! swaps tiers programmatically (benchmarks and the equivalence suite).

use crate::tables::{self, MUL_TABLE};
use std::sync::atomic::{AtomicU8, Ordering};

/// One selectable kernel backend. Ordering is by preference: higher
/// discriminants are wider (faster) backends.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum KernelTier {
    /// Byte-at-a-time reference loops.
    Scalar = 0,
    /// Unrolled table-row multiplies + `u64`-word XOR; no `std::arch`.
    Portable = 1,
    /// x86_64 split-nibble via 128-bit `_mm_shuffle_epi8`.
    Ssse3 = 2,
    /// x86_64 split-nibble via 256-bit `_mm256_shuffle_epi8`.
    Avx2 = 3,
    /// aarch64 split-nibble via `vqtbl1q_u8`.
    Neon = 4,
}

impl KernelTier {
    /// Every tier, in ascending preference order.
    pub const ALL: [KernelTier; 5] = [
        KernelTier::Scalar,
        KernelTier::Portable,
        KernelTier::Ssse3,
        KernelTier::Avx2,
        KernelTier::Neon,
    ];

    /// The tier's stable lower-case name (`scalar`, `portable`, `ssse3`,
    /// `avx2`, `neon`) — the vocabulary of `TSUE_GF_KERNEL`, the bench
    /// report, and the metrics surface.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Portable => "portable",
            KernelTier::Ssse3 => "ssse3",
            KernelTier::Avx2 => "avx2",
            KernelTier::Neon => "neon",
        }
    }

    /// Parses a tier name (the inverse of [`Self::name`]).
    #[must_use]
    pub fn parse(s: &str) -> Option<KernelTier> {
        KernelTier::ALL.into_iter().find(|t| t.name() == s)
    }

    /// Whether this tier can run on the current host (compiled in *and*
    /// its CPU features are present).
    #[must_use]
    pub fn is_supported(self) -> bool {
        match self {
            KernelTier::Scalar | KernelTier::Portable => true,
            KernelTier::Ssse3 => cfg!(target_arch = "x86_64") && has_x86_feature("ssse3"),
            KernelTier::Avx2 => cfg!(target_arch = "x86_64") && has_x86_feature("avx2"),
            KernelTier::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    /// Every tier the current host supports, ascending preference.
    #[must_use]
    pub fn available() -> Vec<KernelTier> {
        KernelTier::ALL
            .into_iter()
            .filter(|t| t.is_supported())
            .collect()
    }

    /// The widest tier the current host supports.
    #[must_use]
    pub fn best() -> KernelTier {
        *KernelTier::available()
            .last()
            .expect("portable always runs")
    }

    fn from_u8(v: u8) -> KernelTier {
        KernelTier::ALL[v as usize]
    }
}

#[cfg(target_arch = "x86_64")]
fn has_x86_feature(feature: &str) -> bool {
    match feature {
        "ssse3" => std::arch::is_x86_feature_detected!("ssse3"),
        "avx2" => std::arch::is_x86_feature_detected!("avx2"),
        _ => false,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn has_x86_feature(_feature: &str) -> bool {
    false
}

/// SIMD-relevant CPU features detected on this host, by stable name.
/// Recorded in bench reports so trajectories across hosts stay
/// interpretable.
#[must_use]
pub fn cpu_features() -> Vec<&'static str> {
    let mut out = Vec::new();
    if cfg!(target_arch = "x86_64") {
        for f in ["ssse3", "avx2"] {
            if has_x86_feature(f) {
                out.push(f);
            }
        }
    }
    if cfg!(target_arch = "aarch64") {
        out.push("neon");
    }
    out
}

/// The per-tier function-pointer vtable. The `c == 0` / `c == 1` fast
/// paths live in the crate-root wrappers, so multiply backends may
/// assume a non-trivial coefficient (they stay correct for any `c`).
pub(crate) struct Kernels {
    pub(crate) tier: KernelTier,
    pub(crate) mul_slice: fn(u8, &[u8], &mut [u8]),
    pub(crate) mul_add_slice: fn(u8, &[u8], &mut [u8]),
    pub(crate) xor_slice: fn(&[u8], &mut [u8]),
    pub(crate) xor_into: fn(&[u8], &[u8], &mut [u8]),
}

static SCALAR: Kernels = Kernels {
    tier: KernelTier::Scalar,
    mul_slice: scalar::mul_slice,
    mul_add_slice: scalar::mul_add_slice,
    xor_slice: scalar::xor_slice,
    xor_into: scalar::xor_into,
};

static PORTABLE: Kernels = Kernels {
    tier: KernelTier::Portable,
    mul_slice: portable::mul_slice,
    mul_add_slice: portable::mul_add_slice,
    xor_slice: portable::xor_slice,
    xor_into: portable::xor_into,
};

#[cfg(target_arch = "x86_64")]
static SSSE3: Kernels = Kernels {
    tier: KernelTier::Ssse3,
    mul_slice: x86::mul_slice_ssse3,
    mul_add_slice: x86::mul_add_slice_ssse3,
    xor_slice: x86::xor_slice_sse2,
    xor_into: x86::xor_into_sse2,
};

#[cfg(target_arch = "x86_64")]
static AVX2: Kernels = Kernels {
    tier: KernelTier::Avx2,
    mul_slice: x86::mul_slice_avx2,
    mul_add_slice: x86::mul_add_slice_avx2,
    xor_slice: x86::xor_slice_avx2,
    xor_into: x86::xor_into_avx2,
};

#[cfg(target_arch = "aarch64")]
static NEON: Kernels = Kernels {
    tier: KernelTier::Neon,
    mul_slice: neon::mul_slice_neon,
    mul_add_slice: neon::mul_add_slice_neon,
    xor_slice: neon::xor_slice_neon,
    xor_into: neon::xor_into_neon,
};

fn table_for(tier: KernelTier) -> &'static Kernels {
    match tier {
        KernelTier::Scalar => &SCALAR,
        KernelTier::Portable => &PORTABLE,
        #[cfg(target_arch = "x86_64")]
        KernelTier::Ssse3 => &SSSE3,
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => &AVX2,
        #[cfg(target_arch = "aarch64")]
        KernelTier::Neon => &NEON,
        #[allow(unreachable_patterns)] // arms above are cfg-gated
        _ => &PORTABLE,
    }
}

/// `u8::MAX` = not yet resolved; otherwise a `KernelTier` discriminant.
static ACTIVE: AtomicU8 = AtomicU8::new(u8::MAX);

/// The currently active vtable, resolving the tier on first use.
#[inline]
pub(crate) fn active() -> &'static Kernels {
    match ACTIVE.load(Ordering::Relaxed) {
        u8::MAX => resolve_default(),
        v => table_for(KernelTier::from_u8(v)),
    }
}

/// Cold path of [`active`]: applies `TSUE_GF_KERNEL` or feature
/// detection, publishes the choice, and returns the vtable. Races
/// between threads are benign — every contender computes the same tier.
#[cold]
fn resolve_default() -> &'static Kernels {
    let tier = match std::env::var("TSUE_GF_KERNEL") {
        Err(_) => KernelTier::best(),
        Ok(v) if v.is_empty() || v == "native" || v == "auto" => KernelTier::best(),
        Ok(v) => {
            let tier = KernelTier::parse(&v).unwrap_or_else(|| {
                panic!(
                    "TSUE_GF_KERNEL={v:?} is not a kernel tier \
                     (expected scalar|portable|ssse3|avx2|neon|native)"
                )
            });
            assert!(
                tier.is_supported(),
                "TSUE_GF_KERNEL={v:?} forces a tier this host cannot run \
                 (detected features: {:?})",
                cpu_features()
            );
            tier
        }
    };
    ACTIVE.store(tier as u8, Ordering::Relaxed);
    table_for(tier)
}

/// The tier the slice kernels currently dispatch to.
#[must_use]
pub fn kernel_tier() -> KernelTier {
    active().tier
}

/// Forces dispatch onto `tier` for the rest of the process (or until the
/// next call). Used by the equivalence suites and the per-tier bench
/// rows; safe to call at any time because all tiers produce identical
/// bytes.
///
/// # Errors
/// Returns the unsupported tier's name if this host cannot run it.
pub fn set_kernel_tier(tier: KernelTier) -> Result<(), String> {
    if !tier.is_supported() {
        return Err(format!(
            "kernel tier '{}' is not supported on this host (detected: {:?})",
            tier.name(),
            cpu_features()
        ));
    }
    ACTIVE.store(tier as u8, Ordering::Relaxed);
    Ok(())
}

/// The byte-at-a-time reference kernels. Public (re-exported as
/// [`crate::reference`]) so equivalence suites can compare any tier
/// against ground truth without touching the dispatcher.
pub mod reference {
    use super::MUL_TABLE;

    /// `dst[i] = c * src[i]`, one table lookup per byte.
    pub fn mul_slice(c: u8, src: &[u8], dst: &mut [u8]) {
        let row = &MUL_TABLE[c as usize];
        for (s, d) in src.iter().zip(dst.iter_mut()) {
            *d = row[*s as usize];
        }
    }

    /// `dst[i] ^= c * src[i]`, one table lookup per byte.
    pub fn mul_add_slice(c: u8, src: &[u8], dst: &mut [u8]) {
        let row = &MUL_TABLE[c as usize];
        for (s, d) in src.iter().zip(dst.iter_mut()) {
            *d ^= row[*s as usize];
        }
    }

    /// `dst[i] ^= src[i]`, one byte at a time.
    pub fn xor_slice(src: &[u8], dst: &mut [u8]) {
        for (s, d) in src.iter().zip(dst.iter_mut()) {
            *d ^= *s;
        }
    }

    /// `dst[i] = a[i] ^ b[i]`, one byte at a time.
    pub fn xor_into(a: &[u8], b: &[u8], dst: &mut [u8]) {
        for ((x, y), d) in a.iter().zip(b.iter()).zip(dst.iter_mut()) {
            *d = *x ^ *y;
        }
    }
}

use reference as scalar;

/// The no-`std::arch` tier: multiplies walk a 256-entry product row
/// unrolled by 8, XOR runs on `u64` words with a byte remainder loop.
/// `pub(crate)` so the crate-root XOR wrappers can take this path
/// inline for short slices, skipping the dispatch indirection.
pub(crate) mod portable {
    use super::MUL_TABLE;

    pub(super) fn mul_slice(c: u8, src: &[u8], dst: &mut [u8]) {
        let row = &MUL_TABLE[c as usize];
        let mut src_chunks = src.chunks_exact(8);
        let mut dst_chunks = dst.chunks_exact_mut(8);
        for (s, d) in (&mut src_chunks).zip(&mut dst_chunks) {
            d[0] = row[s[0] as usize];
            d[1] = row[s[1] as usize];
            d[2] = row[s[2] as usize];
            d[3] = row[s[3] as usize];
            d[4] = row[s[4] as usize];
            d[5] = row[s[5] as usize];
            d[6] = row[s[6] as usize];
            d[7] = row[s[7] as usize];
        }
        for (s, d) in src_chunks
            .remainder()
            .iter()
            .zip(dst_chunks.into_remainder())
        {
            *d = row[*s as usize];
        }
    }

    pub(super) fn mul_add_slice(c: u8, src: &[u8], dst: &mut [u8]) {
        let row = &MUL_TABLE[c as usize];
        let mut src_chunks = src.chunks_exact(8);
        let mut dst_chunks = dst.chunks_exact_mut(8);
        for (s, d) in (&mut src_chunks).zip(&mut dst_chunks) {
            d[0] ^= row[s[0] as usize];
            d[1] ^= row[s[1] as usize];
            d[2] ^= row[s[2] as usize];
            d[3] ^= row[s[3] as usize];
            d[4] ^= row[s[4] as usize];
            d[5] ^= row[s[5] as usize];
            d[6] ^= row[s[6] as usize];
            d[7] ^= row[s[7] as usize];
        }
        for (s, d) in src_chunks
            .remainder()
            .iter()
            .zip(dst_chunks.into_remainder())
        {
            *d ^= row[*s as usize];
        }
    }

    #[inline]
    pub(crate) fn xor_slice(src: &[u8], dst: &mut [u8]) {
        let mut src_chunks = src.chunks_exact(8);
        let mut dst_chunks = dst.chunks_exact_mut(8);
        for (s, d) in (&mut src_chunks).zip(&mut dst_chunks) {
            let sv = u64::from_ne_bytes(s.try_into().expect("chunks_exact(8) yields 8 bytes"));
            let dv = u64::from_ne_bytes((&*d).try_into().expect("chunks_exact(8) yields 8 bytes"));
            d.copy_from_slice(&(sv ^ dv).to_ne_bytes());
        }
        for (s, d) in src_chunks
            .remainder()
            .iter()
            .zip(dst_chunks.into_remainder())
        {
            *d ^= *s;
        }
    }

    #[inline]
    pub(crate) fn xor_into(a: &[u8], b: &[u8], dst: &mut [u8]) {
        let mut ac = a.chunks_exact(8);
        let mut bc = b.chunks_exact(8);
        let mut dc = dst.chunks_exact_mut(8);
        for ((s, t), d) in (&mut ac).zip(&mut bc).zip(&mut dc) {
            let sv = u64::from_ne_bytes(s.try_into().expect("chunks_exact(8) yields 8 bytes"));
            let tv = u64::from_ne_bytes(t.try_into().expect("chunks_exact(8) yields 8 bytes"));
            d.copy_from_slice(&(sv ^ tv).to_ne_bytes());
        }
        for ((s, t), d) in ac
            .remainder()
            .iter()
            .zip(bc.remainder())
            .zip(dc.into_remainder())
        {
            *d = s ^ t;
        }
    }
}

/// x86_64 backends. SSSE3 (`pshufb`) drives the 128-bit split-nibble
/// multiplies, AVX2 the 256-bit ones; XOR uses baseline SSE2 at the
/// SSSE3 tier. Every entry point is a safe wrapper that proves the
/// required feature before entering the `#[target_feature]` body, and
/// every vector loop hands its sub-register tail to the portable code.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{portable, tables};
    use core::arch::x86_64::*;

    // ---- SSSE3 split-nibble multiply ----

    /// 16 products at once: low/high nibble table shuffles XORed.
    ///
    /// # Safety
    /// Caller must have verified SSSE3 support.
    // SAFETY: register-only and/shift/shuffle/xor intrinsics — no memory
    // access; sound whenever SSSE3 is present, which the contract gives.
    #[inline]
    #[target_feature(enable = "ssse3")]
    unsafe fn mul16(lo: __m128i, hi: __m128i, mask: __m128i, x: __m128i) -> __m128i {
        let xl = _mm_and_si128(x, mask);
        let xh = _mm_and_si128(_mm_srli_epi64::<4>(x), mask);
        _mm_xor_si128(_mm_shuffle_epi8(lo, xl), _mm_shuffle_epi8(hi, xh))
    }

    /// # Safety
    /// Caller must have verified SSSE3 support.
    // SAFETY: table loads read exactly 16 bytes from the `[u8; 16]` rows
    // of NIB_LO/NIB_HI; loop loads/stores are unaligned 16-byte accesses
    // at `i` with `i + 16 <= n <= src.len() == dst.len()` (lengths
    // asserted equal by the public wrappers).
    #[target_feature(enable = "ssse3")]
    unsafe fn mul_slice_ssse3_impl(c: u8, src: &[u8], dst: &mut [u8]) {
        let lo = _mm_loadu_si128(tables::NIB_LO[c as usize].as_ptr().cast());
        let hi = _mm_loadu_si128(tables::NIB_HI[c as usize].as_ptr().cast());
        let mask = _mm_set1_epi8(0x0f);
        let n = src.len() & !15;
        let mut i = 0;
        while i < n {
            let x = _mm_loadu_si128(src.as_ptr().add(i).cast());
            _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), mul16(lo, hi, mask, x));
            i += 16;
        }
        portable::mul_slice(c, &src[n..], &mut dst[n..]);
    }

    /// # Safety
    /// Caller must have verified SSSE3 support.
    // SAFETY: bounds as in mul_slice_ssse3_impl — 16-byte rows for the
    // tables, `i + 16 <= n <= src.len() == dst.len()` for the loop; the
    // extra dst load reads the same in-bounds 16 bytes the store writes.
    #[target_feature(enable = "ssse3")]
    unsafe fn mul_add_slice_ssse3_impl(c: u8, src: &[u8], dst: &mut [u8]) {
        let lo = _mm_loadu_si128(tables::NIB_LO[c as usize].as_ptr().cast());
        let hi = _mm_loadu_si128(tables::NIB_HI[c as usize].as_ptr().cast());
        let mask = _mm_set1_epi8(0x0f);
        let n = src.len() & !15;
        let mut i = 0;
        while i < n {
            let x = _mm_loadu_si128(src.as_ptr().add(i).cast());
            let d = _mm_loadu_si128(dst.as_ptr().add(i).cast());
            let p = mul16(lo, hi, mask, x);
            _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), _mm_xor_si128(d, p));
            i += 16;
        }
        portable::mul_add_slice(c, &src[n..], &mut dst[n..]);
    }

    pub(super) fn mul_slice_ssse3(c: u8, src: &[u8], dst: &mut [u8]) {
        // SAFETY: this fn is only reachable through the ssse3 vtable,
        // installed after `is_x86_feature_detected!("ssse3")`.
        unsafe { mul_slice_ssse3_impl(c, src, dst) }
    }

    pub(super) fn mul_add_slice_ssse3(c: u8, src: &[u8], dst: &mut [u8]) {
        // SAFETY: as above — ssse3 verified before vtable install.
        unsafe { mul_add_slice_ssse3_impl(c, src, dst) }
    }

    // ---- AVX2 split-nibble multiply ----

    /// 32 products at once.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support.
    // SAFETY: register-only 256-bit and/shift/shuffle/xor — no memory
    // access; sound whenever AVX2 is present, which the contract gives.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul32(lo: __m256i, hi: __m256i, mask: __m256i, x: __m256i) -> __m256i {
        let xl = _mm256_and_si256(x, mask);
        let xh = _mm256_and_si256(_mm256_srli_epi64::<4>(x), mask);
        _mm256_xor_si256(_mm256_shuffle_epi8(lo, xl), _mm256_shuffle_epi8(hi, xh))
    }

    /// Both 16-entry tables broadcast to 256-bit lanes.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support.
    // SAFETY: the two loads read exactly 16 bytes from the `[u8; 16]`
    // rows of NIB_LO/NIB_HI; the broadcasts are register-only.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tables256(c: u8) -> (__m256i, __m256i) {
        let lo = _mm_loadu_si128(tables::NIB_LO[c as usize].as_ptr().cast());
        let hi = _mm_loadu_si128(tables::NIB_HI[c as usize].as_ptr().cast());
        (
            _mm256_broadcastsi128_si256(lo),
            _mm256_broadcastsi128_si256(hi),
        )
    }

    /// # Safety
    /// Caller must have verified AVX2 support.
    // SAFETY: unaligned 32-byte loads/stores at `i` with
    // `i + 32 <= n <= src.len() == dst.len()` (lengths asserted equal by
    // the public wrappers); the sub-32 tail goes to the SSSE3 impl, whose
    // contract holds because AVX2 implies SSSE3.
    #[target_feature(enable = "avx2")]
    unsafe fn mul_slice_avx2_impl(c: u8, src: &[u8], dst: &mut [u8]) {
        let (lo, hi) = tables256(c);
        let mask = _mm256_set1_epi8(0x0f);
        let n = src.len() & !31;
        let mut i = 0;
        while i < n {
            let x = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), mul32(lo, hi, mask, x));
            i += 32;
        }
        mul_slice_ssse3_impl(c, &src[n..], &mut dst[n..]);
    }

    /// # Safety
    /// Caller must have verified AVX2 support.
    // SAFETY: bounds as in mul_slice_avx2_impl; the extra dst load reads
    // the same in-bounds 32 bytes the store writes; AVX2 implies SSSE3
    // for the tail call.
    #[target_feature(enable = "avx2")]
    unsafe fn mul_add_slice_avx2_impl(c: u8, src: &[u8], dst: &mut [u8]) {
        let (lo, hi) = tables256(c);
        let mask = _mm256_set1_epi8(0x0f);
        let n = src.len() & !31;
        let mut i = 0;
        while i < n {
            let x = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
            let p = mul32(lo, hi, mask, x);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), _mm256_xor_si256(d, p));
            i += 32;
        }
        mul_add_slice_ssse3_impl(c, &src[n..], &mut dst[n..]);
    }

    pub(super) fn mul_slice_avx2(c: u8, src: &[u8], dst: &mut [u8]) {
        // SAFETY: this fn is only reachable through the avx2 vtable,
        // installed after `is_x86_feature_detected!("avx2")` (which
        // implies ssse3 for the tail path).
        unsafe { mul_slice_avx2_impl(c, src, dst) }
    }

    pub(super) fn mul_add_slice_avx2(c: u8, src: &[u8], dst: &mut [u8]) {
        // SAFETY: as above — avx2 verified before vtable install.
        unsafe { mul_add_slice_avx2_impl(c, src, dst) }
    }

    // ---- wide XOR ----

    pub(super) fn xor_slice_sse2(src: &[u8], dst: &mut [u8]) {
        let n = src.len() & !15;
        let mut i = 0;
        while i < n {
            // SAFETY: SSE2 is x86_64 baseline; `i + 16 <= n <= len` on
            // both slices (lengths asserted equal by the caller).
            unsafe {
                let s = _mm_loadu_si128(src.as_ptr().add(i).cast());
                let d = _mm_loadu_si128(dst.as_ptr().add(i).cast());
                _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), _mm_xor_si128(s, d));
            }
            i += 16;
        }
        portable::xor_slice(&src[n..], &mut dst[n..]);
    }

    pub(super) fn xor_into_sse2(a: &[u8], b: &[u8], dst: &mut [u8]) {
        let n = a.len() & !15;
        let mut i = 0;
        while i < n {
            // SAFETY: SSE2 is x86_64 baseline; bounds as in xor_slice.
            unsafe {
                let x = _mm_loadu_si128(a.as_ptr().add(i).cast());
                let y = _mm_loadu_si128(b.as_ptr().add(i).cast());
                _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), _mm_xor_si128(x, y));
            }
            i += 16;
        }
        portable::xor_into(&a[n..], &b[n..], &mut dst[n..]);
    }

    /// # Safety
    /// Caller must have verified AVX2 support.
    // SAFETY: unaligned 32-byte loads/stores at `i` with
    // `i + 32 <= n <= src.len() == dst.len()` (lengths asserted equal by
    // the public wrappers); tail handled by portable code.
    #[target_feature(enable = "avx2")]
    unsafe fn xor_slice_avx2_impl(src: &[u8], dst: &mut [u8]) {
        let n = src.len() & !31;
        let mut i = 0;
        while i < n {
            let s = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), _mm256_xor_si256(s, d));
            i += 32;
        }
        portable::xor_slice(&src[n..], &mut dst[n..]);
    }

    /// # Safety
    /// Caller must have verified AVX2 support.
    // SAFETY: three-slice variant — all three are at least `a.len()`
    // long (asserted by the public wrappers), so the 32-byte accesses at
    // `i < n <= a.len()` are in bounds on each.
    #[target_feature(enable = "avx2")]
    unsafe fn xor_into_avx2_impl(a: &[u8], b: &[u8], dst: &mut [u8]) {
        let n = a.len() & !31;
        let mut i = 0;
        while i < n {
            let x = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            let y = _mm256_loadu_si256(b.as_ptr().add(i).cast());
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), _mm256_xor_si256(x, y));
            i += 32;
        }
        portable::xor_into(&a[n..], &b[n..], &mut dst[n..]);
    }

    pub(super) fn xor_slice_avx2(src: &[u8], dst: &mut [u8]) {
        // SAFETY: avx2 verified before vtable install.
        unsafe { xor_slice_avx2_impl(src, dst) }
    }

    pub(super) fn xor_into_avx2(a: &[u8], b: &[u8], dst: &mut [u8]) {
        // SAFETY: avx2 verified before vtable install.
        unsafe { xor_into_avx2_impl(a, b, dst) }
    }
}

/// aarch64 backend: split-nibble multiplies via `vqtbl1q_u8` (NEON is
/// baseline on aarch64, so no runtime detection is needed).
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{portable, tables};
    use core::arch::aarch64::*;

    /// 16 products at once. `vshrq_n_u8` shifts each byte lane
    /// logically, so the high nibble needs no mask.
    ///
    /// # Safety
    /// NEON must be available (always true on aarch64).
    // SAFETY: register-only and/shift/table-lookup/xor intrinsics — no
    // memory access; NEON is baseline on aarch64.
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn mul16(lo: uint8x16_t, hi: uint8x16_t, x: uint8x16_t) -> uint8x16_t {
        let xl = vandq_u8(x, vdupq_n_u8(0x0f));
        let xh = vshrq_n_u8::<4>(x);
        veorq_u8(vqtbl1q_u8(lo, xl), vqtbl1q_u8(hi, xh))
    }

    /// # Safety
    /// NEON must be available (always true on aarch64).
    // SAFETY: table loads read exactly 16 bytes from the `[u8; 16]` rows
    // of NIB_LO/NIB_HI; loop loads/stores access 16 bytes at `i` with
    // `i + 16 <= n <= src.len() == dst.len()` (lengths asserted equal by
    // the public wrappers).
    #[target_feature(enable = "neon")]
    unsafe fn mul_slice_neon_impl(c: u8, src: &[u8], dst: &mut [u8]) {
        let lo = vld1q_u8(tables::NIB_LO[c as usize].as_ptr());
        let hi = vld1q_u8(tables::NIB_HI[c as usize].as_ptr());
        let n = src.len() & !15;
        let mut i = 0;
        while i < n {
            let x = vld1q_u8(src.as_ptr().add(i));
            vst1q_u8(dst.as_mut_ptr().add(i), mul16(lo, hi, x));
            i += 16;
        }
        portable::mul_slice(c, &src[n..], &mut dst[n..]);
    }

    /// # Safety
    /// NEON must be available (always true on aarch64).
    // SAFETY: bounds as in mul_slice_neon_impl; the extra dst load reads
    // the same in-bounds 16 bytes the store writes.
    #[target_feature(enable = "neon")]
    unsafe fn mul_add_slice_neon_impl(c: u8, src: &[u8], dst: &mut [u8]) {
        let lo = vld1q_u8(tables::NIB_LO[c as usize].as_ptr());
        let hi = vld1q_u8(tables::NIB_HI[c as usize].as_ptr());
        let n = src.len() & !15;
        let mut i = 0;
        while i < n {
            let x = vld1q_u8(src.as_ptr().add(i));
            let d = vld1q_u8(dst.as_ptr().add(i));
            vst1q_u8(dst.as_mut_ptr().add(i), veorq_u8(d, mul16(lo, hi, x)));
            i += 16;
        }
        portable::mul_add_slice(c, &src[n..], &mut dst[n..]);
    }

    /// # Safety
    /// NEON must be available (always true on aarch64).
    // SAFETY: 16-byte loads/stores at `i` with
    // `i + 16 <= n <= src.len() == dst.len()` (lengths asserted equal by
    // the public wrappers); tail handled by portable code.
    #[target_feature(enable = "neon")]
    unsafe fn xor_slice_neon_impl(src: &[u8], dst: &mut [u8]) {
        let n = src.len() & !15;
        let mut i = 0;
        while i < n {
            let s = vld1q_u8(src.as_ptr().add(i));
            let d = vld1q_u8(dst.as_ptr().add(i));
            vst1q_u8(dst.as_mut_ptr().add(i), veorq_u8(s, d));
            i += 16;
        }
        portable::xor_slice(&src[n..], &mut dst[n..]);
    }

    /// # Safety
    /// NEON must be available (always true on aarch64).
    // SAFETY: three-slice variant — all three are at least `a.len()`
    // long (asserted by the public wrappers), so the 16-byte accesses at
    // `i < n <= a.len()` are in bounds on each.
    #[target_feature(enable = "neon")]
    unsafe fn xor_into_neon_impl(a: &[u8], b: &[u8], dst: &mut [u8]) {
        let n = a.len() & !15;
        let mut i = 0;
        while i < n {
            let x = vld1q_u8(a.as_ptr().add(i));
            let y = vld1q_u8(b.as_ptr().add(i));
            vst1q_u8(dst.as_mut_ptr().add(i), veorq_u8(x, y));
            i += 16;
        }
        portable::xor_into(&a[n..], &b[n..], &mut dst[n..]);
    }

    pub(super) fn mul_slice_neon(c: u8, src: &[u8], dst: &mut [u8]) {
        // SAFETY: NEON is baseline on aarch64.
        unsafe { mul_slice_neon_impl(c, src, dst) }
    }

    pub(super) fn mul_add_slice_neon(c: u8, src: &[u8], dst: &mut [u8]) {
        // SAFETY: NEON is baseline on aarch64.
        unsafe { mul_add_slice_neon_impl(c, src, dst) }
    }

    pub(super) fn xor_slice_neon(src: &[u8], dst: &mut [u8]) {
        // SAFETY: NEON is baseline on aarch64.
        unsafe { xor_slice_neon_impl(src, dst) }
    }

    pub(super) fn xor_into_neon(a: &[u8], b: &[u8], dst: &mut [u8]) {
        // SAFETY: NEON is baseline on aarch64.
        unsafe { xor_into_neon_impl(a, b, dst) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names_round_trip() {
        for t in KernelTier::ALL {
            assert_eq!(KernelTier::parse(t.name()), Some(t));
        }
        assert_eq!(KernelTier::parse("mmx"), None);
    }

    #[test]
    fn best_is_last_available_and_always_exists() {
        let avail = KernelTier::available();
        assert!(avail.contains(&KernelTier::Scalar));
        assert!(avail.contains(&KernelTier::Portable));
        assert_eq!(KernelTier::best(), *avail.last().unwrap());
    }

    #[test]
    fn set_kernel_tier_rejects_unsupported() {
        let unsupported: Vec<_> = KernelTier::ALL
            .into_iter()
            .filter(|t| !t.is_supported())
            .collect();
        for t in unsupported {
            assert!(set_kernel_tier(t).is_err(), "{t:?}");
        }
    }
}

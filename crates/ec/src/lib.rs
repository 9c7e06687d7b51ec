//! Systematic Reed–Solomon erasure coding with incremental-update algebra.
//!
//! The codec implements the stripe model of the paper: `k` data blocks
//! generate `m` parity blocks via a generator matrix over GF(2^8)
//! (paper Eq. (1)); any `k` of the `k + m` blocks reconstruct the rest.
//!
//! On top of plain encode/reconstruct, the crate exposes the *incremental
//! update* algebra every parity-logging scheme builds on:
//!
//! * [`data_delta_into`] — the data delta `ΔD = D_new ⊕ D_old`; Eq. (3)/(4):
//!   same-offset deltas fold by XOR, so only the accumulated difference
//!   against the *original* data matters,
//! * [`RsCode::parity_delta_into`] — Eq. (2): `ΔP_j = ∂_{j,i} · ΔD_i`,
//! * [`RsCode::fill_combined_parity_delta`] — Eq. (5): data deltas from
//!   several blocks of the same stripe at the same offset combine into a
//!   single parity delta per parity block.
//!
//! Every form writes into caller-provided buffers.

pub mod stripe;

pub use stripe::{StripeConfig, StripeLayout};

use tsue_gf::Matrix;

/// Errors reported by the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcError {
    /// Fewer than `k` shards survive; reconstruction is impossible.
    TooFewShards { present: usize, needed: usize },
    /// Shard buffers have inconsistent lengths.
    ShardSizeMismatch,
    /// Invalid parameters (e.g. k = 0, k + m > 255).
    InvalidParameters(String),
    /// Shard index out of range.
    BadIndex(usize),
}

impl std::fmt::Display for EcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EcError::TooFewShards { present, needed } => {
                write!(f, "too few shards: {present} present, {needed} needed")
            }
            EcError::ShardSizeMismatch => write!(f, "shard size mismatch"),
            EcError::InvalidParameters(s) => write!(f, "invalid parameters: {s}"),
            EcError::BadIndex(i) => write!(f, "shard index {i} out of range"),
        }
    }
}

impl std::error::Error for EcError {}

/// A systematic Reed–Solomon code RS(k, m).
///
/// The generator matrix is `[ I_k ; C ]` where `C` is a `m × k` Cauchy
/// matrix, so every combination of `k` surviving rows is invertible (the MDS
/// property) and data blocks are stored verbatim.
#[derive(Clone, Debug)]
pub struct RsCode {
    k: usize,
    m: usize,
    /// Full (k + m) × k generator matrix; top k rows are the identity.
    generator: Matrix,
}

impl RsCode {
    /// Creates an RS(k, m) code.
    ///
    /// # Errors
    /// Fails if `k == 0`, `m == 0`, or `k + m > 255`.
    pub fn new(k: usize, m: usize) -> Result<Self, EcError> {
        if k == 0 || m == 0 {
            return Err(EcError::InvalidParameters(
                "k and m must be positive".into(),
            ));
        }
        if k + m > 255 {
            return Err(EcError::InvalidParameters(format!(
                "k + m = {} exceeds field limit 255",
                k + m
            )));
        }
        let parity = Matrix::cauchy(m, k);
        let generator = Matrix::identity(k).stack(&parity);
        Ok(RsCode { k, m, generator })
    }

    /// Number of data blocks per stripe.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of parity blocks per stripe.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Total number of blocks per stripe.
    #[inline]
    pub fn n(&self) -> usize {
        self.k + self.m
    }

    /// The encoding coefficient `∂_{j,i}` that multiplies data block `i`
    /// into parity block `j` (paper Eq. (1)).
    #[inline]
    pub fn coefficient(&self, parity_index: usize, data_index: usize) -> u8 {
        debug_assert!(parity_index < self.m && data_index < self.k);
        self.generator.get(self.k + parity_index, data_index)
    }

    /// Encodes `k` data blocks into `m` parity blocks (paper Eq. (1)),
    /// written into caller-provided buffers (resized in place), so repeated
    /// encodes of same-size stripes perform zero allocations after the
    /// first call.
    ///
    /// # Errors
    /// Fails if the input count is not `k`, the output count is not `m`,
    /// or the data buffers differ in length.
    pub fn encode_into(&self, data: &[&[u8]], parity: &mut [Vec<u8>]) -> Result<(), EcError> {
        if data.len() != self.k {
            return Err(EcError::InvalidParameters(format!(
                "expected {} data blocks, got {}",
                self.k,
                data.len()
            )));
        }
        if parity.len() != self.m {
            return Err(EcError::InvalidParameters(format!(
                "expected {} parity buffers, got {}",
                self.m,
                parity.len()
            )));
        }
        let len = data[0].len();
        if data.iter().any(|d| d.len() != len) {
            return Err(EcError::ShardSizeMismatch);
        }
        for (j, out) in parity.iter_mut().enumerate() {
            out.resize(len, 0);
            for (i, &input) in data.iter().enumerate() {
                let c = self.coefficient(j, i);
                if i == 0 {
                    tsue_gf::mul_slice(c, input, out);
                } else {
                    tsue_gf::mul_add_slice(c, input, out);
                }
            }
        }
        Ok(())
    }

    /// The decode row for `target`: the coefficients that map the first
    /// `k` roles of `present` (`0..k` data, `k..k+m` parity) straight to
    /// role `target`, so `target = Σ row[i] · shard(present[i])`. A data
    /// target takes its row of the inverse of those roles' generator rows;
    /// a parity target takes its generator row times that inverse. With
    /// the `k` data roles present in order, a parity target's row is Eq.
    /// (1)'s [`RsCode::coefficient`] row.
    ///
    /// # Errors
    /// Fails if fewer than `k` roles are present, `target` is out of
    /// range, or a role used is out of range, equal to `target` or
    /// repeated.
    pub fn decode_row(&self, present: &[usize], target: usize) -> Result<Vec<u8>, EcError> {
        if target >= self.n() {
            return Err(EcError::BadIndex(target));
        }
        if present.len() < self.k {
            return Err(EcError::TooFewShards {
                present: present.len(),
                needed: self.k,
            });
        }
        let use_rows = &present[..self.k];
        if use_rows
            .iter()
            .any(|&role| role >= self.n() || role == target)
        {
            return Err(EcError::ShardSizeMismatch);
        }
        let decode = self
            .generator
            .select_rows(use_rows)
            .inverse()
            .ok_or_else(|| EcError::InvalidParameters("duplicate survivor roles".into()))?;
        Ok(if target < self.k {
            decode.row(target).to_vec()
        } else {
            let eff = self.generator.select_rows(&[target]).mul(&decode);
            eff.row(0).to_vec()
        })
    }

    /// Reconstructs exactly one missing block into a caller-provided
    /// buffer from borrowed survivor shards: [`RsCode::decode_row`], then
    /// one multiply-accumulate pass per shard. `present` pairs each
    /// surviving shard's role index with its bytes, and `out` is the only
    /// buffer written. The reference decode for the data plane's deferred
    /// one (`tsue_ecfs`'s `ClusterCore::reconstruct`).
    ///
    /// # Errors
    /// Fails as [`RsCode::decode_row`] does, or if a shard's length
    /// differs from `out`'s.
    pub fn reconstruct_one(
        &self,
        present: &[(usize, &[u8])],
        target: usize,
        out: &mut [u8],
    ) -> Result<(), EcError> {
        let roles: Vec<usize> = present.iter().map(|&(role, _)| role).collect();
        let coeffs = self.decode_row(&roles, target)?;
        let use_shards = &present[..self.k];
        if use_shards
            .iter()
            .any(|&(_, shard)| shard.len() != out.len())
        {
            return Err(EcError::ShardSizeMismatch);
        }
        for (i, &(_, shard)) in use_shards.iter().enumerate() {
            if i == 0 {
                tsue_gf::mul_slice(coeffs[i], shard, out);
            } else {
                tsue_gf::mul_add_slice(coeffs[i], shard, out);
            }
        }
        Ok(())
    }

    /// Verifies that the parity shards are consistent with the data shards.
    ///
    /// # Errors
    /// Fails on size mismatch or wrong shard count.
    pub fn verify(&self, shards: &[Vec<u8>]) -> Result<bool, EcError> {
        if shards.len() != self.n() {
            return Err(EcError::InvalidParameters(format!(
                "expected {} shards, got {}",
                self.n(),
                shards.len()
            )));
        }
        let data: Vec<&[u8]> = shards[..self.k].iter().map(|v| v.as_slice()).collect();
        let mut parity = vec![Vec::new(); self.m];
        self.encode_into(&data, &mut parity)?;
        Ok(parity.iter().zip(&shards[self.k..]).all(|(a, b)| a == b))
    }

    /// Eq. (2): accumulates the parity delta of parity block
    /// `parity_index` for the data delta `ΔD = D_new ⊕ D_old` of data block
    /// `data_index` into `acc`: `acc ^= ∂_{j,i} · ΔD`. XORing `ΔP_j =
    /// ∂_{j,i} · ΔD_i` into the old parity yields the new parity.
    ///
    /// # Panics
    /// Panics if buffer lengths differ.
    pub fn parity_delta_into(
        &self,
        parity_index: usize,
        data_index: usize,
        data_delta: &[u8],
        acc: &mut [u8],
    ) {
        let c = self.coefficient(parity_index, data_index);
        tsue_gf::mul_add_slice(c, data_delta, acc);
    }

    /// Eq. (5): combines same-offset data deltas from several data blocks
    /// of one stripe into a single parity delta for parity `parity_index`,
    /// written into `out`: `Σ ∂_{j,i} · Δ_i` over the `(i, Δ_i)` pairs of
    /// `deltas`, one fused multiply-accumulate pass per contributing block.
    /// The first block multiplies straight into the buffer (no zero-fill,
    /// no read-modify on the first pass), so a recycled scratch buffer
    /// needs no clearing between uses.
    ///
    /// # Panics
    /// Panics if `deltas` is empty or any delta's length differs from
    /// `out`'s.
    pub fn fill_combined_parity_delta(
        &self,
        parity_index: usize,
        deltas: &[(usize, &[u8])],
        out: &mut [u8],
    ) {
        assert!(!deltas.is_empty(), "need at least one delta");
        let (first_index, first) = deltas[0];
        assert_eq!(first.len(), out.len(), "delta length mismatch");
        tsue_gf::mul_slice(self.coefficient(parity_index, first_index), first, out);
        for &(data_index, delta) in &deltas[1..] {
            assert_eq!(delta.len(), out.len(), "delta length mismatch");
            self.parity_delta_into(parity_index, data_index, delta, out);
        }
    }
}

/// Writes the data delta `new ⊕ old` into caller-provided scratch in one
/// pass (no intermediate copy of `new`). Eq. (3)/(4): same-offset deltas
/// fold by XOR, because deltas are differences against the *original*
/// data, so the *latest write wins* emerges from `new ⊕ old ⊕ old = new`.
///
/// # Panics
/// Panics if the buffers have different lengths.
pub fn data_delta_into(old: &[u8], new: &[u8], out: &mut [u8]) {
    tsue_gf::xor_into(old, new, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(k: usize, len: usize, seed: u8) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| (seed as usize + i * 31 + j * 7) as u8)
                    .collect()
            })
            .collect()
    }

    /// `data` followed by its `rs.m()` parity blocks.
    fn stripe(rs: &RsCode, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let mut parity = vec![Vec::new(); rs.m()];
        rs.encode_into(&refs, &mut parity).unwrap();
        data.iter().cloned().chain(parity).collect()
    }

    #[test]
    fn new_rejects_bad_parameters() {
        assert!(RsCode::new(0, 2).is_err());
        assert!(RsCode::new(4, 0).is_err());
        assert!(RsCode::new(200, 56).is_err());
        assert!(RsCode::new(6, 4).is_ok());
    }

    #[test]
    fn encode_then_verify() {
        let rs = RsCode::new(6, 3).unwrap();
        let mut shards = stripe(&rs, &blocks(6, 64, 3));
        assert_eq!(shards.len(), 9);
        assert!(rs.verify(&shards).unwrap());
        // Corrupt one byte: verify fails.
        shards[2][5] ^= 0xff;
        assert!(!rs.verify(&shards).unwrap());
    }

    #[test]
    fn reconstruct_all_loss_patterns_up_to_m() {
        let rs = RsCode::new(4, 2).unwrap();
        let full = stripe(&rs, &blocks(4, 32, 9));

        // All single and double losses, one decode per lost shard from
        // the first k survivors.
        for a in 0..6 {
            for b in a..6 {
                let survivors: Vec<(usize, &[u8])> = (0..6)
                    .filter(|&r| r != a && r != b)
                    .map(|r| (r, full[r].as_slice()))
                    .collect();
                for lost in [a, b] {
                    let mut out = vec![0u8; 32];
                    rs.reconstruct_one(&survivors, lost, &mut out).unwrap();
                    assert_eq!(out, full[lost], "loss ({a},{b}) slot {lost}");
                }
            }
        }
    }

    #[test]
    fn reconstruct_one_matches_full_reconstruct() {
        let rs = RsCode::new(4, 2).unwrap();
        let full = stripe(&rs, &blocks(4, 32, 13));

        // Rebuild every role from every window of k survivors.
        for target in 0..6 {
            let survivors: Vec<(usize, &[u8])> = (0..6)
                .filter(|&r| r != target)
                .map(|r| (r, full[r].as_slice()))
                .collect();
            for skip in 0..=1 {
                let chosen: Vec<(usize, &[u8])> =
                    survivors.iter().copied().skip(skip).take(4).collect();
                let mut out = vec![0u8; 32];
                rs.reconstruct_one(&chosen, target, &mut out).unwrap();
                assert_eq!(out, full[target], "target {target} skip {skip}");
            }
        }
    }

    #[test]
    fn reconstruct_one_rejects_bad_inputs() {
        let rs = RsCode::new(4, 2).unwrap();
        let data = blocks(4, 16, 2);
        let survivors: Vec<(usize, &[u8])> = data
            .iter()
            .enumerate()
            .map(|(r, v)| (r, v.as_slice()))
            .collect();
        let mut out = vec![0u8; 16];
        assert!(matches!(
            rs.reconstruct_one(&survivors[..3], 5, &mut out),
            Err(EcError::TooFewShards { .. })
        ));
        assert!(matches!(
            rs.reconstruct_one(&survivors, 9, &mut out),
            Err(EcError::BadIndex(9))
        ));
        // Target listed among the survivors is a caller bug.
        assert!(rs.reconstruct_one(&survivors, 0, &mut out).is_err());
        // The decode row makes the same checks, in the same order.
        assert!(matches!(
            rs.decode_row(&[0, 1, 2], 5),
            Err(EcError::TooFewShards {
                present: 3,
                needed: 4
            })
        ));
        assert!(matches!(
            rs.decode_row(&[0, 1, 2, 3], 9),
            Err(EcError::BadIndex(9))
        ));
        assert!(rs.decode_row(&[0, 1, 2, 3], 0).is_err(), "target present");
        assert!(
            rs.decode_row(&[0, 1, 2, 6], 4).is_err(),
            "role out of range"
        );
        assert!(matches!(
            rs.decode_row(&[0, 1, 1, 3], 4),
            Err(EcError::InvalidParameters(_))
        ));
    }

    #[test]
    fn decode_row_of_data_roles_is_the_encoding_row() {
        for (k, m) in [(4, 2), (6, 4), (10, 4)] {
            let rs = RsCode::new(k, m).unwrap();
            let data: Vec<usize> = (0..k).collect();
            for j in 0..m {
                let want: Vec<u8> = (0..k).map(|i| rs.coefficient(j, i)).collect();
                assert_eq!(
                    rs.decode_row(&data, k + j).unwrap(),
                    want,
                    "RS({k},{m}) parity {j}"
                );
            }
        }
    }

    #[test]
    fn reconstruct_fails_beyond_m() {
        let rs = RsCode::new(4, 2).unwrap();
        let full = stripe(&rs, &blocks(4, 16, 1));
        // Shards 0, 1 and 4 lost: three survivors for a k = 4 code.
        let survivors: Vec<(usize, &[u8])> =
            [2, 3, 5].iter().map(|&r| (r, full[r].as_slice())).collect();
        let mut out = vec![0u8; 16];
        assert!(matches!(
            rs.reconstruct_one(&survivors, 0, &mut out),
            Err(EcError::TooFewShards {
                present: 3,
                needed: 4
            })
        ));
    }

    #[test]
    fn incremental_update_matches_full_reencode() {
        let rs = RsCode::new(6, 4).unwrap();
        let mut data = blocks(6, 128, 7);
        let mut parity = stripe(&rs, &data).split_off(6);

        // Update bytes 10..20 of data block 2.
        let new: Vec<u8> = (0..10u8)
            .map(|x| x.wrapping_mul(37).wrapping_add(5))
            .collect();
        let mut delta = vec![0u8; 10];
        data_delta_into(&data[2][10..20], &new, &mut delta);
        data[2][10..20].copy_from_slice(&new);

        for (j, p) in parity.iter_mut().enumerate() {
            rs.parity_delta_into(j, 2, &delta, &mut p[10..20]);
        }

        assert_eq!(parity, stripe(&rs, &data).split_off(6));
    }

    #[test]
    fn repeated_updates_fold_to_latest() {
        // Eq. (4): N updates at the same offset collapse into one delta
        // against the original data.
        let original = vec![0u8; 8];
        let v1 = vec![1u8; 8];
        let v2 = vec![2u8; 8];
        let v3 = vec![9u8; 8];

        // Per-update deltas chained: d1 = v1^orig, d2 = v2^v1, d3 = v3^v2,
        // folded by XOR.
        let mut acc = vec![0u8; 8];
        let mut d = vec![0u8; 8];
        for (old, new) in [(&original, &v1), (&v1, &v2), (&v2, &v3)] {
            data_delta_into(old, new, &mut d);
            tsue_gf::xor_slice(&d, &mut acc);
        }
        data_delta_into(&original, &v3, &mut d);
        assert_eq!(acc, d);
    }

    #[test]
    fn combined_delta_equals_sum_of_individual_deltas() {
        // Eq. (5): combining deltas from blocks {0, 2, 3} at one offset.
        let rs = RsCode::new(4, 3).unwrap();
        let d0 = vec![0x11u8; 16];
        let d2 = vec![0x25u8; 16];
        let d3 = vec![0xa7u8; 16];
        for j in 0..3 {
            let mut combined = vec![0u8; 16];
            rs.fill_combined_parity_delta(j, &[(0, &d0), (2, &d2), (3, &d3)], &mut combined);
            let mut expect = vec![0u8; 16];
            for (i, d) in [(0, &d0), (2, &d2), (3, &d3)] {
                rs.parity_delta_into(j, i, d, &mut expect);
            }
            assert_eq!(combined, expect, "parity {j}");
        }
    }

    #[test]
    fn encode_into_reuses_buffers_and_matches_encode() {
        let rs = RsCode::new(5, 3).unwrap();
        let data = blocks(5, 96, 11);
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        // Eq. (1) byte by byte: P_j = Σ ∂_{j,i} · D_i.
        let expect: Vec<Vec<u8>> = (0..3)
            .map(|j| {
                (0..96)
                    .map(|x| {
                        (0..5).fold(0, |p, i| p ^ tsue_gf::mul(rs.coefficient(j, i), data[i][x]))
                    })
                    .collect()
            })
            .collect();
        // Pre-dirtied, wrong-size buffers must come out right.
        let mut parity = vec![vec![0xAAu8; 7]; 3];
        rs.encode_into(&refs, &mut parity).unwrap();
        assert_eq!(parity, expect);
        // Second call reuses the (now correctly sized) buffers.
        let caps: Vec<usize> = parity.iter().map(Vec::capacity).collect();
        rs.encode_into(&refs, &mut parity).unwrap();
        assert_eq!(parity, expect);
        let caps2: Vec<usize> = parity.iter().map(Vec::capacity).collect();
        assert_eq!(caps, caps2, "no reallocation on reuse");
        // Wrong output count is rejected.
        let mut short = vec![Vec::new(); 2];
        assert!(rs.encode_into(&refs, &mut short).is_err());
    }

    #[test]
    fn combined_parity_delta_into_accumulates() {
        let rs = RsCode::new(4, 3).unwrap();
        let d0 = vec![0x11u8; 16];
        let d2 = vec![0x25u8; 16];
        for j in 0..3 {
            let mut once = vec![0u8; 16];
            rs.fill_combined_parity_delta(j, &[(0, &d0), (2, &d2)], &mut once);
            assert!(once.iter().any(|&b| b != 0), "parity {j}");
            // Accumulation semantics: a second pass cancels (XOR algebra).
            let mut twice = vec![0u8; 16];
            let pairs = [(0, &d0[..]), (2, &d2[..]), (0, &d0[..]), (2, &d2[..])];
            rs.fill_combined_parity_delta(j, &pairs, &mut twice);
            assert!(twice.iter().all(|&b| b == 0), "parity {j} must cancel");
        }
    }

    #[test]
    fn fill_combined_parity_delta_overwrites_dirty_scratch() {
        let rs = RsCode::new(4, 2).unwrap();
        let d1 = vec![0x42u8; 32];
        let d3 = vec![0x9Eu8; 32];
        for j in 0..2 {
            let mut expect = vec![0u8; 32];
            rs.parity_delta_into(j, 1, &d1, &mut expect);
            rs.parity_delta_into(j, 3, &d3, &mut expect);
            let mut out = vec![0xEEu8; 32]; // dirty recycled scratch
            rs.fill_combined_parity_delta(j, &[(1, &d1), (3, &d3)], &mut out);
            assert_eq!(out, expect, "parity {j}");
        }
    }

    #[test]
    fn data_delta_into_matches_allocating_form() {
        let old: Vec<u8> = (0..50u8).collect();
        let new: Vec<u8> = (100..150u8).collect();
        let mut out = vec![0xEEu8; 50];
        data_delta_into(&old, &new, &mut out);
        let want: Vec<u8> = old.iter().zip(&new).map(|(o, n)| o ^ n).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn verify_rejects_wrong_shard_count() {
        let rs = RsCode::new(3, 2).unwrap();
        assert!(rs.verify(&vec![vec![0u8; 4]; 4]).is_err());
    }

    #[test]
    fn encode_rejects_ragged_input() {
        let rs = RsCode::new(2, 1).unwrap();
        let a = vec![0u8; 8];
        let b = vec![0u8; 9];
        assert_eq!(
            rs.encode_into(&[&a, &b], &mut [Vec::new()]).unwrap_err(),
            EcError::ShardSizeMismatch
        );
    }

    #[test]
    fn generator_is_mds_for_small_codes() {
        for (k, m) in [(2, 2), (3, 2), (4, 2), (3, 3)] {
            let rs = RsCode::new(k, m).unwrap();
            assert!(
                rs.generator.all_submatrices_invertible(k),
                "RS({k},{m}) generator is not MDS"
            );
        }
    }
}

//! Data-integrity primitives shared by the OSD store, the background
//! scrubber, and the power-loss (torn-write) machinery:
//!
//! * [`checksum`] — a seahash-style 64-bit mixing hash over byte slices,
//!   run four 8-byte lanes at a time so the multiply chains overlap.
//!   Every chain step `state ← (state ⊕ word) · M` composes bijections,
//!   so any change confined to one 8-byte word — in particular **every
//!   single-bit flip** — provably changes the digest.
//! * [`BlockChecksums`] — the per-block page table (one digest per
//!   [`PAGE`]-byte page) the OSD store maintains on every content
//!   mutation and verifies on every read and scrub pass.
//! * [`frame_record`] / [`scan_log`] — self-describing log-record
//!   framing (magic, length, sequence, payload digest) and the
//!   restart-time scan that classifies a truncated tail as torn instead
//!   of ever yielding a verified-but-wrong payload.
//! * [`IntegrityError`] — the typed corruption error surfaced instead of
//!   silent wrong bytes.
//!
//! Everything here is pure host-side computation: no virtual-time charge,
//! no simulator types — the cluster layers decide what detection and
//! repair *cost*; this crate decides what they *mean*.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Page granularity of block checksums, in bytes.
pub const PAGE: u64 = 4096;

/// Odd multiplier driving the mixing chain (golden-ratio derived, the
/// same constant family seahash and splitmix64 use).
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Bytes of framing prepended to every log record by [`frame_record`]:
/// magic (4), payload length (4), sequence (8), payload digest (8).
pub const FRAME_HEADER: usize = 24;

/// Magic tag opening every framed record.
const FRAME_MAGIC: u32 = 0x7375_4c67; // "tsLg"

/// Typed corruption error — the alternative to silent wrong bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IntegrityError {
    /// A page's stored digest does not match its content.
    CorruptPage {
        /// Index of the corrupt page within the block.
        page: usize,
        /// Digest recorded at write time.
        expect: u64,
        /// Digest of the bytes actually read.
        got: u64,
    },
    /// A page was written while its prior content was already corrupt
    /// (partial overwrite or read-modify-write over rotted bytes), so its
    /// digest now blesses untrustworthy content.
    TaintedPage {
        /// Index of the tainted page within the block.
        page: usize,
    },
    /// A log record failed framing validation (torn or scribbled tail).
    TornRecord {
        /// Byte offset of the record's header within the scanned log.
        offset: usize,
    },
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityError::CorruptPage { page, expect, got } => write!(
                f,
                "page {page} corrupt: stored digest {expect:#018x}, read {got:#018x}"
            ),
            IntegrityError::TaintedPage { page } => {
                write!(
                    f,
                    "page {page} written while corrupt: content untrustworthy"
                )
            }
            IntegrityError::TornRecord { offset } => {
                write!(f, "torn log record at offset {offset}")
            }
        }
    }
}

impl std::error::Error for IntegrityError {}

/// Seahash-style 64-bit digest of `bytes`, four lanes wide.
///
/// The bulk runs 32 bytes per step as four independent chains
/// `lᵢ ← (lᵢ ⊕ wᵢ) · M` (odd `M`, so each step is a bijection of its
/// lane), which breaks the serial multiply dependency and lets the CPU
/// overlap the four multiplies — the scrub sweep is bound by this
/// function. The lanes then fold into one state through further
/// xor-multiply steps, the sub-32-byte tail continues the single chain
/// (zero-padded last word), and the length is folded last, so
/// `checksum(b)` and `checksum(b ⧺ [0])` differ.
///
/// Detection property: every 8-byte word feeds exactly one lane, each
/// lane chain is bijective in that word, and the lane fold is bijective
/// in each lane value — so any modification confined to a single word,
/// every single-bit flip included, changes the result.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    const SEED: u64 = 0x16f1_1fe8_9b0d_677c;
    // INVARIANT: `word` is only applied to 8-byte subslices produced by
    // chunks_exact(32) / the padded tail below, so the conversion holds.
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte chunk"));

    // Distinct lane seeds (consecutive splitmix-style offsets of SEED) so
    // identical words in different lane positions diverge immediately.
    let mut l0 = SEED;
    let mut l1 = SEED.wrapping_add(MIX);
    let mut l2 = SEED.wrapping_add(MIX.wrapping_mul(2));
    let mut l3 = SEED.wrapping_add(MIX.wrapping_mul(3));
    let mut blocks = bytes.chunks_exact(32);
    for b in &mut blocks {
        l0 = (l0 ^ word(&b[0..8])).wrapping_mul(MIX);
        l1 = (l1 ^ word(&b[8..16])).wrapping_mul(MIX);
        l2 = (l2 ^ word(&b[16..24])).wrapping_mul(MIX);
        l3 = (l3 ^ word(&b[24..32])).wrapping_mul(MIX);
    }
    let mut state = l0;
    state = (state ^ l1).wrapping_mul(MIX);
    state = (state ^ l2).wrapping_mul(MIX);
    state = (state ^ l3).wrapping_mul(MIX);

    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        state = (state ^ word(w)).wrapping_mul(MIX);
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        state = (state ^ u64::from_le_bytes(tail)).wrapping_mul(MIX);
    }
    state = (state ^ bytes.len() as u64).wrapping_mul(MIX);
    // Final avalanche (xorshift-multiply, bijective).
    state ^= state >> 32;
    state = state.wrapping_mul(MIX);
    state ^ (state >> 29)
}

/// The per-block checksum page table: one digest and one taint flag per
/// [`PAGE`]-byte page, addressed by page index. The store walks the
/// pages a mutation or a read touches and calls in here once per page.
#[derive(Clone, Debug)]
pub struct BlockChecksums {
    sums: Vec<u64>,
    /// Pages written while already corrupt: the recomputed digest blesses
    /// rotted bytes, so the page stays flagged until a repair (or a full
    /// clean overwrite) replaces its entire content.
    tainted: Vec<bool>,
}

impl BlockChecksums {
    /// A table for a block of `block_len` bytes, digesting its initial
    /// (all-zero) content.
    #[must_use]
    pub fn new_zeroed(block_len: u64) -> Self {
        let pages = block_len.div_ceil(PAGE) as usize;
        let mut sums = vec![checksum(&[0u8; PAGE as usize]); pages];
        let tail = block_len % PAGE;
        if tail > 0 {
            sums[pages - 1] = checksum(&vec![0u8; tail as usize]);
        }
        let tainted = vec![false; pages];
        BlockChecksums { sums, tainted }
    }

    /// Number of pages tracked.
    #[must_use]
    pub fn pages(&self) -> usize {
        self.sums.len()
    }

    /// Stored digest of `page`.
    ///
    /// # Panics
    /// Panics when `page` is out of range (as do the other per-page
    /// methods).
    #[must_use]
    pub fn digest(&self, page: usize) -> u64 {
        self.sums[page]
    }

    /// Records `bytes`, the page's whole current content, as its digest.
    pub fn rehash(&mut self, page: usize, bytes: &[u8]) {
        self.sums[page] = checksum(bytes);
    }

    /// Verifies `page` against `bytes`, its whole current content. A
    /// tainted page fails without being hashed.
    ///
    /// # Errors
    /// [`IntegrityError::TaintedPage`] for a page written while corrupt,
    /// else [`IntegrityError::CorruptPage`] when the digest mismatches.
    pub fn check(&self, page: usize, bytes: &[u8]) -> Result<(), IntegrityError> {
        if self.tainted[page] {
            return Err(IntegrityError::TaintedPage { page });
        }
        let got = checksum(bytes);
        if got != self.sums[page] {
            return Err(IntegrityError::CorruptPage {
                page,
                expect: self.sums[page],
                got,
            });
        }
        Ok(())
    }

    /// Whether `page` is flagged as written-while-corrupt.
    #[must_use]
    pub fn is_tainted(&self, page: usize) -> bool {
        self.tainted[page]
    }

    /// Flags `page` as written-while-corrupt, or clears the flag once its
    /// content has been replaced whole.
    pub fn set_tainted(&mut self, page: usize, tainted: bool) {
        self.tainted[page] = tainted;
    }
}

/// One record recovered by [`scan_log`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScannedRecord {
    /// Monotonic sequence number stamped at append time.
    pub seq: u64,
    /// Byte offset of the record header within the scanned buffer.
    pub offset: usize,
    /// The verified payload.
    pub payload: Vec<u8>,
}

/// Frames `payload` with the `(magic, len, seq, digest)` header a
/// restart-time scan validates: exactly [`FRAME_HEADER`] bytes of
/// framing ahead of the payload.
#[must_use]
pub fn frame_record(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    // INVARIANT: the frame header stores a 32-bit length; callers frame
    // single log records (≤ unit size, far below 4 GiB), so a larger
    // payload is a caller bug worth stopping on, not truncating.
    let len = u32::try_from(payload.len()).expect("record payload fits the u32 frame length");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Restart-time log scan: walks framed records from the front of `log`,
/// returning every record whose framing and payload digest verify, plus
/// the torn tail (if the buffer ends inside or on a corrupt record).
///
/// The guarantee the power-loss model rests on: **a truncation at any
/// byte offset never yields a verified-but-wrong payload** — the cut
/// record either loses header bytes (short read), loses payload bytes
/// (length mismatch), or fails its digest; all three classify as torn.
#[must_use]
pub fn scan_log(log: &[u8]) -> (Vec<ScannedRecord>, Option<IntegrityError>) {
    let mut out = Vec::new();
    let mut off = 0usize;
    while off < log.len() {
        let Some(header) = log.get(off..off + FRAME_HEADER) else {
            return (out, Some(IntegrityError::TornRecord { offset: off }));
        };
        // INVARIANT: `header` is exactly FRAME_HEADER (24) bytes — the
        // `get` above returned Some — so each fixed subrange converts.
        let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        if magic != FRAME_MAGIC {
            return (out, Some(IntegrityError::TornRecord { offset: off }));
        }
        let len = // INVARIANT: header[4..8] is 4 bytes (see above)
            u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
        let seq = // INVARIANT: header[8..16] is 8 bytes (see above)
            u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let digest = // INVARIANT: header[16..24] is 8 bytes (see above)
            u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
        let Some(payload) = log.get(off + FRAME_HEADER..off + FRAME_HEADER + len) else {
            return (out, Some(IntegrityError::TornRecord { offset: off }));
        };
        if checksum(payload) != digest {
            return (out, Some(IntegrityError::TornRecord { offset: off }));
        }
        out.push(ScannedRecord {
            seq,
            offset: off,
            payload: payload.to_vec(),
        });
        off += FRAME_HEADER + len;
    }
    (out, None)
}

/// Deterministic xorshift64* stream used to pick corruption targets and
/// torn offsets; seeded, so fault injection replays bit-identically.
#[derive(Clone, Debug)]
pub struct SplitRng(u64);

impl SplitRng {
    /// Creates a stream from `seed` (0 is remapped to a fixed non-zero).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitRng(if seed == 0 {
            0x853c_49e6_748f_ea9b
        } else {
            seed
        })
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(MIX)
    }

    /// Uniform draw in `[0, bound)`; `bound` 0 yields 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_detects_single_bit_flips() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        let base = checksum(&data);
        for byte in [0usize, 7, 8, 150, 299] {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(base, checksum(&flipped), "flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn checksum_distinguishes_zero_padding_from_length() {
        assert_ne!(checksum(b"abc"), checksum(b"abc\0"));
        assert_ne!(checksum(&[]), checksum(&[0]));
    }

    /// The pages of `data` that fail their digests or are tainted.
    fn bad_pages(sums: &BlockChecksums, data: &[u8]) -> Vec<usize> {
        data.chunks(PAGE as usize)
            .enumerate()
            .filter(|&(p, bytes)| sums.check(p, bytes).is_err())
            .map(|(p, _)| p)
            .collect()
    }

    #[test]
    fn page_table_tracks_range_updates() {
        let mut data = vec![0u8; (2 * PAGE + 100) as usize];
        let mut sums = BlockChecksums::new_zeroed(data.len() as u64);
        assert_eq!(sums.pages(), 3);
        assert!(bad_pages(&sums, &data).is_empty(), "the tail page too");

        data[5000] = 0xAB; // page 1
        assert_eq!(bad_pages(&sums, &data), vec![1]);
        sums.rehash(1, &data[PAGE as usize..2 * PAGE as usize]);
        assert!(bad_pages(&sums, &data).is_empty());
    }

    #[test]
    fn corrupt_pages_names_silent_flips() {
        let mut data = vec![7u8; (3 * PAGE) as usize];
        let mut sums = BlockChecksums::new_zeroed(data.len() as u64);
        for (p, bytes) in data.chunks(PAGE as usize).enumerate() {
            sums.rehash(p, bytes);
        }
        data[0] ^= 1;
        data[(2 * PAGE) as usize + 17] ^= 0x80;
        assert_eq!(bad_pages(&sums, &data), vec![0, 2]);
        let err = sums.check(0, &data[..PAGE as usize]).unwrap_err();
        assert!(matches!(err, IntegrityError::CorruptPage { page: 0, .. }));
    }

    #[test]
    fn taint_survives_partial_overwrite_and_clears_on_full() {
        let mut data = vec![0u8; (2 * PAGE) as usize];
        let mut sums = BlockChecksums::new_zeroed(data.len() as u64);
        // Rot a bit of page 0 and rehash it after a partial write: the
        // recomputed digest blesses the rot, and only the taint flag
        // still fails the page — without hashing it.
        data[100] ^= 4;
        data[200..208].fill(9);
        sums.set_tainted(0, true);
        sums.rehash(0, &data[..PAGE as usize]);
        assert_eq!(bad_pages(&sums, &data), vec![0]);
        assert_eq!(
            sums.check(0, &[]),
            Err(IntegrityError::TaintedPage { page: 0 })
        );
        // A full-page replacement clears the flag.
        data[..PAGE as usize].fill(3);
        sums.set_tainted(0, false);
        sums.rehash(0, &data[..PAGE as usize]);
        assert!(!sums.is_tainted(0));
        assert!(bad_pages(&sums, &data).is_empty());
    }

    #[test]
    fn scan_recovers_framed_records() {
        let mut log = Vec::new();
        log.extend(frame_record(1, b"hello"));
        log.extend(frame_record(2, b""));
        log.extend(frame_record(3, &[9u8; 1000]));
        let (recs, torn) = scan_log(&log);
        assert!(torn.is_none());
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].payload, b"hello");
        assert_eq!(recs[1].seq, 2);
        assert_eq!(recs[2].payload.len(), 1000);
    }

    #[test]
    fn truncation_at_every_offset_is_detected_never_misread() {
        let mut log = Vec::new();
        log.extend(frame_record(1, b"first-record"));
        log.extend(frame_record(2, b"second"));
        let (full, _) = scan_log(&log);
        let boundaries = [0, FRAME_HEADER + b"first-record".len(), log.len()];
        for cut in 0..log.len() {
            let (recs, torn) = scan_log(&log[..cut]);
            // Whatever survives is a verified prefix of the original.
            assert!(recs.len() <= full.len());
            for (got, want) in recs.iter().zip(&full) {
                assert_eq!(got, want, "cut at {cut} must not alter a record");
            }
            if boundaries.contains(&cut) {
                assert!(torn.is_none(), "boundary cut at {cut} is a clean log");
            } else {
                assert!(torn.is_some(), "mid-record cut at {cut} must flag a tear");
            }
        }
    }

    #[test]
    fn scribbled_tail_is_torn_not_data() {
        let mut log = frame_record(1, b"payload");
        log.extend_from_slice(&[0xFFu8; 10]); // garbage after the record
        let (recs, torn) = scan_log(&log);
        assert_eq!(recs.len(), 1);
        assert!(matches!(torn, Some(IntegrityError::TornRecord { .. })));
    }

    #[test]
    fn rng_is_deterministic_and_bounded() {
        let mut a = SplitRng::new(7);
        let mut b = SplitRng::new(7);
        for _ in 0..100 {
            let x = a.below(13);
            assert_eq!(x, b.below(13));
            assert!(x < 13);
        }
        assert_eq!(SplitRng::new(0).next_u64(), SplitRng::new(0).next_u64());
    }
}

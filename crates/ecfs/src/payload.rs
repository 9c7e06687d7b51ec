//! Deterministic update payloads.
//!
//! Clients do not carry a data set: the bytes of extent `ext` of op
//! `op_id` are generated wherever the chunk the op is issued with
//! ([`payload_chunk`]) is read, and *re*-generated wherever they are
//! needed again — the degraded-write journal builds the same chunk for an
//! extent parked without its data, and the verification replay rebuilds
//! every block from the recorded arrivals. That contract is the whole
//! interface: byte `i` of a payload is a pure function of
//! `(op_id, ext, i)`, so a chunk generated late holds the bytes it would
//! have held at issue, and bytes a log supersedes before anything reads
//! them are never generated.
//!
//! The chunk's consumers rely on the per-byte form: they stream it
//! ([`tsue_buf::Bytes::read_into`]) a page at a time, or a segment at a
//! time, into the store, a delta or a gather, and [`payload_at`] writes
//! any window `[at, at + len)` without generating what precedes it. A
//! payload that only streams is never buffered. The content itself
//! appears in no golden file and no stored result, so changing the
//! generator regenerates nothing.

use crate::scheme::Chunk;
use tsue_buf::{Bytes, Recipe};

/// Weyl increment of the word counter (2⁶⁴ / φ, odd).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;
/// Odd multiplier with well-dispersed bits for the one-round scrambles.
const DISPERSE: u64 = 0xd6e8_feb8_6659_fd93;
/// Words computed per step of the bulk loop.
const LANES: usize = 8;

/// The SplitMix64 output function: a bijective avalanche of one word.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One stream word from its counter: xor-fold, multiply, xor-fold — a
/// bijection, so distinct counters give distinct words.
fn scramble(counter: u64) -> u64 {
    let z = (counter ^ (counter >> 32)).wrapping_mul(DISPERSE);
    z ^ (z >> 29)
}

/// Fills `buf` with the payload of extent `ext` of op `op_id`: the
/// window of the stream that starts at byte 0 ([`payload_at`]).
pub fn payload_into(op_id: u64, ext: usize, buf: &mut [u8]) {
    payload_at(op_id, ext, 0, buf);
}

/// Fills `buf` with bytes `[at, at + buf.len())` of the payload stream
/// of extent `ext` of op `op_id`.
///
/// Counter-based: little-endian word `i` of the stream is
/// `scramble(key + (i + 1)·γ)` with `key` a full avalanche of
/// `(op_id, ext)`, and byte `at` is byte `at % 8` of word `at / 8`. Two
/// extents with different keys differ in *every* word, not just on
/// average, and no word depends on its predecessor: a window starts at
/// its own word, and the bulk loop computes eight independent words per
/// step, which the compiler interleaves.
pub fn payload_at(op_id: u64, ext: usize, at: usize, buf: &mut [u8]) {
    let key = mix64(mix64(op_id) ^ (ext as u64).wrapping_mul(DISPERSE));
    let word = |i: usize| scramble(key.wrapping_add((i as u64 + 1).wrapping_mul(GAMMA)));
    // The tail of the word `at` falls in, then whole words.
    let skip = at % 8;
    let head = ((8 - skip) % 8).min(buf.len());
    let (lead, buf) = buf.split_at_mut(head);
    lead.copy_from_slice(&word(at / 8).to_le_bytes()[skip..skip + head]);
    let mut counter = key.wrapping_add(((at + head) as u64 / 8 + 1).wrapping_mul(GAMMA));
    let mut blocks = buf.chunks_exact_mut(8 * LANES);
    for block in blocks.by_ref() {
        let mut lanes = [0u64; LANES];
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane = scramble(counter.wrapping_add((j as u64).wrapping_mul(GAMMA)));
        }
        for (dst, lane) in block.chunks_exact_mut(8).zip(lanes) {
            dst.copy_from_slice(&lane.to_le_bytes());
        }
        counter = counter.wrapping_add(GAMMA.wrapping_mul(LANES as u64));
    }
    for dst in blocks.into_remainder().chunks_mut(8) {
        dst.copy_from_slice(&scramble(counter).to_le_bytes()[..dst.len()]);
        counter = counter.wrapping_add(GAMMA);
    }
}

/// The recipe of a client payload: [`payload_at`] of its keys.
struct Payload {
    op_id: u64,
    ext: usize,
}

impl Recipe for Payload {
    fn write(&self, at: usize, dst: &mut [u8]) {
        payload_at(self.op_id, self.ext, at, dst);
    }
}

/// The `len` bytes of extent `ext` of op `op_id`, deferred: generated by
/// [`payload_at`] where they are read (see [`tsue_buf::Bytes::deferred`]).
pub(crate) fn payload_bytes(op_id: u64, ext: usize, len: u64) -> Bytes {
    Bytes::deferred(len as usize, Payload { op_id, ext })
}

/// The `len` bytes of extent `ext` of op `op_id` as a client write
/// carries them: in a materialized run a real chunk whose bytes
/// [`payload_at`] generates where they are read (see
/// [`tsue_buf::Bytes::deferred`]), otherwise a ghost.
pub fn payload_chunk(op_id: u64, ext: usize, len: u64, materialize: bool) -> Chunk {
    if materialize {
        Chunk::real(payload_bytes(op_id, ext, len))
    } else {
        Chunk::ghost(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(op_id: u64, ext: usize, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        payload_into(op_id, ext, &mut buf);
        buf
    }

    /// Word-at-a-time definition the lane loop must agree with.
    fn by_definition(op_id: u64, ext: usize, len: usize) -> Vec<u8> {
        let key = mix64(mix64(op_id) ^ (ext as u64).wrapping_mul(DISPERSE));
        (0..len)
            .map(|at| {
                let word = scramble(key.wrapping_add((at as u64 / 8 + 1).wrapping_mul(GAMMA)));
                word.to_le_bytes()[at % 8]
            })
            .collect()
    }

    #[test]
    fn every_length_matches_the_definition() {
        for len in (0..=257).chain([4096, 1 << 20]) {
            assert_eq!(payload(3, 1, len), by_definition(3, 1, len), "len {len}");
        }
    }

    #[test]
    fn fill_ignores_buffer_alignment_and_prior_content() {
        // Sub-slices of one buffer at every offset within a word,
        // over stale bytes: the result depends on (op_id, ext, len) only.
        let want = payload(11, 2, 4099);
        for align in 0..8 {
            let mut buf = tsue_buf::BytesMut::take(align + 4099 + 8);
            buf.as_mut().fill(0xa5);
            payload_into(11, 2, &mut buf.as_mut()[align..align + 4099]);
            assert_eq!(&buf.as_mut()[align..align + 4099], &want[..]);
            assert!(buf.as_mut()[..align].iter().all(|&b| b == 0xa5));
            assert!(buf.as_mut()[align + 4099..].iter().all(|&b| b == 0xa5));
        }
        assert_eq!(payload(11, 2, 4099), want, "two calls, one stream");
    }

    #[test]
    fn every_window_matches_the_stream_and_the_definition() {
        let stream = payload(3, 1, 300);
        let defined = by_definition(3, 1, 300);
        assert_eq!(stream, defined);
        for at in 0..=72 {
            for len in 0..=200 {
                let mut buf = vec![0xa5u8; len];
                payload_at(3, 1, at, &mut buf);
                assert_eq!(buf, stream[at..at + len], "at {at} len {len}");
            }
        }
        // Windows that straddle a page and a 1 MiB boundary, from both
        // sides, at every offset within a word.
        let stream = payload(9, 4, (1 << 20) + 8192);
        for edge in [4096, 1 << 20] {
            for at in (edge - 4096..edge - 4088).chain(edge - 9..edge + 1) {
                for len in [1, 7, 8, 9, 64, 65, 4096, 4103] {
                    let mut buf = vec![0u8; len];
                    payload_at(9, 4, at, &mut buf);
                    assert_eq!(buf, stream[at..at + len], "at {at} len {len}");
                }
            }
        }
        let mut tail = vec![0u8; 4096];
        payload_at(9, 4, 1 << 20, &mut tail);
        assert_eq!(tail, by_definition(9, 4, (1 << 20) + 4096)[1 << 20..]);
    }

    #[test]
    fn a_streamed_chunk_reads_its_payload_without_a_buffer() {
        let chunk = payload_chunk(21, 3, 9000, true);
        let bytes = chunk.bytes.expect("materialized");
        let want = payload(21, 3, 9000);
        let before = tsue_buf::stats();
        let mut got = vec![0u8; 9000];
        for (rel, dst) in (0..).step_by(4096).zip(got.chunks_mut(4096)) {
            bytes.slice(rel, dst.len()).read_into(0, dst);
        }
        assert_eq!(got, want);
        let s = tsue_buf::stats().since(&before);
        assert_eq!((s.streamed_bytes, s.pool_misses), (9000, 0));
        let built = bytes.into_built();
        assert_eq!(built.as_slice(), Some(&want[..]), "one window, same bytes");
    }

    #[test]
    fn shorter_fill_is_a_prefix_of_a_longer_one() {
        let long = payload(5, 0, 1000);
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 999] {
            assert_eq!(payload(5, 0, len), long[..len], "len {len}");
        }
    }

    /// The old generator seeded with `(op_id·φ + ext) | 1`, which made
    /// `ext` 2j / 2j+1 of an even op (2j+1 / 2j+2 of an odd one) carry
    /// identical bytes — an extent delivered to the neighbouring block of
    /// its own op was invisible to `check_consistency`.
    #[test]
    fn extents_and_ops_carry_pairwise_distinct_payloads() {
        let mut seen = std::collections::BTreeSet::new();
        for op_id in 0..1024 {
            for ext in 0..8 {
                let p = payload(op_id, ext, 4096);
                assert!(
                    p.chunks(64).all(|run| run.iter().any(|&b| b != 0)),
                    "op {op_id} ext {ext}: all-zero 64-byte run"
                );
                assert!(seen.insert(p), "op {op_id} ext {ext} repeats a payload");
            }
        }
    }

    #[test]
    fn bytes_are_spread_evenly() {
        let mut histogram = [0u32; 256];
        for &b in &payload(42, 0, 1 << 20) {
            histogram[b as usize] += 1;
        }
        // 4096 expected per value; ±10 % is > 6 σ of a fair source.
        assert!(histogram.iter().all(|&n| (3686..=4506).contains(&n)));
    }
}

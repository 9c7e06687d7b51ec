//! Test-only reference map: the `BTreeMap`-indexed, run-concatenating
//! implementation the segment-run [`RangeMap`](super::RangeMap) replaced,
//! kept so the differential tests can hold the new map to the same entry
//! boundaries (modelled state: they feed `work_items`, `memory_bytes` and
//! recycle job counts) and the same bytes after every insert. Its
//! `coalesce_around` is the definition of the pairwise, non-chaining merge
//! rule.

use super::Discipline;
use crate::scheme::Chunk;
use std::collections::BTreeMap;

/// Non-overlapping, offset-sorted interval map of chunks.
#[derive(Debug, Default, Clone)]
pub struct RefMap {
    /// start offset -> chunk (entries never overlap).
    entries: BTreeMap<u64, Chunk>,
    /// Total bytes covered (maintained incrementally).
    covered: u64,
}

impl RefMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no ranges are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes covered by all entries.
    pub fn covered_bytes(&self) -> u64 {
        self.covered
    }

    /// Iterates `(offset, chunk)` in offset order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Chunk)> {
        self.entries.iter().map(|(&o, c)| (o, c))
    }

    /// Drains all entries in offset order.
    pub fn drain(&mut self) -> Vec<(u64, Chunk)> {
        self.covered = 0;
        std::mem::take(&mut self.entries).into_iter().collect()
    }

    /// General insertion under a discipline.
    ///
    /// # Panics
    /// Panics on zero-length chunks.
    pub fn insert_with(&mut self, off: u64, chunk: Chunk, disc: Discipline) {
        assert!(chunk.len > 0, "zero-length range");
        let end = off + chunk.len;

        // Collect the keys of entries overlapping [off, end).
        let overlapping: Vec<u64> = {
            // Any entry starting before `end` could overlap; walk back from
            // there. Entries are non-overlapping, so only the last one
            // starting at or before `off` can cross `off` from the left.
            let mut keys: Vec<u64> = self.entries.range(off..end).map(|(&k, _)| k).collect();
            if let Some((&k, c)) = self.entries.range(..off).next_back() {
                if k + c.len > off {
                    keys.insert(0, k);
                }
            }
            keys
        };

        match disc {
            Discipline::Overwrite => {
                // Carve out the overlapped parts of existing entries, then
                // insert the new chunk whole.
                for k in overlapping {
                    // INVARIANT: `overlapping` keys were collected from this map
                    // above, and nothing was removed since.
                    let existing = self.entries.remove(&k).unwrap();
                    self.covered -= existing.len;
                    let (left, _mid, right) = split3(k, existing, off, end);
                    if let Some((lo, lc)) = left {
                        self.covered += lc.len;
                        self.entries.insert(lo, lc);
                    }
                    if let Some((ro, rc)) = right {
                        self.covered += rc.len;
                        self.entries.insert(ro, rc);
                    }
                }
                self.covered += chunk.len;
                self.entries.insert(off, chunk);
            }
            Discipline::Absent => {
                // Keep existing entries; fill only the gaps with slices of
                // the new chunk.
                let mut cursor = off;
                let mut gaps: Vec<(u64, u64)> = Vec::new(); // (start, len)
                for &k in &overlapping {
                    let c = &self.entries[&k];
                    let e_start = k.max(off);
                    if e_start > cursor {
                        gaps.push((cursor, e_start - cursor));
                    }
                    cursor = cursor.max(k + c.len);
                }
                if cursor < end {
                    gaps.push((cursor, end - cursor));
                }
                for (gs, gl) in gaps {
                    let piece = slice_chunk(&chunk, gs - off, gl);
                    self.covered += piece.len;
                    self.entries.insert(gs, piece);
                }
            }
            Discipline::Xor => {
                // XOR into overlapped parts; insert slices into gaps.
                let mut cursor = off;
                let mut to_insert: Vec<(u64, Chunk)> = Vec::new();
                for &k in &overlapping {
                    // INVARIANT: `overlapping` keys were collected from this map
                    // above, and nothing was removed since.
                    let existing = self.entries.remove(&k).unwrap();
                    self.covered -= existing.len;
                    let e_end = k + existing.len;
                    // Gap before this entry.
                    let e_start = k.max(off);
                    if e_start > cursor {
                        to_insert
                            .push((cursor, slice_chunk(&chunk, cursor - off, e_start - cursor)));
                    }
                    // Overlapped middle: xor the intersecting span.
                    let i_start = e_start;
                    let i_end = e_end.min(end);
                    if i_end > i_start {
                        // Split the existing entry into pre / mid / post.
                        let (left, mid, right) = split3(k, existing, i_start, i_end);
                        if let Some((lo, lc)) = left {
                            to_insert.push((lo, lc));
                        }
                        if let Some((ro, rc)) = right {
                            to_insert.push((ro, rc));
                        }
                        // INVARIANT: guarded by `i_end > i_start`, so split3 returned
                        // a middle piece.
                        let (mo, mut mc) = mid.expect("mid overlap exists");
                        let patch = slice_chunk(&chunk, mo - off, mc.len);
                        mc.xor_in(&patch);
                        to_insert.push((mo, mc));
                    } else {
                        // Unreachable by construction (collected entries
                        // always intersect), but harmless: restore as-is.
                        to_insert.push((k, existing));
                    }
                    cursor = cursor.max(i_end);
                }
                if cursor < end {
                    to_insert.push((cursor, slice_chunk(&chunk, cursor - off, end - cursor)));
                }
                for (o, c) in to_insert {
                    self.covered += c.len;
                    self.entries.insert(o, c);
                }
            }
        }
        self.coalesce_around(off, end);
    }

    /// Overlays stored content onto `buf` (which represents
    /// `[off, off+len)`); returns `true` if the map fully covers the range.
    pub fn overlay(&self, off: u64, len: u64, mut buf: Option<&mut [u8]>) -> bool {
        let end = off + len;
        let mut cursor = off;
        // Left-crossing entry.
        let start_key = self
            .entries
            .range(..off)
            .next_back()
            .filter(|(&k, c)| k + c.len > off)
            .map(|(&k, _)| k);
        let iter = start_key
            .into_iter()
            .chain(self.entries.range(off..end).map(|(&k, _)| k));
        for k in iter {
            let c = &self.entries[&k];
            let e_end = k + c.len;
            let i_start = k.max(off);
            let i_end = e_end.min(end);
            if i_start > cursor {
                return false_with_patch(self, cursor, end, buf);
            }
            if let (Some(b), Some(bytes)) = (buf.as_deref_mut(), c.bytes.as_ref()) {
                let dst = &mut b[(i_start - off) as usize..(i_end - off) as usize];
                dst.copy_from_slice(&bytes[(i_start - k) as usize..(i_end - k) as usize]);
            }
            cursor = i_end;
            if cursor >= end {
                return true;
            }
        }
        cursor >= end
    }

    /// Merges entries that are exactly adjacent (both real or both ghost) —
    /// the paper's request-coalescing step.
    fn coalesce_around(&mut self, off: u64, end: u64) {
        // Look at the entry before `off` and entries within [off, end], and
        // merge adjacent runs pairwise.
        let mut keys: Vec<u64> = self
            .entries
            .range(..off)
            .next_back()
            .map(|(&k, _)| k)
            .into_iter()
            .chain(self.entries.range(off..=end).map(|(&k, _)| k))
            .collect();
        keys.sort_unstable();
        for w in keys.windows(2) {
            let (a, b) = (w[0], w[1]);
            let (Some(ca), Some(cb)) = (self.entries.get(&a), self.entries.get(&b)) else {
                continue;
            };
            if a + ca.len != b {
                continue;
            }
            let mergeable = matches!((&ca.bytes, &cb.bytes), (Some(_), Some(_)) | (None, None));
            if !mergeable {
                continue;
            }
            // INVARIANT: `a` and `b` were both read from the map in this
            // same loop iteration.
            let cb = self.entries.remove(&b).unwrap();
            // INVARIANT: as above — `a` is still present; only `b` was
            // removed.
            let ca = self.entries.get_mut(&a).unwrap();
            if let (Some(av), Some(bv)) = (ca.bytes.as_mut(), cb.bytes.as_ref()) {
                // Contiguous views of one backing buffer join for free;
                // everything else pays the counted re-concatenation the
                // segment-run map exists to avoid.
                if !av.try_join(bv) {
                    let mut m = tsue_buf::BytesMut::take(av.len() + bv.len());
                    m.as_mut()[..av.len()].copy_from_slice(av);
                    m.as_mut()[av.len()..].copy_from_slice(bv);
                    tsue_buf::count_copy((av.len() + bv.len()) as u64);
                    *av = m.freeze();
                }
            }
            ca.len += cb.len;
        }
    }
}

/// Patches whatever partial coverage exists, then reports non-coverage.
fn false_with_patch(map: &RefMap, cursor: u64, end: u64, buf: Option<&mut [u8]>) -> bool {
    // Still overlay the remaining covered pieces for content correctness.
    if let Some(b) = buf {
        let off0 = end - b.len() as u64;
        for (k, c) in map.entries.range(cursor..end) {
            if let Some(bytes) = c.bytes.as_ref() {
                let i_end = (k + c.len).min(end);
                let dst = &mut b[(*k - off0) as usize..(i_end - off0) as usize];
                dst.copy_from_slice(&bytes[..(i_end - k) as usize]);
            }
        }
    }
    false
}

/// Splits `chunk` (starting at `start`) into (before `lo`, [`lo`,`hi`),
/// after `hi`) pieces, any of which may be absent.
/// One positioned piece produced by [`split3`]: `(offset, chunk)`.
type Piece = Option<(u64, Chunk)>;

fn split3(start: u64, chunk: Chunk, lo: u64, hi: u64) -> (Piece, Piece, Piece) {
    let end = start + chunk.len;
    let left = if start < lo {
        Some((start, slice_chunk(&chunk, 0, lo.min(end) - start)))
    } else {
        None
    };
    let mid_lo = lo.max(start);
    let mid_hi = hi.min(end);
    let mid = if mid_hi > mid_lo {
        Some((mid_lo, slice_chunk(&chunk, mid_lo - start, mid_hi - mid_lo)))
    } else {
        None
    };
    let right = if end > hi {
        Some((
            hi.max(start),
            slice_chunk(&chunk, hi.max(start) - start, end - hi.max(start)),
        ))
    } else {
        None
    };
    (left, mid, right)
}

/// Slices `len` bytes at relative offset `rel` out of a chunk — O(1), the
/// piece shares the original's backing buffer.
fn slice_chunk(chunk: &Chunk, rel: u64, len: u64) -> Chunk {
    chunk.slice(rel, len)
}

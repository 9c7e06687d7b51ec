//! An interval map over byte offsets with three insertion disciplines.
//!
//! Every log-structured update scheme needs to answer "what is the newest
//! content for `[off, off+len)`?" under arbitrary overlap. [`RangeMap`]
//! keeps non-overlapping, offset-sorted entries and supports:
//!
//! * [`RangeMap::insert`] — newest wins (data logs, read caches; paper
//!   Eq. (4): the latest update for the same location is the valid one),
//! * [`RangeMap::insert_absent`] — first wins (PARIX's original-data
//!   capture: only the value before the *first* update matters),
//! * [`RangeMap::insert_xor`] — accumulate by XOR (delta logs; paper
//!   Eq. (3): same-offset deltas fold),
//!
//! plus adjacency coalescing, which is precisely the paper's
//! "adjacent records merged into fewer, larger entries" optimization. The
//! map works on ghost (timing-only) chunks as well as real bytes.
//!
//! # Representation: coalesce by handle
//!
//! An entry is a *run of segments*: the [`Chunk`]s it was built from, in
//! offset order, exactly adjacent. Coalescing two entries clears one flag
//! (and fuses the two handles when they are contiguous views of one
//! buffer); splitting an entry slices a handle; an overwrite or XOR touches
//! only the span it covers. No insert copies bytes it was not given, so an
//! insert costs O(log n + new bytes) however long the run it lands in. A
//! run's bytes are never gathered into one buffer for a consumer: it sees
//! an entry as its [`Entry`] segment views, or as one chunk that is a
//! deferred concatenation of them ([`Entry::chunk`]), generated where it
//! is read. A consumer that is done with the map takes the handles
//! themselves from [`RangeMap::drain_runs`]. Only an XOR that lands on a
//! multi-segment run copies the run once, into the buffer it folds into.
//!
//! A consumer that is done with the bytes but not with the extents calls
//! [`RangeMap::release_bytes`]: every entry becomes one ghost segment of the
//! same offset and length, so what the model reads stays and the buffers go.
//!
//! All segments live in one sorted `Vec` searched by `partition_point`
//! (log indexes hold tens of entries, never thousands); a `head` flag marks
//! the first segment of each entry.
//!
//! # Entry boundaries are modelled state
//!
//! [`RangeMap::len`] feeds recycle job counts, device ops and the scheme
//! memory metric, so where one entry ends and the next begins is part of
//! the model. The rule is *canonical form*: each entry is a maximal run of
//! exactly adjacent coverage of one kind (real or ghost). An insert only
//! changes coverage and kinds inside `[off, end)`, so after it the merge
//! pass visits every entry that starts in `[off, end]` and joins it to its
//! left neighbour when the two are adjacent and of one kind; merges chain,
//! so an interior overwrite of a run leaves one entry, and any number of
//! adjacent pieces filled in by one insert become one. What holds the
//! bytes apart — segments of different buffers — never shows as an entry
//! boundary. [`RangeMap::release_bytes`] is the one exception: it keeps
//! the boundaries it finds, so a real entry next to a ghost becomes two
//! adjacent ghosts, which merge once an insert touches their seam.

use crate::scheme::{Chunk, Combination};
use tsue_buf::BytesMut;

#[cfg(test)]
mod tests;

/// Insertion discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discipline {
    /// Later inserts overwrite overlapping older content.
    Overwrite,
    /// Later inserts fill only gaps; existing content is preserved.
    Absent,
    /// Overlaps combine by XOR; gaps are filled.
    Xor,
}

/// One handle of an entry's run.
#[derive(Debug, Clone)]
struct Seg {
    off: u64,
    /// First segment of its entry. A segment that is not a head is real and
    /// starts exactly where its (real) predecessor ends; a ghost entry is
    /// always a single segment.
    head: bool,
    chunk: Chunk,
}

impl Seg {
    /// A segment that starts an entry.
    fn entry(off: u64, chunk: Chunk) -> Seg {
        Seg {
            off,
            head: true,
            chunk,
        }
    }

    fn end(&self) -> u64 {
        self.off + self.chunk.len
    }

    fn is_real(&self) -> bool {
        self.chunk.bytes.is_some()
    }

    /// The part `[from, to)` of this segment as a segment of its own.
    fn part(&self, from: u64, to: u64, head: bool) -> Seg {
        Seg {
            off: from,
            head,
            chunk: self.chunk.slice(from - self.off, to - from),
        }
    }
}

/// Copies a run of real segments, back to back, into `dst`; a deferred
/// payload is generated there ([`tsue_buf::Bytes::read_into`]).
fn copy_run(segs: &[Seg], dst: &mut [u8]) {
    let mut at = 0;
    for bytes in segs.iter().filter_map(|s| s.chunk.bytes.as_ref()) {
        bytes.read_into(0, &mut dst[at..at + bytes.len()]);
        at += bytes.len();
    }
}

/// One entry as stored: a ghost extent or a run of byte segments. Handed
/// out by [`RangeMap::iter`] and [`Runs::iter`].
#[derive(Clone, Copy, Debug)]
pub struct Entry<'a> {
    segs: &'a [Seg],
}

impl<'a> Entry<'a> {
    /// Start offset.
    pub fn off(&self) -> u64 {
        self.segs[0].off
    }

    /// Length in bytes (entries are never empty).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u64 {
        self.segs[self.segs.len() - 1].end() - self.off()
    }

    /// True when the entry carries bytes (false for timing-only ghosts).
    pub fn is_real(&self) -> bool {
        self.segs[0].is_real()
    }

    /// The entry's segment handles as `(offset, chunk)`, adjacent and in
    /// offset order (one ghost chunk for a ghost).
    pub fn chunks(&self) -> impl Iterator<Item = (u64, &'a Chunk)> {
        self.segs.iter().map(|s| (s.off, &s.chunk))
    }

    /// The entry as one chunk, with nothing gathered: its one segment's
    /// handle (a ghost for a ghost), or a deferred concatenation of its
    /// segments' handles — the recipe of a store read.
    pub fn chunk(&self) -> Chunk {
        match self.segs {
            [one] => one.chunk.clone(),
            segs => {
                let terms = segs
                    .iter()
                    .filter_map(|s| {
                        Some((1, (s.off - self.off()) as usize, s.chunk.bytes.clone()?))
                    })
                    .collect();
                Chunk::real(Combination::deferred(self.len() as usize, terms))
            }
        }
    }

    /// Copies the entry's bytes into `dst` (left untouched by a ghost).
    ///
    /// # Panics
    /// Panics if `dst` is not exactly [`Entry::len`] bytes long.
    pub fn copy_to(&self, dst: &mut [u8]) {
        assert_eq!(dst.len() as u64, self.len(), "entry length mismatch");
        copy_run(self.segs, dst);
    }
}

/// The entries of a drained map as their runs of segment handles. Only
/// [`RangeMap::drain_runs`] makes one.
#[derive(Debug)]
pub struct Runs {
    segs: Vec<Seg>,
}

impl Runs {
    /// Iterates the entries in offset order.
    pub fn iter(&self) -> impl Iterator<Item = Entry<'_>> {
        entries(&self.segs)
    }
}

/// The entries of an offset-sorted segment list.
fn entries(segs: &[Seg]) -> impl Iterator<Item = Entry<'_>> {
    segs.chunk_by(|_, next| !next.head)
        .map(|segs| Entry { segs })
}

/// Non-overlapping, offset-sorted interval map of chunks.
#[derive(Debug, Default, Clone)]
pub struct RangeMap {
    /// Every entry's segments, offset-sorted and non-overlapping.
    segs: Vec<Seg>,
    /// Number of entries (head segments), maintained incrementally.
    entries: usize,
    /// Total bytes covered (maintained incrementally).
    covered: u64,
}

impl RangeMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when no ranges are stored.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Total bytes covered by all entries.
    pub fn covered_bytes(&self) -> u64 {
        self.covered
    }

    /// Removes everything.
    pub fn clear(&mut self) {
        self.segs.clear();
        self.entries = 0;
        self.covered = 0;
    }

    /// Iterates the entries in offset order, as stored.
    pub fn iter(&self) -> impl Iterator<Item = Entry<'_>> {
        entries(&self.segs)
    }

    /// Drains all entries in offset order as their runs of segment handles:
    /// no byte is copied.
    pub fn drain_runs(&mut self) -> Runs {
        self.entries = 0;
        self.covered = 0;
        Runs {
            segs: std::mem::take(&mut self.segs),
        }
    }

    /// Drops the bytes and keeps the extents: every entry becomes one ghost
    /// segment with its offset and length, so [`RangeMap::len`],
    /// [`RangeMap::covered_bytes`] and [`RangeMap::covered_until`] answer
    /// as before. For a consumer that is done with the bytes; an insert
    /// after it coalesces the entries as the ghosts they now are.
    pub fn release_bytes(&mut self) {
        let (mut r, mut w) = (0, 0);
        while r < self.segs.len() {
            let n = self.run_len(r, self.segs.len());
            let off = self.segs[r].off;
            let len = self.segs[r + n - 1].end() - off;
            self.segs[w] = Seg::entry(off, Chunk::ghost(len));
            r += n;
            w += 1;
        }
        self.segs.truncate(w);
    }

    /// Newest-wins insertion with adjacency coalescing.
    pub fn insert(&mut self, off: u64, chunk: Chunk) {
        self.insert_with(off, chunk, Discipline::Overwrite);
    }

    /// First-wins insertion (only gaps are filled).
    pub fn insert_absent(&mut self, off: u64, chunk: Chunk) {
        self.insert_with(off, chunk, Discipline::Absent);
    }

    /// XOR-accumulating insertion.
    pub fn insert_xor(&mut self, off: u64, chunk: Chunk) {
        self.insert_with(off, chunk, Discipline::Xor);
    }

    /// General insertion under a discipline.
    ///
    /// # Panics
    /// Panics on zero-length chunks.
    pub fn insert_with(&mut self, off: u64, chunk: Chunk, disc: Discipline) {
        assert!(chunk.len > 0, "zero-length range");
        let end = off + chunk.len;
        // `segs[lo..hi)` are the segments that intersect `[off, end)`. The
        // scan for `hi` is linear: every discipline walks (or drops) those
        // segments anyway, and there are rarely more than two.
        let lo = self.segs.partition_point(|s| s.end() <= off);
        let hi = lo + self.segs[lo..].iter().take_while(|s| s.off < end).count();
        // `first`: the first segment at or after `off` once the insert is in.
        let first = if lo == hi {
            self.count(chunk.len, true);
            self.segs.insert(lo, Seg::entry(off, chunk));
            lo
        } else {
            match disc {
                Discipline::Overwrite => self.overwrite(lo, hi, off, chunk),
                Discipline::Absent => {
                    let first = lo + usize::from(self.segs[lo].off < off);
                    self.fill_gaps(lo, hi, off, &chunk);
                    first
                }
                Discipline::Xor => self.xor(off, &chunk),
            }
        };
        self.coalesce(first, end);
    }

    /// Overlays stored content onto `buf` (which represents
    /// `[off, off+len)`); returns `true` if the map fully covers the range.
    /// Whatever part is covered is patched either way, by reading each
    /// segment straight into `buf` ([`tsue_buf::Bytes::read_into`]).
    pub fn overlay(&self, off: u64, len: u64, mut buf: Option<&mut [u8]>) -> bool {
        let end = off + len;
        let lo = self.segs.partition_point(|s| s.end() <= off);
        let mut cursor = off;
        let mut holes = false;
        for s in self.segs[lo..].iter().take_while(|s| s.off < end) {
            let (from, to) = (s.off.max(off), s.end().min(end));
            holes |= from > cursor;
            if let (Some(b), Some(bytes)) = (buf.as_deref_mut(), s.chunk.bytes.as_ref()) {
                let dst = &mut b[(from - off) as usize..(to - off) as usize];
                bytes.read_into((from - s.off) as usize, dst);
            }
            cursor = to;
        }
        !holes && cursor >= end
    }

    /// End of the contiguous coverage that starts at `pos` — `pos` itself
    /// when it is not covered — looking no further than `limit`.
    pub fn covered_until(&self, pos: u64, limit: u64) -> u64 {
        let lo = self.segs.partition_point(|s| s.end() <= pos);
        let mut cursor = pos;
        for s in &self.segs[lo..] {
            if s.off > cursor || cursor >= limit {
                break;
            }
            cursor = s.end();
        }
        cursor
    }

    /// Accounts for a segment entering the map.
    fn count(&mut self, len: u64, head: bool) {
        self.covered += len;
        self.entries += usize::from(head);
    }

    /// Number of segments of the entry (part) that starts at `segs[r]`,
    /// looking no further than `segs[..hi]`.
    fn run_len(&self, r: usize, hi: usize) -> usize {
        1 + self.segs[r + 1..hi].iter().take_while(|s| !s.head).count()
    }

    /// The `n`-segment run at `segs[r]` as one segment over one new
    /// buffer — the single counted copy of a run's bytes, which an XOR
    /// then folds into in place.
    fn gathered(&self, r: usize, n: usize) -> Seg {
        let run = &self.segs[r..r + n];
        let off = run[0].off;
        let len = run[n - 1].end() - off;
        let mut m = BytesMut::take(len as usize);
        copy_run(run, m.as_mut());
        tsue_buf::count_copy(len);
        Seg::entry(off, Chunk::real(m.freeze()))
    }

    /// Makes `segs[i]` the first segment of an entry.
    fn set_head(&mut self, i: usize) {
        if !self.segs[i].head {
            self.segs[i].head = true;
            self.entries += 1;
        }
    }

    /// Newest wins: replaces `segs[lo..hi)` (non-empty) by what sticks out
    /// of `[off, end)` on either side and the new chunk in between. What
    /// is left of an intersected entry past `end` becomes an entry of its
    /// own; what is left before `off` stays with its entry. Returns the new
    /// segment's index.
    fn overwrite(&mut self, lo: usize, hi: usize, off: u64, chunk: Chunk) -> usize {
        let end = off + chunk.len;
        let (first, last) = (&self.segs[lo], &self.segs[hi - 1]);
        let left = (first.off < off).then(|| first.part(first.off, off, first.head));
        let right = (last.end() > end).then(|| last.part(end, last.end(), true));
        if right.is_none() && hi < self.segs.len() {
            self.set_head(hi);
        }
        for s in &self.segs[lo..hi] {
            self.covered -= s.chunk.len;
            self.entries -= usize::from(s.head);
        }
        let new = Seg::entry(off, chunk);
        let at = lo + usize::from(left.is_some());
        let mut w = lo;
        for piece in [left, Some(new), right].into_iter().flatten() {
            self.count(piece.chunk.len, piece.head);
            if w < hi {
                self.segs[w] = piece;
            } else {
                self.segs.insert(w, piece);
            }
            w += 1;
        }
        if w < hi {
            self.segs.drain(w..hi);
        }
        at
    }

    /// Inserts the parts of `chunk` (at `off`) that `segs[lo..hi)` leave
    /// uncovered, each as an entry of its own; existing segments stay.
    fn fill_gaps(&mut self, lo: usize, hi: usize, off: u64, chunk: &Chunk) {
        // Back to front, so the indices still to visit stay valid.
        for i in (lo..=hi).rev() {
            let from = if i > lo { self.segs[i - 1].end() } else { off };
            let to = if i < hi {
                self.segs[i].off
            } else {
                off + chunk.len
            };
            if to > from {
                self.count(to - from, true);
                let piece = chunk.slice(from - off, to - from);
                self.segs.insert(i, Seg::entry(from, piece));
            }
        }
    }

    /// Cuts the segment that straddles `pos`, if any, in two (both halves
    /// stay in its entry); returns the index of the first segment at or
    /// after `pos`.
    fn split_at(&mut self, pos: u64) -> usize {
        let i = self.segs.partition_point(|s| s.end() <= pos);
        match self.segs.get(i) {
            Some(s) if s.off < pos => {
                let (before, after) = (s.part(s.off, pos, s.head), s.part(pos, s.end(), false));
                self.segs[i] = before;
                self.segs.insert(i + 1, after);
                i + 1
            }
            _ => i,
        }
    }

    /// XOR accumulation over a window that intersects existing segments.
    /// Every intersected entry is cut at the window's edges — its part
    /// inside the window becomes an entry of its own and takes the XOR; so
    /// does what continues past the window — and `chunk` fills the gaps.
    /// Returns the index of the first segment in the window.
    fn xor(&mut self, off: u64, chunk: &Chunk) -> usize {
        let lo = self.split_at(off);
        let hi = self.split_at(off + chunk.len);
        self.set_head(lo);
        if hi < self.segs.len() {
            self.set_head(hi);
        }
        // Fold entry by entry, compacting `segs[lo..hi)` as runs shrink to
        // one segment.
        let (mut r, mut w) = (lo, lo);
        while r < hi {
            let n = self.run_len(r, hi);
            let from = self.segs[r].off;
            let len = self.segs[r + n - 1].end() - from;
            let patch = chunk.slice(from - off, len);
            if n > 1 {
                self.segs[r] = self.gathered(r, n);
            }
            // In place when the segment owns its buffer (a run gathered
            // just now does), else one copy-on-write of the overlapped
            // span.
            self.segs[r].chunk.xor_in(&patch);
            self.segs.swap(w, r);
            r += n;
            w += 1;
        }
        self.segs.drain(w..hi);
        self.fill_gaps(lo, w, off, chunk);
        lo
    }

    /// The merge pass: every entry that starts in `[off, end]` —
    /// `segs[first]` is the first segment at or after `off` — joins its
    /// left neighbour when the two are exactly adjacent and of one kind.
    /// Merges chain, so the window comes out in canonical form.
    fn coalesce(&mut self, first: usize, end: u64) {
        let mut x = first;
        while x < self.segs.len() && self.segs[x].off <= end {
            let s = &self.segs[x];
            if s.head
                && x > 0
                && self.segs[x - 1].end() == s.off
                && self.segs[x - 1].is_real() == s.is_real()
            {
                self.entries -= 1;
                if self.fuse(x) {
                    continue; // `segs[x]` is now the next segment
                }
                self.segs[x].head = false;
            }
            x += 1;
        }
    }

    /// Folds `segs[x]` into `segs[x - 1]` when that takes no copy: two
    /// ghosts, or contiguous views of one buffer. Returns whether it did.
    fn fuse(&mut self, x: usize) -> bool {
        let (left, right) = self.segs.split_at_mut(x);
        let (prev, cur) = (&mut left[x - 1].chunk, &right[0].chunk);
        let fused = match (prev.bytes.as_mut(), cur.bytes.as_ref()) {
            (Some(p), Some(c)) => p.try_join(c),
            _ => true,
        };
        if fused {
            prev.len += cur.len;
            self.segs.remove(x);
        }
        fused
    }
}

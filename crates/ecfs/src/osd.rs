//! The object storage device server: one per node, owning one device.
//!
//! An OSD stores whole erasure-code blocks (data or parity roles of a
//! stripe) at device offsets handed out by a bump allocator, plus arbitrary
//! *regions* that update schemes lease for their logs. Block payload bytes
//! are kept in memory only when the cluster runs in materialized
//! (correctness) mode, one [`PAGE`] at a time: a page holds zeros, its own
//! bytes, or a view of what wrote it. Pages are copy-on-write, so a read
//! and a delta capture share them instead of copying them; the device
//! model is timing/wear-only either way.

use crate::mds::FileId;
use crate::scheme::Combination;
use std::collections::BTreeMap;
use std::ops::Range;
use tsue_buf::{Bytes, BytesMut};
use tsue_device::{Device, IoKind, StreamId};
use tsue_integrity::{checksum, BlockChecksums, IntegrityError, SplitRng, PAGE};
use tsue_sim::Time;

#[cfg(test)]
mod reference;

/// Identifies one block of one stripe of one file.
///
/// `role < k` are data blocks; `role >= k` are parity blocks `role - k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId {
    /// Owning file.
    pub file: FileId,
    /// Stripe index *within the file*.
    pub stripe: u64,
    /// Position within the stripe (0..k+m).
    pub role: usize,
}

/// A block resident on an OSD.
#[derive(Debug)]
pub struct StoredBlock {
    /// Device byte offset of the block.
    pub dev_offset: u64,
    /// Bytes and checksums (materialized mode only).
    content: Option<Box<Content>>,
}

/// A materialized block: a table of [`PAGE`]-byte pages plus the per-page
/// checksum table, both allocated on the block's first write.
///
/// A page holds zeros, its own bytes, or a view of what wrote it:
///
/// * **zeros** — a page never written is absent: it holds the zero-page
///   digest and is never tainted;
/// * **its own bytes** — a buffer only the page holds, mutated in place;
/// * **a view** — a window of the deferred source a write covered the
///   whole page with ([`viewable`]), or a buffer that a read or a delta
///   shares with the page.
///
/// Views are copy-on-write: a partial write, an XOR merge or a bit flip
/// gives the page bytes of its own first, so whatever shares the old
/// buffer keeps the bytes it saw.
///
/// Only a page whose slot holds built bytes is ever hashed. A page that
/// holds none — absent, or a view of a deferred source — reads as a pure
/// function of its recipe over immutable handles, so a digest taken from
/// it could never mismatch it: an audit, a verification or a scrub checks
/// only its taint, and its stored digest is not maintained.
/// [`Content::digest`] derives a view's digest from the view, and a bit
/// flip records it in the table before it rots the page.
#[derive(Debug)]
struct Content {
    /// Block length in bytes.
    len: usize,
    /// Keep per-page digests ([`crate::ClusterConfig::checksums`]).
    checksums: bool,
    /// One slot per page, `None` for an absent one; empty until the
    /// block's first write.
    pages: Vec<Option<Bytes>>,
    /// Per-page digests and taint; `None` until the block's first write,
    /// and with checksums off.
    sums: Option<BlockChecksums>,
}

/// What a bracketed mutation does to the bytes it lands on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mutation {
    /// Mixes into them (XOR merge): rot in a page survives the write.
    Mix,
    /// Replaces them: a page replaced whole sheds its taint unhashed.
    Replace,
    /// Replaces them after folding them into a parity delta: every
    /// pre-image page is verified, once, for its taint and for the
    /// delta's source check alike.
    Capture,
}

/// All-zero content, compared against to keep zero pages absent.
static ZERO_PAGE: [u8; PAGE as usize] = [0; PAGE as usize];

/// The deepest source a page may view: a client payload (1), or a log
/// run's concatenation of payloads (2). A store read declares itself one
/// deeper ([`Content::snapshot`]), so a read written back — a re-sync, a
/// torn-tail revert — and a run that concatenates one are generated into
/// bytes of the page's own. Reading a page runs through at most this many
/// recipes, and a store read through one more.
pub(crate) const MAX_VIEW_DEPTH: usize = 2;

/// Whether a write that covers a whole page with `src` makes the page a
/// view of it: `src` is deferred and no deeper than [`MAX_VIEW_DEPTH`].
/// A built source is copied and a store read is generated, so a page
/// never pins another page's bytes or a built buffer larger than itself:
/// a deferred source holds no bytes, only its recipe and the handles that
/// recipe reads.
fn viewable(src: &Bytes) -> bool {
    (1..=MAX_VIEW_DEPTH).contains(&src.depth())
}

/// The pages `[off, off + len)` spans: `(page, range within that page,
/// offset of the range within [off, off + len))`.
fn segments(off: u64, len: u64) -> impl Iterator<Item = (usize, Range<usize>, usize)> {
    let page = PAGE as usize;
    let (start, end) = (off as usize, (off + len) as usize);
    let last = if len == 0 {
        start / page
    } else {
        end.div_ceil(page)
    };
    (start / page..last).map(move |p| {
        let base = p * page;
        let (s, e) = (start.max(base), end.min(base + page));
        (p, s - base..e - base, s - start)
    })
}

/// Checks `page`, which holds `p`, against `sums`: hashed when `p` holds
/// its bytes; a view of a deferred source fails only when tainted.
fn audit(sums: &BlockChecksums, page: usize, p: &Bytes) -> Result<(), IntegrityError> {
    match p.as_slice() {
        Some(bytes) => sums.check(page, bytes),
        None if sums.is_tainted(page) => Err(IntegrityError::TaintedPage { page }),
        None => Ok(()),
    }
}

/// Runs `f` on the bytes of `page`: straight from its buffer when that
/// holds them, else generated into `scratch`.
fn with_bytes<R>(page: &Bytes, scratch: &mut [u8; PAGE as usize], f: impl FnOnce(&[u8]) -> R) -> R {
    match page.as_slice() {
        Some(bytes) => f(bytes),
        None => {
            let bytes = &mut scratch[..page.len()];
            page.read_into(0, bytes);
            f(bytes)
        }
    }
}

/// The bytes of the `page_len`-byte page in `slot`, which then holds them
/// alone: in place when it already does, else in a new buffer — zeros,
/// or with `keep` a copy of the page's bytes (copy-on-write).
fn own(slot: &mut Option<Bytes>, page_len: usize, keep: bool) -> &mut [u8] {
    if slot.as_mut().is_none_or(|p| p.unique_mut().is_none()) {
        let fresh = match slot.as_ref().filter(|_| keep) {
            Some(old) => old.to_mut(),
            None => BytesMut::take(page_len),
        };
        *slot = Some(fresh.freeze());
    }
    slot.as_mut()
        .and_then(Bytes::unique_mut)
        // INVARIANT: the slot holds a built buffer no one else shares.
        .expect("a page of its own")
}

/// Writes bytes `[at, at + seg.len())` of `src` over `seg` of the
/// `page_len`-byte page in `slot`: a whole page becomes a view of a
/// [`viewable`] source; anything else lands in bytes of the page's own,
/// through a stack page over an absent one so zeros leave it absent.
fn write_page(
    slot: &mut Option<Bytes>,
    seg: Range<usize>,
    page_len: usize,
    src: &Bytes,
    at: usize,
) {
    let whole = seg.len() == page_len;
    if whole && viewable(src) {
        *slot = Some(src.slice(at, page_len));
    } else if whole && slot.is_none() {
        let mut scratch = [0u8; PAGE as usize];
        with_bytes(&src.slice(at, page_len), &mut scratch, |b| {
            write_bytes(slot, seg, page_len, b);
        });
    } else {
        src.read_into(at, &mut own(slot, page_len, !whole)[seg]);
    }
}

/// Copies `bytes` over `seg` of the `page_len`-byte page in `slot`, in
/// bytes of the page's own. An absent page that `bytes` cover whole with
/// zeros stays absent: it already reads as them.
fn write_bytes(slot: &mut Option<Bytes>, seg: Range<usize>, page_len: usize, bytes: &[u8]) {
    let whole = seg.len() == page_len;
    if !(whole && slot.is_none() && *bytes == ZERO_PAGE[..page_len]) {
        own(slot, page_len, !whole)[seg].copy_from_slice(bytes);
    }
}

/// Appends the window `v` at `at` to `terms`, which are in offset order
/// and disjoint, as a term of coefficient 1: joined to the last term when
/// it continues that one in the same buffer.
fn push_term(terms: &mut Vec<(u8, usize, Bytes)>, at: usize, v: Bytes) {
    if let Some((_, t_at, last)) = terms.last_mut() {
        if *t_at + last.len() == at && last.try_join(&v) {
            return;
        }
    }
    terms.push((1, at, v));
}

impl Content {
    fn new(len: u64, checksums: bool) -> Self {
        Content {
            len: len as usize,
            checksums,
            pages: Vec::new(),
            sums: None,
        }
    }

    /// Length of `page`.
    fn page_len(&self, page: usize) -> usize {
        (self.len - page * PAGE as usize).min(PAGE as usize)
    }

    /// The page `page` holds, `None` when absent.
    fn page(&self, page: usize) -> Option<&Bytes> {
        self.pages.get(page)?.as_ref()
    }

    /// Allocates the page and checksum tables on the block's first write.
    fn allocate(&mut self) {
        if self.pages.is_empty() {
            self.pages = vec![None; self.len.div_ceil(PAGE as usize)];
            self.sums = self
                .checksums
                .then(|| BlockChecksums::new_zeroed(self.len as u64));
        }
    }

    /// The checksum bracket, walked page by page over `[off, off + len)`:
    /// audit the page's pre-image if it exists, hand `mutate` the page's
    /// slot, the segment, the segment's position within the range and the
    /// page's length, re-digest the page if it holds bytes ([`audit`]).
    /// Returns whether a [`Mutation::Capture`] found its pre-image
    /// corrupt.
    fn bracket(
        &mut self,
        off: u64,
        len: u64,
        kind: Mutation,
        mut mutate: impl FnMut(&mut Option<Bytes>, Range<usize>, usize, usize),
    ) -> bool {
        assert!(off + len <= self.len as u64, "write beyond block");
        if len == 0 {
            return false;
        }
        self.allocate();
        let mut rotted = false;
        for (page, seg, at) in segments(off, len) {
            let page_len = self.page_len(page);
            let slot = &mut self.pages[page];
            if let (Some(old), Some(sums)) = (slot.as_ref(), self.sums.as_mut()) {
                // A page replaced whole cannot carry rot forward; any
                // other write over a corrupt (or already tainted)
                // pre-image would fold the rot into its fresh digest, so
                // the page stays or becomes tainted.
                let whole = kind != Mutation::Mix && seg.len() == page_len;
                let bad = (kind == Mutation::Capture || !whole) && audit(sums, page, old).is_err();
                rotted |= bad && kind == Mutation::Capture;
                sums.set_tainted(page, bad && !whole);
            }
            mutate(slot, seg, at, page_len);
            if let (Some(new), Some(sums)) =
                (slot.as_ref().and_then(Bytes::as_slice), self.sums.as_mut())
            {
                sums.rehash(page, new);
            }
        }
        rotted
    }

    /// A snapshot of `[off, off + len)` that copies nothing: a view of the
    /// one page that covers the range when that page holds its bytes,
    /// else a deferred concatenation of the pages' views, zeros where a
    /// page is absent, declared too deep for a page to view.
    fn snapshot(&self, off: u64, len: u64) -> Bytes {
        assert!(off + len <= self.len as u64, "read beyond block");
        let mut terms = Vec::new();
        for (page, seg, at) in segments(off, len) {
            if let Some(p) = self.page(page) {
                push_term(&mut terms, at, p.slice(seg.start, seg.len()));
            }
        }
        if let [(_, 0, v)] = &terms[..] {
            if v.len() as u64 == len && v.as_slice().is_some() {
                return v.clone();
            }
        }
        Combination::deferred_at_depth(len as usize, terms, MAX_VIEW_DEPTH + 1)
    }

    /// Copies `[off, off + out.len())` into `out`.
    fn read_into(&self, off: u64, out: &mut [u8]) {
        assert!(off as usize + out.len() <= self.len, "read beyond block");
        for (page, seg, at) in segments(off, out.len() as u64) {
            let dst = &mut out[at..at + seg.len()];
            match self.page(page) {
                Some(p) => p.read_into(seg.start, dst),
                None => dst.fill(0),
            }
        }
    }

    /// Flips one bit in place, bypassing the checksum table (bit rot). A
    /// view's digest is not maintained, so the flip first records the
    /// digest of the bytes the view gives the page.
    fn flip(&mut self, byte: usize, bit: u8) {
        self.allocate();
        let page = byte / PAGE as usize;
        let page_len = self.page_len(page);
        let viewed = self.page(page).is_some_and(|p| p.as_slice().is_none());
        let bytes = own(&mut self.pages[page], page_len, true);
        if let Some(sums) = self.sums.as_mut().filter(|_| viewed) {
            sums.rehash(page, bytes);
        }
        bytes[byte % PAGE as usize] ^= 1 << bit;
    }

    /// Verifies the written pages overlapping `[off, off + len)`.
    fn verify(&self, off: u64, len: u64) -> Result<(), IntegrityError> {
        let Some(sums) = &self.sums else {
            return Ok(());
        };
        for (page, _, _) in segments(off, len) {
            if let Some(p) = self.page(page) {
                audit(sums, page, p)?;
            }
        }
        Ok(())
    }

    /// Indices of the written pages that fail their digests or are
    /// tainted.
    fn corrupt_pages(&self) -> Vec<usize> {
        let Some(sums) = &self.sums else {
            return Vec::new();
        };
        (0..self.pages.len())
            .filter(|&page| {
                self.page(page)
                    .is_some_and(|p| audit(sums, page, p).is_err())
            })
            .collect()
    }

    /// Digest of `page`: the zero-page digest until the block's first
    /// write, a view's derived from the view, else the stored one; `None`
    /// with checksums off.
    fn digest(&self, page: usize) -> Option<u64> {
        let Some(sums) = &self.sums else {
            return self
                .checksums
                .then(|| checksum(&ZERO_PAGE[..self.page_len(page)]));
        };
        Some(match self.page(page) {
            Some(view) if view.as_slice().is_none() => {
                with_bytes(view, &mut [0; PAGE as usize], checksum)
            }
            _ => sums.digest(page),
        })
    }
}

/// Device stream id used for in-place block I/O.
const STREAM_BLOCK: StreamId = 0;
/// Device stream id used for degraded-write journal appends on the
/// journal peer (see [`crate::journal`]).
pub const STREAM_JOURNAL: StreamId = 15;
/// First stream id free for scheme-private use (log pools etc.).
pub const STREAM_SCHEME_BASE: StreamId = 16;

/// One storage server.
///
/// Two access planes: the **timing plane** charges device I/O
/// (`block_io` alone, or with bytes: `read_block_range`,
/// `write_block_range`, `xor_block_range`), the **content plane**
/// (`peek_*` and the `*poke*` writes) moves bytes only, for paths that
/// account timing separately. Every change to stored bytes — a client
/// write, a merge, a capture, a rebuild's decode, a replica replay, a
/// scrub repair — goes through one checksum bracket that walks the pages
/// of its range (audit the pre-image, mutate, re-digest);
/// [`Osd::corrupt_bits`] is the one deliberate bypass.
pub struct Osd {
    /// Network node id (OSDs occupy ids `0..cfg.osds`).
    pub node: usize,
    /// The backing device model.
    pub device: Device,
    /// Blocks hosted here; ordered, so listings schedule deterministically.
    store: BTreeMap<BlockId, StoredBlock>,
    /// Maintain per-page block checksums (materialized mode only; set
    /// from [`crate::ClusterConfig::checksums`]).
    pub checksums: bool,
    /// Blocks whose corrupt content sourced a parity delta: the delta
    /// carried the rot to parity, so the scrubber must re-encode the
    /// stripe's parity after repairing the data.
    poisoned: Vec<BlockId>,
    next_offset: u64,
}

impl Osd {
    /// Creates an empty OSD on `node`.
    pub fn new(node: usize, device: Device) -> Self {
        Osd {
            node,
            device,
            store: BTreeMap::new(),
            checksums: false,
            poisoned: Vec::new(),
            next_offset: 0,
        }
    }

    /// Leases `len` bytes of device space (for blocks or scheme logs).
    pub fn alloc_region(&mut self, len: u64) -> u64 {
        let off = self.next_offset;
        // 4 KiB alignment keeps FTL page accounting clean.
        self.next_offset = (off + len + 4095) & !4095;
        off
    }

    /// Allocates an all-zero block without charging the device — the
    /// rebuild target's copy, whose sequential write the caller times
    /// with [`Osd::block_io`]. When `materialize` is set the block holds
    /// content, all absent pages: its page and checksum tables come with
    /// its first write.
    pub fn install_block(&mut self, id: BlockId, block_size: u64, materialize: bool) {
        let dev_offset = self.alloc_region(block_size);
        let content = materialize.then(|| Box::new(Content::new(block_size, self.checksums)));
        self.store.insert(
            id,
            StoredBlock {
                dev_offset,
                content,
            },
        );
    }

    /// Allocates and pre-populates a block: device space is marked written
    /// (so later writes count as overwrites and the FTL starts realistic),
    /// and zero content is materialized when requested.
    pub fn provision_block(&mut self, id: BlockId, block_size: u64, materialize: bool) {
        self.install_block(id, block_size, materialize);
        // Initial population happens at virtual time zero on the block
        // stream; the caller resets stats afterwards.
        self.block_io(0, IoKind::Write, id, 0, block_size);
    }

    /// True if this OSD hosts `id`.
    pub fn hosts(&self, id: BlockId) -> bool {
        self.store.contains_key(&id)
    }

    /// Every hosted block id, in key order (deterministic scheduling
    /// source for recovery, re-sync and scrub listings).
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.store.keys().copied()
    }

    /// Charges one device op on `[off, off+len)` of a hosted block,
    /// starting at `at`, and moves no bytes. Returns its completion time.
    ///
    /// # Panics
    /// Panics if the block is not hosted here.
    pub fn block_io(&mut self, at: Time, kind: IoKind, id: BlockId, off: u64, len: u64) -> Time {
        // INVARIANT: callers route I/O through owner_of placement, so
        // the block is hosted on this OSD.
        let b = self.store.get(&id).expect("block not hosted here");
        self.device
            .submit(at, kind, b.dev_offset + off, len, STREAM_BLOCK)
    }

    /// Reads `[off, off+len)` of a block: charges a device read and returns
    /// `(completion_time, bytes-if-materialized)`. The bytes are a
    /// snapshot that copies nothing ([`Osd::peek_block_range`]).
    ///
    /// # Panics
    /// Panics if the block is absent or the range exceeds it.
    pub fn read_block_range(
        &mut self,
        now: Time,
        id: BlockId,
        off: u64,
        len: u64,
    ) -> (Time, Option<Bytes>) {
        let t = self.block_io(now, IoKind::Read, id, off, len);
        (t, self.peek_block_range(id, off, len))
    }

    /// Writes `[off, off+len)` of a block in place: charges a device write
    /// (an overwrite, by construction) and stores bytes when materialized,
    /// read straight from `data` into the store (see
    /// [`Osd::poke_block_range`]).
    ///
    /// # Panics
    /// Panics if the block is absent or the range exceeds it.
    pub fn write_block_range(
        &mut self,
        now: Time,
        id: BlockId,
        off: u64,
        len: u64,
        data: Option<&Bytes>,
    ) -> Time {
        if let Some(src) = data {
            assert_eq!(src.len() as u64, len, "payload length mismatch");
            self.poke_block_range(id, off, src);
        }
        self.block_io(now, IoKind::Write, id, off, len)
    }

    /// Applies `delta` into block content with XOR (parity merge) and
    /// charges the read-modify-write device traffic, with `compute`
    /// between the read and the write.
    ///
    /// Returns the completion time of the final write.
    pub fn xor_block_range(
        &mut self,
        now: Time,
        id: BlockId,
        off: u64,
        len: u64,
        delta: Option<&Bytes>,
        compute: Time,
    ) -> Time {
        // The XOR is applied directly into the block store — no buffer
        // materializes on this path ([`Osd::xor_poke_range`]).
        if let Some(d) = delta {
            assert_eq!(d.len() as u64, len, "delta length mismatch");
            self.xor_poke_range(id, off, d);
        }
        let t_read = self.block_io(now, IoKind::Read, id, off, len);
        self.block_io(t_read + compute, IoKind::Write, id, off, len)
    }

    fn content(&self, id: BlockId) -> Option<&Content> {
        self.store.get(&id)?.content.as_deref()
    }

    fn content_mut(&mut self, id: BlockId) -> Option<&mut Content> {
        self.store.get_mut(&id)?.content.as_deref_mut()
    }

    /// Content-only read of a block range (no device charge) — used when
    /// content application and timing accounting are decoupled. Returns a
    /// snapshot that copies and allocates nothing: a view of the page
    /// that covers the range when that page holds its bytes, else a
    /// deferred recipe over the views of the pages the range touches,
    /// zeros where a page is absent. Pages are copy-on-write, so the
    /// snapshot keeps its bytes after later writes. `None` when the block
    /// is not materialized.
    pub fn peek_block_range(&self, id: BlockId, off: u64, len: u64) -> Option<Bytes> {
        Some(self.content(id)?.snapshot(off, len))
    }

    /// Content-only read of `[off, off + out.len())` into `out` (no
    /// device charge). False when the block is not materialized.
    pub fn peek_into(&self, id: BlockId, off: u64, out: &mut [u8]) -> bool {
        let Some(c) = self.content(id) else {
            return false;
        };
        c.read_into(off, out);
        true
    }

    /// Content-only XOR of `delta` into a block range (no device charge,
    /// no intermediate buffer) — the zero-copy counterpart of peek → xor →
    /// poke on paths that decouple content from timing. A built delta is
    /// XORed from its bytes; a deferred one (a parity delta's recipe) is
    /// generated a page at a time into a stack scratch and never buffered.
    pub fn xor_poke_range(&mut self, id: BlockId, off: u64, delta: &Bytes) {
        let Some(c) = self.content_mut(id) else {
            return;
        };
        c.bracket(
            off,
            delta.len() as u64,
            Mutation::Mix,
            |slot, seg, at, page_len| {
                let dst = &mut own(slot, page_len, true)[seg];
                delta.for_each_window(at, dst.len(), |i, d| {
                    tsue_gf::xor_slice(d, &mut dst[i..i + d.len()]);
                });
            },
        );
    }

    /// Content-only delta capture: replaces `[off, off + new.len())` with
    /// `new` and returns the data delta `new ⊕ old`, in one pass over the
    /// store (no device charge — the timed I/O is charged separately by
    /// the caller). The delta copies nothing: where the range was never
    /// written it is `new`'s own handle, else a deferred combination of
    /// `new` and views of the pre-image pages, which keep their bytes as
    /// the capture replaces them (copy-on-write). Every pre-image page is
    /// audited; a corrupt one poisons the block. Returns `None` when the
    /// block is not materialized.
    pub fn delta_poke_range(&mut self, id: BlockId, off: u64, new: &Bytes) -> Option<Bytes> {
        let c = self.content_mut(id)?;
        let mut old = Vec::new();
        let rotted = c.bracket(
            off,
            new.len() as u64,
            Mutation::Capture,
            |slot, seg, at, page_len| {
                if let Some(pre) = slot.as_ref().map(|p| p.slice(seg.start, seg.len())) {
                    push_term(&mut old, at, pre);
                }
                write_page(slot, seg, page_len, new, at);
            },
        );
        if rotted {
            // The delta XORed in rotted bytes and poisons the parity it
            // feeds: queue the stripe for a parity re-encode after the
            // data is repaired.
            self.poisoned.push(id);
        }
        if old.is_empty() {
            return Some(new.clone());
        }
        let terms = std::iter::once((1, 0, new.clone())).chain(old).collect();
        Some(Combination::deferred(new.len(), terms))
    }

    /// Content-only write of a block range (no device charge). A repair
    /// that rewrites a whole page clears its taint. A page `data` covers
    /// whole becomes a view of it when `data` is a (deferred) client
    /// payload or a log run's concatenation of them; the rest of `data` is
    /// read straight into the store pages, so such a payload is generated
    /// there and never buffered. An absent page that `data` covers whole
    /// with zeros stays absent.
    pub fn poke_block_range(&mut self, id: BlockId, off: u64, data: &Bytes) {
        if let Some(c) = self.content_mut(id) {
            c.bracket(
                off,
                data.len() as u64,
                Mutation::Replace,
                |slot, seg, at, page_len| {
                    write_page(slot, seg, page_len, data, at);
                },
            );
        }
    }

    /// Content-only write of `src` over `[off, off + src.len())` (no
    /// device charge), for bytes the caller already holds — the page a
    /// scrub repair decoded and gated — copied into pages of their own.
    pub fn poke_slice(&mut self, id: BlockId, off: u64, src: &[u8]) {
        if let Some(c) = self.content_mut(id) {
            c.bracket(
                off,
                src.len() as u64,
                Mutation::Replace,
                |slot, seg, at, page_len| {
                    let bytes = &src[at..at + seg.len()];
                    write_bytes(slot, seg, page_len, bytes);
                },
            );
        }
    }

    /// Drops a block (node failure cleanup / migration source).
    pub fn evict_block(&mut self, id: BlockId) -> Option<StoredBlock> {
        self.store.remove(&id)
    }

    /// Silently flips `flips` random bits of the block's content — the
    /// checksum table is deliberately **not** updated, which is exactly
    /// what bit rot looks like. Returns the number of bits flipped (0 in
    /// timing-only mode, where there are no bytes to rot).
    pub fn corrupt_bits(&mut self, id: BlockId, rng: &mut SplitRng, flips: usize) -> usize {
        // INVARIANT: fault injection targets blocks the placement map
        // hosts on this OSD.
        let b = self.store.get_mut(&id).expect("block not hosted here");
        let Some(c) = b.content.as_mut() else {
            return 0;
        };
        for _ in 0..flips {
            let byte = rng.below(c.len as u64) as usize;
            let bit = rng.below(8) as u8;
            c.flip(byte, bit);
        }
        flips
    }

    /// Verifies the checksums of every page of `id` overlapping
    /// `[off, off + len)`.
    ///
    /// # Errors
    /// The first corrupt page, as a typed [`IntegrityError`]. Blocks
    /// without a checksum table (timing-only mode, checksums disabled)
    /// verify vacuously.
    pub fn verify_range(&self, id: BlockId, off: u64, len: u64) -> Result<(), IntegrityError> {
        self.content(id).map_or(Ok(()), |c| c.verify(off, len))
    }

    /// Scans the whole block against its checksum table, returning the
    /// indices of corrupt pages (empty when clean or untracked).
    pub fn corrupt_pages(&self, id: BlockId) -> Vec<usize> {
        self.content(id)
            .map_or_else(Vec::new, Content::corrupt_pages)
    }

    /// Stored digest of `page` of `id`, when a checksum table exists.
    pub fn page_digest(&self, id: BlockId, page: usize) -> Option<u64> {
        self.content(id)?.digest(page)
    }

    /// Whether `page` of `id` is flagged written-while-corrupt (its
    /// stored digest blesses untrustworthy bytes).
    pub fn page_tainted(&self, id: BlockId, page: usize) -> bool {
        self.content(id)
            .and_then(|c| c.sums.as_ref())
            .is_some_and(|s| s.is_tainted(page))
    }

    /// Declares that `[off, off + len)` of `id` is about to source a
    /// parity delta outside [`Osd::delta_poke_range`] (a read of the
    /// original that another node folds). A corrupt source range poisons
    /// the emitted delta, so the block is queued for the scrubber's
    /// stripe-level parity re-encode.
    pub fn note_delta_source(&mut self, id: BlockId, off: u64, len: u64) {
        if self.verify_range(id, off, len).is_err() {
            self.poisoned.push(id);
        }
    }

    /// Drains the queue of blocks whose rot reached parity through a
    /// delta (consumed by the scrubber).
    pub fn take_poisoned(&mut self) -> Vec<BlockId> {
        std::mem::take(&mut self.poisoned)
    }

    /// Zeroes the accumulated device statistics (end of setup phase).
    pub fn reset_stats(&mut self) {
        self.device.reset_stats();
    }

    /// Pages of `id` holding bytes (0 for a block never written).
    #[cfg(test)]
    fn resident_pages(&self, id: BlockId) -> usize {
        self.content(id)
            .map_or(0, |c| c.pages.iter().filter(|p| p.is_some()).count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsue_device::SsdModel;

    fn osd() -> Osd {
        Osd::new(0, Device::new_ssd(SsdModel::datacenter(64 << 20)))
    }

    fn bid(stripe: u64, role: usize) -> BlockId {
        BlockId {
            file: 0,
            stripe,
            role,
        }
    }

    fn bytes(src: &[u8]) -> Bytes {
        Bytes::copy_from_slice(src)
    }

    #[test]
    fn alloc_region_is_aligned_and_disjoint() {
        let mut o = osd();
        let a = o.alloc_region(5000);
        let b = o.alloc_region(100);
        let c = o.alloc_region(4096);
        assert_eq!(a % 4096, 0);
        assert_eq!(b % 4096, 0);
        assert!(b >= a + 5000);
        assert!(c >= b + 100);
    }

    #[test]
    fn provision_then_read_write_roundtrip() {
        let mut o = osd();
        o.provision_block(bid(0, 1), 8192, true);
        let payload = Bytes::from(vec![7u8; 100]);
        let t1 = o.write_block_range(0, bid(0, 1), 50, 100, Some(&payload));
        assert!(t1 > 0);
        let (_, data) = o.read_block_range(t1, bid(0, 1), 50, 100);
        assert_eq!(data.unwrap(), payload);
        // Outside the written range stays zero.
        let (_, zeros) = o.read_block_range(t1, bid(0, 1), 0, 50);
        assert_eq!(zeros.unwrap(), vec![0u8; 50]);
    }

    #[test]
    fn provisioned_blocks_count_overwrites_on_update() {
        let mut o = osd();
        o.provision_block(bid(0, 0), 4096, false);
        o.reset_stats();
        o.write_block_range(0, bid(0, 0), 0, 4096, None);
        assert_eq!(o.device.stats().overwrite_ops, 1);
    }

    #[test]
    fn xor_block_range_applies_delta() {
        let mut o = osd();
        o.provision_block(bid(2, 3), 4096, true);
        let base = Bytes::from(vec![0xF0u8; 64]);
        o.write_block_range(0, bid(2, 3), 0, 64, Some(&base));
        let delta = bytes(&[0x0Fu8; 64]);
        o.xor_block_range(0, bid(2, 3), 0, 64, Some(&delta), 0);
        let (_, got) = o.read_block_range(0, bid(2, 3), 0, 64);
        assert_eq!(got.unwrap(), vec![0xFFu8; 64]);
    }

    #[test]
    #[should_panic(expected = "block not hosted here")]
    fn reading_foreign_block_panics() {
        let mut o = osd();
        o.read_block_range(0, bid(9, 9), 0, 1);
    }

    #[test]
    fn checksums_follow_every_mutation_path() {
        let mut o = osd();
        o.checksums = true;
        o.provision_block(bid(0, 0), 16 << 10, true);
        assert!(o.verify_range(bid(0, 0), 0, 16 << 10).is_ok());

        // Timed write, content pokes, delta capture, and XOR merges all
        // keep the table consistent.
        o.write_block_range(0, bid(0, 0), 100, 64, Some(&bytes(&[3u8; 64])));
        o.poke_block_range(bid(0, 0), 5000, &bytes(&[9u8; 32]));
        o.delta_poke_range(bid(0, 0), 9000, &bytes(&[1u8; 16]));
        o.xor_poke_range(bid(0, 0), 9000, &bytes(&[0xFFu8; 16]));
        o.xor_block_range(0, bid(0, 0), 12 << 10, 8, Some(&bytes(&[0x55u8; 8])), 0);
        assert!(o.verify_range(bid(0, 0), 0, 16 << 10).is_ok());
        assert!(o.corrupt_pages(bid(0, 0)).is_empty());
    }

    #[test]
    fn bit_rot_is_detected_and_rehash_clears_it() {
        let mut o = osd();
        o.checksums = true;
        o.provision_block(bid(1, 1), 8192, true);
        let mut rng = SplitRng::new(99);
        assert_eq!(o.corrupt_bits(bid(1, 1), &mut rng, 3), 3);
        assert!(!o.corrupt_pages(bid(1, 1)).is_empty(), "rot must be seen");
        assert!(o.verify_range(bid(1, 1), 0, 8192).is_err());
        // A repair writes authoritative content over every page whole,
        // digested afresh.
        o.poke_slice(bid(1, 1), 0, &[0; 8192]);
        assert!(o.verify_range(bid(1, 1), 0, 8192).is_ok());
    }

    #[test]
    fn checksums_disabled_means_silent_corruption() {
        let mut o = osd();
        o.provision_block(bid(2, 0), 4096, true);
        let mut rng = SplitRng::new(7);
        o.corrupt_bits(bid(2, 0), &mut rng, 2);
        assert!(o.verify_range(bid(2, 0), 0, 4096).is_ok(), "nothing checks");
        assert!(o.corrupt_pages(bid(2, 0)).is_empty());
    }

    #[test]
    fn timing_only_mode_skips_bytes() {
        let mut o = osd();
        o.provision_block(bid(1, 0), 4096, false);
        let (_, data) = o.read_block_range(0, bid(1, 0), 0, 128);
        assert!(data.is_none());
        assert!(!o.peek_into(bid(1, 0), 0, &mut [0u8; 16]));
    }

    /// A checksummed, materialized 1 MiB block, provisioned.
    fn paged_osd() -> Osd {
        let mut o = osd();
        o.checksums = true;
        o.provision_block(bid(0, 0), 1 << 20, true);
        o
    }

    #[test]
    fn provisioned_block_holds_no_pages() {
        assert_eq!(paged_osd().resident_pages(bid(0, 0)), 0);
    }

    #[test]
    fn unaligned_page_write_materializes_two_pages() {
        let mut o = paged_osd();
        o.write_block_range(0, bid(0, 0), 512, 4096, Some(&bytes(&[5u8; 4096])));
        assert_eq!(o.resident_pages(bid(0, 0)), 2);
        let got = o
            .peek_block_range(bid(0, 0), 0, 8192)
            .expect("materialized");
        assert_eq!(got.slice(0, 512), vec![0u8; 512]);
        assert_eq!(got.slice(512, 4096), vec![5u8; 4096]);
        assert_eq!(got.slice(4608, 3584), vec![0u8; 3584]);
        assert!(o.verify_range(bid(0, 0), 0, 1 << 20).is_ok());
    }

    #[test]
    fn reads_and_verifies_of_unwritten_ranges_materialize_nothing() {
        let mut o = paged_osd();
        let (_, zeros) = o.read_block_range(0, bid(0, 0), 100, 3 << 12);
        assert_eq!(zeros.expect("materialized"), vec![0u8; 3 << 12]);
        assert!(o.verify_range(bid(0, 0), 0, 1 << 20).is_ok());
        assert!(o.corrupt_pages(bid(0, 0)).is_empty());
        o.note_delta_source(bid(0, 0), 0, 1 << 20);
        assert!(o.take_poisoned().is_empty());
        // A rebuild that decodes all zeros keeps the block empty.
        let decoded = o
            .peek_block_range(bid(0, 0), 0, 1 << 20)
            .expect("materialized");
        o.poke_block_range(bid(0, 0), 0, &decoded);
        assert_eq!(o.resident_pages(bid(0, 0)), 0);
    }

    /// A page written whole with zeros stays absent if it was, from a
    /// slice, a built buffer or a recipe alike; a page written in part
    /// or written before holds bytes.
    #[test]
    fn zeros_written_whole_over_an_absent_page_leave_it_absent() {
        let mut o = paged_osd();
        let before = tsue_buf::stats();
        o.poke_slice(bid(0, 0), 0, &[0; 2 * PAGE as usize]);
        o.poke_block_range(bid(0, 0), 2 * PAGE, &Bytes::from(vec![0; PAGE as usize]));
        let zeros = o
            .peek_block_range(bid(0, 0), 0, PAGE)
            .expect("materialized");
        o.poke_block_range(bid(0, 0), 3 * PAGE, &zeros);
        assert_eq!(o.resident_pages(bid(0, 0)), 0);
        assert_eq!(tsue_buf::stats().since(&before).pool_misses, 0);
        o.poke_slice(bid(0, 0), 100, &[0; 8]);
        o.poke_slice(bid(0, 0), PAGE, &[1; PAGE as usize]);
        assert_eq!(o.resident_pages(bid(0, 0)), 2);
        o.poke_slice(bid(0, 0), 0, &[0; 2 * PAGE as usize]);
        assert_eq!(o.resident_pages(bid(0, 0)), 2, "written before");
        assert!(o.verify_range(bid(0, 0), 0, 1 << 20).is_ok());
    }

    /// A client payload of `len` bytes, deferred and not yet read.
    fn unread_payload(len: usize) -> Bytes {
        crate::payload::payload_bytes(77, 1, len as u64)
    }

    /// Two identical checksummed 12 KiB blocks, written, then rotted by
    /// the same bit flips.
    fn rotted_pair() -> [Osd; 2] {
        [osd(), osd()].map(|mut o| {
            o.checksums = true;
            o.provision_block(bid(0, 0), 3 * PAGE, true);
            o.poke_block_range(bid(0, 0), 0, &Bytes::from(vec![0x3c; 3 * PAGE as usize]));
            assert_eq!(o.corrupt_bits(bid(0, 0), &mut SplitRng::new(5), 4), 4);
            o
        })
    }

    /// Page contents, digests and taint flags of block `bid(0, 0)`.
    fn store_state(o: &Osd) -> (Option<Bytes>, Vec<(Option<u64>, bool)>) {
        let pages = (0..3)
            .map(|p| (o.page_digest(bid(0, 0), p), o.page_tainted(bid(0, 0), p)))
            .collect();
        (o.peek_block_range(bid(0, 0), 0, 3 * PAGE), pages)
    }

    #[test]
    fn capture_streamed_from_an_unread_payload_poisons_like_a_filled_one() {
        let [mut streamed, mut built] = rotted_pair();
        // An unaligned range over all three rotted pages, partial at both
        // ends.
        let (off, len) = (100, 3 * PAGE as usize - 300);
        let unread = unread_payload(len);
        let read = unread_payload(len).into_built();

        // The partial pages 0 and 2 generate their pieces into bytes of
        // their own; page 1, covered whole, becomes a view of the payload,
        // which no digest generates: len − PAGE bytes.
        let before = tsue_buf::stats();
        let got = streamed.delta_poke_range(bid(0, 0), off, &unread);
        let window = tsue_buf::stats().since(&before);
        assert_eq!(window.streamed_bytes, len as u64 - PAGE, "streamed once");

        let want = built.delta_poke_range(bid(0, 0), off, &read);
        assert!(got.is_some() && got == want, "same delta");
        assert_eq!(
            streamed.take_poisoned(),
            vec![bid(0, 0)],
            "rot reached parity"
        );
        assert_eq!(built.take_poisoned(), vec![bid(0, 0)]);
        assert_eq!(store_state(&streamed), store_state(&built));
        assert!(
            !streamed.corrupt_pages(bid(0, 0)).is_empty(),
            "partial pages over rot stay flagged"
        );
    }

    #[test]
    fn in_place_write_of_an_unread_payload_taints_a_rotted_partial_page() {
        let [mut streamed, mut built] = rotted_pair();
        let rotted = streamed.corrupt_pages(bid(0, 0));
        assert!(!rotted.is_empty());
        // [512, 12 KiB − 512): partial over pages 0 and 2, whole over 1.
        let (off, len) = (512, 3 * PAGE - 1024);
        let unread = unread_payload(len as usize);
        let read = unread_payload(len as usize).into_built();
        streamed.write_block_range(0, bid(0, 0), off, len, Some(&unread));
        built.write_block_range(0, bid(0, 0), off, len, Some(&read));
        let partial: Vec<usize> = rotted.iter().copied().filter(|&p| p != 1).collect();
        assert!(!partial.is_empty(), "rot in a partially written page");
        for page in 0..3 {
            let tainted = streamed.page_tainted(bid(0, 0), page);
            assert_eq!(tainted, partial.contains(&page), "page {page}");
        }
        assert_eq!(streamed.corrupt_pages(bid(0, 0)), partial);
        assert_eq!(store_state(&streamed), store_state(&built));
        assert!(
            streamed.take_poisoned().is_empty(),
            "a blind write sources no delta"
        );
    }

    /// Depth of every page of `bid(0, 0)` that holds something.
    fn page_depths(o: &Osd) -> Vec<usize> {
        let c = o.content(bid(0, 0)).expect("materialized");
        c.pages.iter().flatten().map(Bytes::depth).collect()
    }

    #[test]
    fn a_payload_written_whole_is_viewed_and_a_built_source_copied() {
        let mut o = paged_osd();
        let before = tsue_buf::stats();
        o.poke_block_range(bid(0, 0), 0, &unread_payload(4 * PAGE as usize));
        let s = tsue_buf::stats().since(&before);
        assert_eq!(s.pool_misses, 0, "four views");
        assert_eq!(s.streamed_bytes, 0, "a view is never hashed");
        assert_eq!(page_depths(&o), [1; 4]);
        // A source that holds its bytes is copied into pages of their
        // own, so no page pins a buffer larger than itself.
        let before = tsue_buf::stats();
        let built = Bytes::from(vec![1u8; 2 * PAGE as usize]);
        o.poke_block_range(bid(0, 0), PAGE, &built);
        assert_eq!(tsue_buf::stats().since(&before).pool_misses, 2);
        assert_eq!(page_depths(&o), [1, 0, 0, 1]);
        assert!(o.verify_range(bid(0, 0), 0, 1 << 20).is_ok());
    }

    /// A checksummed 4-page block whose every page views one client
    /// payload, and the payload's bytes.
    fn viewed_block() -> (Osd, Vec<u8>) {
        let mut o = osd();
        o.checksums = true;
        o.provision_block(bid(0, 0), 4 * PAGE, true);
        let payload = unread_payload(4 * PAGE as usize);
        o.poke_block_range(bid(0, 0), 0, &payload);
        assert_eq!(page_depths(&o), [1; 4]);
        let mut bytes = vec![0u8; 4 * PAGE as usize];
        payload.read_into(0, &mut bytes);
        (o, bytes)
    }

    /// A view's digest is not kept in the table, so a bit flip records it
    /// before the page's bytes rot: the flipped page, and only it, fails,
    /// and every page's digest stays that of the payload's bytes.
    #[test]
    fn rot_in_a_view_is_caught() {
        let (mut o, bytes) = viewed_block();
        let want: Vec<_> = bytes
            .chunks(PAGE as usize)
            .map(|b| Some(checksum(b)))
            .collect();
        let digests = |o: &Osd| {
            (0..4)
                .map(|p| o.page_digest(bid(0, 0), p))
                .collect::<Vec<_>>()
        };
        assert_eq!(digests(&o), want);
        assert_eq!(o.corrupt_bits(bid(0, 0), &mut SplitRng::new(11), 1), 1);
        let mut got = vec![0u8; 4 * PAGE as usize];
        assert!(o.peek_into(bid(0, 0), 0, &mut got));
        let pages = |b: &[u8]| {
            b.chunks(PAGE as usize)
                .map(<[u8]>::to_vec)
                .collect::<Vec<_>>()
        };
        let (got, bytes) = (pages(&got), pages(&bytes));
        let rotted: Vec<usize> = (0..4).filter(|&p| got[p] != bytes[p]).collect();
        assert_eq!(rotted.len(), 1, "one flip rots one page");
        assert_eq!(o.corrupt_pages(bid(0, 0)), rotted);
        assert!(o.verify_range(bid(0, 0), 0, 4 * PAGE).is_err());
        assert_eq!(digests(&o), want);
    }

    /// Verifying, scanning or sourcing a delta from pages that view a
    /// payload generates none of them.
    #[test]
    fn verifying_views_streams_nothing() {
        let (mut o, _) = viewed_block();
        let before = tsue_buf::stats();
        assert!(o.verify_range(bid(0, 0), 0, 4 * PAGE).is_ok());
        assert!(o.corrupt_pages(bid(0, 0)).is_empty());
        o.note_delta_source(bid(0, 0), 0, 4 * PAGE);
        assert!(o.take_poisoned().is_empty());
        assert_eq!(tsue_buf::stats().since(&before).streamed_bytes, 0);
    }

    #[test]
    fn a_read_over_a_page_that_holds_its_bytes_is_a_view_of_it() {
        let mut o = paged_osd();
        o.poke_block_range(bid(0, 0), 0, &bytes(&[6u8; 100]));
        let newer = bytes(&[7u8; 100]);
        let before = tsue_buf::stats();
        let got = o.peek_block_range(bid(0, 0), 10, 50).expect("materialized");
        assert_eq!(got.as_slice(), Some(&[6u8; 50][..]), "built: no recipe");
        // The page is now shared: the next write copies it first.
        o.poke_block_range(bid(0, 0), 0, &newer);
        assert_eq!(
            got.as_slice(),
            Some(&[6u8; 50][..]),
            "the read kept its bytes"
        );
        let s = tsue_buf::stats().since(&before);
        assert_eq!(
            (s.pool_misses, s.bytes_copied),
            (1, PAGE),
            "one copy-on-write"
        );
    }

    /// A read written back — a re-sync, a torn-tail revert — would stack
    /// one more recipe per round if pages viewed it. A store read declares
    /// itself deeper than [`MAX_VIEW_DEPTH`], so the store generates it
    /// into bytes of the page's own instead, and views only what a log
    /// run hands it: every page stays at most that deep and every read
    /// one deeper, however many rounds run.
    #[test]
    fn views_stay_shallow() {
        let mut o = paged_osd();
        let id = bid(0, 0);
        let len = 8 * PAGE;
        o.poke_block_range(id, 0, &unread_payload(len as usize));
        let run = Combination::deferred(
            2 * PAGE as usize,
            vec![
                (1, 0, unread_payload(PAGE as usize)),
                (1, PAGE as usize, unread_payload(PAGE as usize)),
            ],
        );
        assert_eq!(run.depth(), MAX_VIEW_DEPTH, "a log run's concatenation");
        for round in 0..32u64 {
            let snap = o.peek_block_range(id, 0, len).expect("materialized");
            assert!(snap.depth() <= MAX_VIEW_DEPTH + 1, "round {round}");
            let mut want = vec![0u8; len as usize];
            snap.read_into(0, &mut want);
            let at = round % 4 * PAGE;
            let back = snap.slice(0, (len - at) as usize);
            match round % 3 {
                0 => o.poke_block_range(id, at, &back),
                1 => {
                    let d = o.delta_poke_range(id, at, &back).expect("materialized");
                    assert!(d.depth() <= MAX_VIEW_DEPTH + 1 + 1, "round {round}");
                }
                _ => o.poke_block_range(id, at, &run),
            }
            assert!(
                page_depths(&o).iter().all(|&d| d <= MAX_VIEW_DEPTH),
                "round {round}"
            );
            if round % 3 != 2 {
                let mut got = vec![0u8; len as usize];
                assert!(o.peek_into(id, 0, &mut got));
                assert!(
                    got[at as usize..] == want[..(len - at) as usize],
                    "round {round}"
                );
            }
        }
        assert!(o.verify_range(id, 0, 1 << 20).is_ok());
    }

    #[test]
    fn one_bit_flip_materializes_one_page() {
        let mut o = paged_osd();
        assert_eq!(o.corrupt_bits(bid(0, 0), &mut SplitRng::new(3), 1), 1);
        assert_eq!(o.resident_pages(bid(0, 0)), 1);
        assert_eq!(
            o.corrupt_pages(bid(0, 0)).len(),
            1,
            "the stale digest flags it"
        );
    }
}

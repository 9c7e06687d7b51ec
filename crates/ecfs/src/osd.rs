//! The object storage device server: one per node, owning one device.
//!
//! An OSD stores whole erasure-code blocks (data or parity roles of a
//! stripe) at device offsets handed out by a bump allocator, plus arbitrary
//! *regions* that update schemes lease for their logs. Block payload bytes
//! are kept in memory only when the cluster runs in materialized
//! (correctness) mode, one [`PAGE`] at a time as content is first written;
//! the device model is timing/wear-only either way.

use crate::mds::FileId;
use std::collections::BTreeMap;
use std::ops::Range;
use tsue_buf::{Bytes, BytesMut};
use tsue_device::{Device, IoKind, StreamId};
use tsue_integrity::{BlockChecksums, IntegrityError, SplitRng, PAGE};
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

/// A materialized block: a table of [`PAGE`]-byte pages, each allocated
/// on its first content change, plus the per-page checksum table.
///
/// The absent-page invariant: a page that was never written reads as
/// zeros, holds the zero-page digest and is never tainted, so no audit,
/// verification or scrub has to hash it.
#[derive(Debug)]
struct Content {
    /// Block length in bytes.
    len: usize,
    pages: Vec<Option<Box<[u8]>>>,
    /// Per-page digests and taint ([`crate::ClusterConfig::checksums`]).
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

impl Content {
    fn new(len: u64, checksums: bool) -> Self {
        Content {
            len: len as usize,
            pages: vec![None; len.div_ceil(PAGE) as usize],
            sums: checksums.then(|| BlockChecksums::new_zeroed(len)),
        }
    }

    /// The bytes of `page` in a table for a `len`-byte block, allocated
    /// (zeroed) on first use.
    fn materialize(slot: &mut Option<Box<[u8]>>, len: usize, page: usize) -> &mut [u8] {
        let page_len = (len - page * PAGE as usize).min(PAGE as usize);
        slot.get_or_insert_with(|| vec![0; page_len].into_boxed_slice())
    }

    /// The checksum bracket, walked page by page over `[off, off + len)`:
    /// materialize the page, audit its pre-image if it existed, apply
    /// `mutate` to its segment (handed the segment's position within the
    /// range), re-digest it. Returns whether a [`Mutation::Capture`] found
    /// its pre-image corrupt.
    fn bracket(
        &mut self,
        off: u64,
        len: u64,
        kind: Mutation,
        mut mutate: impl FnMut(Range<usize>, &mut [u8]),
    ) -> bool {
        assert!(off + len <= self.len as u64, "write beyond block");
        let Content {
            len: block_len,
            pages,
            sums,
        } = self;
        let mut rotted = false;
        for (page, seg, at) in segments(off, len) {
            let slot = &mut pages[page];
            if let (Some(old), Some(sums)) = (slot.as_deref(), sums.as_mut()) {
                // A page replaced whole cannot carry rot forward; any
                // other write over a corrupt (or already tainted)
                // pre-image would fold the rot into its fresh digest, so
                // the page stays or becomes tainted.
                let whole = kind != Mutation::Mix && seg.len() == old.len();
                let bad = (kind == Mutation::Capture || !whole) && sums.check(page, old).is_err();
                rotted |= bad && kind == Mutation::Capture;
                sums.set_tainted(page, bad && !whole);
            }
            let n = seg.len();
            let bytes = Self::materialize(slot, *block_len, page);
            mutate(at..at + n, &mut bytes[seg]);
            if let Some(sums) = sums.as_mut() {
                sums.rehash(page, bytes);
            }
        }
        rotted
    }

    /// Copies `[off, off + out.len())` into `out`.
    fn read_into(&self, off: u64, out: &mut [u8]) {
        assert!(off as usize + out.len() <= self.len, "read beyond block");
        for (page, seg, at) in segments(off, out.len() as u64) {
            let dst = &mut out[at..at + seg.len()];
            match &self.pages[page] {
                Some(bytes) => dst.copy_from_slice(&bytes[seg]),
                None => dst.fill(0),
            }
        }
    }

    /// Installs `src` as the whole block's authoritative content: every
    /// page is re-digested with its taint cleared, and an absent page
    /// whose new content is all zeros stays absent.
    fn install(&mut self, src: &[u8]) {
        for (page, seg, at) in segments(0, self.len as u64) {
            let new = &src[at..at + seg.len()];
            let slot = &mut self.pages[page];
            match slot {
                Some(bytes) => bytes.copy_from_slice(new),
                None if *new == ZERO_PAGE[..new.len()] => continue,
                None => *slot = Some(new.into()),
            }
            if let Some(sums) = self.sums.as_mut() {
                sums.set_tainted(page, false);
                sums.rehash(page, new);
            }
        }
    }

    /// Flips one bit in place, bypassing the checksum table (bit rot).
    fn flip(&mut self, byte: usize, bit: u8) {
        let page = byte / PAGE as usize;
        Self::materialize(&mut self.pages[page], self.len, page)[byte % PAGE as usize] ^= 1 << bit;
    }

    /// Verifies the written pages overlapping `[off, off + len)`.
    fn verify(&self, off: u64, len: u64) -> Result<(), IntegrityError> {
        let Some(sums) = &self.sums else {
            return Ok(());
        };
        for (page, _, _) in segments(off, len) {
            if let Some(bytes) = &self.pages[page] {
                sums.check(page, bytes)?;
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
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(page, slot)| {
                let bytes = slot.as_deref()?;
                sums.check(page, bytes).is_err().then_some(page)
            })
            .collect()
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
/// (`peek_*`, `*_poke_*`, `fill_block`) moves bytes only, for paths that
/// account timing separately. Every change to stored bytes goes through
/// one checksum bracket that walks the pages of its range (materialize,
/// audit the pre-image, mutate, re-digest); [`Osd::corrupt_bits`] is the
/// one deliberate bypass.
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
    /// with [`Osd::block_io`]. When `materialize` is set the block gets
    /// a page table and a checksum table, but no page holds bytes yet.
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
    /// `(completion_time, bytes-if-materialized)`. The returned bytes live
    /// in a new buffer.
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
    /// (an overwrite, by construction) and stores bytes when materialized.
    ///
    /// # Panics
    /// Panics if the block is absent or the range exceeds it.
    pub fn write_block_range(
        &mut self,
        now: Time,
        id: BlockId,
        off: u64,
        len: u64,
        data: Option<&[u8]>,
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
        delta: Option<&[u8]>,
        compute: Time,
    ) -> Time {
        // The XOR is applied directly into the block store — no buffer
        // materializes on this path.
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
    /// new buffer; `None` when the block is not materialized.
    pub fn peek_block_range(&self, id: BlockId, off: u64, len: u64) -> Option<Bytes> {
        let c = self.content(id)?;
        let mut out = BytesMut::take(len as usize);
        c.read_into(off, &mut out);
        tsue_buf::count_copy(len);
        Some(out.freeze())
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
    /// poke on paths that decouple content from timing.
    pub fn xor_poke_range(&mut self, id: BlockId, off: u64, delta: &[u8]) {
        if let Some(c) = self.content_mut(id) {
            c.bracket(off, delta.len() as u64, Mutation::Mix, |r, dst| {
                tsue_gf::xor_slice(&delta[r], dst);
            });
        }
    }

    /// Content-only delta capture: writes `new ⊕ current` for
    /// `[off, off + new.len())` into a new buffer and replaces
    /// the stored range with `new`, in one pass over the store (no device
    /// charge — the timed I/O is charged separately by the caller).
    /// Returns `None` when the block is not materialized.
    pub fn delta_poke_range(&mut self, id: BlockId, off: u64, new: &[u8]) -> Option<Bytes> {
        let c = self.content_mut(id)?;
        let mut d = BytesMut::take(new.len());
        let rotted = c.bracket(off, new.len() as u64, Mutation::Capture, |r, dst| {
            tsue_gf::xor_into(dst, &new[r.clone()], &mut d[r.clone()]);
            dst.copy_from_slice(&new[r]);
        });
        if rotted {
            // The delta XORed in rotted bytes and poisons the parity it
            // feeds: queue the stripe for a parity re-encode after the
            // data is repaired.
            self.poisoned.push(id);
        }
        Some(d.freeze())
    }

    /// Content-only write of a block range (no device charge). A repair
    /// that rewrites a whole page clears its taint.
    pub fn poke_block_range(&mut self, id: BlockId, off: u64, data: &[u8]) {
        if let Some(c) = self.content_mut(id) {
            c.bracket(off, data.len() as u64, Mutation::Replace, |r, dst| {
                dst.copy_from_slice(&data[r]);
            });
        }
    }

    /// Installs authoritative content for the whole block: `fill` edits
    /// a scratch copy of the current bytes (a rebuild decode, a replica
    /// patch), which lands page by page with every page digested afresh
    /// and all taint cleared. No-op in timing-only mode.
    pub fn fill_block(&mut self, id: BlockId, fill: impl FnOnce(&mut [u8])) {
        let Some(c) = self.content_mut(id) else {
            return;
        };
        let mut scratch = BytesMut::take(c.len);
        c.read_into(0, &mut scratch);
        fill(&mut scratch);
        c.install(&scratch);
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
        Some(self.content(id)?.sums.as_ref()?.digest(page))
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
        let payload = vec![7u8; 100];
        let t1 = o.write_block_range(0, bid(0, 1), 50, 100, Some(&payload));
        assert!(t1 > 0);
        let (_, data) = o.read_block_range(t1, bid(0, 1), 50, 100);
        assert_eq!(data.unwrap(), payload);
        // Outside the written range stays zero.
        let (_, zeros) = o.read_block_range(t1, bid(0, 1), 0, 50);
        assert!(zeros.unwrap().iter().all(|&b| b == 0));
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
        let base = vec![0xF0u8; 64];
        o.write_block_range(0, bid(2, 3), 0, 64, Some(&base));
        let delta = vec![0x0Fu8; 64];
        o.xor_block_range(0, bid(2, 3), 0, 64, Some(&delta), 0);
        let (_, got) = o.read_block_range(0, bid(2, 3), 0, 64);
        assert!(got.unwrap().iter().all(|&b| b == 0xFF));
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
        o.write_block_range(0, bid(0, 0), 100, 64, Some(&[3u8; 64]));
        o.poke_block_range(bid(0, 0), 5000, &[9u8; 32]);
        o.delta_poke_range(bid(0, 0), 9000, &[1u8; 16]);
        o.xor_poke_range(bid(0, 0), 9000, &[0xFFu8; 16]);
        o.xor_block_range(0, bid(0, 0), 12 << 10, 8, Some(&[0x55u8; 8]), 0);
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
        // A repair installs authoritative content, digested afresh.
        o.fill_block(bid(1, 1), |b| b.fill(0));
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
        o.write_block_range(0, bid(0, 0), 512, 4096, Some(&[5u8; 4096]));
        assert_eq!(o.resident_pages(bid(0, 0)), 2);
        let got = o
            .peek_block_range(bid(0, 0), 0, 8192)
            .expect("materialized");
        assert!(got[..512].iter().chain(&got[4608..]).all(|&b| b == 0));
        assert!(got[512..4608].iter().all(|&b| b == 5));
        assert!(o.verify_range(bid(0, 0), 0, 1 << 20).is_ok());
    }

    #[test]
    fn reads_and_verifies_of_unwritten_ranges_materialize_nothing() {
        let mut o = paged_osd();
        let (_, zeros) = o.read_block_range(0, bid(0, 0), 100, 3 << 12);
        assert!(zeros.expect("materialized").iter().all(|&b| b == 0));
        assert!(o.verify_range(bid(0, 0), 0, 1 << 20).is_ok());
        assert!(o.corrupt_pages(bid(0, 0)).is_empty());
        o.note_delta_source(bid(0, 0), 0, 1 << 20);
        assert!(o.take_poisoned().is_empty());
        // A rebuild that decodes all zeros keeps the block empty.
        o.fill_block(bid(0, 0), |b| b.fill(0));
        assert_eq!(o.resident_pages(bid(0, 0)), 0);
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

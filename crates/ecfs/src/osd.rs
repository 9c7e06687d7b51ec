//! The object storage device server: one per node, owning one device.
//!
//! An OSD stores whole erasure-code blocks (data or parity roles of a
//! stripe) at device offsets handed out by a bump allocator, plus arbitrary
//! *regions* that update schemes lease for their logs. Block payload bytes
//! are kept in memory only when the cluster runs in materialized
//! (correctness) mode; the device model is timing/wear-only either way.

use crate::mds::FileId;
use std::collections::BTreeMap;
use tsue_buf::{Bytes, BytesMut};
use tsue_device::{Device, IoKind, StreamId};
use tsue_integrity::{BlockChecksums, IntegrityError, SplitRng};
use tsue_sim::Time;

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
    /// Payload (materialized mode only).
    pub data: Option<Box<[u8]>>,
    /// Per-page checksums, updated together with the payload
    /// (materialized mode with checksums enabled only).
    pub sums: Option<BlockChecksums>,
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
/// one checksum bracket (audit the pre-image, mutate, re-digest);
/// [`Osd::corrupt_bits`] is the one deliberate bypass.
pub struct Osd {
    /// Network node id (OSDs occupy ids `0..cfg.osds`).
    pub node: usize,
    /// The backing device model.
    pub device: Device,
    /// Blocks hosted here; ordered, so listings schedule deterministically.
    store: BTreeMap<BlockId, StoredBlock>,
    /// True once [`crate::fail_node`] kills this node.
    pub dead: bool,
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
            dead: false,
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

    /// Allocates a zero-filled block without charging the device — the
    /// rebuild target's copy, whose sequential write the caller times
    /// with [`Osd::block_io`]. Zero content (digested as such) is
    /// materialized when requested.
    pub fn install_block(&mut self, id: BlockId, block_size: u64, materialize: bool) {
        let dev_offset = self.alloc_region(block_size);
        let data = materialize.then(|| vec![0u8; block_size as usize].into_boxed_slice());
        let sums = (materialize && self.checksums).then(|| BlockChecksums::new_zeroed(block_size));
        self.store.insert(
            id,
            StoredBlock {
                dev_offset,
                data,
                sums,
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
    /// in a pool-recycled buffer, so steady-state reads allocate nothing.
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

    /// The checksum bracket every content change goes through: audits
    /// the pre-image of `[off, off + len)` (`overwrite` = the mutation
    /// replaces the bytes rather than mixing them in), applies `mutate`
    /// to that range of the stored bytes, and re-digests it. `None` when
    /// the block is absent or not materialized.
    fn bracket<R>(
        &mut self,
        id: BlockId,
        off: u64,
        len: u64,
        overwrite: bool,
        mutate: impl FnOnce(&mut [u8]) -> R,
    ) -> Option<R> {
        let b = self.store.get_mut(&id)?;
        let store = b.data.as_mut()?;
        let range = off as usize..(off + len) as usize;
        assert!(range.end <= store.len(), "write beyond block");
        if let Some(sums) = b.sums.as_mut() {
            sums.pre_write_scan(store, off, len, overwrite);
        }
        let r = mutate(&mut store[range]);
        if let Some(sums) = b.sums.as_mut() {
            sums.update_range(store, off, len);
        }
        Some(r)
    }

    /// Content-only read of a block range (no device charge) — used when
    /// content application and timing accounting are decoupled. Returns a
    /// pool-recycled buffer.
    pub fn peek_block_range(&self, id: BlockId, off: u64, len: u64) -> Option<Bytes> {
        let d = self.block_data(id)?;
        Some(Bytes::copy_from_slice(
            &d[off as usize..(off + len) as usize],
        ))
    }

    /// Content-only XOR of `delta` into a block range (no device charge,
    /// no intermediate buffer) — the zero-copy counterpart of peek → xor →
    /// poke on paths that decouple content from timing.
    pub fn xor_poke_range(&mut self, id: BlockId, off: u64, delta: &[u8]) {
        self.bracket(id, off, delta.len() as u64, false, |dst| {
            tsue_gf::xor_slice(delta, dst);
        });
    }

    /// Content-only delta capture: writes `new ⊕ current` for
    /// `[off, off + new.len())` into a pool-recycled buffer and replaces
    /// the stored range with `new`, in one pass over the store (no device
    /// charge — the timed I/O is charged separately by the caller).
    /// Returns `None` when the block is not materialized.
    pub fn delta_poke_range(&mut self, id: BlockId, off: u64, new: &[u8]) -> Option<Bytes> {
        // The delta XORs in the current bytes — rot here poisons the
        // parity it feeds, so queue the stripe for a parity re-encode
        // after the data is repaired.
        self.note_delta_source(id, off, new.len() as u64);
        self.bracket(id, off, new.len() as u64, true, |dst| {
            let mut d = BytesMut::take(new.len());
            tsue_gf::xor_into(dst, new, d.as_mut());
            dst.copy_from_slice(new);
            d.freeze()
        })
    }

    /// Content-only write of a block range (no device charge). A repair
    /// that rewrites a whole page clears its taint.
    pub fn poke_block_range(&mut self, id: BlockId, off: u64, data: &[u8]) {
        self.bracket(id, off, data.len() as u64, true, |dst| {
            dst.copy_from_slice(data);
        });
    }

    /// Installs authoritative content for the whole block: `fill` writes
    /// every byte in place (a rebuild decode), then every page is
    /// digested afresh and all taint clears. No-op in timing-only mode.
    pub fn fill_block(&mut self, id: BlockId, fill: impl FnOnce(&mut [u8])) {
        let len = self.block_data(id).map_or(0, |d| d.len() as u64);
        self.bracket(id, 0, len, true, fill);
    }

    /// The materialized bytes of `id` (verification, reference checks).
    pub fn block_data(&self, id: BlockId) -> Option<&[u8]> {
        self.store.get(&id)?.data.as_deref()
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
        let Some(store) = b.data.as_mut() else {
            return 0;
        };
        for _ in 0..flips {
            let byte = rng.below(store.len() as u64) as usize;
            let bit = rng.below(8) as u8;
            store[byte] ^= 1 << bit;
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
        match self.store.get(&id) {
            Some(StoredBlock {
                data: Some(d),
                sums: Some(s),
                ..
            }) => s.verify_range(d, off, len),
            _ => Ok(()),
        }
    }

    /// Scans the whole block against its checksum table, returning the
    /// indices of corrupt pages (empty when clean or untracked).
    pub fn corrupt_pages(&self, id: BlockId) -> Vec<usize> {
        match self.store.get(&id) {
            Some(StoredBlock {
                data: Some(d),
                sums: Some(s),
                ..
            }) => s.corrupt_pages(d),
            _ => Vec::new(),
        }
    }

    /// Stored digest of `page` of `id`, when a checksum table exists.
    pub fn page_digest(&self, id: BlockId, page: usize) -> Option<u64> {
        Some(self.store.get(&id)?.sums.as_ref()?.digest(page))
    }

    /// Whether `page` of `id` is flagged written-while-corrupt (its
    /// stored digest blesses untrustworthy bytes).
    pub fn page_tainted(&self, id: BlockId, page: usize) -> bool {
        self.store
            .get(&id)
            .and_then(|b| b.sums.as_ref())
            .is_some_and(|s| s.is_tainted(page))
    }

    /// Declares that `[off, off + len)` of `id` is about to source a
    /// parity delta (read-modify-write paths). A corrupt source range
    /// poisons the emitted delta, so the block is queued for the
    /// scrubber's stripe-level parity re-encode.
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
        assert!(o.block_data(bid(1, 0)).is_none());
    }
}

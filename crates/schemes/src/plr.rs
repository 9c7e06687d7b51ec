//! PLR — Parity Logging with Reserved Space (Chan et al., FAST '14;
//! paper §2.2).
//!
//! Each parity block gets a dedicated log region *adjacent* to it. Recycle
//! is cheap (the deltas sit next to the block they merge into), but the
//! appends themselves become scattered small writes — with many parity
//! blocks per device, consecutive appends land in different reserved
//! regions, i.e. random I/O with full write-penalty accounting, and the
//! paper's observed disk-space fragmentation. When a block's reserved
//! region fills, recycling happens *inline*, stalling the update that
//! triggered it.

use crate::{
    forward_parity_deltas, recycle_done, track_recycle, AckTable, ENTRY_HEADER, LOG_INDEX_ENTRY,
};
use std::collections::BTreeMap;
use tsue_device::IoKind;
use tsue_ecfs::osd::STREAM_SCHEME_BASE;
use tsue_ecfs::scheme::{reply_at, Chunk, SchemeMsg, UpdateReq};
use tsue_ecfs::{BlockId, Cluster, ClusterCore, UpdateScheme};
use tsue_sim::{Sim, Time};

/// Reserved region size as a fraction of the block size (1/4, following
/// the FAST '14 default of reserving modest space per parity block).
const RESERVE_DIV: u64 = 4;

/// The reserved log region of one parity block.
struct Reserved {
    dev_off: u64,
    cursor: u64,
    entries: Vec<(u64, Chunk)>,
}

/// The PLR scheme state (per OSD).
pub struct Plr {
    acks: AckTable,
    reserved: BTreeMap<BlockId, Reserved>,
    inflight: u64,
}

impl Default for Plr {
    fn default() -> Self {
        Self::new()
    }
}

impl Plr {
    /// Creates a PLR instance.
    pub fn new() -> Self {
        Plr {
            acks: AckTable::default(),
            reserved: BTreeMap::new(),
            inflight: 0,
        }
    }

    /// Logged deltas awaiting recycle, over every reserved region.
    fn logged(&self) -> u64 {
        self.reserved.values().map(|r| r.entries.len() as u64).sum()
    }

    /// Merges a full reserved region into its parity block: one (cheap,
    /// adjacent) sequential read of the region, then a parity RMW covering
    /// the union of logged ranges.
    fn recycle_region(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        pblock: BlockId,
        start: Time,
    ) -> Time {
        // INVARIANT: recycle_region is only called for blocks whose
        // reserved region was created on their first append.
        let r = self.reserved.get_mut(&pblock).expect("region exists");
        let span = r.cursor;
        // Adjacent sequential read of the whole region.
        let t_read = core.osds[osd].device.submit(
            start,
            IoKind::Read,
            r.dev_off,
            span.max(ENTRY_HEADER),
            STREAM_SCHEME_BASE + 3,
        );
        // Apply entries in order (content) while charging one RMW per
        // entry range on the parity block.
        let entries = std::mem::take(&mut r.entries);
        r.cursor = 0;
        let mut t = t_read;
        for (off, data) in entries {
            t = core.xor_into_parity(osd, t, pblock, off, &data);
            track_recycle(&mut self.inflight, core, sim, osd, t);
        }
        t
    }
}

impl UpdateScheme for Plr {
    fn on_update(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        req: UpdateReq,
    ) {
        // Same synchronous front half as FO and PL.
        forward_parity_deltas(&mut self.acks, core, sim, osd, req);
    }

    fn on_message(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        msg: SchemeMsg,
    ) {
        match msg {
            SchemeMsg::DeltaForward {
                from,
                block,
                off,
                data,
                parity_index,
                tag,
                ..
            } => {
                let pblock = core.parity_block(block, parity_index);
                let reserve_size = core.cfg.stripe.block_size / RESERVE_DIV;
                if let std::collections::btree_map::Entry::Vacant(e) = self.reserved.entry(pblock) {
                    // Lease + format the reserved region; formatting marks
                    // it written so appends count as the write penalty the
                    // paper attributes to PLR.
                    let dev_off = core.osds[osd].alloc_region(reserve_size);
                    core.osds[osd].device.prefill(dev_off, reserve_size);
                    e.insert(Reserved {
                        dev_off,
                        cursor: 0,
                        entries: Vec::new(),
                    });
                }
                let len = data.len;
                let need = len + ENTRY_HEADER;
                let now = sim.now();

                // Inline recycle when the region cannot take the entry.
                let full = {
                    let r = &self.reserved[&pblock];
                    r.cursor + need > reserve_size
                };
                let t_start = if full {
                    self.recycle_region(core, sim, osd, pblock, now)
                } else {
                    now
                };

                // The append itself: a scattered small write into this
                // block's region — random, and penalized as an overwrite.
                // INVARIANT: the vacant-entry branch above created the region
                // for `pblock` if it was missing.
                let r = self.reserved.get_mut(&pblock).expect("region exists");
                let t_append = core.osds[osd].device.submit(
                    t_start,
                    IoKind::Write,
                    r.dev_off + r.cursor,
                    need,
                    STREAM_SCHEME_BASE + 2,
                );
                r.cursor += need;
                r.entries.push((off, data));
                reply_at(sim, t_append, osd, from, SchemeMsg::Ack { tag });
            }
            SchemeMsg::Ack { tag } => self.acks.on_ack(core, sim, osd, tag),
            // INVARIANT: the arms above cover every message kind a PLR peer
            // sends; anything else is a routing bug.
            _ => unreachable!("PLR exchanges only DeltaForward/Ack"),
        }
    }

    fn on_timer(&mut self, _: &mut ClusterCore, _: &mut Sim<Cluster>, _osd: usize, tag: u64) {
        recycle_done(&mut self.inflight, tag);
    }

    fn flush(&mut self, core: &mut ClusterCore, sim: &mut Sim<Cluster>, osd: usize) {
        let now = sim.now();
        let blocks: Vec<BlockId> = self
            .reserved
            .iter()
            .filter(|(_, r)| !r.entries.is_empty())
            .map(|(&b, _)| b)
            .collect();
        for b in blocks {
            self.recycle_region(core, sim, osd, b, now);
        }
    }

    fn backlog(&self) -> u64 {
        self.logged() + self.inflight + self.acks.outstanding() as u64
    }

    fn memory_usage(&self) -> u64 {
        // Reserved-space entries index; content lives on disk.
        self.logged() * LOG_INDEX_ENTRY
    }
}

//! The degraded-write journal: durability for acked writes whose home
//! died (TSUE §4's promise that no acknowledged update is lost, extended
//! across failure windows).
//!
//! When a client write targets a block whose home OSD is dead and not yet
//! rebuilt, the extent is not dropped: the client re-ships it to the MDS
//! journal — physically hosted on a surviving designated peer (the
//! lowest-indexed live OSD), where it costs a network transfer and a
//! sequential log append — and the ack only fires once the entry is
//! durable. Journaled extents are *replayed* later, exactly once each:
//!
//! * into the **rebuilt** copy of the block, right after its decode
//!   (`ClusterCore::reconstruct`) and before the MDS rehome
//!   (see [`crate::recovery`]), or
//! * into the **healed** node's own stale copy when the home comes back
//!   before its rebuild ran (see [`crate::resync::heal_node`]).
//!
//! Replay applies entries in append order (one closed-loop client owns
//! each file, so per-block appends are already serialized) and emits the
//! matching parity deltas, keeping stripes consistent across the window.
//! Entries are deduplicated by `(op_id, ext)` so duplicate delivery — a
//! client retransmit racing its own failover timer — journals, and
//! therefore replays, a parked extent exactly once.

use crate::osd::{BlockId, STREAM_JOURNAL};
use crate::scheme::Chunk;
use crate::{payload_chunk, Cluster, ClusterCore};
use std::collections::{BTreeMap, BTreeSet};
use tsue_device::IoKind;
use tsue_net::NodeId;
use tsue_sim::Sim;

/// One journaled degraded-write extent.
#[derive(Clone, Debug)]
pub struct JournalEntry {
    /// The client op the extent belonged to (payload derivation).
    pub op_id: u64,
    /// Extent index within the op.
    pub ext: usize,
    /// Offset within the target block.
    pub off: u64,
    /// The parked payload (ghost in timing-only runs).
    pub data: Chunk,
}

/// The MDS-side journal of parked degraded-write extents.
#[derive(Debug, Default)]
pub struct DegradedJournal {
    /// Parked extents per target block, in append (arrival) order.
    /// Ordered by block so pending-work accounting walks deterministically.
    entries: BTreeMap<BlockId, Vec<JournalEntry>>,
    /// Dedupe set: `(op_id, ext)` pairs already journaled (duplicate
    /// delivery must not replay an extent twice).
    seen: BTreeSet<(u64, usize)>,
    /// Extents journaled (deduplicated).
    pub entries_appended: u64,
    /// Bytes journaled (deduplicated).
    pub bytes_appended: u64,
    /// Bytes replayed into rebuilt or healed blocks so far.
    pub bytes_replayed: u64,
}

impl DegradedJournal {
    /// Appends a parked extent. Returns `false` (and changes nothing)
    /// when `(op_id, ext)` was already journaled — duplicate delivery.
    pub fn append(&mut self, block: BlockId, entry: JournalEntry) -> bool {
        if !self.seen.insert((entry.op_id, entry.ext)) {
            return false;
        }
        self.entries_appended += 1;
        self.bytes_appended += entry.data.len;
        self.entries.entry(block).or_default().push(entry);
        true
    }

    /// True when the journal holds parked extents for `block`.
    pub fn has_block(&self, block: &BlockId) -> bool {
        self.entries.contains_key(block)
    }

    /// Removes and returns `block`'s parked extents in append order
    /// (empty when none). The dedupe set keeps the consumed ids, so a
    /// straggling duplicate still cannot re-journal a replayed extent.
    pub fn take(&mut self, block: &BlockId) -> Vec<JournalEntry> {
        self.entries.remove(block).unwrap_or_default()
    }

    /// Total parked extents not yet replayed.
    pub fn pending_entries(&self) -> u64 {
        self.entries.values().map(|v| v.len() as u64).sum()
    }

    /// Total parked bytes not yet replayed.
    pub fn pending_bytes(&self) -> u64 {
        self.entries
            .values()
            .flat_map(|v| v.iter())
            .map(|e| e.data.len)
            .sum()
    }

    /// Applies `entries` into a materialized block buffer in order: the
    /// *reference model* of replay content semantics. The production
    /// replay (`replay_block`) fuses the same range-set with delta
    /// capture for parity propagation (`delta_poke_range`); tests pin
    /// ordering and idempotence against this plain form, and the
    /// end-to-end byte-exact checks pin the fused path against it.
    pub fn apply_into(entries: &[JournalEntry], buf: &mut [u8]) {
        for e in entries {
            if let Some(bytes) = &e.data.bytes {
                bytes.read_into(0, &mut buf[e.off as usize..(e.off + e.data.len) as usize]);
            }
        }
    }
}

/// Replays every journaled extent parked for `block` into its copy on
/// `host`, in append order, and propagates the matching parity deltas so
/// the stripe stays consistent. Returns the bytes replayed (0 when the
/// journal held nothing for the block).
///
/// Called from the two replay sites: rebuild completion (the block was
/// reconstructed on a new home while its old home stayed dead) and
/// [`crate::resync::heal_node`] (the home came back before its rebuild
/// ran, so its own stale copy is caught up in place).
///
/// Content is applied instantly at `now` (one DES event — nothing can
/// interleave), while the device writes and parity-delta transfers are
/// charged from `now` onward. Parity owners that are dead at replay time
/// are marked dirty for a later heal-time re-encode. Parity application
/// is XOR-commutative, so racing scheme deltas merge in any order
/// without corruption.
pub(crate) fn replay_block(
    core: &mut ClusterCore,
    sim: &mut Sim<Cluster>,
    host: usize,
    block: BlockId,
) -> u64 {
    let entries = core.journal.take(&block);
    if entries.is_empty() {
        return 0;
    }
    let now = sim.now();
    let gstripe = core.global_stripe(block.file, block.stripe);
    let m = core.cfg.stripe.m;
    let mut replayed = 0u64;
    for e in &entries {
        let len = e.data.len;
        replayed += len;
        // Patch the block (capturing old ⊕ new in the same pass) and
        // charge the in-place write.
        let delta = e
            .data
            .bytes
            .as_ref()
            .and_then(|new| core.osds[host].delta_poke_range(block, e.off, new))
            .map_or_else(|| Chunk::ghost(len), Chunk::real);
        core.osds[host].block_io(now, IoKind::Write, block, e.off, len);
        // Propagate the delta to every parity role of the stripe: ship
        // it, then read-XOR-write it into the parity block.
        for j in 0..m {
            let pblock = core.parity_block(block, j);
            let powner = core.owner_of(gstripe, pblock.role);
            if !core.mds.is_alive(powner) {
                core.mds.mark_parity_dirty(gstripe, pblock.role);
                continue;
            }
            if powner != host {
                core.net
                    .transfer(now, core.osds[host].node, core.osds[powner].node, len);
            }
            let pdelta = delta.gf_scaled(core.rs.coefficient(j, block.role));
            core.xor_into_parity(powner, now, pblock, e.off, &pdelta);
        }
    }
    core.journal.bytes_replayed += replayed;
    replayed
}

/// Parks one degraded-write extent: counts it, ships it to the journal
/// peer, and completes the extent for the client.
/// Shared by the two detection sites: the client noticing a dead home
/// at dispatch, and [`crate::scheme::deliver_update`] catching an
/// extent that was on the wire when its owner died. Each parked extent
/// is counted exactly once — here, or in `deliver_update`'s reaped-op
/// branch for the one case with nobody left to ack (the op was already
/// force-completed by the failover watchdog, so nothing is parked).
///
/// `data` is the payload when the caller has one (the on-the-wire case);
/// otherwise the client's chunk is built again here, and it is generated
/// only if a replay reads it.
#[allow(clippy::too_many_arguments)] // one parameter per field of the extent descriptor
pub(crate) fn park_degraded_write(
    core: &mut ClusterCore,
    sim: &mut Sim<Cluster>,
    op_id: u64,
    ext: usize,
    block: BlockId,
    off: u64,
    len: u64,
    data: Option<Chunk>,
    src_node: NodeId,
) {
    core.metrics.degraded_writes += 1;
    core.pending.mark_degraded(op_id);
    let Some(peer) = core.mds.live_nodes().into_iter().next() else {
        // Nothing left alive to host the journal: the extent completes as
        // a failover error and its payload is dropped.
        crate::fail_over_ack(sim, op_id);
        return;
    };
    let chunk = data.unwrap_or_else(|| payload_chunk(op_id, ext, len, core.cfg.materialize));
    let now = sim.now();
    let arrival = core.net.transfer(now, src_node, core.osds[peer].node, len);
    sim.schedule_at(arrival, move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
        journal_append(w, sim, peer, op_id, ext, block, off, chunk);
    });
}

/// The parked extent reached the journal peer: append it durably (one
/// sequential log write), log the arrival for the correctness reference,
/// and ack the client once the append completes. Duplicate delivery is
/// dropped outright — the first append's ack stands (acks are reliable
/// in this model), and a second ack would double-count the extent. If
/// the block's owner came back while the entry was on the wire (its
/// replay already ran), the extent is handed to the live owner as a
/// regular update instead of being parked unreplayably.
#[allow(clippy::too_many_arguments)] // continuation of park_degraded_write
fn journal_append(
    world: &mut Cluster,
    sim: &mut Sim<Cluster>,
    peer: usize,
    op_id: u64,
    ext: usize,
    block: BlockId,
    off: u64,
    chunk: Chunk,
) {
    let core = &mut world.core;
    let len = chunk.len;
    let now = sim.now();
    if !core.mds.is_alive(peer) {
        // The journal peer died with the entry on the wire; the extent
        // completes as a failover error (its durability window lost the
        // race, exactly like a real two-failure burst).
        crate::fail_over_ack(sim, op_id);
        return;
    }
    // The block's owner may have come back while this entry was on the
    // wire (rebuild completed and rehomed, or the home healed). Its
    // replay already ran, so an entry parked now would be stranded
    // forever — an acked-but-lost write. Hand the extent to the live
    // owner as a regular update instead (re-checked on arrival).
    let gstripe = core.global_stripe(block.file, block.stripe);
    let cur = core.owner_of(gstripe, block.role);
    if core.mds.is_alive(cur) {
        let arrival = core
            .net
            .transfer(now, core.osds[peer].node, core.osds[cur].node, len);
        let req = crate::scheme::UpdateReq {
            op_id,
            ext,
            block,
            off,
            data: chunk,
        };
        sim.schedule_at(arrival, move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
            crate::scheme::deliver_update(w, sim, cur, req);
        });
        return;
    }
    let appended = core.journal.append(
        block,
        JournalEntry {
            op_id,
            ext,
            off,
            data: chunk,
        },
    );
    if !appended {
        // Duplicate delivery: the first append already acked the client
        // (acks are reliable in this model), and a second ack would
        // double-decrement the op's outstanding-extent count.
        return;
    }
    if core.cfg.record_arrivals {
        core.metrics.record_arrival(op_id, ext, block, off, len);
    }
    let dev_off = core.osds[peer].alloc_region(len);
    let t_durable = core.osds[peer]
        .device
        .submit(now, IoKind::Write, dev_off, len, STREAM_JOURNAL);
    let Some(client) = core.pending.client_of(op_id) else {
        return; // the op was reaped by the failover watchdog meanwhile
    };
    let ack = core.net.transfer(
        t_durable,
        core.osds[peer].node,
        core.client_node(client),
        crate::ACK_BYTES,
    );
    sim.schedule_at(ack, move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
        crate::client::client_ack(w, sim, op_id);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bid() -> BlockId {
        BlockId {
            file: 0,
            stripe: 0,
            role: 0,
        }
    }

    fn entry(op: u64, ext: usize, off: u64, byte: u8, len: usize) -> JournalEntry {
        JournalEntry {
            op_id: op,
            ext,
            off,
            data: Chunk::real(vec![byte; len]),
        }
    }

    #[test]
    fn append_dedupes_duplicate_delivery() {
        let mut j = DegradedJournal::default();
        assert!(j.append(bid(), entry(1, 0, 0, 0xAA, 4)));
        assert!(!j.append(bid(), entry(1, 0, 0, 0xAA, 4)), "duplicate");
        assert!(j.append(bid(), entry(1, 1, 8, 0xBB, 4)));
        assert_eq!(j.entries_appended, 2);
        assert_eq!(j.bytes_appended, 8);
        assert_eq!(j.pending_entries(), 2);
    }

    #[test]
    fn take_preserves_append_order_and_drains() {
        let mut j = DegradedJournal::default();
        j.append(bid(), entry(1, 0, 0, 0x11, 2));
        j.append(bid(), entry(2, 0, 1, 0x22, 2));
        let got = j.take(&bid());
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].op_id, got[1].op_id), (1, 2));
        assert!(j.take(&bid()).is_empty());
        assert_eq!(j.pending_bytes(), 0);
        // Consumed ids stay deduplicated.
        assert!(!j.append(bid(), entry(1, 0, 0, 0x11, 2)));
    }

    #[test]
    fn apply_into_is_ordered_and_idempotent() {
        let entries = vec![entry(1, 0, 0, 0x11, 4), entry(2, 0, 2, 0x22, 4)];
        let mut a = vec![0u8; 8];
        DegradedJournal::apply_into(&entries, &mut a);
        assert_eq!(a, [0x11, 0x11, 0x22, 0x22, 0x22, 0x22, 0, 0]);
        let snapshot = a.clone();
        DegradedJournal::apply_into(&entries, &mut a);
        assert_eq!(a, snapshot, "replay is idempotent");
    }
}

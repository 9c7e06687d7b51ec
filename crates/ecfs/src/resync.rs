//! Rejoin & re-sync: catching a healed OSD up and shrinking the rehome
//! table back toward empty.
//!
//! A node that comes back from a transient failure ([`heal_node`]) keeps
//! whatever blocks it held when it died — stale by every write the
//! cluster acked while it was gone. Two mechanisms close the gap:
//!
//! 1. **Journal replay at heal** — blocks the recovery engine never got
//!    to (still queued, or skipped because the home returned) are caught
//!    up *in place* from the degraded-write journal, synchronously at
//!    the heal instant, before the revived node can accept a new write.
//! 2. **Delta re-sync + reclamation** ([`start_resync`], driven by the
//!    `tsue_fault` engine after a drain gate) — blocks that *were*
//!    rebuilt elsewhere are copied back from their rehomed (current)
//!    copies, and the corresponding [`crate::Mds`] rehome entries are
//!    *reclaimed*, so `rehomed_count()` returns toward zero and degraded
//!    lookups stop paying the override indirection. Parity blocks that
//!    missed deltas while their owner was dead (NACK-bounced scheme
//!    messages) are re-encoded from the live data blocks.
//!
//! Content moves atomically at the instant each job is issued (a single
//! DES event), while device reads/writes and wire transfers are charged
//! forward from that instant; [`ResyncState::pending`] tracks the charge
//! horizon so the fault engine can report the phase's wall time.

use crate::osd::BlockId;
use crate::{Cluster, ClusterCore};
use tsue_sim::Sim;

/// Bookkeeping for in-flight re-sync work, owned by [`crate::ClusterCore`].
#[derive(Debug, Default)]
pub struct ResyncState {
    /// Re-sync jobs whose modeled I/O has not completed yet.
    pending: u64,
    /// Blocks copied back from rehomed copies (all heals).
    pub blocks_copied_back: u64,
    /// Bytes copied back from rehomed copies (all heals).
    pub bytes_copied_back: u64,
    /// Rehome-table entries reclaimed (all heals).
    pub blocks_reclaimed: u64,
    /// Dirty parity blocks re-encoded from data (all heals).
    pub parity_repaired: u64,
    /// Bytes written by parity re-encodes (all heals).
    pub parity_repair_bytes: u64,
}

impl ResyncState {
    /// Re-sync jobs still charging modeled I/O.
    pub fn pending(&self) -> u64 {
        self.pending
    }
}

/// Outcome of one [`heal_node`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct HealStats {
    /// Blocks caught up in place from the degraded-write journal.
    pub blocks_replayed: u64,
    /// Journaled bytes replayed into the healed node's own copies.
    pub replayed_bytes: u64,
}

/// Outcome of one [`start_resync`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResyncStats {
    /// Blocks copied back from their rehomed copies.
    pub blocks_copied_back: u64,
    /// Bytes copied back.
    pub bytes_copied_back: u64,
    /// Rehome entries reclaimed.
    pub blocks_reclaimed: u64,
    /// Dirty parity blocks re-encoded from data.
    pub parity_repaired: u64,
}

/// Revives a dead OSD: marks it alive, clears any NIC slowdown, and
/// replays the degraded-write journal into every block the node still
/// owns (i.e. not rebuilt elsewhere) — synchronously, before any
/// post-heal traffic can race the replay. Blocks rebuilt during the
/// outage are left to [`start_resync`]'s copy-back.
pub fn heal_node(world: &mut Cluster, sim: &mut Sim<Cluster>, node: usize) -> HealStats {
    let core = &mut world.core;
    core.mds.mark_alive(node);
    core.net.clear_slowdown(node);

    // Deterministic order over the hosted blocks.
    let owned: Vec<BlockId> = core.osds[node].block_ids().collect();
    let mut stats = HealStats::default();
    for block in owned {
        let gstripe = core.global_stripe(block.file, block.stripe);
        if core.owner_of(gstripe, block.role) != node || !core.journal.has_block(&block) {
            continue;
        }
        let bytes = crate::journal::replay_block(core, sim, node, block);
        if bytes > 0 {
            stats.blocks_replayed += 1;
            stats.replayed_bytes += bytes;
        }
    }
    stats
}

/// Runs the delta re-sync for a healed `node`: copies every block that
/// was rebuilt elsewhere back from its rehomed copy, reclaims the rehome
/// entries, and re-encodes dirty parity. Content and table flips happen
/// at this instant (call it behind a drain gate — pending scheme deltas
/// addressed to rehomed copies must merge before the copy-back); the
/// modeled I/O is charged forward and tracked by
/// [`ResyncState::pending`].
pub fn start_resync(world: &mut Cluster, sim: &mut Sim<Cluster>, node: usize) -> ResyncStats {
    let mut stats = ResyncStats::default();
    if !world.core.mds.is_alive(node) {
        // Re-killed since the heal (flapping node): reclaiming rehome
        // entries onto a dead OSD would point live reads at a corpse.
        return stats;
    }
    copy_back_rehomed(&mut world.core, sim, node, &mut stats);
    repair_dirty_parity(&mut world.core, sim, &mut stats);
    stats
}

/// Runs one standalone dirty-parity repair pass over the whole cluster:
/// every dirty parity block whose owner and data sources are alive is
/// re-encoded from the stripe's data blocks. Returns how many were
/// repaired. Used by the harness as a scenario-end consistency pass —
/// replica replay after a rebuild marks all parity of the replayed
/// stripes dirty (the rebuild cut cannot tell which parity saw the
/// replayed deltas), and this pass settles them.
pub fn repair_all_dirty_parity(world: &mut Cluster, sim: &mut Sim<Cluster>) -> u64 {
    let mut stats = ResyncStats::default();
    repair_dirty_parity(&mut world.core, sim, &mut stats);
    stats.parity_repaired
}

/// Copies rebuilt blocks back from their rehome targets onto the healed
/// placement home and reclaims the rehome-table entries.
fn copy_back_rehomed(
    core: &mut ClusterCore,
    sim: &mut Sim<Cluster>,
    node: usize,
    stats: &mut ResyncStats,
) {
    let now = sim.now();
    let bps = core.cfg.stripe.blocks_per_stripe();
    let bs = core.cfg.stripe.block_size;
    for ((gstripe, role), tgt) in core.mds.rehomed_entries() {
        if core.placement.node_for(gstripe, role, bps) != node {
            continue;
        }
        let (file, stripe) = core.mds.locate_stripe(gstripe);
        let block = BlockId { file, stripe, role };
        core.mds.reclaim(gstripe, role);
        core.resync.blocks_reclaimed += 1;
        stats.blocks_reclaimed += 1;
        if tgt == node || !core.osds[tgt].hosts(block) {
            continue; // nothing to move (the copy already lives here)
        }
        // One block's catch-up: read at the rehomed copy, wire transfer,
        // in-place write at the healed home. Content flips now; the
        // rehomed copy stays behind as an orphan (its scheme may still
        // hold log entries referencing it) and is simply never read.
        let (t_read, data) = core.osds[tgt].read_block_range(now, block, 0, bs);
        let arrive = core
            .net
            .transfer(t_read, core.osds[tgt].node, core.osds[node].node, bs);
        let t_written = core.osds[node].write_block_range(arrive, block, 0, bs, data.as_ref());
        core.resync.blocks_copied_back += 1;
        core.resync.bytes_copied_back += bs;
        stats.blocks_copied_back += 1;
        stats.bytes_copied_back += bs;
        core.resync.pending += 1;
        sim.schedule_at(
            t_written,
            move |w: &mut Cluster, _sim: &mut Sim<Cluster>| {
                w.core.resync.pending -= 1;
            },
        );
    }
}

/// Re-encodes every dirty parity block whose owner is alive from the
/// stripe's data blocks (k reads + transfers + one write). Entries whose
/// owner or data sources are still dead stay marked for a later heal or
/// rebuild.
fn repair_dirty_parity(core: &mut ClusterCore, sim: &mut Sim<Cluster>, stats: &mut ResyncStats) {
    let now = sim.now();
    let k = core.cfg.stripe.k;
    let bs = core.cfg.stripe.block_size;
    'entries: for (gstripe, role) in core.mds.dirty_parity_entries() {
        let owner = core.owner_of(gstripe, role);
        if !core.mds.is_alive(owner) {
            continue; // its rebuild will re-encode it
        }
        let (file, stripe) = core.mds.locate_stripe(gstripe);
        let pblock = BlockId { file, stripe, role };
        if !core.osds[owner].hosts(pblock) {
            continue;
        }
        // All k data blocks must be readable — and clean. Re-encoding
        // from a rotted source would fold the garbage into parity under
        // a fresh digest, turning detectable corruption into a
        // verified-but-wrong codeword; such stripes stay dirty until the
        // scrub repairs (or writes off) the data first.
        let mut sources: Vec<(usize, usize)> = Vec::with_capacity(k); // (data idx, owner)
        for i in 0..k {
            let downer = core.owner_of(gstripe, i);
            if !core.mds.is_alive(downer) {
                continue 'entries;
            }
            let dblock = BlockId {
                file,
                stripe,
                role: i,
            };
            if !core.osds[downer].corrupt_pages(dblock).is_empty() {
                continue 'entries;
            }
            sources.push((i, downer));
        }
        let dest = core.osds[owner].node;
        let t_encoded = core.charge_decode(now, pblock, &sources, 0, bs, dest);
        // Eq. (1) over snapshots of the data blocks, generated straight
        // into the parity pages.
        let fresh = core.reconstruct(pblock, &sources, 0, bs);
        let t_written =
            core.osds[owner].write_block_range(t_encoded, pblock, 0, bs, fresh.as_ref());
        core.mds.clear_parity_dirty(gstripe, role);
        core.resync.parity_repaired += 1;
        core.resync.parity_repair_bytes += bs;
        stats.parity_repaired += 1;
        core.resync.pending += 1;
        sim.schedule_at(
            t_written,
            move |w: &mut Cluster, _sim: &mut Sim<Cluster>| {
                w.core.resync.pending -= 1;
            },
        );
    }
}

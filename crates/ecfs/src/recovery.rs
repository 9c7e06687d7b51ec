//! Failure injection and data reconstruction (the paper's §5.4 recovery
//! test), online-capable.
//!
//! The measured quantity is recovery *bandwidth*: lost bytes divided by the
//! wall time from the moment recovery is requested. That window includes
//! whatever log merging the active update scheme still owes — which is the
//! paper's point: schemes with lazily-recycled logs (PL/PLR/PARIX) stall
//! recovery behind a recycle storm, while TSUE's real-time recycling leaves
//! (almost) nothing to drain and recovers at FO speed.
//!
//! Two entry modes share the same rebuild machinery:
//!
//! * **offline** — [`run_recovery`]: the seed behavior. Traffic has
//!   stopped; drain all logs, kill the node, rebuild everything, block
//!   until done.
//! * **online** — [`start_recovery`] + the [`RecoveryState`] queue inside
//!   [`crate::ClusterCore`]: rebuild jobs run *through* the simulation with
//!   bounded concurrency while clients keep issuing (degraded) I/O. The
//!   `tsue_fault` crate's scripted engine drives this mode, gating the
//!   rebuild start on the scheme-log drain and reporting per-phase
//!   bandwidth and cross-rack traffic.
//!
//! Rebuilt blocks are *rehomed*: the MDS override table points the block's
//! role at its new OSD, so degraded reads shrink as the rebuild
//! progresses. Blocks with fewer than `k` survivors (a correlated failure
//! beyond the code's tolerance, e.g. a rack kill under rack-oblivious
//! placement) are counted unrecoverable rather than asserted on — data
//! loss is a reportable outcome, not a simulator bug.

use crate::osd::BlockId;
use crate::Cluster;
use std::collections::VecDeque;
use tsue_buf::Bytes;
use tsue_device::IoKind;
use tsue_sim::{Sim, Time};

/// Outcome of an offline recovery run.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryReport {
    /// Bytes of lost blocks reconstructed.
    pub bytes_rebuilt: u64,
    /// Number of blocks reconstructed.
    pub blocks_rebuilt: u64,
    /// Blocks that could not be rebuilt (fewer than `k` survivors).
    pub blocks_unrecoverable: u64,
    /// Time spent draining scheme logs before rebuild could start, ns.
    pub flush_time: Time,
    /// Total recovery wall time (flush + rebuild), ns.
    pub total_time: Time,
}

impl RecoveryReport {
    /// Aggregate recovery bandwidth in bytes/second.
    pub fn bandwidth(&self) -> f64 {
        if self.total_time == 0 {
            0.0
        } else {
            self.bytes_rebuilt as f64 * 1e9 / self.total_time as f64
        }
    }
}

/// Per-phase rebuild accounting: one [`start_recovery`] call = one
/// phase, so overlapping failures (a second kill landing before the
/// first rebuild finishes) report exact, disjoint counts instead of
/// global-delta approximations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Blocks this phase enqueued (already-scheduled blocks from an
    /// overlapping earlier phase are not re-queued or re-counted).
    pub enqueued: u64,
    /// Blocks still waiting for a rebuild slot.
    pub queued: u64,
    /// Rebuild jobs currently in flight.
    pub inflight: u64,
    /// Blocks successfully rebuilt.
    pub rebuilt: u64,
    /// Blocks skipped because their home was alive again by the time
    /// the job ran (the victim healed mid-queue).
    pub skipped: u64,
    /// Blocks with fewer than `k` survivors.
    pub unrecoverable: u64,
    /// Bytes of reconstructed blocks.
    pub bytes_rebuilt: u64,
    /// Journaled degraded-write bytes replayed into blocks this phase
    /// rebuilt (applied after `reconstruct_one`, before the rehome).
    pub journal_replayed_bytes: u64,
    /// Replicated data-log bytes replayed into blocks this phase rebuilt:
    /// the extents the dead home's log still owed them
    /// ([`crate::UpdateScheme::unmerged_extents`]).
    pub replica_replayed_bytes: u64,
}

impl PhaseStats {
    /// Outstanding work for this phase.
    pub fn pending(&self) -> u64 {
        self.queued + self.inflight
    }
}

/// The online recovery engine: a bounded-concurrency queue of block
/// rebuild jobs plus cumulative statistics, owned by [`crate::ClusterCore`].
#[derive(Debug)]
pub struct RecoveryState {
    /// Blocks awaiting a rebuild slot, tagged with their phase.
    queue: VecDeque<(BlockId, u64)>,
    /// Rebuild jobs currently in flight.
    inflight: usize,
    /// Maximum concurrent rebuild jobs (throttles how hard recovery
    /// competes with client traffic for devices and uplinks).
    pub concurrency: usize,
    /// Round-robin cursor for target selection.
    rr: usize,
    /// Next phase token handed out by [`start_recovery`].
    next_phase: u64,
    /// Per-phase counters, keyed by phase token.
    phases: std::collections::BTreeMap<u64, PhaseStats>,
    /// Targets of rebuilds still in flight, `(gstripe, role, node)`:
    /// the MDS rehome table only learns a target at completion, so
    /// concurrent rebuilds of one stripe consult this to avoid doubling
    /// up on a node or rack. Bounded by `concurrency`.
    inflight_targets: Vec<(u64, usize, usize)>,
    /// Blocks currently queued or in flight — overlapping victim sets
    /// (a rack kill followed by a kill of one of its nodes) must not
    /// rebuild the same block twice.
    scheduled: std::collections::BTreeSet<BlockId>,
    /// Rebuild wire bytes that stayed inside a rack.
    pub intra_rack_bytes: u64,
    /// Rebuild wire bytes that crossed racks.
    pub cross_rack_bytes: u64,
    /// Replicated data-log bytes replayed onto rebuilt blocks (all phases;
    /// see [`PhaseStats::replica_replayed_bytes`]).
    pub replica_replayed_bytes: u64,
}

impl Default for RecoveryState {
    fn default() -> Self {
        RecoveryState {
            queue: VecDeque::new(),
            inflight: 0,
            concurrency: 8,
            rr: 0,
            next_phase: 0,
            phases: std::collections::BTreeMap::new(),
            inflight_targets: Vec::new(),
            scheduled: std::collections::BTreeSet::new(),
            intra_rack_bytes: 0,
            cross_rack_bytes: 0,
            replica_replayed_bytes: 0,
        }
    }
}

impl RecoveryState {
    /// Outstanding work: queued plus in-flight rebuild jobs (all phases).
    pub fn pending(&self) -> u64 {
        self.queue.len() as u64 + self.inflight as u64
    }

    /// True when any role of `block`'s stripe has a rebuild queued or in
    /// flight. Client updates to such stripes are fenced in every run,
    /// timing-only or materialized (see [`crate::scheme::deliver_update`]):
    /// the rebuild decodes from a consistent data/parity cut at
    /// completion, and a sibling write admitted mid-rebuild whose parity
    /// delta is still on the wire would tear that cut.
    pub fn stripe_fenced(&self, block: &BlockId, blocks_per_stripe: usize) -> bool {
        !self.scheduled.is_empty()
            && (0..blocks_per_stripe)
                .any(|role| self.scheduled.contains(&BlockId { role, ..*block }))
    }

    /// This phase's counters (zeroes for an unknown token).
    pub fn phase_stats(&self, phase: u64) -> PhaseStats {
        self.phases.get(&phase).copied().unwrap_or_default()
    }

    fn phase_mut(&mut self, phase: u64) -> &mut PhaseStats {
        self.phases.entry(phase).or_default()
    }
}

/// Marks a node dead (heartbeat loss). Pending messages to it bounce as
/// failover NACKs (see [`crate::scheme::deliver_msg`]).
pub fn fail_node(world: &mut Cluster, node: usize) {
    world.core.mds.mark_dead(node);
}

/// Kills every OSD in `rack` (ToR/PDU failure). Returns the victims.
pub fn fail_rack(world: &mut Cluster, rack: usize) -> Vec<usize> {
    let victims: Vec<usize> = (0..world.core.cfg.osds)
        .filter(|&n| world.core.net.rack_of(n) == rack)
        .collect();
    for &v in &victims {
        fail_node(world, v);
    }
    victims
}

/// Failover watchdog sweep: force-completes client ops issued at or
/// before `deadline` that are still in flight — the modeled client
/// timeout + retry that keeps closed loops alive through failure windows
/// no matter what scheme state died with a node. Returns the number of
/// ops reaped.
pub fn reap_stalled_ops(world: &mut Cluster, sim: &mut Sim<Cluster>, deadline: Time) -> u64 {
    let stalled = world.core.pending.stalled(deadline);
    let mut reaped = 0;
    for op_id in stalled {
        let Some(op) = world.core.pending.force_remove(op_id) else {
            continue;
        };
        reaped += 1;
        world.core.metrics.record_completion(&op, op_id, sim.now());
        crate::client::client_issue(world, sim, op.client);
    }
    reaped
}

/// Enqueues a rebuild job for every block homed on the (dead) `victims`
/// and starts pumping jobs through the engine. Online-safe: client
/// traffic may keep running; jobs respect [`RecoveryState::concurrency`].
/// Returns the phase token identifying this batch's
/// [`RecoveryState::phase_stats`] — overlapping failures each get their
/// own exact accounting.
pub fn start_recovery(world: &mut Cluster, sim: &mut Sim<Cluster>, victims: &[usize]) -> u64 {
    let mut lost: Vec<BlockId> = victims
        .iter()
        .flat_map(|&v| world.core.osds[v].block_ids())
        .collect();
    // One global rebuild order across all victims' (sorted) listings.
    lost.sort_unstable();
    let rec = &mut world.core.recovery;
    let phase = rec.next_phase;
    rec.next_phase += 1;
    // Skip blocks an overlapping earlier phase already has queued or in
    // flight (e.g. a rack kill followed by a kill of one of its nodes).
    lost.retain(|b| rec.scheduled.insert(*b));
    let stats = rec.phase_mut(phase);
    stats.enqueued = lost.len() as u64;
    stats.queued = lost.len() as u64;
    rec.queue.extend(lost.into_iter().map(|b| (b, phase)));
    pump_recovery(world, sim);
    phase
}

/// Launches queued rebuild jobs until the concurrency limit binds.
fn pump_recovery(world: &mut Cluster, sim: &mut Sim<Cluster>) {
    while world.core.recovery.inflight < world.core.recovery.concurrency {
        let Some((block, phase)) = world.core.recovery.queue.pop_front() else {
            break;
        };
        spawn_rebuild(world, sim, block, phase);
    }
}

/// Rebuilds one block: `k` survivor range-reads → transfers to the chosen
/// target → zero-copy decode ([`tsue_ec::RsCode::reconstruct_one`]) →
/// sequential write of the reconstructed block → rehome. Counts blocks
/// with too few survivors as unrecoverable instead of panicking.
fn spawn_rebuild(world: &mut Cluster, sim: &mut Sim<Cluster>, block: BlockId, phase: u64) {
    let now = sim.now();
    let core = &mut world.core;
    let gstripe = core.global_stripe(block.file, block.stripe);
    let k = core.cfg.stripe.k;
    let bps = core.cfg.stripe.blocks_per_stripe();
    let block_size = core.cfg.stripe.block_size;

    // The victim may have healed (transient failure) while this job sat
    // in the queue; nothing to do then.
    let home = core.owner_of(gstripe, block.role);
    if core.mds.is_alive(home) && core.osds[home].hosts(block) {
        core.recovery.scheduled.remove(&block);
        let p = core.recovery.phase_mut(phase);
        p.queued -= 1;
        p.skipped += 1;
        return;
    }

    // Live peers hosting any role of this stripe are both our survivor
    // sources and ineligible rebuild targets (one stripe block per node);
    // in-flight rebuilds of sibling roles likewise reserve their targets.
    // Shards whose checksums flag rot are a last resort: decoding
    // through one bakes its garbage into the rebuilt block under a
    // fresh digest, and the rot then algebraically reproduces itself
    // when the scrubber later decodes the rotted original back out of
    // the contaminated rebuild.
    let mut survivors: Vec<(usize, usize)> = Vec::with_capacity(k); // (role, owner)
    let mut rotted: Vec<(usize, usize)> = Vec::new();
    let mut occupied = vec![false; core.cfg.osds];
    for role in 0..bps {
        let owner = core.owner_of(gstripe, role);
        if role == block.role || !core.mds.is_alive(owner) {
            continue;
        }
        occupied[owner] = true;
        let sib = BlockId {
            file: block.file,
            stripe: block.stripe,
            role,
        };
        if !core.osds[owner].corrupt_pages(sib).is_empty() {
            rotted.push((role, owner));
            continue;
        }
        if survivors.len() < k {
            survivors.push((role, owner));
        }
    }
    for (role, owner) in rotted {
        if survivors.len() < k {
            survivors.push((role, owner));
        }
    }
    for &(gs, _, node) in &core.recovery.inflight_targets {
        if gs == gstripe {
            occupied[node] = true;
        }
    }
    if survivors.len() < k {
        core.recovery.scheduled.remove(&block);
        let p = core.recovery.phase_mut(phase);
        p.queued -= 1;
        p.unrecoverable += 1;
        return;
    }

    // Target: among live, stripe-free nodes (round-robin tie-break),
    // prefer the rack currently holding the fewest live blocks of this
    // stripe — rebuilds must not erode the rack-aware spread, or a later
    // single-rack failure could exceed the code's tolerance even though
    // placement promised otherwise. (Rack-blind targeting would pile a
    // dead rack's blocks onto one survivor rack.)
    let live = core.mds.live_nodes();
    assert!(!live.is_empty(), "no live nodes left to rebuild onto");
    let mut rack_load = vec![0u32; core.net.racks()];
    for role in 0..bps {
        if role == block.role {
            continue;
        }
        let owner = core.owner_of(gstripe, role);
        if core.mds.is_alive(owner) {
            rack_load[core.net.rack_of(core.osds[owner].node)] += 1;
        }
    }
    for &(gs, _, node) in &core.recovery.inflight_targets {
        if gs == gstripe {
            rack_load[core.net.rack_of(core.osds[node].node)] += 1;
        }
    }
    let start = core.recovery.rr % live.len();
    let mut target: Option<usize> = None;
    for i in 0..live.len() {
        let n = live[(start + i) % live.len()];
        if occupied[n] {
            continue;
        }
        let load = rack_load[core.net.rack_of(core.osds[n].node)];
        if target.is_none_or(|t| load < rack_load[core.net.rack_of(core.osds[t].node)]) {
            target = Some(n);
        }
    }
    // Fallback (every live node already hosts a block of this stripe —
    // only possible in clusters barely wider than the stripe): accept a
    // doubled-up node rather than dropping the rebuild.
    let target = target.unwrap_or(live[start]);
    core.recovery.rr = core.recovery.rr.wrapping_add(1);

    // Survivor reads + transfers; the decode starts when the last shard
    // arrives at the target. The per-tier split of the rebuild traffic
    // is read back from the fabric's own accounting (tier deltas around
    // these transfers), so there is a single source of truth for
    // wire-byte classification. The timing is charged here; the *content*
    // cut is taken at completion (below), when every parity delta that
    // was on the wire at failure time has landed — a spawn-time snapshot
    // could tear a data write from its in-flight parity update and
    // decode garbage.
    let tier0 = *core.net.tier_traffic();
    let dest = core.osds[target].node;
    let ready = core.charge_gather(now, block, &survivors, 0, block_size, dest);
    let moved = core.net.tier_traffic().since(&tier0);
    core.recovery.intra_rack_bytes += moved.intra_wire;
    core.recovery.cross_rack_bytes += moved.cross_wire;

    // Decode cost: k GF multiply-accumulates over the block.
    let t_decoded = ready + core.gf_time(block_size * k as u64);

    core.osds[target].install_block(block, block_size, core.cfg.materialize);
    // Sequential write of the freshly installed block.
    let t_written = core.osds[target].block_io(t_decoded, IoKind::Write, block, 0, block_size);
    // The whole per-block rebuild chain (survivor reads → transfers →
    // decode → device write) is deterministic at spawn time, so the
    // recovery-decode round records here. Lane id = stripe/role, a
    // namespace the client span table never uses.
    core.metrics.obs.op_complete(
        tsue_obs::OpClass::RecoveryDecode,
        (gstripe << 8) | block.role as u64,
        target,
        now,
        t_written,
    );
    core.recovery.inflight += 1;
    core.recovery
        .inflight_targets
        .push((gstripe, block.role, target));
    {
        let p = core.recovery.phase_mut(phase);
        p.queued -= 1;
        p.inflight += 1;
    }
    sim.schedule_at(t_written, move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
        let core = &mut w.core;
        core.recovery.inflight -= 1;
        core.recovery
            .inflight_targets
            .retain(|&(gs, r, _)| (gs, r) != (gstripe, block.role));
        core.recovery.scheduled.remove(&block);
        let home = core.owner_of(gstripe, block.role);
        if core.mds.is_alive(home) && home != target && core.osds[home].hosts(block) {
            // The home healed while this job was in flight: the heal-time
            // re-sync already caught its copy up (journal replay), so the
            // freshly rebuilt copy is redundant. Discard it and keep the
            // home authoritative — rehoming now would shadow the healed
            // copy and leak a rehome entry past the re-sync.
            core.osds[target].evict_block(block);
            let p = core.recovery.phase_mut(phase);
            p.inflight -= 1;
            p.skipped += 1;
            pump_recovery(w, sim);
            return;
        }
        // Materialized reconstruction from the *completion-time* cut:
        // survivors re-resolved through `owner_of` (a sibling rebuilt or
        // replayed meanwhile hands over its current copy), peeked in one
        // DES event so the data/parity cut is consistent — client writes
        // to this stripe were fenced while the job was scheduled.
        if core.cfg.materialize {
            let mut shards: Vec<(usize, Bytes)> = Vec::with_capacity(survivors.len());
            for &(role, _) in &survivors {
                let src_block = BlockId { role, ..block };
                let owner_now = core.owner_of(gstripe, role);
                if let Some(bytes) = core.osds[owner_now].peek_block_range(src_block, 0, block_size)
                {
                    shards.push((role, bytes));
                }
            }
            // The decode lands in place through the target's checksum
            // bracket, so the rebuilt block is digested as installed.
            let borrowed: Vec<(usize, &[u8])> =
                shards.iter().map(|(r, b)| (*r, b.as_slice())).collect();
            let rs = &core.rs;
            core.osds[target].fill_block(block, |out| {
                rs.reconstruct_one(&borrowed, block.role, out)
                    // INVARIANT: the shard set was assembled from exactly k live
                    // roles above; decode only fails with fewer than k.
                    .expect("k survivors by construction");
            });
        }
        // Acked appends still sitting in the dead home's data log are
        // invisible to the reconstruct (survivors decode the block as of
        // the last log merge): land their replica copies first, so the
        // rebuilt block carries every acked write.
        let from_replicas = replay_unmerged(w, sim, target, home, block);
        let core = &mut w.core;
        // Then acked failure-window writes parked in the degraded-write
        // journal — after the reconstruct, before the rehome — so the
        // block goes live current.
        let replayed = crate::journal::replay_block(core, sim, target, block);
        // The reconstruct re-encoded a parity block from current data,
        // so any missed-delta mark is now satisfied.
        core.mds.clear_parity_dirty(gstripe, block.role);
        let p = core.recovery.phase_mut(phase);
        p.inflight -= 1;
        p.rebuilt += 1;
        p.bytes_rebuilt += block_size;
        p.journal_replayed_bytes += replayed;
        p.replica_replayed_bytes += from_replicas;
        core.recovery.replica_replayed_bytes += from_replicas;
        core.mds.rehome(gstripe, block.role, target);
        pump_recovery(w, sim);
    });
}

/// Replays what the dead `home`'s replicated data log still owes `block`
/// onto the rebuilt copy at `target`; returns the bytes replayed.
///
/// The reconstruct decodes the block *as of the last log merge*, so
/// acked appends the home had not yet recycled exist only in its log
/// and on the peers it forwarded copies to. The home's own log index
/// names those records and, for each, a live peer that holds it
/// ([`crate::UpdateScheme::unmerged_extents`]): each is read back from
/// that peer and written in place, charged per extent from `now` (the
/// same in timing-only and materialized runs). In materialized runs the
/// index also patches their bytes over the reconstructed ones, through
/// the target's checksum bracket. Some replayed appends never produced a
/// parity delta and others' may not have landed, so every parity role of
/// the stripe is marked dirty for the next authoritative re-encode.
/// Either way the home's log then forgets the block: a record no live
/// peer holds died with the node, and one replayed here must not be
/// replayed again should the home rejoin and fail once more.
fn replay_unmerged(
    world: &mut Cluster,
    sim: &mut Sim<Cluster>,
    target: usize,
    home: usize,
    block: BlockId,
) -> u64 {
    let Cluster { core, schemes, .. } = world;
    let scheme = &mut schemes[home];
    let owed = scheme.unmerged_extents(&core.mds, block, None);
    if !owed.is_empty() {
        let now = sim.now();
        for e in &owed {
            if e.src != target {
                core.net
                    .transfer(now, core.osds[e.src].node, core.osds[target].node, e.len);
            }
            core.osds[target].block_io(now, IoKind::Write, block, e.off, e.len);
        }
        let mds = &core.mds;
        core.osds[target].fill_block(block, |b| {
            scheme.unmerged_extents(mds, block, Some(b));
        });
        let gstripe = core.global_stripe(block.file, block.stripe);
        let (k, m) = (core.cfg.stripe.k, core.cfg.stripe.m);
        for j in 0..m {
            core.mds.mark_parity_dirty(gstripe, k + j);
        }
    }
    scheme.forget_block(block);
    owed.iter().map(|e| e.len).sum()
}

/// Runs a full **offline** recovery of `victim`'s blocks onto the
/// surviving nodes and returns the report. Call after client traffic has
/// stopped.
///
/// Sequence (mirroring §5.4): drain every scheme's logs (the consistency
/// prerequisite — logs must merge before reconstruction), fail the node,
/// rebuild every lost block from `k` survivors through the shared online
/// engine with unbounded concurrency, and block until done.
pub fn run_recovery(world: &mut Cluster, sim: &mut Sim<Cluster>, victim: usize) -> RecoveryReport {
    let t0 = sim.now();
    // 1. Drain logs so blocks+parity are authoritative.
    let t_flush = world.flush_all(sim);

    // 2. Fail the node and rebuild everything it hosted.
    fail_node(world, victim);
    world.core.recovery.concurrency = usize::MAX;
    let phase = start_recovery(world, sim, &[victim]);
    sim.run_while(world, move |w| {
        w.core.recovery.phase_stats(phase).pending() > 0
    });

    let stats = world.core.recovery.phase_stats(phase);
    let total_time = sim.now().saturating_sub(t0);
    RecoveryReport {
        bytes_rebuilt: stats.bytes_rebuilt,
        blocks_rebuilt: stats.rebuilt,
        blocks_unrecoverable: stats.unrecoverable,
        flush_time: t_flush.saturating_sub(t0),
        total_time,
    }
}

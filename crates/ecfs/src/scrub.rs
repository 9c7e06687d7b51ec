//! Background scrub: sweeping the OSD stores against their checksum
//! tables and repairing rot from the stripe's surviving blocks.
//!
//! The scrubber is a DES citizen: [`start_scrub`] paces full-block
//! verification reads at [`crate::ClusterConfig::scrub_mb_s`], so scrub
//! traffic interleaves with (and steals device time from) client I/O.
//! Detection is cheap and always safe; *repair* is only provably correct
//! when the stripe's store-level shards form a codeword, which
//! log-buffered schemes violate whenever parity deltas sit unmerged. Two
//! repair modes handle that:
//!
//! * **Digest-guarded (mid-run)** — reconstruct the corrupt page from
//!   `k` clean survivors, but install it only when the result matches
//!   the page's stored digest: the digest was computed from the last
//!   good content, so a match proves the decode is byte-exact
//!   regardless of log state. A mismatch (stale parity, mid-merge cut)
//!   leaves the page queued.
//! * **Final sweep** ([`run_full_scrub`]) — after logs drain, survivors
//!   are authoritative: repair everything, re-encode parity poisoned by
//!   deltas that folded rotted bytes, and count what is genuinely
//!   unrecoverable (fewer than `k` clean live siblings).
//!
//! All repair I/O is charged: survivor device reads, cross-node
//! transfers (visible in per-tier byte accounting), GF decode time, and
//! the home's page write.

use crate::osd::BlockId;
use crate::{Cluster, ClusterCore};
use std::collections::BTreeSet;
use tsue_device::IoKind;
use tsue_integrity::{checksum, PAGE};
use tsue_sim::{Sim, Time, SECOND};

/// Scrub cursor and repair queue, owned by [`crate::ClusterCore`].
#[derive(Debug, Default)]
pub struct ScrubState {
    /// OSD the cursor is sweeping.
    cursor_osd: usize,
    /// Index into that OSD's sorted block list.
    cursor_block: usize,
    /// Blocks with detected corruption awaiting a safe repair point.
    queue: Vec<(usize, BlockId)>,
    /// Dedup set over `queue`.
    queued: BTreeSet<(usize, BlockId)>,
    /// True while paced sweep ticks are scheduled.
    pub active: bool,
}

/// Outcome of one [`run_full_scrub`] sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FullScrubReport {
    /// Blocks verified this sweep.
    pub scrubbed: u64,
    /// Corrupt pages repaired this sweep.
    pub repaired: u64,
    /// Corrupt pages left unrepairable (fewer than `k` clean survivors).
    pub unrecoverable: u64,
    /// Poisoned parity blocks re-encoded from data.
    pub parity_reencoded: u64,
}

/// Records a corruption detection on `block` at `osd`: counts its
/// corrupt pages once and queues the block for repair. Idempotent per
/// `(osd, block)` until the block is repaired clean.
pub fn note_corrupt_block(core: &mut ClusterCore, osd: usize, block: BlockId) {
    if core.scrub.queued.insert((osd, block)) {
        core.scrub.queue.push((osd, block));
        core.metrics.corruptions_detected += core.osds[osd].corrupt_pages(block).len() as u64;
    }
}

/// Virtual time between scrub ticks: one block per tick at the
/// configured aggregate rate.
fn tick_interval(core: &ClusterCore) -> Time {
    let bs = core.cfg.stripe.block_size;
    (bs.saturating_mul(SECOND) / (core.cfg.scrub_mb_s << 20)).max(1)
}

/// Starts the paced background sweep. No-op unless the run materializes
/// content with checksums and `scrub_mb_s > 0`.
pub fn start_scrub(world: &mut Cluster, sim: &mut Sim<Cluster>) {
    let cfg = &world.core.cfg;
    if cfg.scrub_mb_s == 0 || !cfg.materialize || !cfg.checksums || world.core.scrub.active {
        return;
    }
    world.core.scrub.active = true;
    let delay = tick_interval(&world.core);
    sim.schedule(delay, scrub_tick);
}

/// One paced tick: verify the next block under the cursor, then
/// reschedule. Stops (without rescheduling) once the experiment window
/// closes — the scenario-end [`run_full_scrub`] finishes the job.
fn scrub_tick(world: &mut Cluster, sim: &mut Sim<Cluster>) {
    if !world.core.accepting(sim.now()) {
        world.core.scrub.active = false;
        return;
    }
    let osds = world.core.cfg.osds;
    for _ in 0..osds {
        let osd = world.core.scrub.cursor_osd;
        if !world.core.mds.is_alive(osd) {
            world.core.scrub.cursor_osd = (osd + 1) % osds;
            world.core.scrub.cursor_block = 0;
            continue;
        }
        let cursor = world.core.scrub.cursor_block;
        let Some(block) = world.core.osds[osd].block_ids().nth(cursor) else {
            world.core.scrub.cursor_osd = (osd + 1) % osds;
            world.core.scrub.cursor_block = 0;
            continue;
        };
        world.core.scrub.cursor_block += 1;
        scrub_one(&mut world.core, sim, osd, block);
        break;
    }
    let delay = tick_interval(&world.core);
    sim.schedule(delay, scrub_tick);
}

/// Verifies one block (charging its full-block device read); on
/// corruption, queues it and attempts a digest-guarded repair.
fn scrub_one(core: &mut ClusterCore, sim: &mut Sim<Cluster>, osd: usize, block: BlockId) {
    let bs = core.cfg.stripe.block_size;
    let done = core.osds[osd].block_io(sim.now(), IoKind::Read, block, 0, bs);
    // One scrub round = the full-block verification read.
    let round = core.metrics.blocks_scrubbed;
    core.metrics
        .obs
        .op_complete(tsue_obs::OpClass::ScrubRound, round, osd, sim.now(), done);
    core.metrics.blocks_scrubbed += 1;
    if core.osds[osd].corrupt_pages(block).is_empty() {
        return;
    }
    note_corrupt_block(core, osd, block);
    repair_block(core, sim, osd, block, RepairMode::Guarded);
    if core.osds[osd].corrupt_pages(block).is_empty() {
        core.scrub.queued.remove(&(osd, block));
        core.scrub.queue.retain(|e| *e != (osd, block));
    }
}

/// How aggressively a repair pass may act.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RepairMode {
    /// Mid-run: install a reconstructed page only when it matches the
    /// stored digest (provably byte-exact); never count unrecoverable.
    Guarded,
    /// Post-drain: survivors are authoritative — install every decode,
    /// count pages that lack `k` clean survivors as unrecoverable.
    Authoritative,
}

/// Repairs the corrupt pages of one block from `k` clean live siblings.
/// Returns `(pages_repaired, pages_unrecoverable)`.
fn repair_block(
    core: &mut ClusterCore,
    sim: &mut Sim<Cluster>,
    osd: usize,
    block: BlockId,
    mode: RepairMode,
) -> (u64, u64) {
    let now = sim.now();
    let k = core.cfg.stripe.k;
    let bps = core.cfg.stripe.blocks_per_stripe();
    let bs = core.cfg.stripe.block_size;
    let gstripe = core.global_stripe(block.file, block.stripe);

    // Live siblings hosting their role. Dirty parity is stale relative
    // to the stripe, so an *ungated* (authoritative) decode must never
    // source it — but under the digest guard a stale shard is harmless
    // (a wrong decode simply fails the gate) and is exactly what
    // recovers rot on a stripe whose unmerged appends never touched the
    // rotted page. Guarded repairs therefore keep dirty parity as a
    // last-resort source, ordered after every consistent shard.
    let mut siblings: Vec<(usize, usize)> = Vec::with_capacity(bps - 1); // (role, owner)
    let mut stale: Vec<(usize, usize)> = Vec::new();
    for role in 0..bps {
        if role == block.role {
            continue;
        }
        let owner = core.owner_of(gstripe, role);
        if !core.mds.is_alive(owner) || !core.osds[owner].hosts(block_for(block, role)) {
            continue;
        }
        if role >= k && core.mds.parity_is_dirty(gstripe, role) {
            if mode == RepairMode::Guarded {
                stale.push((role, owner));
            }
            continue;
        }
        siblings.push((role, owner));
    }
    siblings.extend(stale);

    let mut repaired = 0u64;
    let mut unrecoverable = 0u64;
    for page in core.osds[osd].corrupt_pages(block) {
        let s = page as u64 * PAGE;
        let len = (bs - s).min(PAGE);
        if mode == RepairMode::Guarded && core.osds[osd].page_tainted(block, page) {
            // The stored digest blesses garbage: no decode can ever
            // match it, so the page waits for the authoritative sweep.
            continue;
        }
        // The first k siblings whose own page verifies clean.
        let sources: Vec<(usize, usize)> = siblings
            .iter()
            .copied()
            .filter(|&(role, owner)| {
                core.osds[owner]
                    .verify_range(block_for(block, role), s, len)
                    .is_ok()
            })
            .take(k)
            .collect();
        if sources.len() < k {
            if mode == RepairMode::Authoritative {
                core.metrics.corruptions_unrecoverable += 1;
                unrecoverable += 1;
            }
            continue;
        }
        let Some(fresh) = core.reconstruct(block, &sources, s, len) else {
            continue; // timing-only: no bytes to repair
        };
        // The decode streams once, into a stack page: the guard checks
        // it against the stored digest, and it is what the page gets.
        let mut scratch = [0u8; PAGE as usize];
        let decoded = &mut scratch[..len as usize];
        fresh.read_into(0, decoded);
        if mode == RepairMode::Guarded
            && core.osds[osd].page_digest(block, page) != Some(checksum(decoded))
        {
            // Store-level shards were not a codeword for this page
            // (unmerged log deltas); leave it queued for the final sweep.
            continue;
        }
        // Charge the repair: k survivor page reads, transfers to the
        // home (per-tier accounted), the decode, and the page rewrite
        // (a whole-page overwrite, so the page's taint clears).
        let home = core.osds[osd].node;
        let t_decoded = core.charge_decode(now, block, &sources, s, len, home);
        core.osds[osd].block_io(t_decoded, IoKind::Write, block, s, len);
        core.osds[osd].poke_slice(block, s, decoded);
        core.metrics.corruptions_repaired += 1;
        repaired += 1;
    }
    (repaired, unrecoverable)
}

/// Sibling block id: same file/stripe, different role.
fn block_for(block: BlockId, role: usize) -> BlockId {
    BlockId {
        file: block.file,
        stripe: block.stripe,
        role,
    }
}

/// Authoritative full sweep, to run after scheme logs have drained
/// (flush barrier): verifies every block on every live OSD, repairs all
/// corrupt pages from clean survivors, re-encodes parity poisoned by
/// deltas that folded rotted source bytes, and counts the truly
/// unrecoverable remainder. Safe to call repeatedly; clean sweeps only
/// bump [`crate::ClusterMetrics::blocks_scrubbed`].
pub fn run_full_scrub(world: &mut Cluster, sim: &mut Sim<Cluster>) -> FullScrubReport {
    let mut report = FullScrubReport::default();
    if !world.core.cfg.materialize || !world.core.cfg.checksums {
        return report;
    }
    let k = world.core.cfg.stripe.k;
    let m = world.core.cfg.stripe.m;
    let bs = world.core.cfg.stripe.block_size;

    // Rot that rode a delta to parity: those parity blocks verify clean
    // against their own checksums but hold wrong content — mark them
    // dirty so the re-encode pass below rebuilds them from data.
    for osd in 0..world.core.cfg.osds {
        for block in world.core.osds[osd].take_poisoned() {
            let gstripe = world.core.global_stripe(block.file, block.stripe);
            for j in 0..m {
                world.core.mds.mark_parity_dirty(gstripe, k + j);
            }
        }
    }

    // Detect everywhere (charging the verification reads), then repair:
    // data first (decode needs clean data more than clean parity),
    // parity re-encode, then remaining parity pages, and one retry round
    // for pages whose survivors only became clean mid-pass.
    let mut corrupt: Vec<(usize, BlockId)> = Vec::new();
    for osd in 0..world.core.cfg.osds {
        if !world.core.mds.is_alive(osd) {
            continue;
        }
        let ids: Vec<BlockId> = world.core.osds[osd].block_ids().collect();
        for block in ids {
            world.core.osds[osd].block_io(sim.now(), IoKind::Read, block, 0, bs);
            world.core.metrics.blocks_scrubbed += 1;
            report.scrubbed += 1;
            if !world.core.osds[osd].corrupt_pages(block).is_empty() {
                note_corrupt_block(&mut world.core, osd, block);
                corrupt.push((osd, block));
            }
        }
    }
    // Fold in read-path/tick detections whose homes are still live (the
    // sweep above re-finds them, but queue entries may predate it).
    let queued: Vec<(usize, BlockId)> = world.core.scrub.queue.clone();
    for (osd, block) in queued {
        if world.core.mds.is_alive(osd) && !corrupt.contains(&(osd, block)) {
            corrupt.push((osd, block));
        }
    }
    corrupt.sort_unstable_by_key(|&(osd, b)| (b.role >= k, osd, b));

    // Digest-guarded rounds to fixpoint: every install is provably
    // byte-exact (stale parity may source a decode — the gate rejects
    // any wrong result), and parity re-encode only runs for stripes
    // whose data is clean, so rot never rides a re-encode into a fresh
    // codeword. Unrecoverable is never counted here — a page that looks
    // stuck this round may become repairable once a sibling is fixed.
    for _round in 0..3 {
        let mut progressed = false;
        for &(osd, block) in &corrupt {
            if world.core.osds[osd].corrupt_pages(block).is_empty() {
                continue;
            }
            let (fixed, _) = repair_block(&mut world.core, sim, osd, block, RepairMode::Guarded);
            report.repaired += fixed;
            progressed |= fixed > 0;
        }
        let reencoded = crate::repair_all_dirty_parity(world, sim);
        report.parity_reencoded += reencoded;
        progressed |= reencoded > 0;
        if !progressed {
            break;
        }
    }
    // Authoritative finish: whatever the guard could not prove (tainted
    // digests that bless garbage) now installs from clean survivors
    // only, and the remainder is counted unrecoverable exactly once.
    for &(osd, block) in &corrupt {
        if !world.core.osds[osd].corrupt_pages(block).is_empty() {
            let (fixed, lost) =
                repair_block(&mut world.core, sim, osd, block, RepairMode::Authoritative);
            report.repaired += fixed;
            report.unrecoverable += lost;
        }
        if world.core.osds[osd].corrupt_pages(block).is_empty() {
            world.core.scrub.queued.remove(&(osd, block));
            world.core.scrub.queue.retain(|e| *e != (osd, block));
        }
    }
    // Stripes whose data only came clean in the authoritative pass can
    // settle their parity now.
    report.parity_reencoded += crate::repair_all_dirty_parity(world, sim);
    report
}

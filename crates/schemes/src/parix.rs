//! PARIX — speculative partial writes (Li et al., ATC '17; paper §2.2).
//!
//! PARIX skips the data-side read-modify-write: new data is written in
//! place and *forwarded as data* (not as a delta) to the parity logs. The
//! parity side can only compute `coeff · (D_latest ⊕ D_original)` if it
//! holds the original data, so on the **first** update of a location the
//! data OSD must additionally ship the old content — the 2× network
//! round trip Fig. 1 charges PARIX with. Locations updated repeatedly
//! (temporal locality) pay a single forward per write, which is the
//! scheme's sweet spot.
//!
//! Parity-side state per data block is a pair of interval maps:
//! `original` (first-wins — Eq. (4)'s `D_0`) and `latest` (newest-wins).
//! Recycle folds `latest ⊕ original` per covered range into the parity
//! block, then promotes `latest` to be the new `original`.

use crate::{parity_index_of, recycle_done, track_recycle, AckTable, LogRegion, ENTRY_HEADER};
use std::collections::BTreeMap;
use tsue_ecfs::rangemap::RangeMap;
use tsue_ecfs::scheme::{reply_at, send_at, xor_streamed, Chunk, SchemeMsg, UpdateReq};
use tsue_ecfs::{BlockId, Cluster, ClusterCore, UpdateScheme};
use tsue_sim::Sim;

/// Tag bit marking a `DataForward` that carries *original* (old) data.
const OLD_BIT: u64 = 1 << 62;
/// Control tag: parity asks the data OSD for original data.
const CTRL_NEED_OLD: u64 = 1;
/// Parity-side per-data-block log state.
#[derive(Default)]
struct BlockLog {
    /// First-wins capture of pre-update content (`D_0`).
    original: RangeMap,
    /// Newest-wins capture of the latest content (`D_n`).
    latest: RangeMap,
}

/// Data-side cache of old content awaiting parity `NeedOld` requests.
struct PendingOld {
    old: Chunk,
    off: u64,
    block: BlockId,
    remaining: u32,
}

/// The PARIX scheme state (per OSD).
pub struct Parix {
    acks: AckTable,
    /// Data-side: byte ranges whose original content the parity logs hold.
    old_sent: BTreeMap<BlockId, RangeMap>,
    /// Bytes of speculation coverage accumulated since the last epoch
    /// flip; bounded by [`Self::speculation_budget`].
    old_sent_bytes: u64,
    /// Coverage budget modeling the bounded parity-log space: when
    /// exceeded, the data side conservatively re-enters first-touch mode
    /// (the recurring 2× round-trip penalty after log reclamation).
    pub speculation_budget: u64,
    /// Data-side: cached originals for in-flight first updates, each held
    /// until its ack exchange completes.
    pend_old: BTreeMap<u64, PendingOld>,
    /// Parity-side log region (holds both old and new entries).
    log: LogRegion,
    /// Parity-side per-block state.
    blocks: BTreeMap<BlockId, BlockLog>,
    log_bytes: u64,
    /// Recycle trigger.
    pub threshold: u64,
    inflight: u64,
}

impl Default for Parix {
    fn default() -> Self {
        Self::new()
    }
}

impl Parix {
    /// Creates a PARIX instance with a lazy (large) recycle threshold.
    pub fn new() -> Self {
        Parix {
            acks: AckTable::default(),
            old_sent: BTreeMap::new(),
            old_sent_bytes: 0,
            speculation_budget: 4 << 20,
            pend_old: BTreeMap::new(),
            log: LogRegion::new(512 << 20, 4),
            blocks: BTreeMap::new(),
            log_bytes: 0,
            threshold: 256 << 20,
            inflight: 0,
        }
    }

    /// Parity-side recycle: per block, per covered range of `latest`,
    /// apply `coeff · (latest ⊕ original)` to the parity block.
    fn start_recycle(&mut self, core: &mut ClusterCore, sim: &mut Sim<Cluster>, osd: usize) {
        let now = sim.now();
        let keys: Vec<BlockId> = self.blocks.keys().copied().collect();
        for dblock in keys {
            let gstripe = core.global_stripe(dblock.file, dblock.stripe);
            let Some(j) = parity_index_of(core, osd, gstripe) else {
                continue; // stale entry after a placement change
            };
            let coeff = core.rs.coefficient(j, dblock.role);
            let pblock = core.parity_block(dblock, j);
            // INVARIANT: `dblock` came from `blocks.keys()` just above, and
            // this loop removes nothing.
            let log_state = self.blocks.get_mut(&dblock).expect("key exists");
            // Each entry is consumed as its run of segments — the handles
            // the client's forwards arrived in — and never gathered.
            let latest = log_state.latest.drain_runs();
            for newest in latest.iter() {
                let (off, len) = (newest.off(), newest.len());
                // Log reads: the latest entry and the original entry
                // (two scattered reads — PARIX's recycle cost).
                // Approximate entry placement: reads wrap inside the log
                // region, so the cost model sees two scattered reads.
                let t1 = self.log.read(core, osd, now, off, len);
                let t2 = self
                    .log
                    .read(core, osd, t1, off.wrapping_mul(2654435761), len);
                // delta = latest ⊕ original over this range, built in one
                // scratch buffer; its GF scaling is a recipe over it,
                // generated page by page as it lands in the parity block.
                let delta = if newest.is_real() {
                    // The overlay writes every covered byte; a hole (an
                    // original that never arrived) reads as zeros.
                    let mut buf = tsue_buf::BytesMut::take(len as usize);
                    let covered = log_state.original.overlay(off, len, Some(buf.as_mut()));
                    debug_assert!(covered, "original must cover latest");
                    for (at, seg) in newest.chunks() {
                        if let Some(bytes) = &seg.bytes {
                            let from = (at - off) as usize;
                            xor_streamed(bytes, &mut buf.as_mut()[from..from + bytes.len()]);
                        }
                    }
                    Chunk::real(buf.freeze())
                } else {
                    Chunk::ghost(len)
                };
                let pd = delta.gf_scaled(coeff);
                let compute = core.gf_time(pd.len);
                let t_done = core.osds[osd].xor_block_range(
                    t2,
                    pblock,
                    off,
                    pd.len,
                    pd.bytes.as_ref(),
                    compute,
                );
                track_recycle(&mut self.inflight, core, sim, osd, t_done);
                // The merged content becomes the new original: the same
                // handles, so the m parity peers share the buffers the
                // client forwarded.
                for (at, seg) in newest.chunks() {
                    log_state.original.insert(at, seg.clone());
                }
            }
        }
        self.log_bytes = 0;
    }
}

impl UpdateScheme for Parix {
    fn on_update(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        req: UpdateReq,
    ) {
        let now = sim.now();
        let m = core.cfg.stripe.m;
        let gstripe = core.global_stripe(req.block.file, req.block.stripe);
        let coverage = self.old_sent.entry(req.block).or_default();
        let first = !coverage.overlay(req.off, req.data.len, None);

        let (t_write, old_chunk) = if first {
            // Must capture the original before overwriting it. The parity
            // side folds it into a delta, so rot in it poisons parity.
            core.osds[osd].note_delta_source(req.block, req.off, req.data.len);
            let (t_read, old) =
                core.osds[osd].read_block_range(now, req.block, req.off, req.data.len);
            let t_w = core.osds[osd].write_block_range(
                t_read,
                req.block,
                req.off,
                req.data.len,
                req.data.bytes.as_ref(),
            );
            let old_chunk = match old {
                Some(b) => Chunk::real(b),
                None => Chunk::ghost(req.data.len),
            };
            coverage.insert(req.off, Chunk::ghost(req.data.len));
            self.old_sent_bytes += req.data.len;
            (t_w, Some(old_chunk))
        } else {
            // Speculative fast path: blind in-place write.
            let t_w = core.osds[osd].write_block_range(
                now,
                req.block,
                req.off,
                req.data.len,
                req.data.bytes.as_ref(),
            );
            (t_w, None)
        };

        // Epoch flip: bounded parity-log space means speculation coverage
        // eventually lapses; the next touch of any location pays the
        // first-update protocol again. (Parity-side `original` maps keep
        // their content, so re-sent originals are ignored by first-wins
        // insertion — correctness is unaffected.)
        if self.old_sent_bytes > self.speculation_budget {
            self.old_sent.clear();
            self.old_sent_bytes = 0;
        }
        // First updates ship the original data ahead of the new data (the
        // paper's "read and forwarded separately" penalty): double payload,
        // double parity-log appends, double acks.
        let need = if old_chunk.is_some() { 2 * m } else { m };
        let tag = self.acks.register(req.op_id, need as u32);
        if let Some(old) = old_chunk {
            // Keep a copy for the (now rare) NeedOld fallback path until
            // the exchange's last ack is in.
            self.pend_old.insert(
                tag,
                PendingOld {
                    old: old.clone(),
                    off: req.off,
                    block: req.block,
                    remaining: m as u32,
                },
            );
            for j in 0..m {
                let peer = core.owner_of(gstripe, core.cfg.stripe.k + j);
                let msg = SchemeMsg::DataForward {
                    from: osd,
                    block: req.block,
                    off: req.off,
                    data: old.clone(),
                    tag: tag | OLD_BIT,
                };
                // Submitted before the new-data forward: per-pair FIFO
                // guarantees the parity sees the original first.
                send_at(sim, t_write, osd, peer, old.len, msg);
            }
        }
        // Forward the new data to every parity owner.
        for j in 0..m {
            let peer = core.owner_of(gstripe, core.cfg.stripe.k + j);
            let msg = SchemeMsg::DataForward {
                from: osd,
                block: req.block,
                off: req.off,
                data: req.data.clone(),
                tag,
            };
            send_at(sim, t_write, osd, peer, req.data.len, msg);
        }
    }

    fn on_message(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        msg: SchemeMsg,
    ) {
        match msg {
            SchemeMsg::DataForward {
                from,
                block,
                off,
                data,
                tag,
                ..
            } if tag & OLD_BIT != 0 => {
                // Original data arriving on a NeedOld round trip.
                let real_tag = tag & !OLD_BIT;
                let len = data.len;
                let (t_append, _) = self.log.append(core, osd, sim.now(), len + ENTRY_HEADER);
                self.log_bytes += len + ENTRY_HEADER;
                let state = self.blocks.entry(block).or_default();
                state.original.insert_absent(off, data);
                reply_at(sim, t_append, osd, from, SchemeMsg::Ack { tag: real_tag });
            }
            SchemeMsg::DataForward {
                from,
                block,
                off,
                data,
                tag,
                ..
            } => {
                // Speculative new-data arrival: append, then either ack or
                // ask for the original first.
                let len = data.len;
                let (t_append, _) = self.log.append(core, osd, sim.now(), len + ENTRY_HEADER);
                self.log_bytes += len + ENTRY_HEADER;
                let state = self.blocks.entry(block).or_default();
                let have_old = state.original.overlay(off, len, None);
                state.latest.insert(off, data);
                let reply = if have_old {
                    SchemeMsg::Ack { tag }
                } else {
                    // The 2× network penalty: request the original.
                    SchemeMsg::Control {
                        from: osd,
                        tag,
                        a: CTRL_NEED_OLD,
                        b: 0,
                    }
                };
                reply_at(sim, t_append, osd, from, reply);
                if self.log_bytes > self.threshold {
                    self.start_recycle(core, sim, osd);
                }
            }
            SchemeMsg::Control { from, tag, a, .. } => {
                debug_assert_eq!(a, CTRL_NEED_OLD);
                // Data side: ship the cached original to the requester.
                let Some(po) = self.pend_old.get_mut(&tag) else {
                    return;
                };
                po.remaining -= 1;
                let done = po.remaining == 0;
                let reply = SchemeMsg::DataForward {
                    from: osd,
                    block: po.block,
                    off: po.off,
                    data: po.old.clone(),
                    tag: tag | OLD_BIT,
                };
                let len = po.old.len;
                if done {
                    self.pend_old.remove(&tag);
                }
                core.send_to_scheme(sim, osd, from, len, reply);
            }
            SchemeMsg::Ack { tag } => {
                if let Some(op_id) = self.acks.ack(tag) {
                    // A NeedOld is answered before its ack, so none can
                    // arrive for a completed exchange: the original goes.
                    self.pend_old.remove(&tag);
                    core.extent_done(sim, osd, op_id);
                }
            }
            // INVARIANT: the arms above cover every message kind a PARIX peer
            // sends; anything else is a routing bug.
            _ => unreachable!("PARIX exchanges DataForward/Control/Ack"),
        }
    }

    fn on_timer(&mut self, _: &mut ClusterCore, _: &mut Sim<Cluster>, _osd: usize, tag: u64) {
        recycle_done(&mut self.inflight, tag);
    }

    fn flush(&mut self, core: &mut ClusterCore, sim: &mut Sim<Cluster>, osd: usize) {
        let has_latest = self.blocks.values().any(|b| !b.latest.is_empty());
        if has_latest {
            self.start_recycle(core, sim, osd);
        }
    }

    fn backlog(&self) -> u64 {
        let unmerged: u64 = self.blocks.values().map(|b| b.latest.len() as u64).sum();
        unmerged + self.inflight + self.acks.outstanding() as u64
    }

    fn memory_usage(&self) -> u64 {
        let maps: u64 = self
            .blocks
            .values()
            .map(|b| b.original.covered_bytes() + b.latest.covered_bytes())
            .sum();
        maps + self.pend_old.len() as u64 * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsue_ecfs::{run_workload, ClusterBuilder, ClusterConfig};
    use tsue_sim::SECOND;
    use tsue_trace::WorkloadProfile;

    /// Every first touch caches its original in `pend_old` for a NeedOld
    /// that can only come while the touch's ack exchange is open; once a
    /// materialized run has drained, no cached original may be left.
    #[test]
    fn drained_run_holds_no_cached_original() {
        let mut cfg = ClusterConfig::ssd_testbed(4, 2, 4);
        cfg.osds = 8;
        cfg.stripe = tsue_ec::StripeConfig::new(4, 2, 64 << 10);
        cfg.file_size_per_client = 1 << 20;
        cfg.materialize = true;
        cfg.seed = 15;
        let profile = WorkloadProfile {
            name: "first-touch".into(),
            update_fraction: 0.8,
            size_dist: vec![(4096, 0.7), (16384, 0.3)],
            hot_fraction: 0.2,
            hot_access_prob: 0.7,
            skew_depth: 2,
            repeat_prob: 0.3,
            seq_run_prob: 0.15,
            align: 4096,
        };
        let mut world = ClusterBuilder::from_config(cfg)
            .workload(&profile)
            .ops_per_client(60)
            .scheme_fn(|_| Box::new(Parix::new()))
            .build();
        let mut sim: Sim<Cluster> = Sim::new();
        run_workload(&mut world, &mut sim, 3600 * SECOND);
        world.flush_all(&mut sim);
        assert_eq!(world.total_scheme_backlog(), 0, "drained");
        let mut first_touched = 0;
        for (osd, s) in world.schemes.iter().enumerate() {
            let parix = (&**s as &dyn std::any::Any)
                .downcast_ref::<Parix>()
                .expect("every OSD runs PARIX");
            first_touched += parix.old_sent.len();
            assert!(
                parix.pend_old.is_empty(),
                "OSD {osd} still caches {} originals",
                parix.pend_old.len()
            );
        }
        assert!(first_touched > 0, "the run must take the first-touch path");
    }
}

//! CoRD — Combining RAID and Delta (Zhou et al., SC '24; paper §2.2).
//!
//! CoRD's insight is Eq. (5): data deltas from *different data blocks* of
//! the same stripe at the same offset can be folded into a single parity
//! delta per parity block before anything crosses the network to the
//! parity side. A per-stripe *collector* (co-located with the first parity
//! block) XOR-folds raw deltas per data block into interval maps and
//! combines them per parity at drain time ([`stripe_parity_delta`]),
//! slashing update traffic — and, since scaling is linear, buffering each
//! delta **once** instead of `m` scaled copies.
//!
//! The paper's critique, faithfully modeled: the collector's buffer log is
//! a fixed-size, single structure with no read/write concurrency — when it
//! fills, incoming deltas queue behind the drain (the "critical
//! bottleneck"), and the data-side still pays the full read-modify-write
//! to produce its delta.

use crate::{AckTable, LogRegion, ENTRY_HEADER};
use std::collections::{BTreeMap, VecDeque};
use tsue_ecfs::rangemap::RangeMap;
use tsue_ecfs::scheme::{
    reply_at, rmw_data_delta, send_at, stripe_parity_delta, Chunk, DeltaKind, SchemeMsg, UpdateReq,
};
use tsue_ecfs::{BlockId, Cluster, ClusterCore, UpdateScheme};
use tsue_sim::Sim;

/// Control tag: one parity-application of a drained entry completed.
const CTRL_APPLIED: u64 = 3;

/// A delta waiting because the collector is draining.
struct Queued {
    from: usize,
    block: BlockId,
    off: u64,
    data: Chunk,
    tag: u64,
}

/// The CoRD scheme state (per OSD).
pub struct Cord {
    acks: AckTable,
    /// Collector state: per global stripe, one XOR-folding interval map
    /// per *data block role* holding the raw (unscaled) deltas; parity
    /// scaling happens once, at drain time (Eq. 5).
    agg: BTreeMap<u64, std::collections::BTreeMap<usize, RangeMap>>,
    /// Buffer occupancy in (pre-aggregation) bytes.
    buffered: u64,
    /// The fixed buffer capacity — deliberately small (the bottleneck).
    pub capacity: u64,
    /// Collector persistence log.
    buf_log: LogRegion,
    /// True while a drain is in progress (appends must wait).
    draining: bool,
    /// Deltas parked behind the drain.
    queue: VecDeque<Queued>,
    /// Parity applications still in flight during a drain.
    drain_inflight: u64,
}

impl Default for Cord {
    fn default() -> Self {
        Self::new()
    }
}

impl Cord {
    /// Creates a CoRD instance with the fixed 4 MiB collector buffer.
    pub fn new() -> Self {
        Cord {
            acks: AckTable::default(),
            agg: BTreeMap::new(),
            buffered: 0,
            capacity: 4 << 20,
            buf_log: LogRegion::new(8 << 20, 6),
            draining: false,
            queue: VecDeque::new(),
            drain_inflight: 0,
        }
    }

    /// Folds one data delta into the per-parity aggregation maps and acks
    /// the data OSD once the buffer append persists.
    fn buffer_delta(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        q: Queued,
    ) {
        let m = core.cfg.stripe.m;
        let gstripe = core.global_stripe(q.block.file, q.block.stripe);
        // Fold the raw delta once; the payload moves in by refcount.
        let len = q.data.len;
        self.agg
            .entry(gstripe)
            .or_default()
            .entry(q.block.role)
            .or_default()
            .insert_xor(q.off, q.data);
        self.buffered += len + ENTRY_HEADER;
        // Persist the raw delta in the buffer log, charge the Eq. (5)
        // folding compute, then ack.
        let compute = core.gf_time(len * m as u64);
        let (t_persist, _) =
            self.buf_log
                .append(core, osd, sim.now() + compute, len + ENTRY_HEADER);
        let (from, tag) = (q.from, q.tag);
        reply_at(sim, t_persist, osd, from, SchemeMsg::Ack { tag });
        if self.buffered >= self.capacity {
            self.start_drain(core, sim, osd);
        }
    }

    /// Combines the buffered per-role deltas into one parity delta stream
    /// per parity (Eq. 5, one fused multiply-accumulate pass per
    /// contributing block), ships them to the parity owners, and blocks
    /// further appends until all applications ack back.
    fn start_drain(&mut self, core: &mut ClusterCore, sim: &mut Sim<Cluster>, osd: usize) {
        if self.draining {
            return;
        }
        self.draining = true;
        let k = core.cfg.stripe.k;
        let m = core.cfg.stripe.m;
        // Drain in stripe order: the aggregation map is ordered by global
        // stripe, so the send sequence (and thus NIC-lane timing) is the
        // same on every run.
        for (gstripe, roles) in std::mem::take(&mut self.agg) {
            // Reconstruct a BlockId for the parity block: stripe
            // coordinates are derivable from any block of the stripe;
            // file/stripe-local index come with the entry.
            let (file, stripe) = core.mds.locate_stripe(gstripe);
            let carrier = BlockId {
                file,
                stripe,
                role: 0,
            };
            // One entry shape for every parity; each parity's delta is a
            // recipe over the folded runs' handles, generated where the
            // parity owner applies it.
            let roles: Vec<(usize, &RangeMap)> = roles.iter().map(|(r, map)| (*r, map)).collect();
            let entries = stripe_parity_delta(&roles);
            for j in 0..m {
                let peer = core.owner_of(gstripe, k + j);
                for e in &entries {
                    self.drain_inflight += 1;
                    let msg = SchemeMsg::DeltaForward {
                        from: osd,
                        block: carrier,
                        off: e.off,
                        data: e.parity_delta(&core.rs, j),
                        kind: DeltaKind::ParityDelta,
                        parity_index: j,
                        tag: 0,
                    };
                    core.send_to_scheme(sim, osd, peer, e.len, msg);
                }
            }
        }
        self.buffered = 0;
        if self.drain_inflight == 0 {
            self.finish_drain(core, sim, osd);
        }
    }

    /// Drain complete: unblock the queue.
    fn finish_drain(&mut self, core: &mut ClusterCore, sim: &mut Sim<Cluster>, osd: usize) {
        self.draining = false;
        while let Some(q) = self.queue.pop_front() {
            self.buffer_delta(core, sim, osd, q);
            if self.draining {
                break; // buffering refilled the buffer and re-triggered
            }
        }
    }
}

impl UpdateScheme for Cord {
    fn on_update(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        req: UpdateReq,
    ) {
        // Data-side read-modify-write (CoRD does not remove it).
        let (t_rmw, delta) = rmw_data_delta(core, sim.now(), osd, req.block, req.off, &req.data);
        let gstripe = core.global_stripe(req.block.file, req.block.stripe);
        // One message to the collector instead of M to the parity owners.
        let collector = core.owner_of(gstripe, core.cfg.stripe.k);
        let tag = self.acks.register(req.op_id, 1);
        let msg = SchemeMsg::DeltaForward {
            from: osd,
            block: req.block,
            off: req.off,
            data: delta,
            kind: DeltaKind::DataDelta,
            parity_index: 0,
            tag,
        };
        send_at(sim, t_rmw, osd, collector, req.data.len, msg);
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
                kind: DeltaKind::DataDelta,
                tag,
                ..
            } => {
                // Collector side.
                let q = Queued {
                    from,
                    block,
                    off,
                    data,
                    tag,
                };
                if self.draining {
                    self.queue.push_back(q); // the bottleneck
                } else {
                    self.buffer_delta(core, sim, osd, q);
                }
            }
            SchemeMsg::DeltaForward {
                from,
                block,
                off,
                data,
                kind: DeltaKind::ParityDelta,
                parity_index,
                ..
            } => {
                // Parity owner applies the aggregated delta directly.
                let pblock = core.parity_block(block, parity_index);
                let t = core.xor_into_parity(osd, sim.now(), pblock, off, &data);
                let ctrl = SchemeMsg::Control {
                    from: osd,
                    tag: CTRL_APPLIED,
                    a: 0,
                    b: 0,
                };
                reply_at(sim, t, osd, from, ctrl);
            }
            SchemeMsg::Control { tag, .. } => {
                debug_assert_eq!(tag, CTRL_APPLIED);
                self.drain_inflight -= 1;
                if self.drain_inflight == 0 {
                    self.finish_drain(core, sim, osd);
                }
            }
            SchemeMsg::Ack { tag } => self.acks.on_ack(core, sim, osd, tag),
            // INVARIANT: the arms above cover every message kind a CoRD peer
            // sends; anything else is a routing bug.
            _ => unreachable!("CoRD exchanges DeltaForward/Control/Ack"),
        }
    }

    fn flush(&mut self, core: &mut ClusterCore, sim: &mut Sim<Cluster>, osd: usize) {
        let has_agg = self
            .agg
            .values()
            .any(|roles| roles.values().any(|m| !m.is_empty()));
        if (has_agg || !self.queue.is_empty()) && !self.draining {
            self.start_drain(core, sim, osd);
        }
    }

    fn backlog(&self) -> u64 {
        let agg_entries: u64 = self
            .agg
            .values()
            .flat_map(|roles| roles.values())
            .map(|m| m.len() as u64)
            .sum();
        agg_entries + self.queue.len() as u64 + self.drain_inflight + self.acks.outstanding() as u64
    }

    fn memory_usage(&self) -> u64 {
        // Raw deltas are buffered once per role (not m scaled copies).
        let agg: u64 = self
            .agg
            .values()
            .flat_map(|roles| roles.values())
            .map(|m| m.covered_bytes())
            .sum();
        agg + self.queue.iter().map(|q| q.data.len).sum::<u64>()
    }
}

//! FL — Full Logging (Azure/GFS style; paper §2.2).
//!
//! Every update is appended to a log — no in-place writes at all on the
//! synchronous path, so update latency is excellent. The paper's critique,
//! which this implementation reproduces:
//!
//! * the log consumes substantial space and must merge on *read* (reads
//!   not covered by the log pay device reads plus merge),
//! * a **single** log structure makes appending and recycling mutually
//!   exclusive: while a recycle storm runs, arriving updates queue.
//!
//! Parity owners log the forwarded data for durability; the data-side
//! recycle computes deltas (read-modify-write per logged range) and ships
//! parity deltas, after which parity owners drop their log copies.

use crate::{AckTable, LogRegion, ENTRY_HEADER};
use std::collections::{BTreeMap, VecDeque};
use tsue_ecfs::rangemap::RangeMap;
use tsue_ecfs::scheme::{
    reply_at, rmw_data_delta, send_at, DeltaKind, ReadServe, SchemeMsg, UpdateReq,
};
use tsue_ecfs::{BlockId, Cluster, ClusterCore, UpdateScheme};
use tsue_sim::Sim;

/// Control tag: a parity owner may discard its log copies for a block.
const CTRL_DISCARD: u64 = 4;
/// Timer tag: one recycle chain completed.
const TAG_RECYCLE_DONE: u64 = 5;

/// An update parked while the single log is recycling.
struct Waiting {
    req: UpdateReq,
}

/// The FL scheme state (per OSD).
pub struct Fl {
    acks: AckTable,
    /// Data-side single log: per-block newest-wins content.
    dlog: BTreeMap<BlockId, RangeMap>,
    log: LogRegion,
    log_bytes: u64,
    /// Recycle trigger.
    pub threshold: u64,
    /// Mutual exclusion: appends wait while recycling.
    recycling: bool,
    waiting: VecDeque<Waiting>,
    /// Parity-side mirrored data (for durability until discard).
    plog: BTreeMap<BlockId, RangeMap>,
    inflight: u64,
}

impl Default for Fl {
    fn default() -> Self {
        Self::new()
    }
}

impl Fl {
    /// Creates an FL instance (64 MiB threshold: FL logs whole data, so it
    /// fills much faster than parity-delta logs).
    pub fn new() -> Self {
        Fl {
            acks: AckTable::default(),
            dlog: BTreeMap::new(),
            log: LogRegion::new(256 << 20, 8),
            log_bytes: 0,
            threshold: 64 << 20,
            recycling: false,
            waiting: VecDeque::new(),
            plog: BTreeMap::new(),
            inflight: 0,
        }
    }

    fn append_update(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        req: UpdateReq,
    ) {
        let m = core.cfg.stripe.m;
        let gstripe = core.global_stripe(req.block.file, req.block.stripe);
        let len = req.data.len;
        // Local sequential append + index insert.
        let (t_append, _) = self.log.append(core, osd, sim.now(), len + ENTRY_HEADER);
        self.log_bytes += len + ENTRY_HEADER;
        self.dlog
            .entry(req.block)
            .or_default()
            .insert(req.off, req.data.clone());
        // Forward the data to every parity owner for durability.
        let tag = self.acks.register(req.op_id, m as u32);
        for j in 0..m {
            let peer = core.owner_of(gstripe, core.cfg.stripe.k + j);
            let msg = SchemeMsg::DataForward {
                from: osd,
                block: req.block,
                off: req.off,
                data: req.data.clone(),
                tag,
            };
            send_at(sim, t_append, osd, peer, len, msg);
        }
    }

    /// The mutually-exclusive recycle: merge every logged range into its
    /// data block (read-modify-write), ship parity deltas, and tell parity
    /// owners to discard their copies.
    fn start_recycle(&mut self, core: &mut ClusterCore, sim: &mut Sim<Cluster>, osd: usize) {
        if self.recycling {
            return;
        }
        self.recycling = true;
        let now = sim.now();
        let m = core.cfg.stripe.m;
        let blocks: Vec<BlockId> = self.dlog.keys().copied().collect();
        for block in blocks {
            let gstripe = core.global_stripe(block.file, block.stripe);
            // INVARIANT: `block` came from `dlog.keys()` just above, and
            // entries are only removed by this loop.
            let map = self.dlog.remove(&block).expect("key exists");
            for run in map.iter() {
                let (off, newest) = (run.off(), run.chunk());
                let len = newest.len;
                // RMW the data block: read old, delta, write merged.
                let (t_write, delta) = rmw_data_delta(core, now, osd, block, off, &newest);
                // Parity deltas to every parity owner.
                let t_send = t_write + core.gf_time(len * m as u64);
                for j in 0..m {
                    let peer = core.owner_of(gstripe, core.cfg.stripe.k + j);
                    let pd = delta.gf_scaled(core.rs.coefficient(j, block.role));
                    self.inflight += 1;
                    let msg = SchemeMsg::DeltaForward {
                        from: osd,
                        block,
                        off,
                        data: pd,
                        kind: DeltaKind::ParityDelta,
                        parity_index: j,
                        tag: TAG_RECYCLE_DONE,
                    };
                    send_at(sim, t_send, osd, peer, len, msg);
                }
            }
        }
        self.log_bytes = 0;
        if self.inflight == 0 {
            self.finish_recycle(core, sim, osd);
        }
    }

    fn finish_recycle(&mut self, core: &mut ClusterCore, sim: &mut Sim<Cluster>, osd: usize) {
        self.recycling = false;
        while let Some(w) = self.waiting.pop_front() {
            self.append_update(core, sim, osd, w.req);
            if self.recycling {
                break;
            }
        }
    }
}

impl UpdateScheme for Fl {
    fn on_update(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        req: UpdateReq,
    ) {
        if self.recycling {
            // The single log is busy: the paper's mutual-exclusion stall.
            self.waiting.push_back(Waiting { req });
            return;
        }
        self.append_update(core, sim, osd, req);
        if self.log_bytes > self.threshold {
            self.start_recycle(core, sim, osd);
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
            } => {
                // Parity-side durability append.
                let len = data.len;
                let (t_append, _) = self.log.append(core, osd, sim.now(), len + ENTRY_HEADER);
                self.plog.entry(block).or_default().insert(off, data);
                reply_at(sim, t_append, osd, from, SchemeMsg::Ack { tag });
            }
            SchemeMsg::DeltaForward {
                from,
                block,
                off,
                data,
                parity_index,
                ..
            } => {
                // Recycle-time parity application.
                let pblock = core.parity_block(block, parity_index);
                let t = core.xor_into_parity(osd, sim.now(), pblock, off, &data);
                // Applied: drop the durability copy and notify the data
                // side that one application finished.
                self.plog.remove(&block);
                let ctrl = SchemeMsg::Control {
                    from: osd,
                    tag: CTRL_DISCARD,
                    a: 0,
                    b: 0,
                };
                reply_at(sim, t, osd, from, ctrl);
            }
            SchemeMsg::Control { tag, .. } => {
                debug_assert_eq!(tag, CTRL_DISCARD);
                self.inflight -= 1;
                if self.inflight == 0 && self.recycling {
                    self.finish_recycle(core, sim, osd);
                }
            }
            SchemeMsg::Ack { tag } => self.acks.on_ack(core, sim, osd, tag),
        }
    }

    fn read_overlay(
        &mut self,
        _core: &mut ClusterCore,
        _osd: usize,
        block: BlockId,
        off: u64,
        len: u64,
        buf: Option<&mut [u8]>,
    ) -> ReadServe {
        // FL reads must consult the log; full coverage avoids the device.
        match self.dlog.get(&block) {
            Some(map) if map.overlay(off, len, buf) => ReadServe::CacheHit,
            _ => ReadServe::Miss,
        }
    }

    fn flush(&mut self, core: &mut ClusterCore, sim: &mut Sim<Cluster>, osd: usize) {
        if !self.dlog.is_empty() || !self.waiting.is_empty() {
            self.start_recycle(core, sim, osd);
        }
    }

    fn backlog(&self) -> u64 {
        let logged: u64 = self.dlog.values().map(|m| m.len() as u64).sum();
        logged + self.waiting.len() as u64 + self.inflight + self.acks.outstanding() as u64
    }

    fn memory_usage(&self) -> u64 {
        let d: u64 = self.dlog.values().map(|m| m.covered_bytes()).sum();
        let p: u64 = self.plog.values().map(|m| m.covered_bytes()).sum();
        d + p
    }
}

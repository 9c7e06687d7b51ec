//! PL — Parity Logging (Stodolsky et al., ISCA '93; paper §2.2).
//!
//! Data blocks are still updated in place (the costly read-modify-write
//! stays on the synchronous path), but parity deltas are *appended* to a
//! per-OSD parity log instead of applied in place. Appends are sequential
//! and cheap, so PL is the strongest baseline for update throughput. The
//! price: the log is recycled lazily (on a space threshold), every logged
//! delta is applied individually with random reads at recycle time, and a
//! failure before recycling stalls recovery behind a recycle storm — the
//! consistency issue §2.3.2 highlights.

use crate::{
    forward_parity_deltas, recycle_done, track_recycle, AckTable, LogRegion, ENTRY_HEADER,
    LOG_INDEX_ENTRY,
};
use tsue_ecfs::scheme::{reply_at, Chunk, SchemeMsg, UpdateReq};
use tsue_ecfs::{BlockId, Cluster, ClusterCore, UpdateScheme};
use tsue_sim::Sim;

/// One logged parity delta awaiting recycle.
struct PlEntry {
    pblock: BlockId,
    off: u64,
    data: Chunk,
    dev_off: u64,
}

/// The PL scheme state (per OSD).
pub struct Pl {
    acks: AckTable,
    log: LogRegion,
    entries: Vec<PlEntry>,
    log_bytes: u64,
    /// Recycle trigger: log bytes before a drain starts.
    pub threshold: u64,
    inflight: u64,
}

impl Default for Pl {
    fn default() -> Self {
        Self::new()
    }
}

impl Pl {
    /// Creates a PL instance with the paper-faithful lazy threshold
    /// (256 MiB per OSD — "extensive parity log space allows recycling to
    /// be indefinitely delayed").
    pub fn new() -> Self {
        Pl {
            acks: AckTable::default(),
            log: LogRegion::new(512 << 20, 0),
            entries: Vec::new(),
            log_bytes: 0,
            threshold: 256 << 20,
            inflight: 0,
        }
    }

    /// Drains every logged entry: random log read, parity RMW, in append
    /// order (XOR telescopes, so order only matters per location — append
    /// order satisfies it).
    fn start_recycle(&mut self, core: &mut ClusterCore, sim: &mut Sim<Cluster>, osd: usize) {
        let now = sim.now();
        for e in self.entries.drain(..) {
            let t_read = self
                .log
                .read(core, osd, now, e.dev_off, e.data.len + ENTRY_HEADER);
            let t_done = core.xor_into_parity(osd, t_read, e.pblock, e.off, &e.data);
            track_recycle(&mut self.inflight, core, sim, osd, t_done);
        }
        self.log_bytes = 0;
    }
}

impl UpdateScheme for Pl {
    fn on_update(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        req: UpdateReq,
    ) {
        // Same synchronous front half as FO; the policy is in `on_message`.
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
                // Sequential append to the parity log; ack immediately
                // after the append persists.
                let len = data.len;
                let (t_append, dev_off) = self.log.append(core, osd, sim.now(), len + ENTRY_HEADER);
                self.entries.push(PlEntry {
                    pblock: core.parity_block(block, parity_index),
                    off,
                    data,
                    dev_off,
                });
                self.log_bytes += len + ENTRY_HEADER;
                reply_at(sim, t_append, osd, from, SchemeMsg::Ack { tag });
                if self.log_bytes > self.threshold {
                    self.start_recycle(core, sim, osd);
                }
            }
            SchemeMsg::Ack { tag } => self.acks.on_ack(core, sim, osd, tag),
            // INVARIANT: the arms above cover every message kind a PL peer
            // sends; anything else is a routing bug.
            _ => unreachable!("PL exchanges only DeltaForward/Ack"),
        }
    }

    fn on_timer(&mut self, _: &mut ClusterCore, _: &mut Sim<Cluster>, _osd: usize, tag: u64) {
        recycle_done(&mut self.inflight, tag);
    }

    fn flush(&mut self, core: &mut ClusterCore, sim: &mut Sim<Cluster>, osd: usize) {
        if !self.entries.is_empty() {
            self.start_recycle(core, sim, osd);
        }
    }

    fn backlog(&self) -> u64 {
        self.entries.len() as u64 + self.inflight + self.acks.outstanding() as u64
    }

    fn memory_usage(&self) -> u64 {
        // Log content is on disk; memory holds only the entry index.
        self.entries.len() as u64 * LOG_INDEX_ENTRY
    }
}

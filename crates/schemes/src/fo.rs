//! FO — Full Overwrite (Aguilera et al., DSN '05; paper §2.2).
//!
//! Every update is applied in place, end to end, before the client sees an
//! ack: read-modify-write on the data block, a parity delta per parity
//! block, and a read-modify-write on every parity block. No logs, no
//! deferred work — the longest update path of all schemes, entirely made of
//! small random I/O, but recovery-ready at every instant.

use crate::{forward_parity_deltas, AckTable};
use tsue_ecfs::scheme::{reply_at, SchemeMsg, UpdateReq};
use tsue_ecfs::{Cluster, ClusterCore, UpdateScheme};
use tsue_sim::Sim;

/// The FO scheme state (per OSD).
#[derive(Default)]
pub struct Fo {
    acks: AckTable,
}

impl Fo {
    /// Creates a fresh instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl UpdateScheme for Fo {
    fn on_update(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        req: UpdateReq,
    ) {
        // In-place data RMW, then one parity delta per parity block.
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
                // In-place parity RMW, then ack the data OSD.
                let pblock = core.parity_block(block, parity_index);
                let t = core.xor_into_parity(osd, sim.now(), pblock, off, &data);
                reply_at(sim, t, osd, from, SchemeMsg::Ack { tag });
            }
            SchemeMsg::Ack { tag } => self.acks.on_ack(core, sim, osd, tag),
            // INVARIANT: the arms above cover every message kind an FO peer
            // sends; anything else is a routing bug.
            _ => unreachable!("FO exchanges only DeltaForward/Ack"),
        }
    }

    fn flush(&mut self, _core: &mut ClusterCore, _sim: &mut Sim<Cluster>, _osd: usize) {
        // Fully synchronous: nothing is ever deferred.
    }

    fn backlog(&self) -> u64 {
        0
    }
}

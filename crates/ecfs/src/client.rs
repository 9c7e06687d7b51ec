//! Closed-loop trace-replay clients.
//!
//! Each client owns one pre-populated file and replays a seeded workload
//! against it: issue one op, wait for every extent to be acknowledged,
//! issue the next — the paper's aggregate-IOPS methodology with 4–64
//! concurrent clients.

use crate::osd::BlockId;
use crate::scheme::{deliver_read, deliver_update, UpdateReq};
use crate::{payload_chunk, Cluster, FileId};
use tsue_net::NodeId;
use tsue_sim::Sim;
use tsue_trace::{OpKind, TraceGen, WorkloadProfile};

/// One closed-loop client.
pub struct ClientState {
    /// Client index.
    pub id: usize,
    /// Network node id.
    pub node: NodeId,
    /// The file this client updates.
    pub file: FileId,
    /// Workload source (installed by [`Cluster::set_workload`]).
    pub gen: Option<TraceGen>,
    /// Set when the client has stopped issuing.
    pub stopped: bool,
    /// Ops issued so far.
    pub ops_issued: u64,
    /// Optional issue budget (tests); `None` = run until `stop_at`.
    pub max_ops: Option<u64>,
    seed: u64,
}

impl ClientState {
    /// Creates a client bound to `file`; the workload is installed later.
    pub fn new(id: usize, node: NodeId, file: FileId, seed: u64) -> Self {
        ClientState {
            id,
            node,
            file,
            gen: None,
            stopped: false,
            ops_issued: 0,
            max_ops: None,
            seed,
        }
    }
}

impl Cluster {
    /// Installs the same workload profile on every client (per-client
    /// seeds keep their streams distinct but deterministic).
    pub fn set_workload(&mut self, profile: &WorkloadProfile) {
        let volume = self.core.cfg.file_size_per_client;
        for c in &mut self.core.clients {
            c.gen = Some(TraceGen::new(profile.clone(), volume, c.seed));
            c.stopped = false;
        }
    }

    /// Installs a recorded trace (e.g. a parsed MSR/Ali CSV) on every
    /// client; each client starts at a different phase of the recording.
    ///
    /// # Panics
    /// Panics if `ops` is empty or exceeds the per-client volume.
    pub fn set_replay(&mut self, ops: &[tsue_trace::TraceOp]) {
        let volume = self.core.cfg.file_size_per_client;
        let stride = (ops.len() / self.core.clients.len().max(1)).max(1);
        for (i, c) in self.core.clients.iter_mut().enumerate() {
            c.gen = Some(TraceGen::from_ops(ops.to_vec(), volume, i * stride));
            c.stopped = false;
        }
    }
}

/// Kicks every idle client into its issue loop.
pub fn start_clients(world: &mut Cluster, sim: &mut Sim<Cluster>) {
    for cid in 0..world.core.clients.len() {
        client_issue(world, sim, cid);
    }
}

/// Issues the next operation of client `cid`, dispatching its extents to
/// the owning OSDs.
pub fn client_issue(world: &mut Cluster, sim: &mut Sim<Cluster>, cid: usize) {
    let now = sim.now();
    let core = &mut world.core;
    if core.clients[cid].stopped {
        return;
    }
    if !core.accepting(now)
        || core.clients[cid]
            .max_ops
            .is_some_and(|m| core.clients[cid].ops_issued >= m)
    {
        core.clients[cid].stopped = true;
        return;
    }

    let file = core.clients[cid].file;
    let op = core.clients[cid]
        .gen
        .as_mut()
        // INVARIANT: the driver installs a generator on every client
        // (set_workload) before the first issue event is scheduled.
        .expect("workload not installed — call set_workload first")
        .next_op();
    core.clients[cid].ops_issued += 1;

    let is_write = op.kind == OpKind::Write;
    if is_write {
        // Maintain the MDS page bitmap; pre-populated files always classify
        // as updates, matching the paper's replay setup.
        let _ = core.mds.classify_write(file, op.offset, op.len);
    }

    let extents = core.cfg.stripe.split_range(op.offset, op.len);
    let op_id = core.pending.insert(cid, extents.len(), now, is_write);
    let client_node = core.clients[cid].node;
    // Span start: the MDS map above is charged zero time by the model.
    core.metrics.obs.op_issued(op_id, client_node, now);

    for (ext_idx, e) in extents.into_iter().enumerate() {
        let gstripe = core.global_stripe(file, e.addr.stripe);
        let owner = core.owner_of(gstripe, e.addr.block);
        let owner_node = core.osds[owner].node;
        let block = BlockId {
            file,
            stripe: e.addr.stripe,
            role: e.addr.block,
        };
        if is_write && !core.mds.is_alive(owner) {
            // Degraded write: the block's home is dead and not yet
            // rebuilt. The extent is parked in the degraded-write journal
            // (shipped to a surviving peer) and acked once durable; the
            // recovery/re-sync engines replay it into the rebuilt or
            // healed block, so acked writes survive the failure window.
            crate::journal::park_degraded_write(
                core,
                sim,
                op_id,
                ext_idx,
                block,
                e.addr.offset,
                e.len,
                None,
                client_node,
            );
        } else if is_write {
            // Generated where it is read: TSUE's seal-time capture, or
            // a baseline's write on arrival.
            let data = payload_chunk(op_id, ext_idx, e.len, core.cfg.materialize);
            // The fabric model accounts lengths only — the payload buffer
            // itself moves by refcount, never serialized into a copy.
            let arrival = core.net.transfer(now, client_node, owner_node, e.len);
            let req = UpdateReq {
                op_id,
                ext: ext_idx,
                block,
                off: e.addr.offset,
                data,
            };
            sim.schedule_at(arrival, move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
                deliver_update(w, sim, owner, req);
            });
        } else if core.mds.is_alive(owner) {
            let (off, len) = (e.addr.offset, e.len);
            let arrival = core
                .net
                .transfer(now, client_node, owner_node, crate::ACK_BYTES);
            sim.schedule_at(arrival, move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
                deliver_read(w, sim, owner, op_id, block, off, len);
            });
        } else {
            // Degraded read: the owner is dead, so fetch the same byte
            // range from k surviving blocks of the stripe and decode at
            // the client (RS codewords are positional, so ranges align).
            degraded_read(core, sim, cid, op_id, gstripe, block, e.addr.offset, e.len);
        }
    }
}

/// Re-dispatches a read whose owner died while the request was on the
/// wire: after the failover timeout the client retries it as a regular
/// degraded read (survivor range-reads + decode). No-op when the op was
/// already reaped.
pub(crate) fn retry_degraded_read(
    world: &mut Cluster,
    sim: &mut Sim<Cluster>,
    op_id: u64,
    block: BlockId,
    off: u64,
    len: u64,
) {
    let Some(cid) = world.core.pending.client_of(op_id) else {
        return;
    };
    let gstripe = world.core.global_stripe(block.file, block.stripe);
    degraded_read(&mut world.core, sim, cid, op_id, gstripe, block, off, len);
}

/// Serves a read extent whose owner is dead: range reads from `k` live
/// blocks of the stripe, transfers to the client, and a decode — the
/// degraded-read path every erasure-coded file system must provide.
#[allow(clippy::too_many_arguments)] // one parameter per field of the op descriptor
fn degraded_read(
    core: &mut crate::ClusterCore,
    sim: &mut Sim<Cluster>,
    cid: usize,
    op_id: u64,
    gstripe: u64,
    block: BlockId,
    off: u64,
    len: u64,
) {
    let k = core.cfg.stripe.k;
    let sources: Vec<(usize, usize)> = (0..core.cfg.stripe.blocks_per_stripe())
        .filter(|&role| role != block.role)
        .map(|role| (role, core.owner_of(gstripe, role)))
        .filter(|&(_, owner)| core.mds.is_alive(owner))
        .take(k)
        .collect();
    let client_node = core.clients[cid].node;
    let done = core.charge_decode(sim.now(), block, &sources, off, len, client_node);
    if sources.len() < k {
        // Correlated failure beyond the code's tolerance: the range is
        // unreadable until (unless) more nodes heal. The op completes
        // with an error after the failover timeout — data-loss windows
        // must not wedge the client loop.
        core.metrics.failed_reads += 1;
        crate::fail_over_ack(sim, op_id);
        return;
    }
    core.metrics.degraded_reads += 1;
    sim.schedule_at(done, move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
        client_ack(w, sim, op_id);
    });
}

/// An extent acknowledgement reached the client; when the whole op is
/// complete, record it and issue the next one.
pub fn client_ack(world: &mut Cluster, sim: &mut Sim<Cluster>, op_id: u64) {
    let finished = world.core.pending.complete_extent(op_id);
    if let Some(op) = finished {
        world.core.metrics.record_completion(&op, op_id, sim.now());
        client_issue(world, sim, op.client);
    }
}

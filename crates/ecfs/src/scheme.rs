//! The pluggable update-scheme interface and its event plumbing.
//!
//! A scheme instance lives on each OSD and implements the *update path* of
//! the file system: what happens when an update extent lands on the data
//! block's owner, how deltas reach parity owners, how logs are recycled,
//! and how reads see not-yet-merged log content. All cross-OSD interaction
//! goes through [`SchemeMsg`]s delivered by the DES after modeled network
//! transfers; all device access goes through the owning OSD's device model.
//! This is exactly the surface the paper says its six implementations share
//! (§5: "implemented on the CLIENT side and the OSD side").

use crate::osd::BlockId;
use crate::rangemap::{Gathered, RangeMap};
use crate::{client, Cluster, ClusterCore, Mds, ACK_BYTES};
use std::collections::BTreeMap;
use tsue_buf::{Bytes, BytesMut};
use tsue_device::IoKind;
use tsue_ec::RsCode;
use tsue_sim::{IdWindow, Sim, Time};

/// A byte payload that may be timing-only. In materialized (correctness)
/// runs chunks carry real bytes; in performance runs only the length.
///
/// Payload bytes are [`Bytes`] — `Arc`-backed shared buffers — so cloning
/// a chunk (forwarding it over the network, folding it into a log index,
/// collecting recycle jobs) bumps a refcount instead of copying, and
/// sub-range extraction ([`Chunk::slice`]) is O(1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chunk {
    /// Payload length in bytes.
    pub len: u64,
    /// The bytes, when the cluster materializes data.
    pub bytes: Option<Bytes>,
}

impl Chunk {
    /// A timing-only chunk.
    pub fn ghost(len: u64) -> Self {
        Chunk { len, bytes: None }
    }

    /// A materialized chunk.
    ///
    /// # Panics
    /// Panics if `bytes` is empty (zero-length extents are a bug upstream).
    pub fn real(bytes: impl Into<Bytes>) -> Self {
        let bytes = bytes.into();
        assert!(!bytes.is_empty(), "empty chunk");
        Chunk {
            len: bytes.len() as u64,
            bytes: Some(bytes),
        }
    }

    /// O(1) sub-chunk `[rel, rel + len)` sharing the backing buffer.
    ///
    /// # Panics
    /// Panics if the range exceeds the chunk.
    pub fn slice(&self, rel: u64, len: u64) -> Chunk {
        debug_assert!(rel + len <= self.len, "chunk slice out of range");
        match &self.bytes {
            Some(b) => Chunk::real(b.slice(rel as usize, len as usize)),
            None => Chunk::ghost(len),
        }
    }

    /// XORs `other` into this chunk (delta folding); ghost chunks fold into
    /// ghost chunks. Folds in place when this chunk owns its buffer
    /// uniquely; a shared buffer triggers one copy-on-write.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn xor_in(&mut self, other: &Chunk) {
        assert_eq!(self.len, other.len, "chunk length mismatch");
        match (self.bytes.as_mut(), other.bytes.as_ref()) {
            (Some(a), Some(b)) => {
                if let Some(buf) = a.unique_mut() {
                    tsue_gf::xor_slice(b, buf);
                } else {
                    // Copy-on-write: one new buffer, one fused pass
                    // (counted — the shared buffer forced a duplication).
                    let mut m = BytesMut::take(b.len());
                    tsue_gf::xor_into(a, b, m.as_mut());
                    tsue_buf::count_copy(b.len() as u64);
                    *a = m.freeze();
                }
            }
            _ => self.bytes = None,
        }
    }

    /// Returns a GF-scaled copy: `coeff * self` (parity-delta computation).
    /// The result lives in a new buffer.
    pub fn gf_scaled(&self, coeff: u8) -> Chunk {
        match &self.bytes {
            Some(b) => {
                let mut out = BytesMut::take(b.len());
                tsue_gf::mul_slice(coeff, b, out.as_mut());
                Chunk::real(out.freeze())
            }
            None => Chunk::ghost(self.len),
        }
    }

    /// Consuming GF scale: scales in place when the buffer is uniquely
    /// owned (zero scratch), else behaves like [`Chunk::gf_scaled`].
    pub fn into_gf_scaled(mut self, coeff: u8) -> Chunk {
        if let Some(b) = self.bytes.as_mut() {
            if let Some(buf) = b.unique_mut() {
                tsue_gf::mul_slice_assign(coeff, buf);
                return self;
            }
        }
        self.gf_scaled(coeff)
    }
}

/// An update extent as it arrives at the data block's OSD.
#[derive(Clone, Debug)]
pub struct UpdateReq {
    /// The in-flight client op this extent belongs to.
    pub op_id: u64,
    /// Index of the extent within the op (payload derivation).
    pub ext: usize,
    /// Target data block (role < k).
    pub block: BlockId,
    /// Offset within the block.
    pub off: u64,
    /// New data.
    pub data: Chunk,
}

/// What kind of delta a [`SchemeMsg::DeltaForward`] carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaKind {
    /// `D_new ⊕ D_old` — multiply by the coefficient at the parity side.
    DataDelta,
    /// Already multiplied: XOR straight into the parity block/log.
    ParityDelta,
}

/// Messages exchanged between scheme instances on different OSDs.
#[derive(Clone, Debug)]
pub enum SchemeMsg {
    /// Raw new data forwarded to a peer (PARIX speculative writes, TSUE
    /// data-log replication payloads).
    DataForward {
        /// Sending OSD (for replies).
        from: usize,
        /// Data block the payload belongs to.
        block: BlockId,
        /// Offset within the block.
        off: u64,
        /// The payload.
        data: Chunk,
        /// Scheme-specific discriminator.
        tag: u64,
    },
    /// A delta destined for parity handling.
    DeltaForward {
        /// Sending OSD (for replies).
        from: usize,
        /// Data block the delta originated from.
        block: BlockId,
        /// Offset within the block.
        off: u64,
        /// Delta bytes.
        data: Chunk,
        /// Data-delta vs parity-delta.
        kind: DeltaKind,
        /// Which parity index (0..m) this is addressed to.
        parity_index: usize,
        /// Scheme-specific discriminator.
        tag: u64,
    },
    /// Positive acknowledgement carrying an opaque tag.
    Ack {
        /// Correlates with the request that asked for the ack.
        tag: u64,
    },
    /// Scheme-specific control signal.
    Control {
        /// Sending OSD (for replies).
        from: usize,
        /// Discriminator.
        tag: u64,
        /// Payload word A.
        a: u64,
        /// Payload word B.
        b: u64,
    },
}

/// Outcome of one power-loss restart at an OSD (log-tail tear + scan +
/// replay) — see [`UpdateScheme::power_loss`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PowerLossReport {
    /// Torn in-flight log appends detected by the restart scan.
    pub torn_detected: u64,
    /// Torn appends replayed byte-exactly from a surviving replica.
    pub torn_replayed: u64,
    /// Torn appends discarded for want of a replica (acked data lost).
    pub torn_discarded: u64,
}

impl PowerLossReport {
    /// Merges another report's counts into this one.
    pub fn merge(&mut self, other: PowerLossReport) {
        self.torn_detected += other.torn_detected;
        self.torn_replayed += other.torn_replayed;
        self.torn_discarded += other.torn_discarded;
    }
}

/// One record that a dead OSD's replicated data log still owes a block
/// — see [`UpdateScheme::unmerged_extents`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OwedExtent {
    /// Offset in the block.
    pub off: u64,
    /// Length in bytes.
    pub len: u64,
    /// The live peer whose copy the rebuild reads the record back from.
    pub src: usize,
}

/// Result of asking a scheme to overlay a read from its logs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadServe {
    /// The log/cache fully covered the range: no device read needed.
    CacheHit,
    /// Device read required (overlay, if any, was partial).
    Miss,
}

/// The update-scheme interface.
///
/// One instance per OSD. Methods receive the shared [`ClusterCore`] (all
/// devices, network, MDS — everything except other schemes) and the DES
/// handle for scheduling continuations. A test that inspects a concrete
/// scheme upcasts to [`std::any::Any`] and downcasts from there.
pub trait UpdateScheme: std::any::Any {
    /// An update extent arrived at this OSD (which owns `req.block`).
    /// The scheme must eventually call `core.extent_done(sim, osd, req.op_id)`
    /// exactly once — that is the client-visible completion.
    fn on_update(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        req: UpdateReq,
    );

    /// A peer scheme's message arrived over the network.
    fn on_message(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        msg: SchemeMsg,
    );

    /// A timer armed via `core.scheme_timer` fired.
    fn on_timer(
        &mut self,
        _core: &mut ClusterCore,
        _sim: &mut Sim<Cluster>,
        _osd: usize,
        _tag: u64,
    ) {
    }

    /// Overlays any newer log content onto a read of
    /// `[off, off+len)` of `block`. `buf`, when present, already holds the
    /// store content and must be patched in place.
    fn read_overlay(
        &mut self,
        _core: &mut ClusterCore,
        _osd: usize,
        _block: BlockId,
        _off: u64,
        _len: u64,
        _buf: Option<&mut [u8]>,
    ) -> ReadServe {
        ReadServe::Miss
    }

    /// Kicks off draining of all pending log state toward data/parity
    /// blocks. Called repeatedly until [`Self::backlog`] reaches zero.
    fn flush(&mut self, core: &mut ClusterCore, sim: &mut Sim<Cluster>, osd: usize);

    /// Outstanding units of work (log entries, unmerged deltas, in-flight
    /// recycles). Zero means every block/parity is fully merged on disk.
    fn backlog(&self) -> u64;

    /// Bytes of memory the scheme currently pins (log buffers + indexes).
    fn memory_usage(&self) -> u64 {
        0
    }

    /// A power loss hit this OSD mid-append: the scheme's newest
    /// in-flight log record is torn at a pseudo-random byte offset
    /// (derived from `seed`), the node restarts, and the restart log
    /// scan classifies the tail as torn — never as a verified-but-wrong
    /// read. Torn appends are replayed byte-exactly from a surviving
    /// log replica when one exists, or discarded (counted) when not.
    ///
    /// The default suits schemes with no buffered log tail: in-place
    /// writers lose at most a write the client was never acked for, so
    /// there is nothing to tear. The node stays alive — a power loss is
    /// a restart, not a [`crate::fail_node`] kill.
    fn power_loss(
        &mut self,
        _core: &mut ClusterCore,
        _sim: &mut Sim<Cluster>,
        _osd: usize,
        _seed: u64,
    ) -> PowerLossReport {
        PowerLossReport::default()
    }

    /// What this scheme's *replicated* data log still owes `block`, for
    /// a rebuild after this OSD died: one [`OwedExtent`] per record in a
    /// log unit that has not finished recycling and whose copy a peer
    /// still holds (alive in `mds`, and not failed since the forward),
    /// oldest unit first, each naming that peer. With
    /// `buf` (the whole block, in materialized runs) their bytes are
    /// patched in as well, newest content the rebuilt block can have
    /// winning. Records no live peer holds are owed nothing: they were
    /// lost with the node. Charges nothing and touches no read-path
    /// statistics (see [`crate::recovery`]). Schemes that keep no data
    /// log, or no peer copy of it, owe nothing and use this default.
    fn unmerged_extents(
        &self,
        _mds: &Mds,
        _block: BlockId,
        _buf: Option<&mut [u8]>,
    ) -> Vec<OwedExtent> {
        Vec::new()
    }

    /// Drops whatever this scheme's log still holds for `block`, once a
    /// rebuild has made the copy elsewhere authoritative: what was owed
    /// is replayed, the rest died with the node. A node that rejoins then
    /// replays none of it twice and serves none of it from a read cache.
    fn forget_block(&mut self, _block: BlockId) {}
}

/// Event shim: deliver an update extent to the owning OSD's scheme.
pub fn deliver_update(world: &mut Cluster, sim: &mut Sim<Cluster>, osd: usize, req: UpdateReq) {
    let gstripe = world.core.global_stripe(req.block.file, req.block.stripe);
    let cur = world.core.owner_of(gstripe, req.block.role);
    if cur != osd {
        // Ownership moved while the extent was on the wire — the block
        // was rebuilt elsewhere (rehome) or handed back to its healed
        // home (reclaim). Forward to the current owner: one extra hop,
        // and re-evaluated on arrival in case ownership moves again.
        let now = sim.now();
        let arrival = world.core.net.transfer(
            now,
            world.core.osds[osd].node,
            world.core.osds[cur].node,
            req.data.len,
        );
        sim.schedule_at(arrival, move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
            deliver_update(w, sim, cur, req);
        });
        return;
    }
    if world.core.mds.is_alive(osd)
        && world
            .core
            .recovery
            .stripe_fenced(&req.block, world.core.cfg.stripe.blocks_per_stripe())
    {
        // A sibling of this stripe is being rebuilt. Admitting the write
        // now could tear the rebuild's data/parity cut (its parity delta
        // might still be on the wire at decode time), so the extent waits
        // out the rebuild — the stripe-level write fence every online
        // reconstruction needs. Timing-only runs fence too, so both modes
        // model the same system.
        sim.schedule(
            crate::FAILOVER_DELAY,
            move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
                deliver_update(w, sim, osd, req);
            },
        );
        return;
    }
    if !world.core.mds.is_alive(osd) {
        // The owner died while the extent was on the wire. The client
        // re-ships the payload to the degraded-write journal (acked once
        // durable); recovery or re-sync replays it into the block later.
        let Some(client) = world.core.pending.client_of(req.op_id) else {
            // Reaped by the failover watchdog meanwhile: nobody is
            // waiting, and a reaped op was completed as a timeout error,
            // so there is nothing durable to honor.
            world.core.metrics.degraded_writes += 1;
            return;
        };
        let client_node = world.core.client_node(client);
        crate::journal::park_degraded_write(
            &mut world.core,
            sim,
            req.op_id,
            req.ext,
            req.block,
            req.off,
            req.data.len,
            Some(req.data),
            client_node,
        );
        return;
    }
    if world.core.cfg.record_arrivals {
        world
            .core
            .metrics
            .record_arrival(req.op_id, req.ext, req.block, req.off, req.data.len);
    }
    world.core.metrics.extents_received += 1;
    if let Some(issued) = world.core.pending.issued_at(req.op_id) {
        world
            .core
            .metrics
            .obs
            .update_arrival(req.op_id, osd, issued, sim.now());
    }
    world.schemes[osd].on_update(&mut world.core, sim, osd, req);
}

/// Event shim: deliver a peer message to an OSD's scheme. Tagged
/// messages addressed to a dead OSD bounce as a NACK: the sender's ack
/// accounting completes (the stripe simply stays degraded until rebuilt)
/// instead of wedging the sender's in-flight state forever — the moral
/// equivalent of a connection-refused failover in the real system.
pub fn deliver_msg(world: &mut Cluster, sim: &mut Sim<Cluster>, osd: usize, msg: SchemeMsg) {
    if !world.core.mds.is_alive(osd) {
        if let SchemeMsg::DeltaForward {
            block,
            kind,
            parity_index,
            ..
        } = &msg
        {
            // A parity-bound delta died with the destination: some
            // parity no longer reflects its data. A ParityDelta is
            // addressed to exactly one parity role; a DataDelta feeds an
            // aggregation stage (CoRD's collector, TSUE's DeltaLog) that
            // fans out to every parity, so its loss may starve them all.
            // Heal-time re-sync re-encodes dirty parity from the data.
            let gstripe = world.core.global_stripe(block.file, block.stripe);
            let k = world.core.cfg.stripe.k;
            match kind {
                DeltaKind::ParityDelta => {
                    world.core.mds.mark_parity_dirty(gstripe, k + parity_index);
                }
                DeltaKind::DataDelta => {
                    for j in 0..world.core.cfg.stripe.m {
                        world.core.mds.mark_parity_dirty(gstripe, k + j);
                    }
                }
            }
        }
        let bounce = match &msg {
            SchemeMsg::DataForward { from, tag, .. }
            | SchemeMsg::DeltaForward { from, tag, .. }
            | SchemeMsg::Control { from, tag, .. } => Some((*from, *tag)),
            SchemeMsg::Ack { .. } => None,
        };
        if let Some((from, tag)) = bounce {
            sim.schedule(
                crate::FAILOVER_DELAY,
                move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
                    deliver_msg(w, sim, from, SchemeMsg::Ack { tag });
                },
            );
        }
        return;
    }
    world.schemes[osd].on_message(&mut world.core, sim, osd, msg);
}

/// Event shim: deliver a timer tick to an OSD's scheme.
pub fn deliver_timer(world: &mut Cluster, sim: &mut Sim<Cluster>, osd: usize, tag: u64) {
    if !world.core.mds.is_alive(osd) {
        return;
    }
    world.schemes[osd].on_timer(&mut world.core, sim, osd, tag);
}

/// Event shim: serve a read extent at the owning OSD, consulting the
/// scheme's log overlay, then reply to the client.
pub fn deliver_read(
    world: &mut Cluster,
    sim: &mut Sim<Cluster>,
    osd: usize,
    op_id: u64,
    block: BlockId,
    off: u64,
    len: u64,
) {
    let gstripe = world.core.global_stripe(block.file, block.stripe);
    let cur = world.core.owner_of(gstripe, block.role);
    if cur != osd {
        // Ownership moved while the request was on the wire (rehome or
        // heal-time reclaim): forward to the current owner.
        let arrival = world.core.net.transfer(
            sim.now(),
            world.core.osds[osd].node,
            world.core.osds[cur].node,
            crate::ACK_BYTES,
        );
        sim.schedule_at(arrival, move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
            deliver_read(w, sim, cur, op_id, block, off, len);
        });
        return;
    }
    if !world.core.mds.is_alive(osd) {
        // Owner died with the read on the wire: after the failover
        // timeout the client retries it as a real degraded read, paying
        // the survivor reads, transfers, and decode.
        sim.schedule(
            crate::FAILOVER_DELAY,
            move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
                client::retry_degraded_read(w, sim, op_id, block, off, len);
            },
        );
        return;
    }
    // Ask the scheme whether its logs cover the range.
    let serve = world.schemes[osd].read_overlay(&mut world.core, osd, block, off, len, None);

    let done = match serve {
        ReadServe::CacheHit => {
            world.core.metrics.read_cache_hits += 1;
            sim.now() + crate::MEM_OP
        }
        ReadServe::Miss => {
            let t = world.core.osds[osd].block_io(sim.now(), IoKind::Read, block, off, len);
            if world.core.osds[osd].verify_range(block, off, len).is_err() {
                // The store returned rotted bytes: surface the typed
                // error as a detection and queue the block for repair at
                // the next safe point (scrub tick or final sweep) rather
                // than serving silently wrong data unflagged.
                crate::scrub::note_corrupt_block(&mut world.core, osd, block);
            }
            t
        }
    };
    // Reply with the data payload.
    let client = match world.core.pending.client_of(op_id) {
        Some(c) => c,
        None => return,
    };
    let arrival = world.core.net.transfer(
        done,
        world.core.osds[osd].node,
        world.core.client_node(client),
        len,
    );
    sim.schedule_at(arrival, move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
        client::client_ack(w, sim, op_id);
    });
}

/// Correlates multi-ack exchanges (e.g. "wait for M parity acks, then
/// complete the extent") — shared by every scheme implementation.
#[derive(Debug, Default)]
pub struct AckTable {
    next: u64,
    pending: IdWindow<(u64, u32)>,
}

impl AckTable {
    /// Registers an exchange needing `need` acks; returns its tag.
    ///
    /// # Panics
    /// Panics if `need == 0`.
    pub fn register(&mut self, op_id: u64, need: u32) -> u64 {
        assert!(need > 0, "ack exchange needs at least one ack");
        let tag = self.next;
        self.next += 1;
        self.pending.insert(tag, (op_id, need));
        tag
    }

    /// Records one ack; returns the op id when the exchange completes.
    pub fn ack(&mut self, tag: u64) -> Option<u64> {
        let (op, need) = self.pending.get_mut(tag)?;
        *need -= 1;
        if *need == 0 {
            let op = *op;
            self.pending.remove(tag);
            Some(op)
        } else {
            None
        }
    }

    /// The [`SchemeMsg::Ack`] arm of every scheme: records one ack and,
    /// when it was the exchange's last, completes the extent at `osd`.
    pub fn on_ack(&mut self, core: &mut ClusterCore, sim: &mut Sim<Cluster>, osd: usize, tag: u64) {
        if let Some(op_id) = self.ack(tag) {
            core.extent_done(sim, osd, op_id);
        }
    }

    /// Exchanges still waiting.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }
}

/// [`ClusterCore::send_to_scheme`], deferred: `msg` leaves `from_osd` for
/// `to_osd` once the work that produces it completes at `at`.
pub fn send_at(
    sim: &mut Sim<Cluster>,
    at: Time,
    from_osd: usize,
    to_osd: usize,
    payload_bytes: u64,
    msg: SchemeMsg,
) {
    sim.schedule_at(at, move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
        w.core
            .send_to_scheme(sim, from_osd, to_osd, payload_bytes, msg);
    });
}

/// Answers a peer: `msg` — an ack or a control word, [`ACK_BYTES`] on the
/// wire — goes from `osd` back to `to` at `at`.
pub fn reply_at(sim: &mut Sim<Cluster>, at: Time, osd: usize, to: usize, msg: SchemeMsg) {
    send_at(sim, at, osd, to, ACK_BYTES, msg);
}

/// A do-nothing scheme: completes updates instantly without touching parity.
///
/// Useful for testing the ECFS plumbing itself and as the lower bound no
/// real scheme can beat (it is *not* crash consistent — data blocks are
/// updated in place and parity is never maintained).
#[derive(Default)]
pub struct InstantScheme {
    updates: u64,
}

impl UpdateScheme for InstantScheme {
    fn on_update(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        req: UpdateReq,
    ) {
        self.updates += 1;
        // In-place data write only; no delta, no parity.
        let t = core.osds[osd].write_block_range(
            sim.now(),
            req.block,
            req.off,
            req.data.len,
            req.data.bytes.as_deref(),
        );
        let op = req.op_id;
        sim.schedule_at(t, move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
            w.core.extent_done(sim, osd, op);
        });
    }

    fn on_message(
        &mut self,
        _core: &mut ClusterCore,
        _sim: &mut Sim<Cluster>,
        _osd: usize,
        _msg: SchemeMsg,
    ) {
    }

    fn flush(&mut self, _core: &mut ClusterCore, _sim: &mut Sim<Cluster>, _osd: usize) {}

    fn backlog(&self) -> u64 {
        0
    }
}

/// Helper shared by delta-based schemes: the read-modify-write that
/// produces a data delta at the data block's OSD (paper Eq. 2 prologue).
/// Returns `(completion_time, delta_chunk)`; the store is updated to the
/// new content.
pub fn rmw_data_delta(
    core: &mut ClusterCore,
    now: Time,
    osd: usize,
    block: BlockId,
    off: u64,
    data: &Chunk,
) -> (Time, Chunk) {
    // One pass over the store captures old ⊕ new into a new buffer and
    // installs the new bytes. Rot in the old bytes would ride the delta
    // to parity, so the capture flags it for the scrubber's stripe-level
    // parity re-encode.
    let delta = data
        .bytes
        .as_ref()
        .and_then(|new| core.osds[osd].delta_poke_range(block, off, new))
        .map_or_else(|| Chunk::ghost(data.len), Chunk::real);
    let t_read = core.osds[osd].block_io(now, IoKind::Read, block, off, data.len);
    let t_compute = t_read + core.xor_time(data.len);
    let t_write = core.osds[osd].block_io(t_compute, IoKind::Write, block, off, data.len);
    (t_write, delta)
}

/// Eq. (5): combines one stripe's buffered data deltas — `roles` pairs
/// each contributing data-block index with its gathered, XOR-folded
/// ranges — into the parity delta stream for `parity_index`. Ranges that
/// share an `(offset, length)` span across roles, the common case under
/// stripe-wide locality, go through one fused multiply-accumulate pass
/// per contributing block into a single accumulator; XOR associativity
/// makes the resulting map the same however the spans fall. Timing-only
/// ranges combine as ghosts. The caller charges the CPU model.
pub fn stripe_parity_delta(
    rs: &RsCode,
    parity_index: usize,
    roles: &[(usize, Gathered<'_>)],
) -> RangeMap {
    let mut combined = RangeMap::new();
    // Same-span contributions: `(offset, length)` → `[(role, delta bytes)]`.
    let mut spans: BTreeMap<_, Vec<(usize, &[u8])>> = BTreeMap::new();
    for (role, ranges) in roles {
        for (off, c) in ranges.iter() {
            match &c.bytes {
                Some(b) => spans
                    .entry((off, c.len))
                    .or_default()
                    .push((*role, b.as_slice())),
                None => combined.insert_xor(off, Chunk::ghost(c.len)),
            }
        }
    }
    for ((off, len), contribs) in spans {
        let mut acc = BytesMut::take(len as usize);
        rs.fill_combined_parity_delta(parity_index, &contribs, acc.as_mut());
        combined.insert_xor(off, Chunk::real(acc.freeze()));
    }
    combined
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ghost_and_real() {
        let g = Chunk::ghost(16);
        assert_eq!(g.len, 16);
        assert!(g.bytes.is_none());
        let r = Chunk::real(vec![1, 2, 3]);
        assert_eq!(r.len, 3);
    }

    #[test]
    fn chunk_xor_in_folds() {
        let mut a = Chunk::real(vec![0xF0, 0x0F]);
        let b = Chunk::real(vec![0x0F, 0x0F]);
        a.xor_in(&b);
        assert_eq!(a.bytes.unwrap(), vec![0xFF, 0x00]);
    }

    #[test]
    fn chunk_xor_with_ghost_degrades_to_ghost() {
        let mut a = Chunk::real(vec![1, 2]);
        a.xor_in(&Chunk::ghost(2));
        assert!(a.bytes.is_none());
        assert_eq!(a.len, 2);
    }

    #[test]
    fn chunk_gf_scaled_matches_field() {
        let c = Chunk::real(vec![3, 5, 7]);
        let s = c.gf_scaled(9);
        let expect: Vec<u8> = [3, 5, 7].iter().map(|&x| tsue_gf::mul(9, x)).collect();
        assert_eq!(s.bytes.unwrap(), expect);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn chunk_xor_length_mismatch_panics() {
        let mut a = Chunk::ghost(3);
        a.xor_in(&Chunk::ghost(4));
    }
}

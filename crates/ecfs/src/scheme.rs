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
use crate::rangemap::RangeMap;
use crate::{client, Cluster, ClusterCore, Mds, ACK_BYTES};
use tsue_buf::{Bytes, Recipe};
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
        // INVARIANT: documented contract (# Panics above); a ghost has no
        // buffer whose own bound would catch a slice past its end.
        assert!(rel + len <= self.len, "chunk slice out of range");
        match &self.bytes {
            Some(b) => Chunk::real(b.slice(rel as usize, len as usize)),
            None => Chunk::ghost(len),
        }
    }

    /// XORs `other` into this chunk (delta folding); ghost chunks fold into
    /// ghost chunks. Folds in place when this chunk alone holds a built
    /// buffer; otherwise into one new buffer, into which a shared built
    /// buffer is copied (a counted deep copy) and a deferred one streamed.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn xor_in(&mut self, other: &Chunk) {
        assert_eq!(self.len, other.len, "chunk length mismatch");
        match (self.bytes.as_mut(), other.bytes.as_ref()) {
            (Some(a), Some(b)) => {
                if let Some(buf) = a.unique_mut() {
                    xor_streamed(b, buf);
                } else {
                    let mut m = a.to_mut();
                    xor_streamed(b, &mut m);
                    *a = m.freeze();
                }
            }
            _ => self.bytes = None,
        }
    }

    /// `coeff * self` (a per-parity delta, Eq. 2): a deferred one-term
    /// linear combination over this chunk's handle, generated where it is
    /// read. Nothing is allocated or computed here.
    pub fn gf_scaled(&self, coeff: u8) -> Chunk {
        Chunk {
            len: self.len,
            bytes: self
                .bytes
                .as_ref()
                .map(|b| Combination::deferred(b.len(), vec![(coeff, 0, b.clone())])),
        }
    }
}

/// XORs `src` into `dst` window by window ([`Bytes::for_each_window`]),
/// so a deferred buffer (a client payload, a parity delta) is never
/// buffered.
///
/// # Panics
/// Panics if the lengths differ.
pub fn xor_streamed(src: &Bytes, dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "xor_streamed length mismatch");
    src.for_each_window(0, dst.len(), |i, s| {
        tsue_gf::xor_slice(s, &mut dst[i..i + s.len()]);
    });
}

/// A deferred linear combination over GF(2⁸): `Σ c · d` over windows
/// `d` of other buffers, each placed at its offset in the content, zero
/// where no window reaches — the recipe of every parity delta, of a store
/// read and capture, and of a log run's concatenation. Terms are
/// `(c, offset within the content, window)`.
pub(crate) struct Combination {
    terms: Vec<(u8, usize, Bytes)>,
    /// The terms are in offset order and disjoint (a store read, a
    /// concatenation), so a window seeks the first term it reaches.
    sorted: bool,
    /// [`Recipe::depth`], fixed from the terms' depths.
    depth: usize,
}

impl Combination {
    /// A `len`-byte buffer whose content is the combination of `terms`.
    pub(crate) fn deferred(len: usize, terms: Vec<(u8, usize, Bytes)>) -> Bytes {
        Combination::deferred_at_depth(len, terms, 0)
    }

    /// [`Combination::deferred`], declared at least `depth` deep
    /// ([`Recipe::depth`] is a bound): a store read rules itself out as
    /// the source of a page view this way.
    pub(crate) fn deferred_at_depth(
        len: usize,
        terms: Vec<(u8, usize, Bytes)>,
        depth: usize,
    ) -> Bytes {
        let sorted = terms.windows(2).all(|w| w[0].1 + w[0].2.len() <= w[1].1);
        let deepest = terms.iter().map(|t| t.2.depth()).max().unwrap_or(0);
        let depth = depth.max(1 + deepest);
        Bytes::deferred(
            len,
            Combination {
                terms,
                sorted,
                depth,
            },
        )
    }
}

impl Recipe for Combination {
    fn write(&self, at: usize, dst: &mut [u8]) {
        let end = at + dst.len();
        let first = if self.sorted {
            self.terms
                .partition_point(|(_, t_at, d)| t_at + d.len() <= at)
        } else {
            0
        };
        // Whether `dst` holds a partial sum yet: the first term multiplies
        // straight into it when it covers the window, else `dst` is zeroed.
        let mut started = false;
        for (c, t_at, d) in &self.terms[first..] {
            if self.sorted && *t_at >= end {
                break;
            }
            let (from, to) = (at.max(*t_at), end.min(t_at + d.len()));
            if from >= to {
                continue;
            }
            let assign = !started && from == at && to == end;
            if !started && !assign {
                dst.fill(0);
            }
            started = true;
            let out = &mut dst[from - at..to - at];
            let rel = from - t_at;
            let mul = if assign {
                tsue_gf::mul_slice
            } else {
                tsue_gf::mul_add_slice
            };
            d.for_each_window(rel, out.len(), |i, src| {
                mul(*c, src, &mut out[i..i + src.len()]);
            });
        }
        if !started {
            dst.fill(0);
        }
    }

    fn depth(&self) -> usize {
        self.depth
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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwedExtent {
    /// Offset in the block.
    pub off: u64,
    /// Length in bytes.
    pub len: u64,
    /// The live peer whose copy the rebuild reads the record back from.
    pub src: usize,
    /// The newest content the rebuilt block can have over the extent
    /// (materialized runs only).
    pub bytes: Option<Bytes>,
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
    /// oldest unit first, each naming that peer. In materialized runs
    /// each also carries its bytes: the newest content the rebuilt block
    /// can have over it, as views of the log's own handles. Records no
    /// live peer holds are owed nothing: they were lost with the node.
    /// Charges nothing and touches no read-path statistics (see
    /// [`crate::recovery`]). Schemes that keep no data log, or no peer
    /// copy of it, owe nothing and use this default.
    fn unmerged_extents(&self, _mds: &Mds, _block: BlockId) -> Vec<OwedExtent> {
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
            req.data.bytes.as_ref(),
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

/// One entry of a stripe's combined parity deltas (Eq. 5): an extent
/// every parity shares and, for a real entry, the windows of the data
/// deltas that combine into it. [`CombinedEntry::parity_delta`] makes the
/// delta of one parity.
#[derive(Debug)]
pub struct CombinedEntry {
    /// Offset within the block.
    pub off: u64,
    /// Length in bytes.
    pub len: u64,
    /// `(role, offset within the entry, data-delta window)`, by role and
    /// offset; `None` for a ghost entry.
    terms: Option<Vec<(usize, usize, Bytes)>>,
}

impl CombinedEntry {
    /// The entry's parity delta for `parity_index`, `Σ c(j, role) · d_role`
    /// over its windows: deferred, so it is generated where it is read
    /// and never buffered. A ghost entry gives a ghost.
    pub fn parity_delta(&self, rs: &RsCode, parity_index: usize) -> Chunk {
        match &self.terms {
            Some(terms) => {
                let terms = terms
                    .iter()
                    .map(|(role, at, d)| (rs.coefficient(parity_index, *role), *at, d.clone()))
                    .collect();
                Chunk::real(Combination::deferred(self.len as usize, terms))
            }
            None => Chunk::ghost(self.len),
        }
    }
}

/// Eq. (5): the shape of one stripe's combined parity deltas, from its
/// buffered data deltas — `roles` pairs each contributing data-block index
/// with its XOR-folded map. The entries are the canonical runs of the
/// union of the contributors' extents (see [`crate::rangemap`]): maximal
/// runs of exactly adjacent coverage, ghost wherever any contributor is a
/// ghost, real elsewhere. So they are the same for every parity and in
/// timing-only and materialized runs alike, and an XOR fold of the scaled
/// deltas into one map would give the same entries. A real entry holds
/// handles to the windows of the data deltas it combines; nothing is
/// gathered, copied or computed. The caller charges the CPU model.
pub fn stripe_parity_delta(roles: &[(usize, &RangeMap)]) -> Vec<CombinedEntry> {
    // Every contributing entry opens its coverage at its offset and
    // closes it at its end: `(offset, Δ real, Δ ghost)`.
    let mut edges: Vec<(u64, i32, i32)> = Vec::new();
    for (_, map) in roles {
        for e in map.iter() {
            let (r, g) = if e.is_real() { (1, 0) } else { (0, 1) };
            edges.push((e.off(), r, g));
            edges.push((e.off() + e.len(), -r, -g));
        }
    }
    edges.sort_unstable_by_key(|e| e.0);
    // The runs, `(off, end, real)`: a run goes on while the kind at the
    // next boundary is the same and nothing in between is uncovered.
    let mut runs: Vec<(u64, u64, bool)> = Vec::new();
    let (mut real, mut ghost) = (0, 0);
    let mut open: Option<(u64, bool)> = None;
    for group in edges.chunk_by(|a, b| a.0 == b.0) {
        let pos = group[0].0;
        for &(_, r, g) in group {
            real += r;
            ghost += g;
        }
        let kind = (real + ghost > 0).then_some(ghost == 0);
        if open.map(|(_, k)| k) != kind {
            if let Some((start, k)) = open {
                runs.push((start, pos, k));
            }
            open = kind.map(|k| (pos, k));
        }
    }
    // Each real run's windows, one cursor per role: a role's segments are
    // sorted and disjoint, and a segment may reach into the next run.
    let mut cursors: Vec<_> = roles
        .iter()
        .map(|(role, map)| {
            let segs: Vec<_> = map.iter().flat_map(|e| e.chunks()).collect();
            (*role, segs, 0)
        })
        .collect();
    runs.into_iter()
        .map(|(off, end, is_real)| {
            let terms = is_real.then(|| {
                let mut terms = Vec::new();
                for (role, segs, cur) in &mut cursors {
                    while segs.get(*cur).is_some_and(|(s, c)| s + c.len <= off) {
                        *cur += 1;
                    }
                    for (s, c) in segs[*cur..].iter().take_while(|(s, _)| *s < end) {
                        let (from, to) = (off.max(*s), end.min(s + c.len));
                        if let Some(d) = &c.bytes {
                            let window = d.slice((from - s) as usize, (to - from) as usize);
                            terms.push((*role, (from - off) as usize, window));
                        }
                    }
                }
                terms
            });
            CombinedEntry {
                off,
                len: end - off,
                terms,
            }
        })
        .collect()
}

#[cfg(test)]
mod reference;

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
    fn chunk_gf_scaled_is_deferred_and_streams() {
        let src = Chunk::real((0..=255u8).cycle().take(9000).collect::<Vec<u8>>());
        let before = tsue_buf::stats();
        let s = src.gf_scaled(0x53);
        let bytes = s.bytes.as_ref().expect("real");
        let mut got = vec![0u8; 5000];
        bytes.read_into(3000, &mut got);
        let want: Vec<u8> = (0..=255u8)
            .cycle()
            .take(9000)
            .map(|x| tsue_gf::mul(0x53, x))
            .collect();
        assert_eq!(got, want[3000..8000]);
        let d = tsue_buf::stats().since(&before);
        assert_eq!((d.pool_misses, d.streamed_bytes), (0, 5000));
        assert_eq!(Chunk::ghost(7).gf_scaled(3), Chunk::ghost(7));
    }

    #[test]
    fn xor_fold_of_two_recipes_fills_only_the_one_it_folds_into() {
        let mut a = Chunk::real(vec![7u8; 100]).gf_scaled(3);
        let b = Chunk::real(vec![9u8; 100]).gf_scaled(5);
        let before = tsue_buf::stats();
        a.xor_in(&b);
        let s = tsue_buf::stats().since(&before);
        assert_eq!(s.streamed_bytes, 200, "both streamed: {s:?}");
        assert_eq!((s.pool_misses, s.bytes_copied), (1, 0), "one new buffer");
        let want = tsue_gf::mul(3, 7) ^ tsue_gf::mul(5, 9);
        assert_eq!(a.bytes.expect("real"), vec![want; 100]);
    }

    #[test]
    fn xor_fold_onto_a_shared_recipe_copies_without_filling() {
        let whole = Chunk::real(vec![7u8; 100]).gf_scaled(3);
        let mut a = whole.slice(20, 50);
        let b = Chunk::real(vec![9u8; 50]).gf_scaled(5);
        let before = tsue_buf::stats();
        a.xor_in(&b);
        let s = tsue_buf::stats().since(&before);
        assert_eq!(s.streamed_bytes, 100, "{s:?}");
        assert_eq!(
            (s.pool_misses, s.bytes_copied),
            (1, 0),
            "streamed, not copied"
        );
        let want = tsue_gf::mul(3, 7) ^ tsue_gf::mul(5, 9);
        assert_eq!(a.bytes.expect("real"), vec![want; 50]);
        assert_eq!(whole.bytes.expect("real").depth(), 1, "still deferred");
    }

    #[test]
    fn xor_fold_onto_a_shared_built_buffer_counts_one_copy() {
        let whole = Chunk::real(vec![7u8; 100]);
        let mut a = whole.slice(20, 50);
        let b = Chunk::real(vec![9u8; 50]).gf_scaled(5);
        let before = tsue_buf::stats();
        a.xor_in(&b);
        let s = tsue_buf::stats().since(&before);
        assert_eq!((s.pool_misses, s.deep_copies, s.bytes_copied), (1, 1, 50));
        assert_eq!(s.streamed_bytes, 50, "the deferred side streams: {s:?}");
        assert_eq!(a.bytes.expect("real"), vec![7 ^ tsue_gf::mul(5, 9); 50]);
        assert_eq!(whole.bytes.expect("real"), vec![7u8; 100], "copy-on-write");
        // A built buffer held alone folds in place.
        let mut c = Chunk::real(vec![1u8; 50]);
        let before = tsue_buf::stats();
        c.xor_in(&Chunk::real(vec![3u8; 50]));
        assert_eq!(
            tsue_buf::stats().since(&before),
            tsue_buf::BufStats::default()
        );
        assert_eq!(c.bytes.expect("real"), vec![2u8; 50]);
    }

    #[test]
    #[should_panic(expected = "chunk slice out of range")]
    fn ghost_slice_past_the_end_panics() {
        Chunk::ghost(4096).slice(4000, 200);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn chunk_xor_length_mismatch_panics() {
        let mut a = Chunk::ghost(3);
        a.xor_in(&Chunk::ghost(4));
    }
}

//! The TSUE update scheme: two-stage update over a three-layer,
//! real-time-recycled log hierarchy (paper §3–4).
//!
//! **Front end (synchronous):** an update extent is appended to the
//! DataLog of the block's OSD — a sequential write — replicated to the
//! next node(s), and acknowledged. No read-modify-write, no parity work on
//! the client-visible path.
//!
//! **Back end (asynchronous, real-time):** sealed DataLog units recycle
//! immediately: merged ranges read the original data once, overwrite the
//! data block, and forward data deltas to the DeltaLog on the stripe's
//! first parity owner (with a copy on the second). DeltaLog units merge
//! same-offset deltas within and across blocks (Eq. 3/5) purely in memory
//! and emit combined parity deltas to each ParityLog. ParityLog units
//! merge again and apply the result to parity blocks with few, large
//! read-modify-writes.
//!
//! Every stage that the paper ablates in Fig. 7 is a switch on
//! [`TsueConfig`]: data/parity-log locality folding (O1/O2), the FIFO
//! multi-unit pool (O3), pools-per-device (O4), and the DeltaLog layer
//! (O5).
//!
//! The three logs are one `Layer` held three times, each keyed by the
//! [`BlockId`] its records belong to; what differs per layer is stated
//! once (`merge_policy`, `pool_of`, the DataLog's replicate-and-ack tail)
//! next to the three recycle bodies, which *are* the layers' policy.

use crate::logpool::LogPool;
use crate::logunit::{LogUnit, UnitId, UnitState, RECORD_HEADER};
use std::collections::{BTreeMap, VecDeque};
use tsue_ecfs::logregion::LogRegion;
use tsue_ecfs::rangemap::{Discipline, RangeMap};
use tsue_ecfs::scheme::{
    reply_at, send_at, stripe_parity_delta, AckTable, DeltaKind, PowerLossReport, ReadServe,
    SchemeMsg, UpdateReq,
};
use tsue_ecfs::{
    BlockId, Chunk, Cluster, ClusterCore, IoKind, Mds, OwedExtent, SplitRng, UpdateScheme,
};
use tsue_obs::LogLayer;
use tsue_sim::{MultiResource, Sim, Time, SECOND};

/// Message-tag values on `DeltaForward { kind: DataDelta, .. }`.
const TAG_DELTA: u64 = 2;
const TAG_DELTA_REP: u64 = 3;

/// Timer-tag kinds (low 4 bits).
const TK_SEAL: u64 = 1;
const TK_JOB_DONE: u64 = 2;

/// TSUE tunables; every Fig. 6/7 knob lives here.
///
/// Serializes field-for-field (sizes in bytes, intervals in ns), so a
/// full config round-trips through a scenario file's `knobs` object, and
/// any subset of the fields overrides the device default
/// ([`TsueConfig::from_knobs`]).
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TsueConfig {
    /// Log unit size in bytes (paper: 16 MiB).
    pub unit_size: u64,
    /// Units per pool (Fig. 6b sweeps 2–20; default 4).
    pub max_units: usize,
    /// Log pools per device per layer (O4; default 4).
    pub pools: usize,
    /// O1: exploit locality (merge/coalesce) in the DataLog.
    pub datalog_locality: bool,
    /// O2: exploit locality in the ParityLog.
    pub paritylog_locality: bool,
    /// O3: FIFO multi-unit pool; `false` degrades to one exclusive unit.
    pub use_log_pool: bool,
    /// O5: route deltas through the DeltaLog (three layers vs two).
    pub use_delta_log: bool,
    /// Total DataLog copies incl. the primary (2 on SSD, 3 on HDD).
    pub data_replicas: usize,
    /// Recycle thread pool width per OSD.
    pub recycle_threads: usize,
    /// Background seal interval: an active unit older than this is sealed
    /// even if not full (bounds staleness; drives Table 2 buffer times).
    pub seal_interval: Time,
    /// §7 future-work extension: compress deltas while they reside in the
    /// log layers, shrinking forwarded network traffic at a small CPU cost.
    pub compress_deltas: bool,
}

impl TsueConfig {
    /// Paper defaults for the SSD cluster (§4.1, §5.3.2).
    pub fn ssd_default() -> Self {
        TsueConfig {
            unit_size: 16 << 20,
            max_units: 4,
            pools: 4,
            datalog_locality: true,
            paritylog_locality: true,
            use_log_pool: true,
            use_delta_log: true,
            data_replicas: 2,
            recycle_threads: 4,
            seal_interval: 2 * SECOND,
            compress_deltas: false,
        }
    }

    /// Paper defaults for the HDD cluster (§5.4): 3-copy data log, no
    /// DeltaLog, one pool per (slow) device.
    pub fn hdd_default() -> Self {
        TsueConfig {
            pools: 1,
            use_delta_log: false,
            data_replicas: 3,
            ..Self::ssd_default()
        }
    }

    /// The Fig. 7 cumulative ablation ladder:
    /// 0 = Baseline, 1 = +O1, 2 = +O2, 3 = +O3, 4 = +O4, 5 = +O5.
    pub fn breakdown(level: usize) -> Self {
        let mut c = TsueConfig {
            datalog_locality: false,
            paritylog_locality: false,
            use_log_pool: false,
            pools: 1,
            use_delta_log: false,
            ..Self::ssd_default()
        };
        if level >= 1 {
            c.datalog_locality = true;
        }
        if level >= 2 {
            c.paritylog_locality = true;
        }
        if level >= 3 {
            c.use_log_pool = true;
        }
        if level >= 4 {
            c.pools = 4;
        }
        if level >= 5 {
            c.use_delta_log = true;
        }
        c
    }

    fn effective_max_units(&self) -> usize {
        if self.use_log_pool {
            self.max_units
        } else {
            // Pre-O3 designs double-buffer (one active + one recycling)
            // but have no FIFO pool: appends stall whenever both units are
            // busy.
            2
        }
    }

    fn effective_pools(&self) -> usize {
        if self.use_log_pool {
            self.pools
        } else {
            1
        }
    }
}

/// One log record on its way into a layer — and the shape it waits in
/// when every unit of its pool is busy (backpressure).
struct QueuedWork {
    /// The block the record belongs to: the updated data block (DataLog),
    /// the delta's source data block (DeltaLog), the parity block
    /// (ParityLog).
    block: BlockId,
    off: u64,
    chunk: Chunk,
    /// The client op a DataLog append acks; unused by the other layers.
    op_id: u64,
}

/// One paced recycle job. Content has already been applied to the block
/// store at seal time (preserving per-block unit order); the job charges
/// the device/CPU timing and forwards the precomputed delta.
enum RecycleJob {
    /// DataLog: timed read-modify-write of the data block + delta forward.
    Data(BlockId, u64, Chunk),
    /// ParityLog: timed read-XOR-write of `len` bytes of the parity block.
    Parity(BlockId, u64, u64),
}

/// In-flight recycle bookkeeping for one unit: jobs are dispatched at most
/// `recycle_threads` at a time, each next job issued when one completes —
/// pacing that keeps foreground appends interleaved on the device instead
/// of queueing behind a recycle dump.
struct InflightUnit {
    layer: LogLayer,
    pool: usize,
    jobs: VecDeque<RecycleJob>,
    running: u64,
}

/// One log layer: pools + persistence regions + backpressure queues. Every
/// layer keys its index by the [`BlockId`] its records belong to.
struct Layer {
    pools: Vec<LogPool<BlockId>>,
    regions: Vec<LogRegion>,
    queues: Vec<VecDeque<QueuedWork>>,
    timer_armed: Vec<bool>,
}

impl Layer {
    fn new(cfg: &TsueConfig, layer: LogLayer) -> Self {
        let pools = cfg.effective_pools();
        let region_cap = cfg.unit_size * cfg.max_units as u64 + (4 << 20);
        let stream_base = [32, 64, 96][layer as usize];
        Layer {
            pools: (0..pools)
                .map(|p| {
                    LogPool::new(
                        cfg.unit_size,
                        cfg.effective_max_units(),
                        layer as u64 * 16 + p as u64,
                    )
                })
                .collect(),
            regions: (0..pools)
                .map(|p| LogRegion::new(region_cap, stream_base + p as u32 * 2))
                .collect(),
            queues: (0..pools).map(|_| VecDeque::new()).collect(),
            timer_armed: vec![false; pools],
        }
    }

    fn memory_bytes(&self) -> u64 {
        self.pools.iter().map(LogPool::memory_bytes).sum()
    }

    fn pending_work(&self) -> u64 {
        let pool_work: u64 = self.pools.iter().map(LogPool::pending_work).sum();
        pool_work + self.queues.iter().map(|q| q.len() as u64).sum::<u64>()
    }
}

fn pool_hash(x: u64, pools: usize) -> usize {
    (x.wrapping_mul(0x9e3779b97f4a7c15) >> 33) as usize % pools
}

/// The peers that take `home`'s DataLog copies, each with its failure
/// count ([`LogUnit::copies`]): the next `copies` live nodes around the
/// ring — except on a racked topology, where peers in *other* racks are
/// preferred (ring order within each preference class), so a whole-rack
/// failure cannot take the primary and every copy at once. On a flat
/// topology — or under rack-oblivious placement, which opts the whole
/// cluster out of rack safety — with every node alive this is exactly
/// `(home + r) % osds`. Dead nodes are passed over: a copy sent to one
/// would exist nowhere.
fn replica_peers(core: &ClusterCore, home: usize, copies: usize) -> Vec<(usize, u32)> {
    let osds = core.cfg.osds;
    let ring = (1..osds).map(|r| (home + r) % osds);
    let racked = core.cfg.placement == tsue_ecfs::PlacementKind::RackAware && core.net.racks() > 1;
    let rack = |p: usize| core.net.rack_of(core.osds[p].node);
    let other_rack = |p: &usize| !racked || rack(*p) != rack(home);
    ring.clone()
        .filter(other_rack)
        .chain(ring.filter(|p| !other_rack(p)))
        .filter(|&p| core.mds.is_alive(p))
        .take(copies)
        .map(|p| (p, core.mds.failures(p)))
        .collect()
}

fn block_key(b: BlockId) -> u64 {
    (b.file as u64) << 40 ^ b.stripe << 8 ^ b.role as u64
}

/// The TSUE scheme instance (one per OSD).
pub struct Tsue {
    /// Configuration (public for the harness's ablation sweeps).
    pub cfg: TsueConfig,
    /// DataLog, DeltaLog, ParityLog — indexed by [`LogLayer`].
    layers: [Layer; 3],
    /// Replica persistence for peer DataLogs (device-only, no memory).
    data_replica_region: LogRegion,
    /// Replica persistence for peer DeltaLogs.
    delta_replica_region: LogRegion,
    threads: MultiResource,
    acks: AckTable,
    inflight: BTreeMap<UnitId, InflightUnit>,
    /// The newest append on this OSD, `(layer, block, offset, length)` —
    /// the write a power loss tears. Only the in-flight tail record is at
    /// risk: every earlier append's framing already persisted whole, so
    /// the restart scan recovers it.
    tail: Option<(LogLayer, BlockId, u64, u64)>,
}

impl Tsue {
    /// Creates a TSUE instance from a config.
    pub fn new(cfg: TsueConfig) -> Self {
        Tsue {
            layers: LogLayer::ALL.map(|layer| Layer::new(&cfg, layer)),
            data_replica_region: LogRegion::new(
                cfg.unit_size * cfg.max_units as u64 * cfg.data_replicas as u64,
                128,
            ),
            delta_replica_region: LogRegion::new(cfg.unit_size * cfg.max_units as u64, 132),
            threads: MultiResource::new(cfg.recycle_threads),
            acks: AckTable::default(),
            inflight: BTreeMap::new(),
            tail: None,
            cfg,
        }
    }

    /// SSD-default instance.
    pub fn ssd() -> Self {
        Self::new(TsueConfig::ssd_default())
    }

    /// HDD-default instance.
    pub fn hdd() -> Self {
        Self::new(TsueConfig::hdd_default())
    }

    // ------------------------------------------------------------------
    // Per-layer policy — everything else treats the layers alike
    // ------------------------------------------------------------------

    /// How a layer's index folds a record: the merge discipline and
    /// whether locality is exploited at all (O1/O2; the DeltaLog always
    /// merges — exploiting locality is the layer's purpose).
    fn merge_policy(&self, layer: LogLayer) -> (Discipline, bool) {
        match layer {
            LogLayer::Data => (Discipline::Overwrite, self.cfg.datalog_locality),
            LogLayer::Delta => (Discipline::Xor, true),
            LogLayer::Parity => (Discipline::Xor, self.cfg.paritylog_locality),
        }
    }

    /// The pool of `layer` that logs `block`: Data/ParityLog spread by
    /// block, the DeltaLog by stripe so that a stripe's deltas meet in one
    /// unit (Eq. 5 combines across the blocks of a stripe).
    fn pool_of(&self, core: &ClusterCore, layer: LogLayer, block: BlockId) -> usize {
        let key = if layer == LogLayer::Delta {
            core.global_stripe(block.file, block.stripe)
        } else {
            block_key(block)
        };
        pool_hash(key, self.layers[layer as usize].pools.len())
    }

    /// The DataLog pool that logs `block`.
    fn data_pool(&self, block: BlockId) -> &LogPool<BlockId> {
        let pools = &self.layers[LogLayer::Data as usize].pools;
        &pools[pool_hash(block_key(block), pools.len())]
    }

    /// Overlays the unmerged DataLog content of a block range onto `buf`;
    /// true when the log alone covers the range.
    fn overlay_data(&self, block: BlockId, off: u64, len: u64, buf: Option<&mut [u8]>) -> bool {
        self.data_pool(block).overlay(&block, off, len, buf)
    }

    // ------------------------------------------------------------------
    // Append path
    // ------------------------------------------------------------------

    /// Appends one record to `layer` on this OSD: index insert, sequential
    /// persist, seal timer. A DataLog append — the synchronous front end —
    /// is also replicated to its peers and acknowledged; the other layers
    /// append in the background and owe nobody an answer.
    fn append(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        layer: LogLayer,
        work: QueuedWork,
    ) {
        let now = sim.now();
        let li = layer as usize;
        let pool = self.pool_of(core, layer, work.block);
        let len = work.chunk.len;
        let need = len + RECORD_HEADER;
        // A DataLog unit's records all have their copies on the same
        // peers: when those change (one died or rejoined), the active
        // unit seals and the append opens a fresh one.
        let peers = match layer {
            LogLayer::Data => replica_peers(core, osd, self.replica_copies(core)),
            _ => Vec::new(),
        };
        if self.layers[li].pools[pool]
            .active()
            .is_some_and(|u| u.copies != peers)
        {
            self.seal_and_recycle(core, sim, osd, layer, pool);
        }
        if !self.ensure_room(core, sim, osd, layer, pool, need) {
            self.layers[li].queues[pool].push_back(work);
            return;
        }
        let QueuedWork {
            block,
            off,
            chunk,
            op_id,
        } = work;
        let (discipline, locality) = self.merge_policy(layer);
        let unit = self.layers[li].pools[pool].active_mut();
        // The payload moves into the log index — the client's buffer is
        // shared by refcount the whole way, never duplicated.
        unit.append(block, off, chunk, discipline, locality, now);
        if unit.copies != peers {
            unit.copies.clone_from(&peers); // the unit's first record
        }
        self.tail = Some((layer, block, off, len));
        let (t_persist, _) = self.layers[li].regions[pool].append(core, osd, now, need);
        core.metrics.obs.residence[li]
            .append
            .record(t_persist - now);
        self.arm_seal_timer(core, sim, osd, layer, pool);
        if layer != LogLayer::Data {
            return;
        }

        // Ack bookkeeping: local persist + one per peer copy.
        let tag = self.acks.register(op_id, 1 + peers.len() as u32);
        sim.schedule_at(t_persist, move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
            tsue_ecfs::scheme::deliver_msg(w, sim, osd, SchemeMsg::Ack { tag });
        });
        for &(peer, _) in &peers {
            let msg = SchemeMsg::DataForward {
                from: osd,
                block,
                off,
                // The wire and peer-append costs are charged for the full
                // payload, but the forwarded copy is a ghost: the content
                // plane keeps one logical copy (the unit index), which a
                // rebuild reads back through `unmerged_extents` — pinning
                // a second ref here would defeat in-place run coalescing.
                data: Chunk::ghost(len),
                tag,
            };
            core.send_to_scheme(sim, osd, peer, len, msg);
        }
    }

    /// DataLog copies held on peers: the configured replicas minus the
    /// primary, capped by the cluster size.
    fn replica_copies(&self, core: &ClusterCore) -> usize {
        self.cfg
            .data_replicas
            .saturating_sub(1)
            .min(core.cfg.osds - 1)
    }

    /// Makes room in `(layer, pool)` for an append: seals a full active
    /// unit (kicking its recycle) and provisions a fresh one. Returns
    /// false when all units are busy (caller queues the work).
    fn ensure_room(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        layer: LogLayer,
        pool: usize,
        need: u64,
    ) -> bool {
        if self.layers[layer as usize].pools[pool].active_fits(need) {
            return true;
        }
        self.seal_and_recycle(core, sim, osd, layer, pool);
        self.layers[layer as usize].pools[pool].provision_active()
    }

    // ------------------------------------------------------------------
    // Recycle paths
    // ------------------------------------------------------------------

    /// Seals the active unit of `(layer, pool)` if it holds data and
    /// starts its recycle; true when a unit was sealed.
    fn seal_and_recycle(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        layer: LogLayer,
        pool: usize,
    ) -> bool {
        let Some(uid) = self.layers[layer as usize].pools[pool].seal_active() else {
            return false;
        };
        match layer {
            LogLayer::Data => self.recycle_data_unit(core, sim, osd, pool, uid),
            LogLayer::Delta => self.recycle_delta_unit(core, sim, osd, pool, uid),
            LogLayer::Parity => self.recycle_parity_unit(core, sim, osd, pool, uid),
        }
        true
    }

    /// The preamble of every recycle: the sealed unit turns Recycling, its
    /// start is stamped and its buffer dwell sampled (Table 2).
    fn begin_recycle(
        &mut self,
        core: &mut ClusterCore,
        layer: LogLayer,
        pool: usize,
        uid: UnitId,
        now: Time,
    ) -> &mut LogUnit<BlockId> {
        let pool = &mut self.layers[layer as usize].pools[pool];
        // INVARIANT: the recycle was started with this unit id at seal
        // time, and units are never evicted while Recyclable.
        let unit = pool.unit_mut(uid).expect("unit exists");
        unit.state = UnitState::Recycling;
        unit.recycle_started = Some(now);
        if let Some(fa) = unit.first_append {
            let buffer = &mut core.metrics.obs.residence[layer as usize].buffer;
            buffer.record(now.saturating_sub(fa));
        }
        unit
    }

    /// DataLog recycle: merged read → delta compute → in-place data write
    /// → delta forwarding (three-layer) or direct parity deltas (two-layer).
    fn recycle_data_unit(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        pool: usize,
        uid: UnitId,
    ) {
        let jobs = collect_jobs(self.begin_recycle(core, LogLayer::Data, pool, uid, sim.now()));
        // Apply content now, at seal time, so per-block newest-wins
        // semantics hold even though the timed I/O below is paced.
        let store = &mut core.osds[osd];
        let jobs = jobs
            .into_iter()
            .map(|(block, off, newest)| {
                let delta = match &newest.bytes {
                    Some(new) => {
                        // One pass over the store: install the new content
                        // and capture new ⊕ old as a recipe over `new` and
                        // the replaced pages, copying neither.
                        let d = store
                            .delta_poke_range(block, off, new)
                            // INVARIANT: jobs carry bytes only in materialized runs, where
                            // every hosted block has backing data.
                            .expect("materialized block");
                        Chunk::real(d)
                    }
                    None => Chunk::ghost(newest.len),
                };
                RecycleJob::Data(block, off, delta)
            })
            .collect();
        let inf = InflightUnit {
            layer: LogLayer::Data,
            pool,
            jobs,
            running: 0,
        };
        self.inflight.insert(uid, inf);
        self.dispatch_unit_jobs(core, sim, osd, uid);
    }

    /// Dispatches queued recycle jobs of `uid` up to the thread-pool width;
    /// each completion re-enters here via the job-done timer, so at most
    /// `recycle_threads` background I/Os are outstanding per unit and
    /// foreground appends interleave fairly on the device.
    fn dispatch_unit_jobs(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        uid: UnitId,
    ) {
        let width = self.cfg.recycle_threads as u64;
        loop {
            let job = {
                let Some(inf) = self.inflight.get_mut(&uid) else {
                    return;
                };
                if inf.running >= width {
                    return;
                }
                match inf.jobs.pop_front() {
                    Some(j) => {
                        inf.running += 1;
                        j
                    }
                    None => {
                        if inf.running == 0 {
                            self.finish_unit(core, sim, osd, uid);
                        }
                        return;
                    }
                }
            };
            let done_at = match job {
                RecycleJob::Data(block, off, delta) => {
                    self.run_data_job(core, sim, osd, block, off, delta)
                }
                RecycleJob::Parity(pblock, off, len) => {
                    // Content was XORed into the store at seal time; charge
                    // the timed read-XOR-write here.
                    let th = pool_hash(block_key(pblock), self.cfg.recycle_threads);
                    let now = sim.now();
                    let compute = self
                        .threads
                        .submit_to(th, now, core.xor_time(len))
                        .saturating_sub(now);
                    core.osds[osd].xor_block_range(now, pblock, off, len, None, compute)
                }
            };
            let done_tag = TK_JOB_DONE | (uid << 4);
            core.scheme_timer(sim, osd, done_at.saturating_sub(sim.now()), done_tag);
        }
    }

    /// Bytes a forwarded delta takes on the wire: its length, or with the
    /// §7 compression extension a conservative constant ratio (11/20, at
    /// least 16 B). The estimate sees only the length, so timing-only and
    /// materialized runs put the same bytes on the wire.
    fn wire_len(&self, len: u64) -> u64 {
        if self.cfg.compress_deltas {
            (len * 11 / 20).max(16)
        } else {
            len
        }
    }

    /// Executes the timed I/O of one DataLog recycle job (content already
    /// applied at seal time); returns its completion time.
    fn run_data_job(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        block: BlockId,
        off: u64,
        delta: Chunk,
    ) -> Time {
        let now = sim.now();
        let k = core.cfg.stripe.k;
        let m = core.cfg.stripe.m;
        let th = pool_hash(block_key(block), self.cfg.recycle_threads);
        // Read the original once per merged range (timing only: content
        // for the delta was captured at seal time).
        let t_read = core.osds[osd].block_io(now, IoKind::Read, block, off, delta.len);
        let t_cpu = self.threads.submit_to(th, t_read, core.xor_time(delta.len));
        // In-place data overwrite with the merged newest content (timing
        // only — the store already holds it).
        let t_write = core.osds[osd].block_io(t_cpu, IoKind::Write, block, off, delta.len);
        let gstripe = core.global_stripe(block.file, block.stripe);
        if self.cfg.use_delta_log {
            // Forward the raw data delta to the DeltaLog at P1, copy at P2.
            let p1 = core.owner_of(gstripe, k);
            let len = self.wire_len(delta.len);
            let msg = SchemeMsg::DeltaForward {
                from: osd,
                block,
                off,
                data: delta,
                kind: DeltaKind::DataDelta,
                parity_index: 0,
                tag: TAG_DELTA,
            };
            send_at(sim, t_write, osd, p1, len, msg);
            if m >= 2 {
                let p2 = core.owner_of(gstripe, k + 1);
                let rep = SchemeMsg::DeltaForward {
                    from: osd,
                    block,
                    off,
                    data: Chunk::ghost(len),
                    kind: DeltaKind::DataDelta,
                    parity_index: 1,
                    tag: TAG_DELTA_REP,
                };
                send_at(sim, t_write, osd, p2, len, rep);
            }
        } else {
            // Two-layer mode: scale per parity locally, send to each.
            let t_gf = self
                .threads
                .submit_to(th, t_write, core.gf_time(delta.len * m as u64));
            for j in 0..m {
                let peer = core.owner_of(gstripe, k + j);
                let pd = delta.gf_scaled(core.rs.coefficient(j, block.role));
                let len = self.wire_len(pd.len);
                let msg = SchemeMsg::DeltaForward {
                    from: osd,
                    block,
                    off,
                    data: pd,
                    kind: DeltaKind::ParityDelta,
                    parity_index: j,
                    tag: 0,
                };
                send_at(sim, t_gf, osd, peer, len, msg);
            }
        }
        t_write
    }

    /// DeltaLog recycle: purely in-memory Eq. 3/5 combination, then
    /// combined parity deltas to every ParityLog.
    ///
    /// The unit's two-level index is read **in place**: a stripe's blocks
    /// combine through [`stripe_parity_delta`], which shapes the entries
    /// once for all parities, and each parity's delta is a recipe over the
    /// unit's own data-delta handles, generated where the ParityLog
    /// applies it. Nothing is gathered and no buffer is allocated.
    fn recycle_delta_unit(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        pool: usize,
        uid: UnitId,
    ) {
        let now = sim.now();
        let k = core.cfg.stripe.k;
        let m = core.cfg.stripe.m;
        let mut cpu: Time = 0;
        let mut sends: Vec<(usize, BlockId, u64, Chunk, usize)> = Vec::new();
        {
            let unit = self.begin_recycle(core, LogLayer::Delta, pool, uid, now);
            // Stripe → [(role, ranges)] view over the index, borrowed. The
            // index orders source blocks by (file, stripe, role), so this
            // walk meets the stripes in global-stripe order and the roles
            // of each in ascending order — no post-sort needed.
            let mut stripes: BTreeMap<BlockId, Vec<(usize, &RangeMap)>> = BTreeMap::new();
            for (&block, entry) in &unit.index {
                stripes
                    .entry(BlockId { role: 0, ..block })
                    .or_default()
                    .push((block.role, &entry.ranges));
            }
            for (carrier, roles) in &stripes {
                let gstripe = core.global_stripe(carrier.file, carrier.stripe);
                // The CPU model charges one multiply-accumulate pass per
                // logged range per parity.
                let ranges = roles.iter().flat_map(|(_, ranges)| ranges.iter());
                cpu += m as Time * ranges.map(|e| core.gf_time(e.len())).sum::<Time>();
                let entries = stripe_parity_delta(roles);
                for j in 0..m {
                    let peer = core.owner_of(gstripe, k + j);
                    for e in &entries {
                        sends.push((peer, *carrier, e.off, e.parity_delta(&core.rs, j), j));
                    }
                }
            }
            // The combined deltas hold their own handles to the data
            // deltas; the unit reads its bytes no more.
            unit.release_bytes();
        }
        self.inflight.insert(
            uid,
            InflightUnit {
                layer: LogLayer::Delta,
                pool,
                jobs: VecDeque::new(),
                running: 1,
            },
        );
        // One CPU job covers the whole in-memory merge (no device I/O).
        let th = pool_hash(uid, self.cfg.recycle_threads);
        let t_cpu = self.threads.submit_to(th, now, cpu.max(tsue_ecfs::MEM_OP));
        for (peer, carrier, off, chunk, j) in sends {
            let len = self.wire_len(chunk.len);
            let msg = SchemeMsg::DeltaForward {
                from: osd,
                block: carrier,
                off,
                data: chunk,
                kind: DeltaKind::ParityDelta,
                parity_index: j,
                tag: 0,
            };
            send_at(sim, t_cpu, osd, peer, len, msg);
        }
        let done_tag = TK_JOB_DONE | (uid << 4);
        core.scheme_timer(sim, osd, t_cpu.saturating_sub(now), done_tag);
    }

    /// ParityLog recycle: merged parity delta ranges applied to parity
    /// blocks with read-XOR-write.
    fn recycle_parity_unit(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        pool: usize,
        uid: UnitId,
    ) {
        let unit = self.begin_recycle(core, LogLayer::Parity, pool, uid, sim.now());
        // Apply parity XOR content now (order-free: XOR commutes), segment
        // by segment straight from the deltas' handles, and pace one timed
        // read-modify-write per entry (or raw record) below.
        let store = &mut core.osds[osd];
        let mut jobs = VecDeque::new();
        for (&pblock, entry) in &unit.index {
            let mut apply = |off: u64, delta: &Chunk| {
                if let Some(d) = delta.bytes.as_ref() {
                    store.xor_poke_range(pblock, off, d);
                }
            };
            if entry.raw.is_empty() {
                for e in entry.ranges.iter() {
                    e.chunks().for_each(|(off, delta)| apply(off, delta));
                    jobs.push_back(RecycleJob::Parity(pblock, e.off(), e.len()));
                }
            } else {
                for (off, delta) in &entry.raw {
                    apply(*off, delta);
                    jobs.push_back(RecycleJob::Parity(pblock, *off, delta.len));
                }
            }
        }
        // Applied: nothing reads the unit's bytes again.
        unit.release_bytes();
        let inf = InflightUnit {
            layer: LogLayer::Parity,
            pool,
            jobs,
            running: 0,
        };
        self.inflight.insert(uid, inf);
        self.dispatch_unit_jobs(core, sim, osd, uid);
    }

    /// All jobs of a unit completed: mark it Recycled and unblock queued
    /// appends.
    fn finish_unit(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        uid: UnitId,
    ) {
        let now = sim.now();
        // INVARIANT: unit_job_done fires exactly once per recycle dispatch,
        // which inserted this entry.
        let inf = self.inflight.remove(&uid).expect("inflight unit");
        let (layer, pool) = (inf.layer, inf.pool);
        if let Some(unit) = self.layers[layer as usize].pools[pool].unit_mut(uid) {
            unit.state = UnitState::Recycled;
            if let Some(start) = unit.recycle_started {
                core.metrics.obs.recycle_merged(osd, layer, uid, start, now);
            }
        }
        self.drain_queue(core, sim, osd, layer, pool);
    }

    /// Replays queued work after a unit freed up.
    fn drain_queue(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        layer: LogLayer,
        pool: usize,
    ) {
        while let Some(work) = self.layers[layer as usize].queues[pool].pop_front() {
            let before = self.layers[layer as usize].queues[pool].len();
            self.append(core, sim, osd, layer, work);
            // If the append re-queued itself (still no room), stop.
            if self.layers[layer as usize].queues[pool].len() > before {
                break;
            }
        }
    }

    /// Arms the background seal timer for a pool if not already armed.
    fn arm_seal_timer(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        layer: LogLayer,
        pool: usize,
    ) {
        let armed = &mut self.layers[layer as usize].timer_armed[pool];
        if *armed {
            return;
        }
        *armed = true;
        let tag = TK_SEAL | ((layer as u64) << 4) | ((pool as u64) << 8);
        core.scheme_timer(sim, osd, self.cfg.seal_interval, tag);
    }

    /// Seal-timer fire: seal a lingering active unit (real-time recycle
    /// guarantee) and re-arm while traffic continues.
    fn on_seal_timer(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        layer: LogLayer,
        pool: usize,
    ) {
        let flowing = self.seal_and_recycle(core, sim, osd, layer, pool);
        let l = &mut self.layers[layer as usize];
        l.timer_armed[pool] = false;
        if flowing {
            l.pools[pool].provision_active();
            self.arm_seal_timer(core, sim, osd, layer, pool);
        } else {
            // Idle: shrink the pool and stop the timer until new appends.
            l.pools[pool].shrink_to(2);
        }
    }
}

/// Collects `(block, offset, chunk)` recycle jobs from a sealed unit,
/// honouring raw (no-locality) mode. A merged run is handed out as one
/// deferred concatenation of its segment handles ([`Entry::chunk`]), so
/// nothing is gathered and the unit's index keeps the handles.
///
/// [`Entry::chunk`]: tsue_ecfs::rangemap::Entry::chunk
fn collect_jobs(unit: &LogUnit<BlockId>) -> Vec<(BlockId, u64, Chunk)> {
    // The index is ordered, so the cross-block order is deterministic; raw
    // entries keep their append order *within* a block — overlapping raw
    // records must replay in arrival order for newest-wins semantics.
    let mut jobs = Vec::new();
    for (&block, entry) in unit.index.iter() {
        if entry.raw.is_empty() {
            jobs.extend(entry.ranges.iter().map(|e| (block, e.off(), e.chunk())));
        } else {
            jobs.extend(entry.raw.iter().map(|(off, c)| (block, *off, c.clone())));
        }
    }
    jobs
}

impl UpdateScheme for Tsue {
    fn on_update(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        req: UpdateReq,
    ) {
        let work = QueuedWork {
            block: req.block,
            off: req.off,
            chunk: req.data,
            op_id: req.op_id,
        };
        self.append(core, sim, osd, LogLayer::Data, work);
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
                from, data, tag, ..
            } => {
                // Peer DataLog replica: persist to device only (§4.1 — the
                // replica is stored solely on the SSD, no memory). If the
                // home dies before the append recycles, the rebuild reads
                // it back from here; which records those are, and that
                // this peer holds them, the home's own unit index says
                // (its units' `copies`, read by `unmerged_extents`).
                let (t, _) =
                    self.data_replica_region
                        .append(core, osd, sim.now(), data.len + RECORD_HEADER);
                reply_at(sim, t, osd, from, SchemeMsg::Ack { tag });
            }
            SchemeMsg::DeltaForward {
                data,
                kind: DeltaKind::DataDelta,
                tag: TAG_DELTA_REP,
                ..
            } => {
                // Second-parity copy: device persistence only.
                let need = data.len + RECORD_HEADER;
                let _ = self.delta_replica_region.append(core, osd, sim.now(), need);
            }
            SchemeMsg::DeltaForward {
                block,
                off,
                data,
                kind,
                parity_index,
                ..
            } => {
                // A data delta joins the DeltaLog under its source block;
                // a parity delta the ParityLog under the parity block.
                let (layer, block) = match kind {
                    DeltaKind::DataDelta => (LogLayer::Delta, block),
                    DeltaKind::ParityDelta => {
                        (LogLayer::Parity, core.parity_block(block, parity_index))
                    }
                };
                let work = QueuedWork {
                    block,
                    off,
                    chunk: data,
                    op_id: 0,
                };
                self.append(core, sim, osd, layer, work);
            }
            SchemeMsg::Ack { tag } => self.acks.on_ack(core, sim, osd, tag),
            // INVARIANT: TSUE peers exchange only the kinds above; a Control
            // frame here is a message-routing bug.
            SchemeMsg::Control { .. } => unreachable!("TSUE sends no Control messages"),
        }
    }

    fn on_timer(&mut self, core: &mut ClusterCore, sim: &mut Sim<Cluster>, osd: usize, tag: u64) {
        match tag & 0xF {
            TK_SEAL => {
                let layer = LogLayer::ALL[((tag >> 4) & 0xF) as usize];
                let pool = (tag >> 8) as usize;
                self.on_seal_timer(core, sim, osd, layer, pool);
            }
            TK_JOB_DONE => {
                // One recycle job of the unit completed: dispatch its next
                // queued job, or finish the unit when nothing remains.
                let uid = tag >> 4;
                if let Some(inf) = self.inflight.get_mut(&uid) {
                    inf.running = inf.running.saturating_sub(1);
                }
                self.dispatch_unit_jobs(core, sim, osd, uid);
            }
            // INVARIANT: every TSUE timer is scheduled by this scheme with a
            // TK_* tag, matched exhaustively above.
            _ => unreachable!("unknown TSUE timer tag {tag:#x}"),
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
        // The DataLog doubles as a read cache (§3.3.3).
        if self.overlay_data(block, off, len, buf) {
            ReadServe::CacheHit
        } else {
            ReadServe::Miss
        }
    }

    fn unmerged_extents(&self, mds: &Mds, block: BlockId) -> Vec<OwedExtent> {
        // A unit's copies are readable on its first peer that is alive and
        // has not failed since the forward; with none, the unit is lost.
        let src = |u: &LogUnit<BlockId>| {
            u.copies
                .iter()
                .find(|&&(p, failures)| mds.is_alive(p) && mds.failures(p) == failures)
                .map(|&(p, _)| p)
        };
        // Newest wins per extent, over every unit whose content the
        // rebuilt block can have: the ones replayed here, and the
        // recycled ones the reconstruct decoded — a younger unit may
        // finish recycling before an older one.
        let (mut owed, mut known) = (Vec::new(), Vec::new());
        for u in self.data_pool(block).iter_oldest_first() {
            let records = u.records(&block);
            match (u.state, src(u)) {
                (UnitState::Recycled, _) => {}
                (_, Some(src)) => owed.extend(records.iter().map(|(off, c)| OwedExtent {
                    off: *off,
                    len: c.len,
                    src,
                    bytes: None,
                })),
                (_, None) => continue,
            }
            known.extend(records);
        }
        // The known records land oldest first in a scratch index; the
        // extent's own record covers it, so the index ends as one entry
        // over it, a concatenation of the log's own handles.
        for e in &mut owed {
            let mut newest = RangeMap::new();
            for (off, chunk) in &known {
                let (from, to) = (e.off.max(*off), (e.off + e.len).min(off + chunk.len));
                if from < to {
                    newest.insert(from, chunk.slice(from - off, to - from));
                }
            }
            e.bytes = newest.iter().next().and_then(|n| n.chunk().bytes);
        }
        owed
    }

    fn forget_block(&mut self, block: BlockId) {
        let pools = &mut self.layers[LogLayer::Data as usize].pools;
        let n = pools.len();
        pools[pool_hash(block_key(block), n)].forget(&block);
    }

    fn flush(&mut self, core: &mut ClusterCore, sim: &mut Sim<Cluster>, osd: usize) {
        for layer in LogLayer::ALL {
            for pool in 0..self.layers[layer as usize].pools.len() {
                self.seal_and_recycle(core, sim, osd, layer, pool);
                self.layers[layer as usize].pools[pool].provision_active();
                self.drain_queue(core, sim, osd, layer, pool);
            }
        }
    }

    fn power_loss(
        &mut self,
        core: &mut ClusterCore,
        sim: &mut Sim<Cluster>,
        osd: usize,
        seed: u64,
    ) -> PowerLossReport {
        let now = sim.now();
        let mut rep = PowerLossReport::default();
        // Restart: scan every persisted log region. Fully-framed records
        // rebuild the in-memory indexes verbatim (which is why the unit
        // state needs no surgery); only the in-flight tail record is at
        // risk of a tear.
        for region in self.layers.iter_mut().flat_map(|l| &mut l.regions) {
            region.scan(core, osd, now);
        }
        self.data_replica_region.scan(core, osd, now);
        self.delta_replica_region.scan(core, osd, now);

        let Some((layer, block, off, len)) = self.tail.take() else {
            return rep;
        };
        rep.torn_detected = 1;
        let k = core.cfg.stripe.k;
        let m = core.cfg.stripe.m;
        let gstripe = core.global_stripe(block.file, block.stripe);
        let pool = self.pool_of(core, layer, block);
        let copies = self.replica_copies(core);
        let l = &mut self.layers[layer as usize];
        match layer {
            LogLayer::Data => {
                // The tear lands at a pseudo-random offset inside the
                // record; the framing checksum rejects *any* cut short of
                // the full frame, so the cut position never changes what
                // the scan recovers — a torn record is discarded whole.
                let cut = SplitRng::new(seed).below((len + RECORD_HEADER).max(1));
                debug_assert!(cut < len + RECORD_HEADER);
                if copies > 0 {
                    // Acked ⇒ replicated: re-fetch the record from the
                    // first live replica peer and re-append it locally.
                    // Content-wise the unit index already holds it.
                    let src = replica_peers(core, osd, copies).first().copied();
                    let t_fetch = match src {
                        Some((p, _)) => {
                            core.net
                                .transfer(now, core.osds[p].node, core.osds[osd].node, len)
                        }
                        None => now,
                    };
                    let _ = l.regions[pool].append(core, osd, t_fetch, len + RECORD_HEADER);
                    rep.torn_replayed = 1;
                } else {
                    // data_replicas == 1 opted out of the durability
                    // guarantee: the record is gone. Revert the log
                    // overlay to the pre-append store bytes so reads
                    // serve the *old* data — stale, but never torn.
                    let reverted = l.pools[pool]
                        .iter_oldest_first()
                        .filter(|u| {
                            matches!(u.state, UnitState::Empty | UnitState::Recyclable)
                                && u.index.contains_key(&block)
                        })
                        .last()
                        .map(|u| u.id);
                    if let Some(uid) = reverted {
                        let pre = core.osds[osd]
                            .peek_block_range(block, off, len)
                            .map(Chunk::real)
                            .unwrap_or_else(|| Chunk::ghost(len));
                        let locality = self.cfg.datalog_locality;
                        if let Some(unit) = l.pools[pool].unit_mut(uid) {
                            unit.append(block, off, pre, Discipline::Overwrite, locality, now);
                        }
                        rep.torn_discarded = 1;
                    } else {
                        // The unit already recycled: the content reached
                        // the block store before the power cut, so the
                        // torn log record is irrelevant.
                        rep.torn_replayed = 1;
                    }
                }
            }
            LogLayer::Delta if self.cfg.use_delta_log && m >= 2 => {
                // The TAG_DELTA_REP copy persists on the second parity
                // owner: re-fetch and re-append.
                let p2 = core.owner_of(gstripe, k + 1);
                let t_fetch = if p2 != osd && core.mds.is_alive(p2) {
                    core.net
                        .transfer(now, core.osds[p2].node, core.osds[osd].node, len)
                } else {
                    now
                };
                let _ = l.regions[pool].append(core, osd, t_fetch, len + RECORD_HEADER);
                rep.torn_replayed = 1;
            }
            LogLayer::Delta => {
                // No copy exists: the delta is lost before reaching any
                // parity log. Every parity of the stripe is now stale —
                // mark them for re-encode from data.
                for j in 0..m {
                    core.mds.mark_parity_dirty(gstripe, k + j);
                }
                rep.torn_discarded = 1;
            }
            LogLayer::Parity => {
                // ParityLog appends carry no replica; the lost combined
                // delta leaves this parity stale until re-encoded.
                core.mds.mark_parity_dirty(gstripe, block.role);
                rep.torn_discarded = 1;
            }
        }
        rep
    }

    fn backlog(&self) -> u64 {
        let inflight: u64 = self
            .inflight
            .values()
            .map(|i| i.jobs.len() as u64 + i.running)
            .sum();
        self.layers.iter().map(Layer::pending_work).sum::<u64>()
            + inflight
            + self.acks.outstanding() as u64
    }

    fn memory_usage(&self) -> u64 {
        self.layers.iter().map(Layer::memory_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_expose_the_ablation_ladder() {
        let base = TsueConfig::breakdown(0);
        assert!(!base.datalog_locality && !base.use_log_pool && !base.use_delta_log);
        assert_eq!(base.effective_max_units(), 2, "pre-O3 double-buffers");
        assert_eq!(base.effective_pools(), 1);
        let o3 = TsueConfig::breakdown(3);
        assert!(o3.use_log_pool && o3.paritylog_locality);
        assert_eq!(o3.effective_pools(), 1);
        let o5 = TsueConfig::breakdown(5);
        assert!(o5.use_delta_log);
        assert_eq!(o5.effective_pools(), 4);
    }

    #[test]
    fn hdd_config_follows_paper() {
        let h = TsueConfig::hdd_default();
        assert_eq!(h.data_replicas, 3);
        assert!(!h.use_delta_log);
        let s = TsueConfig::ssd_default();
        assert_eq!(s.data_replicas, 2);
        assert!(s.use_delta_log);
    }

    #[test]
    fn fresh_instance_has_no_backlog() {
        let t = Tsue::ssd();
        assert_eq!(t.backlog(), 0);
        assert_eq!(t.memory_usage(), 0);
    }

    /// Real bytes held by the units of one layer.
    fn real_bytes(t: &Tsue, layer: LogLayer) -> u64 {
        let index = t.layers[layer as usize]
            .pools
            .iter()
            .flat_map(LogPool::iter_oldest_first)
            .flat_map(|u| u.index.values());
        index
            .map(|e| {
                let merged = e.ranges.iter().filter(|r| r.is_real()).map(|r| r.len());
                let raw = e.raw.iter().filter_map(|(_, c)| c.bytes.as_ref());
                merged.sum::<u64>() + raw.map(|b| b.len() as u64).sum::<u64>()
            })
            .sum()
    }

    /// A small TSUE cluster after a run and a full drain.
    fn flushed(materialize: bool) -> Cluster {
        use tsue_ecfs::{run_workload, ClusterBuilder, ClusterConfig};
        let mut cfg = ClusterConfig::ssd_testbed(4, 2, 4);
        cfg.osds = 8;
        cfg.stripe = tsue_ec::StripeConfig::new(4, 2, 64 << 10);
        cfg.file_size_per_client = 1 << 20;
        cfg.materialize = materialize;
        cfg.seed = 21;
        let profile = tsue_trace::WorkloadProfile {
            name: "release".into(),
            update_fraction: 0.8,
            size_dist: vec![(512, 0.3), (4096, 0.4), (16384, 0.2), (40960, 0.1)],
            hot_fraction: 0.2,
            hot_access_prob: 0.7,
            skew_depth: 2,
            repeat_prob: 0.3,
            seq_run_prob: 0.15,
            align: 512,
        };
        let mut world = ClusterBuilder::from_config(cfg)
            .workload(&profile)
            .ops_per_client(80)
            .scheme_fn(|_| {
                let mut c = TsueConfig::ssd_default();
                c.unit_size = 256 << 10;
                c.seal_interval = tsue_sim::SECOND / 2;
                Box::new(Tsue::new(c))
            })
            .build();
        let mut sim: Sim<Cluster> = Sim::new();
        run_workload(&mut world, &mut sim, 3600 * tsue_sim::SECOND);
        world.flush_all(&mut sim);
        world
    }

    /// Recycle consumes a Delta or Parity unit's bytes, so the unit keeps
    /// only its extents: zero real bytes after a materialized drain, and
    /// the same scheme memory as the timing-only twin, whose units never
    /// held any. The DataLog keeps its bytes as the read cache.
    #[test]
    fn consumed_delta_and_parity_units_keep_extents_only() {
        let (real, ghost) = (flushed(true), flushed(false));
        let (mut cache, mut extents) = (0, 0);
        for (osd, (a, b)) in real.schemes.iter().zip(&ghost.schemes).enumerate() {
            let t = (&**a as &dyn std::any::Any)
                .downcast_ref::<Tsue>()
                .expect("every OSD runs TSUE");
            assert_eq!(real_bytes(t, LogLayer::Delta), 0, "OSD {osd} DeltaLog");
            assert_eq!(real_bytes(t, LogLayer::Parity), 0, "OSD {osd} ParityLog");
            assert_eq!(a.memory_usage(), b.memory_usage(), "OSD {osd} memory");
            cache += real_bytes(t, LogLayer::Data);
            extents += t.layers[LogLayer::Delta as usize].memory_bytes()
                + t.layers[LogLayer::Parity as usize].memory_bytes();
        }
        assert!(cache > 0, "the DataLog keeps its read cache");
        assert!(extents > 0, "recycled units keep their extents");
    }
}

//! ECFS — the erasure-coded cluster file system substrate.
//!
//! Rebuilds the paper's self-developed ECFS (§4): a metadata server
//! ([`Mds`]), object storage devices ([`Osd`], one per node, each with one
//! simulated SSD or HDD), and closed-loop clients replaying block traces.
//! Data is striped RS(k, m) across the cluster with per-stripe rotation.
//!
//! The *update scheme* — the thing the paper compares — is pluggable via
//! the [`UpdateScheme`] trait. Baselines (FO/FL/PL/PLR/PARIX/CoRD) live in
//! `tsue-schemes`; TSUE itself lives in `tsue-core`. ECFS guarantees every
//! scheme sees identical request streams, device models, and network
//! accounting, so comparisons measure the scheme and nothing else.
//!
//! # Simulation world
//!
//! [`Cluster`] is the DES world type. It splits into [`ClusterCore`]
//! (devices, network, MDS, clients, metrics) and the per-OSD schemes, so
//! a scheme called back with `&mut ClusterCore` can reach everything but
//! the other schemes. Schemes on different OSDs interact only through
//! scheduled messages, mirroring the real system's RPCs and keeping
//! borrows disjoint.

#![warn(missing_docs)]

pub mod builder;
pub mod client;
pub mod journal;
pub mod logregion;
pub mod mds;
pub mod metrics;
pub mod osd;
mod payload;
pub mod placement;
pub mod rangemap;
pub mod recovery;
pub mod registry;
pub mod resync;
pub mod scheme;
pub mod scrub;
pub mod verify;

pub use builder::ClusterBuilder;
pub use client::{client_issue, start_clients, ClientState};
pub use journal::{DegradedJournal, JournalEntry};
pub use mds::{FileId, FileMeta, Mds};
pub use metrics::{ArrivalRecord, ClusterMetrics};
pub use osd::{BlockId, Osd, StoredBlock};
pub use payload::{payload_at, payload_chunk, payload_into};
pub use placement::{Placement, PlacementKind};
pub use rangemap::{Discipline, RangeMap};
pub use recovery::{
    fail_node, fail_rack, reap_stalled_ops, run_recovery, start_recovery, PhaseStats,
    RecoveryReport, RecoveryState,
};
pub use registry::{
    MakeScheme, RegisteredScheme, SchemeError, SchemeFactory, SchemeParams, SchemeRegistry,
};
pub use resync::{
    heal_node, repair_all_dirty_parity, start_resync, HealStats, ResyncState, ResyncStats,
};
pub use scheme::{
    deliver_read, deliver_update, Chunk, InstantScheme, OwedExtent, PowerLossReport, SchemeMsg,
    UpdateReq, UpdateScheme,
};
pub use scrub::{run_full_scrub, start_scrub, ScrubState};
pub use tsue_device::IoKind;
pub use tsue_ec::RsCode;
pub use tsue_integrity::{checksum, IntegrityError, SplitRng};
pub use verify::{check_consistency, check_data_blocks, check_parity, reference_data};

use tsue_device::{Device, HddModel, SsdModel};
use tsue_ec::StripeConfig;
use tsue_net::{NetModel, NetSpec, NodeId, Topology};
use tsue_sim::{IdWindow, Sim, Time, MICROSECOND, MILLISECOND};

/// Which device model backs each OSD.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceKind {
    /// SSD with FTL wear accounting (the paper's §5.1–5.3 testbed).
    Ssd,
    /// Spinning disk (the paper's §5.4 testbed).
    Hdd,
}

impl DeviceKind {
    /// Lower-case token used by scenario files and CLI flags.
    pub fn token(&self) -> &'static str {
        match self {
            DeviceKind::Ssd => "ssd",
            DeviceKind::Hdd => "hdd",
        }
    }

    /// Parses the scenario/CLI token (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "ssd" => Some(DeviceKind::Ssd),
            "hdd" => Some(DeviceKind::Hdd),
            _ => None,
        }
    }
}

// Hand-written (rather than derived) so scenario JSON reads
// `"device": "ssd"` with the same tokens the CLI flags use.
impl serde::Serialize for DeviceKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.token().to_string())
    }
}

impl serde::Deserialize for DeviceKind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Str(s) => Self::parse(s)
                .ok_or_else(|| serde::DeError::unknown_variant("DeviceKind", s, &["ssd", "hdd"])),
            other => Err(serde::DeError::mismatch("DeviceKind", "string", other)),
        }
    }
}

/// Static configuration of a cluster experiment.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of OSD nodes (the paper uses 16).
    pub osds: usize,
    /// Number of closed-loop clients.
    pub clients: usize,
    /// Stripe geometry (k, m, block size).
    pub stripe: StripeConfig,
    /// SSD or HDD backing.
    pub device: DeviceKind,
    /// Network fabric parameters.
    pub net: NetSpec,
    /// Fabric shape: flat non-blocking switch or racks behind
    /// oversubscribed ToR uplinks.
    pub topology: Topology,
    /// Block placement policy (rack-oblivious vs rack-aware).
    pub placement: PlacementKind,
    /// Bytes of file data owned by each client.
    pub file_size_per_client: u64,
    /// Maintain real block/log bytes (correctness runs) or timing only
    /// (performance runs).
    pub materialize: bool,
    /// Record per-extent arrival order (needed by correctness tests).
    pub record_arrivals: bool,
    /// Maintain per-page block checksums and verify them on every read
    /// (see [`tsue_integrity`]). Content checksums exist only when
    /// `materialize` is also set; timing-only runs carry the flag but
    /// store no sums, so it costs nothing there.
    pub checksums: bool,
    /// Background scrub rate in MiB/s per OSD; `0` disables scrubbing.
    /// The scrubber sweeps every materialized block, verifies its
    /// checksums, and repairs corrupt pages from the stripe's survivors.
    pub scrub_mb_s: u64,
    /// Master seed for workload generation.
    pub seed: u64,
}

impl ClusterConfig {
    /// The paper's SSD testbed shape: 16 OSDs, 25 Gb/s Ethernet, RS(k, m),
    /// 1 MiB blocks. Capacity and client count are experiment-specific.
    pub fn ssd_testbed(k: usize, m: usize, clients: usize) -> Self {
        ClusterConfig {
            osds: 16,
            clients,
            stripe: StripeConfig::new(k, m, 1 << 20),
            device: DeviceKind::Ssd,
            net: NetSpec::ethernet_25g(),
            topology: Topology::flat(),
            placement: PlacementKind::Flat,
            file_size_per_client: 16 << 20,
            materialize: false,
            record_arrivals: false,
            checksums: true,
            scrub_mb_s: 0,
            seed: 42,
        }
    }

    /// The paper's HDD testbed shape: 16 OSDs, 40 Gb/s InfiniBand.
    pub fn hdd_testbed(k: usize, m: usize, clients: usize) -> Self {
        ClusterConfig {
            device: DeviceKind::Hdd,
            net: NetSpec::infiniband_40g(),
            ..Self::ssd_testbed(k, m, clients)
        }
    }

    /// Total user-data bytes across all clients.
    pub fn total_data(&self) -> u64 {
        self.file_size_per_client * self.clients as u64
    }
}

/// Everything in the cluster except the scheme slots.
pub struct ClusterCore {
    /// Static configuration.
    pub cfg: ClusterConfig,
    /// The Reed–Solomon code shared by all nodes.
    pub rs: RsCode,
    /// Block placement policy (see [`placement`]).
    pub placement: Placement,
    /// The network fabric.
    pub net: NetModel,
    /// One OSD per storage node.
    pub osds: Vec<Osd>,
    /// The metadata server.
    pub mds: Mds,
    /// Closed-loop clients.
    pub clients: Vec<ClientState>,
    /// Experiment counters.
    pub metrics: ClusterMetrics,
    /// In-flight client operations.
    pub pending: PendingTable,
    /// Clients stop issuing at this virtual time.
    pub stop_at: Option<Time>,
    /// The online recovery engine's work queue and statistics.
    pub recovery: RecoveryState,
    /// Parked degraded-write extents awaiting replay (see [`journal`]).
    pub journal: DegradedJournal,
    /// Heal-time re-sync bookkeeping (see [`resync`]).
    pub resync: ResyncState,
    /// Background scrub cursor and statistics (see [`scrub`]).
    pub scrub: ScrubState,
}

/// The DES world: core + pluggable per-OSD schemes.
pub struct Cluster {
    /// Shared substrate.
    pub core: ClusterCore,
    /// One scheme instance per OSD, borrowed beside `core` for each
    /// callback (scheme callbacks see only the core).
    pub schemes: Vec<Box<dyn UpdateScheme>>,
}

impl Cluster {
    /// Builds a cluster, creates one file per client, and pre-populates all
    /// stripes (so every trace write is an *update*, matching the paper's
    /// replay methodology). Device/network stats are reset afterwards.
    ///
    /// `make_scheme` constructs the update scheme for each OSD index.
    pub fn new<F>(cfg: ClusterConfig, mut make_scheme: F) -> Self
    where
        F: FnMut(usize) -> Box<dyn UpdateScheme>,
    {
        // INVARIANT: supported configs keep 1 <= k, 1 <= m, k + m <= 255
        // (GF(256) code width); a bad stripe shape is a configuration bug
        // worth stopping at construction.
        let rs = RsCode::new(cfg.stripe.k, cfg.stripe.m).expect("valid RS parameters");
        let placement = cfg.placement.build(cfg.osds, cfg.topology.racks);
        assert!(
            cfg.osds >= cfg.stripe.k + cfg.stripe.m,
            "cluster smaller than stripe width"
        );
        // Per-OSD device capacity: the block footprint (data + parity)
        // plus a generous allowance for scheme log regions, spread over
        // the OSDs. The device's page tables follow the touched pages, so
        // oversizing costs no memory for untouched space.
        let raw = cfg.total_data() as f64
            * ((cfg.stripe.k + cfg.stripe.m) as f64 / cfg.stripe.k as f64)
            / cfg.osds as f64;
        let capacity = (raw * 2.0) as u64 + (768 << 20);
        let rack_map = cfg.topology.rack_map(cfg.osds, cfg.clients);
        let net = NetModel::with_topology(cfg.net, cfg.topology, rack_map);
        let osds = (0..cfg.osds)
            .map(|n| {
                let device = match cfg.device {
                    DeviceKind::Ssd => Device::new_ssd(SsdModel::datacenter(capacity)),
                    DeviceKind::Hdd => Device::new_hdd(HddModel::nearline(capacity)),
                };
                let mut osd = Osd::new(n, device);
                osd.checksums = cfg.checksums;
                osd
            })
            .collect();
        let schemes = (0..cfg.osds).map(&mut make_scheme).collect();
        let core = ClusterCore {
            rs,
            placement,
            net,
            osds,
            mds: Mds::new(cfg.osds),
            clients: Vec::new(),
            metrics: ClusterMetrics::new(cfg.record_arrivals),
            pending: PendingTable::default(),
            stop_at: None,
            recovery: RecoveryState::default(),
            journal: DegradedJournal::default(),
            resync: ResyncState::default(),
            scrub: ScrubState::default(),
            cfg,
        };
        let mut world = Cluster { schemes, core };
        world.provision_files();
        world
    }

    /// Creates and pre-populates one file per client.
    fn provision_files(&mut self) {
        let core = &mut self.core;
        for c in 0..core.cfg.clients {
            let file = core.create_file(core.cfg.file_size_per_client);
            let gen_seed = core.cfg.seed.wrapping_mul(0x9e3779b97f4a7c15) ^ c as u64;
            core.clients
                .push(ClientState::new(c, core.cfg.osds + c, file, gen_seed));
        }
        // Setup I/O must not pollute experiment stats.
        for osd in &mut core.osds {
            osd.reset_stats();
        }
        core.net.reset_counters();
    }

    /// Total pending scheme work across *live* OSDs (0 = all logs
    /// drained). A dead node's logs are unreachable and irrelevant — its
    /// blocks are rebuilt from survivors, not from its logs.
    pub fn total_scheme_backlog(&self) -> u64 {
        self.schemes
            .iter()
            .enumerate()
            .filter(|&(osd, _)| self.core.mds.is_alive(osd))
            .map(|(_, s)| s.backlog())
            .sum()
    }

    /// Re-issues `flush` to every live OSD's scheme: the one drain pump,
    /// shared by [`Cluster::flush_all`] and the fault engine's gates.
    pub fn flush_live(&mut self, sim: &mut Sim<Cluster>) {
        for (osd, s) in self.schemes.iter_mut().enumerate() {
            if self.core.mds.is_alive(osd) {
                s.flush(&mut self.core, sim, osd);
            }
        }
    }

    /// Asks every scheme to drain its logs, then runs the simulation until
    /// all backlogs hit zero. Returns the drain-completion time.
    ///
    /// The drain proceeds in short strides, re-issuing `flush` after each
    /// one so multi-stage pipelines (data → delta → parity) cascade at
    /// device speed instead of waiting for background seal timers.
    pub fn flush_all(&mut self, sim: &mut Sim<Cluster>) -> Time {
        let mut idle_strides = 0u32;
        loop {
            self.flush_live(sim);
            if self.total_scheme_backlog() == 0 {
                break;
            }
            let before = self.total_scheme_backlog();
            let had_events = sim.pending() > 0;
            sim.run_until(self, sim.now() + DRAIN_STRIDE);
            if self.total_scheme_backlog() >= before && !had_events {
                idle_strides += 1;
                assert!(
                    idle_strides < 3,
                    "flush stalled with backlog {}",
                    self.total_scheme_backlog()
                );
            } else {
                idle_strides = 0;
            }
        }
        sim.now()
    }

    /// Delivers a power loss to `node`'s scheme — torn log tail, restart,
    /// log scan, replica replay — and folds the outcome into the metrics.
    /// The node stays alive (a restart, not a kill).
    pub fn power_loss(
        &mut self,
        sim: &mut Sim<Cluster>,
        node: usize,
        seed: u64,
    ) -> PowerLossReport {
        let report = self.schemes[node].power_loss(&mut self.core, sim, node, seed);
        self.core.metrics.torn_detected += report.torn_detected;
        self.core.metrics.torn_replayed += report.torn_replayed;
        self.core.metrics.torn_discarded += report.torn_discarded;
        report
    }

    /// Sums device stats over all OSDs.
    pub fn device_stats(&self) -> tsue_device::DeviceStats {
        let mut total = tsue_device::DeviceStats::default();
        for osd in &self.core.osds {
            total.merge(osd.device.stats());
        }
        total
    }

    /// Peak and mean scheme memory across OSDs, in bytes.
    pub fn scheme_memory(&self) -> (u64, u64) {
        let per: Vec<u64> = self.schemes.iter().map(|s| s.memory_usage()).collect();
        let max = per.iter().copied().max().unwrap_or(0);
        let mean = if per.is_empty() {
            0
        } else {
            per.iter().sum::<u64>() / per.len() as u64
        };
        (max, mean)
    }
}

impl ClusterCore {
    /// Network node id of a client.
    #[inline]
    pub fn client_node(&self, client: usize) -> NodeId {
        self.cfg.osds + client
    }

    /// OSD hosting `role` of global stripe `stripe`: the placement
    /// policy's home unless recovery rebuilt the block elsewhere (the MDS
    /// rehome table overrides).
    #[inline]
    pub fn owner_of(&self, stripe: u64, role: usize) -> usize {
        let node = self
            .placement
            .node_for(stripe, role, self.cfg.stripe.blocks_per_stripe());
        self.mds.rehomed(stripe, role).unwrap_or(node)
    }

    /// The `parity_index`-th parity block of the stripe `block` is in.
    #[inline]
    pub fn parity_block(&self, block: BlockId, parity_index: usize) -> BlockId {
        BlockId {
            role: self.cfg.stripe.k + parity_index,
            ..block
        }
    }

    /// In-place parity merge on `osd`: a read-XOR-write of `delta` into
    /// `pblock` at `off` starting at `now`, with the XOR's CPU time
    /// charged between the two device ops. Returns the completion time.
    pub fn xor_into_parity(
        &mut self,
        osd: usize,
        now: Time,
        pblock: BlockId,
        off: u64,
        delta: &Chunk,
    ) -> Time {
        let compute = self.xor_time(delta.len);
        self.osds[osd].xor_block_range(now, pblock, off, delta.len, delta.bytes.as_ref(), compute)
    }

    /// Charges the decode of `[off, off+len)` of `block` from the
    /// survivors `sources`: for each `(role, owner)` in order, a device
    /// read of that range of the role's block on `owner` starting at
    /// `now` and its transfer to network node `dest`, then `k` GF
    /// multiply-accumulates over the range once the last one arrives.
    /// Returns when the decode is done. Moves no bytes
    /// (`ClusterCore::reconstruct` writes them).
    pub fn charge_decode(
        &mut self,
        now: Time,
        block: BlockId,
        sources: &[(usize, usize)],
        off: u64,
        len: u64,
        dest: NodeId,
    ) -> Time {
        let mut ready = now;
        for &(role, owner) in sources {
            let src = BlockId { role, ..block };
            let t_read = self.osds[owner].block_io(now, IoKind::Read, src, off, len);
            let arrive = self.net.transfer(t_read, self.osds[owner].node, dest, len);
            ready = ready.max(arrive);
        }
        ready + self.gf_time(len * self.cfg.stripe.k as u64)
    }

    /// `[off, off+len)` of `block` decoded from the first `k` survivors
    /// of `sources` (`(role, owner)` pairs): the linear combination
    /// [`RsCode::decode_row`] names, over snapshots of the survivors'
    /// ranges ([`Osd::peek_block_range`]), generated where it is read and
    /// never buffered. Declared a store read, so no page views it. The one
    /// decode of the data plane: a rebuild, a scrub page repair and a
    /// parity re-encode all write it. `None` in timing-only runs.
    ///
    /// # Panics
    /// Panics unless `sources` starts with `k` distinct roles other than
    /// `block.role`, each hosted by its owner.
    pub(crate) fn reconstruct(
        &self,
        block: BlockId,
        sources: &[(usize, usize)],
        off: u64,
        len: u64,
    ) -> Option<tsue_buf::Bytes> {
        if !self.cfg.materialize {
            return None;
        }
        let roles: Vec<usize> = sources.iter().map(|&(role, _)| role).collect();
        // INVARIANT: every caller gathers k distinct survivors of the
        // stripe, each from the OSD that hosts it, before it decodes.
        let row = self
            .rs
            .decode_row(&roles, block.role)
            .expect("k distinct survivors");
        let terms = row
            .into_iter()
            .zip(sources)
            .map(|(c, &(role, owner))| {
                let src = BlockId { role, ..block };
                let d = self.osds[owner].peek_block_range(src, off, len);
                (c, 0, d.expect("a hosted survivor"))
            })
            .collect();
        Some(scheme::Combination::deferred_at_depth(
            len as usize,
            terms,
            osd::MAX_VIEW_DEPTH + 1,
        ))
    }

    /// CPU time to XOR `bytes`.
    #[inline]
    pub fn xor_time(&self, bytes: u64) -> Time {
        (bytes * XOR_NS_PER_KIB).div_ceil(1024).max(200)
    }

    /// CPU time for a GF multiply-accumulate over `bytes`.
    #[inline]
    pub fn gf_time(&self, bytes: u64) -> Time {
        (bytes * GF_NS_PER_KIB).div_ceil(1024).max(300)
    }

    /// Creates a file of `size` bytes: registers stripes with the MDS,
    /// allocates blocks on the OSDs, and pre-populates content (zeroes) so
    /// subsequent writes are updates.
    pub fn create_file(&mut self, size: u64) -> FileId {
        let stripes = size.div_ceil(self.cfg.stripe.stripe_data_bytes());
        let file = self.mds.register_file(size, stripes);
        let meta = self.mds.file(file).clone();
        let bs = self.cfg.stripe.block_size;
        for s in 0..stripes {
            let gstripe = meta.base_stripe + s;
            for role in 0..self.cfg.stripe.blocks_per_stripe() {
                let owner = self.owner_of(gstripe, role);
                let block = BlockId {
                    file,
                    stripe: s,
                    role,
                };
                self.osds[owner].provision_block(block, bs, self.cfg.materialize);
            }
        }
        self.mds.mark_prepopulated(file);
        file
    }

    /// Global stripe index for `(file, stripe-within-file)`.
    #[inline]
    pub fn global_stripe(&self, file: FileId, stripe: u64) -> u64 {
        self.mds.file(file).base_stripe + stripe
    }

    /// Sends a scheme message from one OSD to another, arriving after the
    /// modeled network transfer of `payload_bytes`.
    pub fn send_to_scheme(
        &mut self,
        sim: &mut Sim<Cluster>,
        from_osd: usize,
        to_osd: usize,
        payload_bytes: u64,
        msg: SchemeMsg,
    ) {
        let arrival = self.net.transfer(
            sim.now(),
            self.osds[from_osd].node,
            self.osds[to_osd].node,
            payload_bytes,
        );
        if matches!(msg, SchemeMsg::DeltaForward { .. }) {
            self.metrics
                .obs
                .delta_forwarded(from_osd, to_osd, sim.now(), arrival);
        }
        sim.schedule_at(arrival, move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
            scheme::deliver_msg(w, sim, to_osd, msg);
        });
    }

    /// Schedules a scheme timer callback on `osd` after `delay`.
    pub fn scheme_timer(&mut self, sim: &mut Sim<Cluster>, osd: usize, delay: Time, tag: u64) {
        sim.schedule(delay, move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
            scheme::deliver_timer(w, sim, osd, tag);
        });
    }

    /// Completes the synchronous part of one update extent: acks the client
    /// over the network; the client issues its next op when all extents of
    /// the op have acked.
    pub fn extent_done(&mut self, sim: &mut Sim<Cluster>, osd: usize, op_id: u64) {
        let Some(client) = self.pending.client_of(op_id) else {
            return;
        };
        self.metrics.obs.extent_service_done(op_id, osd, sim.now());
        let arrival = self.net.transfer(
            sim.now(),
            self.osds[osd].node,
            self.client_node(client),
            ACK_BYTES,
        );
        self.metrics.obs.ack_sent(op_id, client, sim.now(), arrival);
        sim.schedule_at(arrival, move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
            client::client_ack(w, sim, op_id);
        });
    }

    /// Whether the experiment window is still open.
    pub fn accepting(&self, now: Time) -> bool {
        self.stop_at.is_none_or(|t| now < t)
    }
}

/// Modeled XOR throughput cost of delta/parity math, ns per KiB.
const XOR_NS_PER_KIB: Time = 60;

/// Modeled GF(2^8) multiply-accumulate cost, ns per KiB.
const GF_NS_PER_KIB: Time = 280;

/// Stride of every scheme drain pump: [`Cluster::flush_all`] and the
/// fault engine's gates re-issue `flush` this often until backlogs drain.
pub const DRAIN_STRIDE: Time = 20 * MILLISECOND;

/// Ack message size on the wire.
pub const ACK_BYTES: u64 = 64;

/// Modeled failover penalty: how long a client (or peer scheme) waits
/// before treating a request to a dead node as failed-over — stands in
/// for connection-refused detection plus the MDS redirect round-trip.
pub const FAILOVER_DELAY: Time = 500 * MICROSECOND;

/// Completes one extent of `op_id` after [`FAILOVER_DELAY`] — the shared
/// "request hit a dead node, client gives up on this extent" path used
/// by degraded writes and unservable reads.
pub fn fail_over_ack(sim: &mut Sim<Cluster>, op_id: u64) {
    sim.schedule(
        FAILOVER_DELAY,
        move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
            client::client_ack(w, sim, op_id);
        },
    );
}

/// Tracks in-flight client operations.
#[derive(Default)]
pub struct PendingTable {
    next_id: u64,
    ops: IdWindow<PendingOp>,
}

/// One in-flight client op (possibly spanning several extents).
pub struct PendingOp {
    /// Issuing client.
    pub client: usize,
    /// Extents still outstanding.
    pub remaining: usize,
    /// Virtual time the op was issued.
    pub issued_at: Time,
    /// True for updates, false for reads.
    pub is_write: bool,
    /// At least one extent parked in the degraded-write journal (or
    /// failed over) because its home OSD was dead — completions classify
    /// as [`tsue_obs::OpClass::DegradedWrite`] when set on a write.
    pub degraded: bool,
}

impl PendingTable {
    /// Registers a new op; returns its id.
    pub fn insert(
        &mut self,
        client: usize,
        extents: usize,
        issued_at: Time,
        is_write: bool,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.ops.insert(
            id,
            PendingOp {
                client,
                remaining: extents,
                issued_at,
                is_write,
                degraded: false,
            },
        );
        id
    }

    /// Client that issued `op`, if still pending.
    pub fn client_of(&self, op: u64) -> Option<usize> {
        self.ops.get(op).map(|p| p.client)
    }

    /// Issue time of `op`, if still pending.
    pub fn issued_at(&self, op: u64) -> Option<Time> {
        self.ops.get(op).map(|p| p.issued_at)
    }

    /// Flags `op` as degraded (an extent parked or failed over).
    pub fn mark_degraded(&mut self, op: u64) {
        if let Some(p) = self.ops.get_mut(op) {
            p.degraded = true;
        }
    }

    /// Decrements the remaining-extent count; returns the finished op when
    /// it reaches zero.
    pub fn complete_extent(&mut self, op: u64) -> Option<PendingOp> {
        let entry = self.ops.get_mut(op)?;
        entry.remaining -= 1;
        if entry.remaining == 0 {
            self.ops.remove(op)
        } else {
            None
        }
    }

    /// Number of in-flight ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Ops issued at or before `deadline`, oldest first — candidates for
    /// the failover watchdog's forced completion.
    pub fn stalled(&self, deadline: Time) -> Vec<u64> {
        let mut ids: Vec<(Time, u64)> = self
            .ops
            .iter()
            .filter(|(_, op)| op.issued_at <= deadline)
            .map(|(id, op)| (op.issued_at, id))
            .collect();
        ids.sort_unstable();
        ids.into_iter().map(|(_, id)| id).collect()
    }

    /// Removes an op outright regardless of outstanding extents (failover
    /// watchdog). Later extent acks for it become no-ops.
    pub fn force_remove(&mut self, op: u64) -> Option<PendingOp> {
        self.ops.remove(op)
    }
}

/// Convenience: run a fully-configured cluster for `duration` of virtual
/// time with all clients active, then drain in-flight ops. Returns the
/// virtual time at which the last op completed.
pub fn run_workload(world: &mut Cluster, sim: &mut Sim<Cluster>, duration: Time) -> Time {
    world.core.stop_at = Some(sim.now() + duration);
    world.core.metrics.window_start = sim.now();
    start_clients(world, sim);
    sim.run_while(world, |w| !w.core.pending.is_empty());
    sim.now().max(world.core.stop_at.unwrap_or(0))
}

/// A tiny latency floor for in-memory operations (index updates, buffer
/// copies) on the OSD CPU.
pub const MEM_OP: Time = MICROSECOND;

#[cfg(test)]
mod tests {
    use super::*;
    use tsue_buf::Bytes;

    /// The one deferred decode against the borrowed reference: on an
    /// RS(4,2) stripe of 16 KiB blocks whose pages view client payloads,
    /// hold bytes of their own or are absent, [`ClusterCore::reconstruct`]
    /// equals [`RsCode::reconstruct_one`] over `peek_into` copies for
    /// every target role and every `k`-subset of the other roles, over
    /// the whole block and over a range that straddles pages. From the
    /// data roles in order, a parity target is Eq. (1): `encode_into`.
    #[test]
    fn reconstruct_matches_the_borrowed_reference_decode() {
        const BLOCK: usize = 4 * 4096;
        let mut world = ClusterBuilder::ssd(4, 2, 1)
            .materialize(true)
            .block_size(BLOCK as u64)
            .file_size_per_client(4 * BLOCK as u64)
            .scheme_fn(|_| Box::new(InstantScheme::default()))
            .build();
        let core = &mut world.core;
        let gstripe = core.global_stripe(0, 0);
        let block = |role| BlockId {
            file: 0,
            stripe: 0,
            role,
        };
        let owners: Vec<usize> = (0..6).map(|role| core.owner_of(gstripe, role)).collect();
        // Block 3 is never written: every page absent.
        let writes = [
            (0, 0, payload_chunk(1, 0, BLOCK as u64, true)),
            (1, 4096, Chunk::real(vec![7u8; 8192])),
            (2, 0, payload_chunk(2, 0, 4096, true)),
            (2, 9000, payload_chunk(3, 0, 1000, true)),
            (4, 100, Chunk::real(vec![0x5a; 5000])),
            (5, 8192, payload_chunk(4, 0, 8192, true)),
        ];
        for (role, off, data) in writes {
            let data: Bytes = data.bytes.expect("materialized");
            core.osds[owners[role]].poke_block_range(block(role), off, &data);
        }
        let full: Vec<Vec<u8>> = (0..6)
            .map(|role| {
                let mut d = vec![0u8; BLOCK];
                assert!(core.osds[owners[role]].peek_into(block(role), 0, &mut d));
                d
            })
            .collect();
        let decode = |sources: &[(usize, usize)], target, off: usize, len: usize| {
            let fresh = core
                .reconstruct(block(target), sources, off as u64, len as u64)
                .expect("materialized");
            assert!(fresh.as_slice().is_none(), "a recipe, never buffered");
            assert!(fresh.depth() > osd::MAX_VIEW_DEPTH, "no page views it");
            let mut got = vec![0u8; len];
            fresh.read_into(0, &mut got);
            got
        };

        for (off, len) in [(0, BLOCK), (4000, 6000)] {
            for target in 0..6 {
                let others: Vec<usize> = (0..6).filter(|&r| r != target).collect();
                for &left_out in &others {
                    let sources: Vec<(usize, usize)> = others
                        .iter()
                        .filter(|&&r| r != left_out)
                        .map(|&r| (r, owners[r]))
                        .collect();
                    let shards: Vec<(usize, &[u8])> = sources
                        .iter()
                        .map(|&(r, _)| (r, &full[r][off..off + len]))
                        .collect();
                    let mut want = vec![0u8; len];
                    core.rs.reconstruct_one(&shards, target, &mut want).unwrap();
                    assert!(
                        decode(&sources, target, off, len) == want,
                        "target {target} without {left_out} at {off}+{len}"
                    );
                }
            }
        }

        let data: Vec<&[u8]> = full[..4].iter().map(Vec::as_slice).collect();
        let mut parity = vec![Vec::new(); 2];
        core.rs.encode_into(&data, &mut parity).unwrap();
        let sources: Vec<(usize, usize)> = (0..4).map(|r| (r, owners[r])).collect();
        for (j, p) in parity.iter().enumerate() {
            assert!(decode(&sources, 4 + j, 0, BLOCK) == *p, "parity {j}");
        }
    }
}

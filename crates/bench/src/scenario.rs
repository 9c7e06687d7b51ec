//! The declarative scenario API.
//!
//! A [`ScenarioSpec`] is the serializable description of one experiment
//! run: testbed/device, fabric, RS shape, client count, trace, scheme
//! (by [`SchemeRegistry`] name, with per-scheme knobs), window, and
//! seed. Specs round-trip through JSON, so "add a scenario" is a data
//! change — drop a file under `scenarios/` and `tsuectl run` it —
//! instead of a code change, and every [`RunResult`] ships with the
//! spec that reproduces it ([`ScenarioOutcome`]).
//!
//! ```
//! use tsue_bench::{default_registry, ScenarioSpec};
//!
//! let spec: ScenarioSpec = serde_json::from_str(
//!     r#"{
//!         "name": "doc-smoke",
//!         "device": "ssd",
//!         "k": 4, "m": 2, "clients": 4,
//!         "trace": "ten",
//!         "scheme": {"name": "tsue", "knobs": {"max_units": 2}},
//!         "duration_ms": 100,
//!         "file_mb": 4
//!     }"#,
//! )
//! .unwrap();
//! spec.validate(&default_registry()).unwrap();
//! ```

use crate::{mem_probe_start, RunResult, TraceKind};
use serde::{Deserialize, Serialize, Value};
use tsue_core::register_tsue;
use tsue_ecfs::{
    run_workload, Cluster, ClusterBuilder, DeviceKind, PlacementKind, RsCode, SchemeRegistry,
};
use tsue_fault::{run_plan_to_completion, EngineConfig, FaultEvent, FaultPlan};
use tsue_net::{NetSpec, Topology};
use tsue_schemes::register_baselines;
use tsue_sim::{Sim, Time, MILLISECOND, SECOND};

/// A registry populated with every scheme this workspace ships: the six
/// baselines from `tsue_schemes` plus TSUE from `tsue_core`.
pub fn default_registry() -> SchemeRegistry {
    let mut reg = SchemeRegistry::new();
    register_baselines(&mut reg);
    register_tsue(&mut reg);
    reg
}

/// Scheme selection within a scenario: a registry name plus the
/// free-form knob object handed to that scheme's factory.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SchemeSpec {
    /// Registry lookup name (`"fo"`, `"pl"`, `"tsue"`, …).
    pub name: String,
    /// Per-scheme knobs; `None`/absent means defaults.
    pub knobs: Option<Value>,
}

impl SchemeSpec {
    /// A scheme with default knobs.
    pub fn named(name: &str) -> Self {
        SchemeSpec {
            name: name.to_string(),
            knobs: None,
        }
    }

    /// A scheme with an explicit knob object.
    pub fn with_knobs(name: &str, knobs: Value) -> Self {
        SchemeSpec {
            name: name.to_string(),
            knobs: Some(knobs),
        }
    }

    /// TSUE with device-class defaults.
    pub fn tsue() -> Self {
        Self::named("tsue")
    }

    /// The knob object to hand a factory (`Null` when unset).
    pub fn knobs_value(&self) -> Value {
        self.knobs.clone().unwrap_or(Value::Null)
    }

    /// All SSD contenders in the paper's Fig. 5 order (TSUE last).
    pub fn fig5_lineup() -> Vec<SchemeSpec> {
        ["fo", "pl", "plr", "parix", "cord", "tsue"]
            .into_iter()
            .map(Self::named)
            .collect()
    }
}

/// One experiment run, declaratively.
///
/// Optional fields default to the paper's testbed shape; see the
/// accessor of the same name for each default. Unknown JSON fields are
/// rejected, so a typo'd key fails the load instead of silently running
/// the default.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario identifier (also names emitted result files).
    pub name: String,
    /// Device class backing every OSD.
    pub device: DeviceKind,
    /// RS data blocks.
    pub k: usize,
    /// RS parity blocks.
    pub m: usize,
    /// Closed-loop clients.
    pub clients: usize,
    /// Workload trace (`"ali"`, `"ten"`, `"src10"` … `"mds0"`).
    pub trace: TraceKind,
    /// Update scheme under test.
    pub scheme: SchemeSpec,
    /// OSD node count; default 16 (the paper's clusters).
    pub osds: Option<usize>,
    /// Block size in KiB; default 1024 (1 MiB blocks).
    pub block_kib: Option<u64>,
    /// Fabric override; default 25 Gb/s Ethernet on SSD, 40 Gb/s
    /// InfiniBand on HDD.
    pub net: Option<NetSpec>,
    /// Fabric shape: a profile name (`"rack4"`) or a full
    /// `{racks, oversubscription, uplink_latency}` object; default flat.
    pub topology: Option<Topology>,
    /// Block placement policy (`"flat"` | `"rack-aware"`); default flat.
    pub placement: Option<PlacementKind>,
    /// Scripted faults (timed node/rack kills, slowdowns, heals) driving
    /// online recovery during the run; default none.
    pub faults: Option<Vec<FaultEvent>>,
    /// Measured window in virtual ms; default 2000.
    pub duration_ms: Option<u64>,
    /// Fixed-work mode: each client issues exactly this many ops and
    /// the run ends when all complete; overrides `duration_ms`.
    pub ops_per_client: Option<u64>,
    /// File size per client in MiB; default 12.
    pub file_mb: Option<u64>,
    /// Workload seed; default 42.
    pub seed: Option<u64>,
    /// Drain logs afterwards and include recycle I/O in the totals;
    /// default false.
    pub flush_after: Option<bool>,
    /// Maintain real block/log bytes (correctness runs) instead of
    /// timing-only accounting; default false.
    pub materialize: Option<bool>,
    /// Maintain per-page block checksums and verify them on reads and
    /// scrub sweeps (only effective with `materialize`); default true.
    pub checksums: Option<bool>,
    /// Background scrub rate in MiB/s per OSD; `0` (the default)
    /// disables the scrubber. A non-zero rate also runs one full
    /// authoritative sweep after the workload and fault plan complete.
    pub scrub_mb_s: Option<u64>,
    /// Per-node/per-rack metric sampling cadence in virtual ms; default
    /// 250, `0` disables the time series. The probe only reads counters,
    /// so the cadence cannot perturb simulated outcomes.
    pub obs_cadence_ms: Option<u64>,
}

impl ScenarioSpec {
    /// An SSD scenario of the given shape with all options defaulted.
    pub fn ssd(
        name: impl Into<String>,
        trace: TraceKind,
        k: usize,
        m: usize,
        clients: usize,
        scheme: SchemeSpec,
    ) -> Self {
        ScenarioSpec {
            name: name.into(),
            device: DeviceKind::Ssd,
            k,
            m,
            clients,
            trace,
            scheme,
            osds: None,
            block_kib: None,
            net: None,
            topology: None,
            placement: None,
            faults: None,
            duration_ms: None,
            ops_per_client: None,
            file_mb: None,
            seed: None,
            flush_after: None,
            materialize: None,
            checksums: None,
            scrub_mb_s: None,
            obs_cadence_ms: None,
        }
    }

    /// An HDD scenario of the given shape with all options defaulted.
    pub fn hdd(
        name: impl Into<String>,
        trace: TraceKind,
        k: usize,
        m: usize,
        clients: usize,
        scheme: SchemeSpec,
    ) -> Self {
        ScenarioSpec {
            device: DeviceKind::Hdd,
            ..Self::ssd(name, trace, k, m, clients, scheme)
        }
    }

    /// A conventional name for a sweep point:
    /// `{scheme}-{trace}-rs{k}-{m}-c{clients}`.
    pub fn auto_name(
        scheme: &SchemeSpec,
        trace: TraceKind,
        k: usize,
        m: usize,
        clients: usize,
    ) -> String {
        format!("{}-{}-rs{k}-{m}-c{clients}", scheme.name, trace.token())
    }

    /// OSD count with its default applied.
    pub fn osds(&self) -> usize {
        self.osds.unwrap_or(16)
    }

    /// Block size in bytes with its default applied.
    pub fn block_bytes(&self) -> u64 {
        self.block_kib.unwrap_or(1024) << 10
    }

    /// Fabric with the device-class default applied.
    pub fn net_spec(&self) -> NetSpec {
        self.net.unwrap_or(match self.device {
            DeviceKind::Ssd => NetSpec::ethernet_25g(),
            DeviceKind::Hdd => NetSpec::infiniband_40g(),
        })
    }

    /// Fabric shape with its default (flat) applied.
    pub fn topology(&self) -> Topology {
        self.topology.unwrap_or_default()
    }

    /// Placement policy with its default (flat) applied.
    pub fn placement_kind(&self) -> PlacementKind {
        self.placement.unwrap_or_default()
    }

    /// The scripted fault plan, when the scenario has one.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        match &self.faults {
            Some(events) if !events.is_empty() => Some(FaultPlan::new(events.clone())),
            _ => None,
        }
    }

    /// Measured window in virtual ms with its default applied.
    pub fn duration_ms(&self) -> u64 {
        self.duration_ms.unwrap_or(2_000)
    }

    /// Per-client file size in MiB with its default applied.
    pub fn file_mb(&self) -> u64 {
        self.file_mb.unwrap_or(12)
    }

    /// Workload seed with its default applied.
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(42)
    }

    /// Whether the run drains logs afterwards.
    pub fn flush_after(&self) -> bool {
        self.flush_after.unwrap_or(false)
    }

    /// Whether the run materializes block/log content.
    pub fn materialize(&self) -> bool {
        self.materialize.unwrap_or(false)
    }

    /// Whether per-page block checksums are maintained (default on).
    pub fn checksums(&self) -> bool {
        self.checksums.unwrap_or(true)
    }

    /// Background scrub rate in MiB/s per OSD (default 0 = off).
    pub fn scrub_mb_s(&self) -> u64 {
        self.scrub_mb_s.unwrap_or(0)
    }

    /// Metric-sampling cadence in virtual ms with its default (250)
    /// applied; `0` disables the per-node/per-rack time series.
    pub fn obs_cadence_ms(&self) -> u64 {
        self.obs_cadence_ms.unwrap_or(250)
    }

    /// The scheme's display name (paper capitalization) when registered,
    /// else the raw spec name.
    pub fn scheme_display(&self, registry: &SchemeRegistry) -> String {
        registry
            .get(&self.scheme.name)
            .map(|e| e.display.to_string())
            .unwrap_or_else(|| self.scheme.name.clone())
    }

    /// Checks the spec against a registry without building anything:
    /// geometry constraints plus scheme-name/knob resolution.
    ///
    /// # Errors
    /// Returns a human-readable description of the first problem.
    pub fn validate(&self, registry: &SchemeRegistry) -> Result<(), String> {
        if let Err(e) = RsCode::new(self.k, self.m) {
            return Err(format!(
                "scenario '{}': RS({},{}): {e}",
                self.name, self.k, self.m
            ));
        }
        if self.osds() < self.k + self.m {
            return Err(format!(
                "scenario '{}': {} OSDs cannot host RS({},{}) stripes (need ≥ {})",
                self.name,
                self.osds(),
                self.k,
                self.m,
                self.k + self.m
            ));
        }
        if self.clients == 0 {
            return Err(format!(
                "scenario '{}': clients must be non-zero",
                self.name
            ));
        }
        // Every size and period is scaled to bytes or ns before use; a
        // value whose scaled form leaves `u64` would wrap silently.
        for (field, value, unit, suffix) in [
            ("duration_ms", self.duration_ms(), MILLISECOND, "ms"),
            ("obs_cadence_ms", self.obs_cadence_ms(), MILLISECOND, "ms"),
            ("block_kib", self.block_kib.unwrap_or(1024), 1 << 10, "KiB"),
            ("file_mb", self.file_mb(), 1 << 20, "MiB"),
            ("scrub_mb_s", self.scrub_mb_s(), 1 << 20, "MiB/s"),
        ] {
            if value.checked_mul(unit).is_none() {
                let range = if unit == MILLISECOND {
                    "the virtual clock's range"
                } else {
                    "the byte range"
                };
                return Err(format!(
                    "scenario '{}': {field} {value} exceeds {range} ({} {suffix})",
                    self.name,
                    Time::MAX / unit
                ));
            }
        }
        if self.block_bytes() == 0 || self.file_mb() == 0 {
            return Err(format!(
                "scenario '{}': block_kib and file_mb must be non-zero",
                self.name
            ));
        }
        let topo = self.topology();
        if topo.racks > self.osds() {
            return Err(format!(
                "scenario '{}': {} racks cannot be populated by {} OSDs",
                self.name,
                topo.racks,
                self.osds()
            ));
        }
        if self.placement_kind() == PlacementKind::RackAware
            && !self.osds().is_multiple_of(topo.racks)
        {
            return Err(format!(
                "scenario '{}': rack-aware placement needs equal racks \
                 ({} OSDs across {} racks does not divide evenly)",
                self.name,
                self.osds(),
                topo.racks
            ));
        }
        if self.scrub_mb_s() > 0 && !(self.materialize() && self.checksums()) {
            return Err(format!(
                "scenario '{}': scrubbing (scrub_mb_s > 0) needs \
                 materialize and checksums enabled",
                self.name
            ));
        }
        for fault in self.faults.iter().flatten().filter(|_| !self.materialize()) {
            if let FaultEvent::CorruptBlock { at_ms, .. } = fault {
                return Err(format!(
                    "scenario '{}': corrupt_block at {at_ms} ms needs materialize \
                     enabled (a timing-only run has no bytes to flip)",
                    self.name
                ));
            }
        }
        if let Some(plan) = self.fault_plan() {
            plan.validate(self.osds(), topo.racks)
                .map_err(|e| format!("scenario '{}': {e}", self.name))?;
        }
        let params = tsue_ecfs::SchemeParams {
            device: self.device,
            knobs: self.scheme.knobs_value(),
        };
        registry
            .instantiate(&self.scheme.name, &params)
            .map(|_| ())
            .map_err(|e| format!("scenario '{}': {e}", self.name))
    }

    /// Assembles the cluster builder this spec describes: geometry,
    /// device, fabric, seed, scheme (via `registry`), and the trace
    /// workload, ready for extra tweaks or [`ClusterBuilder::build`].
    ///
    /// # Errors
    /// Same failures as [`ScenarioSpec::validate`].
    pub fn builder(&self, registry: &SchemeRegistry) -> Result<ClusterBuilder, String> {
        self.validate(registry)?;
        let mut b = match self.device {
            DeviceKind::Ssd => ClusterBuilder::ssd(self.k, self.m, self.clients),
            DeviceKind::Hdd => ClusterBuilder::hdd(self.k, self.m, self.clients),
        };
        b = b
            .osds(self.osds())
            .block_size(self.block_bytes())
            .net(self.net_spec())
            .topology(self.topology())
            .placement(self.placement_kind())
            .file_size_per_client(self.file_mb() << 20)
            .seed(self.seed())
            .materialize(self.materialize())
            .checksums(self.checksums())
            .scrub_mb_s(self.scrub_mb_s())
            .workload(&self.trace.profile());
        if let Some(n) = self.ops_per_client {
            b = b.ops_per_client(n);
        }
        b.scheme(registry, &self.scheme.name, self.scheme.knobs_value())
            .map_err(|e| format!("scenario '{}': {e}", self.name))
    }

    /// Builds the fully-provisioned cluster.
    ///
    /// # Errors
    /// Same failures as [`ScenarioSpec::validate`].
    pub fn build_cluster(&self, registry: &SchemeRegistry) -> Result<Cluster, String> {
        Ok(self.builder(registry)?.build())
    }
}

/// A result paired with the spec that produced it — the unit persisted
/// next to every figure so any data point is reproducible.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// The run's declarative description.
    pub spec: ScenarioSpec,
    /// The harvested metrics.
    pub result: RunResult,
}

/// Executes one scenario deterministically and harvests its metrics.
///
/// # Errors
/// Fails on an invalid spec (unknown scheme, bad knobs, geometry).
pub fn run_scenario(spec: &ScenarioSpec) -> Result<RunResult, String> {
    run_scenario_with(spec, &default_registry())
}

/// [`run_scenario`] against an explicit (possibly extended) registry.
///
/// # Errors
/// Fails on an invalid spec (unknown scheme, bad knobs, geometry).
pub fn run_scenario_with(
    spec: &ScenarioSpec,
    registry: &SchemeRegistry,
) -> Result<RunResult, String> {
    run_scenario_traced(spec, registry, 1, false).map(|(result, _)| result)
}

/// Reads per-node/per-rack counters into the obs time series. Strictly
/// read-only — sampling can never perturb simulated outcomes, so the
/// cadence stays an execution-safe knob even
/// though it lives in the spec for reproducibility of the series shape.
fn obs_probe(w: &mut Cluster, sim: &mut Sim<Cluster>) {
    let now = sim.now();
    let cadence = w.core.metrics.obs.series.cadence_ms;
    let nodes = (0..w.core.osds.len())
        .map(|i| {
            let t = w.core.net.node_traffic(i);
            let dev = &w.core.osds[i].device;
            tsue_obs::NodeSample {
                tx_bytes: t.tx_bytes,
                rx_bytes: t.rx_bytes,
                dev_ops: dev.stats().total_ops(),
                dev_busy_ns: dev.busy_ticks(),
                queue_ns: dev.queue_ns(now),
            }
        })
        .collect();
    let elapsed_s = now as f64 / SECOND as f64;
    let racks = (0..w.core.net.racks())
        .map(|r| {
            let t = w.core.net.rack_traffic(r);
            // Mean egress utilization since run start; 0 on flat
            // fabrics, which model no uplink.
            let up_util = match w.core.net.uplink_bandwidth(r) {
                Some(bw) if bw > 0 && elapsed_s > 0.0 => {
                    (t.up_bytes as f64 / (bw as f64 * elapsed_s)).min(1.0)
                }
                _ => 0.0,
            };
            tsue_obs::RackSample {
                up_bytes: t.up_bytes,
                down_bytes: t.down_bytes,
                up_util,
            }
        })
        .collect();
    w.core.metrics.obs.series.samples.push(tsue_obs::ObsSample {
        t_ms: now / MILLISECOND,
        nodes,
        racks,
    });
    if w.core.accepting(now) {
        sim.schedule(cadence * MILLISECOND, obs_probe);
    }
}

/// [`run_scenario_with`] with op-lifecycle tracing optionally
/// enabled. Tracing is an execution knob: it never appears in the
/// spec, only records event times the simulation already produced, and
/// therefore cannot perturb outcomes. When `trace` is set, the second
/// element is the Chrome `trace_event` JSON covering the whole run
/// (workload, recovery, flush, and scrub).
///
/// `_threads` is inert (the engine is single-threaded); the parameter
/// stays only because the frozen `benchmark/` package passes it and
/// leaves with the next `benchmark` PR.
///
/// # Errors
/// Fails on an invalid spec (unknown scheme, bad knobs, geometry).
pub fn run_scenario_traced(
    spec: &ScenarioSpec,
    registry: &SchemeRegistry,
    _threads: usize,
    trace: bool,
) -> Result<(RunResult, Option<String>), String> {
    let mut world = spec.builder(registry)?.build();
    if trace {
        world
            .core
            .metrics
            .obs
            .enable_trace(tsue_obs::DEFAULT_TRACE_CAPACITY);
    }
    world.core.metrics.obs.series.cadence_ms = spec.obs_cadence_ms();
    let mut sim: Sim<Cluster> = Sim::new();
    mem_probe_start(&mut sim);
    if spec.obs_cadence_ms() > 0 {
        sim.schedule(spec.obs_cadence_ms() * MILLISECOND, obs_probe);
    }
    // Scripted faults are installed before the first client op so kill
    // times line up with the workload clock.
    let fault_tracker = match spec.fault_plan() {
        Some(plan) => Some(
            tsue_fault::install(&world, &mut sim, &plan, EngineConfig::default())
                .map_err(|e| format!("scenario '{}': {e}", spec.name))?,
        ),
        None => None,
    };
    // The background scrubber interleaves verification sweeps with
    // client traffic (self-gated: needs scrub_mb_s > 0, materialize,
    // and checksums).
    tsue_ecfs::start_scrub(&mut world, &mut sim);
    let duration = match spec.ops_per_client {
        // Effectively unbounded window; clients stop on their budget.
        Some(_) => 3_600_000 * MILLISECOND,
        None => spec.duration_ms() * MILLISECOND,
    };
    run_workload(&mut world, &mut sim, duration);
    let window_end = if spec.ops_per_client.is_some() {
        sim.now()
    } else {
        world.core.stop_at.expect("window set").max(sim.now())
    };
    let iops = world.core.metrics.iops(window_end);
    let mean_latency_us = world.core.metrics.mean_latency() / 1000.0;
    let per_second = world.core.metrics.per_second.clone();
    let cache_hits = world.core.metrics.read_cache_hits;

    // Recovery phases may outlive client traffic; run them to completion
    // (recovery bandwidth is part of the scenario's outcome).
    if let Some(tracker) = &fault_tracker {
        run_plan_to_completion(&mut world, &mut sim, tracker);
    }

    let mut flush_s = 0.0;
    if spec.flush_after() {
        let t0 = sim.now();
        world.flush_all(&mut sim);
        flush_s = (sim.now() - t0) as f64 / SECOND as f64;
    }
    // A scrubbing scenario ends with one authoritative full sweep:
    // drain delta-poisoned parity, verify every block against its
    // digests, and repair what the periodic ticks missed.
    if spec.scrub_mb_s() > 0 {
        tsue_ecfs::run_full_scrub(&mut world, &mut sim);
    }

    let (mem_now, _) = world.scheme_memory();
    let mem_peak = world.core.metrics.mem_peak.max(mem_now);
    const GIB: f64 = (1u64 << 30) as f64;
    let tier = *world.core.net.tier_traffic();
    // Extracted after every phase (recovery, flush, scrub) so the trace
    // and histograms cover the whole run, not just the client window.
    let trace_json = world.core.metrics.obs.trace_json();
    let obs = world.core.metrics.obs.report();
    let latency = obs.client_summary();
    let recovery = fault_tracker.map(|t| {
        let t = t.borrow();
        let mut report = t.report.clone();
        // Backfill each phase's post-rebuild latency view: the window
        // from that phase's finalize instant to the end of the run.
        let end = world.core.metrics.obs.client_op_hist();
        for (phase, at_end) in report.phases.iter_mut().zip(&t.phase_end_lat) {
            phase.lat_after = Some(end.since(at_end).summary());
        }
        report
    });
    let result = RunResult {
        scheme: spec.scheme_display(registry),
        trace: spec.trace.name(),
        k: spec.k,
        m: spec.m,
        clients: spec.clients,
        iops,
        mean_latency_us,
        latency,
        per_second,
        dev: world.device_stats().into(),
        net_payload_gib: world.core.net.total_payload() as f64 / GIB,
        net_wire_gib: world.core.net.total_wire() as f64 / GIB,
        mem_peak,
        flush_s,
        cache_hits,
        degraded_reads: world.core.metrics.degraded_reads,
        degraded_writes: world.core.metrics.degraded_writes,
        failed_reads: world.core.metrics.failed_reads,
        journaled_writes: world.core.journal.entries_appended,
        journaled_bytes: world.core.journal.bytes_appended,
        replayed_bytes: world.core.journal.bytes_replayed,
        resync_bytes: world.core.resync.bytes_copied_back + world.core.resync.parity_repair_bytes,
        reclaimed_blocks: world.core.resync.blocks_reclaimed,
        rehomed_residual: world.core.mds.rehomed_count() as u64,
        net_intra_gib: tier.intra_wire as f64 / GIB,
        net_cross_gib: tier.cross_wire as f64 / GIB,
        blocks_scrubbed: world.core.metrics.blocks_scrubbed,
        corruptions_detected: world.core.metrics.corruptions_detected,
        corruptions_repaired: world.core.metrics.corruptions_repaired,
        corruptions_unrecoverable: world.core.metrics.corruptions_unrecoverable,
        torn_detected: world.core.metrics.torn_detected,
        torn_replayed: world.core.metrics.torn_replayed,
        torn_discarded: world.core.metrics.torn_discarded,
        replica_replayed_bytes: world.core.recovery.replica_replayed_bytes,
        recovery,
        obs,
    };
    Ok((result, trace_json))
}

/// Maps `f` over `items` on up to `available_parallelism` OS threads,
/// returning the results in item order; a single item (or core) runs
/// inline. The workspace's only host parallelism: shared-nothing, one
/// independent [`Sim`] per thread, so every run stays deterministic.
#[expect(
    clippy::disallowed_methods,
    reason = "fan-out across independent runs; each thread owns its own `Sim`"
)]
pub(crate) fn fan_out<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    // INVARIANT (the `expect`s below): `f` runs outside both locks, so
    // a panicking job cannot poison them; the scope re-raises its panic.
    let jobs = std::sync::Mutex::new(items.into_iter().enumerate());
    let results = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let job = jobs.lock().expect("lock never poisoned").next();
                let Some((idx, item)) = job else { break };
                let r = f(item);
                results.lock().expect("lock never poisoned").push((idx, r));
            });
        }
    });
    let mut out = results.into_inner().expect("lock never poisoned");
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Runs a batch of scenarios across OS threads (each run stays
/// deterministic), pairing every result with its spec.
///
/// # Errors
/// Validates every spec up front and fails before running anything.
pub fn run_scenarios(specs: Vec<ScenarioSpec>) -> Result<Vec<ScenarioOutcome>, String> {
    let registry = default_registry();
    for spec in &specs {
        spec.validate(&registry)?;
    }
    Ok(fan_out(specs, |spec| {
        let result = run_scenario_with(&spec, &registry).expect("spec pre-validated");
        ScenarioOutcome { spec, result }
    }))
}

/// Renders the `tsuectl list` body: the scheme registry followed by the
/// bundled scenario files.
pub fn render_listing(registry: &SchemeRegistry) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("registered schemes:\n");
    for e in registry.entries() {
        let _ = writeln!(out, "  {:<8} {:<8} {}", e.name, e.display, e.summary);
    }
    out.push_str("\nbundled scenarios:\n");
    for (path, json) in bundled_scenarios() {
        match serde_json::from_str::<ScenarioSpec>(json) {
            Ok(s) => {
                let _ = writeln!(
                    out,
                    "  {:<32} {} on {} ({}), RS({},{}), {} clients",
                    path,
                    s.scheme.name,
                    s.trace.token(),
                    s.device.token(),
                    s.k,
                    s.m,
                    s.clients
                );
            }
            Err(e) => {
                let _ = writeln!(out, "  {path:<32} INVALID: {e}");
            }
        }
    }
    out
}

/// Strips the specs off a batch of outcomes (rendering helpers take
/// bare [`RunResult`] rows).
pub fn results_of(outcomes: &[ScenarioOutcome]) -> Vec<RunResult> {
    outcomes.iter().map(|o| o.result.clone()).collect()
}

/// The scenario files compiled into the binary, as `(path, JSON)` pairs
/// — `tsuectl list` prints these and CI smoke-runs them.
pub fn bundled_scenarios() -> &'static [(&'static str, &'static str)] {
    &[
        (
            "scenarios/smoke.json",
            include_str!("../../../scenarios/smoke.json"),
        ),
        (
            "scenarios/tsue_ablation_o3.json",
            include_str!("../../../scenarios/tsue_ablation_o3.json"),
        ),
        (
            "scenarios/hdd_msr_parix.json",
            include_str!("../../../scenarios/hdd_msr_parix.json"),
        ),
        (
            "scenarios/rack_failure_online.json",
            include_str!("../../../scenarios/rack_failure_online.json"),
        ),
        (
            "scenarios/heal_rejoin.json",
            include_str!("../../../scenarios/heal_rejoin.json"),
        ),
        (
            "scenarios/scrub_bitrot.json",
            include_str!("../../../scenarios/scrub_bitrot.json"),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::fan_out;

    /// Sweeps index their rows by position, so results must come back
    /// in item order however the threads interleave.
    #[test]
    fn fan_out_preserves_item_order() {
        let squares = fan_out((0..100u64).collect(), |x| x * x);
        assert_eq!(squares, (0..100u64).map(|x| x * x).collect::<Vec<_>>());
        assert_eq!(fan_out(vec![7u64], |x| x + 1), vec![8], "one item: inline");
        assert!(fan_out(Vec::<u64>::new(), |x| x).is_empty());
    }
}

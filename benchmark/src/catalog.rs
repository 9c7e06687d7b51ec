//! The benchmark's fixed vocabulary: the four workloads and every metric
//! name, unit and direction. `BENCHMARK.json` repeats the names; the
//! `contract` test keeps the two in step.

use tsue_bench::{ScenarioSpec, SchemeSpec, TraceKind};
use tsue_fault::FaultEvent;
use tsue_net::Topology;

/// One workload: a name, the reason it exists, and its op budget.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Client ops per simulated client at full scale.
    pub ops_per_client: u64,
    pub trace: TraceKind,
    pub scheme: &'static str,
    /// Real block and log bytes with checksums, or timing only.
    pub materialize: bool,
    /// Four racks, rack-aware placement, paced scrub, bit rot and a
    /// power loss.
    pub faults: bool,
    /// How closely the post-setup wall follows the host's memory latency
    /// (`calib`): the slope of log wall on log latency over the reference
    /// container's own drift (README.md, "Host memory latency").
    pub latency_elasticity: f64,
}

/// Simulated clients in every workload (closed loop, fixed work).
pub const CLIENTS: usize = 16;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ali-ghost-tsue",
        why: "TSUE on Ali-Cloud, timing-only: engine-bound (sim queue, net/device models, log-pool logic, obs); gf/ec/buf/integrity move no bytes, so a byte-path change must not show here",
        ops_per_client: 4_000,
        trace: TraceKind::Ali,
        scheme: "tsue",
        materialize: false,
        faults: false,
        latency_elasticity: 1.2,
    },
    Workload {
        name: "ten-mat-tsue",
        why: "TSUE on Ten-Cloud with real bytes and checksums: byte-bound on small (mostly 4 KiB) extents, so per-call overhead of buf/gf/ec/integrity dominates and the engine is the minority",
        ops_per_client: 2_000,
        trace: TraceKind::Ten,
        scheme: "tsue",
        materialize: true,
        faults: false,
        latency_elasticity: 0.25,
    },
    Workload {
        name: "ali-mat-parix",
        why: "PARIX on Ali-Cloud with real bytes: a baseline's log-buffer/merge plumbing on large (32-128 KiB) extents uses the shared ecfs/buf/gf code differently, so a TSUE gain that costs shared code shows here",
        ops_per_client: 640,
        trace: TraceKind::Ali,
        scheme: "parix",
        materialize: true,
        faults: false,
        latency_elasticity: 0.4,
    },
    Workload {
        name: "ten-fault-tsue",
        why: "TSUE on a 4-rack fabric, rack-aware placement, with bit rot, a power loss and paced scrub: two-tier fabric, read-path verification, torn-tail scan, page repair and the final full scrub under load",
        ops_per_client: 3_000,
        trace: TraceKind::Ten,
        scheme: "tsue",
        materialize: true,
        faults: true,
        latency_elasticity: 0.25,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The scenario a workload runs. `seed` lands in `ScenarioSpec.seed`; the
/// program under test only ever sees the generated spec. `ops_per_client`
/// is the workload's own budget except in `--smoke` runs.
pub fn spec_for(w: &Workload, seed: u64, ops_per_client: u64) -> ScenarioSpec {
    let scheme = SchemeSpec::named(w.scheme);
    let mut s = ScenarioSpec::ssd(w.name, w.trace, 6, 4, CLIENTS, scheme);
    s.osds = Some(16);
    s.file_mb = Some(12);
    s.seed = Some(seed);
    s.ops_per_client = Some(ops_per_client);
    s.flush_after = Some(true);
    // The per-node time series is sampled by a harness-private probe in
    // `tsue_bench`; switching it off keeps the reference run and the
    // phase-split driver on the same event stream.
    s.obs_cadence_ms = Some(0);
    if w.materialize {
        s.materialize = Some(true);
        s.checksums = Some(true);
    }
    if w.faults {
        s.topology = Topology::by_name("rack4");
        s.placement = Some(tsue_ecfs::PlacementKind::RackAware);
        s.scrub_mb_s = Some(64);
        // Fault times scale with the op budget so both land inside the
        // client window (16 Ten-Cloud TSUE clients finish ~100 ops each per
        // 20 virtual ms). No node kill or heal: see README.md, "What
        // ten-fault-tsue leaves out".
        let at = |per_2000: u64| (ops_per_client * per_2000 / 2_000).max(1);
        s.faults = Some(vec![
            FaultEvent::CorruptBlock {
                at_ms: at(40),
                node: 2,
                blocks: Some(8),
                seed: Some(seed ^ 0xB17),
            },
            FaultEvent::PowerLoss {
                at_ms: at(80),
                node: 1,
                seed: Some(seed ^ 0x9055),
            },
        ]);
    }
    s
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn token(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric and the share of the baseline median by which it
/// may worsen before `--compare` (and the driver) call it a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// End-to-end metrics, in output order. `sim_*` are virtual-time results
/// of the modelled cluster (seed-exact); the rest are host measurements
/// of the simulator itself.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("host_ops_per_s", "ops/s", Better::Higher, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.20),
    e2e("sim_iops", "ops/s", Better::Higher, 0.10),
    e2e("sim_p50_us", "us", Better::Lower, 0.06),
    e2e("sim_p999_us", "us", Better::Lower, 0.25),
    e2e("sim_net_kib_per_op", "KiB/op", Better::Lower, 0.20),
    e2e("sim_dev_ops_per_op", "ops/op", Better::Lower, 0.10),
    e2e("sim_dev_kib_per_op", "KiB/op", Better::Lower, 0.20),
    e2e("sim_overwrites_per_op", "ops/op", Better::Lower, 0.15),
    e2e("sim_mem_peak_mib", "MiB", Better::Lower, 0.25),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// A per-layer metric: which crate it measures and which end-to-end
/// metric it is expected to move, on which workload.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn lo(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        moves,
    }
}

const fn hi(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        moves,
    }
}

const HOST_ALL: &str = "host_ops_per_s on every workload";
const HOST_GHOST: &str = "host_ops_per_s on ali-ghost-tsue";
const HOST_BYTES: &str =
    "host_ops_per_s on ten-mat-tsue (call overhead) and ali-mat-parix (bandwidth)";
const HOST_MAT: &str = "host_ops_per_s on the three materialized workloads";
const FAULT_ONLY: &str = "failed ops and sim_p999_us on ten-fault-tsue";
const SIM_TSUE: &str = "sim_iops, sim_p50_us, sim_net_kib_per_op on the TSUE workloads";
const NONE: &str = "none (harness cost, excluded from host_ops_per_s)";

/// Per-layer metrics (layer = the crate named before the dot).
pub const PER_LAYER: [PerLayer; 71] = [
    lo("bench.build_s", "s", "setup_s"),
    lo("bench.run_s", "s", HOST_ALL),
    lo("bench.drain_s", "s", HOST_ALL),
    lo("bench.scrub_s", "s", "host_ops_per_s on ten-fault-tsue"),
    lo("bench.verify_s", "s", NONE),
    lo("bench.harvest_ms", "ms", NONE),
    lo("bench.json_ms", "ms", NONE),
    hi("bench.span_coverage", "ratio", NONE),
    lo("bench.unattributed_share", "ratio", NONE),
    lo("bench.trace_overhead_frac", "ratio", NONE),
    lo("sim.events", "count", HOST_GHOST),
    lo("sim.events_per_op", "count/op", HOST_GHOST),
    lo("sim.empty_event_ns", "ns", HOST_GHOST),
    lo("sim.host_ns_per_event", "ns", HOST_GHOST),
    lo("sim.queue_est_share", "ratio", HOST_GHOST),
    hi(
        "sim.exec_speedup_t2",
        "ratio",
        "host_ops_per_s on ten-mat-tsue at --threads 2",
    ),
    lo("device.ops", "count", "sim_dev_ops_per_op"),
    lo("device.submit_ns", "ns", HOST_GHOST),
    lo("device.est_share", "ratio", HOST_GHOST),
    lo("device.util", "ratio", "sim_iops"),
    hi("device.seq_frac", "ratio", "sim_iops"),
    lo("device.erases", "count", "sim_overwrites_per_op"),
    lo("net.msgs", "count", "sim_net_kib_per_op"),
    lo("net.transfer_ns", "ns", HOST_GHOST),
    lo("net.est_share", "ratio", HOST_GHOST),
    lo(
        "net.cross_rack_frac",
        "ratio",
        "sim_p999_us on ten-fault-tsue",
    ),
    lo("trace.next_op_ns", "ns", HOST_GHOST),
    lo("trace.est_share", "ratio", HOST_GHOST),
    lo("obs.record_ns", "ns", HOST_GHOST),
    lo("obs.report_ms", "ms", NONE),
    lo("obs.est_share", "ratio", HOST_GHOST),
    lo("obs.trace_tax_frac", "ratio", NONE),
    hi("gf.mul_add_gbps", "GB/s", HOST_BYTES),
    hi("gf.xor_gbps", "GB/s", HOST_BYTES),
    lo("gf.mul_add_4k_ns", "ns", "host_ops_per_s on ten-mat-tsue"),
    lo(
        "ec.data_delta_4k_ns",
        "ns",
        "host_ops_per_s on ten-mat-tsue",
    ),
    lo("ec.combine_4k_ns", "ns", "host_ops_per_s on ten-mat-tsue"),
    lo("ec.update_mix_ns", "ns", HOST_BYTES),
    hi("ec.encode_mbps", "MB/s", "setup_s and bench.verify_s"),
    hi(
        "ec.reconstruct_mbps",
        "MB/s",
        "bench.scrub_s (page repair) on ten-fault-tsue",
    ),
    lo("ec.est_share", "ratio", HOST_BYTES),
    lo("buf.take_ns", "ns", HOST_BYTES),
    hi("buf.copy_gbps", "GB/s", "host_ops_per_s on ali-mat-parix"),
    hi(
        "buf.pool_hit_rate",
        "ratio",
        "host_ops_per_s and peak_rss_mib on ali-mat-parix",
    ),
    lo(
        "buf.allocs_per_op",
        "count/op",
        "host_ops_per_s and peak_rss_mib on ali-mat-parix",
    ),
    lo(
        "buf.copies_per_op",
        "count/op",
        "host_ops_per_s on ali-mat-parix",
    ),
    lo(
        "buf.copied_kib_per_op",
        "KiB/op",
        "host_ops_per_s on ali-mat-parix",
    ),
    lo("buf.est_share", "ratio", HOST_BYTES),
    hi("integrity.checksum_gbps", "GB/s", HOST_MAT),
    lo("integrity.tax_frac", "ratio", HOST_MAT),
    lo("integrity.tax_spread", "ratio", NONE),
    lo("integrity.est_share", "ratio", HOST_MAT),
    hi("integrity.pages_detected", "count", FAULT_ONLY),
    hi("integrity.pages_repaired", "count", FAULT_ONLY),
    lo("integrity.unaccounted_pages", "count", FAULT_ONLY),
    lo("ecfs.host_us_per_op", "us/op", HOST_ALL),
    lo("ecfs.rangemap_insert_ns", "ns", HOST_ALL),
    hi("ecfs.payload_gbps", "GB/s", HOST_MAT),
    lo("ecfs.payload_est_share", "ratio", HOST_MAT),
    hi(
        "ecfs.scrub_gbps",
        "GB/s",
        "host_ops_per_s on ten-fault-tsue",
    ),
    lo(
        "ecfs.verify_mismatches",
        "count",
        "failed ops on the materialized workloads",
    ),
    lo(
        "ecfs.sim_drain_s",
        "s",
        "the real-time recycle claim (virtual; moves in 20 ms flush strides)",
    ),
    lo("core.logunit_append_ns", "ns", HOST_ALL),
    lo("core.stage_append_p50_us", "us", SIM_TSUE),
    lo("core.stage_forward_p50_us", "us", SIM_TSUE),
    lo("core.stage_merge_p50_us", "us", SIM_TSUE),
    lo(
        "core.forwards_per_append",
        "ratio",
        "sim_net_kib_per_op on the TSUE workloads",
    ),
    hi("fault.torn_appends", "count", FAULT_ONLY),
    lo("fault.torn_discarded", "count", FAULT_ONLY),
    lo("bench.reference_s", "s", NONE),
    lo(
        "bench.mem_load_ns",
        "ns",
        "none (the host's memory latency; host_ops_per_s is reported at 108 ns)",
    ),
];

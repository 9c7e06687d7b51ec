//! Experiment harness: one function per table/figure of the paper.
//!
//! Every experiment is expressed as a set of [`ScenarioSpec`]s — the
//! serializable run descriptions of the declarative scenario API
//! ([`scenario`]) — executed by [`run_scenario`] (deterministic per
//! seed) and fanned out over OS threads by [`run_scenarios`]. The one
//! binary, `tsuectl`, runs scenario files and ad-hoc specs, and its
//! `figures` subcommand regenerates all figures/tables, writing
//! machine-readable results plus the specs that reproduce them.
//!
//! Host-side performance (how fast the simulator itself runs, layer by
//! layer) is measured by the standalone `benchmark/` package, which
//! drives this crate's public API from outside the workspace.

pub mod experiments;
pub mod report;
pub mod scenario;

pub use experiments::*;
pub use report::*;
pub use scenario::*;

use serde::{Deserialize, Serialize};
use tsue_device::DeviceStats;
use tsue_ecfs::Cluster;
use tsue_sim::{Sim, Time, MILLISECOND};
use tsue_trace::{ali_cloud, msr_volume, ten_cloud, MsrVolume, WorkloadProfile};

/// Which trace drives the workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// Ali-Cloud stand-in.
    Ali,
    /// Ten-Cloud stand-in.
    Ten,
    /// One MSR-Cambridge volume.
    Msr(MsrSel),
}

/// Serializable mirror of [`MsrVolume`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum MsrSel {
    Src10,
    Src22,
    Proj2,
    Prn1,
    Hm0,
    Usr0,
    Mds0,
}

impl MsrSel {
    /// All Fig. 8 volumes in paper order.
    pub fn all() -> [MsrSel; 7] {
        [
            MsrSel::Src10,
            MsrSel::Src22,
            MsrSel::Proj2,
            MsrSel::Prn1,
            MsrSel::Hm0,
            MsrSel::Usr0,
            MsrSel::Mds0,
        ]
    }
}

impl From<MsrSel> for MsrVolume {
    fn from(v: MsrSel) -> Self {
        match v {
            MsrSel::Src10 => MsrVolume::Src10,
            MsrSel::Src22 => MsrVolume::Src22,
            MsrSel::Proj2 => MsrVolume::Proj2,
            MsrSel::Prn1 => MsrVolume::Prn1,
            MsrSel::Hm0 => MsrVolume::Hm0,
            MsrSel::Usr0 => MsrVolume::Usr0,
            MsrSel::Mds0 => MsrVolume::Mds0,
        }
    }
}

impl TraceKind {
    /// The calibrated workload profile.
    pub fn profile(&self) -> WorkloadProfile {
        match self {
            TraceKind::Ali => ali_cloud(),
            TraceKind::Ten => ten_cloud(),
            TraceKind::Msr(v) => msr_volume((*v).into()),
        }
    }

    /// Display name.
    pub fn name(&self) -> String {
        match self {
            TraceKind::Ali => "Ali-Cloud".into(),
            TraceKind::Ten => "Ten-Cloud".into(),
            TraceKind::Msr(v) => {
                let vol: MsrVolume = (*v).into();
                vol.name().to_string()
            }
        }
    }

    /// Lower-case token shared by scenario files and the `--trace` flag.
    pub fn token(&self) -> &'static str {
        match self {
            TraceKind::Ali => "ali",
            TraceKind::Ten => "ten",
            TraceKind::Msr(MsrSel::Src10) => "src10",
            TraceKind::Msr(MsrSel::Src22) => "src22",
            TraceKind::Msr(MsrSel::Proj2) => "proj2",
            TraceKind::Msr(MsrSel::Prn1) => "prn1",
            TraceKind::Msr(MsrSel::Hm0) => "hm0",
            TraceKind::Msr(MsrSel::Usr0) => "usr0",
            TraceKind::Msr(MsrSel::Mds0) => "mds0",
        }
    }

    /// Every trace, in token order (`list` output, error messages).
    pub fn all() -> Vec<TraceKind> {
        let mut v = vec![TraceKind::Ali, TraceKind::Ten];
        v.extend(MsrSel::all().into_iter().map(TraceKind::Msr));
        v
    }

    /// Parses the scenario/CLI token (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        let lower = s.to_ascii_lowercase();
        Self::all().into_iter().find(|t| t.token() == lower)
    }
}

// Hand-written (rather than derived) so scenario JSON reads
// `"trace": "src10"` with the same tokens the `--trace` flag uses.
impl Serialize for TraceKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.token().to_string())
    }
}

impl Deserialize for TraceKind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Str(s) => Self::parse(s).ok_or_else(|| {
                serde::DeError::msg(format!(
                    "unknown trace '{s}' (expected one of: {})",
                    Self::all()
                        .iter()
                        .map(|t| t.token())
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            }),
            other => Err(serde::DeError::mismatch("TraceKind", "string", other)),
        }
    }
}

/// Metrics harvested from one run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunResult {
    /// Scheme name.
    pub scheme: String,
    /// Trace name.
    pub trace: String,
    /// RS shape.
    pub k: usize,
    /// RS parity count.
    pub m: usize,
    /// Client count.
    pub clients: usize,
    /// Aggregate completed ops per second over the window.
    pub iops: f64,
    /// Mean op latency, µs.
    pub mean_latency_us: f64,
    /// Client-op latency distribution (all op classes merged):
    /// p50/p90/p99/p999/max in µs from the log-bucketed histograms.
    pub latency: tsue_obs::LatencySummary,
    /// Completions per virtual second (Fig. 6a series).
    pub per_second: Vec<u64>,
    /// Aggregate device statistics (all OSDs).
    pub dev: DevSummary,
    /// Network payload moved, GiB.
    pub net_payload_gib: f64,
    /// Network wire traffic, GiB.
    pub net_wire_gib: f64,
    /// Peak per-OSD scheme memory observed, bytes.
    pub mem_peak: u64,
    /// Virtual seconds the post-run flush took (0 when not flushed).
    pub flush_s: f64,
    /// Read-cache hits.
    pub cache_hits: u64,
    /// Reads served via stripe reconstruction while an owner was dead.
    pub degraded_reads: u64,
    /// Updates that failed over because their owner was dead (the
    /// payload is dropped in this model, not replayed after rebuild).
    pub degraded_writes: u64,
    /// Reads that failed outright: fewer than `k` survivors remained
    /// (the data-loss signal under rack-oblivious placement).
    pub failed_reads: u64,
    /// Degraded-write extents journaled at the MDS (deduplicated).
    pub journaled_writes: u64,
    /// Bytes those journaled extents carried.
    pub journaled_bytes: u64,
    /// Journaled bytes replayed into rebuilt or healed blocks; equals
    /// `journaled_bytes` once every failure window fully recovered.
    pub replayed_bytes: u64,
    /// Bytes written by heal-time re-sync (rehomed copy-back + dirty
    /// parity re-encodes).
    pub resync_bytes: u64,
    /// Rehome-table entries reclaimed by heal-time re-sync.
    pub reclaimed_blocks: u64,
    /// Rehome-table entries still live at the end of the run (0 once
    /// every healed node has been fully re-synced).
    pub rehomed_residual: u64,
    /// Wire traffic that stayed inside a rack, GiB (equals `net_wire_gib`
    /// on a flat fabric).
    pub net_intra_gib: f64,
    /// Wire traffic that crossed racks, GiB.
    pub net_cross_gib: f64,
    /// Blocks swept by the scrubber (periodic ticks + final sweep).
    pub blocks_scrubbed: u64,
    /// Corrupt pages detected (read-path verification or scrub).
    pub corruptions_detected: u64,
    /// Corrupt pages repaired from stripe survivors.
    pub corruptions_repaired: u64,
    /// Corrupt pages beyond repair (fewer than `k` clean survivors).
    pub corruptions_unrecoverable: u64,
    /// Torn log-tail appends detected by power-loss restart scans.
    pub torn_detected: u64,
    /// Torn appends replayed byte-exactly from a replica copy.
    pub torn_replayed: u64,
    /// Torn appends discarded (log overlay reverted to pre-write bytes,
    /// or stale parity marked for re-encode).
    pub torn_discarded: u64,
    /// Replicated data-log bytes replayed onto rebuilt blocks (acked
    /// appends the dead home never merged).
    pub replica_replayed_bytes: u64,
    /// Fault-engine outcome when the scenario scripted faults.
    pub recovery: Option<tsue_fault::FaultReport>,
    /// Observability section: per-op-class and per-stage latency
    /// histograms plus the per-node/per-rack utilization time series.
    pub obs: tsue_obs::ObsReport,
}

/// Serializable device-stats summary.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct DevSummary {
    /// Read+write operation count.
    pub rw_ops: u64,
    /// Read+write volume, GiB.
    pub rw_gib: f64,
    /// Overwrite (write-penalty) operations.
    pub overwrite_ops: u64,
    /// Overwrite volume, GiB.
    pub overwrite_gib: f64,
    /// Flash blocks erased.
    pub erases: u64,
    /// Flash write amplification.
    pub wa: f64,
    /// Sequential-op fraction.
    pub seq_fraction: f64,
}

impl From<DeviceStats> for DevSummary {
    fn from(s: DeviceStats) -> Self {
        const GIB: f64 = (1u64 << 30) as f64;
        DevSummary {
            rw_ops: s.total_ops(),
            rw_gib: s.total_bytes() as f64 / GIB,
            overwrite_ops: s.overwrite_ops,
            overwrite_gib: s.overwrite_bytes as f64 / GIB,
            erases: s.erase_ops,
            wa: s.write_amplification(),
            seq_fraction: if s.seq_ops + s.rand_ops == 0 {
                0.0
            } else {
                s.seq_ops as f64 / (s.seq_ops + s.rand_ops) as f64
            },
        }
    }
}

/// Memory-probe cadence during a run.
const MEM_PROBE_EVERY: Time = 250 * MILLISECOND;

fn mem_probe(w: &mut Cluster, sim: &mut Sim<Cluster>) {
    let (peak, _) = w.scheme_memory();
    w.core.metrics.mem_peak = w.core.metrics.mem_peak.max(peak);
    if w.core.accepting(sim.now()) {
        sim.schedule(MEM_PROBE_EVERY, mem_probe);
    }
}

/// Starts the periodic scheme-memory probe feeding `metrics.mem_peak`.
pub(crate) fn mem_probe_start(sim: &mut Sim<Cluster>) {
    sim.schedule(MEM_PROBE_EVERY, mem_probe);
}

/// Experiment scale: `Quick` for smoke runs and tests, `Full` for the
/// paper-shaped reproduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Short windows, few clients — smoke-scale shape checks.
    Quick,
    /// Paper-shaped sweeps.
    Full,
}

impl Scale {
    /// Measured window per run, ms.
    pub fn duration_ms(&self) -> u64 {
        match self {
            Scale::Quick => 600,
            Scale::Full => 2_500,
        }
    }

    /// Client counts for throughput sweeps.
    pub fn client_counts(&self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![16],
            Scale::Full => vec![4, 16, 64],
        }
    }
}

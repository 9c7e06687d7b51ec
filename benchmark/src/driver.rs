//! The phase-split driver: one scenario run assembled from the same public
//! calls `tsue_bench::run_scenario_with` makes, with a host-clock reading
//! between each, plus the reference run it is checked against.

use crate::spans::Spans;
use std::time::Instant;
use tsue_bench::{RunResult, ScenarioSpec};
use tsue_ecfs::{run_workload, Cluster, SchemeRegistry};
use tsue_fault::{EngineConfig, FaultReport};
use tsue_obs::ObsReport;
use tsue_sim::{Sim, Time, MILLISECOND, SECOND};

const GIB: f64 = (1u64 << 30) as f64;

/// Everything one run decides in *virtual* time. The DES is seed-exact,
/// so two runs of one spec must agree on every field bit for bit; the
/// reference run fills the same struct from its `RunResult`.
#[derive(Debug, PartialEq)]
pub struct SimOutcome {
    pub ops: u64,
    pub iops: f64,
    pub mean_us: f64,
    pub p50_us: f64,
    pub p999_us: f64,
    pub max_us: f64,
    pub flush_s: f64,
    pub net_wire_gib: f64,
    pub net_cross_gib: f64,
    pub dev_ops: u64,
    pub dev_gib: f64,
    pub overwrite_ops: u64,
    pub erases: u64,
    pub seq_fraction: f64,
    pub mem_peak: u64,
    pub failed_reads: u64,
    pub corruptions_detected: u64,
    pub corruptions_repaired: u64,
    pub corruptions_unrecoverable: u64,
    pub blocks_unrecoverable: u64,
    pub torn_detected: u64,
    pub torn_discarded: u64,
}

impl SimOutcome {
    pub fn from_reference(r: &RunResult) -> SimOutcome {
        let (p50_us, p999_us) = client_quantiles(&r.obs);
        SimOutcome {
            ops: r.latency.count,
            iops: r.iops,
            mean_us: r.mean_latency_us,
            p50_us,
            p999_us,
            max_us: r.latency.max_us,
            flush_s: r.flush_s,
            net_wire_gib: r.net_wire_gib,
            net_cross_gib: r.net_cross_gib,
            dev_ops: r.dev.rw_ops,
            dev_gib: r.dev.rw_gib,
            overwrite_ops: r.dev.overwrite_ops,
            erases: r.dev.erases,
            seq_fraction: r.dev.seq_fraction,
            mem_peak: r.mem_peak,
            failed_reads: r.failed_reads,
            corruptions_detected: r.corruptions_detected,
            corruptions_repaired: r.corruptions_repaired,
            corruptions_unrecoverable: r.corruptions_unrecoverable,
            blocks_unrecoverable: r
                .recovery
                .as_ref()
                .map_or(0, FaultReport::total_unrecoverable),
            torn_detected: r.torn_detected,
            torn_discarded: r.torn_discarded,
        }
    }

    /// Ops that did not end well: reads that found fewer than `k`
    /// survivors, pages and blocks beyond repair.
    pub fn failed_ops(&self) -> u64 {
        self.failed_reads + self.corruptions_unrecoverable + self.blocks_unrecoverable
    }
}

/// p50 and p999 of the merged client-op classes, interpolated by rank
/// inside the log-linear bucket that holds them. `Histogram::quantile`
/// answers with the bucket midpoint, which moves in 6 % steps; the
/// interpolated value moves with the counts, so a model change that
/// shifts latency by 1 % is visible. p999 is the highest percentile with
/// ten samples beyond it on the smallest workload.
pub fn client_quantiles(obs: &ObsReport) -> (f64, f64) {
    let mut counts: std::collections::BTreeMap<u32, u64> = Default::default();
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for name in ["update", "read", "degraded_write"] {
        if let Some(r) = obs.class(name) {
            for &(idx, c) in &r.buckets {
                *counts.entry(idx).or_insert(0) += c;
            }
            if r.count > 0 {
                lo = lo.min(r.min_ns);
                hi = hi.max(r.max_ns);
            }
        }
    }
    let total: u64 = counts.values().sum();
    let at = |q: f64| -> f64 {
        if total == 0 {
            return 0.0;
        }
        let rank = (q * total as f64).ceil().clamp(1.0, total as f64);
        let mut cum = 0u64;
        for (&idx, &c) in &counts {
            if (cum + c) as f64 >= rank {
                let (b_lo, width) = bucket_span(idx);
                let frac = (rank - cum as f64) / c as f64;
                let v = b_lo as f64 + frac * width as f64;
                return v.clamp(lo as f64, hi as f64) / 1e3;
            }
            cum += c;
        }
        hi as f64 / 1e3
    };
    (at(0.50), at(0.999))
}

/// Lower edge and width of histogram bucket `idx` (the layout documented
/// in `tsue_obs::hist`: one exact bucket per value below `SUB_BUCKETS`,
/// then `SUB_BUCKETS` linear sub-buckets per power of two).
fn bucket_span(idx: u32) -> (u64, u64) {
    let sub_buckets = tsue_obs::SUB_BUCKETS;
    let idx = idx as usize;
    if idx < sub_buckets {
        (idx as u64, 1)
    } else {
        let g = (idx - sub_buckets) / sub_buckets;
        let sub = (idx - sub_buckets) % sub_buckets;
        (((sub_buckets + sub) as u64) << g, 1u64 << g)
    }
}

/// Work counts read from public fields after a run, the numerators of
/// the per-layer `est_share`s.
#[derive(Debug)]
pub struct Counts {
    pub events: u64,
    pub updates: u64,
    pub extents: u64,
    pub net_msgs: u64,
    pub dev_busy_ns: u64,
    pub buf_hits: u64,
    pub buf_misses: u64,
    pub buf_copies: u64,
    pub buf_bytes_copied: u64,
    pub blocks_scrubbed: u64,
    pub appends: u64,
    pub forwards: u64,
    pub merges: u64,
    pub stage_append_p50_us: f64,
    pub stage_forward_p50_us: f64,
    pub stage_merge_p50_us: f64,
    pub drain_tail_s: f64,
    pub virtual_end_s: f64,
}

/// Host seconds of each phase of one run.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    pub build_s: f64,
    pub run_s: f64,
    pub recover_s: f64,
    pub drain_s: f64,
    pub scrub_s: f64,
    pub verify_s: f64,
    pub harvest_s: f64,
    /// `ObsState::report` alone (part of `harvest_s`).
    pub report_s: f64,
    pub json_s: f64,
}

impl Phases {
    /// First `run_workload` to quiesce: what `host_ops_per_s` divides by.
    pub fn post_setup_s(&self) -> f64 {
        self.run_s + self.recover_s + self.drain_s + self.scrub_s
    }
}

pub struct Rep {
    pub phases: Phases,
    pub sim: SimOutcome,
    pub counts: Counts,
    /// `check_consistency` outcome when the rep verified.
    pub consistency: Option<Result<(usize, usize), String>>,
    /// Ops a client issued that never completed.
    pub unfinished: u64,
}

/// What a repetition does besides the run itself.
#[derive(Clone, Copy)]
pub struct RepOpts {
    /// Record arrivals and run `check_consistency` afterwards.
    pub verify: bool,
    /// Pool worker threads (`1` = inline).
    pub threads: usize,
}

impl RepOpts {
    pub const PLAIN: RepOpts = RepOpts {
        verify: false,
        threads: 1,
    };
    pub const VERIFY: RepOpts = RepOpts {
        verify: true,
        threads: 1,
    };
}

// The `tsue_bench` harness probes scheme memory with a crate-private
// event; this is the same probe on the same cadence, so `mem_peak` and
// the event count match the reference run.
const MEM_PROBE_EVERY: Time = 250 * MILLISECOND;

fn mem_probe(w: &mut Cluster, sim: &mut Sim<Cluster>) {
    let (peak, _) = w.scheme_memory();
    w.core.metrics.mem_peak = w.core.metrics.mem_peak.max(peak);
    if w.core.accepting(sim.now()) {
        sim.schedule(MEM_PROBE_EVERY, mem_probe);
    }
}

/// One repetition of `spec`, phase by phase.
pub fn run_rep(
    spec: &ScenarioSpec,
    registry: &SchemeRegistry,
    opts: RepOpts,
    spans: &mut Spans,
) -> Result<Rep, String> {
    let rep_span = spans.enter("rep");
    let (world, build_s) = spans.timed("ecfs.build", || {
        Ok::<_, String>(
            spec.builder(registry)?
                .threads(opts.threads)
                .record_arrivals(opts.verify)
                .build(),
        )
    });
    let mut world = world?;

    let mut sim: Sim<Cluster> = Sim::new();
    let buf_start = tsue_buf::stats();
    sim.schedule(MEM_PROBE_EVERY, mem_probe);
    let tracker = match spec.fault_plan() {
        Some(plan) => Some(tsue_fault::install(
            &world,
            &mut sim,
            &plan,
            EngineConfig::default(),
        )?),
        None => None,
    };
    tsue_ecfs::start_scrub(&mut world, &mut sim);

    let (_, run_s) = spans.timed("ecfs.run_workload", || {
        run_workload(&mut world, &mut sim, 3_600_000 * MILLISECOND)
    });
    let window_end = sim.now();
    let iops = world.core.metrics.iops(window_end);

    let (_, recover_s) = spans.timed("fault.run_plan_to_completion", || {
        if let Some(tracker) = &tracker {
            tsue_fault::run_plan_to_completion(&mut world, &mut sim, tracker);
        }
    });

    let flush_from = sim.now();
    let (_, drain_s) = spans.timed("ecfs.flush_all", || {
        if spec.flush_after() {
            world.flush_all(&mut sim);
        }
    });
    let flush_s = (sim.now() - flush_from) as f64 / SECOND as f64;

    let (_, scrub_s) = spans.timed("ecfs.run_full_scrub", || {
        if spec.scrub_mb_s() > 0 {
            tsue_ecfs::run_full_scrub(&mut world, &mut sim);
        }
    });
    let quiesce = sim.now();

    let (consistency, verify_s) = if opts.verify {
        let (r, secs) = spans.timed("ecfs.check_consistency", || {
            tsue_ecfs::check_consistency(&world)
        });
        (Some(r), secs)
    } else {
        (None, 0.0)
    };

    let ((buf, mem_peak, obs, report_s, dev), harvest_s) = spans.timed("obs.harvest", || {
        let buf = tsue_buf::stats().since(&buf_start);
        let (mem_now, _) = world.scheme_memory();
        let mem_peak = world.core.metrics.mem_peak.max(mem_now);
        let start = Instant::now();
        let obs = world.core.metrics.obs.report();
        let report_s = start.elapsed().as_secs_f64();
        let dev: tsue_bench::DevSummary = world.device_stats().into();
        (buf, mem_peak, obs, report_s, dev)
    });

    let (json, json_s) = spans.timed("bench.json", || serde_json::to_string(&obs));
    std::hint::black_box(json.map_err(|e| e.to_string())?);
    let phases = Phases {
        build_s,
        run_s,
        recover_s,
        drain_s,
        scrub_s,
        verify_s,
        harvest_s,
        report_s,
        json_s,
    };

    let m = &world.core.metrics;
    let (p50_us, p999_us) = client_quantiles(&obs);
    let client = obs.client_summary();
    let tier = *world.core.net.tier_traffic();
    let fault = tracker.as_ref().map(|t| t.borrow().report.clone());
    let sim_out = SimOutcome {
        ops: m.ops_completed,
        iops,
        mean_us: m.mean_latency() / 1000.0,
        p50_us,
        p999_us,
        max_us: client.max_us,
        flush_s,
        net_wire_gib: world.core.net.total_wire() as f64 / GIB,
        net_cross_gib: tier.cross_wire as f64 / GIB,
        dev_ops: dev.rw_ops,
        dev_gib: dev.rw_gib,
        overwrite_ops: dev.overwrite_ops,
        erases: dev.erases,
        seq_fraction: dev.seq_fraction,
        mem_peak,
        failed_reads: m.failed_reads,
        corruptions_detected: m.corruptions_detected,
        corruptions_repaired: m.corruptions_repaired,
        corruptions_unrecoverable: m.corruptions_unrecoverable,
        blocks_unrecoverable: fault.as_ref().map_or(0, FaultReport::total_unrecoverable),
        torn_detected: m.torn_detected,
        torn_discarded: m.torn_discarded,
    };

    let stage = |token: &str| obs.stages.iter().find(|s| s.name == token);
    let stage_count = |token: &str| stage(token).map_or(0, |s| s.count);
    let stage_p50 = |token: &str| stage(token).map_or(0.0, |s| s.p50_us);
    let counts = Counts {
        events: sim.events_executed(),
        updates: m.updates_completed,
        extents: m.extents_received,
        net_msgs: (0..world.core.net.nodes())
            .map(|n| world.core.net.node_traffic(n).tx_msgs)
            .sum(),
        dev_busy_ns: world.core.osds.iter().map(|o| o.device.busy_ticks()).sum(),
        buf_hits: buf.pool_hits,
        buf_misses: buf.pool_misses,
        buf_copies: buf.deep_copies,
        buf_bytes_copied: buf.bytes_copied,
        blocks_scrubbed: m.blocks_scrubbed,
        appends: stage_count("data_log_append"),
        forwards: stage_count("delta_forward"),
        merges: stage_count("recycle_merge"),
        stage_append_p50_us: stage_p50("data_log_append"),
        stage_forward_p50_us: stage_p50("delta_forward"),
        stage_merge_p50_us: stage_p50("recycle_merge"),
        drain_tail_s: (quiesce - window_end) as f64 / SECOND as f64,
        virtual_end_s: quiesce as f64 / SECOND as f64,
    };
    let issued: u64 = world.core.clients.iter().map(|c| c.ops_issued).sum();
    spans.exit(rep_span);
    Ok(Rep {
        phases,
        sim: sim_out,
        counts,
        consistency,
        unfinished: issued.saturating_sub(m.ops_completed),
    })
}

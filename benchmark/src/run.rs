//! One workload, one process: the reference runs, the timed repetitions,
//! the correctness gate, and (traced) the layer ledger.

use crate::calib::{self, Chase};
use crate::catalog::{self, Workload};
use crate::driver::{self, Rep, RepOpts, SimOutcome};
use crate::layers::{self, UnitCosts};
use crate::spans::Spans;
use crate::stats::{median, Summary};
use std::time::{Duration, Instant};
use tsue_bench::{run_scenario_traced, ScenarioSpec};
use tsue_ecfs::SchemeRegistry;

/// Timed repetitions never drop below this, however short `--seconds` is.
const MIN_REPS: usize = 5;
/// Checksums-on/off pairs behind `integrity.tax_frac`.
const TAX_PAIRS: usize = 5;
/// One timed batch of a layer micro-driver (five batches each).
const MICRO_BATCH_MS: u64 = 40;
/// Ops per client in `--smoke` runs.
pub const SMOKE_OPS: u64 = 200;

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
}

/// What one invocation measured: named values plus the gate's verdict.
pub struct Outcome {
    /// Client ops one run of the workload issues.
    pub attempted: u64,
    /// Ops that failed plus every gate violation.
    pub failed: u64,
    /// Human-readable gate violations (empty when `failed` is 0).
    pub violations: Vec<String>,
    pub metrics: Vec<(&'static str, Summary)>,
    /// What `host_ops_per_s` was corrected by (`--trace 0` only).
    pub host_latency: Option<HostLatency>,
    pub spans: Spans,
}

/// The host's memory latency during the timed repetitions and the factor
/// it put on `host_ops_per_s`; the raw throughput is the value / `scale`.
pub struct HostLatency {
    pub ns_per_load: f64,
    pub scale: f64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

struct Gate {
    failed: u64,
    violations: Vec<String>,
}

impl Gate {
    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops.max(1);
        self.violations.push(why);
    }

    /// Folds one repetition into the gate: it must agree with the
    /// reference bit for bit, finish every op it issued and lose nothing.
    fn check_rep(&mut self, what: &str, rep: &Rep, reference: &SimOutcome) {
        if rep.sim != *reference {
            self.fail(
                reference.ops,
                format!(
                    "{what}: virtual-time outcome differs from the reference run\n  rep: {:?}\n  ref: {reference:?}",
                    rep.sim
                ),
            );
        }
        if rep.unfinished > 0 {
            self.fail(
                rep.unfinished,
                format!("{what}: {} issued ops never completed", rep.unfinished),
            );
        }
        if rep.sim.failed_ops() > 0 {
            self.fail(
                rep.sim.failed_ops(),
                format!(
                    "{what}: {} failed reads, {} unrecoverable pages, {} unrecoverable blocks",
                    rep.sim.failed_reads,
                    rep.sim.corruptions_unrecoverable,
                    rep.sim.blocks_unrecoverable
                ),
            );
        }
        if let Some(Err(e)) = &rep.consistency {
            self.fail(1, format!("{what}: check_consistency: {e}"));
        }
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let origin = Instant::now();
    let w = args.workload;
    let ops_per_client = if args.smoke {
        SMOKE_OPS
    } else {
        w.ops_per_client
    };
    let mut spec = catalog::spec_for(w, args.seed, ops_per_client);
    if args.smoke {
        // A sixth of the bytes to provision, encode and verify: the smoke
        // run checks that the harness works, not how fast anything is.
        spec.file_mb = Some(2);
        spec.block_kib = Some(256);
    }
    let registry = tsue_bench::default_registry();
    let mut spans = if args.trace {
        Spans::on(origin)
    } else {
        Spans::off()
    };
    let mut gate = Gate {
        failed: 0,
        violations: Vec::new(),
    };

    // Reference runs: the source of every sim_* value and of the
    // determinism check (two runs must serialize identically).
    let (first, reference_s) = spans.timed("bench.reference", || {
        tsue_bench::run_scenario_with(&spec, &registry)
    });
    let first = first?;
    let reference = SimOutcome::from_reference(&first);
    if !args.trace {
        let second = tsue_bench::run_scenario_with(&spec, &registry)?;
        let a = serde_json::to_string(&first).map_err(|e| e.to_string())?;
        let b = serde_json::to_string(&second).map_err(|e| e.to_string())?;
        if a != b {
            gate.fail(
                reference.ops,
                "two reference runs of one spec serialize differently".into(),
            );
        }
    }

    let mut metrics: Vec<(&'static str, Summary)> = Vec::new();
    let mut host_latency = None;
    if args.trace {
        layer_ledger(
            args,
            &spec,
            &registry,
            &reference,
            reference_s,
            &mut gate,
            &mut spans,
            &mut metrics,
        )?;
        let coverage = spans.covered_s() / origin.elapsed().as_secs_f64();
        metrics.push(("bench.span_coverage", Summary::of(&[coverage])));
    } else {
        host_latency = Some(end_to_end(
            args,
            &spec,
            &registry,
            &reference,
            &mut gate,
            &mut metrics,
        )?);
    }
    Ok(Outcome {
        attempted: spec.clients as u64 * ops_per_client,
        failed: gate.failed,
        violations: gate.violations,
        metrics,
        host_latency,
        spans,
    })
}

/// `--trace 0`: timed repetitions for `--seconds` with tracing off (the
/// two reference runs were the warm-up) and a reading of the host's memory
/// latency between each, then one verifying repetition.
fn end_to_end(
    args: &RunArgs,
    spec: &ScenarioSpec,
    registry: &SchemeRegistry,
    reference: &SimOutcome,
    gate: &mut Gate,
    metrics: &mut Vec<(&'static str, Summary)>,
) -> Result<HostLatency, String> {
    let mut off = Spans::off();
    let budget = Duration::from_secs(args.seconds);
    let min_reps = if args.smoke { 1 } else { MIN_REPS };
    let mut chase = Chase::new();
    let started = Instant::now();
    let mut setup = Vec::new();
    let mut host_ops = Vec::new();
    let mut latency = vec![chase.ns_per_load(calib::BURST)];
    let mut events = None;
    while host_ops.len() < min_reps || (!args.smoke && started.elapsed() < budget) {
        let rep = driver::run_rep(spec, registry, RepOpts::PLAIN, &mut off)?;
        gate.check_rep("timed repetition", &rep, reference);
        if *events.get_or_insert(rep.counts.events) != rep.counts.events {
            gate.fail(
                reference.ops,
                format!(
                    "event count differs between repetitions: {} vs {events:?}",
                    rep.counts.events
                ),
            );
        }
        setup.push(rep.phases.build_s);
        host_ops.push(rep.sim.ops as f64 / rep.phases.post_setup_s());
        latency.push(chase.ns_per_load(calib::BURST));
    }
    // One factor for the whole run: the latency drifts over minutes, and a
    // single 30 ms reading is noisier than the repetition beside it.
    let ns_per_load = median(&latency);
    let scale = calib::to_reference(ns_per_load, args.workload.latency_elasticity);
    for v in &mut host_ops {
        *v *= scale;
    }

    // Read before the verifying repetition: its arrival log and replayed
    // reference blocks are the harness's memory, not the system's; so is
    // the chase table, which stays resident until here.
    let peak_rss = peak_rss_mib() - calib::TABLE_MIB;
    drop(chase);
    if spec.materialize() {
        let rep = driver::run_rep(spec, registry, RepOpts::VERIFY, &mut off)?;
        gate.check_rep("verifying repetition", &rep, reference);
    }

    let ops = reference.ops as f64;
    let kib_per_op = |gib: f64| gib * (1u64 << 20) as f64 / ops;
    let one = |v: f64| Summary::of(&[v]);
    metrics.extend([
        ("setup_s", Summary::of(&setup)),
        ("host_ops_per_s", Summary::of(&host_ops)),
        ("peak_rss_mib", one(peak_rss)),
        ("sim_iops", one(reference.iops)),
        ("sim_p50_us", one(reference.p50_us)),
        ("sim_p999_us", one(reference.p999_us)),
        (
            "sim_net_kib_per_op",
            one(kib_per_op(reference.net_wire_gib)),
        ),
        ("sim_dev_ops_per_op", one(reference.dev_ops as f64 / ops)),
        ("sim_dev_kib_per_op", one(kib_per_op(reference.dev_gib))),
        (
            "sim_overwrites_per_op",
            one(reference.overwrite_ops as f64 / ops),
        ),
        (
            "sim_mem_peak_mib",
            one(reference.mem_peak as f64 / (1u64 << 20) as f64),
        ),
    ]);
    Ok(HostLatency { ns_per_load, scale })
}

/// `--trace 1`: the traced repetition, the layer micro-drivers and the
/// paired runs (checksums, op tracing, threads) behind the layer ledger.
#[allow(clippy::too_many_arguments)]
fn layer_ledger(
    args: &RunArgs,
    spec: &ScenarioSpec,
    registry: &SchemeRegistry,
    reference: &SimOutcome,
    reference_s: f64,
    gate: &mut Gate,
    spans: &mut Spans,
    metrics: &mut Vec<(&'static str, Summary)>,
) -> Result<(), String> {
    let pairs = if args.smoke { 1 } else { TAX_PAIRS };
    let batch = Duration::from_millis(if args.smoke { 2 } else { MICRO_BATCH_MS });
    let costs = layers::measure(spec, batch, spans);

    let mut unchecked = spec.clone();
    unchecked.checksums = Some(false);
    // Scrubbing needs digests, so the tax on ten-fault-tsue includes it.
    unchecked.scrub_mb_s = Some(0);
    let mut off = Spans::off();
    let wall = |r: &Rep| r.phases.post_setup_s();
    let (mut base, mut tax, mut traced_wall, mut t2, mut op_trace) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut traced: Option<Rep> = None;
    // Read as `--trace 0` reads it, right after a repetition: back-to-back
    // readings would find the table cached and come out at half.
    let (mut chase, _) = spans.timed("bench.mem_load", Chase::new);
    let mut latency = Vec::new();
    for i in 0..pairs {
        // The untraced repetition of the plain spec is the baseline of
        // every pair below; running all variants in turn spreads host
        // drift over them evenly.
        let (rep, _) = spans.timed("bench.untraced_rep", || {
            driver::run_rep(spec, registry, RepOpts::PLAIN, &mut off)
        });
        let rep = rep?;
        gate.check_rep("untraced repetition", &rep, reference);
        base.push(wall(&rep));
        let (ns, _) = spans.timed("bench.mem_load", || chase.ns_per_load(calib::BURST));
        latency.push(ns);

        if spec.materialize() {
            let (rep, _) = spans.timed("integrity.checksums_off_rep", || {
                driver::run_rep(&unchecked, registry, RepOpts::PLAIN, &mut off)
            });
            tax.push(base[i] / wall(&rep?) - 1.0);
        }
        if i < 2 {
            let opts = if spec.materialize() {
                RepOpts::VERIFY
            } else {
                RepOpts::PLAIN
            };
            let rep = driver::run_rep(spec, registry, opts, spans)?;
            gate.check_rep("traced repetition", &rep, reference);
            traced_wall.push(wall(&rep));
            traced = Some(rep);

            let (on, on_s) = spans.timed("obs.op_trace_on", || {
                run_scenario_traced(spec, registry, 1, true)
            });
            on?;
            let (run_off, off_s) = spans.timed("obs.op_trace_off", || {
                run_scenario_traced(spec, registry, 1, false)
            });
            run_off?;
            op_trace.push(on_s / off_s - 1.0);
        }
        if i < 3 {
            let (rep, _) = spans.timed("sim.threads_2_rep", || {
                let two = RepOpts {
                    threads: 2,
                    ..RepOpts::PLAIN
                };
                driver::run_rep(spec, registry, two, &mut off)
            });
            let rep = rep?;
            gate.check_rep("threads-2 repetition", &rep, reference);
            t2.push(base[i] / wall(&rep));
        }
    }
    let rep = traced.expect("at least one pair ran");
    let post = median(&base);
    let c = &rep.counts;
    let ops = reference.ops as f64;
    let share = |count: f64, unit_ns: f64| count * unit_ns / (post * 1e9);
    let bytes = if spec.materialize() { 1.0 } else { 0.0 };

    let sim_share = share(c.events as f64, costs.sim_empty_event_ns);
    let device_share = share(reference.dev_ops as f64, costs.device_submit_ns);
    let net_share = share(c.net_msgs as f64, costs.net_transfer_ns);
    let trace_share = share(ops, costs.trace_next_op_ns);
    let records = (reference.ops + c.appends + c.forwards + c.merges) as f64;
    let obs_share = share(records, costs.obs_record_ns);
    let ec_share = bytes * share(c.extents as f64, costs.ec_update_mix_ns);
    let buf_share = share((c.buf_hits + c.buf_misses) as f64, costs.buf_take_ns)
        + share(c.buf_bytes_copied as f64, 1.0 / costs.buf_copy_gbps);
    // Each update extent re-digests its pages on the data block and on
    // the `m` parity blocks it reaches.
    let digested = c.extents as f64 * (1 + spec.m) as f64 * costs.mean_paged_bytes;
    let checks = if spec.checksums() { bytes } else { 0.0 };
    let integrity_share = checks * share(digested, 1.0 / costs.integrity_checksum_gbps);
    // Clients fill every update's payload byte by byte before sending it.
    let payload_share = bytes
        * share(
            c.updates as f64 * costs.mean_update_bytes,
            1.0 / costs.payload_gbps,
        );
    let attributed = payload_share
        + sim_share
        + device_share
        + net_share
        + trace_share
        + obs_share
        + ec_share
        + buf_share
        + integrity_share;

    let mismatches = match &rep.consistency {
        Some(Err(_)) => 1.0,
        _ => 0.0,
    };
    let block_bytes = spec.block_bytes() as f64;
    let scrub_gbps = if rep.phases.scrub_s > 0.0 && c.blocks_scrubbed > 0 {
        c.blocks_scrubbed as f64 * block_bytes / rep.phases.scrub_s / 1e9
    } else {
        0.0
    };
    let ph = &rep.phases;
    let tax_summary = if tax.is_empty() {
        Summary::of(&[0.0])
    } else {
        Summary::of(&tax)
    };
    push_ledger(
        metrics,
        &costs,
        &[
            ("bench.build_s", ph.build_s),
            ("bench.run_s", ph.run_s),
            ("bench.drain_s", ph.drain_s),
            ("bench.scrub_s", ph.scrub_s),
            ("bench.verify_s", ph.verify_s),
            ("bench.harvest_ms", ph.harvest_s * 1e3),
            ("bench.json_ms", ph.json_s * 1e3),
            ("bench.unattributed_share", 1.0 - attributed),
            (
                "bench.trace_overhead_frac",
                median(&traced_wall) / post - 1.0,
            ),
            ("bench.reference_s", reference_s),
            ("bench.mem_load_ns", median(&latency)),
            ("sim.events", c.events as f64),
            ("sim.events_per_op", c.events as f64 / ops),
            ("sim.host_ns_per_event", post * 1e9 / c.events as f64),
            ("sim.queue_est_share", sim_share),
            ("sim.exec_speedup_t2", median(&t2)),
            ("device.ops", reference.dev_ops as f64),
            ("device.est_share", device_share),
            (
                "device.util",
                // Busy time is summed over each SSD's internal channels.
                c.dev_busy_ns as f64
                    / (spec.osds() as f64
                        * tsue_device::ssd::SsdSpec::default().channels as f64
                        * c.virtual_end_s
                        * 1e9),
            ),
            ("device.seq_frac", reference.seq_fraction),
            ("device.erases", reference.erases as f64),
            ("net.msgs", c.net_msgs as f64),
            ("net.est_share", net_share),
            (
                "net.cross_rack_frac",
                reference.net_cross_gib / reference.net_wire_gib,
            ),
            ("trace.est_share", trace_share),
            ("obs.report_ms", ph.report_s * 1e3),
            ("obs.est_share", obs_share),
            ("obs.trace_tax_frac", median(&op_trace)),
            ("ec.est_share", ec_share),
            (
                "buf.pool_hit_rate",
                c.buf_hits as f64 / ((c.buf_hits + c.buf_misses).max(1)) as f64,
            ),
            ("buf.allocs_per_op", c.buf_misses as f64 / ops),
            ("buf.copies_per_op", c.buf_copies as f64 / ops),
            (
                "buf.copied_kib_per_op",
                c.buf_bytes_copied as f64 / 1024.0 / ops,
            ),
            ("buf.est_share", buf_share),
            ("integrity.tax_frac", tax_summary.median),
            ("integrity.tax_spread", tax_summary.q3 - tax_summary.q1),
            ("integrity.est_share", integrity_share),
            (
                "integrity.pages_detected",
                reference.corruptions_detected as f64,
            ),
            (
                "integrity.pages_repaired",
                reference.corruptions_repaired as f64,
            ),
            (
                "integrity.unaccounted_pages",
                reference.corruptions_detected.saturating_sub(
                    reference.corruptions_repaired + reference.corruptions_unrecoverable,
                ) as f64,
            ),
            ("ecfs.host_us_per_op", post * 1e6 / ops),
            ("ecfs.payload_est_share", payload_share),
            ("ecfs.scrub_gbps", scrub_gbps),
            ("ecfs.verify_mismatches", mismatches),
            ("ecfs.sim_drain_s", c.drain_tail_s),
            ("core.stage_append_p50_us", c.stage_append_p50_us),
            ("core.stage_forward_p50_us", c.stage_forward_p50_us),
            ("core.stage_merge_p50_us", c.stage_merge_p50_us),
            (
                "core.forwards_per_append",
                c.forwards as f64 / c.appends.max(1) as f64,
            ),
            ("fault.torn_appends", reference.torn_detected as f64),
            ("fault.torn_discarded", reference.torn_discarded as f64),
        ],
    );
    Ok(())
}

fn push_ledger(
    metrics: &mut Vec<(&'static str, Summary)>,
    costs: &UnitCosts,
    derived: &[(&'static str, f64)],
) {
    let unit_costs = [
        ("sim.empty_event_ns", costs.sim_empty_event_ns),
        ("device.submit_ns", costs.device_submit_ns),
        ("net.transfer_ns", costs.net_transfer_ns),
        ("trace.next_op_ns", costs.trace_next_op_ns),
        ("obs.record_ns", costs.obs_record_ns),
        ("gf.mul_add_gbps", costs.gf_mul_add_gbps),
        ("gf.xor_gbps", costs.gf_xor_gbps),
        ("gf.mul_add_4k_ns", costs.gf_mul_add_4k_ns),
        ("ec.data_delta_4k_ns", costs.ec_data_delta_4k_ns),
        ("ec.combine_4k_ns", costs.ec_combine_4k_ns),
        ("ec.update_mix_ns", costs.ec_update_mix_ns),
        ("ec.encode_mbps", costs.ec_encode_mbps),
        ("ec.reconstruct_mbps", costs.ec_reconstruct_mbps),
        ("buf.take_ns", costs.buf_take_ns),
        ("buf.copy_gbps", costs.buf_copy_gbps),
        ("integrity.checksum_gbps", costs.integrity_checksum_gbps),
        ("ecfs.rangemap_insert_ns", costs.rangemap_insert_ns),
        ("ecfs.payload_gbps", costs.payload_gbps),
        ("core.logunit_append_ns", costs.logunit_append_ns),
    ];
    for &(name, v) in unit_costs.iter().chain(derived) {
        metrics.push((name, Summary::of(&[v])));
    }
}

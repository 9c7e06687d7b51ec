//! One function per table/figure of the paper's evaluation (§5).
//!
//! Every sweep is expressed as a list of [`ScenarioSpec`]s — the same
//! declarative descriptions `tsuectl run` consumes from JSON. The
//! sweeps that return raw results (`fig5`, `table1`, `fig8a`) yield
//! [`ScenarioOutcome`]s pairing each result with its reproducing spec;
//! the others reduce to figure-specific rows.

use crate::scenario::fan_out;
use crate::{
    default_registry, run_scenario, run_scenarios, MsrSel, RunResult, Scale, ScenarioOutcome,
    ScenarioSpec, SchemeSpec, TraceKind,
};
use serde::{Deserialize, Serialize, Value};
use tsue_core::TsueConfig;
use tsue_ecfs::{run_recovery, run_workload, Cluster};
use tsue_sim::{Sim, MILLISECOND};

/// The six RS shapes of Fig. 5, in paper order.
pub const FIG5_CODES: [(usize, usize); 6] = [(6, 2), (12, 2), (6, 3), (12, 3), (6, 4), (12, 4)];

/// A sweep point: the auto-named spec for one (trace, code, clients,
/// scheme) cell with the scale's window applied.
fn sweep_spec(
    trace: TraceKind,
    k: usize,
    m: usize,
    clients: usize,
    scheme: SchemeSpec,
    scale: Scale,
) -> ScenarioSpec {
    let name = ScenarioSpec::auto_name(&scheme, trace, k, m, clients);
    let mut s = ScenarioSpec::ssd(name, trace, k, m, clients, scheme);
    s.duration_ms = Some(scale.duration_ms());
    s
}

/// Fig. 5 — update throughput on the SSD cluster: Ali/Ten × six RS codes ×
/// client counts × {FO, PL, PLR, PARIX, CoRD, TSUE}.
pub fn fig5(scale: Scale) -> Vec<ScenarioOutcome> {
    let mut specs = Vec::new();
    for trace in [TraceKind::Ali, TraceKind::Ten] {
        for (k, m) in FIG5_CODES {
            for clients in scale.client_counts() {
                for scheme in SchemeSpec::fig5_lineup() {
                    specs.push(sweep_spec(trace, k, m, clients, scheme, scale));
                }
            }
        }
    }
    run_scenarios(specs).expect("fig5 specs are valid")
}

/// Fig. 6a — TSUE IOPS sampled over a one-minute window (Quick: scaled
/// down), showing that back-end recycling does not dent foreground
/// throughput.
pub fn fig6a(scale: Scale) -> RunResult {
    let mut s = ScenarioSpec::ssd("fig6a", TraceKind::Ten, 6, 4, 16, SchemeSpec::tsue());
    s.duration_ms = Some(match scale {
        Scale::Quick => 3_000,
        Scale::Full => 60_000,
    });
    s.file_mb = Some(16);
    run_scenario(&s).expect("fig6a spec is valid")
}

/// One row of the Fig. 6b sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig6bRow {
    /// Log-unit quota per pool.
    pub max_units: usize,
    /// Aggregate IOPS.
    pub iops: f64,
    /// Peak per-OSD log memory, MiB.
    pub mem_mib: f64,
    /// Peak memory as a fraction of the quota ceiling.
    pub mem_fraction_of_quota: f64,
}

/// Fig. 6b — update performance and memory versus the log-unit quota
/// (2..20 units per pool), expressed as a single TSUE knob per point.
pub fn fig6b(scale: Scale) -> Vec<Fig6bRow> {
    let units = match scale {
        Scale::Quick => vec![2, 4, 8],
        Scale::Full => vec![2, 4, 6, 8, 12, 16, 20],
    };
    let specs: Vec<ScenarioSpec> = units
        .iter()
        .map(|&mu| {
            let scheme = SchemeSpec::with_knobs(
                "tsue",
                Value::Object(vec![("max_units".into(), Value::UInt(mu as u64))]),
            );
            let mut s =
                ScenarioSpec::ssd(format!("fig6b-units{mu}"), TraceKind::Ten, 6, 4, 16, scheme);
            s.duration_ms = Some(scale.duration_ms());
            s
        })
        .collect();
    let results = run_scenarios(specs).expect("fig6b specs are valid");
    units
        .into_iter()
        .zip(results)
        .map(|(mu, o)| {
            let quota =
                (mu as u64 * (16 << 20) * TsueConfig::ssd_default().pools as u64 * 3) as f64;
            Fig6bRow {
                max_units: mu,
                iops: o.result.iops,
                mem_mib: o.result.mem_peak as f64 / (1 << 20) as f64,
                mem_fraction_of_quota: o.result.mem_peak as f64 / quota,
            }
        })
        .collect()
}

/// One bar of the Fig. 7 breakdown.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig7Row {
    /// Trace name.
    pub trace: String,
    /// RS shape.
    pub k: usize,
    /// Parity count.
    pub m: usize,
    /// Ablation level name (Baseline, O1..O5).
    pub level: String,
    /// Aggregate IOPS.
    pub iops: f64,
}

/// Names of the Fig. 7 ablation levels.
pub const FIG7_LEVELS: [&str; 6] = ["Baseline", "O1", "O2", "O3", "O4", "O5"];

/// Fig. 7 — contribution breakdown: cumulative O1..O5 over the baseline
/// two-layer memory-log design, for Ali & Ten × RS(6,2/3/4). Each bar is
/// the one-knob `breakdown_level` scenario.
pub fn fig7(scale: Scale) -> Vec<Fig7Row> {
    let codes: &[(usize, usize)] = match scale {
        Scale::Quick => &[(6, 4)],
        Scale::Full => &[(6, 2), (6, 3), (6, 4)],
    };
    let traces: &[TraceKind] = match scale {
        Scale::Quick => &[TraceKind::Ten],
        Scale::Full => &[TraceKind::Ali, TraceKind::Ten],
    };
    let mut specs = Vec::new();
    let mut meta = Vec::new();
    for &trace in traces {
        for &(k, m) in codes {
            for (lvl, name) in FIG7_LEVELS.iter().enumerate() {
                let scheme = SchemeSpec::with_knobs(
                    "tsue",
                    Value::Object(vec![("breakdown_level".into(), Value::UInt(lvl as u64))]),
                );
                let mut s = ScenarioSpec::ssd(
                    format!("fig7-{}-rs{k}-{m}-{}", trace.token(), name.to_lowercase()),
                    trace,
                    k,
                    m,
                    16,
                    scheme,
                );
                s.duration_ms = Some(scale.duration_ms());
                meta.push((trace.name(), k, m, name.to_string()));
                specs.push(s);
            }
        }
    }
    let results = run_scenarios(specs).expect("fig7 specs are valid");
    meta.into_iter()
        .zip(results)
        .map(|((trace, k, m, level), o)| Fig7Row {
            trace,
            k,
            m,
            level,
            iops: o.result.iops,
        })
        .collect()
}

/// Table 1 — storage workload and network traffic under Ten-Cloud RS(6,4):
/// every scheme replays the same window, then drains its logs so recycle
/// I/O is included, exactly like the paper's accounting. The erase counts
/// feed the lifespan comparison (§5.3.4).
pub fn table1(scale: Scale) -> Vec<ScenarioOutcome> {
    let mut lineup = SchemeSpec::fig5_lineup();
    lineup.insert(1, SchemeSpec::named("fl")); // FO, FL, PL, ...
    let ops = match scale {
        Scale::Quick => 800,
        Scale::Full => 8_000,
    };
    let specs: Vec<ScenarioSpec> = lineup
        .into_iter()
        .map(|scheme| {
            let mut s = sweep_spec(TraceKind::Ten, 6, 4, 16, scheme, scale);
            s.name = format!("table1-{}", s.scheme.name);
            s.ops_per_client = Some(ops);
            s.flush_after = Some(true);
            s
        })
        .collect();
    run_scenarios(specs).expect("table1 specs are valid")
}

/// Table 2 result: residency rows for one trace.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table2Result {
    /// Trace name.
    pub trace: String,
    /// Rows: (layer, append µs, buffer µs, recycle µs).
    pub rows: Vec<(String, f64, f64, f64)>,
    /// Total mean residence, µs.
    pub total_us: f64,
}

/// Table 2 — mean residence time per log layer under RS(12,4).
pub fn table2(scale: Scale) -> Vec<Table2Result> {
    let registry = default_registry();
    fan_out(vec![TraceKind::Ali, TraceKind::Ten], |trace| {
        let mut s = ScenarioSpec::ssd(
            format!("table2-{}", trace.token()),
            trace,
            12,
            4,
            16,
            SchemeSpec::tsue(),
        );
        s.duration_ms = Some(match scale {
            Scale::Quick => 2_000,
            Scale::Full => 10_000,
        });
        // Build the cluster here (not via run_scenario) so the scheme
        // instances remain inspectable for residency harvesting.
        let mut world = s.build_cluster(&registry).expect("table2 spec is valid");
        let mut sim: Sim<Cluster> = Sim::new();
        run_workload(&mut world, &mut sim, s.duration_ms() * MILLISECOND);
        world.flush_all(&mut sim);
        let stats = tsue_core::tsue::harvest_residency(&world);
        let rows = stats
            .rows()
            .iter()
            .map(|(n, a, b, r)| (n.to_string(), *a, *b, *r))
            .collect();
        Table2Result {
            trace: trace.name(),
            rows,
            total_us: stats.total_ns() / 1000.0,
        }
    })
}

/// The HDD lineup of Fig. 8 (no FL/CoRD, matching the paper).
fn fig8_lineup() -> Vec<SchemeSpec> {
    ["fo", "pl", "plr", "parix", "tsue"]
        .into_iter()
        .map(SchemeSpec::named)
        .collect()
}

/// Fig. 8a — HDD-cluster update throughput over the MSR volumes for
/// {FO, PL, PLR, PARIX, TSUE} under RS(6,4).
pub fn fig8a(scale: Scale) -> Vec<ScenarioOutcome> {
    let volumes: Vec<MsrSel> = match scale {
        Scale::Quick => vec![MsrSel::Src22, MsrSel::Usr0],
        Scale::Full => MsrSel::all().to_vec(),
    };
    let mut specs = Vec::new();
    for &vol in &volumes {
        for scheme in fig8_lineup() {
            let trace = TraceKind::Msr(vol);
            let name = ScenarioSpec::auto_name(&scheme, trace, 6, 4, 16);
            let mut s = ScenarioSpec::hdd(name, trace, 6, 4, 16, scheme);
            s.duration_ms = Some(scale.duration_ms());
            s.file_mb = Some(8);
            specs.push(s);
        }
    }
    run_scenarios(specs).expect("fig8a specs are valid")
}

/// One Fig. 8b recovery measurement.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig8bRow {
    /// Trace name.
    pub trace: String,
    /// Scheme name.
    pub scheme: String,
    /// Recovery bandwidth, MB/s.
    pub recovery_mb_s: f64,
    /// Share of the recovery window spent draining logs.
    pub flush_share: f64,
}

/// Fig. 8b — recovery bandwidth after an update run on the HDD cluster:
/// kill one node, recover all its blocks; schemes with lazy logs pay the
/// drain inside the measured window.
pub fn fig8b(scale: Scale) -> Vec<Fig8bRow> {
    let registry = default_registry();
    let volumes: Vec<MsrSel> = match scale {
        Scale::Quick => vec![MsrSel::Src22],
        Scale::Full => MsrSel::all().to_vec(),
    };
    let mut out = Vec::new();
    for &vol in &volumes {
        for scheme in fig8_lineup() {
            let trace = TraceKind::Msr(vol);
            let mut s = ScenarioSpec::hdd(
                format!("fig8b-{}-{}", trace.token(), scheme.name),
                trace,
                6,
                4,
                8,
                scheme,
            );
            // Long enough for lazily-recycled logs to accumulate a real
            // backlog (the paper runs updates for 3 minutes first).
            s.duration_ms = Some(match scale {
                Scale::Quick => 3_000,
                Scale::Full => 20_000,
            });
            s.file_mb = Some(8);
            let scheme_display = s.scheme_display(&registry);
            let mut world = s.build_cluster(&registry).expect("fig8b spec is valid");
            let mut sim: Sim<Cluster> = Sim::new();
            run_workload(&mut world, &mut sim, s.duration_ms() * MILLISECOND);
            let report = run_recovery(&mut world, &mut sim, 0);
            eprintln!(
                "[fig8b] {} / {}: {:.2} MB/s (flush share {:.2})",
                s.trace.name(),
                scheme_display,
                report.bandwidth() / 1e6,
                report.flush_time as f64 / report.total_time.max(1) as f64
            );
            out.push(Fig8bRow {
                trace: s.trace.name(),
                scheme: scheme_display,
                recovery_mb_s: report.bandwidth() / 1e6,
                flush_share: if report.total_time == 0 {
                    0.0
                } else {
                    report.flush_time as f64 / report.total_time as f64
                },
            });
        }
    }
    out
}

/// Lifespan summary derived from Table 1 runs (§5.3.4).
///
/// The paper bases its "2.5×–13× longer" claim on the drop in
/// flash-hostile small in-place overwrites (the write penalty), which is
/// what triggers page invalidation, GC migration, and erases once the
/// device cycles. We report the overwrite-count ratio as the lifetime
/// multiple and carry raw erase counts alongside (they dominate on long
/// runs that cycle device capacity).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LifespanRow {
    /// Scheme name.
    pub scheme: String,
    /// In-place overwrite operations during the Table 1 run.
    pub overwrites: u64,
    /// Erase operations during the Table 1 run.
    pub erases: u64,
    /// Lifetime multiple TSUE achieves over this scheme.
    pub tsue_lifetime_multiple: f64,
}

/// Computes the lifespan comparison from Table 1 results.
pub fn lifespan(table1_rows: &[RunResult]) -> Vec<LifespanRow> {
    let tsue = table1_rows
        .iter()
        .find(|r| r.scheme == "TSUE")
        .map(|r| (r.dev.overwrite_ops.max(1), r.dev.erases))
        .unwrap_or((1, 0));
    table1_rows
        .iter()
        .map(|r| LifespanRow {
            scheme: r.scheme.clone(),
            overwrites: r.dev.overwrite_ops,
            erases: r.dev.erases,
            tsue_lifetime_multiple: r.dev.overwrite_ops as f64 / tsue.0 as f64,
        })
        .collect()
}

/// Extension (paper §7 future work): delta compression in the log layers.
/// Returns (without, with) results; compare `net_payload_gib`.
pub fn ext_compression(scale: Scale) -> (RunResult, RunResult) {
    let mk = |compress: bool| {
        let scheme = SchemeSpec::with_knobs(
            "tsue",
            Value::Object(vec![("compress_deltas".into(), Value::Bool(compress))]),
        );
        let mut s = ScenarioSpec::ssd(
            format!("ext-compression-{}", if compress { "on" } else { "off" }),
            TraceKind::Ten,
            6,
            4,
            16,
            scheme,
        );
        s.duration_ms = Some(scale.duration_ms());
        s
    };
    let mut r = run_scenarios(vec![mk(false), mk(true)]).expect("ext specs are valid");
    let with = r.pop().expect("two runs").result;
    let without = r.pop().expect("two runs").result;
    (without, with)
}

/// Ablation (paper §5.3.5): log-unit size vs residence time — halving the
/// unit from 16 MiB to 8 MiB should roughly halve buffer dwell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct UnitSizeRow {
    /// Unit size in MiB.
    pub unit_mib: u64,
    /// Mean DataLog buffer dwell, ms.
    pub data_buffer_ms: f64,
    /// Aggregate IOPS.
    pub iops: f64,
}

/// Runs the unit-size residence ablation.
pub fn ext_unit_size(scale: Scale) -> Vec<UnitSizeRow> {
    let registry = default_registry();
    let sizes: &[u64] = match scale {
        Scale::Quick => &[4, 16],
        Scale::Full => &[4, 8, 16, 32],
    };
    fan_out(sizes.to_vec(), |mib| {
        let scheme = SchemeSpec::with_knobs(
            "tsue",
            Value::Object(vec![("unit_size".into(), Value::UInt(mib << 20))]),
        );
        let mut s = ScenarioSpec::ssd(
            format!("ext-unit-size-{mib}m"),
            TraceKind::Ten,
            6,
            4,
            16,
            scheme,
        );
        s.duration_ms = Some(match scale {
            Scale::Quick => 2_000,
            Scale::Full => 8_000,
        });
        let mut world = s.build_cluster(&registry).expect("unit-size spec is valid");
        let mut sim: Sim<Cluster> = Sim::new();
        run_workload(&mut world, &mut sim, s.duration_ms() * MILLISECOND);
        let end = world
            .core
            .stop_at
            .expect("run_workload sets stop_at")
            .max(sim.now());
        let iops = world.core.metrics.iops(end);
        world.flush_all(&mut sim);
        let stats = tsue_core::tsue::harvest_residency(&world);
        UnitSizeRow {
            unit_mib: mib,
            data_buffer_ms: stats.layers[0].buffer.mean_ns() / 1e6, // DataLog
            iops,
        }
    })
}

/// Sanity run used by integration tests: a tiny two-scheme comparison.
pub fn smoke() -> (RunResult, RunResult) {
    let mk = |scheme: SchemeSpec| {
        let mut s = ScenarioSpec::ssd(
            format!("smoke-{}", scheme.name),
            TraceKind::Ten,
            4,
            2,
            4,
            scheme,
        );
        s.duration_ms = Some(300);
        s.file_mb = Some(4);
        s
    };
    let fo = run_scenario(&mk(SchemeSpec::named("fo"))).expect("smoke fo");
    let tsue = run_scenario(&mk(SchemeSpec::tsue())).expect("smoke tsue");
    (fo, tsue)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_produce_throughput() {
        let (fo, tsue) = smoke();
        assert!(fo.iops > 0.0, "FO must complete ops");
        assert!(tsue.iops > 0.0, "TSUE must complete ops");
        assert!(fo.mean_latency_us > 0.0);
        assert_eq!(fo.k, 4);
    }

    #[test]
    fn tsue_beats_fo_on_hot_workload() {
        // The headline claim at small scale: TSUE > FO on Ten-Cloud.
        let (fo, tsue) = smoke();
        assert!(
            tsue.iops > fo.iops,
            "TSUE ({:.0}) should outperform FO ({:.0})",
            tsue.iops,
            fo.iops
        );
    }

    #[test]
    fn lifespan_normalizes_to_tsue() {
        let mk = |scheme: &str, erases: u64| RunResult {
            scheme: scheme.into(),
            trace: "t".into(),
            k: 6,
            m: 4,
            clients: 1,
            iops: 0.0,
            mean_latency_us: 0.0,
            latency: tsue_obs::LatencySummary::default(),
            per_second: vec![],
            dev: crate::DevSummary {
                overwrite_ops: erases,
                ..Default::default()
            },
            net_payload_gib: 0.0,
            net_wire_gib: 0.0,
            mem_peak: 0,
            flush_s: 0.0,
            cache_hits: 0,
            degraded_reads: 0,
            degraded_writes: 0,
            failed_reads: 0,
            journaled_writes: 0,
            journaled_bytes: 0,
            replayed_bytes: 0,
            resync_bytes: 0,
            reclaimed_blocks: 0,
            rehomed_residual: 0,
            net_intra_gib: 0.0,
            net_cross_gib: 0.0,
            blocks_scrubbed: 0,
            corruptions_detected: 0,
            corruptions_repaired: 0,
            corruptions_unrecoverable: 0,
            torn_detected: 0,
            torn_replayed: 0,
            torn_discarded: 0,
            replica_replayed_bytes: 0,
            recovery: None,
            obs: tsue_obs::ObsReport::default(),
        };
        let rows = lifespan(&[mk("FO", 1300), mk("TSUE", 100)]);
        assert_eq!(rows[0].tsue_lifetime_multiple, 13.0);
        assert_eq!(rows[1].tsue_lifetime_multiple, 1.0);
    }
}

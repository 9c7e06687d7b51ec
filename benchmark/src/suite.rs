//! Result files, the whole-suite runner (one child process per workload
//! and trace mode, each under a hard timeout) and the non-gated probes.

use crate::catalog::{self, Better};
use crate::run::Outcome;
use crate::Cli;
use serde::Value;
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

pub const SCHEMA: &str = "tsue-benchmark/v1";
/// A workload child that runs longer than this is killed and counted as
/// failed; a probe gets [`PROBE_TIMEOUT`].
const RUN_TIMEOUT: Duration = Duration::from_secs(170);
const PROBE_TIMEOUT: Duration = Duration::from_secs(60);

/// Known cliffs found while sizing the suite. They are run only with
/// `--probes`, reported as pass / panic / timeout, and never gate.
const PROBES: [(&str, &str); 2] = [
    (
        "rack-heal-flush-stall",
        include_str!("../probes/rack-heal-flush-stall.json"),
    ),
    (
        "gc-drain-cliff",
        include_str!("../probes/gc-drain-cliff.json"),
    ),
];

pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn s(v: &str) -> Value {
    Value::Str(v.into())
}

pub fn write_json(path: &str, v: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(v).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))
}

pub fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::value_from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Unit, direction and (per-layer only) expected effect of a catalog
/// metric.
fn metric_meta(name: &str) -> Option<(&'static str, Better, Option<&'static str>)> {
    let e2e = catalog::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better, None));
    let layer = catalog::PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, m.better, Some(m.moves)));
    e2e.chain(layer)
        .find(|(n, ..)| *n == name)
        .map(|(_, unit, better, moves)| (unit, better, moves))
}

/// The full record of one workload run: every metric with its order
/// statistics, the gate's verdict and what was run.
pub fn detail_value(name: &str, cli: &Cli, outcome: &Outcome) -> Result<Value, String> {
    let mut metrics = Vec::new();
    for (metric, sum) in &outcome.metrics {
        let (unit, better, moves) =
            metric_meta(metric).ok_or_else(|| format!("metric {metric} is not in the catalog"))?;
        metrics.push((
            (*metric).to_string(),
            obj(vec![
                ("unit", s(unit)),
                ("better", s(better.token())),
                ("should_move", moves.map_or(Value::Null, s)),
                ("value", Value::Float(sum.median)),
                ("n", Value::UInt(sum.n as u64)),
                ("q1", Value::Float(sum.q1)),
                ("q3", Value::Float(sum.q3)),
                ("min", Value::Float(sum.min)),
                ("max", Value::Float(sum.max)),
            ]),
        ));
    }
    Ok(obj(vec![
        ("workload", s(name)),
        ("seed", Value::UInt(cli.seed)),
        ("seconds", Value::UInt(cli.seconds)),
        ("trace", Value::UInt(cli.trace as u64)),
        ("smoke", Value::Bool(cli.smoke)),
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", Value::UInt(outcome.attempted)),
        ("failed", Value::UInt(outcome.failed)),
        (
            "violations",
            Value::Array(outcome.violations.iter().map(|v| s(v)).collect()),
        ),
        ("metrics", Value::Object(metrics)),
        (
            "host_latency",
            outcome.host_latency.as_ref().map_or(Value::Null, |h| {
                obj(vec![
                    ("ns_per_load", Value::Float(h.ns_per_load)),
                    ("reference_ns", Value::Float(crate::calib::REFERENCE_NS)),
                    ("host_ops_scale", Value::Float(h.scale)),
                ])
            }),
        ),
    ]))
}

/// The contract line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// with every metric of the run's mode and nothing else.
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let names: Vec<&str> = if traced {
        catalog::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        catalog::END_TO_END.iter().map(|m| m.name).collect()
    };
    if outcome.metrics.len() != names.len() {
        return Err(format!(
            "run produced {} metrics, the catalog lists {}",
            outcome.metrics.len(),
            names.len()
        ));
    }
    let mut metrics = Vec::new();
    for name in names {
        let (_, sum) = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .ok_or_else(|| format!("run produced no value for {name}"))?;
        let (unit, ..) = metric_meta(name).expect("name comes from the catalog");
        metrics.push((
            name.to_string(),
            obj(vec![("value", Value::Float(sum.median)), ("unit", s(unit))]),
        ));
    }
    let line = obj(vec![
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", Value::UInt(outcome.attempted)),
        ("failed", Value::UInt(outcome.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

/// A JSON number of any of the three numeric kinds.
pub fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Float(x) => Some(*x),
        Value::UInt(x) => Some(*x as f64),
        Value::Int(x) => Some(*x as f64),
        _ => None,
    }
}

fn num(v: &Value, key: &str) -> f64 {
    number(v.get(key)).unwrap_or(f64::NAN)
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(x)) => x,
        _ => "",
    }
}

/// Human-readable table of one run (standard error; the contract line
/// alone goes to standard output).
pub fn render_detail(detail: &Value) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} seed {} trace {}: attempted {} failed {}",
        text(detail, "workload"),
        num(detail, "seed"),
        num(detail, "trace"),
        num(detail, "attempted"),
        num(detail, "failed"),
    );
    if let Some(Value::Object(metrics)) = detail.get("metrics") {
        for (name, m) in metrics {
            let _ = write!(
                out,
                "  {name:<30} {:>16.6} {:<9}",
                num(m, "value"),
                text(m, "unit")
            );
            if num(m, "n") > 1.0 {
                let _ = write!(
                    out,
                    " n={} q1={:.6} q3={:.6} min={:.6} max={:.6}",
                    num(m, "n"),
                    num(m, "q1"),
                    num(m, "q3"),
                    num(m, "min"),
                    num(m, "max")
                );
            }
            out.push('\n');
        }
    }
    if let Some(h @ Value::Object(_)) = detail.get("host_latency") {
        let _ = writeln!(
            out,
            "  host memory latency {:.1} ns/load (reference {:.0}): host_ops_per_s is the raw figure x {:.4}",
            num(h, "ns_per_load"),
            num(h, "reference_ns"),
            num(h, "host_ops_scale"),
        );
    }
    out
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The environment block every suite result records.
fn environment(seed: u64) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj(vec![
        ("nproc", Value::UInt(nproc as u64)),
        ("cpu_model", s(&cpu)),
        ("gf_kernel_tier", s(tsue_gf::kernel_tier().name())),
        ("rustc", s(&command_line("rustc", &["--version"]))),
        ("commit", s(&command_line("git", &["rev-parse", "HEAD"]))),
        ("seed", Value::UInt(seed)),
    ])
}

enum ChildEnd {
    Exited(Option<i32>),
    TimedOut,
}

/// Re-executes this binary with `args`, kills it at `limit`, and always
/// waits for it to end.
fn run_child(args: &[String], limit: Duration) -> Result<(ChildEnd, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| e.to_string())?;
    let end = loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(status) => break ChildEnd::Exited(status.code()),
            None if start.elapsed() >= limit => {
                let _ = child.kill();
                let _ = child.wait();
                break ChildEnd::TimedOut;
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    Ok((end, start.elapsed().as_secs_f64()))
}

/// `--probe <name>`: runs the probe's scenario in this process. A cliff
/// shows as a panic (exit 101) or as the parent's timeout.
pub fn run_probe(name: &str) -> Result<(), String> {
    let (_, json) = PROBES
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| format!("unknown probe {name}"))?;
    let spec: tsue_bench::ScenarioSpec =
        serde_json::from_str(json).map_err(|e| format!("probe {name}: {e}"))?;
    let result = tsue_bench::run_scenario(&spec)?;
    eprintln!(
        "probe {name}: completed, {} ops, flush {} virtual s",
        result.latency.count, result.flush_s
    );
    Ok(())
}

fn run_probes() -> Result<Value, String> {
    let mut rows = Vec::new();
    for (name, _) in PROBES {
        let (end, secs) = run_child(&["--probe".into(), name.into()], PROBE_TIMEOUT)?;
        let status = match end {
            ChildEnd::Exited(Some(0)) => "pass",
            ChildEnd::Exited(_) => "panic",
            ChildEnd::TimedOut => "timeout",
        };
        eprintln!("probe {name}: {status} after {secs:.1} s (not gated)");
        rows.push(obj(vec![
            ("name", s(name)),
            ("status", s(status)),
            ("host_s", Value::Float(secs)),
        ]));
    }
    Ok(Value::Array(rows))
}

/// Runs every workload in both trace modes, each in a fresh child, and
/// writes the merged result to `--out` and the spans to `<out>.trace.json`.
pub fn run_suite(cli: &Cli) -> Result<bool, String> {
    let out = cli
        .out
        .as_deref()
        .ok_or("the suite needs --out FILE (or name one workload with --workload)")?;
    let mut runs = Vec::new();
    let mut spans = Vec::new();
    let mut all_correct = true;
    for w in &catalog::WORKLOADS {
        for trace in [0u64, 1] {
            let part = format!("{out}.{}.t{trace}.part", w.name);
            let mut args: Vec<String> = vec![
                "--workload".into(),
                w.name.into(),
                "--seed".into(),
                cli.seed.to_string(),
                "--seconds".into(),
                cli.seconds.to_string(),
                "--trace".into(),
                trace.to_string(),
                "--out".into(),
                part.clone(),
            ];
            if cli.smoke {
                args.push("--smoke".into());
            }
            let (end, secs) = run_child(&args, RUN_TIMEOUT)?;
            let detail = match (end, read_json(&part)) {
                (ChildEnd::Exited(_), Ok(detail)) => detail,
                (end, _) => {
                    // A panic or a hang fails every op of the workload.
                    let why = match end {
                        ChildEnd::TimedOut => format!("timed out after {secs:.0} s"),
                        ChildEnd::Exited(code) => format!("exited with {code:?} and no result"),
                    };
                    eprintln!("FAILED {}: {why}", w.name);
                    let attempted = catalog::CLIENTS as u64 * w.ops_per_client;
                    obj(vec![
                        ("workload", s(w.name)),
                        ("seed", Value::UInt(cli.seed)),
                        ("trace", Value::UInt(trace)),
                        ("correct", Value::Bool(false)),
                        ("attempted", Value::UInt(attempted)),
                        ("failed", Value::UInt(attempted)),
                        ("violations", Value::Array(vec![s(&why)])),
                        ("metrics", Value::Object(Vec::new())),
                    ])
                }
            };
            all_correct &= detail.get("correct") == Some(&Value::Bool(true));
            let trace_part = format!("{part}.trace.json");
            if let Ok(Value::Array(rows)) = read_json(&trace_part) {
                spans.extend(rows);
            }
            let _ = std::fs::remove_file(&part);
            let _ = std::fs::remove_file(&trace_part);
            runs.push(detail);
        }
    }
    let probes = if cli.probes {
        run_probes()?
    } else {
        Value::Array(Vec::new())
    };
    write_json(
        out,
        &obj(vec![
            ("schema", s(SCHEMA)),
            ("env", environment(cli.seed)),
            ("seed", Value::UInt(cli.seed)),
            ("seconds", Value::UInt(cli.seconds)),
            ("smoke", Value::Bool(cli.smoke)),
            ("runs", Value::Array(runs)),
            ("probes", probes),
        ]),
    )?;
    write_json(&format!("{out}.trace.json"), &Value::Array(spans))?;
    eprintln!("wrote {out} and {out}.trace.json");
    Ok(all_correct)
}

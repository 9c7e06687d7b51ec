//! The repo benchmark. See README.md for the metric glossary.
//!
//! One workload per process:
//!   tsue_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! prints one JSON object as the last line of standard output. Without
//! `--workload` the same binary runs the whole suite (one child process
//! per workload and trace mode), and `--compare A.json B.json` judges two
//! suite results against the bounds.

mod calib;
mod catalog;
mod compare;
mod driver;
mod layers;
mod run;
mod spans;
mod stats;
mod suite;

use serde::Value;
use std::process::ExitCode;

const USAGE: &str = "usage:
  tsue_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out FILE] [--smoke]
  tsue_benchmark --seed <n> --out FILE [--seconds <s>] [--smoke] [--probes]
  tsue_benchmark --compare A.json B.json
  tsue_benchmark --probe <name>
  tsue_benchmark --list";

/// Parsed command line. Flags may come in any order.
#[derive(Default)]
pub struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub out: Option<String>,
    pub smoke: bool,
    pub probes: bool,
    pub probe: Option<String>,
    pub compare: Option<(String, String)>,
    pub list: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        seed: 42,
        seconds: 25,
        ..Cli::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                }
            }
            "--out" => cli.out = Some(value("a file")?),
            "--probe" => cli.probe = Some(value("a probe name")?),
            "--compare" => cli.compare = Some((value("two files")?, value("two files")?)),
            "--smoke" => cli.smoke = true,
            "--probes" => cli.probes = true,
            "--list" => cli.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// `--list`: every name of the benchmark, in the shape of BENCHMARK.json.
fn listing() -> Value {
    use suite::{obj, s};
    obj(vec![
        (
            "workloads",
            Value::Array(
                catalog::WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                catalog::END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.token())),
                            ("bound", Value::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                catalog::PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.token())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn run_one(cli: &Cli, name: &str) -> Result<bool, String> {
    let workload = catalog::workload(name).ok_or_else(|| {
        let known: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name} (known: {})", known.join(", "))
    })?;
    let outcome = run::run(&run::RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
    })?;
    for v in &outcome.violations {
        eprintln!("FAILED {name}: {v}");
    }
    let detail = suite::detail_value(name, cli, &outcome)?;
    if let Some(path) = &cli.out {
        suite::write_json(path, &detail)?;
        if cli.trace {
            suite::write_json(&format!("{path}.trace.json"), &outcome.spans.to_value(name))?;
        }
    }
    eprint!("{}", suite::render_detail(&detail));
    println!("{}", suite::result_line(&outcome, cli.trace)?);
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if cli.list {
        serde_json::to_string_pretty(&listing())
            .map(|s| {
                println!("{s}");
                true
            })
            .map_err(|e| e.to_string())
    } else if let Some((a, b)) = &cli.compare {
        compare::compare_files(a, b)
    } else if let Some(name) = &cli.probe {
        suite::run_probe(name).map(|()| true)
    } else if let Some(name) = &cli.workload {
        run_one(&cli, name)
    } else {
        suite::run_suite(&cli)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

//! `--compare A.json B.json`: judges suite result B against baseline A,
//! per workload and end-to-end metric, by the bounds in the catalog.

use crate::catalog::{self, Better, EndToEnd};
use crate::suite::{number, read_json};
use serde::Value;

/// `setup_s` moves by scheduler noise when it is a few milliseconds long:
/// below this absolute change it is never a regression.
const SETUP_FLOOR_S: f64 = 0.010;
/// Same seed, same virtual-time result: `sim_*` may differ by rounding
/// in the division only.
const SIM_EXACT: f64 = 1e-9;

/// One metric of one run, as read back from a result file.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: u64,
}

impl Reading {
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The run-to-run spread is wider than the bound, so "no worse" cannot
    /// be told from "worse".
    Unresolved,
    Regressed,
}

/// Judges `b` against baseline `a`. `same_seed` turns the `sim_*` bound
/// into an equality check: the DES is seed-exact.
pub fn judge(m: &EndToEnd, a: Reading, b: Reading, same_seed: bool) -> Verdict {
    if m.name.starts_with("sim_") && same_seed {
        let tol = SIM_EXACT * a.value.abs().max(b.value.abs());
        return if (a.value - b.value).abs() <= tol {
            Verdict::Ok
        } else {
            Verdict::Regressed
        };
    }
    let worse_by = match m.better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    let floor = if m.name == "setup_s" {
        SETUP_FLOOR_S
    } else {
        0.0
    };
    if worse_by > m.bound * a.value.abs() && worse_by > floor {
        Verdict::Regressed
    } else if a.spread().max(b.spread()) > m.bound && (b.q3 - b.q1).max(a.q3 - a.q1) > floor {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn reading(run: &Value, metric: &str) -> Option<Reading> {
    let m = run.get("metrics")?.get(metric)?;
    Some(Reading {
        value: number(m.get("value"))?,
        q1: number(m.get("q1"))?,
        q3: number(m.get("q3"))?,
        n: number(m.get("n"))? as u64,
    })
}

/// The untraced run of `workload` in a suite result.
fn untraced_run<'a>(file: &'a Value, workload: &str) -> Option<&'a Value> {
    let Some(Value::Array(runs)) = file.get("runs") else {
        return None;
    };
    runs.iter().find(|r| {
        r.get("workload") == Some(&Value::Str(workload.into()))
            && number(r.get("trace")) == Some(0.0)
    })
}

/// Prints the comparison table; `Ok(false)` when anything regressed.
pub fn compare_files(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let same_seed = number(a.get("seed")) == number(b.get("seed"));
    let mut regressed = 0usize;
    let mut unresolved = 0usize;
    println!(
        "{:<16} {:<22} {:>44} {:>44}  verdict",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n"
    );
    for w in &catalog::WORKLOADS {
        let (Some(ra), Some(rb)) = (untraced_run(&a, w.name), untraced_run(&b, w.name)) else {
            println!("{:<16} missing from one side: regressed", w.name);
            regressed += 1;
            continue;
        };
        let (fa, fb) = (number(ra.get("failed")), number(rb.get("failed")));
        if fb > fa || fb.is_none() {
            println!("{:<16} failed ops {fa:?} -> {fb:?}: regressed", w.name);
            regressed += 1;
        }
        for m in &catalog::END_TO_END {
            let (Some(x), Some(y)) = (reading(ra, m.name), reading(rb, m.name)) else {
                println!("{:<16} {:<22} missing: regressed", w.name, m.name);
                regressed += 1;
                continue;
            };
            let verdict = judge(m, x, y, same_seed);
            match verdict {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            let cell = |r: Reading| format!("{:.6} [{:.6}, {:.6}] {}", r.value, r.q1, r.q3, r.n);
            println!(
                "{:<16} {:<22} {:>44} {:>44}  {}",
                w.name,
                m.name,
                cell(x),
                cell(y),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regressed => "regressed",
                }
            );
        }
    }
    println!(
        "{regressed} regressed, {unresolved} unresolved ({} seed: sim_* {})",
        if same_seed { "same" } else { "different" },
        if same_seed {
            "must be identical"
        } else {
            "judged by their bounds"
        }
    );
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &'static str, better: Better, bound: f64) -> EndToEnd {
        EndToEnd {
            name,
            unit: "x",
            better,
            bound,
        }
    }

    fn at(value: f64, half_spread: f64) -> Reading {
        Reading {
            value,
            q1: value - half_spread,
            q3: value + half_spread,
            n: 9,
        }
    }

    #[test]
    fn host_metric_regresses_only_beyond_its_bound() {
        let m = metric("host_ops_per_s", Better::Higher, 0.10);
        assert_eq!(judge(&m, at(100.0, 1.0), at(95.0, 1.0), true), Verdict::Ok);
        assert_eq!(
            judge(&m, at(100.0, 1.0), at(89.0, 1.0), true),
            Verdict::Regressed
        );
        // Faster is never a regression, however far.
        assert_eq!(judge(&m, at(100.0, 1.0), at(150.0, 1.0), true), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let m = metric("host_ops_per_s", Better::Higher, 0.10);
        assert_eq!(
            judge(&m, at(100.0, 8.0), at(99.0, 1.0), true),
            Verdict::Unresolved
        );
    }

    #[test]
    fn sim_metrics_are_exact_at_equal_seed_and_bounded_otherwise() {
        let m = metric("sim_iops", Better::Higher, 0.03);
        let tiny = at(100.0 * (1.0 + 1e-12), 0.0);
        assert_eq!(judge(&m, at(100.0, 0.0), tiny, true), Verdict::Ok);
        assert_eq!(
            judge(&m, at(100.0, 0.0), at(100.1, 0.0), true),
            Verdict::Regressed
        );
        assert_eq!(judge(&m, at(100.0, 0.0), at(99.0, 0.0), false), Verdict::Ok);
    }

    #[test]
    fn setup_needs_both_the_share_and_ten_milliseconds() {
        let m = metric("setup_s", Better::Lower, 0.25);
        assert_eq!(judge(&m, at(0.016, 0.0), at(0.024, 0.0), true), Verdict::Ok);
        assert_eq!(
            judge(&m, at(0.060, 0.0), at(0.080, 0.0), true),
            Verdict::Regressed
        );
    }
}

//! Drives the `tsuectl` binary: `figures` argument validation and
//! output, and the nonzero exit when a result cannot be persisted.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tsuectl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tsuectl"))
        .args(args)
        .output()
        .expect("tsuectl runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsuectl-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn figures_rejects_bad_arguments_with_usage() {
    for (args, needle) in [
        (&["figures", "fig9"][..], "unknown figure 'fig9'"),
        (&["figures", "--fast"][..], "unknown flag '--fast'"),
        (
            &["figures", "fig7", "fig5"][..],
            "got both 'fig7' and 'fig5'",
        ),
    ] {
        let out = tsuectl(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(stderr.contains("figures [all|fig5|"), "{args:?}: no usage");
    }
}

/// The engine is single-threaded: the removed `--threads` knob is an
/// unknown flag on both run paths, not a silently accepted no-op.
#[test]
fn threads_flag_is_gone_from_both_run_paths() {
    let scenario = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/smoke.json");
    for args in [
        &["run", scenario, "--threads", "4"][..],
        &["--scheme", "tsue", "--threads", "4"][..],
    ] {
        let out = tsuectl(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("unknown flag '--threads'"),
            "{args:?}: {stderr}"
        );
        let usage = stderr.split_once("\n\n").map_or("", |(_, usage)| usage);
        assert!(usage.contains("tsuectl"), "{args:?}: no usage");
        assert!(!usage.contains("--threads"), "usage still lists --threads");
    }
}

/// A zero recycle-thread pool is a typed validation error naming the
/// knob, not a panic inside the resource model.
#[test]
fn zero_recycle_threads_knob_fails_validation() {
    let knobs = r#"{"recycle_threads":0}"#;
    let out = tsuectl(&["--scheme", "tsue", "--duration-ms", "50", "--knobs", knobs]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("recycle_threads"), "{stderr}");
}

/// Runs `tsuectl run` on a small FO scenario named `name` whose
/// remaining fields (RS shape, faults, ...) are the JSON members `shape`.
fn run_spec(name: &str, shape: &str) -> Output {
    let dir = scratch(name);
    let path = dir.join("spec.json");
    let json = format!(
        r#"{{"name": "{name}", "device": "ssd", "clients": 2, "trace": "ten",
            "scheme": {{"name": "fo"}}, "duration_ms": 50, {shape}}}"#
    );
    std::fs::write(&path, json).expect("spec file");
    let (path, out_dir) = (path.display().to_string(), dir.display().to_string());
    let out = tsuectl(&["run", &path, "--out", &out_dir]);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// An RS shape past GF(2^8)'s 255-symbol limit fits the OSD count but
/// not the code: a validation error naming the scenario, not a panic in
/// cluster construction.
#[test]
fn run_rejects_an_rs_shape_wider_than_the_field() {
    let out = run_spec("rs-too-wide", r#""k": 250, "m": 10, "osds": 260"#);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("scenario 'rs-too-wide'"), "{stderr}");
    assert!(stderr.contains("k + m = 260 exceeds"), "{stderr}");
}

/// A fault time whose nanoseconds overflow the virtual clock is a
/// validation error naming the event, not a kill that fires at a wrapped
/// instant while the report prints the scripted one.
#[test]
fn run_rejects_a_fault_time_past_the_virtual_clock() {
    let out = run_spec(
        "fault-past-clock",
        r#""k": 4, "m": 2, "osds": 8,
            "faults": [{"kind": "kill_node", "at_ms": 18446744073710, "node": 0}]"#,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("fault #0 (kill_node @18446744073710ms): at_ms exceeds"),
        "{stderr}"
    );
}

/// Asserts `tsuectl run` rejected scenario `name` at validation with an
/// error naming `field`.
fn assert_rejects_field(name: &str, out: &Output, field: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains(&format!("scenario '{name}': {field} ")),
        "{stderr}"
    );
    assert!(stderr.contains("exceeds"), "{stderr}");
}

/// A scrub rate whose bytes per second overflow `u64` is a validation
/// error, not a divide-by-zero panic in the scrub pacer.
#[test]
fn run_rejects_a_scrub_rate_past_the_byte_range() {
    let name = "scrub-rate-overflow";
    let shape = r#""k": 4, "m": 2, "osds": 8, "materialize": true,
        "scrub_mb_s": 17592186044416"#;
    assert_rejects_field(name, &run_spec(name, shape), "scrub_mb_s");
}

/// A file size whose bytes overflow `u64` is a validation error, not a
/// run on a wrapped (1 MiB) file while the persisted spec names the huge
/// one.
#[test]
fn run_rejects_a_file_size_past_the_byte_range() {
    let name = "file-size-overflow";
    let shape = r#""k": 4, "m": 2, "osds": 8, "file_mb": 17592186044417"#;
    assert_rejects_field(name, &run_spec(name, shape), "file_mb");
}

/// A block size whose bytes overflow `u64` is a validation error, not a
/// run on wrapped (64 KiB) blocks.
#[test]
fn run_rejects_a_block_size_past_the_byte_range() {
    let name = "block-size-overflow";
    let shape = r#""k": 4, "m": 2, "osds": 8, "block_kib": 18014398509482048"#;
    assert_rejects_field(name, &run_spec(name, shape), "block_kib");
}

/// A sampling cadence whose nanoseconds overflow the virtual clock is a
/// validation error, not a probe period wrapped to 0 that re-fires at
/// one instant forever.
#[test]
fn run_rejects_an_obs_cadence_past_the_virtual_clock() {
    let name = "obs-cadence-overflow";
    let shape = r#""k": 4, "m": 2, "osds": 8, "obs_cadence_ms": 9223372036854775808"#;
    assert_rejects_field(name, &run_spec(name, shape), "obs_cadence_ms");
}

#[test]
fn figures_fig7_quick_writes_the_six_ablation_rows() {
    let dir = scratch("fig7");
    let out = tsuectl(&["figures", "fig7", "--quick", "--out", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("fig7.json")).expect("fig7.json written");
    let rows: Vec<tsue_bench::Fig7Row> = serde_json::from_str(&text).expect("fig7.json parses");
    let levels: Vec<&str> = rows.iter().map(|r| r.level.as_str()).collect();
    assert_eq!(levels, tsue_bench::FIG7_LEVELS);
    assert!(rows.iter().all(|r| r.iops > 0.0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_into_unwritable_out_fails() {
    let dir = scratch("unwritable");
    // A regular file where the output directory should be: creating the
    // directory fails for every user, root included.
    let blocker = dir.join("not-a-dir");
    std::fs::write(&blocker, b"").expect("blocker file");
    let scenario = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/smoke.json");
    let out = tsuectl(&["run", scenario, "--out", blocker.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot write"), "{stderr}");
    assert!(stderr.contains("not-a-dir"), "path missing from: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

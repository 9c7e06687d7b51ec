//! Golden equivalence: refactors must be **observationally invisible**.
//! `tests/golden/*.json` holds `{spec, result}` outcomes; re-running the
//! same scenarios must reproduce them byte for byte — same virtual-time
//! behavior, same device and network accounting, same serialized output.
//! The files were first captured from the pre-zero-copy (`Vec`-chunk,
//! allocating-kernel) build. Their simulated outcomes last moved when a
//! rebuild began replaying only what the dead home's DataLog index still
//! owes and TSUE began sending DataLog copies to live peers only
//! (`scrub-bitrot.json`, `rack-failure-online.json` and three outcomes
//! of `fault-paths.json`). Every file was last regenerated when the obs
//! section gained the per-log-layer residence grid
//! (`result.obs.residence`, Table 2's source): with that section deleted,
//! each file equals its previous capture, and the `recycle_merge` stage
//! the grid now feeds is unchanged.
//!
//! To re-capture after an *intentional* behavior change:
//! - one scenario: `tsuectl run scenarios/<name>.json --out tests/golden`;
//! - a multi-outcome file (`fault-paths.json`, `tsue-ablation-ladder.json`):
//!   re-run each outcome's spec (`fault-paths` embeds its four specs; the
//!   ladder is `scenarios/tsue_ablation_o3.json` at `breakdown_level`
//!   0…5, in order) and write `serde_json::to_string_pretty` of the
//!   `Vec<ScenarioOutcome>` — equivalently, each `tsuectl run` output
//!   indented two spaces, joined by `,\n` inside `[\n` … `\n]`, with no
//!   trailing newline. The tests re-print the parsed file, so any other
//!   layout fails.

use tsue_repro::bench::{run_scenario, ScenarioOutcome, ScenarioSpec};

fn assert_golden(scenario_json: &str, golden_json: &str) {
    let spec: ScenarioSpec = serde_json::from_str(scenario_json).expect("scenario parses");
    let result = run_scenario(&spec).expect("scenario runs");
    let outcome = ScenarioOutcome { spec, result };
    let got = serde_json::to_string_pretty(&outcome).expect("outcome serializes");
    let want = golden_json;
    assert!(
        got == want,
        "run diverged from the golden capture.\n\
         First differing byte at {}.\n--- golden ---\n{}\n--- got ---\n{}",
        got.bytes()
            .zip(want.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(want.len())),
        &want[..want.len().min(2000)],
        &got[..got.len().min(2000)],
    );
}

/// `scenarios/smoke.json` (TSUE, flushed — exercises all three log layers
/// plus the recycle pipeline) is bit-identical to the pre-refactor run.
#[test]
fn smoke_scenario_matches_pre_refactor_golden() {
    assert_golden(
        include_str!("../scenarios/smoke.json"),
        include_str!("golden/smoke.json"),
    );
}

/// `scenarios/tsue_ablation_o3.json` (breakdown level 3: log pool on, no
/// DeltaLog, single pool — the two-layer path) is bit-identical too.
#[test]
fn ablation_o3_scenario_matches_pre_refactor_golden() {
    assert_golden(
        include_str!("../scenarios/tsue_ablation_o3.json"),
        include_str!("golden/tsue-ablation-o3.json"),
    );
}

/// `scenarios/scrub_bitrot.json` (materialized, 3-copy data log, bit rot →
/// power loss → node kill) is the only scenario that consumes the torn
/// tail record; `scenarios/rack_failure_online.json` runs TSUE on HDD —
/// the two-layer path with rack-aware replica peers — through a rack kill.
#[test]
fn fault_scenarios_match_golden() {
    assert_golden(
        include_str!("../scenarios/scrub_bitrot.json"),
        include_str!("golden/scrub-bitrot.json"),
    );
    assert_golden(
        include_str!("../scenarios/rack_failure_online.json"),
        include_str!("golden/rack-failure-online.json"),
    );
}

/// The whole Fig. 7 ladder: `scenarios/tsue_ablation_o3.json` at
/// `breakdown_level` 0…5 (levels 0–2 are the raw-record `LogUnit` path no
/// other golden runs), against one file holding the six outcomes in order.
#[test]
fn ablation_ladder_matches_golden() {
    let file = include_str!("golden/tsue-ablation-ladder.json");
    let golden: Vec<ScenarioOutcome> = serde_json::from_str(file).expect("ladder parses");
    assert_eq!(golden.len(), 6);
    // Parsing loses nothing, so comparing against re-printed elements is
    // as strict as comparing against the file's bytes.
    assert!(serde_json::to_string_pretty(&golden).unwrap() == file);
    for (level, want) in golden.iter().enumerate() {
        let scenario = include_str!("../scenarios/tsue_ablation_o3.json").replace(
            "\"breakdown_level\": 3",
            &format!("\"breakdown_level\": {level}"),
        );
        assert_golden(&scenario, &serde_json::to_string_pretty(want).unwrap());
    }
}

/// The kill/heal machinery, pinned byte for byte: `heal_rejoin.json`
/// (kill → journal → rebuild → heal → re-sync) and three variants of
/// `rack_failure_online.json` (flat placement, two overlapping node
/// kills, two sequential rack kills). Each outcome re-runs its own spec.
#[test]
fn fault_paths_match_golden() {
    let file = include_str!("golden/fault-paths.json");
    let golden: Vec<ScenarioOutcome> = serde_json::from_str(file).expect("fault paths parse");
    assert_eq!(golden.len(), 4);
    assert!(serde_json::to_string_pretty(&golden).unwrap() == file);
    for want in &golden {
        let scenario = serde_json::to_string(&want.spec).unwrap();
        assert_golden(&scenario, &serde_json::to_string_pretty(want).unwrap());
    }
}

/// GF kernel choice never changes simulation outcomes: both golden
/// scenarios reproduce the captured `{spec, result}` bytes on **every**
/// kernel tier the host supports — scalar reference, portable, and
/// whatever SIMD tiers dispatch can reach. One test fn (not one per
/// tier) so the process-global tier switch can't race assertions about
/// which tier is active.
#[test]
fn goldens_are_bit_identical_on_every_kernel_tier() {
    use tsue_repro::gf::{set_kernel_tier, KernelTier};
    for tier in KernelTier::available() {
        set_kernel_tier(tier).unwrap();
        assert_golden(
            include_str!("../scenarios/smoke.json"),
            include_str!("golden/smoke.json"),
        );
        assert_golden(
            include_str!("../scenarios/tsue_ablation_o3.json"),
            include_str!("golden/tsue-ablation-o3.json"),
        );
    }
    set_kernel_tier(KernelTier::best()).unwrap();
}

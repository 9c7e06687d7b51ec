//! Scripted fault injection driving **online recovery under load**.
//!
//! The seed repo could only kill a node *after* traffic stopped
//! ([`tsue_ecfs::run_recovery`]). Production failures do not wait: Rashmi
//! et al. (arXiv:1309.0186) show recovery cost is dominated by cross-rack
//! traffic racing with foreground I/O, and rack-aware maintenance (CNC,
//! arXiv:1206.4175) changes the picture entirely. This crate supplies the
//! missing machinery:
//!
//! * [`FaultPlan`] — a serializable script of timed [`FaultEvent`]s:
//!   node kills, whole-rack kills, transient NIC slowdowns, heals.
//! * [`install`] — schedules the plan into the DES. Kills and heals each
//!   trigger a *phase*: one drain gate (schemes flush their logs while
//!   clients keep issuing — lazily-recycled schemes pay their recycle
//!   storm here), then the phase's work — online rebuild through
//!   [`tsue_ecfs::RecoveryState`] with bounded concurrency (degraded
//!   reads shrinking as blocks rehome), or the healed node's re-sync —
//!   polled to completion and filed as a report.
//! * A failover **watchdog** that force-completes client ops stalled by
//!   in-flight state lost with a dead node (modeled timeout + retry), so
//!   every scheme's closed loop survives arbitrary kill timing.
//! * [`FaultReport`] / [`PhaseReport`] — per-phase recovery bandwidth,
//!   drain vs rebuild split, unrecoverable-block counts (data loss under
//!   rack-oblivious placement), and the intra-/cross-rack traffic split.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize, Value};
use std::cell::RefCell;
use std::rc::Rc;
use tsue_ecfs::{
    fail_node, reap_stalled_ops, start_recovery, Cluster, HealStats, ResyncStats, SplitRng,
    DRAIN_STRIDE,
};
use tsue_net::TierTraffic;
use tsue_obs::{Histogram, LatencySummary};
use tsue_sim::{Sim, Time, MILLISECOND};

/// One scripted fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// Kill one OSD at `at_ms` (virtual milliseconds).
    KillNode {
        /// Trigger time, virtual ms.
        at_ms: u64,
        /// Victim OSD index.
        node: usize,
    },
    /// Kill every OSD in a rack at `at_ms` (ToR/PDU failure).
    KillRack {
        /// Trigger time, virtual ms.
        at_ms: u64,
        /// Victim rack index.
        rack: usize,
    },
    /// Degrade one OSD's NIC by `factor` for `duration_ms` (straggler).
    SlowNode {
        /// Trigger time, virtual ms.
        at_ms: u64,
        /// Affected OSD index.
        node: usize,
        /// Service-time multiplier (`>= 1.0`).
        factor: f64,
        /// How long the slowdown lasts, virtual ms.
        duration_ms: u64,
    },
    /// Revive a dead OSD (transient failure over) and clear slowdowns.
    /// Blocks already rebuilt elsewhere stay rehomed; blocks not yet
    /// rebuilt become readable again.
    HealNode {
        /// Trigger time, virtual ms.
        at_ms: u64,
        /// Healed OSD index.
        node: usize,
    },
    /// Flip a few random bits in stored blocks on one OSD (silent media
    /// corruption / bit rot). Only materialized runs carry real bytes to
    /// corrupt: a scenario rejects it in a timing-only run, and an engine
    /// driven directly without bytes treats it as a no-op. Detection
    /// happens later, at read-time verification or a scrub sweep — never
    /// here.
    CorruptBlock {
        /// Trigger time, virtual ms.
        at_ms: u64,
        /// Affected OSD index.
        node: usize,
        /// How many distinct blocks to hit (default 1, capped at the
        /// node's block count).
        blocks: Option<u64>,
        /// Deterministic RNG seed; defaults to a mix of `at_ms`/`node`.
        seed: Option<u64>,
    },
    /// Power-loss at one OSD: the in-flight log append is torn at a
    /// pseudo-random offset, then the node restarts with a log scan.
    /// Replicated appends replay from a surviving copy; unreplicated
    /// ones are discarded (the framing checksum rejects the torn tail,
    /// so a torn record is never half-applied). The node stays up.
    PowerLoss {
        /// Trigger time, virtual ms.
        at_ms: u64,
        /// Affected OSD index.
        node: usize,
        /// Deterministic RNG seed; defaults to a mix of `at_ms`/`node`.
        seed: Option<u64>,
    },
}

impl FaultEvent {
    /// Trigger time in virtual milliseconds.
    pub fn at_ms(&self) -> u64 {
        match self {
            FaultEvent::KillNode { at_ms, .. }
            | FaultEvent::KillRack { at_ms, .. }
            | FaultEvent::SlowNode { at_ms, .. }
            | FaultEvent::HealNode { at_ms, .. }
            | FaultEvent::CorruptBlock { at_ms, .. }
            | FaultEvent::PowerLoss { at_ms, .. } => *at_ms,
        }
    }

    /// The JSON `kind` tags, for error messages.
    pub fn kinds() -> &'static [&'static str] {
        &[
            "kill_node",
            "kill_rack",
            "slow_node",
            "heal_node",
            "corrupt_block",
            "power_loss",
        ]
    }

    /// This event's JSON `kind` tag (validation error messages).
    pub fn kind_name(&self) -> &'static str {
        match self {
            FaultEvent::KillNode { .. } => "kill_node",
            FaultEvent::KillRack { .. } => "kill_rack",
            FaultEvent::SlowNode { .. } => "slow_node",
            FaultEvent::HealNode { .. } => "heal_node",
            FaultEvent::CorruptBlock { .. } => "corrupt_block",
            FaultEvent::PowerLoss { .. } => "power_loss",
        }
    }
}

// Hand-written serde: events read as tagged objects, e.g.
// `{"kind": "kill_rack", "at_ms": 400, "rack": 1}` — friendlier scenario
// JSON than the derive's tuple-variant encoding.
impl Serialize for FaultEvent {
    fn to_value(&self) -> Value {
        let mut entries = vec![];
        let kind = match self {
            FaultEvent::KillNode { at_ms, node } => {
                entries.push(("at_ms".to_string(), Value::UInt(*at_ms)));
                entries.push(("node".to_string(), Value::UInt(*node as u64)));
                "kill_node"
            }
            FaultEvent::KillRack { at_ms, rack } => {
                entries.push(("at_ms".to_string(), Value::UInt(*at_ms)));
                entries.push(("rack".to_string(), Value::UInt(*rack as u64)));
                "kill_rack"
            }
            FaultEvent::SlowNode {
                at_ms,
                node,
                factor,
                duration_ms,
            } => {
                entries.push(("at_ms".to_string(), Value::UInt(*at_ms)));
                entries.push(("node".to_string(), Value::UInt(*node as u64)));
                entries.push(("factor".to_string(), Value::Float(*factor)));
                entries.push(("duration_ms".to_string(), Value::UInt(*duration_ms)));
                "slow_node"
            }
            FaultEvent::HealNode { at_ms, node } => {
                entries.push(("at_ms".to_string(), Value::UInt(*at_ms)));
                entries.push(("node".to_string(), Value::UInt(*node as u64)));
                "heal_node"
            }
            FaultEvent::CorruptBlock {
                at_ms,
                node,
                blocks,
                seed,
            } => {
                entries.push(("at_ms".to_string(), Value::UInt(*at_ms)));
                entries.push(("node".to_string(), Value::UInt(*node as u64)));
                if let Some(b) = blocks {
                    entries.push(("blocks".to_string(), Value::UInt(*b)));
                }
                if let Some(s) = seed {
                    entries.push(("seed".to_string(), Value::UInt(*s)));
                }
                "corrupt_block"
            }
            FaultEvent::PowerLoss { at_ms, node, seed } => {
                entries.push(("at_ms".to_string(), Value::UInt(*at_ms)));
                entries.push(("node".to_string(), Value::UInt(*node as u64)));
                if let Some(s) = seed {
                    entries.push(("seed".to_string(), Value::UInt(*s)));
                }
                "power_loss"
            }
        };
        entries.insert(0, ("kind".to_string(), Value::Str(kind.to_string())));
        Value::Object(entries)
    }
}

impl Deserialize for FaultEvent {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        let Value::Object(entries) = v else {
            return Err(serde::DeError::mismatch("FaultEvent", "object", v));
        };
        let kind: String = serde::de_field(entries, "FaultEvent", "kind")?;
        let known: &[&str] = match kind.as_str() {
            "kill_node" => &["kind", "at_ms", "node"],
            "kill_rack" => &["kind", "at_ms", "rack"],
            "slow_node" => &["kind", "at_ms", "node", "factor", "duration_ms"],
            "heal_node" => &["kind", "at_ms", "node"],
            "corrupt_block" => &["kind", "at_ms", "node", "blocks", "seed"],
            "power_loss" => &["kind", "at_ms", "node", "seed"],
            other => {
                return Err(serde::DeError::unknown_variant(
                    "FaultEvent",
                    other,
                    Self::kinds(),
                ))
            }
        };
        for (key, _) in entries.iter() {
            if !known.contains(&key.as_str()) {
                return Err(serde::DeError::unknown_field("FaultEvent", key, known));
            }
        }
        let at_ms: u64 = serde::de_field(entries, "FaultEvent", "at_ms")?;
        Ok(match kind.as_str() {
            "kill_node" => FaultEvent::KillNode {
                at_ms,
                node: serde::de_field(entries, "FaultEvent", "node")?,
            },
            "kill_rack" => FaultEvent::KillRack {
                at_ms,
                rack: serde::de_field(entries, "FaultEvent", "rack")?,
            },
            "slow_node" => FaultEvent::SlowNode {
                at_ms,
                node: serde::de_field(entries, "FaultEvent", "node")?,
                factor: serde::de_field(entries, "FaultEvent", "factor")?,
                duration_ms: serde::de_field(entries, "FaultEvent", "duration_ms")?,
            },
            "heal_node" => FaultEvent::HealNode {
                at_ms,
                node: serde::de_field(entries, "FaultEvent", "node")?,
            },
            "corrupt_block" => FaultEvent::CorruptBlock {
                at_ms,
                node: serde::de_field(entries, "FaultEvent", "node")?,
                blocks: serde::de_field(entries, "FaultEvent", "blocks")?,
                seed: serde::de_field(entries, "FaultEvent", "seed")?,
            },
            "power_loss" => FaultEvent::PowerLoss {
                at_ms,
                node: serde::de_field(entries, "FaultEvent", "node")?,
                seed: serde::de_field(entries, "FaultEvent", "seed")?,
            },
            _ => unreachable!("kind validated above"),
        })
    }
}

/// A scripted fault schedule.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The timed events (any order; the DES sorts by trigger time).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan from a bare event list.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        FaultPlan { events }
    }

    /// Checks every event against the cluster shape.
    ///
    /// # Errors
    /// Returns a description of the first out-of-range node/rack, time
    /// past the virtual clock's range, or nonsensical factor.
    pub fn validate(&self, osds: usize, racks: usize) -> Result<(), String> {
        for (i, e) in self.events.iter().enumerate() {
            // Errors name the offending event, not just its index, so a
            // scenario author can find it in a long fault list.
            let who = format!("fault #{i} ({} @{}ms)", e.kind_name(), e.at_ms());
            // Trigger (and slowdown end) times become virtual ns; one that
            // does not fit `Time` would wrap and fire at the wrong instant.
            let (what, last_ms) = match *e {
                FaultEvent::SlowNode {
                    at_ms, duration_ms, ..
                } => ("at_ms + duration_ms", at_ms.checked_add(duration_ms)),
                _ => ("at_ms", Some(e.at_ms())),
            };
            if last_ms.is_none_or(|ms| ms > Time::MAX / MILLISECOND) {
                return Err(format!(
                    "{who}: {what} exceeds the virtual clock's range ({} ms)",
                    Time::MAX / MILLISECOND
                ));
            }
            match *e {
                FaultEvent::KillNode { node, .. }
                | FaultEvent::HealNode { node, .. }
                | FaultEvent::CorruptBlock { node, .. }
                | FaultEvent::PowerLoss { node, .. } => {
                    if node >= osds {
                        return Err(format!(
                            "{who}: node {node} out of range (cluster has {osds} OSDs)"
                        ));
                    }
                }
                FaultEvent::KillRack { rack, .. } => {
                    if rack >= racks {
                        return Err(format!(
                            "{who}: rack {rack} out of range (topology has {racks} racks)"
                        ));
                    }
                }
                FaultEvent::SlowNode { node, factor, .. } => {
                    if node >= osds {
                        return Err(format!(
                            "{who}: node {node} out of range (cluster has {osds} OSDs)"
                        ));
                    }
                    if factor.is_nan() || factor < 1.0 {
                        return Err(format!("{who}: slowdown factor {factor} must be >= 1.0"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Concurrent block-rebuild jobs.
    pub rebuild_concurrency: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            rebuild_concurrency: 8,
        }
    }
}

/// Drain-gate cap in strides: lazily-recycled schemes that cannot drain
/// under sustained load start rebuilding anyway after this many strides
/// (the recycle storm then competes with the rebuild, which is exactly
/// the §5.4 failure mode).
const DRAIN_CAP_STRIDES: u32 = 250;
/// Strides without a new backlog minimum before the gate opens: under
/// live traffic the backlog never touches zero (fresh extents keep
/// arriving), so the gate opens once the at-failure *storm* has drained
/// and the backlog has flattened at its steady-state churn.
const DRAIN_STALL_STRIDES: u32 = 3;
/// Completion-poll interval once a phase's rebuild or re-sync runs.
const POLL_PERIOD: Time = 10 * MILLISECOND;
/// Client ops older than this are force-completed by the watchdog
/// (modeled client timeout + retry) while failures are in play.
const OP_TIMEOUT: Time = 300 * MILLISECOND;
/// Watchdog sweep interval.
const WATCHDOG_PERIOD: Time = 25 * MILLISECOND;

/// One kill event's recovery outcome.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PhaseReport {
    /// Trigger time, virtual ms.
    pub at_ms: u64,
    /// OSDs killed by this event.
    pub killed: Vec<usize>,
    /// Scheme-log backlog (live nodes) at the instant of failure.
    pub backlog_at_failure: u64,
    /// Virtual ms spent waiting on the scheme-log drain gate.
    pub drain_ms: f64,
    /// Virtual ms of the rebuild stage itself.
    pub rebuild_ms: f64,
    /// Blocks this phase enqueued for rebuild (blocks an overlapping
    /// earlier phase already had queued or in flight are not re-counted).
    pub blocks_lost: u64,
    /// Blocks successfully rebuilt during this phase.
    pub blocks_rebuilt: u64,
    /// Blocks with fewer than `k` survivors (data loss).
    pub blocks_unrecoverable: u64,
    /// Blocks skipped because their home healed before rebuild.
    pub blocks_skipped: u64,
    /// Bytes reconstructed.
    pub bytes_rebuilt: u64,
    /// Journaled degraded-write bytes replayed into blocks this phase
    /// rebuilt (after the reconstruct, before the rehome).
    pub journal_replayed_bytes: u64,
    /// Recovery bandwidth over the whole phase (drain + rebuild), MB/s.
    pub recovery_mb_s: f64,
    /// Wire bytes that stayed intra-rack during the phase (all traffic,
    /// foreground included).
    pub intra_rack_mb: f64,
    /// Wire bytes that crossed racks during the phase.
    pub cross_rack_mb: f64,
    /// Degraded reads served while the phase ran.
    pub degraded_reads: u64,
    /// Client-op latency distribution accumulated *before* the kill
    /// landed (cumulative from run start to the phase trigger).
    pub lat_before: LatencySummary,
    /// Client-op latency distribution over the phase window itself
    /// (drain + rebuild) — the degraded-mode tail the paper's online
    /// recovery experiments measure.
    pub lat_during: LatencySummary,
    /// Client-op latency distribution from phase end to run end.
    /// `None` until the harness backfills it after the workload drains
    /// (and stays `None` for reports loaded from older JSON).
    pub lat_after: Option<LatencySummary>,
}

/// One heal event's rejoin & re-sync outcome.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResyncReport {
    /// Trigger time, virtual ms.
    pub at_ms: u64,
    /// The healed OSD.
    pub node: usize,
    /// Virtual ms spent on the pre-re-sync drain gate (scheme logs must
    /// merge before rehomed copies are copied back).
    pub drain_ms: f64,
    /// Virtual ms of the re-sync I/O itself.
    pub resync_ms: f64,
    /// Blocks caught up in place from the degraded-write journal at the
    /// heal instant (their rebuild had not run yet).
    pub blocks_replayed: u64,
    /// Journaled bytes replayed into the healed node's own copies.
    pub replayed_bytes: u64,
    /// Blocks copied back from their rehomed (rebuilt) copies.
    pub blocks_copied_back: u64,
    /// Bytes copied back.
    pub bytes_copied_back: u64,
    /// Rehome-table entries reclaimed (the override table shrinks).
    pub blocks_reclaimed: u64,
    /// Parity blocks re-encoded because they missed NACKed deltas.
    pub parity_repaired: u64,
    /// `Mds::rehomed_count()` after this re-sync finished.
    pub rehomed_residual: u64,
}

/// Everything the fault engine observed across the run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FaultReport {
    /// One entry per kill event, in trigger order.
    pub phases: Vec<PhaseReport>,
    /// One entry per heal event, in completion order.
    pub resyncs: Vec<ResyncReport>,
    /// Rebuild-attributed wire bytes that stayed intra-rack.
    pub rebuild_intra_bytes: u64,
    /// Rebuild-attributed wire bytes that crossed racks.
    pub rebuild_cross_bytes: u64,
}

impl FaultReport {
    /// Total blocks the run could not rebuild.
    pub fn total_unrecoverable(&self) -> u64 {
        self.phases.iter().map(|p| p.blocks_unrecoverable).sum()
    }
}

/// Shared progress state between the engine's scheduled closures and the
/// harness (which polls [`FaultTracker::finished`]).
#[derive(Debug, Default)]
pub struct FaultTracker {
    /// Kill and heal phases not yet finalized.
    active_phases: usize,
    /// The accumulating report.
    pub report: FaultReport,
    /// Cumulative client-op latency histogram captured at each phase's
    /// finalize instant, in [`FaultReport::phases`] order. The harness
    /// diffs these against the end-of-run histogram to backfill
    /// [`PhaseReport::lat_after`]; runtime-only, never serialized.
    pub phase_end_lat: Vec<Histogram>,
    watchdog_armed: bool,
    /// The knobs [`install`] was given.
    cfg: EngineConfig,
}

impl FaultTracker {
    /// True once every scheduled kill phase has completed its rebuild
    /// and every heal phase has completed its re-sync.
    pub fn finished(&self) -> bool {
        self.active_phases == 0
    }
}

/// Shared handle to the engine state.
pub type FaultHandle = Rc<RefCell<FaultTracker>>;

/// Schedules `plan` into the simulation and returns the progress handle.
/// Call before the workload starts; after the workload drains, keep the
/// sim running until [`FaultTracker::finished`] (see
/// [`run_plan_to_completion`]).
///
/// # Errors
/// Returns the [`FaultPlan::validate`] description (naming the offending
/// event) when the plan does not fit this cluster — no events are
/// scheduled in that case.
pub fn install(
    world: &Cluster,
    sim: &mut Sim<Cluster>,
    plan: &FaultPlan,
    cfg: EngineConfig,
) -> Result<FaultHandle, String> {
    plan.validate(world.core.cfg.osds, world.core.net.racks())?;
    let tracker: FaultHandle = Rc::new(RefCell::new(FaultTracker {
        // Kills and heals each run a phase that must finalize before the
        // plan counts as finished. Slowdowns, corruption injections, and
        // power losses are instantaneous — their consequences surface
        // through reads, scrubs, and log replays, not through a phase.
        active_phases: plan
            .events
            .iter()
            .filter(|e| {
                !matches!(
                    e,
                    FaultEvent::SlowNode { .. }
                        | FaultEvent::CorruptBlock { .. }
                        | FaultEvent::PowerLoss { .. }
                )
            })
            .count(),
        cfg,
        ..FaultTracker::default()
    }));
    for event in plan.events.iter().copied() {
        let at = event.at_ms() * MILLISECOND;
        let t = tracker.clone();
        sim.schedule_at(at, move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
            trigger(w, sim, event, t);
        });
    }
    Ok(tracker)
}

/// Runs the simulation until every kill and heal phase has finished
/// (no-op when the plan had none or everything already completed).
pub fn run_plan_to_completion(world: &mut Cluster, sim: &mut Sim<Cluster>, tracker: &FaultHandle) {
    let t = tracker.clone();
    sim.run_while(world, move |_| !t.borrow().finished());
}

/// Executes one scripted event.
fn trigger(world: &mut Cluster, sim: &mut Sim<Cluster>, event: FaultEvent, tracker: FaultHandle) {
    match event {
        FaultEvent::SlowNode {
            node,
            factor,
            duration_ms,
            ..
        } => {
            let until = sim.now() + duration_ms * MILLISECOND;
            world.core.net.set_slowdown(node, factor, until);
        }
        FaultEvent::HealNode { at_ms, node } => {
            // Revive + in-place journal replay happen synchronously at
            // the heal instant (nothing can interleave); the drain-gated
            // delta re-sync and rehome reclamation follow as a phase.
            let heal = tsue_ecfs::heal_node(world, sim, node);
            let kind = PhaseKind::Heal {
                node,
                heal,
                resync: ResyncStats::default(),
            };
            let phase = Phase::new(world, sim, at_ms, kind);
            gate(world, sim, phase, tracker);
        }
        FaultEvent::KillNode { at_ms, node } => {
            fail_node(world, node);
            kill_phase(world, sim, at_ms, vec![node], tracker);
        }
        FaultEvent::KillRack { at_ms, rack } => {
            let victims = tsue_ecfs::fail_rack(world, rack);
            kill_phase(world, sim, at_ms, victims, tracker);
        }
        FaultEvent::CorruptBlock {
            at_ms,
            node,
            blocks,
            seed,
        } => {
            let mut rng = SplitRng::new(seed.unwrap_or(0xB1707 ^ (at_ms << 8) ^ node as u64));
            let ids: Vec<_> = world.core.osds[node].block_ids().collect();
            if ids.is_empty() {
                return;
            }
            // A handful of flips per victim block — enough that at least
            // one lands outside any page a later write happens to cover.
            let picks = blocks.unwrap_or(1).min(ids.len() as u64);
            for _ in 0..picks {
                let id = ids[rng.below(ids.len() as u64) as usize];
                world.core.osds[node].corrupt_bits(id, &mut rng, 3);
            }
        }
        FaultEvent::PowerLoss { at_ms, node, seed } => {
            let seed = seed.unwrap_or(0x9_0FF ^ (at_ms << 8) ^ node as u64);
            world.power_loss(sim, node, seed);
        }
    }
}

/// Kill landed: snapshot, arm the watchdog, enter the drain gate.
fn kill_phase(
    world: &mut Cluster,
    sim: &mut Sim<Cluster>,
    at_ms: u64,
    killed: Vec<usize>,
    tracker: FaultHandle,
) {
    let snap = KillSnapshot {
        killed,
        tier0: *world.core.net.tier_traffic(),
        degraded0: world.core.metrics.degraded_reads,
        lat0: world.core.metrics.obs.client_op_hist(),
    };
    let kind = PhaseKind::Kill { snap, rebuild: 0 };
    let phase = Phase::new(world, sim, at_ms, kind);
    arm_watchdog(sim, tracker.clone());
    gate(world, sim, phase, tracker);
}

/// The failover watchdog: periodically force-completes client ops that
/// have been in flight longer than [`OP_TIMEOUT`] — state lost inside a
/// dead node must not wedge any scheme's closed loop.
fn arm_watchdog(sim: &mut Sim<Cluster>, tracker: FaultHandle) {
    if tracker.borrow().watchdog_armed {
        return;
    }
    tracker.borrow_mut().watchdog_armed = true;
    watchdog_tick(sim, tracker);
}

fn watchdog_tick(sim: &mut Sim<Cluster>, tracker: FaultHandle) {
    sim.schedule(
        WATCHDOG_PERIOD,
        move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
            let any_dead = (0..w.core.cfg.osds).any(|n| !w.core.mds.is_alive(n));
            // Reap only while a node is actually down: ops merely queued
            // behind recovery congestion on a healed cluster must run to
            // their true completion, not be clipped at the timeout.
            if any_dead {
                let deadline = sim.now().saturating_sub(OP_TIMEOUT);
                reap_stalled_ops(w, sim, deadline);
            }
            let keep = !tracker.borrow().finished()
                || (any_dead && (!w.core.pending.is_empty() || w.core.accepting(sim.now())));
            if keep {
                watchdog_tick(sim, tracker);
            } else {
                tracker.borrow_mut().watchdog_armed = false;
            }
        },
    );
}

/// A kill or a heal in progress: what happened, when, how far its drain
/// gate has come, and — once the gate opens — its running work.
struct Phase {
    /// Trigger time, virtual ms (as scripted).
    at_ms: u64,
    /// Trigger instant.
    start: Time,
    /// Live-scheme backlog at the trigger instant.
    backlog0: u64,
    /// Gate strides taken so far.
    strides: u32,
    /// Lowest live-scheme backlog observed since the trigger.
    best: u64,
    /// Consecutive strides without a new minimum.
    stalled: u32,
    /// Virtual ns from the trigger to the gate opening.
    drain_ns: Time,
    kind: PhaseKind,
}

/// What a phase recovers from, and the work its open gate started.
enum PhaseKind {
    /// Nodes died: rebuild their blocks online.
    Kill {
        snap: KillSnapshot,
        /// The recovery engine's token for this phase's rebuild.
        rebuild: u64,
    },
    /// A node came back: re-sync it and reclaim its rehome entries.
    Heal {
        node: usize,
        heal: HealStats,
        /// What the re-sync did (empty when it was abandoned).
        resync: ResyncStats,
    },
}

/// Snapshot taken at a kill, consumed at finalize. Block counts come
/// from the recovery engine's per-phase stats (exact even when kill
/// phases overlap); the traffic and degraded-read fields are
/// whole-cluster deltas over the phase window.
struct KillSnapshot {
    killed: Vec<usize>,
    tier0: TierTraffic,
    degraded0: u64,
    /// Cumulative client-op latency histogram at the kill instant; the
    /// phase window's distribution is recovered with [`Histogram::since`].
    lat0: Histogram,
}

impl Phase {
    fn new(world: &Cluster, sim: &Sim<Cluster>, at_ms: u64, kind: PhaseKind) -> Self {
        let backlog0 = world.total_scheme_backlog();
        Phase {
            at_ms,
            start: sim.now(),
            backlog0,
            strides: 0,
            best: backlog0,
            stalled: 0,
            drain_ns: 0,
            kind,
        }
    }

    /// One gate stride: folds the live-scheme backlog into the drain
    /// progress and reports whether the at-failure log storm has drained
    /// — the backlog either reaches zero (TSUE: almost immediately;
    /// traffic stopped) or flattens at its steady-state churn (live
    /// traffic keeps a small rolling backlog). A heal also waits for the
    /// recovery engine to go idle: a rebuild completing after the
    /// copy-back would re-populate the rehome table the re-sync just
    /// reclaimed. The stride cap opens the gate regardless.
    fn gate_open(&mut self, world: &Cluster) -> bool {
        let backlog = world.total_scheme_backlog();
        if self.strides > 0 {
            if backlog < self.best {
                self.best = backlog;
                self.stalled = 0;
            } else {
                self.stalled += 1;
            }
        }
        let storm_drained = backlog == 0 || self.stalled >= DRAIN_STALL_STRIDES;
        let rebuilds_idle =
            matches!(self.kind, PhaseKind::Kill { .. }) || world.core.recovery.pending() == 0;
        (storm_drained && rebuilds_idle) || self.strides >= DRAIN_CAP_STRIDES
    }

    /// Gate open: start the rebuild or the re-sync.
    fn start_work(&mut self, world: &mut Cluster, sim: &mut Sim<Cluster>, concurrency: usize) {
        match &mut self.kind {
            PhaseKind::Kill { snap, rebuild } => {
                world.core.recovery.concurrency = concurrency;
                *rebuild = start_recovery(world, sim, &snap.killed);
            }
            PhaseKind::Heal { node, resync, .. } => {
                *resync = tsue_ecfs::start_resync(world, sim, *node);
            }
        }
    }

    /// Work the phase still waits on.
    fn pending(&self, world: &Cluster) -> u64 {
        match self.kind {
            PhaseKind::Kill { rebuild, .. } => world.core.recovery.phase_stats(rebuild).pending(),
            PhaseKind::Heal { .. } => world.core.resync.pending(),
        }
    }

    /// Work done: file the phase's report.
    fn finalize(self, world: &Cluster, now: Time, t: &mut FaultTracker) {
        const MB: f64 = 1e6;
        let core = &world.core;
        let ms = |ns: Time| ns as f64 / MILLISECOND as f64;
        match self.kind {
            PhaseKind::Kill { snap, rebuild } => {
                let stats = core.recovery.phase_stats(rebuild);
                let total_ns = now.saturating_sub(self.start).max(1);
                let tier = core.net.tier_traffic().since(&snap.tier0);
                let lat_now = core.metrics.obs.client_op_hist();
                t.report.phases.push(PhaseReport {
                    at_ms: self.at_ms,
                    killed: snap.killed,
                    backlog_at_failure: self.backlog0,
                    drain_ms: ms(self.drain_ns),
                    rebuild_ms: ms(total_ns - self.drain_ns),
                    blocks_lost: stats.enqueued,
                    blocks_rebuilt: stats.rebuilt,
                    blocks_unrecoverable: stats.unrecoverable,
                    blocks_skipped: stats.skipped,
                    bytes_rebuilt: stats.bytes_rebuilt,
                    journal_replayed_bytes: stats.journal_replayed_bytes,
                    recovery_mb_s: stats.bytes_rebuilt as f64 * 1e9 / total_ns as f64 / MB,
                    intra_rack_mb: tier.intra_wire as f64 / MB,
                    cross_rack_mb: tier.cross_wire as f64 / MB,
                    degraded_reads: core.metrics.degraded_reads - snap.degraded0,
                    lat_before: snap.lat0.summary(),
                    lat_during: lat_now.since(&snap.lat0).summary(),
                    lat_after: None,
                });
                t.phase_end_lat.push(lat_now);
                t.report.rebuild_intra_bytes = core.recovery.intra_rack_bytes;
                t.report.rebuild_cross_bytes = core.recovery.cross_rack_bytes;
            }
            PhaseKind::Heal { node, heal, resync } => {
                let total_ns = now.saturating_sub(self.start);
                t.report.resyncs.push(ResyncReport {
                    at_ms: self.at_ms,
                    node,
                    drain_ms: ms(self.drain_ns),
                    resync_ms: ms(total_ns.saturating_sub(self.drain_ns)),
                    blocks_replayed: heal.blocks_replayed,
                    replayed_bytes: heal.replayed_bytes,
                    blocks_copied_back: resync.blocks_copied_back,
                    bytes_copied_back: resync.bytes_copied_back,
                    blocks_reclaimed: resync.blocks_reclaimed,
                    parity_repaired: resync.parity_repaired,
                    rehomed_residual: core.mds.rehomed_count() as u64,
                });
            }
        }
        t.active_phases -= 1;
    }
}

/// The drain gate, one stride per call, for kills and heals alike: pump
/// flushes each [`DRAIN_STRIDE`] until [`Phase::gate_open`], then start
/// the phase's work and poll it to completion. A heal whose node was
/// re-killed while the gate strode (a flapping node) abandons its
/// re-sync: copying content onto a dead OSD and reclaiming its rehome
/// entries would point live reads at a corpse, and the re-kill's own
/// phase (and the next heal's re-sync) take over from here.
fn gate(world: &mut Cluster, sim: &mut Sim<Cluster>, mut phase: Phase, tracker: FaultHandle) {
    let abandoned =
        matches!(phase.kind, PhaseKind::Heal { node, .. } if !world.core.mds.is_alive(node));
    if abandoned || phase.gate_open(world) {
        phase.drain_ns = sim.now() - phase.start;
        if !abandoned {
            let concurrency = tracker.borrow().cfg.rebuild_concurrency;
            phase.start_work(world, sim, concurrency);
        }
        poll(world, sim, phase, tracker);
        return;
    }
    world.flush_live(sim);
    phase.strides += 1;
    sim.schedule(
        DRAIN_STRIDE,
        move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
            gate(w, sim, phase, tracker);
        },
    );
}

/// Polls a phase's work every [`POLL_PERIOD`] until it completes, then
/// finalizes the phase.
fn poll(world: &mut Cluster, sim: &mut Sim<Cluster>, phase: Phase, tracker: FaultHandle) {
    if phase.pending(world) > 0 {
        sim.schedule(
            POLL_PERIOD,
            move |w: &mut Cluster, sim: &mut Sim<Cluster>| {
                poll(w, sim, phase, tracker);
            },
        );
        return;
    }
    phase.finalize(world, sim.now(), &mut tracker.borrow_mut());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev_json(e: &FaultEvent) -> Value {
        serde::Serialize::to_value(e)
    }

    #[test]
    fn fault_events_round_trip_through_serde() {
        let events = vec![
            FaultEvent::KillNode { at_ms: 10, node: 3 },
            FaultEvent::KillRack { at_ms: 20, rack: 1 },
            FaultEvent::SlowNode {
                at_ms: 5,
                node: 0,
                factor: 4.0,
                duration_ms: 50,
            },
            FaultEvent::HealNode { at_ms: 90, node: 3 },
        ];
        for e in &events {
            let back = <FaultEvent as serde::Deserialize>::from_value(&ev_json(e)).unwrap();
            assert_eq!(*e, back);
        }
        let plan = FaultPlan::new(events);
        let v = serde::Serialize::to_value(&plan);
        let back = <FaultPlan as serde::Deserialize>::from_value(&v).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn unknown_kind_and_fields_fail_loudly() {
        let bad = Value::Object(vec![
            ("kind".into(), Value::Str("kill_everything".into())),
            ("at_ms".into(), Value::UInt(1)),
        ]);
        let err = <FaultEvent as serde::Deserialize>::from_value(&bad).unwrap_err();
        assert!(err.to_string().contains("kill_rack"), "{err}");

        let typo = Value::Object(vec![
            ("kind".into(), Value::Str("kill_node".into())),
            ("at_ms".into(), Value::UInt(1)),
            ("noed".into(), Value::UInt(2)),
        ]);
        let err = <FaultEvent as serde::Deserialize>::from_value(&typo).unwrap_err();
        assert!(err.to_string().contains("noed"), "{err}");
    }

    #[test]
    fn invalid_plan_error_names_the_offending_event() {
        let plan = FaultPlan::new(vec![
            FaultEvent::KillNode { at_ms: 5, node: 0 },
            FaultEvent::HealNode {
                at_ms: 90,
                node: 99,
            },
        ]);
        let err = plan.validate(16, 4).unwrap_err();
        for needle in ["fault #1", "heal_node", "@90ms", "node 99"] {
            assert!(err.contains(needle), "missing '{needle}' in: {err}");
        }
    }

    #[test]
    fn install_rejects_an_invalid_plan_without_scheduling() {
        let mut cfg = tsue_ecfs::ClusterConfig::ssd_testbed(2, 1, 1);
        cfg.osds = 4;
        cfg.file_size_per_client = 1 << 20;
        let world = Cluster::new(cfg, |_| Box::new(tsue_ecfs::InstantScheme::default()));
        let mut sim: Sim<Cluster> = Sim::new();
        let plan = FaultPlan::new(vec![FaultEvent::KillNode { at_ms: 1, node: 9 }]);
        let err = install(&world, &mut sim, &plan, EngineConfig::default()).unwrap_err();
        assert!(err.contains("kill_node"), "{err}");
        assert_eq!(sim.pending(), 0, "no events scheduled from a bad plan");
    }

    #[test]
    fn plan_validation_checks_ranges() {
        let plan = FaultPlan::new(vec![FaultEvent::KillRack { at_ms: 1, rack: 7 }]);
        let err = plan.validate(16, 4).unwrap_err();
        assert!(err.contains("rack 7"), "{err}");
        let plan = FaultPlan::new(vec![FaultEvent::SlowNode {
            at_ms: 1,
            node: 0,
            factor: 0.5,
            duration_ms: 1,
        }]);
        assert!(plan.validate(16, 4).is_err());
        let plan = FaultPlan::new(vec![FaultEvent::SlowNode {
            at_ms: 1,
            node: 0,
            factor: 2.0,
            duration_ms: u64::MAX / MILLISECOND,
        }]);
        let err = plan.validate(16, 4).unwrap_err();
        assert!(err.starts_with("fault #0 (slow_node @1ms)"), "{err}");
        assert!(err.contains("at_ms + duration_ms"), "{err}");
        assert!(FaultPlan::default().validate(16, 4).is_ok());
    }
}

//! Baseline erasure-code update schemes from the paper's §2.2:
//!
//! | Scheme | Data block | Parity path | Recycle |
//! |--------|-----------|-------------|---------|
//! | [`Fo`]    | in-place RMW | in-place RMW per parity | none (fully synchronous) |
//! | [`Fl`]    | logged       | data logged at parity   | threshold, mutually exclusive |
//! | [`Pl`]    | in-place RMW | parity delta appended to parity log | threshold (lazy) |
//! | [`Plr`]   | in-place RMW | delta into *reserved space* next to the parity block (random writes) | inline when the reserved region fills |
//! | [`Parix`] | in-place write (speculative) | new data appended to parity log; old data fetched on first touch (2× RTT) | threshold |
//! | [`Cord`]  | in-place RMW | data delta to a *collector* that folds Eq. (5) before touching parity | when its fixed buffer fills (serialization bottleneck) |
//!
//! All schemes implement [`tsue_ecfs::UpdateScheme`] against identical
//! device/network models, so the differences the paper's Fig. 5/7/8 and
//! Table 1 report come purely from the update path structure.

pub mod cord;
pub mod fl;
pub mod fo;
pub mod parix;
pub mod pl;
pub mod plr;

pub use cord::Cord;
pub use fl::Fl;
pub use fo::Fo;
pub use parix::Parix;
pub use pl::Pl;
pub use plr::Plr;
pub use tsue_ecfs::logregion::LogRegion;
pub use tsue_ecfs::scheme::AckTable;

use tsue_ecfs::registry::reject_knobs;
use tsue_ecfs::scheme::{rmw_data_delta, send_at, DeltaKind, SchemeMsg, UpdateReq};
use tsue_ecfs::{
    Cluster, ClusterCore, MakeScheme, SchemeError, SchemeParams, SchemeRegistry, UpdateScheme,
};
use tsue_sim::{Sim, Time};

/// Registers every baseline with a [`SchemeRegistry`] under the names
/// `fo`, `fl`, `pl`, `plr`, `parix`, `cord`. The baselines take no
/// scenario knobs; passing any is rejected.
pub fn register_baselines(reg: &mut SchemeRegistry) {
    fn bare(
        params: &SchemeParams,
        make: fn() -> Box<dyn UpdateScheme>,
    ) -> Result<MakeScheme, SchemeError> {
        reject_knobs(&params.knobs)?;
        Ok(Box::new(move |_| make()))
    }
    reg.register(
        "fo",
        "FO",
        "full overwrite: synchronous in-place RMW of data and every parity",
        |p| bare(p, || Box::new(Fo::new())),
    );
    reg.register(
        "fl",
        "FL",
        "full logging: data and parity updates appended to logs, threshold recycle",
        |p| bare(p, || Box::new(Fl::new())),
    );
    reg.register(
        "pl",
        "PL",
        "parity logging: in-place data, parity deltas appended to a parity log",
        |p| bare(p, || Box::new(Pl::new())),
    );
    reg.register(
        "plr",
        "PLR",
        "parity logging with reserved space next to each parity block",
        |p| bare(p, || Box::new(Plr::new())),
    );
    reg.register(
        "parix",
        "PARIX",
        "speculative partial writes: old data fetched on first touch",
        |p| bare(p, || Box::new(Parix::new())),
    );
    reg.register(
        "cord",
        "CoRD",
        "collector-based delta combining before parity writes",
        |p| bare(p, || Box::new(Cord::new())),
    );
}

/// Which parity index (0..m) of `gstripe` lives on `osd`, if any.
pub fn parity_index_of(core: &ClusterCore, osd: usize, gstripe: u64) -> Option<usize> {
    let k = core.cfg.stripe.k;
    (0..core.cfg.stripe.m).find(|&j| core.owner_of(gstripe, k + j) == osd)
}

/// The synchronous front half FO, PL and PLR share: the in-place data
/// RMW producing the data delta (Eq. 2 prologue), then one GF-scaled
/// parity delta per parity block, computed on the data OSD's CPU and
/// forwarded to each parity owner as a [`SchemeMsg::DeltaForward`].
/// `acks` completes the op after `m` acks; what a parity owner does with
/// its delta before acking is each scheme's policy.
pub fn forward_parity_deltas(
    acks: &mut AckTable,
    core: &mut ClusterCore,
    sim: &mut Sim<Cluster>,
    osd: usize,
    req: UpdateReq,
) {
    let (t_rmw, delta) = rmw_data_delta(core, sim.now(), osd, req.block, req.off, &req.data);
    let m = core.cfg.stripe.m;
    let gstripe = core.global_stripe(req.block.file, req.block.stripe);
    let tag = acks.register(req.op_id, m as u32);
    let t_send = t_rmw + core.gf_time(req.data.len * m as u64);
    for j in 0..m {
        let peer = core.owner_of(gstripe, core.cfg.stripe.k + j);
        let pd = delta.gf_scaled(core.rs.coefficient(j, req.block.role));
        let msg = SchemeMsg::DeltaForward {
            from: osd,
            block: req.block,
            off: req.off,
            data: pd,
            kind: DeltaKind::ParityDelta,
            parity_index: j,
            tag,
        };
        send_at(sim, t_send, osd, peer, req.data.len, msg);
    }
}

/// Header bytes persisted with each entry of a baseline's log.
pub(crate) const ENTRY_HEADER: u64 = 32;

/// Memory one logged parity delta holds in PL's and PLR's in-memory
/// index: its header plus 48 B of block, offset and length fields. The
/// content lives on the log device, so `memory_usage` counts entries,
/// not payload bytes, in every run.
pub(crate) const LOG_INDEX_ENTRY: u64 = ENTRY_HEADER + 48;

/// Timer tag of one recycle-time parity application in flight — the only
/// timer PL, PLR and PARIX arm.
const TAG_RECYCLE_DONE: u64 = 1;

/// Counts a parity application that completes at `done_at` into a
/// scheme's in-flight backlog and arms the timer that takes it out again.
pub(crate) fn track_recycle(
    inflight: &mut u64,
    core: &mut ClusterCore,
    sim: &mut Sim<Cluster>,
    osd: usize,
    done_at: Time,
) {
    *inflight += 1;
    core.scheme_timer(
        sim,
        osd,
        done_at.saturating_sub(sim.now()),
        TAG_RECYCLE_DONE,
    );
}

/// The `on_timer` half of [`track_recycle`].
pub(crate) fn recycle_done(inflight: &mut u64, tag: u64) {
    debug_assert_eq!(tag, TAG_RECYCLE_DONE);
    *inflight -= 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_table_completes_after_need_acks() {
        let mut t = AckTable::default();
        let tag = t.register(77, 3);
        assert_eq!(t.ack(tag), None);
        assert_eq!(t.ack(tag), None);
        assert_eq!(t.ack(tag), Some(77));
        assert_eq!(t.ack(tag), None, "completed exchanges disappear");
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn ack_table_tags_are_unique() {
        let mut t = AckTable::default();
        let a = t.register(1, 1);
        let b = t.register(2, 1);
        assert_ne!(a, b);
        assert_eq!(t.ack(b), Some(2));
        assert_eq!(t.ack(a), Some(1));
    }

    #[test]
    #[should_panic(expected = "at least one ack")]
    fn zero_need_panics() {
        AckTable::default().register(0, 0);
    }

    #[test]
    fn baselines_register_under_their_figure_names() {
        let mut reg = SchemeRegistry::new();
        register_baselines(&mut reg);
        assert_eq!(reg.names(), ["fo", "fl", "pl", "plr", "parix", "cord"]);
        assert_eq!(reg.get("fo").unwrap().display, "FO");
        assert_eq!(reg.get("CORD").unwrap().display, "CoRD");
    }
}

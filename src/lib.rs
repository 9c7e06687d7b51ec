//! # tsue-repro — umbrella crate
//!
//! Re-exports the whole TSUE reproduction workspace under one roof so the
//! root-level `examples/` and `tests/` can exercise the system end to end.
//!
//! Layering (bottom-up):
//!
//! * [`gf`] / [`ec`] — GF(2^8) algebra and the systematic Reed–Solomon
//!   codec with the paper's incremental-update equations.
//! * [`buf`] — shared byte buffers (`Bytes`/`BytesMut`) with copy and
//!   allocation counters: the zero-copy data plane.
//! * [`sim`] — deterministic discrete-event kernel (virtual time).
//! * [`device`] / [`net`] — SSD (FTL + wear) / HDD and network fabric
//!   models that substitute for the paper's Chameleon testbed.
//! * [`trace`] — synthetic Ali-Cloud / Ten-Cloud / MSR workload generators.
//! * [`integrity`] — block checksums, torn-record framing, and the typed
//!   corruption errors behind the scrub/power-loss machinery.
//! * [`obs`] — observability: latency histograms per op class and
//!   pipeline stage, op-lifecycle span tracing (Chrome `trace_event`
//!   export), and per-node/per-rack time-series metric families.
//! * [`ecfs`] — the erasure-coded cluster file system (MDS, OSD, Client).
//! * [`fault`] — scripted fault injection (node/rack kills, stragglers,
//!   heals) driving online recovery under load.
//! * [`schemes`] — baseline update schemes: FO, FL, PL, PLR, PARIX, CoRD.
//! * [`core`] — **TSUE itself**: two-stage update with the three-layer,
//!   real-time-recycled log-pool structure.
//! * [`mod@bench`] — the experiment harness regenerating every paper figure
//!   and table.

pub use tsue_bench as bench;
pub use tsue_buf as buf;
pub use tsue_core as core;
pub use tsue_device as device;
pub use tsue_ec as ec;
pub use tsue_ecfs as ecfs;
pub use tsue_fault as fault;
pub use tsue_gf as gf;
pub use tsue_integrity as integrity;
pub use tsue_net as net;
pub use tsue_obs as obs;
pub use tsue_schemes as schemes;
pub use tsue_sim as sim;
pub use tsue_trace as trace;

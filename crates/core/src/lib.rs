//! # tsue-core — the paper's primary contribution
//!
//! TSUE ("Two-Stage Update for Erasure coding") splits the erasure-code
//! update path into a **synchronous front end** — update payloads are
//! appended to a replicated, sequential *DataLog* and acknowledged
//! immediately — and an **asynchronous back end** that recycles logs in
//! real time through a three-layer hierarchy:
//!
//! ```text
//!   client update
//!        │ append (sequential, replicated ×2)
//!        ▼
//!   [DataLog]  ── merge (newest-wins, coalesce) ──►  data block overwrite
//!        │                                           + data delta
//!        ▼ forward Δ to first parity owner (copy on second)
//!   [DeltaLog] ── merge (Eq. 3) + combine across blocks (Eq. 5), in memory
//!        │
//!        ▼ combined parity deltas to every parity owner
//!   [ParityLog] ── merge (Eq. 3) ──► parity block read-XOR-write
//! ```
//!
//! The crate provides:
//!
//! * [`LogUnit`] / [`LogPool`] — the FIFO log-pool structure with the
//!   two-level (block → offset) coalescing index and bitmap filter (§3.2),
//! * [`Tsue`] / [`TsueConfig`] — the [`tsue_ecfs::UpdateScheme`]
//!   implementation with every Fig. 7 ablation switch (O1–O5),
//! * [`ResidencyStats`] — per-layer append/buffer/recycle residence times
//!   (Table 2).

pub mod knobs;
pub mod logpool;
pub mod logunit;
pub mod residency;
pub mod tsue;

pub use knobs::register_tsue;
pub use logpool::LogPool;
pub use logunit::{BlockIndex, LogUnit, UnitId, UnitState, RECORD_HEADER};
pub use residency::{LayerResidency, ResidencyStats, StatAcc};

pub use tsue::{Tsue, TsueConfig};

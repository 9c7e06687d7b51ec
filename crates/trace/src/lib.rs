//! Synthetic block-trace generators calibrated to the workload statistics
//! the TSUE paper itself reports (§2.1, §2.3.3).
//!
//! The real Ali-Cloud, Ten-Cloud, and MSR-Cambridge traces are not
//! redistributable here, so each is replaced by a seeded generator that
//! reproduces the axes the update schemes actually differentiate on:
//!
//! * **update ratio** — Ali: 75 % of requests are updates; Ten: 69 %;
//!   MSR: >90 % of writes are overwrites of existing data,
//! * **request-size distribution** — Ali: 46 % exactly 4 KiB, 60 % ≤ 16 KiB;
//!   Ten: 69 % at 4 KiB, 88 % ≤ 16 KiB; MSR: 60 % < 4 KiB, 90 % < 16 KiB,
//! * **spatio-temporal locality** — Ten: >80 % of datasets touch < 5 % of
//!   their data; generators layer (a) a hot working set, (b) self-similar
//!   skew inside it, (c) explicit same-address repeats (temporal locality),
//!   and (d) sequential run continuation (spatial adjacency).
//!
//! Generators are deterministic given a seed, so every experiment is
//! replayable bit for bit.

pub mod csv;
pub mod profiles;
pub mod stats;

pub use csv::{load_csv, parse_csv, ParseError};
pub use profiles::{ali_cloud, msr_volume, ten_cloud, MsrVolume};
pub use stats::TraceStats;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Direction of a trace operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Read request.
    Read,
    /// Write request; replayed against a pre-populated volume, every write
    /// is an *update* (overwrite of live data), matching how the paper
    /// replays its traces.
    Write,
}

/// One operation of a block trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceOp {
    /// Read or write.
    pub kind: OpKind,
    /// Byte offset within the volume.
    pub offset: u64,
    /// Request length in bytes.
    pub len: u64,
}

/// Workload shape parameters. See [`profiles`] for calibrated presets.
#[derive(Clone, Debug)]
pub struct WorkloadProfile {
    /// Display name ("ali-cloud", "msr:src22", ...).
    pub name: String,
    /// Fraction of operations that are writes (updates).
    pub update_fraction: f64,
    /// Request-size point masses `(bytes, probability)`; probabilities must
    /// sum to ~1.
    pub size_dist: Vec<(u64, f64)>,
    /// Fraction of the volume forming the hot working set.
    pub hot_fraction: f64,
    /// Probability an access lands in the hot set.
    pub hot_access_prob: f64,
    /// Recursion depth of the self-similar skew inside the hot set
    /// (higher = hotter sub-spots).
    pub skew_depth: u32,
    /// Probability the next op repeats a recently-touched address exactly
    /// (temporal locality — drives same-offset folding).
    pub repeat_prob: f64,
    /// Probability the next op continues sequentially after the previous
    /// one (spatial adjacency — drives coalescing).
    pub seq_run_prob: f64,
    /// Offset alignment in bytes.
    pub align: u64,
}

impl WorkloadProfile {
    /// Validates the probability mass; returns the profile for chaining.
    ///
    /// # Panics
    /// Panics if the size distribution is empty or badly normalized.
    pub fn validated(self) -> Self {
        assert!(!self.size_dist.is_empty(), "empty size distribution");
        let total: f64 = self.size_dist.iter().map(|&(_, p)| p).sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "size distribution sums to {total}, expected 1.0"
        );
        assert!(
            self.align.is_power_of_two(),
            "alignment must be a power of two"
        );
        self
    }

    /// Mean request size in bytes.
    pub fn mean_size(&self) -> f64 {
        self.size_dist.iter().map(|&(s, p)| s as f64 * p).sum()
    }
}

/// Deterministic trace generator: an infinite iterator of [`TraceOp`]s.
pub struct TraceGen {
    profile: WorkloadProfile,
    volume_size: u64,
    rng: SmallRng,
    /// Recently touched (offset, len) pairs for temporal-repeat sampling.
    recent: VecDeque<(u64, u64)>,
    /// End offset of the previous op, for sequential runs.
    last_end: u64,
    /// Recorded ops replayed cyclically instead of synthesis, when set.
    replay: Option<(Vec<TraceOp>, usize)>,
}

/// How many recent addresses the temporal-repeat pool remembers.
const RECENT_POOL: usize = 64;

impl TraceGen {
    /// Creates a generator over a volume of `volume_size` bytes.
    ///
    /// # Panics
    /// Panics if the volume is smaller than 1 MiB (the locality layering
    /// needs room) or the profile is malformed.
    pub fn new(profile: WorkloadProfile, volume_size: u64, seed: u64) -> Self {
        assert!(
            volume_size >= 1 << 20,
            "volume too small for locality model"
        );
        let profile = profile.validated();
        TraceGen {
            profile,
            volume_size,
            rng: SmallRng::seed_from_u64(seed),
            recent: VecDeque::with_capacity(RECENT_POOL),
            last_end: 0,
            replay: None,
        }
    }

    /// Creates a generator that cyclically replays recorded operations
    /// (e.g. from [`crate::csv::load_csv`]) instead of synthesizing them.
    /// Each client can start at a different `phase` into the recording so
    /// concurrent replays do not move in lockstep.
    ///
    /// # Panics
    /// Panics if `ops` is empty or any op exceeds the volume.
    pub fn from_ops(ops: Vec<TraceOp>, volume_size: u64, phase: usize) -> Self {
        assert!(!ops.is_empty(), "empty replay trace");
        assert!(
            ops.iter().all(|o| o.offset + o.len <= volume_size),
            "replay op exceeds volume"
        );
        let start = phase % ops.len();
        let profile = WorkloadProfile {
            name: "replay".into(),
            update_fraction: 0.0,
            size_dist: vec![(4096, 1.0)],
            hot_fraction: 1.0,
            hot_access_prob: 0.0,
            skew_depth: 0,
            repeat_prob: 0.0,
            seq_run_prob: 0.0,
            align: 1,
        };
        TraceGen {
            profile,
            volume_size,
            rng: SmallRng::seed_from_u64(0),
            recent: VecDeque::new(),
            last_end: 0,
            replay: Some((ops, start)),
        }
    }

    /// Profile accessor.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Volume size accessor.
    pub fn volume_size(&self) -> u64 {
        self.volume_size
    }

    /// Generates the next operation.
    pub fn next_op(&mut self) -> TraceOp {
        if let Some((ops, cursor)) = self.replay.as_mut() {
            let op = ops[*cursor];
            *cursor = (*cursor + 1) % ops.len();
            return op;
        }
        let kind = if self.rng.gen_bool(self.profile.update_fraction) {
            OpKind::Write
        } else {
            OpKind::Read
        };
        let len = self.sample_size();

        // Temporal repeat: hit an address we touched recently.
        if !self.recent.is_empty() && self.rng.gen_bool(self.profile.repeat_prob) {
            let idx = self.rng.gen_range(0..self.recent.len());
            let (offset, rlen) = self.recent[idx];
            self.last_end = offset + rlen;
            return TraceOp {
                kind,
                offset,
                len: rlen,
            };
        }

        // Sequential continuation: extend the previous run.
        let offset = if self.rng.gen_bool(self.profile.seq_run_prob)
            && self.last_end + len <= self.volume_size
        {
            self.last_end
        } else {
            self.sample_offset(len)
        };

        self.last_end = offset + len;
        if self.recent.len() == RECENT_POOL {
            self.recent.pop_front();
        }
        self.recent.push_back((offset, len));
        TraceOp { kind, offset, len }
    }

    /// Draws a request size from the point-mass distribution.
    fn sample_size(&mut self) -> u64 {
        let mut u: f64 = self.rng.gen();
        for &(size, p) in &self.profile.size_dist {
            if u < p {
                return size;
            }
            u -= p;
        }
        self.profile
            .size_dist
            .last()
            .expect("validated non-empty")
            .0
    }

    /// Draws an aligned offset with layered hot-set + self-similar skew.
    fn sample_offset(&mut self, len: u64) -> u64 {
        let align = self.profile.align;
        let usable = self.volume_size.saturating_sub(len).max(align);
        let mut lo = 0u64;
        let mut span = usable;
        if self.rng.gen_bool(self.profile.hot_access_prob) {
            // Descend `skew_depth` levels of the self-similar split: each
            // level narrows to the hot_fraction sub-range with probability
            // hot_access_prob, compounding the skew.
            for _ in 0..self.profile.skew_depth {
                let hot_span = ((span as f64) * self.profile.hot_fraction).max(align as f64) as u64;
                if hot_span >= span {
                    break;
                }
                if self.rng.gen_bool(self.profile.hot_access_prob) {
                    span = hot_span;
                } else {
                    // Fall into the cold remainder of this level.
                    lo += hot_span;
                    span -= hot_span;
                    break;
                }
            }
        }
        let max = (lo + span).min(usable);
        let raw = self.rng.gen_range(lo..=max);
        (raw / align) * align
    }

    /// Collects `n` operations into a vector (for replay and tests).
    pub fn take_ops(&mut self, n: usize) -> Vec<TraceOp> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_profile() -> WorkloadProfile {
        WorkloadProfile {
            name: "test".into(),
            update_fraction: 0.7,
            size_dist: vec![(4096, 0.6), (8192, 0.4)],
            hot_fraction: 0.05,
            hot_access_prob: 0.9,
            skew_depth: 2,
            repeat_prob: 0.2,
            seq_run_prob: 0.1,
            align: 512,
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let mut a = TraceGen::new(small_profile(), 64 << 20, 42);
        let mut b = TraceGen::new(small_profile(), 64 << 20, 42);
        assert_eq!(a.take_ops(1000), b.take_ops(1000));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = TraceGen::new(small_profile(), 64 << 20, 1);
        let mut b = TraceGen::new(small_profile(), 64 << 20, 2);
        assert_ne!(a.take_ops(100), b.take_ops(100));
    }

    #[test]
    fn ops_stay_in_bounds_and_aligned() {
        let vol = 32 << 20;
        let mut g = TraceGen::new(small_profile(), vol, 7);
        for op in g.take_ops(10_000) {
            assert!(op.offset + op.len <= vol, "{op:?} exceeds volume");
            assert_eq!(op.offset % 512, 0, "{op:?} misaligned");
            assert!(op.len > 0);
        }
    }

    #[test]
    fn update_fraction_is_respected() {
        let mut g = TraceGen::new(small_profile(), 64 << 20, 3);
        let ops = g.take_ops(20_000);
        let writes = ops.iter().filter(|o| o.kind == OpKind::Write).count();
        let frac = writes as f64 / ops.len() as f64;
        assert!((frac - 0.7).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    fn temporal_repeats_occur() {
        let mut g = TraceGen::new(small_profile(), 64 << 20, 9);
        let ops = g.take_ops(5_000);
        let mut seen = std::collections::BTreeMap::new();
        let mut repeats = 0usize;
        for op in &ops {
            *seen.entry((op.offset, op.len)).or_insert(0usize) += 1;
        }
        for (_, c) in seen {
            if c > 1 {
                repeats += c - 1;
            }
        }
        assert!(
            repeats as f64 / ops.len() as f64 > 0.1,
            "expected same-address repeats, got {repeats}"
        );
    }

    #[test]
    #[should_panic(expected = "sums to")]
    fn bad_distribution_panics() {
        let mut p = small_profile();
        p.size_dist = vec![(4096, 0.5)];
        let _ = TraceGen::new(p, 32 << 20, 0);
    }
}

//! Trace statistics: verify that generated workloads actually exhibit the
//! calibration targets (update ratio, size quantiles, footprint, locality).

use crate::{OpKind, TraceOp};
use std::collections::{BTreeMap, BTreeSet};

/// Summary statistics over a trace sample.
#[derive(Clone, Debug)]
pub struct TraceStats {
    /// Number of operations.
    pub ops: usize,
    /// Fraction of write operations.
    pub write_fraction: f64,
    /// Total bytes touched (sum of lengths).
    pub total_bytes: u64,
    /// Mean request size.
    pub mean_size: f64,
    /// Fraction of requests with `len <= 4 KiB`.
    pub le_4k: f64,
    /// Fraction of requests with `len <= 16 KiB`.
    pub le_16k: f64,
    /// Distinct 4 KiB pages touched / volume pages — the working-set
    /// footprint ("<5 % of total data" in the Ten-Cloud analysis).
    pub footprint: f64,
    /// Fraction of accesses hitting the hottest 10 % of touched pages —
    /// a locality indicator (higher = hotter).
    pub top_decile_share: f64,
    /// Fraction of ops exactly repeating an earlier (offset, len).
    pub exact_repeat_fraction: f64,
    /// Fraction of ops starting exactly where the previous ended.
    pub sequential_fraction: f64,
}

impl TraceStats {
    /// Computes statistics for `ops` over a volume of `volume_size` bytes.
    ///
    /// # Panics
    /// Panics if `ops` is empty.
    pub fn compute(ops: &[TraceOp], volume_size: u64) -> Self {
        assert!(!ops.is_empty(), "empty trace");
        let n = ops.len();
        let writes = ops.iter().filter(|o| o.kind == OpKind::Write).count();
        let total_bytes: u64 = ops.iter().map(|o| o.len).sum();
        let le_4k = ops.iter().filter(|o| o.len <= 4 << 10).count() as f64 / n as f64;
        let le_16k = ops.iter().filter(|o| o.len <= 16 << 10).count() as f64 / n as f64;

        // Page-granular access histogram.
        let mut page_hits: BTreeMap<u64, u64> = BTreeMap::new();
        for op in ops {
            let first = op.offset / 4096;
            let last = (op.offset + op.len.max(1) - 1) / 4096;
            for p in first..=last {
                *page_hits.entry(p).or_insert(0) += 1;
            }
        }
        let distinct_pages = page_hits.len() as u64;
        let volume_pages = volume_size.div_ceil(4096).max(1);
        let footprint = distinct_pages as f64 / volume_pages as f64;

        let mut hits: Vec<u64> = page_hits.values().copied().collect();
        hits.sort_unstable_by(|a, b| b.cmp(a));
        let total_hits: u64 = hits.iter().sum();
        let decile = (hits.len() / 10).max(1);
        let top_hits: u64 = hits[..decile].iter().sum();
        let top_decile_share = top_hits as f64 / total_hits.max(1) as f64;

        let mut seen = BTreeSet::new();
        let mut repeats = 0usize;
        for op in ops {
            if !seen.insert((op.offset, op.len)) {
                repeats += 1;
            }
        }

        let mut seq = 0usize;
        for w in ops.windows(2) {
            if w[1].offset == w[0].offset + w[0].len {
                seq += 1;
            }
        }

        TraceStats {
            ops: n,
            write_fraction: writes as f64 / n as f64,
            total_bytes,
            mean_size: total_bytes as f64 / n as f64,
            le_4k,
            le_16k,
            footprint,
            top_decile_share,
            exact_repeat_fraction: repeats as f64 / n as f64,
            sequential_fraction: seq as f64 / (n - 1).max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ali_cloud, ten_cloud, TraceGen};

    #[test]
    fn ali_generated_trace_matches_calibration() {
        let mut g = TraceGen::new(ali_cloud(), 256 << 20, 11);
        let ops = g.take_ops(30_000);
        let s = TraceStats::compute(&ops, 256 << 20);
        assert!(
            (s.write_fraction - 0.75).abs() < 0.02,
            "{}",
            s.write_fraction
        );
        // Repeats re-draw recorded sizes, so quantiles drift slightly from
        // the raw point masses; allow a modest band.
        assert!((s.le_16k - 0.60).abs() < 0.08, "le_16k {}", s.le_16k);
        assert!(
            s.top_decile_share > 0.4,
            "locality too weak: {}",
            s.top_decile_share
        );
    }

    #[test]
    fn ten_is_hotter_and_smaller_than_ali() {
        let vol = 256 << 20;
        let mut ga = TraceGen::new(ali_cloud(), vol, 5);
        let mut gt = TraceGen::new(ten_cloud(), vol, 5);
        let sa = TraceStats::compute(&ga.take_ops(30_000), vol);
        let st = TraceStats::compute(&gt.take_ops(30_000), vol);
        assert!(st.le_4k > sa.le_4k, "Ten should skew smaller");
        assert!(
            st.footprint < sa.footprint,
            "Ten footprint {} should be below Ali {}",
            st.footprint,
            sa.footprint
        );
        assert!(st.exact_repeat_fraction > sa.exact_repeat_fraction);
    }

    #[test]
    fn footprint_is_small_for_hot_workloads() {
        let vol = 1 << 30;
        let mut g = TraceGen::new(ten_cloud(), vol, 3);
        let ops = g.take_ops(50_000);
        let s = TraceStats::compute(&ops, vol);
        // Ten-Cloud analysis: datasets touch < 5 % of their data; the
        // generator's uniform cold tail adds a little scatter on top.
        assert!(s.footprint < 0.06, "footprint {}", s.footprint);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_panics() {
        let _ = TraceStats::compute(&[], 1024);
    }
}

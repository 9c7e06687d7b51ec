//! Log-bucketed (HDR-style) latency histogram.
//!
//! Values are virtual-time durations in nanoseconds. Buckets are
//! log-linear: values below [`SUB_BUCKETS`] get one exact bucket each;
//! above that, every power of two is split into [`SUB_BUCKETS`] linear
//! sub-buckets, bounding the relative width of any bucket to
//! `1/SUB_BUCKETS` of its lower edge. Quantiles report the bucket
//! midpoint, so the approximation error is at most one bucket's relative
//! error (≤ 1/16 of the true value, plus one for integer rounding).
//!
//! Histograms are plain count vectors, so they merge by element-wise
//! addition: `merge` is associative and commutative, which is what makes
//! per-shard recording safe — any merge order (as long as it is a fixed,
//! sorted order) produces the identical histogram. `since` is the window
//! inverse: the histogram of everything recorded after an earlier
//! snapshot of the same cumulative histogram.

use serde::{Deserialize, Serialize};

/// Linear sub-buckets per power of two (and the exact-bucket span).
pub const SUB_BUCKETS: usize = 16;
const SUB_BITS: u32 = 4; // log2(SUB_BUCKETS)

/// Total bucket count covering the full `u64` range.
pub const NUM_BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BITS as usize) * SUB_BUCKETS;

/// Bucket index of a value. Total order preserving: `a <= b` implies
/// `index(a) <= index(b)`.
#[inline]
fn index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        let e = 63 - v.leading_zeros();
        let sub = ((v >> (e - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
        SUB_BUCKETS + (e - SUB_BITS) as usize * SUB_BUCKETS + sub
    }
}

/// Inclusive lower edge of a bucket.
#[inline]
fn bucket_lo(idx: usize) -> u64 {
    if idx < SUB_BUCKETS {
        idx as u64
    } else {
        let g = (idx - SUB_BUCKETS) / SUB_BUCKETS;
        let sub = (idx - SUB_BUCKETS) % SUB_BUCKETS;
        ((SUB_BUCKETS + sub) as u64) << g
    }
}

/// Width of a bucket (1 for the exact region).
#[inline]
fn bucket_width(idx: usize) -> u64 {
    if idx < SUB_BUCKETS {
        1
    } else {
        1u64 << ((idx - SUB_BUCKETS) / SUB_BUCKETS)
    }
}

/// A mergeable log-bucketed latency histogram (durations in ns).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one duration.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical durations in O(1).
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[index(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded durations, ns.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded duration (0 when empty), ns.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded duration, ns.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean recorded duration, ns (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the midpoint of the bucket
    /// holding the rank-`ceil(q·count)` sample, clamped to the recorded
    /// `[min, max]` range. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let mid = bucket_lo(idx) + bucket_width(idx) / 2;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Element-wise accumulation of `other` into `self`. Associative and
    /// commutative — fold shards in any fixed (sorted) order for
    /// deterministic results.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The window histogram of everything recorded in `self` after the
    /// earlier snapshot `older` of the same cumulative histogram. Bucket
    /// counts subtract exactly; the window min/max are re-derived from
    /// the surviving buckets' edges (tightened by the cumulative max).
    pub fn since(&self, older: &Histogram) -> Histogram {
        let mut h = Histogram::new();
        for (i, (a, b)) in self.counts.iter().zip(&older.counts).enumerate() {
            h.counts[i] = a.saturating_sub(*b);
        }
        h.count = self.count.saturating_sub(older.count);
        h.sum = self.sum.saturating_sub(older.sum);
        if h.count > 0 {
            let lo = h.counts.iter().position(|&c| c > 0).unwrap_or(0);
            let hi = h.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
            h.min = bucket_lo(lo).max(self.min);
            h.max = (bucket_lo(hi) + bucket_width(hi) - 1).min(self.max);
            h.min = h.min.min(h.max);
        }
        h
    }

    /// Sparse `(bucket index, count)` pairs of the non-empty buckets.
    pub fn nonzero_buckets(&self) -> Vec<(u32, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
            .collect()
    }

    /// The compact serializable quantile summary.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean_us: self.mean() / 1e3,
            p50_us: self.quantile(0.50) as f64 / 1e3,
            p90_us: self.quantile(0.90) as f64 / 1e3,
            p99_us: self.quantile(0.99) as f64 / 1e3,
            p999_us: self.quantile(0.999) as f64 / 1e3,
            max_us: self.max as f64 / 1e3,
        }
    }

    /// The histogram a [`HistReport`] was exported from: its fields hold
    /// every bucket count, the sample count, sum, min and max, so this
    /// inverts [`Self::report`] exactly.
    pub fn from_report(r: &HistReport) -> Histogram {
        let mut h = Histogram::new();
        for &(idx, c) in &r.buckets {
            h.counts[idx as usize] = c;
        }
        h.count = r.count;
        h.sum = r.sum_ns;
        if r.count > 0 {
            h.min = r.min_ns;
        }
        h.max = r.max_ns;
        h
    }

    /// The full serializable export: the summary plus the sparse buckets.
    pub fn report(&self, name: &str) -> HistReport {
        let buckets = self.nonzero_buckets();
        HistReport {
            name: name.to_string(),
            count: self.count,
            sum_ns: self.sum,
            min_ns: self.min(),
            max_ns: self.max,
            mean_us: self.mean() / 1e3,
            p50_us: self.quantile(0.50) as f64 / 1e3,
            p90_us: self.quantile(0.90) as f64 / 1e3,
            p99_us: self.quantile(0.99) as f64 / 1e3,
            p999_us: self.quantile(0.999) as f64 / 1e3,
            buckets,
        }
    }
}

/// Compact latency quantile summary (microseconds), the serialized form
/// used by fault-phase snapshots and summary tables.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Samples in the window.
    pub count: u64,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 90th-percentile latency, µs.
    pub p90_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// 99.9th-percentile latency, µs.
    pub p999_us: f64,
    /// Maximum latency, µs.
    pub max_us: f64,
}

/// Full serialized histogram: quantile summary plus the sparse log-linear
/// buckets, from which any quantile can be recomputed downstream.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistReport {
    /// Op class or stage name.
    pub name: String,
    /// Recorded samples.
    pub count: u64,
    /// Sum of recorded durations, ns.
    pub sum_ns: u64,
    /// Smallest recorded duration, ns (0 when empty).
    pub min_ns: u64,
    /// Largest recorded duration, ns.
    pub max_ns: u64,
    /// Mean duration, µs.
    pub mean_us: f64,
    /// Median, µs.
    pub p50_us: f64,
    /// 90th percentile, µs.
    pub p90_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// 99.9th percentile, µs.
    pub p999_us: f64,
    /// Sparse `(bucket index, count)` pairs of non-empty buckets.
    pub buckets: Vec<(u32, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_monotone_and_in_range() {
        let mut vals: Vec<u64> = (0..64)
            .flat_map(|s| [0u64, 1, 7].map(|d| (1u64 << s).saturating_add(d)))
            .chain([0, 5, 15, 16, u64::MAX])
            .collect();
        vals.sort_unstable();
        let mut prev = 0usize;
        for v in vals {
            let i = index(v);
            assert!(i < NUM_BUCKETS, "v={v} idx={i}");
            assert!(i >= prev, "monotone at v={v}: {i} < {prev}");
            prev = i;
            let lo = bucket_lo(i);
            let w = bucket_width(i);
            assert!(lo <= v && v - lo < w, "v={v} lo={lo} w={w}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), SUB_BUCKETS as u64 - 1);
        assert_eq!(h.count(), SUB_BUCKETS as u64);
        assert_eq!(h.sum(), (0..SUB_BUCKETS as u64).sum::<u64>());
    }

    #[test]
    fn quantiles_track_exact_within_bucket_error() {
        let mut h = Histogram::new();
        let vals: Vec<u64> = (0..1000).map(|i| 1000 + i * 97).collect();
        for &v in &vals {
            h.record(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let approx = h.quantile(q);
            let tol = exact / SUB_BUCKETS as u64 + 1;
            assert!(
                approx.abs_diff(exact) <= tol,
                "q={q} approx={approx} exact={exact} tol={tol}"
            );
        }
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let (mut a, mut b, mut all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [3u64, 99, 1024, 70_000, 1 << 40] {
            a.record(v);
            all.record(v);
        }
        for v in [0u64, 17, 500_000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn since_isolates_the_window() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(2_000);
        let snap = h.clone();
        h.record(1_000_000);
        h.record(1_000_010);
        let w = h.since(&snap);
        assert_eq!(w.count(), 2);
        assert_eq!(w.sum(), 2_000_010);
        assert!(w.quantile(0.5) >= 900_000, "window p50 {}", w.quantile(0.5));
        assert!(w.min() >= 900_000, "window min {}", w.min());
        assert_eq!(h.since(&h).count(), 0);
    }

    #[test]
    fn summary_and_report_round_trip() {
        let mut h = Histogram::new();
        for i in 0..100u64 {
            h.record(i * 1000);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert!(s.p50_us <= s.p99_us && s.p99_us <= s.p999_us);
        assert!(s.p999_us <= s.max_us + 1e-9);
        let r = h.report("update");
        let json = serde_json::to_string(&r).unwrap();
        let back: HistReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(Histogram::from_report(&back), h, "exact inverse");
        assert_eq!(
            Histogram::from_report(&Histogram::new().report("empty")),
            Histogram::new()
        );
        // Quantiles are recomputable from the sparse buckets alone.
        let mut h2 = Histogram::new();
        for &(idx, c) in &back.buckets {
            for _ in 0..c {
                h2.record(bucket_lo(idx as usize));
            }
        }
        assert_eq!(h2.count(), h.count());
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.summary(), LatencySummary::default());
    }
}

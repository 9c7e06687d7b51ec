//! Residence-time accounting per log layer — the source of Table 2
//! ("Time of Data Resided in Memory"): append latency, buffer dwell time,
//! and recycle duration for the DataLog, DeltaLog, and ParityLog.

use tsue_sim::Time;

/// Streaming mean accumulator.
#[derive(Clone, Copy, Debug, Default)]
pub struct StatAcc {
    sum: u128,
    count: u64,
    max: Time,
}

impl StatAcc {
    /// Adds one sample (nanoseconds).
    pub fn add(&mut self, v: Time) {
        self.sum += v as u128;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Mean in microseconds — Table 2's unit.
    pub fn mean_us(&self) -> f64 {
        self.mean_ns() / 1000.0
    }

    /// Maximum sample in nanoseconds.
    pub fn max_ns(&self) -> Time {
        self.max
    }

    /// Folds another accumulator's samples into this one.
    pub fn merge(&mut self, other: &StatAcc) {
        self.sum += other.sum;
        self.count += other.count;
        self.max = self.max.max(other.max);
    }
}

/// Per-layer residence statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerResidency {
    /// Append persist latency per record.
    pub append: StatAcc,
    /// Dwell between first append and recycle start, per unit.
    pub buffer: StatAcc,
    /// Recycle duration per unit.
    pub recycle: StatAcc,
}

impl LayerResidency {
    /// Mean end-to-end residence for this layer, ns.
    pub fn total_mean_ns(&self) -> f64 {
        self.append.mean_ns() + self.buffer.mean_ns() + self.recycle.mean_ns()
    }
}

/// The three layers of Table 2.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResidencyStats {
    /// One row per layer, in pipeline order: DataLog, DeltaLog,
    /// ParityLog.
    pub layers: [LayerResidency; 3],
}

/// Table 2's row labels, in the order of [`ResidencyStats::layers`].
const LAYER_NAMES: [&str; 3] = ["DATA_LOG", "DELTA_LOG", "PARITY_LOG"];

impl ResidencyStats {
    /// Table 2's TOTAL TIME: mean residence summed across layers, ns.
    pub fn total_ns(&self) -> f64 {
        self.layers.iter().map(LayerResidency::total_mean_ns).sum()
    }

    /// Formats the three rows like Table 2 (µs).
    pub fn rows(&self) -> [(&'static str, f64, f64, f64); 3] {
        std::array::from_fn(|i| {
            let l = &self.layers[i];
            (
                LAYER_NAMES[i],
                l.append.mean_us(),
                l.buffer.mean_us(),
                l.recycle.mean_us(),
            )
        })
    }

    /// Merges another instance (cluster-wide aggregation).
    pub fn merge(&mut self, other: &ResidencyStats) {
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.append.merge(&b.append);
            a.buffer.merge(&b.buffer);
            a.recycle.merge(&b.recycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_acc_mean_and_max() {
        let mut s = StatAcc::default();
        assert_eq!(s.mean_ns(), 0.0);
        s.add(1000);
        s.add(3000);
        assert_eq!(s.mean_ns(), 2000.0);
        assert_eq!(s.mean_us(), 2.0);
        assert_eq!(s.max_ns(), 3000);
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn rows_report_all_layers() {
        let mut r = ResidencyStats::default();
        r.layers[0].append.add(1000);
        r.layers[1].buffer.add(2000);
        r.layers[2].recycle.add(3000);
        let rows = r.rows();
        assert_eq!(rows[0].0, "DATA_LOG");
        assert_eq!(rows[0].1, 1.0);
        assert_eq!(rows[1].2, 2.0);
        assert_eq!(rows[2].3, 3.0);
        assert_eq!(r.total_ns(), 6000.0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = ResidencyStats::default();
        a.layers[0].append.add(100);
        let mut b = ResidencyStats::default();
        b.layers[0].append.add(300);
        a.merge(&b);
        assert_eq!(a.layers[0].append.count(), 2);
        assert_eq!(a.layers[0].append.mean_ns(), 200.0);
    }
}

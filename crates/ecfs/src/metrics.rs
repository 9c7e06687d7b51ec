//! Experiment counters: completions, latency, time-series buckets, and the
//! arrival log used by correctness tests.

use crate::osd::BlockId;
use tsue_obs::{ObsState, OpClass};
use tsue_sim::{Time, SECOND};

/// One update-extent arrival at an OSD, in OSD-serialized order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArrivalRecord {
    /// The client op.
    pub op_id: u64,
    /// Extent index within the op.
    pub ext: usize,
    /// Target block.
    pub block: BlockId,
    /// Offset within the block.
    pub off: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Cluster-wide experiment metrics.
pub struct ClusterMetrics {
    /// Completed client operations (reads + updates).
    pub ops_completed: u64,
    /// Completed update operations.
    pub updates_completed: u64,
    /// Completed read operations.
    pub reads_completed: u64,
    /// Update extents received by OSDs.
    pub extents_received: u64,
    /// Reads fully served from scheme logs/caches.
    pub read_cache_hits: u64,
    /// Latency histograms per op class and pipeline stage, span tracing,
    /// and the harness time series — the observability layer. Latency
    /// aggregates ([`Self::mean_latency`], [`Self::max_latency`],
    /// [`Self::total_latency`]) derive from these histograms.
    pub obs: ObsState,
    /// Completion counts bucketed per virtual second (Fig. 6a series).
    pub per_second: Vec<u64>,
    /// Time origin of the measurement window.
    pub window_start: Time,
    /// Update-extent arrival order (only when `record_arrivals`).
    pub arrivals: Option<Vec<ArrivalRecord>>,
    /// Peak per-OSD scheme memory observed by the harness probe, bytes.
    pub mem_peak: u64,
    /// Reads served via stripe reconstruction because the owner was dead.
    pub degraded_reads: u64,
    /// Updates parked because their owner was dead and not yet rebuilt.
    /// The payload is shipped to the degraded-write journal and replayed
    /// after rebuild/heal. Each parked extent counts exactly once,
    /// whichever side (client dispatch or on-wire delivery) detected the
    /// dead home.
    pub degraded_writes: u64,
    /// Reads that could not be served at all: the owner was dead and
    /// fewer than `k` survivors remained (data loss window).
    pub failed_reads: u64,
    /// Blocks swept by the background scrubber (checksum verification).
    pub blocks_scrubbed: u64,
    /// Corrupt pages detected (scrub sweep or read-path verification).
    pub corruptions_detected: u64,
    /// Corrupt pages repaired from the stripe's surviving blocks.
    pub corruptions_repaired: u64,
    /// Corrupt pages with fewer than `k` live siblings — unrepairable.
    pub corruptions_unrecoverable: u64,
    /// Torn log-tail records detected by post-power-loss log scans.
    pub torn_detected: u64,
    /// Torn records replayed byte-exactly from a surviving log replica.
    pub torn_replayed: u64,
    /// Torn records discarded for want of a replica (acked data lost —
    /// only reachable with data-log replication turned off).
    pub torn_discarded: u64,
}

impl ClusterMetrics {
    /// Creates zeroed metrics; `record_arrivals` enables the arrival log.
    pub fn new(record_arrivals: bool) -> Self {
        ClusterMetrics {
            ops_completed: 0,
            updates_completed: 0,
            reads_completed: 0,
            extents_received: 0,
            read_cache_hits: 0,
            obs: ObsState::new(),
            per_second: Vec::new(),
            window_start: 0,
            arrivals: record_arrivals.then(Vec::new),
            mem_peak: 0,
            degraded_reads: 0,
            degraded_writes: 0,
            failed_reads: 0,
            blocks_scrubbed: 0,
            corruptions_detected: 0,
            corruptions_repaired: 0,
            corruptions_unrecoverable: 0,
            torn_detected: 0,
            torn_replayed: 0,
            torn_discarded: 0,
        }
    }

    /// Records one completed client op into the counters and the
    /// matching op-class histogram. `degraded` marks updates that parked
    /// in the degraded-write journal (their own class); degraded reads
    /// stay in the read class — `degraded_reads` counts them separately.
    pub fn record_completion(&mut self, op: &crate::PendingOp, op_id: u64, now: Time) {
        self.ops_completed += 1;
        if op.is_write {
            self.updates_completed += 1;
        } else {
            self.reads_completed += 1;
        }
        let class = match (op.is_write, op.degraded) {
            (true, true) => OpClass::DegradedWrite,
            (true, false) => OpClass::Update,
            (false, _) => OpClass::Read,
        };
        self.obs
            .op_complete(class, op_id, op.client, op.issued_at, now);
        let bucket = (now.saturating_sub(self.window_start) / SECOND) as usize;
        if self.per_second.len() <= bucket {
            self.per_second.resize(bucket + 1, 0);
        }
        self.per_second[bucket] += 1;
    }

    /// Logs an update-extent arrival (correctness mode).
    pub fn record_arrival(&mut self, op_id: u64, ext: usize, block: BlockId, off: u64, len: u64) {
        if let Some(log) = self.arrivals.as_mut() {
            log.push(ArrivalRecord {
                op_id,
                ext,
                block,
                off,
                len,
            });
        }
    }

    /// Sum of completed client-op latencies, ns — derived from the
    /// op-class histogram sums (every completion lands in exactly one of
    /// update/read/degraded-write).
    pub fn total_latency(&self) -> Time {
        self.obs.total_client_latency()
    }

    /// Maximum completed client-op latency, ns (histogram-derived).
    pub fn max_latency(&self) -> Time {
        self.obs.max_client_latency()
    }

    /// Mean completed-op latency in nanoseconds, derived from the
    /// histogram sums so it stays consistent with the quantile fields.
    pub fn mean_latency(&self) -> f64 {
        if self.ops_completed == 0 {
            0.0
        } else {
            self.total_latency() as f64 / self.ops_completed as f64
        }
    }

    /// Aggregate operations per second over `[window_start, end]`.
    pub fn iops(&self, end: Time) -> f64 {
        let span = end.saturating_sub(self.window_start);
        if span == 0 {
            0.0
        } else {
            self.ops_completed as f64 * 1e9 / span as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(issued_at: Time, is_write: bool, degraded: bool) -> crate::PendingOp {
        crate::PendingOp {
            client: 0,
            remaining: 0,
            issued_at,
            is_write,
            degraded,
        }
    }

    #[test]
    fn completion_updates_all_counters() {
        let mut m = ClusterMetrics::new(false);
        m.window_start = 0;
        m.record_completion(&op(0, true, false), 1, SECOND / 2);
        m.record_completion(&op(SECOND, false, false), 2, 3 * SECOND / 2);
        assert_eq!(m.ops_completed, 2);
        assert_eq!(m.updates_completed, 1);
        assert_eq!(m.reads_completed, 1);
        assert_eq!(m.per_second, vec![1, 1]);
        assert_eq!(m.max_latency(), SECOND / 2);
        assert_eq!(m.total_latency(), SECOND);
        assert!((m.mean_latency() - (SECOND / 2) as f64).abs() < 1.0);
    }

    #[test]
    fn completions_classify_into_op_class_histograms() {
        use tsue_obs::OpClass;
        let mut m = ClusterMetrics::new(false);
        m.record_completion(&op(0, true, false), 1, 100);
        m.record_completion(&op(0, true, true), 2, 200);
        m.record_completion(&op(0, false, false), 3, 300);
        // Degraded *reads* stay in the read class.
        m.record_completion(&op(0, false, true), 4, 400);
        assert_eq!(m.obs.class_hist(OpClass::Update).count(), 1);
        assert_eq!(m.obs.class_hist(OpClass::DegradedWrite).count(), 1);
        assert_eq!(m.obs.class_hist(OpClass::Read).count(), 2);
        assert_eq!(m.total_latency(), 1000);
        assert_eq!(m.max_latency(), 400);
    }

    #[test]
    fn iops_over_window() {
        let mut m = ClusterMetrics::new(false);
        m.window_start = SECOND;
        for i in 0..100 {
            m.record_completion(&op(SECOND, true, false), i, SECOND + i * 10_000_000);
        }
        let iops = m.iops(2 * SECOND);
        assert!((iops - 100.0).abs() < 1e-6, "iops {iops}");
    }

    #[test]
    fn arrival_log_respects_flag() {
        let mut off = ClusterMetrics::new(false);
        off.record_arrival(
            1,
            0,
            BlockId {
                file: 0,
                stripe: 0,
                role: 0,
            },
            0,
            10,
        );
        assert!(off.arrivals.is_none());
        let mut on = ClusterMetrics::new(true);
        on.record_arrival(
            1,
            0,
            BlockId {
                file: 0,
                stripe: 0,
                role: 0,
            },
            0,
            10,
        );
        assert_eq!(on.arrivals.as_ref().unwrap().len(), 1);
    }
}

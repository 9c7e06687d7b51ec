//! The host's memory latency, read between repetitions.
//!
//! The reference container shares its memory system with other tenants:
//! over minutes the cost of a cache-missing load drifts by 10-25 % while
//! pure arithmetic does not move at all, and `ali-ghost-tsue` (FTL and
//! event-queue bookkeeping, no bytes) follows that drift one for one. A
//! fixed pointer chase timed next to every repetition measures the drift,
//! and `host_ops_per_s` is reported at [`REFERENCE_NS`] (README.md, "Host
//! memory latency").

use std::time::{Duration, Instant};

/// Table entries: 4 Mi `u32`s, 16 MiB, past the private caches and mostly
/// past the shared one, so a load costs what the host's memory costs now.
const ENTRIES: usize = 4 << 20;
/// The table's resident size, which `peak_rss_mib` leaves out.
pub const TABLE_MIB: f64 = (ENTRIES * 4) as f64 / (1u64 << 20) as f64;
/// A quiet reference container's reading: `host_ops_per_s` is what the run
/// would have measured at this latency.
pub const REFERENCE_NS: f64 = 108.0;
/// One reading between two repetitions.
pub const BURST: Duration = Duration::from_millis(30);

/// One cycle through every entry of the table, in an order no prefetcher
/// follows: each load's address is the previous load's value.
pub struct Chase {
    next: Vec<u32>,
    at: u32,
}

impl Chase {
    pub fn new() -> Chase {
        // Sattolo's shuffle leaves a single cycle, so a burst never falls
        // into a short loop that fits a cache. The order is fixed: the
        // reference must not depend on the workload's seed.
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Chase { next, at: 0 }
    }

    /// Follows the cycle for `dur`; nanoseconds per dependent load.
    pub fn ns_per_load(&mut self, dur: Duration) -> f64 {
        let start = Instant::now();
        let mut loads = 0u64;
        let mut at = self.at;
        loop {
            for _ in 0..4096 {
                at = self.next[at as usize];
            }
            loads += 4096;
            if start.elapsed() >= dur {
                break;
            }
        }
        self.at = at;
        start.elapsed().as_nanos() as f64 / loads as f64
    }
}

/// The factor that takes a throughput measured at `ns_per_load` to
/// [`REFERENCE_NS`], for a workload whose wall follows the latency with
/// `elasticity` (1 = one for one, 0 = not at all).
pub fn to_reference(ns_per_load: f64, elasticity: f64) -> f64 {
    (ns_per_load / REFERENCE_NS).powf(elasticity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_one_cycle() {
        let c = Chase::new();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = c.next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, ENTRIES);
    }

    #[test]
    fn slower_memory_scales_throughput_up_by_the_elasticity() {
        assert_eq!(to_reference(REFERENCE_NS, 1.2), 1.0);
        assert!((to_reference(2.0 * REFERENCE_NS, 1.0) - 2.0).abs() < 1e-12);
        assert_eq!(to_reference(2.0 * REFERENCE_NS, 0.0), 1.0);
    }
}

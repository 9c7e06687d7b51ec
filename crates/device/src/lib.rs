//! Storage device models: an SSD with a page-mapped FTL (garbage collection,
//! erase-cycle accounting, channel parallelism) and an HDD with a
//! seek/rotation model.
//!
//! The models answer two questions for every I/O the file system issues:
//!
//! 1. **When does it complete?** — service time from the device's latency
//!    profile (sequential vs random, size, queueing on channels), consumed
//!    by the DES through [`Device::submit`].
//! 2. **What does it cost the medium?** — [`DeviceStats`] tracks op/byte
//!    counts, in-place overwrites (the paper's *write penalty*), and — for
//!    SSDs — pages programmed, pages migrated by GC, and blocks erased,
//!    from which the lifespan comparison (Table 1, §5.3.4) is derived.
//!
//! Device models hold no user data; block content lives in the OSD layer.
//! Scale note: the per-page bookkeeping (FTL mapping, written-page bitmap)
//! is sized by the pages an experiment touches, not by the capacity it
//! declares (see the `table` module), but the FTL's GC behaviour does
//! depend on capacity — so model capacity should match the experiment
//! footprint (GBs, not the testbed's 400 GB); the paper's *relative* wear
//! and latency effects are preserved.

pub mod hdd;
#[cfg(test)]
mod reference;
pub mod ssd;
mod table;

pub use hdd::HddModel;
pub use ssd::{SsdModel, PAGE_SIZE};

use table::{Table, NONE};
use tsue_sim::{Time, MICROSECOND};

/// 4 KiB pages below this index (4 TiB of device space) are table-indexed;
/// addresses beyond it take the tables' ordered side path.
pub(crate) const DENSE_PAGES: u64 = 1 << 30;
/// Stream ids below this are table-indexed likewise.
const DENSE_STREAMS: u64 = 1 << 16;

/// Direction of an I/O operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoKind {
    /// Read from the device.
    Read,
    /// Write to the device.
    Write,
}

/// Whether an access continued the previous access of its stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Locality {
    /// Continues exactly where the stream's previous op ended.
    Sequential,
    /// Anywhere else.
    Random,
}

/// Aggregated I/O accounting for one device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Completed read operations.
    pub read_ops: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Completed write operations.
    pub write_ops: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Writes that hit already-written logical space (in-place updates —
    /// the paper's "overwrite / write penalty" column).
    pub overwrite_ops: u64,
    /// Bytes of such overwrites.
    pub overwrite_bytes: u64,
    /// Sequential ops (stream-adjacent).
    pub seq_ops: u64,
    /// Random ops.
    pub rand_ops: u64,
    /// Flash pages programmed (SSD only; includes GC migrations).
    pub pages_programmed: u64,
    /// Flash pages migrated by garbage collection (SSD only).
    pub pages_migrated: u64,
    /// Flash blocks erased (SSD only) — the lifespan currency.
    pub erase_ops: u64,
}

impl DeviceStats {
    /// Total foreground operations.
    pub fn total_ops(&self) -> u64 {
        self.read_ops + self.write_ops
    }

    /// Total foreground bytes.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Merges another stats block into this one (for cluster aggregation).
    pub fn merge(&mut self, other: &DeviceStats) {
        self.read_ops += other.read_ops;
        self.read_bytes += other.read_bytes;
        self.write_ops += other.write_ops;
        self.write_bytes += other.write_bytes;
        self.overwrite_ops += other.overwrite_ops;
        self.overwrite_bytes += other.overwrite_bytes;
        self.seq_ops += other.seq_ops;
        self.rand_ops += other.rand_ops;
        self.pages_programmed += other.pages_programmed;
        self.pages_migrated += other.pages_migrated;
        self.erase_ops += other.erase_ops;
    }

    /// Flash write amplification: physical pages programmed per logical
    /// page written. 1.0 when GC never migrated anything.
    pub fn write_amplification(&self) -> f64 {
        let logical = self.pages_programmed.saturating_sub(self.pages_migrated);
        if logical == 0 {
            1.0
        } else {
            self.pages_programmed as f64 / logical as f64
        }
    }
}

/// Identifies an I/O stream for sequentiality detection. Each log pool,
/// and each bulk reader/writer, passes a distinct stream id so interleaved
/// appends from different pools still count as sequential within their own
/// stream — matching how SSD multi-queue firmware detects streams.
pub type StreamId = u32;

/// A storage device: latency/wear model + stats, shared across SSD and HDD.
#[derive(Debug)]
pub struct Device {
    backend: Backend,
    stats: DeviceStats,
    /// `stream -> end offset of its previous access`, `NONE` before the
    /// stream's first.
    stream_tails: Table,
    /// 4 KiB-granularity map of logical space that has been written, for
    /// overwrite classification (kept in the device so every scheme is
    /// accounted identically).
    written: WrittenMap,
}

#[derive(Debug)]
enum Backend {
    /// Boxed: the FTL's two page tables make it the far larger variant.
    Ssd(Box<SsdModel>),
    Hdd(HddModel),
}

/// Bitmap over 4 KiB logical pages: bit `page % 64` of word `page / 64`.
#[derive(Debug)]
struct WrittenMap {
    words: Table,
}

impl WrittenMap {
    const GRAIN: u64 = 4096;

    fn new() -> Self {
        WrittenMap {
            words: Table::new(DENSE_PAGES / 64, 0),
        }
    }

    /// Marks `[offset, offset+len)` written; returns true if *any* page in
    /// the range had been written before (i.e. this is an overwrite).
    fn mark(&mut self, offset: u64, len: u64) -> bool {
        let first = offset / Self::GRAIN;
        let last = (offset + len.max(1) - 1) / Self::GRAIN;
        let mut any_old = false;
        for word in first / 64..=last / 64 {
            // The range's bits inside this word, `lo..=hi`.
            let lo = first.max(word * 64) % 64;
            let hi = last.min(word * 64 + 63) % 64;
            let mask = (u64::MAX >> (63 - hi)) & (u64::MAX << lo);
            let bits = self.words.slot(word);
            any_old |= *bits & mask != 0;
            *bits |= mask;
        }
        any_old
    }
}

impl Device {
    /// Creates an SSD-backed device.
    pub fn new_ssd(model: SsdModel) -> Self {
        Self::new(Backend::Ssd(Box::new(model)))
    }

    /// Creates an HDD-backed device.
    pub fn new_hdd(model: HddModel) -> Self {
        Self::new(Backend::Hdd(model))
    }

    fn new(backend: Backend) -> Self {
        Device {
            backend,
            stats: DeviceStats::default(),
            stream_tails: Table::new(DENSE_STREAMS, NONE),
            written: WrittenMap::new(),
        }
    }

    /// Is this an SSD?
    pub fn is_ssd(&self) -> bool {
        matches!(self.backend, Backend::Ssd(_))
    }

    /// Immutable stats view.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// SSD erase count so far (0 for HDDs).
    pub fn erase_count(&self) -> u64 {
        self.stats.erase_ops
    }

    /// Total device busy time (channel/actuator service ticks), virtual
    /// ns — the observability "device busy" gauge.
    pub fn busy_ticks(&self) -> Time {
        match &self.backend {
            Backend::Ssd(ssd) => ssd.busy_ticks(),
            Backend::Hdd(hdd) => hdd.busy_ticks(),
        }
    }

    /// Queue pressure at `now`: how far ahead of `now` the device is
    /// booked, virtual ns (0 when a server is idle).
    pub fn queue_ns(&self, now: Time) -> Time {
        let free = match &self.backend {
            Backend::Ssd(ssd) => ssd.next_free(),
            Backend::Hdd(hdd) => hdd.next_free(),
        };
        free.saturating_sub(now)
    }

    /// Zeroes the accumulated statistics (end of a setup phase); wear state
    /// (FTL mapping, head position) is deliberately preserved.
    pub fn reset_stats(&mut self) {
        self.stats = DeviceStats::default();
    }

    /// Submits an I/O arriving at `now`; returns its completion time.
    ///
    /// `stream` identifies the logical access stream for sequentiality
    /// detection (per-pool for log appends, per-reader for scans).
    pub fn submit(
        &mut self,
        now: Time,
        kind: IoKind,
        offset: u64,
        len: u64,
        stream: StreamId,
    ) -> Time {
        self.submit_inner(now, kind, offset, len, stream, true)
    }

    /// Like [`Self::submit`], but exempt from overwrite (write-penalty)
    /// classification — for circular log regions, whose rewrites are
    /// appends by design, not in-place update penalties. FTL wear is still
    /// charged: log churn does erase flash.
    pub fn submit_log(
        &mut self,
        now: Time,
        kind: IoKind,
        offset: u64,
        len: u64,
        stream: StreamId,
    ) -> Time {
        self.submit_inner(now, kind, offset, len, stream, false)
    }

    /// Marks `[offset, offset+len)` as written and programs its FTL pages
    /// without charging time or statistics — initial provisioning of
    /// blocks and reserved log regions.
    pub fn prefill(&mut self, offset: u64, len: u64) {
        self.written.mark(offset, len);
        if let Backend::Ssd(ssd) = &mut self.backend {
            let mut sink = DeviceStats::default();
            ssd.prefill(offset, len, &mut sink);
        }
    }

    fn submit_inner(
        &mut self,
        now: Time,
        kind: IoKind,
        offset: u64,
        len: u64,
        stream: StreamId,
        count_overwrite: bool,
    ) -> Time {
        let locality = self.classify(stream, offset, len);
        match kind {
            IoKind::Read => {
                self.stats.read_ops += 1;
                self.stats.read_bytes += len;
            }
            IoKind::Write => {
                self.stats.write_ops += 1;
                self.stats.write_bytes += len;
                if self.written.mark(offset, len) && count_overwrite {
                    self.stats.overwrite_ops += 1;
                    self.stats.overwrite_bytes += len;
                }
            }
        }
        match locality {
            Locality::Sequential => self.stats.seq_ops += 1,
            Locality::Random => self.stats.rand_ops += 1,
        }
        match &mut self.backend {
            Backend::Ssd(ssd) => ssd.submit(now, kind, offset, len, locality, &mut self.stats),
            Backend::Hdd(hdd) => hdd.submit(now, kind, offset, len, locality),
        }
    }

    /// Convenience: a small metadata touch (index update, commit record)
    /// modeled as a 512-byte sequential write on a dedicated stream.
    pub fn submit_meta(&mut self, now: Time) -> Time {
        self.submit(now, IoKind::Write, u64::MAX / 2, 512, u32::MAX) + MICROSECOND
    }

    fn classify(&mut self, stream: StreamId, offset: u64, len: u64) -> Locality {
        let tail = self.stream_tails.slot(u64::from(stream));
        // `NONE` (no previous access) equals no offset an op can start at.
        let prev_end = std::mem::replace(tail, offset + len);
        if prev_end == offset {
            Locality::Sequential
        } else {
            Locality::Random
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssd() -> Device {
        Device::new_ssd(SsdModel::datacenter(1 << 30))
    }

    #[test]
    fn sequential_stream_is_detected() {
        let mut d = ssd();
        d.submit(0, IoKind::Write, 0, 4096, 1);
        d.submit(0, IoKind::Write, 4096, 4096, 1);
        d.submit(0, IoKind::Write, 8192, 4096, 1);
        assert_eq!(d.stats().seq_ops, 2);
        assert_eq!(d.stats().rand_ops, 1); // the first op has no predecessor
    }

    #[test]
    fn interleaved_streams_remain_sequential() {
        let mut d = ssd();
        // Two pools appending to disjoint regions, interleaved.
        for i in 0..4u64 {
            d.submit(0, IoKind::Write, i * 4096, 4096, 1);
            d.submit(0, IoKind::Write, 1 << 20 | (i * 4096), 4096, 2);
        }
        assert_eq!(d.stats().rand_ops, 2); // one first-op per stream
        assert_eq!(d.stats().seq_ops, 6);
    }

    #[test]
    fn overwrites_are_classified() {
        let mut d = ssd();
        d.submit(0, IoKind::Write, 0, 8192, 1);
        assert_eq!(d.stats().overwrite_ops, 0);
        d.submit(0, IoKind::Write, 4096, 4096, 2);
        assert_eq!(d.stats().overwrite_ops, 1);
        assert_eq!(d.stats().overwrite_bytes, 4096);
        // Reads never count as overwrites.
        d.submit(0, IoKind::Read, 0, 4096, 3);
        assert_eq!(d.stats().overwrite_ops, 1);
    }

    #[test]
    fn random_is_slower_than_sequential_on_ssd() {
        let mut d = ssd();
        // Warm the stream, then measure one sequential and one random op.
        d.submit(0, IoKind::Read, 0, 4096, 1);
        let t0 = d.submit(1_000_000_000, IoKind::Read, 4096, 4096, 1);
        let seq = t0 - 1_000_000_000;
        let t1 = d.submit(2_000_000_000, IoKind::Read, 123 << 20, 4096, 1);
        let rand = t1 - 2_000_000_000;
        assert!(
            rand > seq * 2,
            "random ({rand} ns) should be much slower than sequential ({seq} ns)"
        );
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = DeviceStats {
            read_ops: 1,
            write_bytes: 10,
            erase_ops: 3,
            ..Default::default()
        };
        let b = DeviceStats {
            read_ops: 2,
            write_bytes: 5,
            erase_ops: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.read_ops, 3);
        assert_eq!(a.write_bytes, 15);
        assert_eq!(a.erase_ops, 7);
    }

    #[test]
    fn write_amplification_starts_at_one() {
        let s = DeviceStats::default();
        assert_eq!(s.write_amplification(), 1.0);
    }
}

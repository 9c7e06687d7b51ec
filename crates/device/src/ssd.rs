//! SSD model: latency profile + a page-mapped flash translation layer.
//!
//! The FTL is what makes the paper's lifespan claims reproducible instead of
//! asserted: logical overwrites invalidate previously-programmed pages;
//! when free blocks run out, greedy garbage collection migrates the valid
//! remainder of the victim block and erases it. Random small overwrites
//! leave blocks half-valid and force migration (write amplification);
//! large sequential log writes fill blocks that later invalidate wholesale
//! and erase cheaply. Erase counts per workload are the direct input to the
//! "SSDs endure 2.5×–13× longer" comparison (§5.3.4).

use crate::table::{Table, NONE};
use crate::{DeviceStats, IoKind, Locality, DENSE_PAGES};
use std::ops::{Range, RangeInclusive};
use tsue_sim::{MultiResource, Time, MICROSECOND, MILLISECOND};

/// Flash page size — the FTL mapping granularity.
pub const PAGE_SIZE: u64 = 4096;
/// Pages per flash erase block.
pub const PAGES_PER_BLOCK: u64 = 64;

/// Latency/geometry parameters for an SSD.
#[derive(Clone, Copy, Debug)]
pub struct SsdSpec {
    /// Sequential read bandwidth, bytes/second.
    pub seq_read_bw: u64,
    /// Sequential write bandwidth, bytes/second.
    pub seq_write_bw: u64,
    /// Fixed cost of a sequential-stream op (submission + firmware), ns.
    pub seq_base: Time,
    /// Fixed cost of a random read, ns.
    pub rand_read_base: Time,
    /// Fixed cost of a random write, ns.
    pub rand_write_base: Time,
    /// Independent internal channels (parallel small ops).
    pub channels: usize,
    /// Block erase time, ns.
    pub erase_time: Time,
    /// Cost to migrate one valid page during GC (copyback), ns.
    pub migrate_page_time: Time,
    /// Physical over-provisioning fraction on top of logical capacity.
    pub overprovision: f64,
}

impl Default for SsdSpec {
    fn default() -> Self {
        // Datacenter SATA-class SSD of the Chameleon era: large gap between
        // sequential and small-random access, 8 internal channels.
        SsdSpec {
            seq_read_bw: 520_000_000,
            seq_write_bw: 420_000_000,
            seq_base: 18 * MICROSECOND,
            rand_read_base: 110 * MICROSECOND,
            rand_write_base: 90 * MICROSECOND,
            channels: 8,
            erase_time: 2 * MILLISECOND,
            migrate_page_time: 40 * MICROSECOND,
            overprovision: 0.12,
        }
    }
}

impl SsdSpec {
    /// Flash blocks behind `logical_capacity` bytes: the logical pages plus
    /// over-provisioning, in whole blocks, at least four.
    pub(crate) fn flash_blocks(&self, logical_capacity: u64) -> u64 {
        let logical_pages = logical_capacity.div_ceil(PAGE_SIZE);
        let phys_pages = ((logical_pages as f64) * (1.0 + self.overprovision)).ceil() as u64;
        phys_pages.div_ceil(PAGES_PER_BLOCK).max(4)
    }

    /// Channel occupancy of one foreground op.
    pub(crate) fn service_time(&self, kind: IoKind, len: u64, locality: Locality) -> Time {
        let (base, bw) = match (kind, locality) {
            (IoKind::Read, Locality::Sequential) => (self.seq_base, self.seq_read_bw),
            (IoKind::Write, Locality::Sequential) => (self.seq_base, self.seq_write_bw),
            (IoKind::Read, Locality::Random) => (self.rand_read_base, self.seq_read_bw),
            (IoKind::Write, Locality::Random) => (self.rand_write_base, self.seq_write_bw),
        };
        base + transfer_time(len, bw)
    }
}

/// The SSD: spec + channel queues + FTL state.
#[derive(Debug)]
pub struct SsdModel {
    spec: SsdSpec,
    channels: MultiResource,
    ftl: Ftl,
}

impl SsdModel {
    /// Creates an SSD with the default datacenter spec and the given
    /// logical capacity in bytes.
    pub fn datacenter(logical_capacity: u64) -> Self {
        Self::new(SsdSpec::default(), logical_capacity)
    }

    /// Creates an SSD from an explicit spec.
    pub fn new(spec: SsdSpec, logical_capacity: u64) -> Self {
        SsdModel {
            channels: MultiResource::new(spec.channels),
            ftl: Ftl::new(spec.flash_blocks(logical_capacity)),
            spec,
        }
    }

    /// Spec accessor.
    pub fn spec(&self) -> &SsdSpec {
        &self.spec
    }

    /// Total busy time summed over the internal channels, virtual ns.
    pub fn busy_ticks(&self) -> Time {
        self.channels.busy_ticks()
    }

    /// Earliest time any channel is free — `next_free - now` is the
    /// device's queue pressure (0 when a channel is idle).
    pub fn next_free(&self) -> Time {
        self.channels.next_free()
    }

    /// Submits one op; returns completion time and updates wear stats.
    pub fn submit(
        &mut self,
        now: Time,
        kind: IoKind,
        offset: u64,
        len: u64,
        locality: Locality,
        stats: &mut DeviceStats,
    ) -> Time {
        let service = self.spec.service_time(kind, len, locality);
        if kind == IoKind::Write {
            // Program the touched pages through the FTL; GC work is issued
            // as internal jobs on the channel pool so it delays foreground
            // I/O by queueing rather than by inflating this op's service.
            let spec = &self.spec;
            let channels = &mut self.channels;
            self.ftl.program_range(pages(offset, len), stats, |gc| {
                let gc_service = gc.erases as Time * spec.erase_time
                    + gc.migrated as Time * spec.migrate_page_time;
                channels.submit(now, gc_service);
            });
        }
        self.channels.submit(now, service)
    }

    /// Programs the FTL pages of `[offset, offset+len)` into `sink` stats
    /// without going through the channel queues (setup-time prefill).
    pub fn prefill(&mut self, offset: u64, len: u64, sink: &mut DeviceStats) {
        self.ftl.program_range(pages(offset, len), sink, |_| ());
    }

    /// Fraction of physical pages currently holding live data.
    pub fn ftl_occupancy(&self) -> f64 {
        self.ftl.occupancy()
    }
}

/// The logical pages `[offset, offset+len)` touches (at least one).
fn pages(offset: u64, len: u64) -> RangeInclusive<u64> {
    offset / PAGE_SIZE..=(offset + len.max(1) - 1) / PAGE_SIZE
}

/// Drops `old`, the physical copy a rewritten page leaves behind, or
/// counts a first write (`old == NONE`) as one more live page.
fn invalidate(old: u64, live_pages: &mut u64, rmap: &mut Table, valid: &mut [u16]) {
    if old == NONE {
        *live_pages += 1;
    } else {
        // INVARIANT: `old` was programmed, which materialized its chunk.
        *rmap
            .get_mut(old)
            .expect("a programmed page has a reverse entry") = NONE;
        valid[(old / PAGES_PER_BLOCK) as usize] -= 1;
    }
}

/// Time to move `len` bytes at `bw` bytes/sec, in ns.
fn transfer_time(len: u64, bw: u64) -> Time {
    ((len as u128 * 1_000_000_000) / bw as u128) as Time
}

/// GC work accumulated while making room for one program.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GcWork {
    pub(crate) erases: u64,
    pub(crate) migrated: u64,
}

/// Page-mapped FTL with greedy (min-valid) garbage collection.
///
/// Both directions of the mapping are [`Table`]s, indexed, not hashed:
/// OSDs bump-allocate device space from 0, and flash blocks are first
/// programmed in ascending order, so each side's chunks follow the pages
/// actually touched and nothing grows by copying.
#[derive(Debug)]
struct Ftl {
    /// logical page -> physical page, `NONE` while unmapped.
    map: Table,
    /// physical page -> logical page (for migration), `NONE` while the
    /// page holds no live data. A flash block lies inside one chunk.
    rmap: Table,
    /// Logical pages currently mapped.
    live_pages: u64,
    /// Per-block count of valid pages.
    valid: Vec<u16>,
    /// Never-programmed blocks, handed out in ascending order.
    fresh_blocks: Range<u64>,
    /// Block currently accepting programs.
    active_block: u64,
    /// Next free page inside the active block.
    active_cursor: u64,
    total_blocks: u64,
}

impl Ftl {
    fn new(blocks: u64) -> Self {
        Ftl {
            map: Table::new(DENSE_PAGES, NONE),
            rmap: Table::new(blocks * PAGES_PER_BLOCK, NONE),
            live_pages: 0,
            valid: vec![0; blocks as usize],
            fresh_blocks: 1..blocks,
            active_block: 0,
            active_cursor: 0,
            total_blocks: blocks,
        }
    }

    /// Programs the logical pages `pages` in ascending order, one run at
    /// a time: as many pages as fit in the active flash block and in one
    /// chunk of the logical map. Every page keeps the per-page order —
    /// invalidate its old copy, make room, place it — but only a run that
    /// starts on a full block can need room, so GC runs only there;
    /// `on_gc` receives each such pass that erased.
    ///
    /// # Panics
    /// Panics if the logical footprint exceeds physical capacity (the model
    /// equivalent of a full disk) — size the device to the experiment.
    fn program_range(
        &mut self,
        pages: RangeInclusive<u64>,
        stats: &mut DeviceStats,
        mut on_gc: impl FnMut(GcWork),
    ) {
        let (mut lpn, last) = pages.into_inner();
        while lpn <= last {
            if self.active_cursor >= PAGES_PER_BLOCK {
                // The page is invalidated before GC picks its victim, so
                // GC never migrates it.
                let old = *self.map.slot(lpn);
                invalidate(old, &mut self.live_pages, &mut self.rmap, &mut self.valid);
                let gc = self.ensure_space(stats);
                if gc.erases > 0 {
                    on_gc(gc);
                }
                self.place(lpn, stats);
                lpn += 1;
                continue;
            }
            let first = self.active_block * PAGES_PER_BLOCK + self.active_cursor;
            let run = self.map.run(
                lpn,
                (last - lpn + 1).min(PAGES_PER_BLOCK - self.active_cursor),
            );
            let n = run.len() as u64;
            for (ppn, slot) in (first..).zip(run) {
                let old = std::mem::replace(slot, ppn);
                invalidate(old, &mut self.live_pages, &mut self.rmap, &mut self.valid);
            }
            // The run's physical pages are unprogrammed, so no old copy
            // invalidated above lies among them.
            let back = self.rmap.run(first, n);
            debug_assert_eq!(back.len() as u64, n, "a flash block lies in one chunk");
            for (slot, l) in back.iter_mut().zip(lpn..) {
                *slot = l;
            }
            self.active_cursor += n;
            // cast: a run fits in one flash block, so `n <= 64`.
            self.valid[self.active_block as usize] += n as u16;
            stats.pages_programmed += n;
            lpn += n;
        }
    }

    /// Maps `lpn` to the next free page of the active block.
    fn place(&mut self, lpn: u64, stats: &mut DeviceStats) {
        let ppn = self.active_block * PAGES_PER_BLOCK + self.active_cursor;
        self.active_cursor += 1;
        *self.map.slot(lpn) = ppn;
        *self.rmap.slot(ppn) = lpn;
        self.valid[self.active_block as usize] += 1;
        stats.pages_programmed += 1;
    }

    /// Makes sure the active block has a free page, running GC passes as
    /// needed.
    fn ensure_space(&mut self, stats: &mut DeviceStats) -> GcWork {
        let mut work = GcWork::default();
        while self.active_cursor >= PAGES_PER_BLOCK {
            if let Some(blk) = self.fresh_blocks.next() {
                self.active_block = blk;
                self.active_cursor = 0;
                break;
            }
            // Greedy victim: the block (other than active) with fewest
            // valid pages.
            let victim = (0..self.total_blocks)
                .filter(|&b| b != self.active_block)
                .min_by_key(|&b| self.valid[b as usize])
                // INVARIANT: `SsdModel::new` builds at least four blocks,
                // so excluding the active one leaves candidates.
                .expect("FTL has at least two blocks");
            // INVARIANT: some block other than the active one has a dead
            // page unless the experiment wrote more distinct pages than
            // the device holds — the documented `# Panics` of `program`.
            assert!(
                (self.valid[victim as usize] as u64) < PAGES_PER_BLOCK,
                "FTL capacity exhausted: logical footprint exceeds device size"
            );
            // Erase the victim and re-program its survivors, in page
            // order, at the front of it: one pass over its reverse run.
            let first = victim * PAGES_PER_BLOCK;
            let back = self.rmap.run(first, PAGES_PER_BLOCK);
            let mut moved = 0;
            for at in 0..back.len() {
                let lpn = std::mem::replace(&mut back[at], NONE);
                if lpn != NONE {
                    back[moved] = lpn;
                    *self.map.slot(lpn) = first + moved as u64;
                    moved += 1;
                }
            }
            debug_assert_eq!(self.valid[victim as usize] as usize, moved);
            // cast: `moved <= 64`.
            let moved = moved as u64;
            self.valid[victim as usize] = moved as u16;
            stats.erase_ops += 1;
            stats.pages_programmed += moved;
            stats.pages_migrated += moved;
            work.erases += 1;
            work.migrated += moved;
            self.active_block = victim;
            self.active_cursor = moved;
            // If the victim was nearly full, the loop condition sends us
            // around again for another victim.
        }
        work
    }

    fn occupancy(&self) -> f64 {
        self.live_pages as f64 / (self.total_blocks * PAGES_PER_BLOCK) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program_range(ssd: &mut SsdModel, stats: &mut DeviceStats, offset: u64, len: u64) {
        ssd.submit(0, IoKind::Write, offset, len, Locality::Sequential, stats);
    }

    #[test]
    fn fresh_writes_do_not_erase() {
        let mut stats = DeviceStats::default();
        let mut ssd = SsdModel::datacenter(16 << 20); // 16 MiB
        program_range(&mut ssd, &mut stats, 0, 1 << 20);
        assert_eq!(stats.erase_ops, 0);
        assert_eq!(stats.pages_programmed, 256);
        assert_eq!(stats.pages_migrated, 0);
    }

    #[test]
    fn sequential_rewrite_erases_with_low_amplification() {
        let mut stats = DeviceStats::default();
        let mut ssd = SsdModel::datacenter(4 << 20); // 4 MiB logical

        // Fill the device twice sequentially: second pass invalidates whole
        // blocks, so GC migrates (almost) nothing.
        for pass in 0..4 {
            let _ = pass;
            program_range(&mut ssd, &mut stats, 0, 4 << 20);
        }
        assert!(stats.erase_ops > 0, "rewrites must trigger GC");
        let wa = stats.write_amplification();
        assert!(
            wa < 1.25,
            "sequential rewrite WA should be near 1, got {wa}"
        );
    }

    #[test]
    fn random_overwrites_amplify_more_than_sequential() {
        let cap: u64 = 4 << 20;
        // Sequential full rewrites.
        let mut seq_stats = DeviceStats::default();
        let mut seq = SsdModel::datacenter(cap);
        for _ in 0..6 {
            program_range(&mut seq, &mut seq_stats, 0, cap);
        }
        // Same total volume as scattered 4K overwrites (deterministic LCG).
        let mut rnd_stats = DeviceStats::default();
        let mut rnd = SsdModel::datacenter(cap);
        program_range(&mut rnd, &mut rnd_stats, 0, cap); // initial fill
        let pages = cap / PAGE_SIZE;
        let mut x: u64 = 12345;
        for _ in 0..(pages * 5) {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lpn = x % pages;
            rnd.submit(
                0,
                IoKind::Write,
                lpn * PAGE_SIZE,
                PAGE_SIZE,
                Locality::Random,
                &mut rnd_stats,
            );
        }
        assert!(
            rnd_stats.write_amplification() > seq_stats.write_amplification(),
            "random WA {} should exceed sequential WA {}",
            rnd_stats.write_amplification(),
            seq_stats.write_amplification()
        );
    }

    #[test]
    fn mapping_survives_gc() {
        // After heavy churn, occupancy equals the distinct logical pages.
        let mut stats = DeviceStats::default();
        let cap: u64 = 2 << 20;
        let mut ssd = SsdModel::datacenter(cap);
        let pages = cap / PAGE_SIZE; // 512
        for round in 0..5u64 {
            for p in 0..pages {
                let _ = round;
                ssd.submit(
                    0,
                    IoKind::Write,
                    p * PAGE_SIZE,
                    PAGE_SIZE,
                    Locality::Random,
                    &mut stats,
                );
            }
        }
        assert!(stats.erase_ops > 0, "churn must have run GC");
        let live = ssd.ftl.live_pages;
        assert_eq!(live, pages);
        // rmap is the exact inverse of map: every logical page maps to a
        // physical page that points back, and nothing else is live.
        for lpn in 0..pages {
            let ppn = ssd.ftl.map.get(lpn);
            assert_ne!(ppn, NONE, "lpn {lpn} lost its mapping");
            assert_eq!(ssd.ftl.rmap.get(ppn), lpn);
        }
        let physical = ssd.ftl.total_blocks * PAGES_PER_BLOCK;
        let mapped_back = (0..physical)
            .filter(|&ppn| ssd.ftl.rmap.get(ppn) != NONE)
            .count();
        assert_eq!(mapped_back as u64, live);
        // valid counters agree with the mapping.
        let total_valid: u64 = ssd.ftl.valid.iter().map(|&v| v as u64).sum();
        assert_eq!(total_valid, live);
    }

    #[test]
    fn reverse_map_follows_programmed_pages_not_capacity() {
        // A fresh device programs physical pages from 0 up, so N pages
        // touch exactly ceil(N / 512) reverse-map chunks, however large
        // the device.
        for n in [1, 63, 64, 511, 512, 513, 1_000, 4_100] {
            let mut stats = DeviceStats::default();
            let mut ssd = SsdModel::datacenter(1 << 30);
            program_range(&mut ssd, &mut stats, 0, n * PAGE_SIZE);
            assert_eq!(stats.erase_ops, 0);
            assert_eq!(
                ssd.ftl.rmap.chunks_allocated() as u64,
                n.div_ceil(512),
                "{n} pages programmed"
            );
        }
    }

    #[test]
    #[should_panic(expected = "FTL capacity exhausted")]
    fn overfull_device_panics() {
        let mut stats = DeviceStats::default();
        // 1 MiB logical => ~1.12 MiB physical; write 3 MiB of distinct pages.
        let mut ssd = SsdModel::datacenter(1 << 20);
        program_range(&mut ssd, &mut stats, 0, 3 << 20);
    }

    #[test]
    fn large_ops_amortize_random_base() {
        let spec = SsdSpec::default();
        let mut stats = DeviceStats::default();
        let mut ssd = SsdModel::new(spec, 64 << 20);
        let t_small = ssd.submit(0, IoKind::Read, 1 << 20, 4096, Locality::Random, &mut stats);
        let big_start = 1_000_000_000;
        let t_big = ssd.submit(
            big_start,
            IoKind::Read,
            8 << 20,
            1 << 20,
            Locality::Random,
            &mut stats,
        ) - big_start;
        let per_byte_small = t_small as f64 / 4096.0;
        let per_byte_big = t_big as f64 / (1 << 20) as f64;
        assert!(per_byte_big < per_byte_small / 5.0);
    }
}

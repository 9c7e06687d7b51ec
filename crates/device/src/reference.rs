//! Test-only reference device: the map-based bookkeeping the dense tables
//! replaced (FTL map in both directions, written-page set, per-stream
//! tails), kept so the differential test below can hold the
//! table-driven [`Device`] to the same completion time for every op, the
//! same [`DeviceStats`] and the same FTL occupancy.

use crate::ssd::{GcWork, SsdSpec, PAGES_PER_BLOCK, PAGE_SIZE};
use crate::{Device, DeviceStats, IoKind, Locality, SsdModel, StreamId};
use std::collections::{BTreeMap, BTreeSet};
use tsue_sim::{MultiResource, Time, MICROSECOND};

struct RefFtl {
    map: BTreeMap<u64, u64>,
    rmap: BTreeMap<u64, u64>,
    valid: Vec<u16>,
    free_blocks: Vec<u64>,
    active_block: u64,
    active_cursor: u64,
    total_blocks: u64,
}

impl RefFtl {
    fn new(blocks: u64) -> Self {
        RefFtl {
            map: BTreeMap::new(),
            rmap: BTreeMap::new(),
            valid: vec![0; blocks as usize],
            free_blocks: (1..blocks).rev().collect(),
            active_block: 0,
            active_cursor: 0,
            total_blocks: blocks,
        }
    }

    fn program(&mut self, lpn: u64, stats: &mut DeviceStats) -> GcWork {
        if let Some(old) = self.map.remove(&lpn) {
            self.rmap.remove(&old);
            self.valid[(old / PAGES_PER_BLOCK) as usize] -= 1;
        }
        let gc = self.ensure_space(stats);
        let ppn = self.active_block * PAGES_PER_BLOCK + self.active_cursor;
        self.active_cursor += 1;
        self.map.insert(lpn, ppn);
        self.rmap.insert(ppn, lpn);
        self.valid[(ppn / PAGES_PER_BLOCK) as usize] += 1;
        stats.pages_programmed += 1;
        gc
    }

    fn ensure_space(&mut self, stats: &mut DeviceStats) -> GcWork {
        let mut work = GcWork::default();
        while self.active_cursor >= PAGES_PER_BLOCK {
            if let Some(blk) = self.free_blocks.pop() {
                self.active_block = blk;
                self.active_cursor = 0;
                break;
            }
            let victim = (0..self.total_blocks)
                .filter(|&b| b != self.active_block)
                .min_by_key(|&b| self.valid[b as usize])
                // INVARIANT: as in `Ftl::ensure_space` — at least four blocks.
                .expect("FTL has at least two blocks");
            assert!((self.valid[victim as usize] as u64) < PAGES_PER_BLOCK);
            let mut moved = Vec::new();
            for page in 0..PAGES_PER_BLOCK {
                let ppn = victim * PAGES_PER_BLOCK + page;
                if let Some(lpn) = self.rmap.remove(&ppn) {
                    self.map.remove(&lpn);
                    self.valid[victim as usize] -= 1;
                    moved.push(lpn);
                }
            }
            stats.erase_ops += 1;
            work.erases += 1;
            self.active_block = victim;
            self.active_cursor = 0;
            for lpn in moved {
                let ppn = self.active_block * PAGES_PER_BLOCK + self.active_cursor;
                self.active_cursor += 1;
                self.map.insert(lpn, ppn);
                self.rmap.insert(ppn, lpn);
                self.valid[self.active_block as usize] += 1;
                stats.pages_programmed += 1;
                stats.pages_migrated += 1;
                work.migrated += 1;
            }
        }
        work
    }
}

/// The SSD-backed [`Device`] as it was before the dense tables.
struct RefDevice {
    spec: SsdSpec,
    channels: MultiResource,
    ftl: RefFtl,
    stats: DeviceStats,
    stream_tails: BTreeMap<StreamId, u64>,
    written: BTreeSet<u64>,
}

impl RefDevice {
    fn new(logical_capacity: u64) -> Self {
        let spec = SsdSpec::default();
        RefDevice {
            channels: MultiResource::new(spec.channels),
            ftl: RefFtl::new(spec.flash_blocks(logical_capacity)),
            spec,
            stats: DeviceStats::default(),
            stream_tails: BTreeMap::new(),
            written: BTreeSet::new(),
        }
    }

    fn pages(offset: u64, len: u64) -> std::ops::RangeInclusive<u64> {
        offset / PAGE_SIZE..=(offset + len.max(1) - 1) / PAGE_SIZE
    }

    fn mark(&mut self, offset: u64, len: u64) -> bool {
        let mut any_old = false;
        for p in Self::pages(offset, len) {
            any_old |= !self.written.insert(p);
        }
        any_old
    }

    fn prefill(&mut self, offset: u64, len: u64) {
        self.mark(offset, len);
        let mut sink = DeviceStats::default();
        for lpn in Self::pages(offset, len) {
            let _ = self.ftl.program(lpn, &mut sink);
        }
    }

    fn submit(
        &mut self,
        now: Time,
        kind: IoKind,
        offset: u64,
        len: u64,
        stream: StreamId,
        count_overwrite: bool,
    ) -> Time {
        let locality = match self.stream_tails.insert(stream, offset + len) {
            Some(end) if end == offset => Locality::Sequential,
            _ => Locality::Random,
        };
        match kind {
            IoKind::Read => {
                self.stats.read_ops += 1;
                self.stats.read_bytes += len;
            }
            IoKind::Write => {
                self.stats.write_ops += 1;
                self.stats.write_bytes += len;
                if self.mark(offset, len) && count_overwrite {
                    self.stats.overwrite_ops += 1;
                    self.stats.overwrite_bytes += len;
                }
            }
        }
        match locality {
            Locality::Sequential => self.stats.seq_ops += 1,
            Locality::Random => self.stats.rand_ops += 1,
        }
        let service = self.spec.service_time(kind, len, locality);
        if kind == IoKind::Write {
            for lpn in Self::pages(offset, len) {
                let gc = self.ftl.program(lpn, &mut self.stats);
                if gc.erases > 0 {
                    let gc_service = gc.erases as Time * self.spec.erase_time
                        + gc.migrated as Time * self.spec.migrate_page_time;
                    self.channels.submit(now, gc_service);
                }
            }
        }
        self.channels.submit(now, service)
    }

    fn submit_meta(&mut self, now: Time) -> Time {
        self.submit(now, IoKind::Write, u64::MAX / 2, 512, u32::MAX, true) + MICROSECOND
    }

    fn occupancy(&self) -> f64 {
        self.ftl.map.len() as f64 / (self.ftl.total_blocks * PAGES_PER_BLOCK) as f64
    }
}

fn occupancy(dev: &Device) -> f64 {
    match &dev.backend {
        crate::Backend::Ssd(ssd) => ssd.ftl_occupancy(),
        // INVARIANT: `run_differential` builds its device with `new_ssd`.
        crate::Backend::Hdd(_) => unreachable!("the differential test drives an SSD"),
    }
}

/// Deterministic op-mix driver: the high bits of a 64-bit LCG.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

/// Drives both devices with one seeded op sequence over a `capacity`-byte
/// SSD and compares them op by op. `span` is the address range the ops
/// fall in: at or just under `capacity` the device runs near full, so GC
/// picks nearly-full victims and migrates heavily. With `long_max > 0`,
/// one op in eight is up to `long_max` bytes long. Returns the reference
/// stats and the erases charged during writes longer than a flash block.
fn run_differential(
    seed: u64,
    capacity: u64,
    span: u64,
    ops: u32,
    long_max: u64,
) -> (DeviceStats, u64) {
    let mut rng = Rng(seed);
    let mut new = Device::new_ssd(SsdModel::datacenter(capacity));
    let mut old = RefDevice::new(capacity);
    let mut now: Time = 0;
    // A log stream's append cursor, so part of the mix is sequential.
    let mut log_cursor = 0u64;
    let mut long_erases = 0;
    for op in 0..ops {
        now += rng.below(50) * MICROSECOND;
        // Unaligned offsets and lengths that straddle pages, words of the
        // written bitmap, table chunks and flash blocks; a long op crosses
        // many blocks, and a table chunk (512 pages) past 2 MiB.
        let len = if long_max > 0 && rng.below(8) == 0 {
            1 + rng.below(long_max)
        } else {
            1 + rng.below(96 << 10)
        };
        let erases_before = new.stats().erase_ops;
        let offset = rng.below(span - len);
        // cast: `below(6)` is at most 5.
        let stream = rng.below(6) as StreamId;
        let (t_new, t_old) = match rng.below(16) {
            0 => {
                new.prefill(offset, len);
                old.prefill(offset, len);
                (0, 0)
            }
            1 => (new.submit_meta(now), old.submit_meta(now)),
            2..=4 => (
                new.submit(now, IoKind::Read, offset, len, stream),
                old.submit(now, IoKind::Read, offset, len, stream, true),
            ),
            5..=7 => {
                let at = log_cursor;
                log_cursor = (log_cursor + len) % (span / 4);
                (
                    new.submit_log(now, IoKind::Write, at, len, 7),
                    old.submit(now, IoKind::Write, at, len, 7, false),
                )
            }
            _ => (
                new.submit(now, IoKind::Write, offset, len, stream),
                old.submit(now, IoKind::Write, offset, len, stream, true),
            ),
        };
        assert_eq!(t_new, t_old, "seed {seed} op {op}: completion time");
        if len > PAGES_PER_BLOCK * PAGE_SIZE {
            long_erases += new.stats().erase_ops - erases_before;
        }
        if op % 64 == 0 {
            assert_eq!(new.stats(), &old.stats, "seed {seed} op {op}: stats");
            assert_eq!(occupancy(&new), old.occupancy(), "seed {seed} op {op}");
        }
    }
    assert_eq!(new.stats(), &old.stats, "seed {seed}: final stats");
    assert_eq!(occupancy(&new), old.occupancy(), "seed {seed}: occupancy");
    assert_eq!(new.busy_ticks(), old.channels.busy_ticks());
    (old.stats, long_erases)
}

#[test]
fn tables_match_the_hash_reference_through_gc() {
    let mut erases = 0;
    let mut migrated = 0;
    for seed in 0..6 {
        // 4 MiB logical => 18 flash blocks.
        let (stats, _) = run_differential(seed, 4 << 20, 4 << 20, 3_000, 0);
        erases += stats.erase_ops;
        migrated += stats.pages_migrated;
    }
    assert!(erases > 300, "GC barely ran: {erases} erases");
    assert!(migrated > 3_000, "victims were not near full: {migrated}");
}

#[test]
fn tables_match_the_hash_reference_below_gc_onset() {
    // Fewer page programs than the device has pages: no erase, as in the
    // benchmark workloads — the bookkeeping must agree there too.
    let (stats, _) = run_differential(99, 64 << 20, 4 << 20, 800, 0);
    assert_eq!(stats.erase_ops, 0);
    assert!(stats.overwrite_ops > 0 && stats.seq_ops > 0);
}

#[test]
fn long_runs_match_the_reference_where_gc_starts_them() {
    // Writes and prefills of up to 3 MiB (768 pages) on the near-full
    // 4 MiB device: they start mid-block, cross flash blocks and the
    // table chunk at 2 MiB, and run out of room where a run starts.
    let mut long_erases = 0;
    for seed in 10..14 {
        let (stats, long) = run_differential(seed, 4 << 20, 4 << 20, 1_500, 3 << 20);
        assert!(stats.pages_migrated > 0);
        long_erases += long;
    }
    assert!(
        long_erases > 1_000,
        "long writes barely hit GC: {long_erases}"
    );
}

#[test]
fn long_runs_match_the_reference_across_chunks_below_gc_onset() {
    // Runs of up to 6 MiB over 16 MiB of a 64 MiB device cross several
    // table chunks with no GC in the way.
    let (stats, long) = run_differential(7, 64 << 20, 16 << 20, 300, 6 << 20);
    assert_eq!((stats.erase_ops, long), (0, 0));
    assert!(stats.write_bytes > 32 << 20, "too few long writes");
}

//! The log unit: a fixed-size log segment with the paper's **two-level
//! index** (§3.3.1).
//!
//! Level one hashes the owning block; level two is an offset-sorted,
//! coalescing interval map ([`RangeMap`]) per block, fronted by a bitmap
//! filter for cheap hit checks. Under spatio-temporal locality this index
//! is what turns "many small random log records" into "few large merged
//! ranges" before any recycle I/O is issued.
//!
//! For the Fig. 7 ablation, a unit can run with locality folding disabled
//! (`locality = false`): records are then kept as a raw append-ordered
//! list, and recycle processes every record individually — the Baseline /
//! O1 / O2 comparison points.

use std::collections::BTreeMap;
use tsue_ecfs::rangemap::{Discipline, RangeMap};
use tsue_ecfs::Chunk;
use tsue_sim::Time;

/// Unique identifier of a log unit within one scheme instance.
pub type UnitId = u64;

/// Lifecycle of a unit (paper Fig. 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnitState {
    /// Accepting appends (at most one Empty unit is active per pool).
    Empty,
    /// Sealed, waiting for a recycle thread.
    Recyclable,
    /// Being recycled.
    Recycling,
    /// Recycled; extents retained until reuse. A DataLog unit keeps its
    /// bytes too, as the read cache; Delta and Parity units released theirs
    /// when recycle consumed them ([`LogUnit::release_bytes`]).
    Recycled,
}

/// Second-level index entry for one block.
#[derive(Debug)]
pub struct BlockIndex {
    /// Offset-sorted coalescing ranges (locality mode).
    pub ranges: RangeMap,
    /// Raw append-ordered records (no-locality ablation mode).
    pub raw: Vec<(u64, Chunk)>,
    /// Quick-hit filter: bit `i` covers offsets hashed to slot `i`.
    pub bitmap: u128,
}

impl BlockIndex {
    fn new() -> Self {
        BlockIndex {
            ranges: RangeMap::new(),
            raw: Vec::new(),
            bitmap: 0,
        }
    }

    fn bitmap_mask(off: u64, len: u64) -> u128 {
        // 8 KiB slots folded into 128 bits.
        let first = (off >> 13) % 128;
        let last = ((off + len.max(1) - 1) >> 13) % 128;
        let mut m = 0u128;
        if last >= first {
            for b in first..=last {
                m |= 1 << b;
            }
        } else {
            // Wrapped: set both tails.
            for b in first..128 {
                m |= 1 << b;
            }
            for b in 0..=last {
                m |= 1 << b;
            }
        }
        m
    }

    /// Cheap may-contain check before walking the interval map.
    pub fn may_contain(&self, off: u64, len: u64) -> bool {
        self.bitmap & Self::bitmap_mask(off, len) != 0
    }
}

/// A fixed-size log segment with the two-level index.
#[derive(Debug)]
pub struct LogUnit<K> {
    /// Unit identifier (unique per scheme instance).
    pub id: UnitId,
    /// Lifecycle state.
    pub state: UnitState,
    /// Level-one index: block → level-two entry. Ordered so that every
    /// whole-index walk (recycle job collection, work accounting) visits
    /// blocks in the same order on every run.
    pub index: BTreeMap<K, BlockIndex>,
    /// Appended payload bytes (including per-record headers).
    pub bytes: u64,
    /// Number of raw records appended (pre-merge).
    pub raw_records: u64,
    /// Virtual time of the first append since the unit became Empty.
    pub first_append: Option<Time>,
    /// When recycling started.
    pub recycle_started: Option<Time>,
    /// The peers that hold a copy of every record of this unit, each as
    /// `(osd, failures)` at the forward ([`tsue_ecfs::Mds::failures`]).
    /// DataLog units only; a change of peers seals the unit, so one list
    /// serves all its records.
    pub copies: Vec<(usize, u32)>,
}

/// Per-record header bytes accounted in the unit fill level.
pub const RECORD_HEADER: u64 = 24;

impl<K: Ord + Copy> LogUnit<K> {
    /// Creates an Empty unit.
    pub fn new(id: UnitId) -> Self {
        LogUnit {
            id,
            state: UnitState::Empty,
            index: BTreeMap::new(),
            bytes: 0,
            raw_records: 0,
            first_append: None,
            recycle_started: None,
            copies: Vec::new(),
        }
    }

    /// Appends one record under `disc`; with `locality` the record folds
    /// into the interval map (merging repeats and coalescing neighbours),
    /// otherwise it is kept raw.
    ///
    /// # Panics
    /// Panics if the unit is not Empty (active).
    pub fn append(
        &mut self,
        key: K,
        off: u64,
        chunk: Chunk,
        disc: Discipline,
        locality: bool,
        now: Time,
    ) {
        assert_eq!(self.state, UnitState::Empty, "append to inactive unit");
        let len = chunk.len;
        let entry = self.index.entry(key).or_insert_with(BlockIndex::new);
        entry.bitmap |= BlockIndex::bitmap_mask(off, len);
        if locality {
            entry.ranges.insert_with(off, chunk, disc);
        } else {
            entry.raw.push((off, chunk));
        }
        self.bytes += len + RECORD_HEADER;
        self.raw_records += 1;
        self.first_append.get_or_insert(now);
    }

    /// Units of recycle work this unit holds: merged ranges in locality
    /// mode, raw records otherwise.
    pub fn work_items(&self) -> u64 {
        self.index
            .values()
            .map(|e| {
                if e.raw.is_empty() {
                    e.ranges.len() as u64
                } else {
                    e.raw.len() as u64
                }
            })
            .sum()
    }

    /// Bytes of recycle I/O this unit will issue (post-merge).
    pub fn work_bytes(&self) -> u64 {
        self.index
            .values()
            .map(|e| {
                if e.raw.is_empty() {
                    e.ranges.covered_bytes()
                } else {
                    e.raw.iter().map(|(_, c)| c.len).sum()
                }
            })
            .sum()
    }

    /// Memory pinned by this unit (payload + index overhead).
    pub fn memory_bytes(&self) -> u64 {
        let entries: u64 = self
            .index
            .values()
            .map(|e| (e.ranges.len() + e.raw.len()) as u64)
            .sum();
        self.work_bytes() + entries * 48 + self.index.len() as u64 * 64
    }

    /// Overlays this unit's content for `key` onto `buf`; returns true if
    /// the unit alone fully covers the range.
    pub fn overlay(&self, key: &K, off: u64, len: u64, mut buf: Option<&mut [u8]>) -> bool {
        let Some(entry) = self.index.get(key) else {
            return false;
        };
        if !entry.may_contain(off, len) {
            return false;
        }
        if entry.raw.is_empty() {
            entry.ranges.overlay(off, len, buf)
        } else {
            // Raw mode: replay records in append order (newest wins).
            for (roff, chunk) in &entry.raw {
                let i_start = (*roff).max(off);
                let i_end = (roff + chunk.len).min(off + len);
                if i_end <= i_start {
                    continue;
                }
                if let (Some(b), Some(bytes)) = (buf.as_deref_mut(), chunk.bytes.as_ref()) {
                    let dst = &mut b[(i_start - off) as usize..(i_end - off) as usize];
                    bytes.read_into((i_start - roff) as usize, dst);
                }
            }
            self.covered_until(key, off, off + len) >= off + len
        }
    }

    /// Every record of `key` as `(offset, chunk)`: its merged ranges, each
    /// one chunk, or its raw records in append order (newest last).
    pub fn records(&self, key: &K) -> Vec<(u64, Chunk)> {
        match self.index.get(key) {
            None => Vec::new(),
            Some(e) if e.raw.is_empty() => e.ranges.iter().map(|r| (r.off(), r.chunk())).collect(),
            Some(e) => e.raw.clone(),
        }
    }

    /// End of this unit's contiguous coverage of `key` starting at `pos` —
    /// `pos` itself when it is not covered — looking no further than
    /// `limit`. Extents only: no bytes move.
    pub fn covered_until(&self, key: &K, pos: u64, limit: u64) -> u64 {
        let Some(entry) = self.index.get(key) else {
            return pos;
        };
        if !entry.may_contain(pos, limit.saturating_sub(pos)) {
            return pos;
        }
        if entry.raw.is_empty() {
            return entry.ranges.covered_until(pos, limit);
        }
        // Raw records are unordered: chase the cursor until none extends it.
        let mut cursor = pos;
        while cursor < limit {
            let reach = entry
                .raw
                .iter()
                .filter(|(o, c)| (*o..o + c.len).contains(&cursor))
                .map(|(o, c)| o + c.len)
                .max();
            match reach {
                Some(r) => cursor = r,
                None => break,
            }
        }
        cursor
    }

    /// Drops every record's bytes once recycle has consumed them, keeping
    /// its extent: [`LogUnit::work_items`], [`LogUnit::work_bytes`],
    /// [`LogUnit::memory_bytes`] and coverage — the modelled state — stay.
    pub fn release_bytes(&mut self) {
        for e in self.index.values_mut() {
            e.ranges.release_bytes();
            for (_, chunk) in &mut e.raw {
                chunk.bytes = None;
            }
        }
    }

    /// Reuses the unit as a fresh Empty segment (read-cache content is
    /// dropped here, matching the paper's "retained until reused" rule).
    pub fn reset(&mut self) {
        self.state = UnitState::Empty;
        self.index.clear();
        self.bytes = 0;
        self.raw_records = 0;
        self.first_append = None;
        self.recycle_started = None;
        self.copies.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn real(b: u8, n: usize) -> Chunk {
        Chunk::real(vec![b; n])
    }

    #[test]
    fn locality_mode_merges_repeats_and_neighbours() {
        let mut u: LogUnit<u32> = LogUnit::new(0);
        // Three writes to the same place + one adjacent: 2 work items max.
        u.append(7, 0, real(1, 4096), Discipline::Overwrite, true, 10);
        u.append(7, 0, real(2, 4096), Discipline::Overwrite, true, 20);
        u.append(7, 0, real(3, 4096), Discipline::Overwrite, true, 30);
        u.append(7, 4096, real(4, 4096), Discipline::Overwrite, true, 40);
        assert_eq!(u.raw_records, 4);
        assert_eq!(u.work_items(), 1, "adjacent + repeated must coalesce");
        assert_eq!(u.work_bytes(), 8192);
        assert_eq!(u.first_append, Some(10));
    }

    #[test]
    fn hot_page_rewrites_inside_a_run_stay_one_work_item() {
        // A DataLog run of 64 adjacent 4 KiB appends, then rewrites of a
        // few hot pages inside it: one recycle job, not one per seam.
        let mut u: LogUnit<u32> = LogUnit::new(0);
        for i in 0..64 {
            u.append(5, i * 4096, real(1, 4096), Discipline::Overwrite, true, i);
        }
        assert_eq!(u.work_items(), 1);
        for (i, page) in [9, 40, 9, 17, 40, 63, 0].into_iter().enumerate() {
            u.append(
                5,
                page * 4096,
                real(2 + i as u8, 4096),
                Discipline::Overwrite,
                true,
                100,
            );
            assert_eq!(u.work_items(), 1, "after rewriting page {page}");
        }
        assert_eq!(u.work_bytes(), 64 * 4096);
    }

    #[test]
    fn raw_mode_keeps_every_record() {
        let mut u: LogUnit<u32> = LogUnit::new(0);
        for i in 0..5 {
            u.append(1, 0, real(i, 512), Discipline::Overwrite, false, 0);
        }
        assert_eq!(u.work_items(), 5, "no-locality ablation keeps all");
        assert_eq!(u.work_bytes(), 5 * 512);
    }

    #[test]
    fn overlay_returns_newest_content() {
        let mut u: LogUnit<u32> = LogUnit::new(0);
        u.append(3, 100, real(0xAA, 50), Discipline::Overwrite, true, 0);
        u.append(3, 120, real(0xBB, 50), Discipline::Overwrite, true, 0);
        let mut buf = vec![0u8; 70];
        assert!(u.overlay(&3, 100, 70, Some(&mut buf)));
        assert!(buf[..20].iter().all(|&b| b == 0xAA));
        assert!(buf[20..].iter().all(|&b| b == 0xBB));
        // Unknown block or uncovered range.
        assert!(!u.overlay(&4, 100, 10, None));
        assert!(!u.overlay(&3, 0, 300, None));
    }

    #[test]
    fn raw_overlay_replays_in_order() {
        let mut u: LogUnit<u32> = LogUnit::new(0);
        u.append(1, 0, real(1, 100), Discipline::Overwrite, false, 0);
        u.append(1, 50, real(2, 100), Discipline::Overwrite, false, 0);
        let mut buf = vec![0u8; 150];
        assert!(u.overlay(&1, 0, 150, Some(&mut buf)));
        assert!(buf[..50].iter().all(|&b| b == 1));
        assert!(buf[50..].iter().all(|&b| b == 2), "later record wins");
    }

    #[test]
    fn bitmap_filter_rejects_cold_ranges() {
        let mut u: LogUnit<u32> = LogUnit::new(0);
        u.append(1, 0, real(1, 4096), Discipline::Overwrite, true, 0);
        let e = u.index.get(&1).unwrap();
        assert!(e.may_contain(0, 100));
        // A range in a different 8 KiB slot (but same 1 MiB fold window)
        // must be filtered out.
        assert!(!e.may_contain(16 << 10, 100));
    }

    #[test]
    fn xor_discipline_folds_deltas() {
        let mut u: LogUnit<u32> = LogUnit::new(0);
        u.append(1, 0, real(0b1100, 16), Discipline::Xor, true, 0);
        u.append(1, 0, real(0b1010, 16), Discipline::Xor, true, 0);
        let mut buf = vec![0u8; 16];
        assert!(u.overlay(&1, 0, 16, Some(&mut buf)));
        assert!(buf.iter().all(|&b| b == 0b0110));
        assert_eq!(u.work_items(), 1);
    }

    #[test]
    fn release_keeps_the_modelled_state() {
        for locality in [true, false] {
            let mut u: LogUnit<u32> = LogUnit::new(0);
            u.append(1, 0, real(1, 4096), Discipline::Xor, locality, 0);
            u.append(1, 4096, real(2, 4096), Discipline::Xor, locality, 0);
            u.append(1, 2048, real(3, 512), Discipline::Xor, locality, 0);
            u.append(2, 9000, real(4, 100), Discipline::Xor, locality, 0);
            let before = (u.work_items(), u.work_bytes(), u.memory_bytes());
            let reach = u.covered_until(&1, 0, 1 << 20);
            u.release_bytes();
            assert_eq!((u.work_items(), u.work_bytes(), u.memory_bytes()), before);
            assert_eq!(u.covered_until(&1, 0, 1 << 20), reach);
            let real_left = u.index.values().any(|e| {
                e.ranges.iter().any(|r| r.is_real()) || e.raw.iter().any(|(_, c)| c.bytes.is_some())
            });
            assert!(!real_left, "locality {locality}: bytes left");
        }
    }

    #[test]
    fn reset_clears_everything() {
        let mut u: LogUnit<u32> = LogUnit::new(9);
        u.append(1, 0, real(1, 512), Discipline::Overwrite, true, 5);
        u.state = UnitState::Recycled;
        u.reset();
        assert_eq!(u.state, UnitState::Empty);
        assert_eq!(u.bytes, 0);
        assert!(u.index.is_empty());
        assert_eq!(u.first_append, None);
    }

    #[test]
    #[should_panic(expected = "append to inactive unit")]
    fn append_to_sealed_unit_panics() {
        let mut u: LogUnit<u32> = LogUnit::new(0);
        u.state = UnitState::Recyclable;
        u.append(1, 0, real(1, 8), Discipline::Overwrite, true, 0);
    }
}

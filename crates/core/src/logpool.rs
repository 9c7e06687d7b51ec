//! The FIFO log pool (paper §3.2, Fig. 3).
//!
//! A pool manages a bounded set of fixed-size [`LogUnit`]s in a FIFO
//! queue: exactly one Empty unit (the tail) accepts appends; sealed units
//! await/undergo recycling; Recycled units linger until the pool reuses
//! them as fresh Empty units — a DataLog unit as the read cache, a Delta or
//! Parity unit as extents only, its bytes released once consumed. The quota (`max_units`) bounds
//! memory; when every unit is still busy recycling, appends experience
//! backpressure — which is precisely the Fig. 6b effect (throughput
//! collapses at `max_units = 2`, saturates at 4+).

use crate::logunit::{LogUnit, UnitId, UnitState};
use std::collections::VecDeque;

/// A FIFO queue of log units with a single active tail.
#[derive(Debug)]
pub struct LogPool<K> {
    /// Units, oldest first; the active (Empty) unit, if any, is the back.
    units: VecDeque<LogUnit<K>>,
    /// Capacity of one unit in bytes.
    pub unit_size: u64,
    /// Maximum number of units (the Fig. 6b quota).
    pub max_units: usize,
    next_id: UnitId,
    /// Pool-unique id offset so unit ids are globally distinct.
    id_stride: u64,
}

impl<K: Ord + Copy> LogPool<K> {
    /// Creates a pool; `pool_tag` disambiguates unit ids across pools.
    pub fn new(unit_size: u64, max_units: usize, pool_tag: u64) -> Self {
        assert!(max_units >= 1, "pool needs at least one unit");
        LogPool {
            units: VecDeque::new(),
            unit_size,
            max_units,
            next_id: 0,
            id_stride: pool_tag << 32,
        }
    }

    /// The active unit if one exists and has room for `len` more bytes.
    pub fn active_fits(&self, len: u64) -> bool {
        match self.units.back() {
            Some(u) if u.state == UnitState::Empty => u.bytes + len <= self.unit_size,
            _ => false,
        }
    }

    /// True if the back unit is Empty (appendable).
    pub fn has_active(&self) -> bool {
        self.active().is_some()
    }

    /// The active unit, if there is one.
    pub fn active(&self) -> Option<&LogUnit<K>> {
        self.units.back().filter(|u| u.state == UnitState::Empty)
    }

    /// Mutable access to the active unit.
    ///
    /// # Panics
    /// Panics if there is no active unit.
    pub fn active_mut(&mut self) -> &mut LogUnit<K> {
        // INVARIANT: documented contract (# Panics above) — callers
        // provision an active unit before appending.
        let u = self.units.back_mut().expect("no units in pool");
        assert_eq!(u.state, UnitState::Empty, "back unit is not active");
        u
    }

    /// Seals the active unit (marks it Recyclable); returns its id, or
    /// `None` if there is no active unit or it is empty of data.
    pub fn seal_active(&mut self) -> Option<UnitId> {
        let u = self.units.back_mut()?;
        if u.state != UnitState::Empty || u.raw_records == 0 {
            return None;
        }
        u.state = UnitState::Recyclable;
        Some(u.id)
    }

    /// Ensures an Empty active unit exists at the tail. Allocates a new
    /// unit while under quota, else reuses the oldest Recycled unit.
    /// Returns false when every unit is busy (backpressure).
    pub fn provision_active(&mut self) -> bool {
        if self.has_active() {
            return true;
        }
        if self.units.len() < self.max_units {
            let id = self.id_stride | self.next_id;
            self.next_id += 1;
            self.units.push_back(LogUnit::new(id));
            return true;
        }
        // Reuse the oldest Recycled unit (dropping its read-cache role).
        if let Some(pos) = self
            .units
            .iter()
            .position(|u| u.state == UnitState::Recycled)
        {
            // INVARIANT: `pos` came from position() on this deque with no
            // mutation in between.
            let mut u = self.units.remove(pos).expect("position valid");
            u.reset();
            self.units.push_back(u);
            return true;
        }
        false
    }

    /// Looks up a unit by id.
    pub fn unit_mut(&mut self, id: UnitId) -> Option<&mut LogUnit<K>> {
        self.units.iter_mut().find(|u| u.id == id)
    }

    /// Iterates units oldest → newest (overlay order: newest content last
    /// so it wins).
    pub fn iter_oldest_first(&self) -> impl Iterator<Item = &LogUnit<K>> {
        self.units.iter()
    }

    /// Overlays the pool's content for `key` across all units (read-cache
    /// path); returns true when the union fully covers the range.
    pub fn overlay(&self, key: &K, off: u64, len: u64, mut buf: Option<&mut [u8]>) -> bool {
        for u in &self.units {
            if u.overlay(key, off, len, buf.as_deref_mut()) {
                return true; // a single unit fully covers (fast path)
            }
        }
        // Union check over extents only: advance a cursor through whichever
        // unit covers it furthest, touching just the entries on the way.
        let end = off + len;
        let mut cursor = off;
        while cursor < end {
            let reach = self
                .units
                .iter()
                .map(|u| u.covered_until(key, cursor, end))
                .max();
            match reach {
                Some(r) if r > cursor => cursor = r,
                _ => return false,
            }
        }
        true
    }

    /// Drops `key`'s entries from every unit: the log no longer holds
    /// anything for it, neither work nor read cache.
    pub fn forget(&mut self, key: &K) {
        for u in &mut self.units {
            u.index.remove(key);
        }
    }

    /// Total unrecycled work items (active + sealed units).
    pub fn pending_work(&self) -> u64 {
        self.units
            .iter()
            .filter(|u| matches!(u.state, UnitState::Empty | UnitState::Recyclable))
            .map(LogUnit::work_items)
            .sum()
    }

    /// Total memory pinned by the pool.
    pub fn memory_bytes(&self) -> u64 {
        self.units.iter().map(LogUnit::memory_bytes).sum()
    }

    /// Number of units currently allocated.
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// Releases surplus Recycled units down to `keep` (idle shrink —
    /// §3.2.2 "unused log space is released").
    pub fn shrink_to(&mut self, keep: usize) {
        while self.units.len() > keep {
            if let Some(pos) = self
                .units
                .iter()
                .position(|u| u.state == UnitState::Recycled)
            {
                self.units.remove(pos);
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsue_ecfs::rangemap::Discipline;
    use tsue_ecfs::Chunk;

    fn fill_active(p: &mut LogPool<u32>, key: u32, n: usize, len: u64) {
        for i in 0..n {
            p.active_mut().append(
                key,
                i as u64 * len,
                Chunk::ghost(len),
                Discipline::Overwrite,
                true,
                0,
            );
        }
    }

    #[test]
    fn lifecycle_empty_seal_recycle_reuse() {
        let mut p: LogPool<u32> = LogPool::new(1 << 20, 2, 0);
        assert!(p.provision_active());
        fill_active(&mut p, 1, 4, 4096);
        let id = p.seal_active().expect("sealed");
        assert!(!p.has_active());
        assert!(p.provision_active(), "second unit under quota");
        assert_eq!(p.unit_count(), 2);
        // Both busy: no third unit.
        fill_active(&mut p, 2, 1, 4096);
        p.seal_active();
        assert!(!p.provision_active(), "quota reached, nothing recycled");
        // Recycle the first: reuse becomes possible.
        p.unit_mut(id).unwrap().state = UnitState::Recycled;
        assert!(p.provision_active());
        assert_eq!(p.unit_count(), 2, "reused, not grown");
    }

    #[test]
    fn seal_empty_unit_returns_none() {
        let mut p: LogPool<u32> = LogPool::new(1 << 20, 2, 0);
        p.provision_active();
        assert_eq!(p.seal_active(), None, "no data, nothing to seal");
    }

    #[test]
    fn active_fits_respects_unit_size() {
        let mut p: LogPool<u32> = LogPool::new(10_000, 2, 0);
        p.provision_active();
        assert!(p.active_fits(5000));
        fill_active(&mut p, 1, 1, 8000);
        assert!(!p.active_fits(5000));
    }

    #[test]
    fn overlay_across_units_newest_wins() {
        let mut p: LogPool<u32> = LogPool::new(1 << 20, 3, 0);
        p.provision_active();
        p.active_mut().append(
            1,
            0,
            Chunk::real(vec![0xAA; 100]),
            Discipline::Overwrite,
            true,
            0,
        );
        p.seal_active();
        p.provision_active();
        p.active_mut().append(
            1,
            50,
            Chunk::real(vec![0xBB; 100]),
            Discipline::Overwrite,
            true,
            20,
        );
        let mut buf = vec![0u8; 150];
        assert!(p.overlay(&1, 0, 150, Some(&mut buf)));
        assert!(buf[..50].iter().all(|&b| b == 0xAA));
        assert!(buf[50..].iter().all(|&b| b == 0xBB), "newer unit wins");
        // Uncovered gap → not a full hit.
        assert!(!p.overlay(&1, 0, 200, None));
    }

    #[test]
    fn pending_work_ignores_recycled_units() {
        let mut p: LogPool<u32> = LogPool::new(1 << 20, 2, 0);
        p.provision_active();
        fill_active(&mut p, 1, 3, 4096);
        let id = p.seal_active().unwrap();
        assert_eq!(p.pending_work(), 1, "3 adjacent appends merged to 1");
        p.unit_mut(id).unwrap().state = UnitState::Recycled;
        assert_eq!(p.pending_work(), 0);
    }

    #[test]
    fn shrink_releases_only_recycled() {
        let mut p: LogPool<u32> = LogPool::new(1 << 20, 4, 0);
        for i in 0..4 {
            p.provision_active();
            fill_active(&mut p, i, 1, 512);
            p.seal_active();
        }
        assert_eq!(p.unit_count(), 4);
        p.shrink_to(2);
        assert_eq!(p.unit_count(), 4, "nothing recycled yet");
        for u in p.units.iter_mut() {
            u.state = UnitState::Recycled;
        }
        p.shrink_to(2);
        assert_eq!(p.unit_count(), 2);
    }

    #[test]
    fn unit_ids_are_globally_unique_across_pools() {
        let mut a: LogPool<u32> = LogPool::new(1 << 20, 2, 0);
        let mut b: LogPool<u32> = LogPool::new(1 << 20, 2, 1);
        a.provision_active();
        b.provision_active();
        assert_ne!(a.units[0].id, b.units[0].id);
    }
}

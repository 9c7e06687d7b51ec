//! Dense-plus-sparse `u64 -> u64` table: the device models' per-page and
//! per-stream bookkeeping.
//!
//! Device addresses are bump-allocated from 0 and stream ids are small
//! integers, so a key indexes a slot directly — no hashing on the
//! per-page path. The slots live in fixed-size chunks allocated when
//! first written, so memory follows the pages actually *touched*: a
//! reserved-but-unwritten log region costs one directory entry per chunk,
//! and the device's capacity never sizes anything. Keys at or beyond the
//! dense range (today only `submit_meta`'s `u64::MAX / 2` address and its
//! `u32::MAX` stream) take an ordered side map instead.

use std::collections::BTreeMap;

/// "No value" marker for tables whose slots hold page numbers or offsets.
pub(crate) const NONE: u64 = u64::MAX;

/// Slots per chunk: one 4 KiB host page of table.
const CHUNK: u64 = 512;

/// See the module docs.
#[derive(Debug)]
pub(crate) struct Table {
    /// `chunks[key / CHUNK][key % CHUNK]` for `key < dense_keys`; the
    /// directory grows to the highest chunk written so far.
    chunks: Vec<Option<Box<[u64; CHUNK as usize]>>>,
    dense_keys: u64,
    /// Keys `>= dense_keys`. Point lookups only — never iterated, so it
    /// cannot leak an ordering into the outcome.
    side: BTreeMap<u64, u64>,
    /// What a never-written slot reads as.
    empty: u64,
}

impl Table {
    /// A table whose keys below `dense_keys` are directly indexed and
    /// whose unwritten slots read as `empty`.
    pub(crate) fn new(dense_keys: u64, empty: u64) -> Self {
        Table {
            chunks: Vec::new(),
            dense_keys,
            side: BTreeMap::new(),
            empty,
        }
    }

    /// The slot of `key`, materialized (as `empty`) on first use.
    pub(crate) fn slot(&mut self, key: u64) -> &mut u64 {
        if key >= self.dense_keys {
            return self.side.entry(key).or_insert(self.empty);
        }
        &mut self.chunk(key)[(key % CHUNK) as usize]
    }

    /// The slots of `key..key + n`, materialized on first use, for the
    /// largest `n <= max` that stays inside `key`'s chunk and the dense
    /// range (`max >= 1`). A side key is a run of one.
    pub(crate) fn run(&mut self, key: u64, max: u64) -> &mut [u64] {
        debug_assert!(max >= 1);
        if key >= self.dense_keys {
            return std::slice::from_mut(self.slot(key));
        }
        let end = (key + max)
            .min((key / CHUNK + 1) * CHUNK)
            .min(self.dense_keys);
        let at = (key % CHUNK) as usize;
        &mut self.chunk(key)[at..at + (end - key) as usize]
    }

    /// The slot of `key` if it was ever materialized; never allocates.
    pub(crate) fn get_mut(&mut self, key: u64) -> Option<&mut u64> {
        if key >= self.dense_keys {
            return self.side.get_mut(&key);
        }
        let chunk = self
            .chunks
            .get_mut((key / CHUNK) as usize)?
            .as_deref_mut()?;
        Some(&mut chunk[(key % CHUNK) as usize])
    }

    /// What `key` reads as, without materializing anything.
    #[cfg(test)]
    pub(crate) fn get(&mut self, key: u64) -> u64 {
        let empty = self.empty;
        self.get_mut(key).map_or(empty, |slot| *slot)
    }

    /// Dense chunks materialized so far.
    #[cfg(test)]
    pub(crate) fn chunks_allocated(&self) -> usize {
        self.chunks.iter().flatten().count()
    }

    /// The chunk holding dense `key`, materialized on first use.
    fn chunk(&mut self, key: u64) -> &mut [u64; CHUNK as usize] {
        let (chunk, empty) = ((key / CHUNK) as usize, self.empty);
        if chunk >= self.chunks.len() {
            self.chunks.resize_with(chunk + 1, || None);
        }
        self.chunks[chunk].get_or_insert_with(|| Box::new([empty; CHUNK as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_slots_read_empty_on_both_paths() {
        let mut t = Table::new(1024, NONE);
        assert_eq!(*t.slot(3), NONE);
        assert_eq!(*t.slot(1023), NONE);
        assert_eq!(*t.slot(1024), NONE);
        assert_eq!(*t.slot(u64::MAX / 2), NONE);
    }

    #[test]
    fn dense_and_side_keys_do_not_alias() {
        let mut t = Table::new(1024, 0);
        for key in [0, 511, 512, 1023, 1024, 1024 + 512, u64::MAX] {
            *t.slot(key) = key.wrapping_add(1);
        }
        for key in [0, 511, 512, 1023, 1024, 1024 + 512, u64::MAX] {
            assert_eq!(*t.slot(key), key.wrapping_add(1));
        }
        assert_eq!(*t.slot(1), 0);
        assert_eq!(t.side.len(), 3);
    }

    #[test]
    fn runs_stop_at_chunk_and_dense_ends() {
        let mut t = Table::new(2 * CHUNK + 100, NONE);
        assert_eq!(t.run(3, 1000).len(), 509);
        assert_eq!(t.run(3, 7).len(), 7);
        assert_eq!(t.run(CHUNK, 1000).len(), 512);
        assert_eq!(t.run(2 * CHUNK + 90, 1000).len(), 10);
        assert_eq!(t.run(2 * CHUNK + 100, 1000).len(), 1, "side key");
        for (i, s) in t.run(CHUNK - 2, 4).iter_mut().enumerate() {
            *s = i as u64;
        }
        assert_eq!((*t.slot(CHUNK - 2), *t.slot(CHUNK - 1)), (0, 1));
        assert_eq!(*t.slot(CHUNK), NONE, "the run ended at the chunk");
        t.run(u64::MAX, 9)[0] = 5;
        assert_eq!(*t.slot(u64::MAX), 5);
    }

    #[test]
    fn get_mut_never_materializes() {
        let mut t = Table::new(2 * CHUNK, NONE);
        assert_eq!(t.get_mut(7), None);
        assert_eq!(t.get_mut(u64::MAX), None);
        assert_eq!(t.get(CHUNK + 3), NONE);
        assert_eq!(t.chunks_allocated(), 0);
        *t.slot(CHUNK + 3) = 9;
        assert_eq!(t.get_mut(7), None, "chunk 0 is still absent");
        *t.get_mut(CHUNK + 4).expect("chunk 1 exists") = 4;
        assert_eq!((t.get(CHUNK + 3), t.get(CHUNK + 4)), (9, 4));
        assert_eq!(t.chunks_allocated(), 1);
        assert!(t.side.is_empty());
    }

    #[test]
    fn memory_follows_touched_chunks_not_the_key_range() {
        let mut t = Table::new(1 << 30, NONE);
        *t.slot(5) = 1;
        *t.slot(200 * CHUNK + 7) = 2;
        assert_eq!(t.chunks.len(), 201);
        assert_eq!(t.chunks_allocated(), 2);
        assert!(t.side.is_empty());
    }
}

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
        let empty = self.empty;
        if key >= self.dense_keys {
            return self.side.entry(key).or_insert(empty);
        }
        let (chunk, at) = ((key / CHUNK) as usize, (key % CHUNK) as usize);
        if chunk >= self.chunks.len() {
            self.chunks.resize_with(chunk + 1, || None);
        }
        &mut self.chunks[chunk].get_or_insert_with(|| Box::new([empty; CHUNK as usize]))[at]
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
    fn memory_follows_touched_chunks_not_the_key_range() {
        let mut t = Table::new(1 << 30, NONE);
        *t.slot(5) = 1;
        *t.slot(200 * CHUNK + 7) = 2;
        assert_eq!(t.chunks.len(), 201);
        assert_eq!(t.chunks.iter().flatten().count(), 2);
        assert!(t.side.is_empty());
    }
}

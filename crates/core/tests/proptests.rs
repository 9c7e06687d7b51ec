//! Property tests for TSUE's log structures: the two-level index against a
//! byte-map reference model, and pool lifecycle conservation.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tsue_core::{LogPool, LogUnit, UnitState};
use tsue_ecfs::rangemap::Discipline;
use tsue_ecfs::Chunk;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Overwrite-mode unit overlay equals a plain byte-map replay for any
    /// append sequence, in both locality and raw modes.
    #[test]
    fn unit_overlay_matches_reference(
        ops in proptest::collection::vec((0u32..4, 0u64..300, 1u64..50, any::<u8>()), 1..120),
        locality: bool,
    ) {
        let mut unit: LogUnit<u32> = LogUnit::new(0);
        let mut model: BTreeMap<(u32, u64), u8> = BTreeMap::new();
        for (key, off, len, val) in &ops {
            unit.append(
                *key,
                *off,
                Chunk::real(vec![*val; *len as usize]),
                Discipline::Overwrite,
                locality,
                0,
            );
            for o in *off..*off + *len {
                model.insert((*key, o), *val);
            }
        }
        for key in 0u32..4 {
            for off in 0u64..360 {
                let mut buf = [0xEEu8; 1];
                let covered = unit.overlay(&key, off, 1, Some(&mut buf));
                match model.get(&(key, off)) {
                    Some(&v) => {
                        prop_assert!(covered, "key {} off {} should be covered", key, off);
                        prop_assert_eq!(buf[0], v, "key {} off {}", key, off);
                    }
                    None => prop_assert!(!covered, "key {} off {} spurious", key, off),
                }
            }
        }
        // Locality mode must never need MORE work items than raw mode.
        if locality {
            prop_assert!(unit.work_items() <= ops.len() as u64);
        } else {
            prop_assert_eq!(unit.work_items(), ops.len() as u64);
        }
    }

    /// Pool lifecycle conservation: every appended record is either in an
    /// Empty/Recyclable unit (pending) or in a Recycled unit (done); seal +
    /// provision never lose or duplicate records.
    #[test]
    fn pool_lifecycle_conserves_records(
        batches in proptest::collection::vec(1usize..30, 1..12),
    ) {
        let mut pool: LogPool<u32> = LogPool::new(1 << 20, 4, 0);
        let mut appended = 0u64;
        let mut recycled_records = 0u64;
        for (b, n) in batches.iter().enumerate() {
            if !pool.has_active() && !pool.provision_active() {
                // All units busy: recycle the oldest sealed unit to move on.
                let ids: Vec<u64> = pool
                    .iter_oldest_first()
                    .filter(|u| u.state == UnitState::Recyclable)
                    .map(|u| u.id)
                    .collect();
                for id in ids {
                    let u = pool.unit_mut(id).unwrap();
                    recycled_records += u.raw_records;
                    u.state = UnitState::Recycled;
                }
                prop_assert!(pool.provision_active());
            }
            for i in 0..*n {
                // Distinct offsets so records never fold: conservation is
                // exact.
                pool.active_mut().append(
                    b as u32,
                    (i as u64) * 100,
                    Chunk::ghost(10),
                    Discipline::Overwrite,
                    true,
                    0,
                );
                appended += 1;
            }
            pool.seal_active();
        }
        let pending: u64 = pool
            .iter_oldest_first()
            .filter(|u| matches!(u.state, UnitState::Empty | UnitState::Recyclable))
            .map(|u| u.raw_records)
            .sum();
        prop_assert_eq!(pending + recycled_records, appended);
    }

    /// Xor-mode units fold same-offset deltas exactly like XOR on bytes.
    #[test]
    fn xor_unit_matches_reference(
        ops in proptest::collection::vec((0u64..100, 1u64..30, any::<u8>()), 1..80),
    ) {
        let mut unit: LogUnit<u32> = LogUnit::new(0);
        let mut model: BTreeMap<u64, u8> = BTreeMap::new();
        for (off, len, val) in &ops {
            unit.append(
                7,
                *off,
                Chunk::real(vec![*val; *len as usize]),
                Discipline::Xor,
                true,
                0,
            );
            for o in *off..*off + *len {
                *model.entry(o).or_insert(0) ^= *val;
            }
        }
        for off in 0u64..140 {
            let mut buf = [0u8; 1];
            let covered = unit.overlay(&7, off, 1, Some(&mut buf));
            match model.get(&off) {
                Some(&v) => {
                    prop_assert!(covered);
                    prop_assert_eq!(buf[0], v, "off {}", off);
                }
                None => prop_assert!(!covered),
            }
        }
    }
}

//! [`IdWindow`]: a map keyed by ids that are issued in ascending order
//! and mostly retired soon after — in-flight ops, ack exchanges, op
//! spans.
//!
//! The live ids sit in a window `start..start + slots.len()`, one slot
//! per id, so insert, lookup and remove are index arithmetic instead of
//! a tree walk, and iteration is in ascending id order like a
//! `BTreeMap`'s. Removing the oldest live id slides the window forward.
//! An id that is never removed pins the window: every id issued after
//! it keeps a slot (empty once retired) until it goes. That costs
//! memory, one `Option<T>` per id, but never a wrong answer.

use std::collections::VecDeque;

/// See the module docs.
#[derive(Debug)]
pub struct IdWindow<T> {
    /// Id of `slots[0]`; the oldest live id whenever `len > 0`.
    start: u64,
    /// `slots[i]` holds the value of id `start + i`, `None` once retired
    /// (or never inserted). The front is never `None`, so the window is
    /// empty exactly when no entry is live.
    slots: VecDeque<Option<T>>,
    /// Live entries.
    len: usize,
}

impl<T> Default for IdWindow<T> {
    fn default() -> Self {
        IdWindow {
            start: 0,
            slots: VecDeque::new(),
            len: 0,
        }
    }
}

impl<T> IdWindow<T> {
    /// An empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `value` at `id`, returning the value it replaces. An id
    /// past the window extends it; one below it (never the case for ids
    /// issued in ascending order) extends it at the front, one slot per
    /// id in between.
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        let old = Self::slot(&mut self.start, &mut self.slots, id).replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value at `id`, inserting `make()` first if there is none.
    pub fn get_or_insert_with(&mut self, id: u64, make: impl FnOnce() -> T) -> &mut T {
        let slot = Self::slot(&mut self.start, &mut self.slots, id);
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert_with(make)
    }

    /// The value at `id`, if live.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.slots.get(self.index(id)?)?.as_ref()
    }

    /// The value at `id`, if live.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let at = self.index(id)?;
        self.slots.get_mut(at)?.as_mut()
    }

    /// Removes and returns the value at `id`, sliding the window's start
    /// past retired slots.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let at = self.index(id)?;
        let value = self.slots.get_mut(at)?.take()?;
        self.len -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.start += 1;
        }
        Some(value)
    }

    /// Live entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let start = self.start;
        self.slots
            .iter()
            .zip(start..)
            .filter_map(|(slot, id)| Some((id, slot.as_ref()?)))
    }

    /// `id`'s offset in the window, if it is not below it.
    fn index(&self, id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(self.start)?).ok()
    }

    /// The slot of `id` in the window `slots` starting at `start`,
    /// growing the window to cover it. (Not a method, so the caller can
    /// still count `len` while holding the slot.)
    fn slot<'a>(start: &mut u64, slots: &'a mut VecDeque<Option<T>>, id: u64) -> &'a mut Option<T> {
        if slots.is_empty() {
            *start = id;
        } else if id < *start {
            for _ in id..*start {
                slots.push_front(None);
            }
            *start = id;
        }
        // cast: the window spans ids live at once, which fit in memory.
        let at = (id - *start) as usize;
        if at >= slots.len() {
            slots.resize_with(at + 1, || None);
        }
        &mut slots[at]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The high bits of a 64-bit LCG.
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

    fn assert_same(w: &IdWindow<u64>, m: &BTreeMap<u64, u64>, at: &str) {
        assert_eq!(w.len(), m.len(), "{at}: len");
        assert_eq!(w.is_empty(), m.is_empty(), "{at}: is_empty");
        let got: Vec<(u64, u64)> = w.iter().map(|(id, &v)| (id, v)).collect();
        let want: Vec<(u64, u64)> = m.iter().map(|(&id, &v)| (id, v)).collect();
        assert_eq!(got, want, "{at}: iteration");
    }

    /// Ids issued in ascending order (with gaps), retired in random
    /// order, checked against a `BTreeMap` after every step. With `pin`,
    /// the first id is never removed, so the window can only grow past it.
    fn differential(seed: u64, steps: u32, pin: bool) -> usize {
        let mut rng = Rng(seed);
        let (mut w, mut m) = (IdWindow::new(), BTreeMap::new());
        let mut next = 1_000 * seed;
        let mut widest = 0;
        for step in 0..steps {
            let at = format!("seed {seed} step {step}");
            match rng.below(8) {
                0..=2 => {
                    next += 1 + rng.below(3);
                    let v = rng.below(1 << 20);
                    assert_eq!(w.insert(next, v), m.insert(next, v), "{at}: insert");
                }
                3 => {
                    let probe = next.saturating_sub(rng.below(40));
                    let v = rng.below(1 << 20);
                    if let (Some(a), Some(b)) = (w.get_mut(probe), m.get_mut(&probe)) {
                        *a = v;
                        *b = v;
                    }
                    assert_eq!(w.get(probe), m.get(&probe), "{at}: get_mut");
                }
                _ => {
                    // Mostly the oldest live ids, sometimes any id at all.
                    let live: Vec<u64> = m.keys().copied().collect();
                    let probe = match live.len() {
                        0 => rng.below(next + 2),
                        _ if rng.below(4) == 0 => rng.below(next + 2),
                        n => live[rng.below(n.min(4) as u64) as usize],
                    };
                    if pin && live.first() == Some(&probe) {
                        continue;
                    }
                    assert_eq!(w.remove(probe), m.remove(&probe), "{at}: remove");
                }
            }
            for probe in [0, next.saturating_sub(1), next, next + 1] {
                assert_eq!(w.get(probe), m.get(&probe), "{at}: get {probe}");
            }
            assert_same(&w, &m, &at);
            widest = widest.max(w.slots.len());
        }
        widest
    }

    #[test]
    fn matches_a_btreemap_on_monotone_ids() {
        for seed in 0..8 {
            let widest = differential(seed, 4_000, false);
            assert!(widest < 400, "seed {seed}: window grew to {widest}");
        }
    }

    #[test]
    fn a_pinned_oldest_entry_costs_span_not_answers() {
        let widest = differential(3, 4_000, true);
        assert!(widest > 2_000, "the pin should hold the window open");
    }

    #[test]
    fn drains_to_empty_and_refills_higher() {
        let mut w = IdWindow::new();
        for id in 10..20 {
            w.insert(id, id * 2);
        }
        assert_eq!(w.get(9), None, "below the window");
        assert_eq!(w.get(25), None, "never inserted");
        for id in (10..20).rev() {
            assert_eq!(w.remove(id), Some(id * 2));
        }
        assert!(w.is_empty());
        assert_eq!(w.slots.len(), 0, "an empty window holds no slots");
        assert_eq!(w.remove(15), None);
        w.insert(1_000_000, 7);
        assert_eq!(w.slots.len(), 1, "refilling restarts the window");
        assert_eq!(w.get(15), None);
        assert_eq!(*w.get_or_insert_with(1_000_002, || 9), 9);
        assert_eq!(*w.get_or_insert_with(1_000_002, || 0), 9);
        assert_eq!(
            w.iter().collect::<Vec<_>>(),
            [(1_000_000, &7), (1_000_002, &9)]
        );
        // Below the window: grows at the front, still ordered.
        w.insert(999_998, 1);
        assert_eq!(w.iter().next(), Some((999_998, &1)));
        assert_eq!(w.len(), 3);
    }
}

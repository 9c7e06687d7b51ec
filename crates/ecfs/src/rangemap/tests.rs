//! Unit tests of [`RangeMap`]: the original behavioural tests, the
//! differential tests against the tree-and-concatenate reference, the named
//! characterisations of the non-chaining merge rule, and the copy budget.

use super::reference::RefMap;
use super::*;

fn real(byte: u8, len: usize) -> Chunk {
    Chunk::real(vec![byte; len])
}

/// Reference model: plain byte map.
fn check_against_model(map: &RangeMap, model: &std::collections::BTreeMap<u64, u8>, span: u64) {
    for off in 0..span {
        let mut buf = [0xEEu8; 1];
        let covered = map.overlay(off, 1, Some(&mut buf));
        match model.get(&off) {
            Some(&b) => {
                assert!(covered, "offset {off} should be covered");
                assert_eq!(buf[0], b, "offset {off}");
            }
            None => assert!(!covered, "offset {off} should be uncovered"),
        }
    }
}

#[test]
fn overwrite_newest_wins() {
    let mut m = RangeMap::new();
    m.insert(10, real(1, 10)); // [10,20) = 1
    m.insert(15, real(2, 10)); // [15,25) = 2
    let mut model = std::collections::BTreeMap::new();
    for o in 10..15 {
        model.insert(o, 1);
    }
    for o in 15..25 {
        model.insert(o, 2);
    }
    check_against_model(&m, &model, 30);
    assert_eq!(m.covered_bytes(), 15);
}

#[test]
fn overwrite_interior_split() {
    let mut m = RangeMap::new();
    m.insert(0, real(7, 30));
    m.insert(10, real(9, 5)); // hole punched in the middle
    let mut buf = vec![0u8; 30];
    assert!(m.overlay(0, 30, Some(&mut buf)));
    for (i, &b) in buf.iter().enumerate() {
        let expect = if (10..15).contains(&i) { 9 } else { 7 };
        assert_eq!(b, expect, "i={i}");
    }
    assert_eq!(m.covered_bytes(), 30);
}

#[test]
fn absent_preserves_existing() {
    let mut m = RangeMap::new();
    m.insert_absent(10, real(1, 10));
    m.insert_absent(5, real(2, 10)); // only [5,10) takes
    let mut model = std::collections::BTreeMap::new();
    for o in 5..10 {
        model.insert(o, 2);
    }
    for o in 10..20 {
        model.insert(o, 1);
    }
    check_against_model(&m, &model, 25);
}

#[test]
fn xor_accumulates() {
    let mut m = RangeMap::new();
    m.insert_xor(0, real(0b0011, 8));
    m.insert_xor(4, real(0b0101, 8)); // overlap [4,8)
    let mut buf = vec![0u8; 12];
    assert!(m.overlay(0, 12, Some(&mut buf)));
    for (i, &b) in buf.iter().enumerate() {
        let expect = match i {
            0..=3 => 0b0011,
            4..=7 => 0b0011 ^ 0b0101,
            _ => 0b0101,
        };
        assert_eq!(b, expect, "i={i}");
    }
}

#[test]
fn adjacency_coalesces() {
    let mut m = RangeMap::new();
    m.insert(0, real(1, 4));
    m.insert(4, real(1, 4));
    m.insert(8, real(1, 4));
    assert_eq!(m.len(), 1, "adjacent equal-type entries merge");
    assert_eq!(m.covered_bytes(), 12);
}

#[test]
fn ghost_chunks_track_coverage_only() {
    let mut m = RangeMap::new();
    m.insert(100, Chunk::ghost(50));
    m.insert(120, Chunk::ghost(100));
    assert_eq!(m.covered_bytes(), 120);
    assert!(m.overlay(100, 120, None));
    assert!(!m.overlay(90, 20, None));
}

#[test]
fn overlay_partial_returns_false_but_patches() {
    let mut m = RangeMap::new();
    m.insert(10, real(5, 10));
    let mut buf = vec![0u8; 30];
    assert!(!m.overlay(0, 30, Some(&mut buf)));
    assert_eq!(buf[10], 5);
    assert_eq!(buf[19], 5);
    assert_eq!(buf[0], 0);
    assert_eq!(buf[25], 0);
}

#[test]
fn drain_empties_in_order() {
    let mut m = RangeMap::new();
    m.insert(30, real(3, 4));
    m.insert(10, real(1, 4));
    m.insert(20, real(2, 4));
    let drained = m.drain();
    assert_eq!(drained.len(), 3);
    assert!(drained.windows(2).all(|w| w[0].0 < w[1].0));
    assert!(m.is_empty());
    assert_eq!(m.covered_bytes(), 0);
}

#[test]
fn randomized_against_reference_model() {
    // Deterministic pseudo-random fuzz of Overwrite mode vs a byte map.
    let mut m = RangeMap::new();
    let mut model = std::collections::BTreeMap::new();
    let mut x: u64 = 0x12345;
    for i in 0..500 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let off = (x >> 16) % 200;
        let len = 1 + ((x >> 40) % 40);
        let val = (i % 251) as u8;
        m.insert(off, Chunk::real(vec![val; len as usize]));
        for o in off..off + len {
            model.insert(o, val);
        }
    }
    check_against_model(&m, &model, 256);
    assert_eq!(m.covered_bytes(), model.len() as u64);
}

#[test]
fn xor_randomized_against_reference() {
    let mut m = RangeMap::new();
    let mut model = std::collections::BTreeMap::<u64, u8>::new();
    let mut x: u64 = 99;
    for _ in 0..300 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let off = (x >> 16) % 150;
        let len = 1 + ((x >> 40) % 30);
        let val = (x >> 8) as u8;
        m.insert_xor(off, Chunk::real(vec![val; len as usize]));
        for o in off..off + len {
            *model.entry(o).or_insert(0) ^= val;
        }
    }
    for off in 0..200u64 {
        let mut buf = [0u8; 1];
        let covered = m.overlay(off, 1, Some(&mut buf));
        match model.get(&off) {
            Some(&b) => {
                assert!(covered);
                assert_eq!(buf[0], b, "offset {off}");
            }
            None => assert!(!covered),
        }
    }
}

// ---------------------------------------------------------------------
// Differential tests against the reference map
// ---------------------------------------------------------------------

/// SplitMix64: the tests' only randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

/// Structural invariants of the segment list.
fn check_invariants(m: &RangeMap) {
    let mut heads = 0;
    let mut covered = 0;
    for (i, s) in m.segs.iter().enumerate() {
        assert!(s.chunk.len > 0, "empty segment");
        if let Some(b) = &s.chunk.bytes {
            assert_eq!(b.len() as u64, s.chunk.len, "segment length");
        }
        heads += usize::from(s.head);
        covered += s.chunk.len;
        match i.checked_sub(1).map(|p| &m.segs[p]) {
            None => assert!(s.head, "first segment must head an entry"),
            Some(p) => {
                assert!(p.end() <= s.off, "segments overlap or are unsorted");
                if !s.head {
                    assert!(p.end() == s.off && p.is_real() && s.is_real(), "broken run");
                }
            }
        }
    }
    assert_eq!(heads, m.len());
    assert_eq!(covered, m.covered_bytes());
}

/// Entry boundaries and kinds — the modelled state — and the counters.
fn assert_same_entries(new: &RangeMap, old: &RefMap, ctx: &str) {
    check_invariants(new);
    let a: Vec<(u64, u64, bool)> = new
        .iter()
        .map(|e| (e.off(), e.len(), e.is_real()))
        .collect();
    let b: Vec<(u64, u64, bool)> = old
        .iter()
        .map(|(o, c)| (o, c.len, c.bytes.is_some()))
        .collect();
    assert_eq!(a, b, "entries diverge {ctx}");
    assert_eq!(new.len(), old.len(), "len {ctx}");
    assert_eq!(new.covered_bytes(), old.covered_bytes(), "covered {ctx}");
    assert_eq!(new.is_empty(), old.is_empty(), "is_empty {ctx}");
}

/// Bytes through `overlay` over the whole span and a few sub-ranges,
/// through the segment view, and `covered_until` against `overlay`.
fn assert_same_bytes(new: &RangeMap, old: &RefMap, span: u64, rng: &mut Rng, ctx: &str) {
    let mut ranges = vec![(0, span)];
    for _ in 0..4 {
        let off = rng.below(span);
        ranges.push((off, 1 + rng.below(span - off)));
    }
    for (off, len) in ranges {
        let (mut a, mut b) = (vec![0xEE; len as usize], vec![0xEE; len as usize]);
        let (ca, cb) = (
            new.overlay(off, len, Some(&mut a)),
            old.overlay(off, len, Some(&mut b)),
        );
        assert_eq!(ca, cb, "coverage of [{off}, +{len}) {ctx}");
        assert_eq!(new.overlay(off, len, None), cb, "bufferless coverage {ctx}");
        assert_eq!(new.covered_until(off, off + len) >= off + len, cb);
        assert!(a == b, "overlay bytes of [{off}, +{len}) {ctx}");
    }
    for (e, (_, c)) in new.iter().zip(old.iter()) {
        let want = c.bytes.as_deref().unwrap_or(&[]);
        let joined: Vec<u8> = e.segments().flatten().copied().collect();
        assert!(joined == want, "segment view {ctx}");
        let mut copied = vec![0u8; e.len() as usize];
        e.copy_to(&mut copied);
        assert!(!e.is_real() || copied == want, "copy_to {ctx}");
    }
}

/// `gather` (on a clone) and `drain` hand out what the reference holds;
/// so do `drain_runs` (on a clone) once its segments are concatenated.
fn assert_same_drain(new: &mut RangeMap, old: &mut RefMap, ctx: &str) {
    let flat = |v: Vec<(u64, Chunk)>| -> Vec<(u64, u64, Option<Vec<u8>>)> {
        v.into_iter()
            .map(|(o, c)| (o, c.len, c.bytes.map(|b| b.to_vec())))
            .collect()
    };
    let want = flat(old.drain());
    let mut copy = new.clone();
    let gathered = flat(copy.gather().iter().map(|(o, c)| (o, c.clone())).collect());
    assert!(gathered == want, "gather {ctx}");
    check_invariants(&copy);
    assert_released_keeps_extents(new, ctx);
    let mut copy = new.clone();
    let runs = copy.drain_runs();
    assert!(copy.is_empty() && (copy.len(), copy.covered_bytes()) == (0, 0));
    let concatenated: Vec<_> = runs
        .iter()
        .map(|e| {
            let mut at = e.off();
            let mut bytes = Vec::new();
            for (off, c) in e.chunks() {
                assert_eq!(off, at, "segments of a run are adjacent {ctx}");
                assert_eq!(c.bytes.is_some(), e.is_real(), "one kind per run {ctx}");
                bytes.extend_from_slice(c.bytes.as_deref().unwrap_or(&[]));
                at += c.len;
            }
            (e.off(), e.len(), e.is_real().then_some(bytes))
        })
        .collect();
    assert!(concatenated == want, "drain_runs {ctx}");
    assert!(flat(new.drain()) == want, "drain {ctx}");
    assert!(new.is_empty());
    assert_eq!((new.len(), new.covered_bytes()), (0, 0));
}

/// `release_bytes` (on a clone) keeps the counters, every entry's extent
/// and `covered_until` at every entry edge, and leaves each entry one
/// ghost segment.
fn assert_released_keeps_extents(map: &RangeMap, ctx: &str) {
    let mut released = map.clone();
    released.release_bytes();
    check_invariants(&released);
    assert!(
        released.segs.iter().all(|s| s.head && !s.is_real()),
        "one ghost segment per entry {ctx}"
    );
    let extents = |m: &RangeMap| m.iter().map(|e| (e.off(), e.len())).collect::<Vec<_>>();
    assert_eq!(extents(&released), extents(map), "extents {ctx}");
    assert_eq!(released.len(), map.len(), "len {ctx}");
    assert_eq!(
        released.covered_bytes(),
        map.covered_bytes(),
        "covered {ctx}"
    );
    let limit = map.iter().last().map_or(0, |e| e.off() + e.len()) + 1;
    for e in map.iter() {
        for pos in [e.off().saturating_sub(1), e.off(), e.off() + e.len() / 2] {
            assert_eq!(
                released.covered_until(pos, limit),
                map.covered_until(pos, limit),
                "covered_until({pos}) {ctx}"
            );
        }
    }
}

/// Both maps under test, fed identical content from buffers of their own
/// (a shared handle would hide the in-place XOR path behind copy-on-write).
struct Pair {
    new: RangeMap,
    old: RefMap,
    /// Per side, two span-sized arenas: chunks sliced from one arena are
    /// contiguous views that `try_join` can fuse.
    arenas: [[tsue_buf::Bytes; 2]; 2],
    span: u64,
}

/// How a chunk's payload is made.
#[derive(Clone, Copy)]
enum Payload {
    Ghost,
    /// A buffer of its own, filled from the seed.
    Fresh(u64),
    /// A view of arena `0` or `1` at the insert offset.
    Arena(usize),
}

impl Pair {
    fn new(span: u64, rng: &mut Rng) -> Self {
        let (a, b) = (rng.bytes(span as usize), rng.bytes(span as usize));
        let side = || [a.clone().into(), b.clone().into()];
        Pair {
            new: RangeMap::new(),
            old: RefMap::new(),
            arenas: [side(), side()],
            span,
        }
    }

    fn chunk(&self, side: usize, off: u64, len: u64, payload: Payload) -> Chunk {
        match payload {
            Payload::Ghost => Chunk::ghost(len),
            Payload::Fresh(seed) => Chunk::real(Rng(seed).bytes(len as usize)),
            Payload::Arena(i) => {
                Chunk::real(self.arenas[side][i].slice(off as usize, len as usize))
            }
        }
    }

    fn insert(&mut self, off: u64, len: u64, payload: Payload, disc: Discipline) {
        assert!(off + len <= self.span);
        let (a, b) = (
            self.chunk(0, off, len, payload),
            self.chunk(1, off, len, payload),
        );
        self.new.insert_with(off, a, disc);
        self.old.insert_with(off, b, disc);
        let ctx = format!("after {disc:?} [{off}, +{len})");
        assert_same_entries(&self.new, &self.old, &ctx);
    }

    fn check_bytes(&mut self, rng: &mut Rng, ctx: &str) {
        assert_same_bytes(&self.new, &self.old, self.span, rng, ctx);
    }

    fn finish(mut self, rng: &mut Rng, ctx: &str) {
        self.check_bytes(rng, ctx);
        assert_same_drain(&mut self.new, &mut self.old, ctx);
    }
}

const DISCIPLINES: [Discipline; 3] = [Discipline::Overwrite, Discipline::Absent, Discipline::Xor];

#[test]
fn differential_seeded_sequences() {
    // 72 maps × 150 inserts = 10 800: every (discipline mode, kind mode)
    // pair at small (1 B..=512 B over 4 KiB, bytes checked after every
    // insert) and large (1 B..=128 KiB over 1 MiB, bytes every 10th) scale.
    let mut rng = Rng(0x7505E);
    let mut inserts = 0;
    for map in 0..72u64 {
        let (disc_mode, kind_mode, large) = (map % 4, (map / 4) % 3, (map / 12) % 3 == 2);
        let (span, max_len, every) = if large {
            (1 << 20, 128 << 10, 10)
        } else {
            (4 << 10, 512, 1)
        };
        let mut pair = Pair::new(span, &mut rng);
        for i in 0..150 {
            let disc = DISCIPLINES[if disc_mode == 3 {
                rng.below(3)
            } else {
                disc_mode
            } as usize];
            // Half the lengths and offsets are multiples of 1/64 of the
            // span (a "page"), half are arbitrary.
            let page = span / 64;
            let (off, len) = if rng.below(2) == 0 {
                let len = page * (1 + rng.below(max_len / page));
                (page * rng.below((span - len) / page + 1), len)
            } else {
                let len = 1 + rng.below(max_len);
                (rng.below(span - len + 1), len)
            };
            let real = match kind_mode {
                0 => true,
                1 => false,
                _ => rng.below(4) != 0,
            };
            let payload = match (real, rng.below(3)) {
                (false, _) => Payload::Ghost,
                (true, 0) => Payload::Fresh(rng.next()),
                (true, a) => Payload::Arena(a as usize - 1),
            };
            pair.insert(off, len, payload, disc);
            inserts += 1;
            if i % every == 0 {
                pair.check_bytes(&mut rng, &format!("map {map} insert {i}"));
            }
        }
        pair.finish(&mut rng, &format!("map {map}"));
    }
    assert!(inserts >= 10_000);
}

/// Runs one offset pattern under every discipline, real (own buffers and
/// arena views) and ghost.
fn differential_pattern(name: &str, span: u64, ops: &[(u64, u64)]) {
    let mut rng = Rng(span ^ ops.len() as u64);
    for disc in DISCIPLINES {
        for kind in 0..3 {
            let mut pair = Pair::new(span, &mut rng);
            for (i, &(off, len)) in ops.iter().enumerate() {
                let payload = match kind {
                    0 => Payload::Ghost,
                    1 => Payload::Fresh(rng.next()),
                    _ => Payload::Arena(i % 2),
                };
                pair.insert(off, len, payload, disc);
                if i % 16 == 0 {
                    pair.check_bytes(&mut rng, name);
                }
            }
            pair.finish(&mut rng, name);
        }
    }
}

const PAGE: u64 = 4 << 10;

#[test]
fn differential_hot_page_rewrite_inside_a_run() {
    // A 1 MiB run built by sequential appends, then 300 rewrites of a few
    // hot pages inside it (79 % of `ten-mat-tsue`'s DataLog inserts).
    let mut rng = Rng(11);
    let mut ops: Vec<(u64, u64)> = (0..256).map(|i| (i * PAGE, PAGE)).collect();
    let hot: Vec<u64> = (0..8).map(|_| rng.below(256)).collect();
    ops.extend((0..300).map(|_| (hot[rng.below(8) as usize] * PAGE, PAGE)));
    differential_pattern("hot-page rewrite", 1 << 20, &ops);
}

#[test]
fn differential_ascending_and_descending_sequential() {
    let up: Vec<(u64, u64)> = (0..128).map(|i| (i * PAGE, PAGE)).collect();
    differential_pattern("ascending", 1 << 20, &up);
    let down: Vec<(u64, u64)> = up.iter().rev().copied().collect();
    differential_pattern("descending", 1 << 20, &down);
    // Two interleaved ascending streams leave a gap that closes late.
    let mut both = Vec::new();
    for i in 0..64 {
        both.push((i * PAGE, PAGE));
        both.push(((200 - i) * PAGE, PAGE));
    }
    differential_pattern("interleaved", 1 << 20, &both);
}

#[test]
fn differential_interior_overwrite_and_exact_replace() {
    let mut ops = vec![(0, 64 * PAGE)];
    // Interior overwrites, aligned and not, nested and overlapping.
    ops.extend([
        (8 * PAGE, PAGE),
        (8 * PAGE + 100, 200),
        (20 * PAGE, 9 * PAGE),
    ]);
    ops.extend([(7 * PAGE + 1, 3 * PAGE), (30 * PAGE - 1, 2)]);
    // Exact replaces of the whole run, of a piece the splits left, of a
    // page, then a superset.
    ops.extend([(0, 64 * PAGE), (8 * PAGE, PAGE), (8 * PAGE, PAGE)]);
    ops.extend([(0, 9 * PAGE), (0, 9 * PAGE), (0, 100 * PAGE)]);
    differential_pattern("interior + exact", 1 << 20, &ops);
}

// ---------------------------------------------------------------------
// The non-chaining merge rule, by name
// ---------------------------------------------------------------------

fn extents(m: &RangeMap) -> Vec<(u64, u64)> {
    m.iter().map(|e| (e.off(), e.len())).collect()
}

/// Modelled state, not a bug to fix here: an interior overwrite of `[k, e)`
/// by `[off, end)` merges the new range with the left remainder only — the
/// `(new, right remainder)` pair is skipped because `new` was just merged
/// away. Changing this moves `work_items`, and with it every golden.
#[test]
fn interior_overwrite_leaves_two_entries() {
    for disc in [Discipline::Overwrite, Discipline::Xor] {
        let mut m = RangeMap::new();
        m.insert_with(0, real(1, 100), disc);
        m.insert_with(40, real(2, 20), disc);
        assert_eq!(extents(&m), [(0, 60), (60, 40)], "{disc:?}");
        // Stable under a repeat, and an exact replace of the right piece
        // heals the seam.
        m.insert_with(40, real(3, 20), disc);
        assert_eq!(extents(&m), [(0, 60), (60, 40)], "{disc:?}");
        m.insert_with(60, real(4, 40), disc);
        assert_eq!(extents(&m), [(0, 100)], "{disc:?}");
    }
}

/// Four exactly adjacent same-kind entries merge as two pairs, not as one
/// chain: `(a, b)` merges, `(b, c)` is skipped, `(c, d)` merges.
#[test]
fn four_adjacent_merge_pairwise() {
    let mut m = RangeMap::new();
    m.insert(0, real(1, 10)); // a
    m.insert(20, real(3, 10)); // c
    m.insert_absent(10, real(9, 30)); // fills b = [10, 20) and d = [30, 40)
    assert_eq!(extents(&m), [(0, 20), (20, 20)]);
    let mut buf = [0u8; 40];
    assert!(m.overlay(0, 40, Some(&mut buf)));
    assert_eq!(buf[..10], [1; 10]);
    assert_eq!(buf[10..20], [9; 10]);
    assert_eq!(buf[20..30], [3; 10]);
    assert_eq!(buf[30..], [9; 10]);
}

// ---------------------------------------------------------------------
// The copy budget, as a count
// ---------------------------------------------------------------------

/// Bytes deep-copied by 10 000 random (unaligned) 4 KiB inserts into one
/// 1 MiB run and the final drain.
fn copied_by_random_inserts(disc: Discipline) -> u64 {
    let mut rng = Rng(4096);
    let mut m = RangeMap::new();
    m.insert_with(0, Chunk::real(rng.bytes(1 << 20)), disc);
    tsue_buf::take_stats();
    for _ in 0..10_000 {
        let off = rng.below((1 << 20) - PAGE + 1);
        m.insert_with(
            off,
            Chunk::real(vec![rng.next() as u8; PAGE as usize]),
            disc,
        );
    }
    let drained: u64 = m.drain().iter().map(|(_, c)| c.len).sum();
    assert_eq!(drained, 1 << 20);
    tsue_buf::take_stats().bytes_copied
}

#[test]
fn random_inserts_into_a_run_copy_at_most_twice_the_new_bytes() {
    let inserted = 10_000 * PAGE;
    for disc in [Discipline::Overwrite, Discipline::Xor] {
        let copied = copied_by_random_inserts(disc);
        assert!(
            copied <= 2 * inserted,
            "{disc:?}: {copied} bytes copied for {inserted} inserted"
        );
    }
}

#[test]
fn sequential_appends_copy_each_byte_at_most_once() {
    let mut rng = Rng(1);
    let mut m = RangeMap::new();
    tsue_buf::take_stats();
    for i in 0..256 {
        m.insert(i * PAGE, Chunk::real(rng.bytes(PAGE as usize)));
    }
    assert_eq!(m.len(), 1);
    assert_eq!(
        tsue_buf::take_stats().bytes_copied,
        0,
        "appends copy nothing"
    );
    let drained = m.drain();
    assert_eq!(drained.len(), 1);
    let s = tsue_buf::take_stats();
    assert!(
        s.bytes_copied <= 256 * PAGE,
        "{} bytes copied",
        s.bytes_copied
    );
    assert_eq!(s.deep_copies, 1, "one gather per run");
    // Appends sliced from one buffer re-join by handle: nothing to gather.
    let whole = tsue_buf::Bytes::from(rng.bytes(1 << 20));
    for i in 0..256 {
        m.insert(
            i * PAGE,
            Chunk::real(whole.slice((i * PAGE) as usize, PAGE as usize)),
        );
    }
    assert_eq!(m.drain()[0].1.bytes.as_ref(), Some(&whole));
    assert_eq!(tsue_buf::take_stats().bytes_copied, 0);
}

#[test]
fn repeated_xor_of_one_page_folds_in_place() {
    let mut rng = Rng(3);
    let mut m = RangeMap::new();
    m.insert_xor(0, Chunk::real(rng.bytes(16 * PAGE as usize)));
    m.insert_xor(4 * PAGE, Chunk::real(rng.bytes(PAGE as usize))); // cuts the page out
    tsue_buf::take_stats();
    for _ in 0..100 {
        m.insert_xor(4 * PAGE, Chunk::real(rng.bytes(PAGE as usize)));
    }
    assert_eq!(tsue_buf::take_stats().bytes_copied, 0);
    assert_eq!(extents(&m), [(0, 5 * PAGE), (5 * PAGE, 11 * PAGE)]);
}

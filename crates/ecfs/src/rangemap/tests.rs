//! Unit tests of [`RangeMap`]: behavioural tests, differential tests
//! against a byte model — whose maximal same-kind runs are the entries of a
//! map in canonical form — the merge rule by name, and the copy budget.

use super::*;

/// The content of `b`, streamed.
fn contents(b: &tsue_buf::Bytes) -> Vec<u8> {
    let mut v = vec![0u8; b.len()];
    b.read_into(0, &mut v);
    v
}

fn real(byte: u8, len: usize) -> Chunk {
    Chunk::real(vec![byte; len])
}

#[test]
fn overwrite_newest_wins() {
    let mut c = Case::new(30, 1);
    c.put(10, real(1, 10), Discipline::Overwrite); // [10,20) = 1
    c.put(15, real(2, 10), Discipline::Overwrite); // [15,25) = 2
    c.check("newest wins");
    assert_eq!(c.map.covered_bytes(), 15);
    assert_eq!(
        c.model.overlay(10, 15),
        (true, [&[1; 5][..], &[2; 10]].concat())
    );
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
    let mut c = Case::new(25, 2);
    c.put(10, real(1, 10), Discipline::Absent);
    c.put(5, real(2, 10), Discipline::Absent); // only [5,10) takes
    c.check("first wins");
    assert_eq!(
        c.model.overlay(5, 15),
        (true, [&[2; 5][..], &[1; 10]].concat())
    );
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
    let drained: Vec<u64> = m.drain_runs().iter().map(|e| e.off()).collect();
    assert_eq!(drained, [10, 20, 30]);
    assert!(m.is_empty());
    assert_eq!(m.covered_bytes(), 0);
}

#[test]
fn randomized_against_reference_model() {
    // Deterministic pseudo-random fuzz of Overwrite mode vs the byte model.
    let mut c = Case::new(256, 3);
    let mut x: u64 = 0x12345;
    for i in 0..500 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let off = (x >> 16) % 200;
        let len = 1 + ((x >> 40) % 40);
        let val = (i % 251) as u8;
        c.put(off, real(val, len as usize), Discipline::Overwrite);
    }
    c.finish("overwrite fuzz");
}

#[test]
fn xor_randomized_against_reference() {
    let mut c = Case::new(200, 4);
    let mut x: u64 = 99;
    for _ in 0..300 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let off = (x >> 16) % 150;
        let len = 1 + ((x >> 40) % 30);
        let val = (x >> 8) as u8;
        c.put(off, real(val, len as usize), Discipline::Xor);
    }
    c.finish("xor fuzz");
}

// ---------------------------------------------------------------------
// Differential tests against the byte model
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

/// One byte offset of the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cell {
    Empty,
    Ghost,
    Real(u8),
}

/// An entry as the model derives it: offset, length, bytes (none for a
/// ghost).
type ModelEntry = (u64, u64, Option<Vec<u8>>);

/// Reference model: one [`Cell`] per byte of `[0, span)`.
struct Model {
    cells: Vec<Cell>,
    /// Cells that are not [`Cell::Empty`] (a covered byte never empties).
    covered: u64,
}

impl Model {
    fn new(span: u64) -> Self {
        Model {
            cells: vec![Cell::Empty; span as usize],
            covered: 0,
        }
    }

    /// What `insert_with(off, chunk, disc)` does to each byte: XOR with a
    /// ghost on either side leaves a ghost.
    fn insert(&mut self, off: u64, chunk: &Chunk, disc: Discipline) {
        let bytes = chunk.bytes.as_ref().map(contents);
        for i in 0..chunk.len as usize {
            let new = bytes.as_ref().map_or(Cell::Ghost, |b| Cell::Real(b[i]));
            let cell = &mut self.cells[off as usize + i];
            self.covered += u64::from(*cell == Cell::Empty);
            *cell = match (disc, *cell, new) {
                (_, Cell::Empty, _) | (Discipline::Overwrite, _, _) => new,
                (Discipline::Absent, old, _) => old,
                (Discipline::Xor, Cell::Real(a), Cell::Real(b)) => Cell::Real(a ^ b),
                (Discipline::Xor, _, _) => Cell::Ghost,
            };
        }
    }

    /// The maximal runs of adjacent coverage of one kind, in offset order:
    /// exactly the entries of a map in canonical form.
    fn entries(&self) -> Vec<ModelEntry> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.cells.len() {
            if self.cells[i] == Cell::Empty {
                i += 1;
                continue;
            }
            let (start, real) = (i, matches!(self.cells[i], Cell::Real(_)));
            let mut bytes = Vec::new();
            while i < self.cells.len() {
                match self.cells[i] {
                    Cell::Real(b) if real => bytes.push(b),
                    Cell::Ghost if !real => {}
                    _ => break,
                }
                i += 1;
            }
            out.push((start as u64, (i - start) as u64, real.then_some(bytes)));
        }
        out
    }

    /// What `overlay(off, len, buf)` reports and leaves in a buffer
    /// pre-filled with `0xEE`.
    fn overlay(&self, off: u64, len: u64) -> (bool, Vec<u8>) {
        let cells = &self.cells[off as usize..(off + len) as usize];
        let bytes = cells
            .iter()
            .map(|c| match c {
                Cell::Real(b) => *b,
                _ => 0xEE,
            })
            .collect();
        (!cells.contains(&Cell::Empty), bytes)
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

/// Canonical form, read off the map alone: no entry is exactly adjacent
/// to a neighbour of its own kind.
fn assert_canonical(m: &RangeMap, ctx: &str) {
    for w in m.iter().collect::<Vec<_>>().windows(2) {
        assert!(
            w[0].off() + w[0].len() < w[1].off() || w[0].is_real() != w[1].is_real(),
            "entries at {} and {} should have merged {ctx}",
            w[0].off(),
            w[1].off()
        );
    }
}

/// Entries and counters against the model's maximal runs; bytes through
/// `overlay` over the whole span and a few sub-ranges, through the segment
/// view and `copy_to`; `covered_until` against the model's coverage.
fn check_against_model(map: &RangeMap, model: &Model, rng: &mut Rng, ctx: &str) {
    check_invariants(map);
    assert_canonical(map, ctx);
    let want = model.entries();
    let got: Vec<(u64, u64, bool)> = map
        .iter()
        .map(|e| (e.off(), e.len(), e.is_real()))
        .collect();
    let kinds: Vec<(u64, u64, bool)> = want.iter().map(|(o, l, b)| (*o, *l, b.is_some())).collect();
    assert_eq!(got, kinds, "entries {ctx}");
    assert_eq!(map.len(), want.len(), "len {ctx}");
    assert_eq!(map.covered_bytes(), model.covered, "covered {ctx}");
    assert_eq!(map.is_empty(), want.is_empty(), "is_empty {ctx}");
    let span = model.cells.len() as u64;
    let mut ranges = vec![(0, span)];
    for _ in 0..4 {
        let off = rng.below(span);
        ranges.push((off, 1 + rng.below(span - off)));
    }
    for (off, len) in ranges {
        let (covered, bytes) = model.overlay(off, len);
        let mut buf = vec![0xEE; len as usize];
        let got = map.overlay(off, len, Some(&mut buf));
        assert_eq!(got, covered, "coverage of [{off}, +{len}) {ctx}");
        assert_eq!(map.overlay(off, len, None), covered, "bufferless {ctx}");
        assert_eq!(map.covered_until(off, off + len) >= off + len, covered);
        assert!(buf == bytes, "overlay bytes of [{off}, +{len}) {ctx}");
    }
    for (e, (_, _, bytes)) in map.iter().zip(&want) {
        let want = bytes.as_deref().unwrap_or(&[]);
        let mut joined = Vec::new();
        e.chunks()
            .filter_map(|(_, c)| c.bytes.as_ref().map(contents))
            .for_each(|b| joined.extend_from_slice(&b));
        assert!(joined == want, "segment view {ctx}");
        let mut copied = vec![0u8; e.len() as usize];
        e.copy_to(&mut copied);
        assert!(!e.is_real() || copied == want, "copy_to {ctx}");
    }
}

/// Every entry as one chunk ([`Entry::chunk`]) holds the model's entry,
/// and copies nothing; so does `drain_runs` (on a clone) once its
/// segments are concatenated, and `drain_runs` itself.
fn check_drain(map: &mut RangeMap, model: &Model, ctx: &str) {
    let flat = |map: &RangeMap| -> Vec<ModelEntry> {
        map.iter()
            .map(|e| {
                let c = e.chunk();
                (e.off(), c.len, c.bytes.as_ref().map(contents))
            })
            .collect()
    };
    let want = model.entries();
    let before = tsue_buf::stats();
    let chunks: Vec<Chunk> = map.iter().map(|e| e.chunk()).collect();
    let s = tsue_buf::stats().since(&before);
    assert_eq!((s.pool_misses, s.bytes_copied), (0, 0), "chunk {ctx}");
    drop(chunks);
    assert!(flat(map) == want, "chunk {ctx}");
    check_invariants(map);
    assert_released_keeps_extents(map, ctx);
    let mut copy = map.clone();
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
                if let Some(b) = &c.bytes {
                    bytes.extend_from_slice(&contents(b));
                }
                at += c.len;
            }
            (e.off(), e.len(), e.is_real().then_some(bytes))
        })
        .collect();
    assert!(concatenated == want, "drain_runs {ctx}");
    map.drain_runs();
    assert!(map.is_empty());
    assert_eq!((map.len(), map.covered_bytes()), (0, 0));
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

fn extents(m: &RangeMap) -> Vec<(u64, u64)> {
    m.iter().map(|e| (e.off(), e.len())).collect()
}

/// A map under test and its model, fed the same inserts.
struct Case {
    map: RangeMap,
    model: Model,
    /// Two span-sized arenas: chunks sliced from one arena are contiguous
    /// views that `try_join` can fuse.
    arenas: [tsue_buf::Bytes; 2],
    rng: Rng,
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

impl Case {
    fn new(span: u64, seed: u64) -> Self {
        let mut rng = Rng(seed);
        let arenas = [
            rng.bytes(span as usize).into(),
            rng.bytes(span as usize).into(),
        ];
        Case {
            map: RangeMap::new(),
            model: Model::new(span),
            arenas,
            rng,
        }
    }

    fn insert(&mut self, off: u64, len: u64, payload: Payload, disc: Discipline) {
        let chunk = match payload {
            Payload::Ghost => Chunk::ghost(len),
            Payload::Fresh(seed) => Chunk::real(Rng(seed).bytes(len as usize)),
            Payload::Arena(i) => Chunk::real(self.arenas[i].slice(off as usize, len as usize)),
        };
        self.put(off, chunk, disc);
    }

    /// Inserts `chunk` into the model, then moves it into the map (a clone
    /// would hide the in-place XOR path behind copy-on-write). Checks the
    /// shape after every insert; the entries and bytes are [`Case::check`].
    fn put(&mut self, off: u64, chunk: Chunk, disc: Discipline) {
        let ctx = format!("after {disc:?} [{off}, +{})", chunk.len);
        self.model.insert(off, &chunk, disc);
        self.map.insert_with(off, chunk, disc);
        check_invariants(&self.map);
        assert_canonical(&self.map, &ctx);
        assert_eq!(
            self.map.covered_bytes(),
            self.model.covered,
            "covered {ctx}"
        );
    }

    fn check(&mut self, ctx: &str) {
        check_against_model(&self.map, &self.model, &mut self.rng, ctx);
    }

    fn finish(mut self, ctx: &str) {
        self.check(ctx);
        check_drain(&mut self.map, &self.model, ctx);
    }
}

const DISCIPLINES: [Discipline; 3] = [Discipline::Overwrite, Discipline::Absent, Discipline::Xor];

#[test]
fn differential_seeded_sequences() {
    // 72 maps × 150 inserts = 10 800: every (discipline mode, kind mode)
    // pair at small (1 B..=512 B over 4 KiB, checked against the model
    // after every insert) and large (1 B..=128 KiB over 1 MiB, every 10th)
    // scale.
    let mut rng = Rng(0x7505E);
    let mut inserts = 0;
    for map in 0..72u64 {
        let (disc_mode, kind_mode, large) = (map % 4, (map / 4) % 3, (map / 12) % 3 == 2);
        let (span, max_len, every) = if large {
            (1 << 20, 128 << 10, 10)
        } else {
            (4 << 10, 512, 1)
        };
        let mut case = Case::new(span, rng.next());
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
            case.insert(off, len, payload, disc);
            inserts += 1;
            if i % every == 0 {
                case.check(&format!("map {map} insert {i}"));
            }
        }
        case.finish(&format!("map {map}"));
    }
    assert!(inserts >= 10_000);
}

/// Runs one offset pattern under every discipline, real (own buffers and
/// arena views) and ghost.
fn differential_pattern(name: &str, span: u64, ops: &[(u64, u64)]) {
    let mut rng = Rng(span ^ ops.len() as u64);
    for disc in DISCIPLINES {
        for kind in 0..3 {
            let mut case = Case::new(span, rng.next());
            for (i, &(off, len)) in ops.iter().enumerate() {
                let payload = match kind {
                    0 => Payload::Ghost,
                    1 => Payload::Fresh(rng.next()),
                    _ => Payload::Arena(i % 2),
                };
                case.insert(off, len, payload, disc);
                if i % 16 == 0 {
                    case.check(name);
                }
            }
            case.finish(name);
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
    // Exact replaces of the whole run, of a page, then a superset.
    ops.extend([(0, 64 * PAGE), (8 * PAGE, PAGE), (8 * PAGE, PAGE)]);
    ops.extend([(0, 9 * PAGE), (0, 9 * PAGE), (0, 100 * PAGE)]);
    differential_pattern("interior + exact", 1 << 20, &ops);
}

// ---------------------------------------------------------------------
// The merge rule, by name
// ---------------------------------------------------------------------

/// An interior overwrite of a run merges with both remainders: the entry
/// count, which feeds `work_items`, does not grow with rewrites inside a
/// run. A ghost inside a real run is a kind change, so it stands apart
/// until real bytes replace it.
#[test]
fn interior_overwrite_leaves_one_entry() {
    for disc in [Discipline::Overwrite, Discipline::Xor] {
        let mut m = RangeMap::new();
        m.insert_with(0, real(1, 100), disc);
        m.insert_with(40, real(2, 20), disc);
        assert_eq!(extents(&m), [(0, 100)], "{disc:?}");
        m.insert_with(40, real(3, 20), disc);
        assert_eq!(extents(&m), [(0, 100)], "{disc:?}");
        m.insert_with(60, real(4, 40), disc);
        assert_eq!(extents(&m), [(0, 100)], "{disc:?}");
    }
    let mut m = RangeMap::new();
    m.insert(0, real(1, 100));
    m.insert(40, Chunk::ghost(20));
    assert_eq!(extents(&m), [(0, 40), (40, 20), (60, 40)]);
    m.insert(40, real(5, 20));
    assert_eq!(extents(&m), [(0, 100)]);
}

/// Four exactly adjacent same-kind pieces, two of them filled in by one
/// insert, merge as one chain.
#[test]
fn four_adjacent_merge_into_one() {
    let mut m = RangeMap::new();
    m.insert(0, real(1, 10)); // a
    m.insert(20, real(3, 10)); // c
    m.insert_absent(10, real(9, 30)); // fills b = [10, 20) and d = [30, 40)
    assert_eq!(extents(&m), [(0, 40)]);
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
    let drained: u64 = m.drain_runs().iter().map(|e| e.chunk().len).sum();
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
    let runs = m.drain_runs();
    let run = runs.iter().next().expect("one run");
    let concat = run.chunk();
    assert_eq!(concat.len, 256 * PAGE);
    let s = tsue_buf::take_stats();
    assert_eq!(
        (s.pool_misses, s.deep_copies),
        (0, 0),
        "the run's chunk concatenates its handles"
    );
    // Read, it is the run's bytes, back to back.
    let mut copied = vec![0u8; concat.len as usize];
    run.copy_to(&mut copied);
    assert!(concat.bytes.expect("real") == copied);
    // Appends sliced from one buffer re-join by handle: the run is one
    // segment, and its chunk is the buffer itself.
    let whole = tsue_buf::Bytes::from(rng.bytes(1 << 20));
    for i in 0..256 {
        m.insert(
            i * PAGE,
            Chunk::real(whole.slice((i * PAGE) as usize, PAGE as usize)),
        );
    }
    let runs = m.drain_runs();
    let run = runs.iter().next().expect("one run");
    assert_eq!(run.chunk().bytes.as_ref(), Some(&whole));
    assert_eq!(tsue_buf::take_stats().bytes_copied, 0);
}

/// The first XOR into the page cuts it out of the run and copies it once;
/// every later one folds into that copy in place. The page merges back
/// into the run each time, so the map stays one entry.
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
    assert_eq!(extents(&m), [(0, 16 * PAGE)]);
}

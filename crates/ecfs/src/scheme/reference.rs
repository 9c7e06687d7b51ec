//! Test-only reference: the eager Eq. (5) combination that
//! [`stripe_parity_delta`] replaced — every same-span group of data deltas
//! multiplied into a new buffer per parity and XOR-folded into a map —
//! kept so the differential test below can hold the deferred entries to
//! the same extents and the same bytes.

use super::{stripe_parity_delta, Chunk};
use crate::rangemap::RangeMap;
use std::collections::BTreeMap;
use tsue_buf::{Bytes, BytesMut};
use tsue_ec::RsCode;
use tsue_integrity::SplitRng;

/// The eager combination for `parity_index`: same-span contributions go
/// through one fused multiply-accumulate pass into one new buffer, ghosts
/// fold in as ghosts, and the map's XOR discipline does the rest.
fn eager_parity_delta(
    rs: &RsCode,
    parity_index: usize,
    roles: &[(usize, Vec<(u64, Chunk)>)],
) -> RangeMap {
    let mut combined = RangeMap::new();
    let mut spans: BTreeMap<_, Vec<(usize, Bytes)>> = BTreeMap::new();
    for (role, ranges) in roles {
        for (off, c) in ranges {
            let off = *off;
            match &c.bytes {
                Some(b) => spans
                    .entry((off, c.len))
                    .or_default()
                    .push((*role, b.clone().into_built())),
                None => combined.insert_xor(off, Chunk::ghost(c.len)),
            }
        }
    }
    for ((off, len), built) in spans {
        let contribs: Vec<(usize, &[u8])> = built
            .iter()
            .map(|(r, b)| (*r, b.as_slice().expect("built")))
            .collect();
        let mut acc = BytesMut::take(len as usize);
        rs.fill_combined_parity_delta(parity_index, &contribs, acc.as_mut());
        combined.insert_xor(off, Chunk::real(acc.freeze()));
    }
    combined
}

/// How one role's deltas fall against the others'.
#[derive(Clone, Copy, Debug)]
enum Layout {
    /// Every role logs the same span.
    Identical,
    /// Role `i` logs the span after role `i - 1`'s, edge to edge.
    Adjacent,
    /// Roles log far-apart spans.
    Disjoint,
    /// Several random extents per role, overlapping within and across.
    Overlapping,
}

/// `n` bytes of a delta: random, or a client payload, a deferred buffer
/// that something streams.
fn delta_bytes(rng: &mut SplitRng, n: u64) -> Bytes {
    if rng.below(4) == 0 {
        crate::payload::payload_bytes(rng.next_u64(), 0, n)
    } else {
        Bytes::from((0..n).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>())
    }
}

/// A role's data-delta map: `extents` XOR-folded in; each is a ghost
/// when `ghost` says so, otherwise a few separately built pieces, so
/// runs are made of several segments.
fn role_map(rng: &mut SplitRng, extents: &[(u64, u64)], ghost: bool) -> RangeMap {
    let mut map = RangeMap::new();
    for &(off, len) in extents {
        if ghost {
            map.insert_xor(off, Chunk::ghost(len));
            continue;
        }
        let mut at = off;
        while at < off + len {
            let n = (1 + rng.below(len)).min(off + len - at);
            map.insert_xor(at, Chunk::real(delta_bytes(rng, n)));
            at += n;
        }
    }
    map
}

/// A random extent inside the first 20 KiB, so pages get straddled.
fn extent(rng: &mut SplitRng) -> (u64, u64) {
    (rng.below(16 << 10), 1 + rng.below(5000))
}

/// One seeded stripe: `n` contributing roles of `k`, laid out by
/// `layout`. `ghosts` 0 makes every role real, 1 about a third of them
/// timing-only, 2 all of them.
fn stripe(
    rng: &mut SplitRng,
    k: usize,
    n: usize,
    layout: Layout,
    ghosts: u64,
) -> Vec<(usize, RangeMap)> {
    let mut roles: Vec<usize> = (0..k).collect();
    for i in (1..k).rev() {
        roles.swap(i, rng.below(i as u64 + 1) as usize);
    }
    roles.truncate(n);
    roles.sort_unstable();
    let (base, len) = extent(rng);
    roles
        .iter()
        .enumerate()
        .map(|(i, &role)| {
            let i = i as u64;
            let extents = match layout {
                Layout::Identical => vec![(base, len)],
                Layout::Adjacent => vec![(base + i * len, len)],
                Layout::Disjoint => vec![(i * (64 << 10) + base, len)],
                Layout::Overlapping => (0..1 + rng.below(4)).map(|_| extent(rng)).collect(),
            };
            let ghost = match ghosts {
                0 => false,
                1 => rng.below(3) == 0,
                _ => true,
            };
            (role, role_map(rng, &extents, ghost))
        })
        .collect()
}

/// A parity's entries as `(offset, length, bytes unless a ghost)`.
type Entries = Vec<(u64, u64, Option<Vec<u8>>)>;

/// The windows of an entry at `off` that a parity delta is read
/// through: whole, across every 4 KiB edge of the entry and of the block
/// (the store's pages) from both sides, and a few random ones.
fn windows(rng: &mut SplitRng, off: u64, len: usize) -> Vec<(usize, usize)> {
    let mut w = vec![(0, len)];
    let block_edges = (off as usize / 4096 + 1) * 4096 - off as usize;
    for edge in (4096..len)
        .step_by(4096)
        .chain((block_edges..len).step_by(4096))
    {
        for back in [1, 100.min(edge)] {
            let at = edge - back;
            w.push((at, (2 * back).min(len - at)));
        }
    }
    for _ in 0..4 {
        let at = rng.below(len as u64) as usize;
        let n = 1 + rng.below((len - at) as u64) as usize;
        w.push((at, n));
    }
    w
}

#[test]
fn deferred_combination_matches_the_eager_reference() {
    let (k, m) = (6, 3);
    let rs = RsCode::new(k, m).expect("valid code");
    let layouts = [
        Layout::Identical,
        Layout::Adjacent,
        Layout::Disjoint,
        Layout::Overlapping,
    ];
    let mut rng = SplitRng::new(0x5eed);
    let mut real_entries = 0;
    for case in 0..240 {
        let layout = layouts[case % layouts.len()];
        let n = 1 + case / layouts.len() % k;
        // Ghost-only every tenth case, a ghost mix every fifth.
        let ghosts = [2, 0, 0, 0, 0, 1, 0, 0, 0, 0][case % 10];
        let roles = stripe(&mut rng, k, n, layout, ghosts);
        let views: Vec<(usize, &RangeMap)> = roles.iter().map(|(r, m)| (*r, m)).collect();
        let entries = stripe_parity_delta(&views);
        let before = tsue_buf::stats();
        let mut got: Vec<Entries> = Vec::new();
        for j in 0..m {
            let mut per_parity = Vec::new();
            for e in &entries {
                let delta = e.parity_delta(&rs, j);
                assert_eq!(delta.len, e.len);
                let whole = delta.bytes.as_ref().map(|b| {
                    let mut whole = vec![0xa5u8; b.len()];
                    b.read_into(0, &mut whole);
                    for (at, n) in windows(&mut rng, e.off, b.len()) {
                        let mut part = vec![0x5au8; n];
                        b.read_into(at, &mut part);
                        assert_eq!(part, whole[at..at + n], "case {case} window {at}+{n}");
                    }
                    whole
                });
                per_parity.push((e.off, e.len, whole));
            }
            got.push(per_parity);
        }
        let d = tsue_buf::stats().since(&before);
        assert_eq!(d.pool_misses, 0, "case {case}: {d:?}");
        // Now the reference, over the same handles, each entry one chunk.
        let chunks: Vec<(usize, Vec<(u64, Chunk)>)> = roles
            .iter()
            .map(|(r, m)| (*r, m.iter().map(|e| (e.off(), e.chunk())).collect()))
            .collect();
        for (j, per_parity) in got.into_iter().enumerate() {
            let want: Entries = eager_parity_delta(&rs, j, &chunks)
                .iter()
                .map(|e| {
                    let bytes = e.is_real().then(|| {
                        let mut b = vec![0u8; e.len() as usize];
                        e.copy_to(&mut b);
                        b
                    });
                    (e.off(), e.len(), bytes)
                })
                .collect();
            real_entries += want.iter().filter(|w| w.2.is_some()).count();
            assert_eq!(
                per_parity.len(),
                want.len(),
                "case {case} parity {j}: entry count"
            );
            for (g, w) in per_parity.iter().zip(&want) {
                assert_eq!((g.0, g.1), (w.0, w.1), "case {case} parity {j}: extent");
                assert!(g.2 == w.2, "case {case} parity {j} entry {}: bytes", g.0);
            }
        }
    }
    assert!(
        real_entries > 500,
        "the cases reach real entries: {real_entries}"
    );
}

#[test]
fn a_borrow_fills_the_same_bytes_the_windows_stream() {
    let rs = RsCode::new(4, 2).expect("valid code");
    let mut rng = SplitRng::new(7);
    let roles = stripe(&mut rng, 4, 3, Layout::Overlapping, 0);
    let views: Vec<(usize, &RangeMap)> = roles.iter().map(|(r, m)| (*r, m)).collect();
    for e in stripe_parity_delta(&views) {
        let b = e.parity_delta(&rs, 1).bytes.expect("real");
        let mut streamed = vec![0u8; b.len()];
        for (at, dst) in (0..).step_by(100).zip(streamed.chunks_mut(100)) {
            b.read_into(at, dst);
        }
        assert_eq!(b.into_built().as_slice(), Some(&streamed[..]));
    }
}

#[test]
fn empty_and_ghost_only_stripes() {
    assert!(stripe_parity_delta(&[]).is_empty());
    let (a, b) = (RangeMap::new(), {
        let mut m = RangeMap::new();
        m.insert_xor(100, Chunk::ghost(50));
        m.insert_xor(150, Chunk::ghost(50));
        m
    });
    let entries = stripe_parity_delta(&[(0, &a), (2, &b)]);
    assert_eq!(entries.len(), 1);
    assert_eq!((entries[0].off, entries[0].len), (100, 100));
    let rs = RsCode::new(4, 2).expect("valid code");
    assert_eq!(entries[0].parity_delta(&rs, 0), Chunk::ghost(100));
}

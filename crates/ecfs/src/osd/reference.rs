//! Test-only reference store: one block as flat, fully allocated bytes
//! with a range-scanning checksum table — the representation the paged
//! [`Osd`] store replaced — kept so the differential test below can hold
//! the paged store to the same bytes, verification results, corrupt-page
//! lists, digests and taint after every operation, and its copy-on-write
//! reads and deltas to the bytes they saw.

use super::{BlockId, Osd, MAX_VIEW_DEPTH};
use crate::scheme::Combination;
use std::ops::Range;
use tsue_buf::Bytes;
use tsue_device::{Device, SsdModel};
use tsue_integrity::{checksum, IntegrityError, SplitRng, PAGE};

/// One block's bytes and checksum table, flat.
struct FlatBlock {
    data: Vec<u8>,
    /// Per-page digests and taint flags; `None` with checksums off.
    sums: Option<(Vec<u64>, Vec<bool>)>,
    /// Set when a delta capture read a corrupt source range.
    poisoned: bool,
}

impl FlatBlock {
    fn new(len: u64, checksums: bool) -> Self {
        let data = vec![0u8; len as usize];
        let sums = checksums.then(|| {
            let digests = data.chunks(PAGE as usize).map(checksum).collect::<Vec<_>>();
            let tainted = vec![false; digests.len()];
            (digests, tainted)
        });
        FlatBlock {
            data,
            sums,
            poisoned: false,
        }
    }

    /// Byte range of `page`.
    fn page_range(&self, page: usize) -> Range<usize> {
        let s = page * PAGE as usize;
        s..(s + PAGE as usize).min(self.data.len())
    }

    /// Pages overlapping `[off, off + len)`.
    fn pages_of(off: u64, len: u64) -> Range<usize> {
        if len == 0 {
            return 0..0;
        }
        (off / PAGE) as usize..((off + len - 1) / PAGE) as usize + 1
    }

    /// Audits the pre-image: taints each page about to fold corruption
    /// into its digest, and clears the taint of a page an overwrite
    /// covers whole.
    fn pre_write_scan(&mut self, off: u64, len: u64, overwrite: bool) {
        for page in Self::pages_of(off, len) {
            let r = self.page_range(page);
            let covered = off as usize <= r.start && (off + len) as usize >= r.end;
            let got = checksum(&self.data[r]);
            if let Some((digests, tainted)) = self.sums.as_mut() {
                if overwrite && covered {
                    tainted[page] = false;
                } else if !tainted[page] && got != digests[page] {
                    tainted[page] = true;
                }
            }
        }
    }

    fn update_range(&mut self, off: u64, len: u64) {
        for page in Self::pages_of(off, len) {
            let got = checksum(&self.data[self.page_range(page)]);
            if let Some((digests, _)) = self.sums.as_mut() {
                digests[page] = got;
            }
        }
    }

    fn bracket(&mut self, off: u64, len: u64, overwrite: bool, mutate: impl FnOnce(&mut [u8])) {
        self.pre_write_scan(off, len, overwrite);
        mutate(&mut self.data[off as usize..(off + len) as usize]);
        self.update_range(off, len);
    }

    fn verify_range(&self, off: u64, len: u64) -> Result<(), IntegrityError> {
        let Some((digests, tainted)) = &self.sums else {
            return Ok(());
        };
        for page in Self::pages_of(off, len) {
            if tainted[page] {
                return Err(IntegrityError::TaintedPage { page });
            }
            let got = checksum(&self.data[self.page_range(page)]);
            if got != digests[page] {
                return Err(IntegrityError::CorruptPage {
                    page,
                    expect: digests[page],
                    got,
                });
            }
        }
        Ok(())
    }

    fn corrupt_pages(&self) -> Vec<usize> {
        let Some((digests, tainted)) = &self.sums else {
            return Vec::new();
        };
        (0..digests.len())
            .filter(|&p| tainted[p] || checksum(&self.data[self.page_range(p)]) != digests[p])
            .collect()
    }

    fn poke(&mut self, off: u64, src: &[u8]) {
        self.bracket(off, src.len() as u64, true, |d| d.copy_from_slice(src));
    }

    fn xor(&mut self, off: u64, delta: &[u8]) {
        self.bracket(off, delta.len() as u64, false, |d| {
            d.iter_mut().zip(delta).for_each(|(a, b)| *a ^= b);
        });
    }

    fn delta_poke(&mut self, off: u64, new: &[u8]) -> Vec<u8> {
        let len = new.len() as u64;
        self.poisoned |= self.verify_range(off, len).is_err();
        let mut delta = Vec::new();
        self.bracket(off, len, true, |d| {
            delta = d.iter().zip(new).map(|(a, b)| a ^ b).collect();
            d.copy_from_slice(new);
        });
        delta
    }

    fn corrupt_bits(&mut self, rng: &mut SplitRng, flips: usize) {
        for _ in 0..flips {
            let byte = rng.below(self.data.len() as u64) as usize;
            let bit = rng.below(8) as u8;
            self.data[byte] ^= 1 << bit;
        }
    }
}

/// A random range of a `len`-byte block: small and page-crossing
/// extents, whole aligned pages, the whole block, and now and then an
/// empty one.
fn random_range(rng: &mut SplitRng, len: u64) -> (u64, u64) {
    match rng.below(8) {
        0 => (rng.below(len), 0),
        1 => (0, len),
        2 | 3 => {
            let pages = len.div_ceil(PAGE);
            let first = rng.below(pages);
            let n = 1 + rng.below(pages - first);
            (first * PAGE, (n * PAGE).min(len - first * PAGE))
        }
        _ => {
            let off = rng.below(len);
            (off, 1 + rng.below((len - off).min(3 * PAGE)))
        }
    }
}

/// `n` random bytes, all zero one time in four.
fn random_bytes(rng: &mut SplitRng, n: u64) -> Vec<u8> {
    let zero = rng.below(4) == 0;
    (0..n)
        .map(|_| if zero { 0 } else { rng.next_u64() as u8 })
        .collect()
}

/// The bytes of `b`, read without filling it.
fn read(b: &Bytes) -> Vec<u8> {
    let mut out = vec![0u8; b.len()];
    b.read_into(0, &mut out);
    out
}

/// A source of `bytes.len()` bytes for a write, by `kind`: the random
/// bytes in a buffer of their own; a (deferred) client payload (a whole
/// page it covers becomes a view of it); two payload pieces concatenated
/// by a recipe, as a log run hands a recycle its segments (still
/// viewable); or a read of the block itself, written back as a torn-tail
/// revert or a re-sync does (too deep to view). Rewrites `bytes` to what
/// the source reads as.
fn source(
    kind: u64,
    osd: &Osd,
    id: BlockId,
    flat: &FlatBlock,
    rng: &mut SplitRng,
    bytes: &mut [u8],
) -> Bytes {
    let n = bytes.len();
    let key = rng.next_u64();
    match kind {
        0 => Bytes::from(bytes.to_vec()),
        1 => {
            crate::payload_into(key, 1, bytes);
            crate::payload::payload_bytes(key, 1, n as u64)
        }
        2 => {
            let cut = rng.below(n as u64 + 1) as usize;
            crate::payload_into(key, 2, &mut bytes[..cut]);
            crate::payload_into(key, 3, &mut bytes[cut..]);
            let pieces = [(0, 2, cut), (cut, 3, n - cut)];
            let terms = pieces
                .into_iter()
                .map(|(at, ext, len)| (1, at, crate::payload::payload_bytes(key, ext, len as u64)))
                .collect();
            Combination::deferred(n, terms)
        }
        _ => {
            let at = rng.below(flat.data.len() as u64 - n as u64 + 1) as usize;
            bytes.copy_from_slice(&flat.data[at..at + n]);
            osd.peek_block_range(id, at as u64, n as u64)
                .expect("materialized")
        }
    }
}

/// The pages of `id` that view a deferred source: they hold no bytes.
fn deferred_pages(osd: &Osd, id: BlockId) -> Vec<usize> {
    let content = osd.content(id).expect("materialized");
    (0..content.pages.len())
        .filter(|&p| content.page(p).is_some_and(|b| b.as_slice().is_none()))
        .collect()
}

/// Reads and deltas the store handed out, each with the bytes it must
/// keep reading as whatever the store does after.
#[derive(Default)]
struct Held(Vec<(Bytes, Vec<u8>, &'static str)>);

impl Held {
    /// Holds `b`, which reads as `want`, in place of a random older one
    /// once eight are held.
    fn hold(&mut self, rng: &mut SplitRng, b: Bytes, want: Vec<u8>, what: &'static str) {
        assert!(read(&b) == want, "{what} reads as it should");
        if self.0.len() == 8 {
            self.0.swap_remove(rng.below(8) as usize);
        }
        self.0.push((b, want, what));
    }

    fn check(&self, ctx: &str) {
        for (b, want, what) in &self.0 {
            assert!(read(b) == *want, "a held {what} changed: {ctx}");
        }
    }
}

/// A seeded mix of every content-plane operation, run on the paged store
/// and on the flat reference side by side, with and without checksums,
/// on a block whose last page is short, from every kind of [`source`].
/// After every op the two agree on every byte, on verification of a
/// random range, on the corrupt-page list, and on every page's digest
/// and taint. Every read and delta the store handed out and the test
/// still holds reads as it did when it was made, whatever pokes, XORs,
/// captures, bit flips and decodes came since; and no page is deeper
/// than [`MAX_VIEW_DEPTH`]. A whole-block write of zeros leaves every
/// absent page absent. Some bit flips land in pages that view a deferred
/// source, whose digests the store derives instead of keeping: the flip
/// records the digest, so the rot is caught all the same.
#[test]
fn paged_store_matches_flat_reference() {
    let len = 5 * PAGE + 1000;
    let pages = len.div_ceil(PAGE) as usize;
    let id = BlockId {
        file: 0,
        stripe: 0,
        role: 0,
    };
    for checksums in [true, false] {
        for seed in 1..=4 {
            let mut osd = Osd::new(0, Device::new_ssd(SsdModel::datacenter(64 << 20)));
            osd.checksums = checksums;
            osd.provision_block(id, len, true);
            let mut flat = FlatBlock::new(len, checksums);
            let mut rng = SplitRng::new(seed);
            let mut held = Held::default();
            // Steps after which some page is a view.
            let mut views = 0;
            // Bit flips that landed in a view of a deferred source.
            let mut flipped_views = 0;
            for step in 0..400 {
                let ctx = format!("checksums {checksums} seed {seed} step {step}");
                let (off, n) = random_range(&mut rng, len);
                let mut bytes = random_bytes(&mut rng, n);
                let data = source(step % 4, &osd, id, &flat, &mut rng, &mut bytes);
                match rng.below(7) {
                    0 => {
                        osd.poke_block_range(id, off, &data);
                        flat.poke(off, &bytes);
                    }
                    1 => {
                        osd.xor_poke_range(id, off, &data);
                        flat.xor(off, &bytes);
                    }
                    2 => {
                        let got = osd.delta_poke_range(id, off, &data).expect("materialized");
                        held.hold(&mut rng, got, flat.delta_poke(off, &bytes), "delta");
                    }
                    3 if n == 0 => {
                        // A decode of all zeros, from its bytes: a page
                        // that was absent stays absent.
                        let resident = osd.resident_pages(id);
                        let zeros = vec![0; len as usize];
                        osd.poke_slice(id, 0, &zeros);
                        flat.poke(0, &zeros);
                        assert_eq!(osd.resident_pages(id), resident, "{ctx}");
                    }
                    3 => {
                        // A decode's output over the whole block, as a
                        // rebuild writes it: a recipe over a store read
                        // with the fresh range spliced in.
                        let end = off + n;
                        let peek = |o, n| osd.peek_block_range(id, o, n).expect("materialized");
                        let terms = vec![
                            (1, 0, peek(0, off)),
                            (1, off as usize, data.clone()),
                            (1, end as usize, peek(end, len - end)),
                        ];
                        let decoded =
                            Combination::deferred_at_depth(len as usize, terms, MAX_VIEW_DEPTH + 1);
                        osd.poke_block_range(id, 0, &decoded);
                        let mut whole = flat.data.clone();
                        whole[off as usize..end as usize].copy_from_slice(&bytes);
                        flat.poke(0, &whole);
                    }
                    4 => {
                        let flips = 1 + rng.below(3) as usize;
                        let viewed = deferred_pages(&osd, id);
                        flat.corrupt_bits(&mut rng.clone(), flips);
                        osd.corrupt_bits(id, &mut rng, flips);
                        // A flip gives the page it lands in bytes of its own.
                        let now = deferred_pages(&osd, id);
                        flipped_views += viewed.iter().filter(|p| !now.contains(p)).count();
                    }
                    5 => {
                        let got = osd.peek_block_range(id, off, n).expect("materialized");
                        assert!(got.depth() <= MAX_VIEW_DEPTH + 1, "{ctx}");
                        let want = flat.data[off as usize..(off + n) as usize].to_vec();
                        held.hold(&mut rng, got, want, "read");
                    }
                    _ => assert_eq!(
                        osd.verify_range(id, off, n),
                        flat.verify_range(off, n),
                        "{ctx}"
                    ),
                }
                held.check(&ctx);
                let all = osd.peek_block_range(id, 0, len).expect("materialized");
                assert!(read(&all) == flat.data, "{ctx}");
                let content = osd.content(id).expect("materialized");
                let deepest = content.pages.iter().flatten().map(Bytes::depth).max();
                assert!(deepest.unwrap_or(0) <= MAX_VIEW_DEPTH, "{ctx}");
                views += usize::from(deepest.unwrap_or(0) > 0);
                assert_eq!(!osd.take_poisoned().is_empty(), flat.poisoned);
                flat.poisoned = false;
                let (off, n) = random_range(&mut rng, len);
                assert_eq!(osd.verify_range(id, off, n), flat.verify_range(off, n));
                assert_eq!(osd.corrupt_pages(id), flat.corrupt_pages());
                for page in 0..pages {
                    let (digest, tainted) = match &flat.sums {
                        Some((d, t)) => (Some(d[page]), t[page]),
                        None => (None, false),
                    };
                    assert_eq!(osd.page_digest(id, page), digest, "page {page}");
                    assert_eq!(osd.page_tainted(id, page), tainted, "page {page}");
                }
            }
            assert!(views > 40, "pages become views: {views} of 400 steps");
            assert!(flipped_views > 0, "checksums {checksums} seed {seed}");
        }
    }
}

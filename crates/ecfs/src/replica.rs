//! Replicated data-log records: the cluster-side shadow of a scheme's
//! data-log appends.
//!
//! Log-buffered schemes ack an update once it is appended to the home
//! OSD's data log — which makes the log the *only* copy of the payload
//! until recycle merges it into the block. If the home dies first, a
//! stripe rebuild decodes the block from survivors *as of the last
//! merge*, silently losing every acked-but-unmerged append. To close
//! that window the scheme forwards each append to `r - 1` peers; the
//! peers park the records here, keyed by the home OSD whose log they
//! shadow, and recovery replays them onto the rebuilt block before it
//! goes live ([`crate::recovery`]). Power-loss restarts use the same
//! records to repair a torn log tail byte-exactly.
//!
//! The store keeps one logical copy of each record (content plane);
//! the durability *cost* of the extra copies — wire transfers and peer
//! log appends — is charged by the forwarding scheme (timing plane).
//! Records are pruned once the home seals-and-recycles past them: a
//! merged append is reconstructable from the block itself.

use crate::osd::BlockId;
use crate::scheme::Chunk;
use crate::Cluster;
use std::collections::VecDeque;
use tsue_device::IoKind;
use tsue_sim::Sim;

/// One replicated data-log append.
#[derive(Clone, Debug)]
pub struct ReplicaRecord {
    /// Home-log sequence number (append order; prune watermark).
    pub seq: u64,
    /// Target data block.
    pub block: BlockId,
    /// Offset within the block.
    pub off: u64,
    /// The payload (ghost in timing-only runs).
    pub data: Chunk,
}

/// All live replica records, keyed by the home OSD whose data log they
/// shadow. Owned by [`crate::ClusterCore`].
///
/// Each home's records sit in a ring sorted by `seq`: appends land at
/// the back and recycles prune from the front, so both are O(1) per
/// record and no survivor moves. A home's ring is kept when it drains,
/// so a steady append/recycle cycle reuses its buffer.
#[derive(Debug, Default)]
pub struct ReplicaStore {
    /// `by_home[home]`; grows to the highest home seen.
    by_home: Vec<VecDeque<ReplicaRecord>>,
    /// Cumulative bytes replayed onto rebuilt blocks.
    pub bytes_replayed: u64,
}

impl ReplicaStore {
    /// Parks one record shadowing `home`'s data log, keeping the home's
    /// records sorted by `seq` (arrival order among equal `seq`s).
    /// Records almost always arrive in that order (one sender, FIFO
    /// wire) and go to the back; but with two peers, or after a kill
    /// moves the replica to another peer, a later append can overtake an
    /// earlier one, and the earlier one is then slotted in ahead of it.
    pub fn push(&mut self, home: usize, rec: ReplicaRecord) {
        if home >= self.by_home.len() {
            self.by_home.resize_with(home + 1, VecDeque::new);
        }
        let ring = &mut self.by_home[home];
        match ring.back() {
            Some(tail) if rec.seq < tail.seq => {
                let at = ring.partition_point(|r| r.seq <= rec.seq);
                ring.insert(at, rec);
            }
            _ => ring.push_back(rec),
        }
    }

    /// Drops every record of `home` with `seq <= watermark` — the home
    /// recycled its log past them, so the block itself now holds the
    /// content. They are the sorted prefix.
    pub fn prune_up_to(&mut self, home: usize, watermark: u64) {
        if let Some(ring) = self.by_home.get_mut(home) {
            while ring.front().is_some_and(|r| r.seq <= watermark) {
                ring.pop_front();
            }
        }
    }

    /// Live records shadowing `home`'s log that target `block`, in
    /// append (`seq`) order — the replay source for a rebuild of that
    /// block.
    pub fn records_for_block(&self, home: usize, block: &BlockId) -> Vec<ReplicaRecord> {
        self.by_home
            .get(home)
            .map(|ring| ring.iter().filter(|r| r.block == *block).cloned().collect())
            .unwrap_or_default()
    }

    /// The highest-`seq` record of `home` (the log tail a power loss
    /// would tear), if any records are live.
    pub fn tail(&self, home: usize) -> Option<&ReplicaRecord> {
        self.by_home.get(home).and_then(VecDeque::back)
    }

    /// Drops `home`'s records targeting `block` — they were just
    /// replayed onto the rebuilt copy.
    pub fn prune_block(&mut self, home: usize, block: &BlockId) {
        if let Some(ring) = self.by_home.get_mut(home) {
            ring.retain(|r| r.block != *block);
        }
    }

    /// Accounts `bytes` of replica records replayed onto a rebuilt block.
    pub fn note_replayed(&mut self, bytes: u64) {
        self.bytes_replayed += bytes;
    }

    /// Live records shadowing `home`'s log.
    pub fn len(&self, home: usize) -> usize {
        self.by_home.get(home).map_or(0, VecDeque::len)
    }

    /// True when no record of any home is live.
    pub fn is_empty(&self) -> bool {
        self.by_home.iter().all(VecDeque::is_empty)
    }
}

/// Replays `home`'s live replica records for `block` onto the rebuilt
/// copy at `target`, in append (`seq`) order. Returns the bytes applied.
///
/// Called from rebuild completion, after `reconstruct_one` and before
/// the degraded-write journal replay: the reconstruct decodes the block
/// *as of the last log merge*, so acked-but-unmerged appends exist only
/// in the dead home's data log and its replicas. The records are ghosts
/// (timing + bookkeeping); the one logical copy of the content is the
/// home's unit index, read back side-effect-free through
/// [`crate::UpdateScheme::patch_unmerged`] and patched over the
/// reconstructed bytes (newest wins). Timing: the fetch from the
/// nearest live peer and the in-place write are charged per record from
/// `now` onward. The replayed appends never produced parity deltas
/// (their data-log units had not sealed), so every parity role of the
/// stripe is marked dirty for the next authoritative re-encode.
pub(crate) fn replay_replicas(
    world: &mut Cluster,
    sim: &mut Sim<Cluster>,
    target: usize,
    home: usize,
    block: BlockId,
) -> u64 {
    let Cluster { core, schemes, .. } = world;
    let recs = core.replicas.records_for_block(home, &block);
    if recs.is_empty() {
        return 0;
    }
    let now = sim.now();
    let gstripe = core.global_stripe(block.file, block.stripe);
    let (k, m) = (core.cfg.stripe.k, core.cfg.stripe.m);
    // The records physically sit on the home's ring successors, so the
    // fetch is charged from the nearest live peer (the home itself is
    // dead or being replaced).
    let src = (1..core.cfg.osds)
        .map(|r| (home + r) % core.cfg.osds)
        .find(|&p| p != target && core.mds.is_alive(p));
    let mut replayed = 0u64;
    for r in &recs {
        let len = r.data.len;
        replayed += len;
        if let Some(p) = src {
            core.net
                .transfer(now, core.osds[p].node, core.osds[target].node, len);
        }
        core.osds[target].block_io(now, IoKind::Write, block, r.off, len);
    }
    // The unmerged content patches the reconstructed bytes in place,
    // through the target's checksum bracket.
    let scheme = &schemes[home];
    core.osds[target].fill_block(block, |b| {
        scheme.patch_unmerged(block, 0, b.len() as u64, b);
    });
    for j in 0..m {
        core.mds.mark_parity_dirty(gstripe, k + j);
    }
    core.replicas.note_replayed(replayed);
    core.replicas.prune_block(home, &block);
    replayed
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn bid(stripe: u64, role: usize) -> BlockId {
        BlockId {
            file: 0,
            stripe,
            role,
        }
    }

    fn rec(seq: u64, stripe: u64, off: u64) -> ReplicaRecord {
        ReplicaRecord {
            seq,
            block: bid(stripe, 0),
            off,
            data: Chunk::real(vec![seq as u8; 8]),
        }
    }

    #[test]
    fn push_filter_and_order() {
        let mut s = ReplicaStore::default();
        s.push(3, rec(1, 0, 0));
        s.push(3, rec(2, 1, 8));
        s.push(3, rec(3, 0, 16));
        s.push(4, rec(1, 0, 0));
        let for_b0 = s.records_for_block(3, &bid(0, 0));
        assert_eq!(for_b0.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(s.len(3), 3);
        assert_eq!(s.len(4), 1);
        assert_eq!(s.tail(3).unwrap().seq, 3);
    }

    fn seqs(s: &ReplicaStore, home: usize) -> Vec<u64> {
        s.by_home
            .get(home)
            .map(|v| v.iter().map(|r| r.seq).collect())
            .unwrap_or_default()
    }

    #[test]
    fn records_stay_sorted_and_prune_drops_exactly_the_watermark() {
        let mut s = ReplicaStore::default();
        // Two peers' copies interleaved, one overtaken: 1 1 3 2 2 3 5 4 6.
        for (q, stripe) in [
            (1, 0),
            (1, 0),
            (3, 1),
            (2, 0),
            (2, 0),
            (3, 1),
            (5, 0),
            (4, 1),
            (6, 0),
        ] {
            s.push(0, rec(q, stripe, q * 8));
            let v = seqs(&s, 0);
            assert!(v.is_sorted(), "push keeps seq order: {v:?}");
        }
        assert_eq!(s.tail(0).unwrap().seq, 6);
        s.prune_block(0, &bid(1, 0));
        assert_eq!(seqs(&s, 0), [1, 1, 2, 2, 5, 6]);
        for watermark in [0, 1, 4, 5] {
            s.prune_up_to(0, watermark);
            let v = seqs(&s, 0);
            assert!(v.is_sorted() && v.iter().all(|&q| q > watermark), "{v:?}");
        }
        assert_eq!(seqs(&s, 0), [6]);
        s.push(0, rec(7, 0, 0));
        s.prune_up_to(0, 6);
        assert_eq!(seqs(&s, 0), [7]);
    }

    #[test]
    fn prune_respects_watermark_and_cleans_up() {
        let mut s = ReplicaStore::default();
        for q in 1..=5 {
            s.push(0, rec(q, 0, q * 8));
        }
        s.prune_up_to(0, 3);
        assert_eq!(s.len(0), 2);
        assert_eq!(s.records_for_block(0, &bid(0, 0))[0].seq, 4);
        s.prune_up_to(0, 99);
        assert!(s.is_empty());
    }

    /// The reference store: one sorted `Vec` per home, a stable sorted
    /// insert per push and a map entry that disappears when the home
    /// drains. Its prunes `retain`, so they do not lean on the sort. The
    /// differential below holds the rings to it.
    #[derive(Default)]
    struct Oracle {
        by_home: BTreeMap<usize, Vec<ReplicaRecord>>,
    }

    impl Oracle {
        fn push(&mut self, home: usize, rec: ReplicaRecord) {
            let v = self.by_home.entry(home).or_default();
            let at = v.partition_point(|r| r.seq <= rec.seq);
            v.insert(at, rec);
        }

        fn prune_up_to(&mut self, home: usize, watermark: u64) {
            if let Some(v) = self.by_home.get_mut(&home) {
                v.retain(|r| r.seq > watermark);
                if v.is_empty() {
                    self.by_home.remove(&home);
                }
            }
        }

        fn prune_block(&mut self, home: usize, block: &BlockId) {
            if let Some(v) = self.by_home.get_mut(&home) {
                v.retain(|r| r.block != *block);
                if v.is_empty() {
                    self.by_home.remove(&home);
                }
            }
        }

        fn records_for_block(&self, home: usize, block: &BlockId) -> Vec<ReplicaRecord> {
            self.by_home
                .get(&home)
                .map(|v| v.iter().filter(|r| r.block == *block).cloned().collect())
                .unwrap_or_default()
        }

        fn tail(&self, home: usize) -> Option<&ReplicaRecord> {
            self.by_home.get(&home).and_then(|v| v.last())
        }

        fn len(&self, home: usize) -> usize {
            self.by_home.get(&home).map_or(0, Vec::len)
        }
    }

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

    /// What a record is, for comparing: `off` is unique per push, so
    /// equal-`seq` records are told apart by their arrival order.
    fn key(r: &ReplicaRecord) -> (u64, u64, u64) {
        (r.seq, r.block.stripe, r.off)
    }

    const HOMES: usize = 4;
    const STRIPES: u64 = 3;

    fn assert_same(s: &ReplicaStore, o: &Oracle, at: &str) {
        assert_eq!(s.is_empty(), o.by_home.is_empty(), "{at}: is_empty");
        // One home past the last ever pushed to: absent on both sides.
        for home in 0..=HOMES {
            assert_eq!(s.len(home), o.len(home), "{at}: len of {home}");
            assert_eq!(
                s.tail(home).map(key),
                o.tail(home).map(key),
                "{at}: tail of {home}"
            );
            for stripe in 0..STRIPES {
                let b = bid(stripe, 0);
                let got: Vec<_> = s.records_for_block(home, &b).iter().map(key).collect();
                let want: Vec<_> = o.records_for_block(home, &b).iter().map(key).collect();
                assert_eq!(got, want, "{at}: records of home {home} stripe {stripe}");
            }
        }
    }

    /// One seeded sequence over several homes, applied to the rings and
    /// to the oracle alike. Per home, appends arrive the way two peers
    /// deliver them: mostly in order, sometimes the same `seq` twice,
    /// sometimes an earlier `seq` overtaken by later ones. Recycles
    /// prune at random watermarks, rebuilds prune a block, and now and
    /// then a home drains completely and is refilled.
    fn differential(seed: u64, steps: u32) {
        let mut rng = Rng(seed);
        let (mut s, mut o) = (ReplicaStore::default(), Oracle::default());
        let mut next = [0u64; HOMES];
        let mut off = 0;
        for step in 0..steps {
            let at = format!("seed {seed} step {step}");
            let home = rng.below(HOMES as u64) as usize;
            match rng.below(16) {
                0..=10 => {
                    let seq = match rng.below(6) {
                        // The other peer's copy of the latest append.
                        0 => next[home],
                        // An append overtaken by up to four later ones.
                        1 => next[home].saturating_sub(1 + rng.below(4)),
                        _ => {
                            next[home] += 1;
                            next[home]
                        }
                    };
                    off += 8;
                    let r = rec(seq, rng.below(STRIPES), off);
                    s.push(home, r.clone());
                    o.push(home, r);
                }
                11..=12 => {
                    let watermark = next[home].saturating_sub(rng.below(12));
                    s.prune_up_to(home, watermark);
                    o.prune_up_to(home, watermark);
                }
                13..=14 => {
                    let b = bid(rng.below(STRIPES), 0);
                    s.prune_block(home, &b);
                    o.prune_block(home, &b);
                }
                _ => {
                    s.prune_up_to(home, next[home]);
                    o.prune_up_to(home, next[home]);
                    assert_eq!(s.len(home), 0, "{at}: drained");
                }
            }
            assert_same(&s, &o, &at);
        }
    }

    #[test]
    fn rings_match_the_sorted_vec_store() {
        for seed in 0..8 {
            differential(seed, 3_000);
        }
    }
}

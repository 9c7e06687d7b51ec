//! Zero-copy invariants of the data plane, measured with the
//! [`tsue_buf`] copy and allocation counters.
//!
//! The headline guarantee: the **data-log stage** — a client write landing
//! at its OSD, appending to the DataLog index, and acking — performs zero
//! deep copies of the payload. The buffer the payload was born in is the
//! buffer the log holds, shared by refcount.
//!
//! A client write's payload is a deferred buffer ([`payload_chunk`]):
//! nothing is generated when it is issued, and its consumers each
//! generate the window they read straight into their own memory. The
//! block store keeps copy-on-write pages: a page an in-place write or a
//! delta capture covers whole becomes a view of the payload, which is
//! never generated for a digest or an audit — only a page that holds
//! bytes is hashed. A store read is a recipe over the pages' views, and
//! a data delta `new ⊕ old` a recipe over the payload and the pages the
//! capture replaced — or, over a never-written page, the payload's own
//! handle. Every parity delta is a recipe over the data delta's handle
//! (`c · Δ`, or Eq. 5's `Σ c · Δ`), generated page by page as it lands in
//! the parity block, and each level of recipe a read runs through counts
//! the window in `streamed_bytes`.
//!
//! A deferred buffer has no filled state: it is only ever streamed, so no
//! scheme buffers a payload or a parity delta, and no update allocates a
//! buffer for its data delta or its store read: what `pool_misses` counts is the parity pages
//! the XOR merges land in (m = 2, each allocated on its first write),
//! PARIX's recycle deltas and CoRD's one copy-on-write fold. Bytes TSUE's
//! DataLog supersedes before its seal-time capture are never generated.

use tsue_repro::buf;
use tsue_repro::core::{Tsue, TsueConfig};
use tsue_repro::ec::{RsCode, StripeConfig};
use tsue_repro::ecfs::scheme::{deliver_update, UpdateReq};
use tsue_repro::ecfs::{
    check_consistency, fail_node, payload_chunk, payload_into, repair_all_dirty_parity,
    run_full_scrub, run_recovery, start_recovery, BlockId, Chunk, Cluster, ClusterBuilder,
    ClusterConfig, InstantScheme, SplitRng, UpdateScheme,
};
use tsue_repro::schemes::{Cord, Fl, Fo, Parix, Pl, Plr};
use tsue_repro::sim::{Sim, MILLISECOND, SECOND};

fn materialized_tsue_cluster() -> Cluster {
    ClusterBuilder::ssd(4, 2, 1)
        .materialize(true)
        .file_size_per_client(4 << 20)
        .scheme_fn(|_| Box::new(Tsue::ssd()))
        .build()
}

/// A payload chunk, generated in place (no copy, by construction).
fn payload(len: usize, fill: u8) -> Chunk {
    let mut b = buf::BytesMut::take(len);
    b.as_mut().fill(fill);
    Chunk::real(b.freeze())
}

/// N client writes through the TSUE data-log stage: zero payload copies.
#[test]
fn data_log_stage_performs_zero_payload_copies_per_client_write() {
    let mut world = materialized_tsue_cluster();
    let mut sim: Sim<Cluster> = Sim::new();
    let block = BlockId {
        file: 0,
        stripe: 0,
        role: 0,
    };
    let gstripe = world.core.global_stripe(0, 0);
    let owner = world.core.owner_of(gstripe, 0);

    let before = buf::stats();
    for i in 0..32u64 {
        // Disjoint, non-adjacent ranges: folding happens in the index
        // without any merge copies (adjacent-coalescing concatenation is
        // a separate, counted path).
        let req = UpdateReq {
            op_id: i,
            ext: 0,
            block,
            off: i * 8192,
            data: payload(4096, i as u8),
        };
        deliver_update(&mut world, &mut sim, owner, req);
    }
    // Drain the persist/ack events of the appends (the background seal
    // timer is minutes of virtual time away; no recycle runs here).
    sim.run_until(&mut world, 1_000_000);
    let window = buf::stats().since(&before);

    assert_eq!(
        window.deep_copies, 0,
        "data-log append path must not copy payload bytes: {window:?}"
    );
    assert_eq!(window.bytes_copied, 0);

    // And the log really holds the content (overlay sees the newest data).
    let mut got = vec![0u8; 4096];
    let serve =
        world.schemes[owner].read_overlay(&mut world.core, owner, block, 0, 4096, Some(&mut got));
    assert_eq!(serve, tsue_repro::ecfs::scheme::ReadServe::CacheHit);
    assert!(got.iter().all(|&b| b == 0), "first write fills with 0");
}

/// PARIX's recycle consumes each `latest` entry as its run of segments:
/// the delta XORs segment by segment into its scratch buffer and the
/// promotion to `original` moves the same handles. A run built from many
/// separately forwarded buffers is therefore never gathered.
#[test]
fn parix_promotion_to_original_makes_no_copy() {
    let mut world = ClusterBuilder::ssd(4, 2, 1)
        .materialize(true)
        .file_size_per_client(4 << 20)
        .scheme_fn(|_| Box::new(Parix::new()))
        .build();
    let mut sim: Sim<Cluster> = Sim::new();
    let block = BlockId {
        file: 0,
        stripe: 0,
        role: 0,
    };
    let gstripe = world.core.global_stripe(0, 0);
    let owner = world.core.owner_of(gstripe, 0);
    // Adjacent writes, each in a buffer of its own: on every parity peer
    // `latest` holds one entry that is a run of 16 segments.
    for i in 0..16u64 {
        let req = UpdateReq {
            op_id: i,
            ext: 0,
            block,
            off: i * 4096,
            data: payload(4096, i as u8 + 1),
        };
        deliver_update(&mut world, &mut sim, owner, req);
    }
    sim.run_until(&mut world, 1_000_000_000);
    assert!(world.total_scheme_backlog() > 0, "latest still unmerged");

    let before = buf::stats();
    world.flush_all(&mut sim);
    let window = buf::stats().since(&before);
    assert_eq!(world.total_scheme_backlog(), 0);
    assert_eq!(
        window.deep_copies, 0,
        "PARIX recycle must not gather latest runs: {window:?}"
    );
    assert_eq!(window.bytes_copied, 0);
}

/// Makes the scheme instance of one OSD.
type NewScheme = fn() -> Box<dyn UpdateScheme>;

/// Builds the chunks of `n` client overwrites of block 0's first 4 KiB
/// (op ids `0..n`, as the client issues them), checks that building
/// them fills nothing, delivers them, drains every log, and checks the
/// cluster against the arrival replay. Returns the buffer-counter window
/// from the first chunk built to the end of the drain.
fn overwrite_one_range(scheme: NewScheme, n: u64) -> buf::BufStats {
    let mut world = ClusterBuilder::ssd(4, 2, 1)
        .materialize(true)
        .record_arrivals(true)
        .file_size_per_client(4 << 20)
        .scheme_fn(move |_| scheme())
        .build();
    let mut sim: Sim<Cluster> = Sim::new();
    let block = BlockId {
        file: 0,
        stripe: 0,
        role: 0,
    };
    let owner = world.core.owner_of(world.core.global_stripe(0, 0), 0);

    let before = buf::stats();
    let chunks: Vec<Chunk> = (0..n).map(|op| payload_chunk(op, 0, 4096, true)).collect();
    let issued = buf::stats().since(&before);
    assert_eq!(issued.deferred_bytes, n * 4096);
    assert_eq!(
        issued.streamed_bytes, 0,
        "issuing a write generates nothing"
    );
    for (op_id, data) in (0..n).zip(chunks) {
        let req = UpdateReq {
            op_id,
            ext: 0,
            block,
            off: 0,
            data,
        };
        deliver_update(&mut world, &mut sim, owner, req);
        // Let each write land before the next one is issued.
        sim.run_until(&mut world, sim.now() + 1_000_000);
    }
    world.flush_all(&mut sim);
    let window = buf::stats().since(&before);

    let mut want = vec![0u8; 4096];
    payload_into(n - 1, 0, &mut want);
    let mut got = vec![0u8; 4096];
    assert!(world.core.osds[owner].peek_into(block, 0, &mut got));
    assert!(got == want, "the block holds the newest op's payload");
    check_consistency(&world).expect("data and parity match the replay");
    window
}

/// TSUE's DataLog absorbs 16 overwrites of one range newest-wins before
/// its seal-time capture reads them. The page was never written, so the
/// capture makes it a view of that one payload, which no digest
/// generates, and the data delta is the payload's own handle. The
/// DeltaLog recycle combines it into one Eq. 5 recipe per parity, and
/// each ParityLog recycle generates its recipe (4096) over the payload
/// (4096) into the parity block's page: m · 8192 = 2·8192 = 16 384 bytes
/// streamed, none buffered. The two allocations are the parity pages;
/// the capture allocates nothing.
#[test]
fn tsue_generates_only_the_payload_its_data_log_keeps() {
    let window = overwrite_one_range(|| Box::new(Tsue::ssd()), 16);
    assert_eq!(
        window.streamed_bytes,
        2 * (4096 + 4096),
        "superseded payloads must never be generated: {window:?}"
    );
    assert_eq!(window.pool_misses, 2, "only the parity pages: {window:?}");
}

/// TSUE's DataLog recycle captures a run over a never-written page with
/// [`tsue_repro::ecfs::Osd::delta_poke_range`]: the page becomes a view
/// of the new data and the delta is the new data's own handle, so the
/// capture allocates nothing, copies nothing and streams nothing: a view
/// holds no bytes, so it is never hashed. End to end, one write makes
/// the same m = 2 allocations as sixteen: the parity pages.
#[test]
fn tsue_capture_over_a_never_written_page_allocates_nothing() {
    let mut world = materialized_tsue_cluster();
    let block = BlockId {
        file: 0,
        stripe: 0,
        role: 1,
    };
    let owner = world.core.owner_of(world.core.global_stripe(0, 0), 1);
    let new = payload_chunk(9, 0, 3 * 4096, true).bytes.expect("real");
    let before = buf::stats();
    let delta = world.core.osds[owner]
        .delta_poke_range(block, 8192, &new)
        .expect("materialized");
    let window = buf::stats().since(&before);
    assert_eq!(window.pool_misses, 0, "{window:?}");
    assert_eq!(window.bytes_copied, 0);
    assert_eq!(window.streamed_bytes, 0, "no digest of a view");
    let mut want = vec![0u8; 3 * 4096];
    payload_into(9, 0, &mut want);
    let mut got = vec![0u8; 3 * 4096];
    delta.read_into(0, &mut got);
    assert!(got == want, "new ⊕ zeros is the new data");
    assert!(world.core.osds[owner].peek_into(block, 8192, &mut got));
    assert!(got == want, "the store holds the new data");

    let window = overwrite_one_range(|| Box::new(Tsue::ssd()), 1);
    assert_eq!(window.pool_misses, 2, "only the parity pages: {window:?}");
}

/// PARIX writes each update in place on arrival: the page becomes a view
/// of the payload, which neither its digest nor a later audit or
/// verification generates. The first touch reads the never-written original as a recipe of zeros
/// (4096 deferred, nothing allocated) and forwards it. On each of the
/// m = 2 parity peers the flush's recycle builds the delta `latest ⊕
/// original` in a buffer: the original's recipe streams its zeros into it
/// (4096) and `latest`, which keeps only the newest payload, is XORed in
/// through a page scratch (4096). Each peer's scaled delta is a recipe
/// over that buffer, generated into the parity block (4096). 2·3·4096 =
/// 24 576 bytes streamed, none buffered. Four buffers are allocated: one
/// delta and one parity page per peer.
#[test]
fn parix_generates_every_payload_on_arrival() {
    let window = overwrite_one_range(|| Box::new(Parix::new()), 16);
    assert_eq!(window.deferred_bytes, 16 * 4096 + 4096 + 2 * 4096);
    assert_eq!(window.streamed_bytes, 2 * 3 * 4096, "{window:?}");
    assert_eq!(window.pool_misses, 2 + 2, "{window:?}");
}

/// PARIX's first touch of a range reads its original before it writes
/// in place. Over a never-written range the read is a recipe of zeros and
/// the write makes each page a view of the payload, so the whole
/// exchange — the read, the write, both forwards to each parity peer and
/// their log appends — allocates nothing.
#[test]
fn parix_first_touch_read_allocates_nothing() {
    let mut world = ClusterBuilder::ssd(4, 2, 1)
        .materialize(true)
        .file_size_per_client(4 << 20)
        .scheme_fn(|_| Box::new(Parix::new()))
        .build();
    let mut sim: Sim<Cluster> = Sim::new();
    let block = BlockId {
        file: 0,
        stripe: 0,
        role: 0,
    };
    let owner = world.core.owner_of(world.core.global_stripe(0, 0), 0);
    let req = UpdateReq {
        op_id: 0,
        ext: 0,
        block,
        off: 0,
        data: payload_chunk(0, 0, 8 * 4096, true),
    };
    let before = buf::stats();
    deliver_update(&mut world, &mut sim, owner, req);
    sim.run_until(&mut world, 1_000_000);
    let window = buf::stats().since(&before);
    assert!(
        world.total_scheme_backlog() > 0,
        "the originals reached the logs"
    );
    assert_eq!(window.pool_misses, 0, "{window:?}");
    assert_eq!(window.bytes_copied, 0);
    assert_eq!(window.deferred_bytes, 8 * 4096, "the original, deferred");
}

/// The schemes whose data side is a read-modify-write on arrival capture
/// every update, and every page they write whole is a view of its
/// payload, which is never hashed: no digest, no audit. The first
/// overwrites a never-written page; its delta is the payload's handle,
/// which each of the m = 2 scaled recipes reads through (2 · 2·4096):
/// 4 · 4096. Each of the other 15 deltas is a recipe over the payload and
/// the replaced view, so each scaled recipe reads four windows
/// (2 · 4·4096): 8 · 4096. FO, PL and PLR apply every scaled delta:
/// (4 + 15·8) · 4096 = 507 904 bytes. CoRD folds the 16 deltas at its
/// collector: the first fold streams the first delta, the payload's
/// handle, into a buffer of its own (4096) and XORs in the second
/// (3 · 4096), each later fold XORs one delta in place (3 · 4096); it
/// drains one scaled recipe per parity over the folded buffer (2 · 4096):
/// (4 + 14·3 + 2) · 4096 = 196 608. FL logs the data side newest-wins and
/// its drain captures only the newest, over a never-written page, like
/// TSUE: 2·2 · 4096 = 16 384. None fills a payload or a parity delta into a buffer; none
/// allocates a data delta. Every scheme allocates the two parity pages,
/// and CoRD its fold's buffer.
#[test]
fn no_other_scheme_fills_a_client_payload() {
    let schemes: [(&str, NewScheme, u64, u64); 5] = [
        ("FO", || Box::new(Fo::new()), 4 + 15 * 8, 2),
        ("FL", || Box::new(Fl::new()), 2 * 2, 2),
        ("PL", || Box::new(Pl::new()), 4 + 15 * 8, 2),
        ("PLR", || Box::new(Plr::new()), 4 + 15 * 8, 2),
        ("CoRD", || Box::new(Cord::new()), 4 + 14 * 3 + 2, 1 + 2),
    ];
    for (name, scheme, pages, allocations) in schemes {
        let window = overwrite_one_range(scheme, 16);
        assert_eq!(window.streamed_bytes, pages * 4096, "{name}: {window:?}");
        assert_eq!(window.pool_misses, allocations, "{name}: {window:?}");
    }
}

/// Re-sync's dirty-parity re-encode (Eq. 1) is a recipe over snapshots
/// of the k = 4 data blocks, generated page by page straight into the
/// parity block: no block-sized buffer, no filled snapshot. Over 16 KiB
/// blocks (4 pages) where data block 0 views a client payload, block 1
/// holds two pages of its own bytes and blocks 2 and 3 were never
/// written, the scan for rot hashes only block 1's two pages: block 0's
/// four views hold no bytes, so none is generated. The re-encode streams
/// its own recipe (16 384), each snapshot (4 · 16 384) and, under block
/// 0's snapshot, the payload (16 384): 6 · 16 384 = 98 304 bytes. The
/// four allocations are the parity block's pages.
#[test]
fn parity_reencode_streams_into_the_parity_pages() {
    const BLOCK: usize = 4 * 4096;
    let mut world = ClusterBuilder::ssd(4, 2, 1)
        .materialize(true)
        .block_size(BLOCK as u64)
        .file_size_per_client(1 << 20)
        .scheme_fn(|_| Box::new(Tsue::ssd()))
        .build();
    let mut sim: Sim<Cluster> = Sim::new();
    let gstripe = world.core.global_stripe(0, 0);
    let block = |role| BlockId {
        file: 0,
        stripe: 0,
        role,
    };
    let owner = |w: &Cluster, role| w.core.owner_of(gstripe, role);
    let payload = payload_chunk(1, 0, BLOCK as u64, true).bytes.expect("real");
    let o = owner(&world, 0);
    world.core.osds[o].poke_block_range(block(0), 0, &payload);
    let o = owner(&world, 1);
    world.core.osds[o].poke_block_range(block(1), 4096, &buf::Bytes::from(vec![7u8; 8192]));
    world.core.mds.mark_parity_dirty(gstripe, 4);

    let before = buf::stats();
    assert_eq!(repair_all_dirty_parity(&mut world, &mut sim), 1);
    let window = buf::stats().since(&before);
    assert_eq!(window.pool_misses, 4, "the parity pages only: {window:?}");
    assert_eq!(window.streamed_bytes, 6 * BLOCK as u64, "{window:?}");
    assert_eq!(window.bytes_copied, 0, "{window:?}");

    let data: Vec<Vec<u8>> = (0..4)
        .map(|r| {
            let mut d = vec![0u8; BLOCK];
            assert!(world.core.osds[owner(&world, r)].peek_into(block(r), 0, &mut d));
            d
        })
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let mut parity = vec![Vec::new(); 2];
    RsCode::new(4, 2)
        .expect("valid code")
        .encode_into(&refs, &mut parity)
        .expect("encode");
    let mut got = vec![0u8; BLOCK];
    assert!(world.core.osds[owner(&world, 4)].peek_into(block(4), 0, &mut got));
    assert!(got == parity[0], "the parity block holds Eq. 1 of the data");
}

/// An RS(4,2) stripe of `block`-byte blocks on 16 OSDs, one stripe per
/// file: data block 0 views a client payload over its first `covered`
/// bytes, block 1 holds two pages of its own bytes, blocks 2 and 3 were
/// never written, and both parity blocks are re-encoded to match (pages
/// of their own where they are not zeros).
fn consistent_stripe(block: usize, covered: usize) -> Cluster {
    let mut world = ClusterBuilder::ssd(4, 2, 1)
        .materialize(true)
        .block_size(block as u64)
        .file_size_per_client(4 * block as u64)
        .scheme_fn(|_| Box::new(InstantScheme::default()))
        .build();
    let mut sim: Sim<Cluster> = Sim::new();
    let gstripe = world.core.global_stripe(0, 0);
    let o = world.core.owner_of(gstripe, 0);
    let payload = payload_chunk(1, 0, covered as u64, true)
        .bytes
        .expect("real");
    world.core.osds[o].poke_block_range(stripe_block(0), 0, &payload);
    let o = world.core.owner_of(gstripe, 1);
    world.core.osds[o].poke_block_range(stripe_block(1), 4096, &buf::Bytes::from(vec![7u8; 8192]));
    world.core.mds.mark_parity_dirty(gstripe, 4);
    world.core.mds.mark_parity_dirty(gstripe, 5);
    assert_eq!(repair_all_dirty_parity(&mut world, &mut sim), 2);
    world
}

/// `role` of the only stripe of [`consistent_stripe`].
fn stripe_block(role: usize) -> BlockId {
    BlockId {
        file: 0,
        stripe: 0,
        role,
    }
}

/// Block 0 of [`consistent_stripe`] as its current owner stores it.
fn block_zero(world: &Cluster, block: usize) -> Vec<u8> {
    let o = world.core.owner_of(world.core.global_stripe(0, 0), 0);
    let mut got = vec![0u8; block];
    assert!(world.core.osds[o].peek_into(stripe_block(0), 0, &mut got));
    got
}

/// The scrub's page repair decodes each rotted page of data block 0 from
/// the first k = 4 clean siblings (data 1, 2, 3, parity 4) as a recipe
/// over their page snapshots, generates it once into a stack page for
/// the digest gate and copies that page into the rotted page, which rot
/// gave bytes of its own: 0 allocations for the 4 pages. Each page
/// streams its recipe and the snapshot of every source page that is
/// absent — blocks 2 and 3, and block 1 but for its two written pages
/// (parity 4 holds bytes of its own): (4 + 3 + 3 + 4) · 4096 = 57 344.
/// (The borrowed decode built every deferred shard: blocks 2 and 3 for
/// each page and block 1 for its two absent ones, 3 + 2 + 2 + 3 = 10.)
#[test]
fn guarded_scrub_repair_allocates_nothing() {
    const BLOCK: usize = 4 * 4096;
    let mut world = consistent_stripe(BLOCK, BLOCK);
    let mut sim: Sim<Cluster> = Sim::new();
    let o = world.core.owner_of(world.core.global_stripe(0, 0), 0);
    let rot = &mut SplitRng::new(7);
    world.core.osds[o].corrupt_bits(stripe_block(0), rot, 64);
    assert_eq!(
        world.core.osds[o].corrupt_pages(stripe_block(0)),
        [0, 1, 2, 3]
    );

    let before = buf::stats();
    let report = run_full_scrub(&mut world, &mut sim);
    let window = buf::stats().since(&before);
    assert_eq!((report.repaired, report.unrecoverable), (4, 0));
    assert_eq!(window.pool_misses, 0, "{window:?}");
    assert_eq!(window.bytes_copied, 0, "{window:?}");
    assert_eq!(window.streamed_bytes, 14 * 4096, "{window:?}");

    let mut want = vec![0u8; BLOCK];
    payload_into(1, 0, &mut want);
    assert!(block_zero(&world, BLOCK) == want, "the payload, repaired");
}

/// Rebuilds block 0 of [`consistent_stripe`]`(16 pages, covered)` with
/// [`run_recovery`]; returns the buffer-counter window and, per page of
/// the rebuilt copy, whether it holds bytes of its own (a read of it is
/// a view of them) rather than none (a read is a recipe of zeros — no
/// page views a decode).
fn rebuild_block_zero(covered: usize) -> (buf::BufStats, Vec<bool>) {
    const BLOCK: usize = 16 * 4096;
    let mut world = consistent_stripe(BLOCK, covered);
    let mut sim: Sim<Cluster> = Sim::new();
    let victim = world.core.owner_of(world.core.global_stripe(0, 0), 0);

    let before = buf::stats();
    let report = run_recovery(&mut world, &mut sim, victim);
    let window = buf::stats().since(&before);
    assert_eq!(report.blocks_rebuilt, 1);
    assert_eq!(window.bytes_copied, 0, "{window:?}");

    let mut want = vec![0u8; BLOCK];
    payload_into(1, 0, &mut want[..covered]);
    assert!(block_zero(&world, BLOCK) == want, "the payload, rebuilt");
    let o = world.core.owner_of(world.core.global_stripe(0, 0), 0);
    let own = (0..16)
        .map(|p| {
            let page = world.core.osds[o].peek_block_range(stripe_block(0), p * 4096, 4096);
            page.expect("materialized").as_slice().is_some()
        })
        .collect();
    (window, own)
}

/// A rebuild decodes its block from the first k = 4 live survivors (data
/// 1, 2, 3, parity 4) as a recipe over their whole-block snapshots and
/// writes it through the store's checksum bracket, generated page by
/// page into the 16 pages, each of which gets bytes of its own (64 KiB
/// of non-zero payload): 16 allocations, with no block-sized scratch and
/// no shard buffer. Each page streams the recipe and the four snapshots
/// under it once: 5 · 65 536 = 327 680 bytes. (A block-sized scratch
/// to decode into made it 1 + 16; the borrowed decode built the 4
/// snapshots, all deferred: 21.)
#[test]
fn rebuild_allocates_only_the_block_pages() {
    let (window, own) = rebuild_block_zero(16 * 4096);
    assert_eq!(window.pool_misses, 16, "{window:?}");
    assert_eq!(window.streamed_bytes, 5 * 65_536, "{window:?}");
    assert_eq!(own, [true; 16]);
}

/// When block 0's payload covers only its first 4 pages, the other 12
/// decode to zeros and stay absent, as they were on the freshly
/// installed copy: 4 allocations (a block-sized scratch made it 5). The
/// recipe streams as before: 327 680 bytes.
#[test]
fn rebuild_leaves_pages_that_decode_to_zeros_absent() {
    let (window, own) = rebuild_block_zero(4 * 4096);
    assert_eq!(window.pool_misses, 4, "{window:?}");
    assert_eq!(window.streamed_bytes, 5 * 65_536, "{window:?}");
    assert_eq!(own[..4], [true; 4]);
    assert_eq!(own[4..], [false; 12]);
}

/// The first data block of the first stripe.
const A: BlockId = BlockId {
    file: 0,
    stripe: 0,
    role: 0,
};

/// Delivers a 2 KiB append of `block` at `off` to the block's owner.
fn append_2k(world: &mut Cluster, sim: &mut Sim<Cluster>, i: u64, block: BlockId, off: u64) {
    let gstripe = world.core.global_stripe(block.file, block.stripe);
    let osd = world.core.owner_of(gstripe, block.role);
    let req = UpdateReq {
        op_id: i + 1,
        ext: 0,
        block,
        off,
        data: payload(2048, 0x40 + i as u8),
    };
    deliver_update(world, sim, osd, req);
}

/// The rebuild-replay shape: a TSUE cluster of RS(4,2) stripes of 64 KiB
/// blocks on 8 OSDs, two DataLog pools of 16 KiB units, `data_replicas`
/// 2. One append to the home's `nth` data block `b` after [`A`] opens a
/// unit in `b`'s pool, eight to [`A`] seal its unit after seven and leave
/// the eighth open, and the sealed unit recycles. Returns the cluster,
/// the home and `b` when `b` lands in the other pool: the home then owes
/// one extent to each of the two blocks.
fn replay_shape(nth: usize) -> Option<(Cluster, Sim<Cluster>, usize, BlockId)> {
    let mut cfg = ClusterConfig::ssd_testbed(4, 2, 4);
    cfg.osds = 8;
    cfg.stripe = StripeConfig::new(4, 2, 64 << 10);
    cfg.file_size_per_client = 1 << 20;
    cfg.materialize = true;
    cfg.seed = 60;
    let tsue = TsueConfig {
        pools: 2,
        unit_size: 16 << 10,
        seal_interval: 100 * SECOND,
        data_replicas: 2,
        ..TsueConfig::ssd_default()
    };
    let mut world = ClusterBuilder::from_config(cfg)
        .record_arrivals(false)
        .scheme_fn(move |_| Box::new(Tsue::new(tsue.clone())))
        .build();
    let mut sim: Sim<Cluster> = Sim::new();
    let home = world.core.owner_of(world.core.global_stripe(0, 0), 0);
    let b = world.core.osds[home]
        .block_ids()
        .filter(|b| b.role < 4 && *b != A)
        .nth(nth)?;
    append_2k(&mut world, &mut sim, 0, b, 0);
    for i in 1..=8 {
        append_2k(&mut world, &mut sim, i, A, (i - 1) * 4096);
    }
    sim.run_until(&mut world, 200 * MILLISECOND);
    let owes = |block| {
        world.schemes[home]
            .unmerged_extents(&world.core.mds, block)
            .len()
    };
    (owes(A) == 1 && owes(b) == 1).then_some((world, sim, home, b))
}

/// Kills the home of [`replay_shape`] after the live logs drained and
/// rebuilds its 12 blocks online. A rebuild writes its decode page by
/// page through the target's checksum bracket, so only a page that
/// decodes to non-zero bytes gets a buffer: [`A`]'s seven recycled
/// appends, one per page, make 7; the other 11 blocks, `b` among them
/// (its append never recycled), decode to zeros and stay absent. Each
/// of the 2 replays writes only its owed 2 KiB, into an absent page of
/// its own: A's eighth append's page and `b`'s first. 7 + 2 = 9
/// allocations, each a 4 KiB page of a rebuilt block; none is of the
/// size of a block. (Through a block-sized scratch for each decode and
/// each replay it was 14 more.)
#[test]
fn rebuild_and_replay_allocate_only_the_pages_they_write() {
    let (mut world, mut sim, home, b) = (0..12)
        .find_map(replay_shape)
        .expect("a data block of the home in the other pool");
    let lost: Vec<BlockId> = world.core.osds[home].block_ids().collect();
    fail_node(&mut world, home);
    world.flush_all(&mut sim);

    let before = buf::stats();
    let phase = start_recovery(&mut world, &mut sim, &[home]);
    sim.run_while(&mut world, |w| {
        w.core.recovery.phase_stats(phase).pending() > 0
    });
    let window = buf::stats().since(&before);
    let stats = world.core.recovery.phase_stats(phase);
    assert_eq!((lost.len(), stats.rebuilt), (12, 12));
    assert_eq!(stats.replica_replayed_bytes, 2 * 2048);
    assert_eq!(window.pool_misses, 7 + 2, "{window:?}");

    // Every allocation is a page that holds bytes of its own now.
    let own_pages = |block: BlockId| {
        let gstripe = world.core.global_stripe(block.file, block.stripe);
        let osd = &world.core.osds[world.core.owner_of(gstripe, block.role)];
        (0..16)
            .filter(|p| {
                let page = osd.peek_block_range(block, p * 4096, 4096);
                page.expect("materialized").as_slice().is_some()
            })
            .count()
    };
    assert_eq!((own_pages(A), own_pages(b)), (8, 1));
    assert_eq!(lost.iter().map(|&blk| own_pages(blk)).sum::<usize>(), 9);
}

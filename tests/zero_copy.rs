//! Zero-copy invariants of the data plane, measured with the
//! [`tsue_buf`] copy and allocation counters.
//!
//! The headline guarantee: the **data-log stage** — a client write landing
//! at its OSD, appending to the DataLog index, and acking — performs zero
//! deep copies of the payload. The buffer the payload was born in is the
//! buffer the log holds, shared by refcount.
//!
//! A client write's payload is a deferred buffer ([`payload_chunk`]):
//! nothing is generated when it is issued, and its consumers — the store
//! page of an in-place write, the page scratch of a delta capture or a
//! recycle XOR, a gather — each generate the window they read straight
//! into their own memory. Every parity delta is deferred the same way: a
//! recipe over the data delta's handle (`c · Δ`, or Eq. 5's `Σ c · Δ`),
//! generated page by page as it lands in the parity block. No scheme
//! fills a payload or a parity delta into a buffer of its own
//! (`filled_bytes` stays 0), the only buffer an update allocates is its
//! data delta (`pool_misses`), and bytes TSUE's DataLog supersedes before
//! its seal-time capture are never generated at all.

use tsue_repro::buf;
use tsue_repro::core::Tsue;
use tsue_repro::ecfs::scheme::{deliver_update, UpdateReq};
use tsue_repro::ecfs::{
    check_consistency, payload_chunk, payload_into, BlockId, Chunk, Cluster, ClusterBuilder,
    UpdateScheme,
};
use tsue_repro::schemes::{Cord, Fl, Fo, Parix, Pl, Plr};
use tsue_repro::sim::Sim;

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
    assert_eq!(issued.filled_bytes, 0, "issuing a write generates nothing");
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
/// its seal-time capture reads them, and the capture streams that one
/// payload into its page scratch: 4096 bytes. The capture's delta is the
/// one buffer allocated. The DeltaLog recycle combines it into one
/// recipe per parity, and each ParityLog recycle generates its recipe
/// into the parity block's pages: m · 4096 more. 4096 + 2·4096 = 12 288
/// bytes generated, none buffered.
#[test]
fn tsue_generates_only_the_payload_its_data_log_keeps() {
    let window = overwrite_one_range(|| Box::new(Tsue::ssd()), 16);
    assert_eq!(window.filled_bytes, 0, "nothing is buffered: {window:?}");
    assert_eq!(
        window.streamed_bytes,
        4096 + 2 * 4096,
        "superseded payloads must never be generated: {window:?}"
    );
    assert_eq!(window.pool_misses, 1, "only the data delta: {window:?}");
}

/// PARIX writes each update in place on arrival, generating it straight
/// into the store pages: 16 × 4096 bytes. Its forwards share that unread
/// handle, and on each of the m = 2 parity peers `latest` keeps only the
/// newest, which the flush's recycle XORs into the delta's buffer through
/// its page scratch: 2 × 4096 more (the originals it XORs against are
/// store reads, not payloads). Each peer's scaled delta is a recipe
/// generated into the parity block: 2 × 4096 more. 16·4096 + 2·4096 +
/// 2·4096 = 81 920 bytes generated, none buffered. Three buffers are
/// allocated: the first touch's read of the original, which it forwards,
/// and one delta per parity peer.
#[test]
fn parix_generates_every_payload_on_arrival() {
    let window = overwrite_one_range(|| Box::new(Parix::new()), 16);
    assert_eq!(window.deferred_bytes, 16 * 4096 + 2 * 4096);
    assert_eq!(window.filled_bytes, 0, "nothing is buffered: {window:?}");
    assert_eq!(window.streamed_bytes, (16 + 2 + 2) * 4096, "{window:?}");
    assert_eq!(window.pool_misses, 1 + 2, "{window:?}");
}

/// The schemes whose data side is a read-modify-write on arrival stream
/// every payload into the delta capture's page scratch (16 × 4096 bytes)
/// and allocate one buffer per capture, the data delta (16). FO, PL and
/// PLR send m = 2 scaled deltas per update, each a recipe generated into
/// the parity block: 16·4096 + 16·2·4096 = 196 608 bytes. CoRD folds the
/// 16 deltas at its collector and drains one combined recipe per parity:
/// 16·4096 + 2·4096 = 73 728. FL logs the data side newest-wins, and its
/// drain captures only the newest (one delta, one buffer) and scales it
/// twice: 4096 + 2·4096 = 12 288. None fills a payload or a parity delta
/// into a buffer.
#[test]
fn no_other_scheme_fills_a_client_payload() {
    let schemes: [(&str, NewScheme, u64, u64); 5] = [
        ("FO", || Box::new(Fo::new()), 16 + 16 * 2, 16),
        ("FL", || Box::new(Fl::new()), 1 + 2, 1),
        ("PL", || Box::new(Pl::new()), 16 + 16 * 2, 16),
        ("PLR", || Box::new(Plr::new()), 16 + 16 * 2, 16),
        ("CoRD", || Box::new(Cord::new()), 16 + 2, 16),
    ];
    for (name, scheme, pages, allocations) in schemes {
        let window = overwrite_one_range(scheme, 16);
        assert_eq!(window.filled_bytes, 0, "{name}: {window:?}");
        assert_eq!(window.streamed_bytes, pages * 4096, "{name}: {window:?}");
        assert_eq!(window.pool_misses, allocations, "{name}: {window:?}");
    }
}

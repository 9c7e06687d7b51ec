//! Zero-copy invariants of the data plane, measured with the
//! [`tsue_buf`] copy and allocation counters.
//!
//! The headline guarantee: the **data-log stage** — a client write landing
//! at its OSD, appending to the DataLog index, and acking — performs zero
//! deep copies of the payload. The buffer the payload was born in is the
//! buffer the log holds, shared by refcount.
//!
//! A client write's payload is a deferred buffer ([`payload_chunk`]):
//! generated on its first read, so bytes TSUE's DataLog supersedes before
//! its seal-time capture are never generated at all.

use tsue_repro::buf;
use tsue_repro::core::Tsue;
use tsue_repro::ecfs::scheme::{deliver_update, UpdateReq};
use tsue_repro::ecfs::{
    check_consistency, payload_chunk, payload_into, BlockId, Chunk, Cluster, ClusterBuilder,
    UpdateScheme,
};
use tsue_repro::schemes::Parix;
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

/// Builds the chunks of `n` client overwrites of block 0's first 4 KiB
/// (op ids `0..n`, as the client issues them), checks that building
/// them fills nothing, delivers them, drains every log, and checks the
/// cluster against the arrival replay. Returns the buffer-counter window
/// from the first chunk built to the end of the drain.
fn overwrite_one_range(scheme: fn() -> Box<dyn UpdateScheme>, n: u64) -> buf::BufStats {
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
/// its seal-time capture reads them: only the newest payload is ever
/// generated.
#[test]
fn tsue_generates_only_the_payload_its_data_log_keeps() {
    let window = overwrite_one_range(|| Box::new(Tsue::ssd()), 16);
    assert_eq!(
        window.filled_bytes, 4096,
        "superseded payloads must never be generated: {window:?}"
    );
}

/// PARIX writes each update in place on arrival, so the same traffic
/// generates every payload byte, each exactly once.
#[test]
fn parix_generates_every_payload_on_arrival() {
    let window = overwrite_one_range(|| Box::new(Parix::new()), 16);
    assert_eq!(window.deferred_bytes, 16 * 4096);
    assert_eq!(window.filled_bytes, window.deferred_bytes, "{window:?}");
}

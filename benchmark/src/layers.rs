//! Layer micro-drivers: each calls one crate's public function in a tight
//! loop, from outside, on extent sizes and offsets drawn from the
//! workload's own `TraceGen(seed)`. The unit costs they return are
//! cache-warm, so `count x unit cost` is a floor on the layer's share.

use crate::spans::Spans;
use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tsue_bench::ScenarioSpec;
use tsue_core::LogUnit;
use tsue_device::{Device, IoKind, SsdModel};
use tsue_ec::RsCode;
use tsue_ecfs::{Chunk, Discipline, RangeMap};
use tsue_net::NetModel;
use tsue_obs::Histogram;
use tsue_sim::Sim;
use tsue_trace::{OpKind, TraceGen, TraceOp};

/// Timed batches per micro-driver; the reported cost is their median.
const BATCHES: usize = 5;
/// Fixed buffer for the bandwidth rows.
const BULK: usize = 64 << 10;
const PAGE: usize = 4 << 10;

/// Unit costs of one workload's layers (ns per call unless named).
#[derive(Clone, Debug, Default)]
pub struct UnitCosts {
    pub sim_empty_event_ns: f64,
    pub device_submit_ns: f64,
    pub net_transfer_ns: f64,
    pub trace_next_op_ns: f64,
    pub obs_record_ns: f64,
    pub gf_mul_add_gbps: f64,
    pub gf_xor_gbps: f64,
    pub gf_mul_add_4k_ns: f64,
    pub ec_data_delta_4k_ns: f64,
    pub ec_combine_4k_ns: f64,
    pub ec_encode_mbps: f64,
    pub ec_reconstruct_mbps: f64,
    /// One update extent's GF work at the workload's sizes: the data
    /// delta plus `m` parity-delta multiply-accumulates.
    pub ec_update_mix_ns: f64,
    pub buf_take_ns: f64,
    pub buf_copy_gbps: f64,
    pub integrity_checksum_gbps: f64,
    pub rangemap_insert_ns: f64,
    pub payload_gbps: f64,
    pub logunit_append_ns: f64,
    /// Mean update bytes, and the same rounded up to whole 4 KiB pages.
    pub mean_update_bytes: f64,
    pub mean_paged_bytes: f64,
}

/// Median ns per call of `f` over [`BATCHES`] batches of `batch` each.
fn ns_per_call(batch: Duration, mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        let mut calls = 0u64;
        loop {
            for _ in 0..16 {
                f();
            }
            calls += 16;
            if start.elapsed() >= batch {
                break;
            }
        }
        per_call.push(start.elapsed().as_nanos() as f64 / calls as f64);
    }
    median(&per_call)
}

fn gbps(bytes_per_call: usize, ns: f64) -> f64 {
    bytes_per_call as f64 / ns
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ salt)
        .collect()
}

/// Runs every micro-driver for `spec`, one span each.
pub fn measure(spec: &ScenarioSpec, batch: Duration, spans: &mut Spans) -> UnitCosts {
    let volume = spec.file_mb() << 20;
    let mut gen = TraceGen::new(spec.trace.profile(), volume, spec.seed());
    let ops: Vec<TraceOp> = gen.take_ops(1024);
    let updates: Vec<&TraceOp> = ops.iter().filter(|o| o.kind == OpKind::Write).collect();
    let sizes: Vec<usize> = updates.iter().map(|o| o.len as usize).collect();
    let rs = RsCode::new(spec.k, spec.m).expect("catalog RS shape is valid");
    let mut c = UnitCosts {
        mean_update_bytes: sizes.iter().sum::<usize>() as f64 / sizes.len() as f64,
        mean_paged_bytes: sizes
            .iter()
            .map(|&s| (s.div_ceil(PAGE) * PAGE) as f64)
            .sum::<f64>()
            / sizes.len() as f64,
        ..UnitCosts::default()
    };
    let mut i = 0usize;
    let mut next = move |n: usize| {
        i = (i + 1) % n;
        i
    };

    let s = spans.enter("sim.schedule_run");
    c.sim_empty_event_ns = {
        let mut sim: Sim<u64> = Sim::new();
        let mut world = 0u64;
        // 64 events queued per call keeps the heap a realistic depth.
        ns_per_call(batch, || {
            for d in 0..64u64 {
                sim.schedule(d, |w: &mut u64, _: &mut Sim<u64>| *w += 1);
            }
            sim.run(&mut world);
        }) / 64.0
    };
    spans.exit(s);

    let s = spans.enter("device.submit");
    c.device_submit_ns = {
        let mut dev = Device::new_ssd(SsdModel::datacenter(2 << 30));
        let mut now = 0u64;
        ns_per_call(batch, || {
            let op = updates[next(updates.len())];
            now = black_box(dev.submit(now, IoKind::Write, op.offset, op.len, 1));
        })
    };
    spans.exit(s);

    let s = spans.enter("net.transfer");
    c.net_transfer_ns = {
        let nodes = spec.osds() + spec.clients;
        let mut net = NetModel::new(spec.net_spec(), nodes);
        let mut now = 0u64;
        ns_per_call(batch, || {
            let j = next(sizes.len());
            now = black_box(net.transfer(now, j % nodes, (j + 7) % nodes, sizes[j] as u64));
        })
    };
    spans.exit(s);

    let s = spans.enter("trace.next_op");
    c.trace_next_op_ns = ns_per_call(batch, || {
        black_box(gen.next_op());
    });
    spans.exit(s);

    let s = spans.enter("obs.record");
    c.obs_record_ns = {
        let mut h = Histogram::new();
        ns_per_call(batch, || {
            h.record(black_box(90_000 + 37 * sizes[next(sizes.len())] as u64));
        })
    };
    spans.exit(s);

    let src = pattern(BULK, 0x5a);
    let mut dst = pattern(BULK, 0xc3);
    let s = spans.enter("gf.slices");
    c.gf_mul_add_gbps = gbps(
        BULK,
        ns_per_call(batch, || {
            tsue_gf::mul_add_slice(0x1d, black_box(&src), &mut dst)
        }),
    );
    c.gf_xor_gbps = gbps(
        BULK,
        ns_per_call(batch, || tsue_gf::xor_slice(black_box(&src), &mut dst)),
    );
    c.gf_mul_add_4k_ns = ns_per_call(batch, || {
        tsue_gf::mul_add_slice(0x1d, black_box(&src[..PAGE]), &mut dst[..PAGE])
    });
    spans.exit(s);

    let s = spans.enter("ec.codec");
    let newer = pattern(BULK, 0x99);
    c.ec_data_delta_4k_ns = ns_per_call(batch, || {
        tsue_ec::data_delta_into(black_box(&src[..PAGE]), &newer[..PAGE], &mut dst[..PAGE])
    });
    c.ec_combine_4k_ns = ns_per_call(batch, || {
        rs.fill_combined_parity_delta(
            1,
            &[(0, black_box(&src[..PAGE])), (3, &newer[..PAGE])],
            &mut dst[..PAGE],
        )
    });
    c.ec_update_mix_ns = ns_per_call(batch, || {
        let n = sizes[next(sizes.len())].min(BULK);
        let mut delta = tsue_buf::BytesMut::take(n);
        tsue_ec::data_delta_into(black_box(&src[..n]), &newer[..n], &mut delta);
        for j in 0..rs.m() {
            rs.parity_delta_into(j, 2, &delta, &mut dst[..n]);
        }
    });
    let data: Vec<Vec<u8>> = (0..rs.k()).map(|r| pattern(BULK, r as u8)).collect();
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let mut parity = vec![vec![0u8; BULK]; rs.m()];
    let encode_ns = ns_per_call(batch, || {
        rs.encode_into(black_box(&refs), &mut parity)
            .expect("shapes match")
    });
    c.ec_encode_mbps = (rs.k() * BULK) as f64 / encode_ns * 1e3;
    // Rebuild data block 0 from blocks 1..k plus the first parity.
    let present: Vec<(usize, &[u8])> = (1..rs.k())
        .map(|r| (r, data[r].as_slice()))
        .chain([(rs.k(), parity[0].as_slice())])
        .collect();
    let reconstruct_ns = ns_per_call(batch, || {
        rs.reconstruct_one(black_box(&present), 0, &mut dst)
            .expect("k survivors present")
    });
    c.ec_reconstruct_mbps = BULK as f64 / reconstruct_ns * 1e3;
    spans.exit(s);

    let s = spans.enter("buf.pool");
    c.buf_take_ns = ns_per_call(batch, || {
        black_box(tsue_buf::BytesMut::take(sizes[next(sizes.len())]));
    });
    c.buf_copy_gbps = gbps(
        BULK,
        ns_per_call(batch, || {
            black_box(tsue_buf::BytesMut::copy_of(black_box(&src)));
        }),
    );
    spans.exit(s);

    let s = spans.enter("integrity.checksum");
    c.integrity_checksum_gbps = gbps(
        PAGE,
        ns_per_call(batch, || {
            black_box(tsue_integrity::checksum(black_box(&src[..PAGE])));
        }),
    );
    spans.exit(s);

    let s = spans.enter("ecfs.rangemap_insert");
    c.rangemap_insert_ns = {
        let mut map = RangeMap::new();
        ns_per_call(batch, || {
            let op = updates[next(updates.len())];
            // One block's worth of offsets, so inserts overlap and merge
            // as they do inside a log unit.
            map.insert(op.offset % (1 << 20), Chunk::ghost(op.len));
            if map.len() > 256 {
                map.clear();
            }
        })
    };
    spans.exit(s);

    let s = spans.enter("ecfs.payload_into");
    c.payload_gbps = gbps(
        BULK,
        ns_per_call(batch, || tsue_ecfs::payload_into(black_box(7), 0, &mut dst)),
    );
    spans.exit(s);

    let s = spans.enter("core.logunit_append");
    c.logunit_append_ns = {
        let mut unit: LogUnit<u64> = LogUnit::new(0);
        let mut now = 0u64;
        ns_per_call(batch, || {
            let op = updates[next(updates.len())];
            now += 1_000;
            unit.append(
                op.offset >> 20,
                op.offset % (1 << 20),
                Chunk::ghost(op.len),
                Discipline::Overwrite,
                true,
                now,
            );
            if unit.raw_records > 512 {
                unit.reset();
            }
        })
    };
    spans.exit(s);
    c
}

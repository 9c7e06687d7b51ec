//! End-to-end observability for the TSUE reproduction.
//!
//! Three layers, all in deterministic virtual time:
//!
//! * [`Histogram`] — log-bucketed HDR-style latency histograms
//!   (p50/p90/p99/p999/max) recorded per **op class** (update, read,
//!   degraded write, recovery decode, scrub round), per pipeline
//!   **stage** (client issue → MDS map → OSD data-log append → delta
//!   forward → recycle merge → ack), and per **log layer × residence
//!   phase** (DataLog, DeltaLog, ParityLog × append, buffer, recycle —
//!   the paper's Table 2).
//! * [`TraceRing`] — an optional bounded ring of op-lifecycle spans,
//!   exported as Chrome `trace_event` JSON (`tsuectl run --trace-out`).
//! * [`ObsSeries`] — per-node / per-rack metric families (bytes, ops,
//!   device busy time, queue pressure, uplink utilization) sampled on a
//!   configurable cadence by the scenario harness.
//!
//! Everything here is recorded from single-threaded DES events keyed
//! by `op_id`, and histograms merge by element-wise addition folded in
//! a fixed sorted order — so results are bit-identical run to run.

#![warn(missing_docs)]

mod hist;
mod trace;

pub use hist::{HistReport, Histogram, LatencySummary, NUM_BUCKETS, SUB_BUCKETS};
pub use trace::{TraceEvent, TraceRing, DEFAULT_TRACE_CAPACITY};

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use tsue_sim::{IdWindow, Time};

/// Completed-operation classes, each with its own latency histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// Client update (write) completed on the normal two-stage path.
    Update,
    /// Client read completed (including degraded reconstructions).
    Read,
    /// Client update completed after parking in the degraded-write
    /// journal because its home OSD was dead.
    DegradedWrite,
    /// One block rebuilt by the recovery engine: survivor reads through
    /// decode to the rebuilt block hitting the device.
    RecoveryDecode,
    /// One background-scrub block verification round.
    ScrubRound,
}

impl OpClass {
    /// Every class, in the fixed report order.
    pub const ALL: [OpClass; 5] = [
        OpClass::Update,
        OpClass::Read,
        OpClass::DegradedWrite,
        OpClass::RecoveryDecode,
        OpClass::ScrubRound,
    ];

    /// Stable lower-snake token used in reports and trace events.
    pub fn token(self) -> &'static str {
        match self {
            OpClass::Update => "update",
            OpClass::Read => "read",
            OpClass::DegradedWrite => "degraded_write",
            OpClass::RecoveryDecode => "recovery_decode",
            OpClass::ScrubRound => "scrub_round",
        }
    }

    const fn idx(self) -> usize {
        self as usize
    }
}

/// Op-lifecycle pipeline stages, each with its own duration histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Client dispatch + wire time: op issue until the update extent
    /// arrives at its home OSD.
    ClientIssue,
    /// MDS extent→stripe map lookup. The model charges no time here, so
    /// this histogram pins the stage at zero — it exists to make the
    /// lifecycle decomposition total.
    MdsMap,
    /// OSD service: extent arrival until the scheme acks it durable
    /// (DataLog append for log-structured schemes).
    DataLogAppend,
    /// Scheme-to-scheme delta forward wire hop (data/parity deltas).
    DeltaForward,
    /// One log-unit recycle merge (data, delta, or parity layer): the
    /// three layers' recycle histograms of the residence grid, merged.
    RecycleMerge,
    /// Ack wire time: OSD completion back to the issuing client.
    Ack,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::ClientIssue,
        Stage::MdsMap,
        Stage::DataLogAppend,
        Stage::DeltaForward,
        Stage::RecycleMerge,
        Stage::Ack,
    ];

    /// Stable lower-snake token used in reports and trace events.
    pub fn token(self) -> &'static str {
        match self {
            Stage::ClientIssue => "client_issue",
            Stage::MdsMap => "mds_map",
            Stage::DataLogAppend => "data_log_append",
            Stage::DeltaForward => "delta_forward",
            Stage::RecycleMerge => "recycle_merge",
            Stage::Ack => "ack",
        }
    }

    const fn idx(self) -> usize {
        self as usize
    }
}

/// A log layer of TSUE's three-layer log structure, in pipeline order.
/// The discriminant indexes the residence grid, and TSUE uses it to index
/// its layers, stride its unit ids and tag its seal timers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogLayer {
    /// The DataLog: update extents at their home OSD.
    Data,
    /// The DeltaLog: data deltas at the first parity owner.
    Delta,
    /// The ParityLog: parity deltas at every parity owner.
    Parity,
}

impl LogLayer {
    /// Every layer, in pipeline order (Table 2's rows).
    pub const ALL: [LogLayer; 3] = [LogLayer::Data, LogLayer::Delta, LogLayer::Parity];

    /// Stable lower-snake token used in reports.
    pub fn token(self) -> &'static str {
        match self {
            LogLayer::Data => "data_log",
            LogLayer::Delta => "delta_log",
            LogLayer::Parity => "parity_log",
        }
    }
}

/// One log layer's residence histograms: where its records' time goes
/// between append and the end of their unit's recycle (a row of Table 2).
#[derive(Clone, Debug, Default)]
pub struct LayerHists {
    /// Append persist latency, one sample per record.
    pub append: Histogram,
    /// Dwell from a unit's first append to its recycle start, per unit.
    pub buffer: Histogram,
    /// Recycle duration, per unit (recorded by [`ObsState::recycle_merged`]).
    pub recycle: Histogram,
}

/// Per-op span bookkeeping: extent arrivals not yet matched with their
/// service completion. FIFO pairing — OSD scheme callbacks complete
/// extents in coordinator event order, which is deterministic.
#[derive(Debug, Default)]
struct SpanState {
    arrivals: VecDeque<Time>,
}

/// The cluster's observability state: per-class, per-stage and
/// per-residence histograms, in-flight span bookkeeping keyed by `op_id`,
/// the optional trace ring, and the time-series samples collected by the
/// harness probe.
#[derive(Debug, Default)]
pub struct ObsState {
    classes: Vec<Histogram>,
    /// Indexed by [`Stage`]; the `RecycleMerge` slot stays empty, that
    /// stage being the merge of the three `residence[..].recycle`.
    stages: Vec<Histogram>,
    /// TSUE's log-layer residence (Table 2), indexed by [`LogLayer`].
    pub residence: [LayerHists; 3],
    spans: IdWindow<SpanState>,
    trace: Option<TraceRing>,
    /// Time-series samples appended by the scenario harness probe.
    pub series: ObsSeries,
}

impl ObsState {
    /// Fresh state with tracing disabled.
    pub fn new() -> Self {
        ObsState {
            classes: (0..OpClass::ALL.len()).map(|_| Histogram::new()).collect(),
            stages: (0..Stage::ALL.len()).map(|_| Histogram::new()).collect(),
            residence: Default::default(),
            spans: IdWindow::new(),
            trace: None,
            series: ObsSeries::default(),
        }
    }

    /// Turns on span tracing into a ring of at most `capacity` events.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceRing::new(capacity));
    }

    /// The trace ring, when tracing is on.
    pub fn trace(&self) -> Option<&TraceRing> {
        self.trace.as_ref()
    }

    /// Renders the trace ring as Chrome `trace_event` JSON, if tracing.
    pub fn trace_json(&self) -> Option<String> {
        self.trace.as_ref().map(|t| t.chrome_json())
    }

    #[inline]
    fn emit(
        &mut self,
        name: &'static str,
        cat: &'static str,
        ts: Time,
        dur: Time,
        pid: u64,
        tid: u64,
    ) {
        if let Some(ring) = self.trace.as_mut() {
            ring.push(TraceEvent {
                name,
                cat,
                ts,
                dur,
                pid,
                tid,
            });
        }
    }

    /// The cumulative histogram of one op class.
    pub fn class_hist(&self, class: OpClass) -> &Histogram {
        &self.classes[class.idx()]
    }

    /// The cumulative histogram of one pipeline stage.
    pub fn stage_hist(&self, stage: Stage) -> Histogram {
        if stage != Stage::RecycleMerge {
            return self.stages[stage.idx()].clone();
        }
        let mut h = Histogram::new();
        for layer in LogLayer::ALL {
            h.merge(&self.residence[layer as usize].recycle);
        }
        h
    }

    /// All client-op completions (update + read + degraded write) merged,
    /// in the fixed class order — the "foreground latency" histogram the
    /// fault engine snapshots around failure phases.
    pub fn client_op_hist(&self) -> Histogram {
        let mut h = self.classes[OpClass::Update.idx()].clone();
        h.merge(&self.classes[OpClass::Read.idx()]);
        h.merge(&self.classes[OpClass::DegradedWrite.idx()]);
        h
    }

    /// Sum of all completed client-op latencies, ns.
    pub fn total_client_latency(&self) -> Time {
        self.client_op_hist().sum()
    }

    /// Maximum completed client-op latency, ns.
    pub fn max_client_latency(&self) -> Time {
        self.client_op_hist().max()
    }

    /// A client op was issued: starts its span and records the (zero-cost
    /// in this model) MDS map stage.
    pub fn op_issued(&mut self, op_id: u64, client: usize, now: Time) {
        self.spans.get_or_insert_with(op_id, SpanState::default);
        self.stages[Stage::MdsMap.idx()].record(0);
        self.emit(Stage::MdsMap.token(), "stage", now, 0, client as u64, op_id);
    }

    /// An update extent arrived at its home OSD: closes the client-issue
    /// stage and queues the arrival for service-time pairing.
    pub fn update_arrival(&mut self, op_id: u64, osd: usize, issued_at: Time, now: Time) {
        let dur = now.saturating_sub(issued_at);
        self.stages[Stage::ClientIssue.idx()].record(dur);
        self.spans
            .get_or_insert_with(op_id, SpanState::default)
            .arrivals
            .push_back(now);
        self.emit(
            Stage::ClientIssue.token(),
            "stage",
            issued_at,
            dur,
            osd as u64,
            op_id,
        );
    }

    /// The scheme acked one extent durable: closes the OSD service stage
    /// against the oldest unmatched arrival of the op (FIFO pairing).
    pub fn extent_service_done(&mut self, op_id: u64, osd: usize, now: Time) {
        let Some(t0) = self
            .spans
            .get_mut(op_id)
            .and_then(|s| s.arrivals.pop_front())
        else {
            return; // degraded extents park without a tracked arrival
        };
        let dur = now.saturating_sub(t0);
        self.stages[Stage::DataLogAppend.idx()].record(dur);
        self.emit(
            Stage::DataLogAppend.token(),
            "stage",
            t0,
            dur,
            osd as u64,
            op_id,
        );
    }

    /// An extent ack left the OSD for the client; `arrival` is its
    /// already-computed wire delivery time.
    pub fn ack_sent(&mut self, op_id: u64, client: usize, now: Time, arrival: Time) {
        let dur = arrival.saturating_sub(now);
        self.stages[Stage::Ack.idx()].record(dur);
        self.emit(Stage::Ack.token(), "stage", now, dur, client as u64, op_id);
    }

    /// A scheme delta message left `src` for `dst`, delivered at `arrival`.
    pub fn delta_forwarded(&mut self, src: usize, dst: usize, now: Time, arrival: Time) {
        let dur = arrival.saturating_sub(now);
        self.stages[Stage::DeltaForward.idx()].record(dur);
        self.emit(
            Stage::DeltaForward.token(),
            "stage",
            now,
            dur,
            src as u64,
            dst as u64,
        );
    }

    /// One `layer` log-unit recycle merge finished on `osd`, having
    /// started at `started`.
    pub fn recycle_merged(
        &mut self,
        osd: usize,
        layer: LogLayer,
        unit: u64,
        started: Time,
        now: Time,
    ) {
        let dur = now.saturating_sub(started);
        self.residence[layer as usize].recycle.record(dur);
        self.emit(
            Stage::RecycleMerge.token(),
            "stage",
            started,
            dur,
            osd as u64,
            unit,
        );
    }

    /// Records a completed whole operation of `class`. Client classes
    /// close the op's span; recovery/scrub rounds pass a synthetic lane
    /// id that never touches the span table.
    pub fn op_complete(
        &mut self,
        class: OpClass,
        op_id: u64,
        node: usize,
        started: Time,
        now: Time,
    ) {
        let dur = now.saturating_sub(started);
        self.classes[class.idx()].record(dur);
        if matches!(
            class,
            OpClass::Update | OpClass::Read | OpClass::DegradedWrite
        ) {
            self.spans.remove(op_id);
        }
        self.emit(class.token(), "op", started, dur, node as u64, op_id);
    }

    /// The serializable report: per-class, per-stage and per-residence
    /// histograms in fixed order plus the collected time series.
    pub fn report(&self) -> ObsReport {
        ObsReport {
            classes: OpClass::ALL
                .iter()
                .map(|&c| self.classes[c.idx()].report(c.token()))
                .collect(),
            stages: Stage::ALL
                .iter()
                .map(|&s| self.stage_hist(s).report(s.token()))
                .collect(),
            residence: LogLayer::ALL
                .iter()
                .map(|&layer| {
                    let h = &self.residence[layer as usize];
                    LayerResidence {
                        layer: layer.token().to_string(),
                        append: h.append.report("append"),
                        buffer: h.buffer.report("buffer"),
                        recycle: h.recycle.report("recycle"),
                    }
                })
                .collect(),
            series: self.series.clone(),
        }
    }
}

/// One node's counters at a sample instant (cumulative since run start).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeSample {
    /// Bytes this node has put on the wire.
    pub tx_bytes: u64,
    /// Bytes delivered to this node.
    pub rx_bytes: u64,
    /// Foreground device ops completed (reads + writes).
    pub dev_ops: u64,
    /// Device busy time, virtual ns.
    pub dev_busy_ns: u64,
    /// Queue pressure: how far ahead of `now` the device is booked,
    /// virtual ns (0 when idle).
    pub queue_ns: u64,
}

/// One rack's ToR-uplink counters at a sample instant.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RackSample {
    /// Bytes that left the rack through its uplink (cumulative).
    pub up_bytes: u64,
    /// Bytes that entered the rack through its uplink (cumulative).
    pub down_bytes: u64,
    /// Mean uplink (egress) utilization since the window start, `[0, 1]`
    /// (0 on flat topologies with no modeled uplink).
    pub up_util: f64,
}

/// One probe firing: every node and rack sampled at the same instant.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ObsSample {
    /// Sample time, virtual ms since run start.
    pub t_ms: u64,
    /// Per-OSD-node samples, indexed by node id.
    pub nodes: Vec<NodeSample>,
    /// Per-rack samples, indexed by rack id.
    pub racks: Vec<RackSample>,
}

/// The time-series section of a run result: utilization curves instead
/// of end-of-run scalars.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ObsSeries {
    /// Probe cadence, virtual ms (0 = sampling disabled).
    pub cadence_ms: u64,
    /// Samples in time order.
    pub samples: Vec<ObsSample>,
}

/// One log layer's row of the residence grid (a row of Table 2).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LayerResidence {
    /// The [`LogLayer::token`].
    pub layer: String,
    /// Append persist latency, one sample per record.
    pub append: HistReport,
    /// Dwell from a unit's first append to its recycle start, per unit.
    pub buffer: HistReport,
    /// Recycle duration, per unit.
    pub recycle: HistReport,
}

/// The full serialized observability section of a `RunResult`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ObsReport {
    /// Per-op-class latency histograms, in [`OpClass::ALL`] order.
    pub classes: Vec<HistReport>,
    /// Per-stage duration histograms, in [`Stage::ALL`] order.
    pub stages: Vec<HistReport>,
    /// Per-log-layer residence rows, in [`LogLayer::ALL`] order; only
    /// TSUE records samples in them.
    pub residence: Vec<LayerResidence>,
    /// Per-node / per-rack time series.
    pub series: ObsSeries,
}

impl ObsReport {
    /// The class histogram report named `token`, if present.
    pub fn class(&self, token: &str) -> Option<&HistReport> {
        self.classes.iter().find(|c| c.name == token)
    }

    /// The merged client-op (update + read + degraded write) summary.
    pub fn client_summary(&self) -> LatencySummary {
        let mut h = Histogram::new();
        for name in ["update", "read", "degraded_write"] {
            if let Some(r) = self.class(name) {
                // Reconstruction is bucket-accurate by design.
                for &(idx, c) in &r.buckets {
                    h.record_n(bucket_value(idx), c);
                }
            }
        }
        h.summary()
    }
}

/// Representative (lower-edge) value of a bucket index — the inverse of
/// histogram bucketing, used to rebuild a histogram from its sparse
/// serialized buckets.
fn bucket_value(idx: u32) -> u64 {
    let idx = idx as usize;
    if idx < SUB_BUCKETS {
        idx as u64
    } else {
        let g = (idx - SUB_BUCKETS) / SUB_BUCKETS;
        let sub = (idx - SUB_BUCKETS) % SUB_BUCKETS;
        ((SUB_BUCKETS + sub) as u64) << g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_records_all_stages_and_classes() {
        let mut obs = ObsState::new();
        obs.enable_trace(64);
        obs.op_issued(1, 0, 100);
        obs.update_arrival(1, 3, 100, 150);
        obs.extent_service_done(1, 3, 190);
        obs.ack_sent(1, 0, 190, 210);
        obs.delta_forwarded(3, 4, 160, 170);
        obs.recycle_merged(3, LogLayer::Delta, 9, 120, 400);
        obs.op_complete(OpClass::Update, 1, 0, 100, 210);
        for s in Stage::ALL {
            assert_eq!(obs.stage_hist(s).count(), 1, "stage {:?}", s);
        }
        assert_eq!(obs.stage_hist(Stage::ClientIssue).sum(), 50);
        assert_eq!(obs.stage_hist(Stage::DataLogAppend).sum(), 40);
        assert_eq!(obs.stage_hist(Stage::Ack).sum(), 20);
        assert_eq!(obs.class_hist(OpClass::Update).sum(), 110);
        assert_eq!(obs.total_client_latency(), 110);
        assert_eq!(obs.max_client_latency(), 110);
        let trace = obs.trace().unwrap();
        assert_eq!(trace.len(), 7);
        assert!(obs.trace_json().unwrap().contains("\"ph\":\"X\""));
        assert!(obs.spans.is_empty(), "span closed on completion");
    }

    #[test]
    fn service_pairing_is_fifo_and_tolerates_unmatched_completions() {
        let mut obs = ObsState::new();
        obs.update_arrival(7, 0, 0, 10);
        obs.update_arrival(7, 0, 0, 20);
        obs.extent_service_done(7, 0, 25); // pairs with t=10
        obs.extent_service_done(7, 0, 26); // pairs with t=20
        obs.extent_service_done(7, 0, 27); // unmatched: ignored
        assert_eq!(obs.stage_hist(Stage::DataLogAppend).count(), 2);
        assert_eq!(obs.stage_hist(Stage::DataLogAppend).sum(), 15 + 6);
    }

    #[test]
    fn report_round_trips_and_summarizes_clients() {
        let mut obs = ObsState::new();
        obs.op_complete(OpClass::Update, 1, 0, 0, 1000);
        obs.op_complete(OpClass::Read, 2, 0, 0, 3000);
        obs.op_complete(OpClass::ScrubRound, 0, 1, 0, 500);
        let rep = obs.report();
        assert_eq!(rep.classes.len(), OpClass::ALL.len());
        assert_eq!(rep.stages.len(), Stage::ALL.len());
        assert_eq!(rep.class("update").unwrap().count, 1);
        let s = rep.client_summary();
        assert_eq!(s.count, 2, "scrub rounds are not client ops");
        let json = serde_json::to_string_pretty(&rep).unwrap();
        let back: ObsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn tracing_off_records_histograms_only() {
        let mut obs = ObsState::new();
        obs.op_issued(1, 0, 0);
        obs.op_complete(OpClass::Read, 1, 0, 0, 10);
        assert!(obs.trace_json().is_none());
        assert_eq!(obs.class_hist(OpClass::Read).count(), 1);
    }
}

//! The program's public traits, implemented here so the traced run sees
//! layer boundaries from outside: each wrapper forwards every call
//! unchanged and only reads a clock or bumps a counter around it.

use crate::spans::Recorder;
use glap_cluster::{DataCenter, DemandSource, Resources, VmId};
use glap_codec::{identity_payload_len, subtag};
use glap_cyclon::NodeId;
use glap_dcsim::{ConsolidationPolicy, Observer, RoundCtx, SimRng};
use glap_node::{
    coded_header, payload_tag, NodeInput, Routed, Transport, TAG_AGG_PUSH, TAG_AGG_PUSH_CODED,
};
use glap_qlearn::QTablePair;
use glap_snapshot::{Reader, SnapshotError, Writer};
use std::cell::RefCell;
use std::time::Instant;

/// Counts `demand` calls and stamps the clock only when `round` changes
/// — one clock read per simulated round, which gives `train`'s
/// per-learning-round boundaries and the day's round starts.
pub struct StampedDemand<'a, D> {
    inner: D,
    rec: &'a Recorder,
    last_round: Option<u64>,
    pub calls: u64,
    /// `rec.now_ns()` at the first `demand` call of each round.
    pub round_starts_ns: Vec<u64>,
}

impl<'a, D: DemandSource> StampedDemand<'a, D> {
    pub fn new(inner: D, rec: &'a Recorder) -> Self {
        StampedDemand {
            inner,
            rec,
            last_round: None,
            calls: 0,
            round_starts_ns: Vec::new(),
        }
    }
}

impl<D: DemandSource> DemandSource for StampedDemand<'_, D> {
    #[inline]
    fn demand(&mut self, vm: VmId, round: u64) -> Resources {
        if self.last_round != Some(round) {
            self.last_round = Some(round);
            self.round_starts_ns.push(self.rec.now_ns());
        }
        self.calls += 1;
        self.inner.demand(vm, round)
    }
}

/// Records a span around `init` and around every `round`.
pub struct TimedPolicy<'a> {
    inner: Box<dyn ConsolidationPolicy>,
    rec: &'a Recorder,
    init_span: &'static str,
    round_span: &'static str,
}

impl<'a> TimedPolicy<'a> {
    pub fn new(
        inner: Box<dyn ConsolidationPolicy>,
        rec: &'a Recorder,
        init_span: &'static str,
        round_span: &'static str,
    ) -> Self {
        TimedPolicy {
            inner,
            rec,
            init_span,
            round_span,
        }
    }
}

impl ConsolidationPolicy for TimedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, dc: &mut DataCenter, rng: &mut SimRng) {
        let _s = self.rec.span(self.init_span);
        self.inner.init(dc, rng);
    }

    fn round(&mut self, ctx: &mut RoundCtx<'_>) {
        let _s = self.rec.span(self.round_span);
        self.inner.round(ctx);
    }

    fn save_state(&self, w: &mut Writer) {
        self.inner.save_state(w);
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        self.inner.restore_state(r)
    }
}

/// Span name of one observer notification.
pub const OBSERVE_SPAN: &str = "metrics.collect";

/// Records a span around every `on_round_end`; the span's end is the
/// round's end.
pub struct TimedObserver<'a, O> {
    pub inner: O,
    rec: &'a Recorder,
}

impl<'a, O: Observer> TimedObserver<'a, O> {
    pub fn new(inner: O, rec: &'a Recorder) -> Self {
        TimedObserver { inner, rec }
    }
}

impl<O: Observer> Observer for TimedObserver<'_, O> {
    fn on_round_end(&mut self, round: u64, dc: &mut DataCenter) {
        let _s = self.rec.span(OBSERVE_SPAN);
        self.inner.on_round_end(round, dc);
    }
}

/// What a [`TimedTransport`] saw. Shared by reference because
/// `Transport::into_tables` consumes the transport.
#[derive(Debug, Default)]
pub struct TransportStats {
    /// Nanoseconds of each `dispatch` call, in call order.
    pub dispatch_ns: Vec<u32>,
    /// Messages returned by `dispatch` (every one is put on the wire).
    pub wire_msgs: u64,
    /// Their payload bytes.
    pub wire_bytes: u64,
    /// `Failed` inputs bouncing a table push back to its sender: each
    /// is one retried (or abandoned) merge.
    pub merge_retried: u64,
    /// Total nanoseconds inside `train_all`.
    pub train_all_ns: u64,
    /// Coded table payloads put on the wire, and of those the complete
    /// tables (`FULL`) and the version-mismatch resyncs (`STALE_FULL`).
    pub codec_payloads: u64,
    pub codec_full_payloads: u64,
    pub codec_fallbacks: u64,
    /// Bytes the coded payloads saved against the dense legacy message.
    pub codec_bytes_saved: u64,
    /// Delivered coded pushes the responder's codec rejected (it answers
    /// every push it can decode).
    pub codec_decode_errors: u64,
}

/// Times `dispatch` / `train_all` and accounts the payloads `dispatch`
/// returns. Two clock reads per dispatch and no span: a fleet makes
/// hundreds of thousands of them. The `codec_*` counts follow
/// `NodeRuntime`'s own `codec.*` accounting (a test holds them equal to
/// a `Tracer::counting()` registry); reading them here lets the traced
/// fleet run with `Tracer::off()` like the entry point — a counting
/// tracer slowed `fleet_identity` by a tenth.
pub struct TimedTransport<'a, T> {
    inner: T,
    stats: &'a RefCell<TransportStats>,
}

impl<'a, T: Transport> TimedTransport<'a, T> {
    pub fn new(inner: T, stats: &'a RefCell<TransportStats>) -> Self {
        TimedTransport { inner, stats }
    }
}

impl<T: Transport> Transport for TimedTransport<'_, T> {
    fn n_nodes(&self) -> usize {
        self.inner.n_nodes()
    }

    fn dispatch(&mut self, node: NodeId, input: NodeInput) -> Routed {
        let retried = matches!(
            &input,
            NodeInput::Failed { payload, .. }
                if matches!(payload_tag(payload), TAG_AGG_PUSH | TAG_AGG_PUSH_CODED)
        );
        let coded_push = matches!(
            &input,
            NodeInput::Deliver { payload, .. } if payload_tag(payload) == TAG_AGG_PUSH_CODED
        );
        let t = Instant::now();
        let out = self.inner.dispatch(node, input);
        let ns = t.elapsed().as_nanos();
        let mut s = self.stats.borrow_mut();
        s.dispatch_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        s.merge_retried += u64::from(retried);
        s.codec_decode_errors += u64::from(coded_push && out.is_empty());
        for (_, payload) in &out {
            s.wire_msgs += 1;
            s.wire_bytes += payload.len() as u64;
            if let Some(header) = coded_header(payload) {
                s.codec_payloads += 1;
                s.codec_bytes_saved += identity_payload_len().saturating_sub(payload.len()) as u64;
                s.codec_full_payloads += u64::from(header.subtag == subtag::FULL);
                s.codec_fallbacks += u64::from(header.subtag == subtag::STALE_FULL);
            }
        }
        out
    }

    fn train_all(&mut self) {
        let t = Instant::now();
        self.inner.train_all();
        self.stats.borrow_mut().train_all_ns += t.elapsed().as_nanos() as u64;
    }

    fn save_nodes(&mut self, w: &mut Writer) {
        self.inner.save_nodes(w);
    }

    fn restore_nodes(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        self.inner.restore_nodes(r)
    }

    fn into_tables(self) -> Vec<QTablePair> {
        self.inner.into_tables()
    }
}

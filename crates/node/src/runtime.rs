//! [`NodeRuntime`]: the transport-generic round driver.
//!
//! The runtime owns the things that must live on one thread for the run
//! to be reproducible: the [`NetworkModel`] (fault fates), the seeded
//! delivery schedule (`Stream::Delivery`), and the [`Tracer`] interface
//! (telemetry is `Rc`-based and not `Send`). Each round it ticks every
//! scheduled node through the transport and *transacts* the resulting
//! message cascade to completion — requests subject to the fault model,
//! replies riding the request's round trip — before moving to the next
//! node. Delivery order is therefore a pure function of the master
//! seed, which is what makes a channel-backed run byte-identical to the
//! in-process oracle.
//!
//! Round structure mirrors
//! [`train_instrumented`](glap::trainer::train_instrumented): learning rounds step
//! the workload, refresh the overlay, fetch one neighbour's profiles
//! per eligible node and train (in parallel — the `TrainLocal` tick is
//! deferred until all exchanges settle); aggregation rounds refresh the
//! overlay and run the symmetric push–pull merge.

use crate::core::{NodeInput, TickKind};
use crate::transport::{Routed, Transport};
use crate::wire::{
    coded_header, payload_tag, tag_counter, tag_is_request, TAG_AGG_PUSH, TAG_AGG_PUSH_CODED,
    TAG_AGG_REPLY, TAG_AGG_REPLY_CODED, TAG_SHUFFLE_REPLY, TAG_SHUFFLE_REQUEST,
};
use glap::prelude::{
    is_eligible, restore_rng, save_rng, stream_rng, Checkpointable, Delivery, EventKind,
    GlapConfig, NetworkModel, Phase, Reader, SimRng, SnapshotError, Stream, Tracer, Writer,
};
use glap_cluster::{DataCenter, DemandSource, PmId, VmProfile};
use glap_codec::{identity_payload_len, subtag, CodedHeader};
use glap_cyclon::{bootstrap_sample, NodeId};
use glap_profile::Profiler;
use rand::seq::SliceRandom;
use std::collections::VecDeque;
use std::time::Instant;

/// Drives a fleet of nodes behind any [`Transport`] through GLAP's
/// two training phases. See the module docs.
pub struct NodeRuntime<T: Transport> {
    transport: T,
    cfg: GlapConfig,
    net: NetworkModel,
    /// Delivery-schedule randomness: which node transacts first each
    /// round. Private stream — nodes never touch it.
    sched_rng: SimRng,
    /// PM activity at construction time (sleeping PMs host no node).
    active: Vec<bool>,
    learning_done: u64,
    aggregation_done: u64,
    profile_buf: Vec<VmProfile>,
    sched_buf: Vec<NodeId>,
    /// Wall-clock profiler (off by default; observational only).
    profiler: Profiler,
}

impl<T: Transport> NodeRuntime<T> {
    /// Wires `transport`'s nodes to `dc`'s PMs and bootstraps the
    /// overlay from the `Stream::Overlay` cursor of `master_seed`
    /// (through [`bootstrap_sample`], as `CyclonOverlay::bootstrap_random`
    /// does).
    pub fn new(
        transport: T,
        cfg: &GlapConfig,
        net: NetworkModel,
        master_seed: u64,
        dc: &DataCenter,
    ) -> NodeRuntime<T> {
        let n = transport.n_nodes();
        assert_eq!(n, dc.n_pms(), "one node per PM");
        let active: Vec<bool> = dc.pms().map(|pm| pm.is_active()).collect();
        let mut rt = NodeRuntime {
            transport,
            cfg: *cfg,
            net,
            sched_rng: stream_rng(master_seed, Stream::Delivery),
            active,
            learning_done: 0,
            aggregation_done: 0,
            profile_buf: Vec::new(),
            sched_buf: Vec::new(),
            profiler: Profiler::off(),
        };
        let mut boot_rng = stream_rng(master_seed, Stream::Overlay);
        let ids: Vec<NodeId> = (0..n as NodeId).collect();
        let mut pool = Vec::with_capacity(n);
        for id in 0..n as NodeId {
            if !rt.active[id as usize] {
                continue;
            }
            let peers = bootstrap_sample(&ids, id, cfg.cyclon_cache, &mut boot_rng, &mut pool);
            rt.transport.dispatch(
                id,
                NodeInput::Bootstrap {
                    peers: peers.to_vec(),
                },
            );
        }
        rt
    }

    /// Attaches a wall-clock profiler: rounds record phase spans and
    /// `transact` records per-message `transport_dispatch` samples.
    /// Profiling reads no randomness and never changes delivery fates.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// Learning rounds completed so far.
    pub fn learning_done(&self) -> u64 {
        self.learning_done
    }

    /// Aggregation rounds completed so far.
    pub fn aggregation_done(&self) -> u64 {
        self.aggregation_done
    }

    /// Tears down the runtime, yielding per-node Q-tables in id order.
    pub fn into_tables(self) -> Vec<glap_qlearn::QTablePair> {
        self.transport.into_tables()
    }

    /// Tears down the runtime, yielding per-node Q-tables in id order in
    /// the nodes' sparse storage ([`Transport::into_slots`]).
    pub fn into_slots(self) -> Vec<glap_qlearn::ArenaSlot> {
        self.transport.into_slots()
    }

    /// Read-only access to the transport (e.g. for inspecting tables
    /// mid-run from experiment drivers).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// One learning round (Algorithm 1): step the workload, push each
    /// active node its world snapshot, shuffle, fetch profiles, then
    /// train every node — the only concurrent step, safe because each
    /// node draws only its private RNG.
    pub fn learning_round<D: DemandSource + ?Sized>(
        &mut self,
        dc: &mut DataCenter,
        source: &mut D,
        tracer: &Tracer,
    ) {
        let round_span = self.profiler.span("node_learn_round");
        tracer.set_phase(Phase::Learning);
        tracer.begin_round(self.learning_done);
        self.net.begin_round(self.learning_done);
        {
            let _s = self.profiler.span("workload_step");
            dc.step(source);
        }
        {
            let _s = self.profiler.span("world_push");
            for id in 0..self.transport.n_nodes() as NodeId {
                if !self.active[id as usize] {
                    continue;
                }
                let pm = PmId(id);
                dc.pm_profiles_into(pm, &mut self.profile_buf);
                let input = NodeInput::SetWorld {
                    profiles: self.profile_buf.clone(),
                    eligible: is_eligible(dc, pm, &self.cfg),
                };
                self.transport.dispatch(id, input);
            }
        }
        self.draw_schedule();
        let sched = std::mem::take(&mut self.sched_buf);
        {
            let _s = self.profiler.span("shuffle");
            for &p in &sched {
                self.transact(p, NodeInput::Tick(TickKind::Shuffle), tracer);
            }
        }
        {
            let _s = self.profiler.span("learn_exchange");
            for &p in &sched {
                self.transact(p, NodeInput::Tick(TickKind::LearnRequest), tracer);
            }
        }
        self.sched_buf = sched;
        {
            let _s = self.profiler.span("train_all");
            self.transport.train_all();
        }
        self.learning_done += 1;
        tracer.end_round();
        drop(round_span);
    }

    /// One aggregation round (Algorithm 2): shuffle, then push–pull
    /// table merges.
    pub fn aggregation_round(&mut self, tracer: &Tracer) {
        let round_span = self.profiler.span("node_agg_round");
        tracer.set_phase(Phase::Aggregation);
        tracer.begin_round(self.aggregation_done);
        self.net
            .begin_round(self.learning_done + self.aggregation_done);
        self.draw_schedule();
        let sched = std::mem::take(&mut self.sched_buf);
        {
            let _s = self.profiler.span("shuffle");
            for &p in &sched {
                self.transact(p, NodeInput::Tick(TickKind::Shuffle), tracer);
            }
        }
        {
            let _s = self.profiler.span("aggregate");
            for &p in &sched {
                self.transact(p, NodeInput::Tick(TickKind::Aggregate), tracer);
            }
        }
        self.sched_buf = sched;
        self.aggregation_done += 1;
        tracer.end_round();
        drop(round_span);
    }

    /// This round's activation order: alive nodes, shuffled by the
    /// delivery stream. Crashed initiators sit the round out (same rule
    /// as `aggregation_round`'s `is_up` gate).
    fn draw_schedule(&mut self) {
        self.sched_buf.clear();
        self.sched_buf.extend(
            (0..self.transport.n_nodes() as NodeId)
                .filter(|&id| self.active[id as usize] && self.net.is_up(id)),
        );
        self.sched_buf.shuffle(&mut self.sched_rng);
    }

    /// Runs one node input and the complete message cascade it causes.
    ///
    /// Requests (shuffle request, profile request, table push) are
    /// subject to the fault model — a failed request is bounced back to
    /// its sender as a `Failed` input (which may cascade a retry).
    /// Replies are delivered unconditionally: they ride the request's
    /// round trip, whose fate was already drawn.
    fn transact(&mut self, origin: NodeId, input: NodeInput, tracer: &Tracer) {
        let profiling = self.profiler.is_on();
        let mut dispatch_ns = 0u64;
        let mut dispatches = 0u64;
        let mut queue: VecDeque<(NodeId, Routed)> = VecDeque::new();
        let t0 = profiling.then(Instant::now);
        let outs = self.transport.dispatch(origin, input);
        if let Some(t0) = t0 {
            dispatch_ns += t0.elapsed().as_nanos() as u64;
            dispatches += 1;
        }
        queue.push_back((origin, outs));
        // Table-push attempt counter for MergeRetried events (the
        // cascade retries at most AGGREGATION_MAX_ATTEMPTS times).
        let mut agg_attempt = 0u32;
        while let Some((from, outs)) = queue.pop_front() {
            for (to, payload) in outs {
                let tag = payload_tag(&payload);
                let bytes = payload.len() as u64;
                tracer.add("net.msgs", 1);
                tracer.add("net.bytes_tx", bytes);
                if let Some(counter) = tag_counter(tag) {
                    tracer.add(counter, 1);
                }
                if let Some(header) = coded_header(&payload) {
                    account_codec_payload(tracer, bytes, &header);
                }
                let (delivered, target_down) = if !tag_is_request(tag) {
                    (true, false)
                } else if !self.active[to as usize] {
                    (false, true)
                } else {
                    match self.net.request(from, to) {
                        d if d.is_ok() => (true, false),
                        Delivery::TargetDown => (false, true),
                        _ => (false, false),
                    }
                };
                if delivered {
                    tracer.add("net.bytes_rx", bytes);
                    match tag {
                        // A delivered reply completes its exchange.
                        TAG_SHUFFLE_REPLY => {
                            tracer.emit(EventKind::ShuffleCompleted { from: to, to: from })
                        }
                        TAG_AGG_REPLY | TAG_AGG_REPLY_CODED => {
                            tracer.emit(EventKind::MergeApplied { a: to, b: from })
                        }
                        _ => {}
                    }
                    let t0 = profiling.then(Instant::now);
                    let next = self
                        .transport
                        .dispatch(to, NodeInput::Deliver { from, payload });
                    if let Some(t0) = t0 {
                        dispatch_ns += t0.elapsed().as_nanos() as u64;
                        dispatches += 1;
                    }
                    // A delivered coded push is always answered — unless
                    // the responder's codec rejected the body and dropped
                    // the exchange (`NodeCore::drop_coded_exchange`).
                    // Zero in healthy runs: both transports only carry
                    // payloads our own encoders produced.
                    if tag == TAG_AGG_PUSH_CODED && next.is_empty() {
                        tracer.add("codec.decode_errors", 1);
                    }
                    queue.push_back((to, next));
                } else {
                    match tag {
                        TAG_SHUFFLE_REQUEST => tracer.emit(EventKind::ShuffleFailed { from, to }),
                        TAG_AGG_PUSH | TAG_AGG_PUSH_CODED => {
                            agg_attempt += 1;
                            tracer.emit(EventKind::MergeRetried {
                                pm: from,
                                attempt: agg_attempt,
                            });
                        }
                        _ => {}
                    }
                    let t0 = profiling.then(Instant::now);
                    let next = self.transport.dispatch(
                        from,
                        NodeInput::Failed {
                            to,
                            payload,
                            target_down,
                        },
                    );
                    if let Some(t0) = t0 {
                        dispatch_ns += t0.elapsed().as_nanos() as u64;
                        dispatches += 1;
                    }
                    queue.push_back((from, next));
                }
            }
        }
        if profiling && dispatches > 0 {
            self.profiler
                .record_ns_n("transport_dispatch", dispatch_ns, dispatches);
        }
    }
}

/// Accounts `codec.*` counters for one coded payload of `wire_bytes`:
/// bytes saved versus the dense identity payload, and full-table and
/// stale-fallback counts.
fn account_codec_payload(tracer: &Tracer, wire_bytes: u64, header: &CodedHeader) {
    let identity = identity_payload_len() as u64;
    tracer.add("codec.payloads", 1);
    tracer.add("codec.bytes_saved", identity.saturating_sub(wire_bytes));
    match header.subtag {
        subtag::FULL => tracer.add("codec.full_payloads", 1),
        subtag::STALE_FULL => tracer.add("codec.fallbacks", 1),
        _ => {}
    }
}

impl<T: Transport> NodeRuntime<T> {
    /// Serializes the complete runtime state — fault model, schedule
    /// cursor, round counters and every node — so a resumed run
    /// continues byte-identically. (Not `Checkpointable`: transports
    /// route the snapshot request through their normal `&mut` dispatch
    /// machinery, so `save` needs `&mut self`.)
    pub fn save(&mut self, w: &mut Writer) {
        w.put_usize(self.transport.n_nodes());
        self.net.save(w);
        save_rng(&self.sched_rng, w);
        w.put_bool_slice(&self.active);
        w.put_u64(self.learning_done);
        w.put_u64(self.aggregation_done);
        self.transport.save_nodes(w);
    }

    /// Inverse of [`save`](NodeRuntime::save), over a freshly
    /// constructed runtime with the same node count.
    pub fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let n = r.get_usize()?;
        if n != self.transport.n_nodes() {
            return Err(SnapshotError::Corrupt(format!(
                "node count mismatch: snapshot {n}, live {}",
                self.transport.n_nodes()
            )));
        }
        self.net.restore(r)?;
        self.sched_rng = restore_rng(r)?;
        self.active = r.get_bool_slice()?;
        if self.active.len() != n {
            return Err(SnapshotError::Corrupt("active mask length mismatch".into()));
        }
        self.learning_done = r.get_u64()?;
        self.aggregation_done = r.get_u64()?;
        self.transport.restore_nodes(r)
    }
}

//! Message-level network model with fault injection.
//!
//! The paper's evaluation assumes a perfectly reliable cluster network;
//! real gossip deployments do not get one. This module provides the
//! deterministic in-simulation message bus the protocols run over:
//! per-message drop probability, uniform per-link latency checked against
//! a request/reply timeout, and PM crash/recovery — both scheduled
//! (deterministic fail-at-round scripts) and stochastic (per-round
//! hazard rates).
//!
//! Two design rules keep the rest of the simulator honest:
//!
//! 1. **The zero-fault path consumes no randomness.** With
//!    [`FaultProfile::none`] (or any profile where [`FaultProfile::is_ideal`]
//!    holds) every message is delivered without touching the network RNG,
//!    so a run over the ideal network is *byte-identical* to the direct
//!    function-call path the experiments used before this layer existed.
//!    `tests/integration_determinism.rs` pins that contract.
//! 2. **Faults draw from their own named stream** ([`Stream::Network`]),
//!    never from the policy stream, so enabling faults perturbs protocol
//!    randomness only through the protocols' *reactions* to failures —
//!    exactly the effect under study.
//!
//! Crash semantics: a crashed PM is unreachable at the gossip layer (it
//! answers no shuffles, aggregation pushes or consolidation exchanges)
//! but its VMs keep running — the model is a management-network partition
//! or agent failure, not a power loss, so `DataCenter` invariants are
//! untouched. Crashes and recoveries are applied at round boundaries in
//! [`NetworkModel::begin_round`], in node-index order, from the network
//! stream.

use crate::rng::{stream_rng, SimRng, Stream};
use glap_profile::Profiler;
use glap_telemetry::{EventKind, MsgOp, Tracer};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use std::time::Instant;

/// Uniform one-way link latency in milliseconds, sampled per message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkLatency {
    /// Minimum one-way latency (ms).
    pub min_ms: u64,
    /// Maximum one-way latency (ms, inclusive).
    pub max_ms: u64,
}

impl Default for LinkLatency {
    fn default() -> Self {
        // Intra-datacenter scale: sub-millisecond switching does not
        // matter at 2-minute rounds; what matters is the tail vs. the
        // protocol timeout.
        LinkLatency {
            min_ms: 1,
            max_ms: 20,
        }
    }
}

/// Everything that can go wrong on the wire, in one value.
///
/// A profile is attached to a scenario; [`FaultProfile::none`] reproduces
/// the pre-network direct-call behaviour bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Per-message drop probability (applied independently to requests
    /// and replies).
    pub drop_prob: f64,
    /// One-way link latency distribution.
    pub latency: LinkLatency,
    /// Round-trip budget in milliseconds: a request whose two sampled
    /// one-way latencies sum past this is a non-response (the initiator
    /// gives up; gossip treats it like a dead neighbour).
    pub timeout_ms: u64,
    /// Per-round probability that each up PM crashes.
    pub crash_rate: f64,
    /// Per-round probability that each crashed PM recovers.
    pub recovery_rate: f64,
    /// Scripted crashes: `(round, node)` pairs applied at that round's
    /// start, before stochastic hazards.
    pub crash_schedule: Vec<(u64, u32)>,
    /// Scripted recoveries: `(round, node)` pairs.
    pub recovery_schedule: Vec<(u64, u32)>,
}

impl FaultProfile {
    /// The zero-fault profile: everything delivered, nobody crashes, and
    /// the latency tail cannot reach the timeout. Runs over this profile
    /// are byte-identical to runs without a network model at all.
    pub fn none() -> Self {
        FaultProfile {
            drop_prob: 0.0,
            latency: LinkLatency::default(),
            timeout_ms: 500,
            crash_rate: 0.0,
            recovery_rate: 0.0,
            crash_schedule: Vec::new(),
            recovery_schedule: Vec::new(),
        }
    }

    /// A message-loss-only profile (no crashes).
    pub fn lossy(drop_prob: f64) -> Self {
        FaultProfile {
            drop_prob,
            ..FaultProfile::none()
        }
    }

    /// A profile with both message loss and stochastic crash/recovery.
    pub fn faulty(drop_prob: f64, crash_rate: f64, recovery_rate: f64) -> Self {
        FaultProfile {
            drop_prob,
            crash_rate,
            recovery_rate,
            ..FaultProfile::none()
        }
    }

    /// `true` when no fault of any kind can occur — the profile neither
    /// drops, crashes, nor times out, so the model's fast path applies.
    pub fn is_ideal(&self) -> bool {
        self.drop_prob <= 0.0
            && self.crash_rate <= 0.0
            && self.recovery_rate <= 0.0
            && self.crash_schedule.is_empty()
            && self.recovery_schedule.is_empty()
            && 2 * self.latency.max_ms <= self.timeout_ms
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::none()
    }
}

/// Outcome of one message (or request/reply round trip).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Delivered (for a request: the reply arrived within the timeout).
    Delivered,
    /// The message (or its reply) was lost on the wire.
    Dropped,
    /// Both legs were delivered but their combined latency exceeded the
    /// timeout — indistinguishable from a drop to the initiator.
    TimedOut,
    /// The target is crashed; nothing was sent.
    TargetDown,
}

impl Delivery {
    /// `true` when the exchange completed in time.
    #[inline]
    pub fn is_ok(self) -> bool {
        self == Delivery::Delivered
    }
}

/// Running message counters (diagnostics; not part of determinism
/// contracts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages and round trips attempted.
    pub attempts: u64,
    /// Successfully completed.
    pub delivered: u64,
    /// Lost to the drop probability.
    pub dropped: u64,
    /// Completed but past the timeout.
    pub timed_out: u64,
    /// Rejected because the target was crashed.
    pub to_down: u64,
    /// Crash events applied (scheduled + stochastic).
    pub crashes: u64,
    /// Recovery events applied.
    pub recoveries: u64,
}

/// The simulated management network of one cluster.
///
/// One instance lives per simulation run; the engine calls
/// [`NetworkModel::begin_round`] before handing control to the policy,
/// and the protocols route their gossip through [`NetworkModel::request`]
/// / [`NetworkModel::send`].
#[derive(Debug, Clone)]
pub struct NetworkModel {
    profile: FaultProfile,
    up: Vec<bool>,
    ideal: bool,
    rng: SimRng,
    /// Message counters, updated on every call.
    pub stats: NetStats,
    /// Event tracer (off by default; never touches the RNG).
    tracer: Tracer,
    /// Wall-clock profiler (off by default; observational only).
    profiler: Profiler,
}

impl NetworkModel {
    /// A fault-free network over `n` nodes — the default the engine
    /// constructs when the caller provides none.
    pub fn ideal(n: usize) -> Self {
        // The RNG is never drawn from on the ideal path; a fixed seed
        // keeps construction itself deterministic and draw-free.
        NetworkModel {
            profile: FaultProfile::none(),
            up: vec![true; n],
            ideal: true,
            rng: SimRng::seed_from_u64(0),
            stats: NetStats::default(),
            tracer: Tracer::off(),
            profiler: Profiler::off(),
        }
    }

    /// A network over `n` nodes with the given fault profile, drawing
    /// its randomness from `master_seed`'s [`Stream::Network`].
    pub fn new(n: usize, profile: FaultProfile, master_seed: u64) -> Self {
        let ideal = profile.is_ideal();
        NetworkModel {
            profile,
            up: vec![true; n],
            ideal,
            rng: stream_rng(master_seed, Stream::Network),
            stats: NetStats::default(),
            tracer: Tracer::off(),
            profiler: Profiler::off(),
        }
    }

    /// Attaches an event tracer. Tracing reads no randomness, so an
    /// attached tracer never changes delivery outcomes.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attaches a wall-clock profiler: every [`send`](NetworkModel::send)
    /// / [`request`](NetworkModel::request) records its in-model time as
    /// a `net_send` / `net_request` sample under the caller's open span.
    /// Profiling reads no randomness and never changes outcomes.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// Number of modelled nodes.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.up.len()
    }

    /// `true` when no fault can ever occur on this network.
    #[inline]
    pub fn is_ideal(&self) -> bool {
        self.ideal
    }

    /// The profile this network runs.
    #[inline]
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Whether `node` is currently reachable (not crashed).
    #[inline]
    pub fn is_up(&self, node: u32) -> bool {
        self.up[node as usize]
    }

    /// Number of currently reachable nodes.
    pub fn up_count(&self) -> usize {
        self.up.iter().filter(|&&u| u).count()
    }

    /// Crashes `node` immediately (tests and scripted faults).
    pub fn force_crash(&mut self, node: u32) {
        if self.up[node as usize] {
            self.up[node as usize] = false;
            self.stats.crashes += 1;
            self.tracer.emit(EventKind::PmCrashed { pm: node });
        }
    }

    /// Recovers `node` immediately.
    pub fn force_recover(&mut self, node: u32) {
        if !self.up[node as usize] {
            self.up[node as usize] = true;
            self.stats.recoveries += 1;
            self.tracer.emit(EventKind::PmRecovered { pm: node });
        }
    }

    /// Applies this round's crash/recovery events: first the scripted
    /// schedules, then the stochastic hazards in node-index order. On the
    /// ideal network this is a no-op and consumes no randomness.
    pub fn begin_round(&mut self, round: u64) {
        if self.ideal {
            return;
        }
        // Clones keep the borrow checker out of the profile while we
        // mutate liveness; schedules are tiny.
        for &(r, node) in &self.profile.crash_schedule.clone() {
            if r == round {
                self.force_crash(node);
            }
        }
        for &(r, node) in &self.profile.recovery_schedule.clone() {
            if r == round {
                self.force_recover(node);
            }
        }
        if self.profile.crash_rate > 0.0 || self.profile.recovery_rate > 0.0 {
            for i in 0..self.up.len() {
                // One draw per node per round regardless of outcome, so
                // the network stream's draw count is a pure function of
                // (n, rounds) — crashes never shift later samples.
                let roll: f64 = self.rng.gen();
                if self.up[i] {
                    if roll < self.profile.crash_rate {
                        self.force_crash(i as u32);
                    }
                } else if roll < self.profile.recovery_rate {
                    self.force_recover(i as u32);
                }
            }
        }
    }

    fn sample_latency(&mut self) -> u64 {
        let LinkLatency { min_ms, max_ms } = self.profile.latency;
        if min_ms >= max_ms {
            min_ms
        } else {
            self.rng.gen_range(min_ms..=max_ms)
        }
    }

    /// One-way, fire-and-forget message. No timeout applies: a delivered
    /// send arrives eventually within the round.
    pub fn send(&mut self, from: u32, to: u32) -> Delivery {
        if self.profiler.is_on() {
            let t0 = Instant::now();
            let d = self.send_inner(from, to);
            self.profiler
                .record_ns("net_send", t0.elapsed().as_nanos() as u64);
            d
        } else {
            self.send_inner(from, to)
        }
    }

    fn send_inner(&mut self, from: u32, to: u32) -> Delivery {
        self.stats.attempts += 1;
        // The liveness check precedes the ideal fast path so that
        // `force_crash` works even on an ideal-profile network; it reads
        // no randomness, and `up` stays all-true in engine-driven ideal
        // runs, so byte-identity is unaffected.
        if !self.up[to as usize] {
            self.stats.to_down += 1;
            self.tracer.emit(EventKind::MsgTargetDown {
                from,
                to,
                op: MsgOp::Send,
            });
            return Delivery::TargetDown;
        }
        if self.ideal {
            self.stats.delivered += 1;
            self.tracer.emit(EventKind::MsgSent {
                from,
                to,
                op: MsgOp::Send,
            });
            return Delivery::Delivered;
        }
        if self.profile.drop_prob > 0.0 && self.rng.gen::<f64>() < self.profile.drop_prob {
            self.stats.dropped += 1;
            self.tracer.emit(EventKind::MsgDropped {
                from,
                to,
                op: MsgOp::Send,
            });
            return Delivery::Dropped;
        }
        self.stats.delivered += 1;
        self.tracer.emit(EventKind::MsgSent {
            from,
            to,
            op: MsgOp::Send,
        });
        Delivery::Delivered
    }

    /// Request/reply round trip: the initiator blocks (within the round)
    /// for the reply and gives up past the profile timeout. Either leg
    /// can be dropped; a crashed target never answers.
    pub fn request(&mut self, from: u32, to: u32) -> Delivery {
        if self.profiler.is_on() {
            let t0 = Instant::now();
            let d = self.request_inner(from, to);
            self.profiler
                .record_ns("net_request", t0.elapsed().as_nanos() as u64);
            d
        } else {
            self.request_inner(from, to)
        }
    }

    /// [`request`](NetworkModel::request) with payload accounting: the
    /// request/reply byte sizes are routed into the unified
    /// `net.msgs` / `net.bytes_tx` / `net.bytes_rx` telemetry counters —
    /// the same namespace the node runtime reports real wire bytes
    /// under — so sim-side and transport-backed runs are comparable.
    /// Request bytes count as transmitted at attempt time; the reply
    /// (and received bytes) only on a completed round trip.
    pub fn request_payload(
        &mut self,
        from: u32,
        to: u32,
        req_bytes: u64,
        reply_bytes: u64,
    ) -> Delivery {
        self.tracer.add("net.msgs", 1);
        self.tracer.add("net.bytes_tx", req_bytes);
        let d = self.request(from, to);
        if d.is_ok() {
            self.tracer.add("net.msgs", 1);
            self.tracer.add("net.bytes_tx", reply_bytes);
            self.tracer.add("net.bytes_rx", req_bytes + reply_bytes);
        }
        d
    }

    fn request_inner(&mut self, from: u32, to: u32) -> Delivery {
        self.stats.attempts += 1;
        if !self.up[to as usize] {
            self.stats.to_down += 1;
            self.tracer.emit(EventKind::MsgTargetDown {
                from,
                to,
                op: MsgOp::Request,
            });
            return Delivery::TargetDown;
        }
        if self.ideal {
            self.stats.delivered += 1;
            self.tracer.emit(EventKind::MsgSent {
                from,
                to,
                op: MsgOp::Request,
            });
            return Delivery::Delivered;
        }
        if self.profile.drop_prob > 0.0 {
            if self.rng.gen::<f64>() < self.profile.drop_prob {
                self.stats.dropped += 1;
                self.tracer.emit(EventKind::MsgDropped {
                    from,
                    to,
                    op: MsgOp::Request,
                });
                return Delivery::Dropped; // request lost
            }
            if self.rng.gen::<f64>() < self.profile.drop_prob {
                self.stats.dropped += 1;
                self.tracer.emit(EventKind::MsgDropped {
                    from,
                    to,
                    op: MsgOp::Request,
                });
                return Delivery::Dropped; // reply lost
            }
        }
        let round_trip = self.sample_latency() + self.sample_latency();
        self.tracer.observe_ms("net.rtt_ms", round_trip as f64);
        if round_trip > self.profile.timeout_ms {
            self.stats.timed_out += 1;
            self.tracer.emit(EventKind::MsgTimedOut { from, to });
            return Delivery::TimedOut;
        }
        self.stats.delivered += 1;
        self.tracer.emit(EventKind::MsgSent {
            from,
            to,
            op: MsgOp::Request,
        });
        Delivery::Delivered
    }
}

impl glap_snapshot::Checkpointable for NetworkModel {
    /// Serializes the full dynamic network state: fault profile, node
    /// liveness, message counters and the exact fault-stream RNG cursor.
    /// The tracer is *not* part of the record — the caller re-attaches it.
    fn save(&self, w: &mut glap_snapshot::Writer) {
        w.put_f64(self.profile.drop_prob);
        w.put_u64(self.profile.latency.min_ms);
        w.put_u64(self.profile.latency.max_ms);
        w.put_u64(self.profile.timeout_ms);
        w.put_f64(self.profile.crash_rate);
        w.put_f64(self.profile.recovery_rate);
        for schedule in [
            &self.profile.crash_schedule,
            &self.profile.recovery_schedule,
        ] {
            w.put_usize(schedule.len());
            for &(round, node) in schedule {
                w.put_u64(round);
                w.put_u32(node);
            }
        }
        w.put_bool_slice(&self.up);
        w.put_u64(self.stats.attempts);
        w.put_u64(self.stats.delivered);
        w.put_u64(self.stats.dropped);
        w.put_u64(self.stats.timed_out);
        w.put_u64(self.stats.to_down);
        w.put_u64(self.stats.crashes);
        w.put_u64(self.stats.recoveries);
        crate::rng::save_rng(&self.rng, w);
    }

    /// Restores into a network built for the same cluster: the node count
    /// must match the snapshot or restore fails with
    /// [`glap_snapshot::SnapshotError::Corrupt`]. The profile is taken
    /// from the snapshot and `is_ideal` recomputed from it, so delivery
    /// behaviour resumes exactly as saved.
    fn restore(
        &mut self,
        r: &mut glap_snapshot::Reader<'_>,
    ) -> Result<(), glap_snapshot::SnapshotError> {
        let drop_prob = r.get_f64()?;
        let min_ms = r.get_u64()?;
        let max_ms = r.get_u64()?;
        let timeout_ms = r.get_u64()?;
        let crash_rate = r.get_f64()?;
        let recovery_rate = r.get_f64()?;
        let mut schedules = [Vec::new(), Vec::new()];
        for schedule in &mut schedules {
            let n = r.get_len()?;
            schedule.reserve(n);
            for _ in 0..n {
                let round = r.get_u64()?;
                let node = r.get_u32()?;
                schedule.push((round, node));
            }
        }
        let [crash_schedule, recovery_schedule] = schedules;
        let up = r.get_bool_slice()?;
        if up.len() != self.up.len() {
            return Err(glap_snapshot::SnapshotError::Corrupt(format!(
                "network snapshot has {} nodes, world has {}",
                up.len(),
                self.up.len()
            )));
        }
        let stats = NetStats {
            attempts: r.get_u64()?,
            delivered: r.get_u64()?,
            dropped: r.get_u64()?,
            timed_out: r.get_u64()?,
            to_down: r.get_u64()?,
            crashes: r.get_u64()?,
            recoveries: r.get_u64()?,
        };
        let rng = crate::rng::restore_rng(r)?;
        self.profile = FaultProfile {
            drop_prob,
            latency: LinkLatency { min_ms, max_ms },
            timeout_ms,
            crash_rate,
            recovery_rate,
            crash_schedule,
            recovery_schedule,
        };
        self.ideal = self.profile.is_ideal();
        self.up = up;
        self.stats = stats;
        self.rng = rng;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn ideal_network_delivers_everything_without_randomness() {
        let mut net = NetworkModel::ideal(8);
        let mut twin = NetworkModel::ideal(8);
        for r in 0..5 {
            net.begin_round(r);
            for i in 0..8u32 {
                for j in 0..8u32 {
                    assert!(net.request(i, j).is_ok());
                    assert!(net.send(i, j).is_ok());
                }
            }
        }
        assert_eq!(net.stats.delivered, net.stats.attempts);
        // The RNG was never advanced: both instances still produce the
        // same next value as a fresh one.
        assert_eq!(net.rng.next_u64(), twin.rng.next_u64());
    }

    #[test]
    fn none_profile_is_ideal_and_lossy_is_not() {
        assert!(FaultProfile::none().is_ideal());
        assert!(!FaultProfile::lossy(0.1).is_ideal());
        assert!(!FaultProfile::faulty(0.0, 0.01, 0.1).is_ideal());
        let slow = FaultProfile {
            latency: LinkLatency {
                min_ms: 300,
                max_ms: 400,
            },
            ..FaultProfile::none()
        };
        assert!(!slow.is_ideal(), "latency tail can exceed the timeout");
    }

    #[test]
    fn crashed_targets_refuse_messages() {
        let mut net = NetworkModel::new(4, FaultProfile::none(), 1);
        net.force_crash(2);
        assert_eq!(net.request(0, 2), Delivery::TargetDown);
        assert_eq!(net.send(0, 2), Delivery::TargetDown);
        assert!(net.request(0, 1).is_ok());
        net.force_recover(2);
        assert!(net.request(0, 2).is_ok());
    }

    #[test]
    fn drop_probability_loses_roughly_that_share() {
        let mut net = NetworkModel::new(2, FaultProfile::lossy(0.3), 7);
        let mut lost = 0;
        for _ in 0..2000 {
            if !net.send(0, 1).is_ok() {
                lost += 1;
            }
        }
        let rate = lost as f64 / 2000.0;
        assert!((rate - 0.3).abs() < 0.05, "observed loss rate {rate}");
    }

    #[test]
    fn scheduled_crashes_and_recoveries_fire_at_their_round() {
        let profile = FaultProfile {
            crash_schedule: vec![(3, 1)],
            recovery_schedule: vec![(5, 1)],
            ..FaultProfile::none()
        };
        let mut net = NetworkModel::new(3, profile, 11);
        for round in 0..8 {
            net.begin_round(round);
            let expect_up = !(3..5).contains(&round);
            assert_eq!(net.is_up(1), expect_up, "round {round}");
        }
        assert_eq!(net.stats.crashes, 1);
        assert_eq!(net.stats.recoveries, 1);
    }

    #[test]
    fn stochastic_crashes_eventually_recover() {
        let mut net = NetworkModel::new(50, FaultProfile::faulty(0.0, 0.05, 0.5), 13);
        let mut saw_down = false;
        for round in 0..200 {
            net.begin_round(round);
            saw_down |= net.up_count() < 50;
        }
        assert!(saw_down, "no crash in 200 rounds at rate 0.05");
        assert!(net.stats.recoveries > 0, "no recovery despite rate 0.5");
        assert!(
            net.up_count() > 25,
            "population collapsed: {}",
            net.up_count()
        );
    }

    #[test]
    fn timeout_fires_when_latency_tail_exceeds_budget() {
        let profile = FaultProfile {
            latency: LinkLatency {
                min_ms: 100,
                max_ms: 400,
            },
            timeout_ms: 450,
            ..FaultProfile::none()
        };
        let mut net = NetworkModel::new(2, profile, 17);
        let mut timed_out = 0;
        for _ in 0..500 {
            if net.request(0, 1) == Delivery::TimedOut {
                timed_out += 1;
            }
        }
        assert!(
            timed_out > 0,
            "no timeouts despite 200..800ms round trips vs 450ms budget"
        );
        assert_eq!(net.stats.timed_out, timed_out);
    }

    #[test]
    fn checkpoint_restore_resumes_byte_identically() {
        use glap_snapshot::{Checkpointable, Reader, Writer};
        let profile = FaultProfile {
            crash_schedule: vec![(30, 2)],
            ..FaultProfile::faulty(0.2, 0.02, 0.2)
        };
        let mut net = NetworkModel::new(10, profile.clone(), 5);
        for round in 0..25 {
            net.begin_round(round);
            for i in 0..10u32 {
                net.request(i, (i + 1) % 10);
            }
        }

        let mut w = Writer::new();
        net.save(&mut w);
        let bytes = w.into_bytes();

        // Restore into a freshly built world (different seed: every field
        // must come from the snapshot, not the constructor).
        let mut twin = NetworkModel::new(10, FaultProfile::none(), 999);
        twin.restore(&mut Reader::new(&bytes)).unwrap();

        // Immediate re-save is byte-identical.
        let mut w2 = Writer::new();
        twin.save(&mut w2);
        assert_eq!(bytes, w2.into_bytes());

        // Continuing both produces identical outcomes and stats —
        // including the scripted crash still pending at round 30.
        for round in 25..60 {
            net.begin_round(round);
            twin.begin_round(round);
            for i in 0..10u32 {
                assert_eq!(net.request(i, (i + 1) % 10), twin.request(i, (i + 1) % 10));
            }
        }
        assert_eq!(net.stats, twin.stats);
        assert!(net.stats.crashes > 0);
    }

    #[test]
    fn restore_rejects_node_count_mismatch() {
        use glap_snapshot::{Checkpointable, Reader, Writer};
        let net = NetworkModel::new(10, FaultProfile::lossy(0.1), 5);
        let mut w = Writer::new();
        net.save(&mut w);
        let bytes = w.into_bytes();
        let mut other = NetworkModel::new(11, FaultProfile::lossy(0.1), 5);
        assert!(matches!(
            other.restore(&mut Reader::new(&bytes)),
            Err(glap_snapshot::SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn faulty_runs_are_deterministic_in_the_seed() {
        let run = |seed: u64| {
            let mut net = NetworkModel::new(10, FaultProfile::faulty(0.2, 0.02, 0.2), seed);
            let mut outcomes = Vec::new();
            for round in 0..50 {
                net.begin_round(round);
                for i in 0..10u32 {
                    outcomes.push(net.request(i, (i + 1) % 10));
                }
            }
            (outcomes, net.stats)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).0, run(6).0);
    }

    /// A crash or recovery schedule longer than any allocation can hold
    /// is a snapshot error, not a capacity-overflow panic.
    #[test]
    fn restore_rejects_hostile_schedule_lengths() {
        use glap_snapshot::{Checkpointable, Reader, SnapshotError, Writer};
        let hostile = isize::MAX as usize / std::mem::size_of::<(u64, u32)>() + 1;
        for recovery in [false, true] {
            let mut w = Writer::new();
            w.put_f64(0.1);
            for ms in [1, 2, 3] {
                w.put_u64(ms);
            }
            w.put_f64(0.01);
            w.put_f64(0.2);
            if recovery {
                w.put_usize(0); // an empty crash schedule
            }
            w.put_usize(hostile);
            let mut net = NetworkModel::new(4, FaultProfile::none(), 1);
            assert!(matches!(
                net.restore(&mut Reader::new(w.bytes())),
                Err(SnapshotError::Truncated)
            ));
        }
    }
}

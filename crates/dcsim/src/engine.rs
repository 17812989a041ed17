//! Cycle-driven simulation engine.
//!
//! Mirrors PeerSim's `CDSimulator`: time advances in discrete rounds; each
//! round the engine (1) steps the workload (every VM gets a fresh demand
//! observation), (2) applies the network model's crash/recovery events,
//! (3) hands control to the consolidation policy, and (4) notifies
//! observers, which sample metrics. All the paper's experiments run on
//! this engine with 720 rounds of 2 simulated minutes.

use crate::net::NetworkModel;
use crate::rng::{stream_rng, SimRng, Stream};
use glap_cluster::{DataCenter, DemandSource};
use glap_profile::Profiler;
use glap_snapshot::{Reader, SnapshotError, Writer};
use glap_telemetry::{Phase, Tracer};

/// Everything a policy sees during one round, in one place.
///
/// This replaces the older `round(round, dc, rng)` signature plus the
/// `note_churn` side-channel: churn arrives as data with the round it
/// belongs to, and the network model is available so protocols can route
/// their gossip through the message bus instead of calling each other
/// directly.
pub struct RoundCtx<'a> {
    /// The round being simulated (demands already stepped).
    pub round: u64,
    /// The world.
    pub dc: &'a mut DataCenter,
    /// The policy-stream RNG.
    pub rng: &'a mut SimRng,
    /// VM arrival/departure events that happened this round (0 outside
    /// churn scenarios).
    pub churn_events: usize,
    /// The message bus the policy's protocols gossip over.
    pub net: &'a mut NetworkModel,
    /// Event tracer for protocol-level telemetry ([`Tracer::off`] unless
    /// the run was given one, see [`run_simulation_profiled`]).
    pub tracer: &'a Tracer,
}

/// A consolidation algorithm under test (GLAP or a baseline).
///
/// The policy owns all its protocol state (overlays, Q-tables, thresholds,
/// history windows, …); the engine owns the world state, the clock and
/// the network.
pub trait ConsolidationPolicy {
    /// Short machine-readable name, used in result files.
    fn name(&self) -> &'static str;

    /// Called once before the first round, after initial placement.
    fn init(&mut self, dc: &mut DataCenter, rng: &mut SimRng) {
        let _ = (dc, rng);
    }

    /// One simulated round.
    fn round(&mut self, ctx: &mut RoundCtx<'_>);

    /// Serializes the policy's internal state (Q-tables, overlay views,
    /// history windows, …) into a checkpoint record. Stateless policies
    /// keep the default, which writes nothing.
    fn save_state(&self, w: &mut Writer) {
        let _ = w;
    }

    /// Restores state previously written by
    /// [`ConsolidationPolicy::save_state`] into a freshly constructed
    /// policy. Must consume exactly the bytes `save_state` wrote and fail
    /// with a typed error — never a partial load — on malformed input.
    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let _ = r;
        Ok(())
    }
}

/// A metrics consumer notified at the end of every round.
pub trait Observer {
    /// Called after the policy's round completed. `dc` is mutable so the
    /// observer can drain per-round migration records.
    fn on_round_end(&mut self, round: u64, dc: &mut DataCenter);
}

/// Runs `rounds` simulated rounds of `policy` over `dc` driven by `trace`,
/// on an ideal (fault-free) network.
///
/// Randomness for the policy comes from the master seed's `Policy` stream,
/// so two policies run from the same seed see identical traces and initial
/// placements but independent protocol randomness.
pub fn run_simulation<D, P>(
    dc: &mut DataCenter,
    trace: &mut D,
    policy: &mut P,
    observers: &mut [&mut dyn Observer],
    rounds: u64,
    master_seed: u64,
) where
    D: DemandSource + ?Sized,
    P: ConsolidationPolicy + ?Sized,
{
    let mut net = NetworkModel::ideal(dc.n_pms());
    run_simulation_with_net(dc, trace, policy, observers, rounds, master_seed, &mut net);
}

/// Like [`run_simulation`], but over a caller-provided [`NetworkModel`] so
/// fault profiles can be injected. With an ideal network the run is
/// byte-identical to [`run_simulation`]: the ideal message path consumes
/// no randomness and refuses nothing.
pub fn run_simulation_with_net<D, P>(
    dc: &mut DataCenter,
    trace: &mut D,
    policy: &mut P,
    observers: &mut [&mut dyn Observer],
    rounds: u64,
    master_seed: u64,
    net: &mut NetworkModel,
) where
    D: DemandSource + ?Sized,
    P: ConsolidationPolicy + ?Sized,
{
    run_simulation_profiled(
        dc,
        trace,
        policy,
        observers,
        rounds,
        master_seed,
        net,
        &Tracer::off(),
        &Profiler::off(),
    );
}

/// Like [`run_simulation_with_net`], but with an event tracer and a
/// wall-clock [`Profiler`] attached. The engine stamps rounds, wires the
/// tracer into the network model and the data center (so message fates,
/// crash/recover and the migration / sleep / wake lifecycle are traced
/// for *every* policy), and snapshots counters at each round boundary.
/// Each round is a `sim_round` span with `workload_step`, `net_begin`,
/// `policy_round` and `observers` children (plus per-request
/// `net_request` samples recorded by the network model). Both are
/// observational only — they read no RNG stream — so with
/// [`Tracer::off`] and [`Profiler::off`] this is exactly
/// [`run_simulation_with_net`], and results are byte-identical with
/// either on or off.
#[allow(clippy::too_many_arguments)]
pub fn run_simulation_profiled<D, P>(
    dc: &mut DataCenter,
    trace: &mut D,
    policy: &mut P,
    observers: &mut [&mut dyn Observer],
    rounds: u64,
    master_seed: u64,
    net: &mut NetworkModel,
    tracer: &Tracer,
    profiler: &Profiler,
) where
    D: DemandSource + ?Sized,
    P: ConsolidationPolicy + ?Sized,
{
    let mut rng = stream_rng(master_seed, Stream::Policy);
    run_simulation_resumable(
        dc,
        trace,
        policy,
        observers,
        rounds,
        net,
        tracer,
        profiler,
        &mut rng,
        true,
        0,
        &mut |_| Ok(()),
    )
    .expect("no checkpoint hook attached, the run cannot fail");
}

/// Borrowed view of the complete mid-run simulation state, handed to the
/// checkpoint callback of [`run_simulation_resumable`] after a round
/// fully completed (observers notified, counters snapshotted). Everything
/// a resumed run needs is reachable from here; the callback decides the
/// container format and storage.
pub struct CheckpointArgs<'a> {
    /// Rounds completed so far (equals `dc.round()`): a resumed run has
    /// `total_rounds - round` rounds left to simulate.
    pub round: u64,
    /// The world, mid-run.
    pub dc: &'a DataCenter,
    /// The network model, including its fault-stream RNG cursor.
    pub net: &'a NetworkModel,
    /// The policy-stream RNG cursor.
    pub rng: &'a SimRng,
    /// The tracer whose counters/round/seq belong in the checkpoint.
    pub tracer: &'a Tracer,
    /// The policy's serialized internal state
    /// ([`ConsolidationPolicy::save_state`]).
    pub policy_state: &'a [u8],
}

/// The resumable core every `run_simulation*` entry point delegates to.
///
/// Compared to [`run_simulation_profiled`] it takes the policy-stream RNG
/// explicitly (a resumed run restores its exact cursor instead of
/// re-deriving it from the master seed), lets the caller skip
/// [`ConsolidationPolicy::init`] (`call_init = false` when the policy's
/// state came from a checkpoint), and invokes `checkpoint` after every
/// round where `dc.round().is_multiple_of(checkpoint_every)`. The cadence is keyed
/// on the *absolute* round counter, so an interrupted run and its resumed
/// continuation checkpoint at identical rounds — a prerequisite for the
/// byte-identity contract (the checkpoint event/counters are part of the
/// traced stream).
///
/// With `checkpoint_every = 0` the callback never runs and this is
/// exactly the historical engine loop.
#[allow(clippy::too_many_arguments)]
pub fn run_simulation_resumable<D, P>(
    dc: &mut DataCenter,
    trace: &mut D,
    policy: &mut P,
    observers: &mut [&mut dyn Observer],
    rounds: u64,
    net: &mut NetworkModel,
    tracer: &Tracer,
    profiler: &Profiler,
    rng: &mut SimRng,
    call_init: bool,
    checkpoint_every: u64,
    checkpoint: &mut dyn FnMut(&CheckpointArgs<'_>) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError>
where
    D: DemandSource + ?Sized,
    P: ConsolidationPolicy + ?Sized,
{
    net.set_tracer(tracer.clone());
    net.set_profiler(profiler.clone());
    dc.set_tracer(tracer.clone());
    tracer.set_phase(Phase::Run);
    if call_init {
        policy.init(dc, rng);
    }
    for _ in 0..rounds {
        let _round_span = profiler.span("sim_round");
        let round = dc.round();
        tracer.begin_round(round);
        {
            let _s = profiler.span("workload_step");
            dc.step(trace);
        }
        {
            let _s = profiler.span("net_begin");
            net.begin_round(round);
        }
        {
            let _s = profiler.span("policy_round");
            let mut ctx = RoundCtx {
                round,
                dc: &mut *dc,
                rng: &mut *rng,
                churn_events: 0,
                net: &mut *net,
                tracer,
            };
            policy.round(&mut ctx);
        }
        // Debug builds audit the flat cluster store after every policy
        // round: placement/back-pointer consistency plus a from-scratch
        // recompute of the incrementally maintained demand aggregates.
        // Release builds skip it (it is a full O(VMs) sweep per round).
        #[cfg(debug_assertions)]
        if let Err(e) = dc.check_invariants() {
            panic!("cluster invariants broken after round {round}: {e}");
        }
        {
            let _s = profiler.span("observers");
            for obs in observers.iter_mut() {
                obs.on_round_end(round, dc);
            }
        }
        tracer.end_round();
        if checkpoint_every > 0 && dc.round().is_multiple_of(checkpoint_every) {
            let _s = profiler.span("checkpoint");
            let mut policy_state = Writer::new();
            policy.save_state(&mut policy_state);
            checkpoint(&CheckpointArgs {
                round: dc.round(),
                dc,
                net,
                rng,
                tracer,
                policy_state: policy_state.bytes(),
            })?;
        }
    }
    tracer.flush();
    Ok(())
}

/// A policy that does nothing — the "no consolidation" control.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopPolicy;

impl ConsolidationPolicy for NoopPolicy {
    fn name(&self) -> &'static str {
        "noop"
    }

    fn round(&mut self, _ctx: &mut RoundCtx<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::FaultProfile;
    use glap_cluster::{DataCenterConfig, Resources, VmId, VmSpec};

    struct CountingObserver {
        rounds_seen: Vec<u64>,
        migrations: usize,
    }

    impl Observer for CountingObserver {
        fn on_round_end(&mut self, round: u64, dc: &mut DataCenter) {
            self.rounds_seen.push(round);
            self.migrations += dc.take_migrations().len();
        }
    }

    struct MigrateOncePolicy {
        done: bool,
    }

    impl ConsolidationPolicy for MigrateOncePolicy {
        fn name(&self) -> &'static str {
            "migrate-once"
        }

        fn round(&mut self, ctx: &mut RoundCtx<'_>) {
            let dc = &mut *ctx.dc;
            if !self.done {
                let vm = VmId(0);
                let to = dc
                    .active_pm_ids()
                    .find(|&p| Some(p) != dc.vm(vm).host)
                    .expect("a second PM");
                dc.migrate(vm, to).unwrap();
                self.done = true;
            }
        }
    }

    fn dc_with_vms(n_pms: usize, n_vms: usize) -> DataCenter {
        let mut dc = DataCenter::new(DataCenterConfig::paper(n_pms));
        for _ in 0..n_vms {
            dc.add_vm(VmSpec::EC2_MICRO);
        }
        let mut rng = stream_rng(1, Stream::Placement);
        dc.random_placement(&mut rng);
        dc
    }

    #[test]
    fn run_advances_rounds_and_notifies_observers() {
        let mut dc = dc_with_vms(3, 6);
        let mut trace = |_: VmId, _: u64| Resources::splat(0.4);
        let mut policy = NoopPolicy;
        let mut obs = CountingObserver {
            rounds_seen: Vec::new(),
            migrations: 0,
        };
        run_simulation(&mut dc, &mut trace, &mut policy, &mut [&mut obs], 5, 99);
        assert_eq!(dc.round(), 5);
        assert_eq!(obs.rounds_seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(obs.migrations, 0);
    }

    #[test]
    fn policy_migrations_are_visible_to_observers() {
        let mut dc = dc_with_vms(3, 6);
        let mut trace = |_: VmId, _: u64| Resources::splat(0.4);
        let mut policy = MigrateOncePolicy { done: false };
        let mut obs = CountingObserver {
            rounds_seen: Vec::new(),
            migrations: 0,
        };
        run_simulation(&mut dc, &mut trace, &mut policy, &mut [&mut obs], 3, 99);
        assert_eq!(obs.migrations, 1);
    }

    #[test]
    fn identical_seed_identical_world() {
        let run = |seed: u64| {
            let mut dc = dc_with_vms(4, 8);
            let mut trace =
                |vm: VmId, r: u64| Resources::splat(((vm.0 as f64 + r as f64) % 10.0) / 10.0);
            let mut policy = NoopPolicy;
            run_simulation(&mut dc, &mut trace, &mut policy, &mut [], 10, seed);
            dc.pms().map(|p| p.demand().cpu()).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn explicit_ideal_net_matches_default_path() {
        let run = |explicit: bool| {
            let mut dc = dc_with_vms(4, 8);
            let mut trace =
                |vm: VmId, r: u64| Resources::splat(((vm.0 as f64 + r as f64) % 7.0) / 7.0);
            let mut policy = MigrateOncePolicy { done: false };
            if explicit {
                let mut net = NetworkModel::new(4, FaultProfile::none(), 123);
                run_simulation_with_net(&mut dc, &mut trace, &mut policy, &mut [], 10, 5, &mut net);
            } else {
                run_simulation(&mut dc, &mut trace, &mut policy, &mut [], 10, 5);
            }
            dc.vms().map(|v| v.host).collect::<Vec<_>>()
        };
        assert_eq!(run(true), run(false));
    }

    /// A policy that consumes policy-stream randomness every round and
    /// carries internal state, so resume bugs in any of the four state
    /// carriers (world, network, RNG cursor, policy) surface as diffs.
    struct JigglePolicy {
        moves: u64,
    }

    impl ConsolidationPolicy for JigglePolicy {
        fn name(&self) -> &'static str {
            "jiggle"
        }

        fn round(&mut self, ctx: &mut RoundCtx<'_>) {
            use rand::Rng;
            let vm = VmId(ctx.rng.gen_range(0..ctx.dc.n_vms() as u32));
            if ctx.net.request(0, 1).is_ok() {
                let from = ctx.dc.vm(vm).host;
                let to = ctx.dc.active_pm_ids().find(|&p| Some(p) != from);
                if let Some(to) = to {
                    if ctx.dc.migrate(vm, to).is_ok() {
                        self.moves += 1;
                    }
                }
            }
        }

        fn save_state(&self, w: &mut Writer) {
            w.put_u64(self.moves);
        }

        fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
            self.moves = r.get_u64()?;
            Ok(())
        }
    }

    fn world_fingerprint(dc: &DataCenter) -> (u64, Vec<Option<glap_cluster::PmId>>, Vec<f64>) {
        (
            dc.round(),
            dc.vms().map(|v| v.host).collect(),
            dc.pms().map(|p| p.demand().cpu()).collect(),
        )
    }

    #[test]
    fn interrupted_resume_matches_uninterrupted_run() {
        use glap_snapshot::{Checkpointable, Snapshot, SnapshotBuilder};

        let trace = |vm: VmId, r: u64| Resources::splat(((vm.0 as f64 + r as f64) % 9.0) / 10.0);
        let profile = FaultProfile::faulty(0.1, 0.01, 0.3);

        // Reference: 12 uninterrupted rounds, checkpointing (to memory)
        // every 5 so the checkpoint cadence itself is identical.
        let mut snapshots: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut dc = dc_with_vms(4, 8);
        let mut net = NetworkModel::new(4, profile.clone(), 7);
        let mut policy = JigglePolicy { moves: 0 };
        let mut rng = stream_rng(7, Stream::Policy);
        let mut trace_fn = trace;
        run_simulation_resumable(
            &mut dc,
            &mut trace_fn,
            &mut policy,
            &mut [],
            12,
            &mut net,
            &Tracer::off(),
            &Profiler::off(),
            &mut rng,
            true,
            5,
            &mut |args| {
                let mut b = SnapshotBuilder::new();
                let mut w = Writer::new();
                args.dc.save(&mut w);
                b.section("dc", w);
                let mut w = Writer::new();
                args.net.save(&mut w);
                b.section("net", w);
                let mut w = Writer::new();
                crate::rng::save_rng(args.rng, &mut w);
                b.section("rng", w);
                let mut w = Writer::new();
                w.put_bytes(args.policy_state);
                b.section("policy", w);
                snapshots.push((args.round, b.encode()));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(
            snapshots.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
            vec![5, 10],
            "cadence is keyed on the absolute round counter"
        );
        let reference = world_fingerprint(&dc);
        let reference_moves = policy.moves;
        let reference_stats = net.stats;

        // Resume from the round-5 checkpoint into freshly built state and
        // run the remaining 7 rounds.
        let snap = Snapshot::decode(&snapshots[0].1).unwrap();
        let mut dc2 = dc_with_vms(4, 8);
        dc2.restore(&mut snap.section("dc").unwrap()).unwrap();
        let mut net2 = NetworkModel::new(4, profile, 999);
        net2.restore(&mut snap.section("net").unwrap()).unwrap();
        let mut rng2 = crate::rng::restore_rng(&mut snap.section("rng").unwrap()).unwrap();
        let mut policy2 = JigglePolicy { moves: 0 };
        let policy_bytes = snap.section("policy").unwrap().get_bytes().unwrap();
        policy2
            .restore_state(&mut Reader::new(&policy_bytes))
            .unwrap();
        assert_eq!(dc2.round(), 5);

        let mut trace_fn = trace;
        run_simulation_resumable(
            &mut dc2,
            &mut trace_fn,
            &mut policy2,
            &mut [],
            7,
            &mut net2,
            &Tracer::off(),
            &Profiler::off(),
            &mut rng2,
            false,
            5,
            &mut |args| {
                // The resumed run's round-10 checkpoint must be byte-equal
                // to the uninterrupted run's.
                assert_eq!(args.round, 10);
                let mut b = SnapshotBuilder::new();
                let mut w = Writer::new();
                args.dc.save(&mut w);
                b.section("dc", w);
                let mut w = Writer::new();
                args.net.save(&mut w);
                b.section("net", w);
                let mut w = Writer::new();
                crate::rng::save_rng(args.rng, &mut w);
                b.section("rng", w);
                let mut w = Writer::new();
                w.put_bytes(args.policy_state);
                b.section("policy", w);
                assert_eq!(b.encode(), snapshots[1].1);
                Ok(())
            },
        )
        .unwrap();

        assert_eq!(world_fingerprint(&dc2), reference);
        assert_eq!(policy2.moves, reference_moves);
        assert_eq!(net2.stats, reference_stats);
    }

    #[test]
    fn checkpoint_errors_abort_the_run() {
        let mut dc = dc_with_vms(3, 3);
        let mut trace = |_: VmId, _: u64| Resources::splat(0.2);
        let mut policy = NoopPolicy;
        let mut net = NetworkModel::ideal(3);
        let mut rng = stream_rng(1, Stream::Policy);
        let err = run_simulation_resumable(
            &mut dc,
            &mut trace,
            &mut policy,
            &mut [],
            10,
            &mut net,
            &Tracer::off(),
            &Profiler::off(),
            &mut rng,
            true,
            4,
            &mut |_| Err(SnapshotError::Corrupt("disk full".into())),
        );
        assert!(err.is_err());
        assert_eq!(dc.round(), 4, "the run stopped at the failing checkpoint");
    }

    #[test]
    fn ctx_exposes_net_and_round() {
        struct Probe {
            rounds: Vec<u64>,
            net_ok: bool,
        }
        impl ConsolidationPolicy for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn round(&mut self, ctx: &mut RoundCtx<'_>) {
                self.rounds.push(ctx.round);
                self.net_ok &= ctx.net.request(0, 1).is_ok();
                assert_eq!(ctx.churn_events, 0);
            }
        }
        let mut dc = dc_with_vms(3, 3);
        let mut trace = |_: VmId, _: u64| Resources::splat(0.2);
        let mut probe = Probe {
            rounds: Vec::new(),
            net_ok: true,
        };
        run_simulation(&mut dc, &mut trace, &mut probe, &mut [], 4, 1);
        assert_eq!(probe.rounds, vec![0, 1, 2, 3]);
        assert!(probe.net_ok);
    }
}

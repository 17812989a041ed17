//! Executes one scenario end-to-end: trace synthesis, identical initial
//! placement, GLAP pre-training where applicable, the measured day, and
//! metric collection.

use crate::checkpoint::{checkpoint_path, encode_checkpoint, resume_scenario};
use crate::scenario::{Algorithm, Scenario};
use glap::{train_instrumented, unified_table, GlapConfig, GlapPolicy, TableStore};
use glap_baselines::{
    bfd_baseline, EcoCloudConfig, EcoCloudPolicy, GrmpConfig, GrmpPolicy, PabfdConfig, PabfdPolicy,
};
use glap_cluster::{DataCenter, DataCenterConfig};
use glap_dcsim::{
    run_simulation_resumable, stream_rng, CheckpointArgs, ConsolidationPolicy, NetworkModel,
    Observer, SimRng, Stream,
};
use glap_metrics::{MetricsCollector, RunResult};
use glap_profile::{Heartbeat, Profiler};
use glap_snapshot::{read_snapshot_file, write_atomic, SnapshotError};
use glap_telemetry::{ConvergenceMonitor, Tracer};
use glap_workload::{GoogleLikeTraceGen, MaterializedTrace, OffsetTrace};
use std::cell::RefCell;
use std::convert::Infallible;
use std::path::PathBuf;
use std::rc::Rc;

/// Builds the data center of a scenario with its seed-determined initial
/// placement (identical for every algorithm within a repetition).
pub fn build_world(sc: &Scenario) -> (DataCenter, MaterializedTrace) {
    let mut dc = DataCenter::new(DataCenterConfig::paper(sc.n_pms));
    dc.reserve_vms(sc.n_vms());
    for i in 0..sc.n_vms() {
        dc.add_vm(sc.vm_mix.spec(i));
    }
    let mut placement_rng = stream_rng(sc.world_seed(), Stream::Placement);
    dc.random_placement(&mut placement_rng);

    // Trace covers the GLAP pre-training rounds plus the measured day.
    let total_rounds = sc.glap.learning_rounds + sc.rounds as usize;
    let gen = GoogleLikeTraceGen::new(sc.trace_cfg);
    let mut trace_rng = stream_rng(sc.world_seed(), Stream::Trace);
    let trace = gen.generate(sc.n_vms(), total_rounds, &mut trace_rng);
    (dc, trace)
}

/// The one algorithm→policy constructor. Baselines get their default
/// configurations. GLAP variants get `sc.glap` (with no aggregation
/// rounds for the no-aggregation ablation), the tables `tables` makes
/// for that configuration, and the ablation's switches. `tables` runs
/// for GLAP variants only, so a baseline allocates no table; its error
/// is returned as is.
pub fn scenario_policy<E>(
    sc: &Scenario,
    tables: impl FnOnce(&GlapConfig) -> Result<TableStore, E>,
) -> Result<Box<dyn ConsolidationPolicy>, E> {
    Ok(match sc.algorithm {
        Algorithm::Grmp => Box::new(GrmpPolicy::new(GrmpConfig::default())),
        Algorithm::EcoCloud => Box::new(EcoCloudPolicy::new(EcoCloudConfig::default())),
        Algorithm::Pabfd => Box::new(PabfdPolicy::new(PabfdConfig::default())),
        Algorithm::Glap
        | Algorithm::GlapNoVeto
        | Algorithm::GlapCurrentOnly
        | Algorithm::GlapNoAggregation => {
            let mut cfg = sc.glap;
            if sc.algorithm == Algorithm::GlapNoAggregation {
                cfg.aggregation_rounds = 0;
            }
            let store = tables(&cfg)?;
            let mut policy = GlapPolicy::new(cfg, store);
            policy.disable_in_veto = sc.algorithm == Algorithm::GlapNoVeto;
            policy.current_state_only = sc.algorithm == Algorithm::GlapCurrentOnly;
            Box::new(policy)
        }
    })
}

/// Builds the policy for a scenario, pre-training GLAP variants on a
/// throwaway copy of the data center over the trace's first rounds (the
/// paper's "700 more rounds to calculate Q-values beforehand").
pub fn build_policy(
    sc: &Scenario,
    dc: &DataCenter,
    trace: &MaterializedTrace,
) -> Box<dyn ConsolidationPolicy> {
    build_policy_instrumented(sc, dc, trace, &Tracer::off(), &Profiler::off()).0
}

/// [`build_policy`] with an event tracer and a wall-clock [`Profiler`]
/// threaded into GLAP pre-training: training emits `shuffle_*` /
/// `convergence_sampled` events through `tracer`, runs under the `train`
/// span tree, and the returned [`ConvergenceMonitor`] holds the
/// divergence series (non-`None` only for GLAP variants with the tracer
/// on). Observational only: results are byte-identical either way.
pub fn build_policy_instrumented(
    sc: &Scenario,
    dc: &DataCenter,
    trace: &MaterializedTrace,
    tracer: &Tracer,
    profiler: &Profiler,
) -> (Box<dyn ConsolidationPolicy>, Option<ConvergenceMonitor>) {
    let mut monitor = None;
    let Ok(policy) = scenario_policy(sc, |cfg| {
        let (arena, _report, m) = train_instrumented(
            &mut dc.clone(),
            &mut OffsetTrace::new(trace, 0),
            cfg,
            sc.policy_seed(),
            false,
            tracer,
            None,
            profiler,
        );
        monitor = tracer.is_on().then_some(m);
        // Only the no-aggregation ablation needs every PM's own dense
        // table; everyone else shares the unified one.
        Ok::<_, Infallible>(if sc.algorithm == Algorithm::GlapNoAggregation {
            TableStore::PerPm(arena.export())
        } else {
            TableStore::Shared(Box::new(unified_table(arena.slots())))
        })
    });
    (policy, monitor)
}

/// Runs a scenario and returns its result bundle.
pub fn run_scenario(sc: &Scenario) -> RunResult {
    run_scenario_traced(sc, &Tracer::off()).0
}

/// [`run_scenario`] with an event tracer threaded through pre-training,
/// the network, the data center, and the policy. With [`Tracer::off`] the
/// results are byte-identical to [`run_scenario`]; with a live sink, the
/// run additionally produces a full structured event trace plus counter
/// snapshots without perturbing the simulation.
pub fn run_scenario_traced(
    sc: &Scenario,
    tracer: &Tracer,
) -> (RunResult, Option<ConvergenceMonitor>) {
    let (result, monitor) = run_scenario_instrumented(
        sc,
        tracer,
        &CheckpointOpts::default(),
        &Profiler::off(),
        false,
    )
    .expect("no checkpoint I/O configured");
    (
        result.expect("no stop_at_round: the day runs to completion"),
        monitor,
    )
}

/// Checkpoint/resume options for [`run_scenario_instrumented`].
#[derive(Debug, Clone, Default)]
pub struct CheckpointOpts {
    /// Write a checkpoint every this many measured rounds (0 = never).
    /// Byte-identity across an interruption requires the uninterrupted
    /// reference run to use the *same* cadence, because each checkpoint
    /// leaves a `checkpoint_written` event in the trace.
    pub every: u64,
    /// Directory for checkpoint files (`<scenario-id>.ckpt`); `None`
    /// still emits the checkpoint telemetry but writes nothing.
    pub dir: Option<PathBuf>,
    /// Resume from this snapshot file instead of starting fresh.
    pub resume: Option<PathBuf>,
    /// Stop after this many measured rounds (interrupt simulation: the
    /// run ends early and returns no [`RunResult`]).
    pub stop_at_round: Option<u64>,
}

/// Where a measured day starts: the world, the full trace (training
/// prefix, then the day), the network and policy RNG at their cursors,
/// the policy, the round samples so far, the measured rounds done, and
/// whether the day calls the policy's `init` (not when its state came
/// from a checkpoint). Built fresh ([`DayStart::fresh`]) or from a
/// snapshot ([`resume_scenario`]).
pub(crate) struct DayStart {
    pub(crate) dc: DataCenter,
    pub(crate) trace: MaterializedTrace,
    pub(crate) net: NetworkModel,
    pub(crate) rng: SimRng,
    pub(crate) policy: Box<dyn ConsolidationPolicy>,
    pub(crate) collector: MetricsCollector,
    pub(crate) rounds_done: u64,
    pub(crate) call_init: bool,
}

impl DayStart {
    /// The start of a fresh day over `dc` and `trace` with `policy`: the
    /// scenario's network and policy RNG, no rounds done.
    pub(crate) fn fresh(
        sc: &Scenario,
        dc: DataCenter,
        trace: MaterializedTrace,
        policy: Box<dyn ConsolidationPolicy>,
    ) -> DayStart {
        DayStart {
            dc,
            trace,
            net: NetworkModel::new(sc.n_pms, sc.fault.clone(), sc.policy_seed()),
            rng: stream_rng(sc.policy_seed(), Stream::Policy),
            policy,
            collector: MetricsCollector::new(),
            rounds_done: 0,
            call_init: true,
        }
    }
}

/// The day's observer: it feeds the [`MetricsCollector`] it shares with
/// the checkpoint hook (each checkpoint reads the samples collected so
/// far), then ticks the `--progress` stderr heartbeat, which reads
/// nothing back — the simulation cannot observe it.
struct DayObserver {
    collector: Rc<RefCell<MetricsCollector>>,
    heartbeat: Heartbeat,
}

impl Observer for DayObserver {
    fn on_round_end(&mut self, round: u64, dc: &mut DataCenter) {
        self.collector.borrow_mut().on_round_end(round, dc);
        self.heartbeat.tick(round + 1);
    }
}

/// Runs one scenario: builds the start of its measured day fresh (the
/// world, then the policy with GLAP's pre-training) or, with
/// `opts.resume`, from a checkpoint, and runs the day from it.
///
/// A checkpoint is written atomically every `opts.every` rounds. Resumed
/// runs skip pre-training entirely: all state, including the trained
/// tables and every RNG cursor, comes from the snapshot, and the
/// continuation is byte-identical to a run that was never interrupted.
/// The [`Profiler`] and the `progress` stderr heartbeat are strictly
/// observational: results are byte-identical whatever their setting
/// (pinned by the `integration_profile` suite).
///
/// Returns `Ok((None, _))` when `opts.stop_at_round` ended the run
/// before the scenario's final round; the convergence monitor is only
/// available on fresh traced GLAP runs (resumes skip the training that
/// produces it).
pub fn run_scenario_instrumented(
    sc: &Scenario,
    tracer: &Tracer,
    opts: &CheckpointOpts,
    profiler: &Profiler,
    progress: bool,
) -> Result<(Option<RunResult>, Option<ConvergenceMonitor>), SnapshotError> {
    let (start, monitor) = if let Some(path) = &opts.resume {
        let _s = profiler.span("resume_load");
        let snap = read_snapshot_file(path)?;
        (resume_scenario(sc, &snap, tracer)?, None)
    } else {
        let (dc, trace) = {
            let _s = profiler.span("build_world");
            build_world(sc)
        };
        let (policy, monitor) = {
            let _s = profiler.span("build_policy");
            build_policy_instrumented(sc, &dc, &trace, tracer, profiler)
        };
        (DayStart::fresh(sc, dc, trace, policy), monitor)
    };
    let result = run_day(sc, start, tracer, opts, profiler, progress)?;
    Ok((result, monitor))
}

/// The measured day every entry point runs: the trace rounds after GLAP's
/// training prefix, from `start` to the scenario's last round (or
/// `opts.stop_at_round`), with a checkpoint every `opts.every` rounds.
/// Returns `None` when the day stopped early.
pub(crate) fn run_day(
    sc: &Scenario,
    mut start: DayStart,
    tracer: &Tracer,
    opts: &CheckpointOpts,
    profiler: &Profiler,
    progress: bool,
) -> Result<Option<RunResult>, SnapshotError> {
    let target = opts.stop_at_round.map_or(sc.rounds, |s| s.min(sc.rounds));
    let rounds_left = target.saturating_sub(start.rounds_done);
    let mut day = OffsetTrace::new(&start.trace, sc.glap.learning_rounds as u64);
    let shared = Rc::new(RefCell::new(start.collector));
    let mut observer = DayObserver {
        collector: shared.clone(),
        heartbeat: if progress {
            Heartbeat::new(&sc.id(), sc.rounds)
        } else {
            Heartbeat::off()
        },
    };
    let hook_collector = shared.clone();
    let ckpt_file = opts.dir.as_ref().map(|d| checkpoint_path(d, sc));
    let mut hook = move |args: &CheckpointArgs<'_>| -> Result<(), SnapshotError> {
        let bytes = encode_checkpoint(sc, args, &hook_collector.borrow());
        match &ckpt_file {
            Some(path) => write_atomic(path, &bytes),
            None => Ok(()),
        }
    };
    let day_span = profiler.span("measured_day");
    run_simulation_resumable(
        &mut start.dc,
        &mut day,
        start.policy.as_mut(),
        &mut [&mut observer],
        rounds_left,
        &mut start.net,
        tracer,
        profiler,
        &mut start.rng,
        start.call_init,
        opts.every,
        &mut hook,
    )?;
    drop(day_span);
    observer.heartbeat.finish();
    drop(observer);
    drop(hook);
    let collector = Rc::try_unwrap(shared)
        .expect("observer and hook are dropped")
        .into_inner();

    if start.dc.round() < sc.rounds {
        return Ok(None);
    }
    let mut result = RunResult::from_run(sc.algorithm.label(), collector, &start.dc);
    result.bfd_bins = bfd_baseline(&start.dc);
    Ok(Some(result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use glap::GlapConfig;

    fn run(sc: &Scenario, opts: &CheckpointOpts) -> Result<Option<RunResult>, SnapshotError> {
        run_scenario_instrumented(sc, &Tracer::off(), opts, &Profiler::off(), false).map(|(r, _)| r)
    }

    fn quick_scenario(algorithm: Algorithm) -> Scenario {
        Scenario {
            n_pms: 40,
            ratio: 3,
            rep: 0,
            algorithm,
            rounds: 60,
            glap: GlapConfig {
                learning_rounds: 20,
                aggregation_rounds: 10,
                ..GlapConfig::default()
            },
            trace_cfg: Default::default(),
            vm_mix: Default::default(),
            fault: Default::default(),
        }
    }

    #[test]
    fn world_is_identical_across_algorithms() {
        let a = quick_scenario(Algorithm::Glap);
        let b = quick_scenario(Algorithm::Pabfd);
        let (dc_a, tr_a) = build_world(&a);
        let (dc_b, tr_b) = build_world(&b);
        assert_eq!(tr_a, tr_b);
        let hosts_a: Vec<_> = dc_a.vms().map(|v| v.host).collect();
        let hosts_b: Vec<_> = dc_b.vms().map(|v| v.host).collect();
        assert_eq!(hosts_a, hosts_b);
    }

    #[test]
    fn all_algorithms_run_to_completion() {
        for algo in [
            Algorithm::Glap,
            Algorithm::Grmp,
            Algorithm::EcoCloud,
            Algorithm::Pabfd,
        ] {
            let sc = quick_scenario(algo);
            let result = run_scenario(&sc);
            assert_eq!(result.collector.samples.len(), 60, "{}", algo.label());
            assert!(result.bfd_bins > 0);
        }
    }

    #[test]
    fn runs_are_reproducible() {
        let sc = quick_scenario(Algorithm::Glap);
        let a = run_scenario(&sc);
        let b = run_scenario(&sc);
        assert_eq!(a.collector.samples, b.collector.samples);
        assert_eq!(a.sla, b.sla);
    }

    #[test]
    fn glap_consolidates_in_the_quick_world() {
        let sc = quick_scenario(Algorithm::Glap);
        let result = run_scenario(&sc);
        let final_active = result.collector.samples.last().unwrap().active_pms;
        assert!(final_active < 40, "no consolidation: {final_active} active");
    }

    #[test]
    fn checkpointed_run_without_snapshots_matches_plain_run() {
        let sc = quick_scenario(Algorithm::Grmp);
        let plain = run_scenario(&sc);
        let ckpt = run(&sc, &CheckpointOpts::default())
            .expect("no checkpoint I/O configured")
            .expect("ran to completion");
        assert_eq!(plain.collector.samples, ckpt.collector.samples);
        assert_eq!(plain.sla, ckpt.sla);
        assert_eq!(plain.bfd_bins, ckpt.bfd_bins);
    }

    #[test]
    fn interrupted_and_resumed_scenario_is_byte_identical() {
        let sc = quick_scenario(Algorithm::Glap);
        let dir = std::env::temp_dir().join(format!("glap-ckpt-runner-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Uninterrupted reference at the same checkpoint cadence.
        let full_opts = CheckpointOpts {
            every: 20,
            dir: Some(dir.join("full")),
            ..Default::default()
        };
        std::fs::create_dir_all(dir.join("full")).unwrap();
        let full = run(&sc, &full_opts).unwrap();
        let full = full.unwrap();

        // Interrupt at round 20, then resume to the end.
        let part_dir = dir.join("part");
        std::fs::create_dir_all(&part_dir).unwrap();
        let stop_opts = CheckpointOpts {
            every: 20,
            dir: Some(part_dir.clone()),
            stop_at_round: Some(20),
            ..Default::default()
        };
        let stopped = run(&sc, &stop_opts).unwrap();
        assert!(stopped.is_none(), "interrupted run yields no result");
        let ckpt = crate::checkpoint::checkpoint_path(&part_dir, &sc);
        assert!(ckpt.exists());

        let resume_opts = CheckpointOpts {
            every: 20,
            dir: Some(part_dir.clone()),
            resume: Some(ckpt),
            ..Default::default()
        };
        let resumed = run(&sc, &resume_opts).unwrap();
        let resumed = resumed.unwrap();

        assert_eq!(full.collector.samples, resumed.collector.samples);
        assert_eq!(full.sla, resumed.sla);
        assert_eq!(full.bfd_bins, resumed.bfd_bins);
        assert_eq!(full.wake_ups, resumed.wake_ups);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_a_snapshot_from_another_scenario() {
        let sc = quick_scenario(Algorithm::Glap);
        let dir = std::env::temp_dir().join(format!("glap-ckpt-mismatch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let stop_opts = CheckpointOpts {
            every: 10,
            dir: Some(dir.clone()),
            stop_at_round: Some(10),
            ..Default::default()
        };
        run(&sc, &stop_opts).unwrap();
        let ckpt = crate::checkpoint::checkpoint_path(&dir, &sc);

        let mut other = quick_scenario(Algorithm::Glap);
        other.rep = 9;
        let resume_opts = CheckpointOpts {
            resume: Some(ckpt),
            ..Default::default()
        };
        let err = run(&other, &resume_opts).unwrap_err();
        assert!(err.to_string().contains("repetition"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ablation_variants_run() {
        for algo in [
            Algorithm::GlapNoVeto,
            Algorithm::GlapCurrentOnly,
            Algorithm::GlapNoAggregation,
        ] {
            let sc = quick_scenario(algo);
            let result = run_scenario(&sc);
            assert_eq!(result.collector.samples.len(), 60);
        }
    }
}

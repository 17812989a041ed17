//! Transport-backed scenario runs: GLAP pre-training as a fleet of real
//! [`glap_node::NodeCore`]s behind a chosen [`Transport`], followed by
//! the standard measured day.
//!
//! This is the harness behind the `node_runtime` binary and the
//! sim-vs-channel byte-identity suite. The measured day is the one
//! [`run_scenario_traced`](crate::runner::run_scenario_traced) runs — only
//! the training phase differs: instead of the centralized
//! [`glap::train_instrumented`] loop, each PM runs as a [`NodeCore`] and every
//! protocol exchange crosses the transport as serialized wire bytes.
//! Because node randomness is per-node (`Stream::Node(id)`) and delivery
//! order comes from the seeded `Stream::Delivery` schedule, the result
//! is a pure function of the scenario — [`TransportKind::Sim`] and
//! [`TransportKind::Channel`] at any worker count produce byte-identical
//! tables, metrics and telemetry.
//!
//! Checkpointing (`--checkpoint-every` / `--stop-at-round` / `--resume`)
//! is reinterpreted over *training* rounds: learning rounds first, then
//! aggregation rounds, one checkpoint per cadence tick, each snapshot
//! carrying the data center, the tracer state and the full node fleet.
//!
//! [`NodeCore`]: glap_node::NodeCore
//! [`Transport`]: glap_node::Transport

use crate::runner::{build_world, run_day, scenario_policy, CheckpointOpts, DayStart};
use crate::scenario::{Algorithm, Scenario};
use glap::prelude::{
    splitmix64, Checkpointable, GlapConfig, NetworkModel, SnapshotError, Tracer, Writer,
};
use glap::TableStore;
use glap_cluster::{DataCenter, DemandSource};
use glap_metrics::RunResult;
use glap_node::{ChannelTransport, NodeRuntime, SimTransport, Transport};
use glap_profile::Profiler;
use glap_qlearn::{unified_table, ArenaSlot, QArena};
use glap_snapshot::{read_snapshot_file, write_atomic, SnapshotBuilder};
use glap_workload::OffsetTrace;
use std::path::{Path, PathBuf};

/// Which [`Transport`](glap_node::Transport) hosts the node fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process oracle: cores stepped inline on the driver thread.
    #[default]
    Sim,
    /// Real concurrency: cores on a worker pool, messages over mpsc
    /// channels (`--threads` sets the worker count).
    Channel,
}

impl std::str::FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<TransportKind, String> {
        match s {
            "sim" => Ok(TransportKind::Sim),
            "channel" => Ok(TransportKind::Channel),
            other => Err(format!("unknown transport {other} (expected sim|channel)")),
        }
    }
}

/// Salt distinguishing the training network's fault stream from the
/// measured day's (which seeds directly from the policy seed).
const TRAIN_NET_SALT: u64 = 0x4e4f4445; // "NODE"

/// The checkpoint file of a node-transport run (distinct suffix so it
/// can never collide with the measured-day checkpoints of
/// [`run_scenario_instrumented`](crate::runner::run_scenario_instrumented)).
pub fn node_checkpoint_path(dir: &Path, sc: &Scenario) -> PathBuf {
    dir.join(format!("{}_node.ckpt", sc.id()))
}

/// What a transport-backed run produced.
#[derive(Default)]
pub struct NodeRunOutcome {
    /// The measured-day result; `None` when `--stop-at-round` ended
    /// training early (resume from the checkpoint to continue).
    pub result: Option<RunResult>,
    /// Serialized per-PM Q-tables after training — the byte-identity
    /// artifact CI compares across transports. `None` for non-GLAP
    /// algorithms (nothing is trained) and interrupted runs.
    pub tables: Option<Vec<u8>>,
}

/// Serializes a table set — dense pairs or a fleet's sparse slots, whose
/// encoding is the same — to its canonical comparison bytes.
pub fn encode_tables<T: Checkpointable>(tables: &[T]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_usize(tables.len());
    for t in tables {
        t.save(&mut w);
    }
    w.into_bytes()
}

/// Trains the fleet over `transport`, honoring the checkpoint options.
/// Returns `None` when `--stop-at-round` interrupted training.
#[allow(clippy::too_many_arguments)]
fn train_over<T: Transport, D: DemandSource + ?Sized>(
    transport: T,
    cfg: &GlapConfig,
    sc: &Scenario,
    dc: &mut DataCenter,
    trace: &mut D,
    tracer: &Tracer,
    opts: &CheckpointOpts,
    profiler: &Profiler,
) -> Result<Option<Vec<ArenaSlot>>, SnapshotError> {
    let _train_span = profiler.span("node_train");
    let seed = sc.policy_seed();
    let net = NetworkModel::new(
        sc.n_pms,
        sc.fault.clone(),
        splitmix64(seed ^ TRAIN_NET_SALT),
    );
    let mut rt = NodeRuntime::new(transport, cfg, net, seed, dc);
    rt.set_profiler(profiler.clone());
    if let Some(path) = &opts.resume {
        let snap = read_snapshot_file(path)?;
        let id = snap.section("meta")?.get_str()?;
        if id != sc.id() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot belongs to scenario {id}, not {}",
                sc.id()
            )));
        }
        dc.restore(&mut snap.section("world")?)?;
        tracer.restore_state(&mut snap.section("tracer")?)?;
        rt.restore(&mut snap.section("runtime")?)?;
    }

    let learning = cfg.learning_rounds as u64;
    let total = learning + cfg.aggregation_rounds as u64;
    while rt.learning_done() + rt.aggregation_done() < total {
        if rt.learning_done() < learning {
            rt.learning_round(dc, trace, tracer);
        } else {
            rt.aggregation_round(tracer);
        }
        let done = rt.learning_done() + rt.aggregation_done();
        if opts.every > 0 && done.is_multiple_of(opts.every) {
            if let Some(dir) = &opts.dir {
                let mut b = SnapshotBuilder::new();
                let mut w = Writer::new();
                w.put_str(&sc.id());
                b.section("meta", w);
                let mut w = Writer::new();
                dc.save(&mut w);
                b.section("world", w);
                let mut w = Writer::new();
                tracer.save_state(&mut w);
                b.section("tracer", w);
                let mut w = Writer::new();
                rt.save(&mut w);
                b.section("runtime", w);
                write_atomic(&node_checkpoint_path(dir, sc), &b.encode())?;
            }
        }
        if done < total && opts.stop_at_round.is_some_and(|s| done >= s) {
            return Ok(None);
        }
    }
    Ok(Some(rt.into_slots()))
}

/// Runs one scenario with transport-backed training.
///
/// GLAP variants train their tables over the chosen transport; the
/// baselines have nothing to train and skip straight to the measured
/// day, which for every algorithm is byte-identical to
/// [`run_scenario_traced`](crate::runner::run_scenario_traced)'s.
pub fn run_node_scenario(
    sc: &Scenario,
    transport: TransportKind,
    threads: Option<usize>,
    tracer: &Tracer,
    opts: &CheckpointOpts,
) -> Result<NodeRunOutcome, SnapshotError> {
    run_node_scenario_instrumented(sc, transport, threads, tracer, opts, &Profiler::off())
}

/// [`run_node_scenario`] with a wall-clock [`Profiler`]: transport-backed
/// training runs under a `node_train` span (per-round `node_learn_round`
/// / `node_agg_round` children with per-message `transport_dispatch`
/// samples), the measured day under `measured_day` with the engine's
/// `sim_round` tree. Observational only — tables, metrics and telemetry
/// stay byte-identical with profiling on or off.
pub fn run_node_scenario_instrumented(
    sc: &Scenario,
    transport: TransportKind,
    threads: Option<usize>,
    tracer: &Tracer,
    opts: &CheckpointOpts,
    profiler: &Profiler,
) -> Result<NodeRunOutcome, SnapshotError> {
    let (dc, trace) = build_world(sc);
    let mut table_bytes = None;
    // `Err(None)`: `--stop-at-round` interrupted training.
    let policy = scenario_policy::<Option<SnapshotError>>(sc, |cfg| {
        let mut train_dc = dc.clone();
        let mut train_trace = OffsetTrace::new(&trace, 0);
        let seed = sc.policy_seed();
        let tables = match transport {
            TransportKind::Sim => train_over(
                SimTransport::new(sc.n_pms, cfg, seed),
                cfg,
                sc,
                &mut train_dc,
                &mut train_trace,
                tracer,
                opts,
                profiler,
            ),
            TransportKind::Channel => train_over(
                ChannelTransport::new(sc.n_pms, cfg, seed, threads),
                cfg,
                sc,
                &mut train_dc,
                &mut train_trace,
                tracer,
                opts,
                profiler,
            ),
        };
        let slots = tables.map_err(Some)?.ok_or(None)?;
        table_bytes = Some(encode_tables(&slots));
        let arena = QArena::from_slots(slots);
        Ok(if sc.algorithm == Algorithm::GlapNoAggregation {
            TableStore::PerPm(arena.export())
        } else {
            TableStore::Shared(Box::new(unified_table(arena.slots())))
        })
    });
    let policy = match policy {
        Ok(policy) => policy,
        Err(e) => return e.map_or(Ok(NodeRunOutcome::default()), Err),
    };
    let start = DayStart::fresh(sc, dc, trace, policy);
    let result = run_day(
        sc,
        start,
        tracer,
        &CheckpointOpts::default(),
        profiler,
        false,
    )?;
    Ok(NodeRunOutcome {
        result,
        tables: table_bytes,
    })
}

//! The traced run: the *same public calls in the same order* as the
//! harness entry points (`run_scenario`, `run_node_scenario`), with a
//! span around each call and the wrappers of [`crate::wrappers`] inside
//! the big ones. Its outputs must equal the entry point's, which the
//! parent checks by digest; the per-layer numbers derive from its spans.

use crate::alloc;
use crate::micro;
use crate::procstat::ProcStat;
use crate::spans::{self, Recorder, Span, PAUSE, ROOT};
use crate::stats::{median, percentile};
use crate::workloads::{Entry, Workload};
use crate::wrappers::{
    StampedDemand, TimedObserver, TimedPolicy, TimedTransport, TransportStats, OBSERVE_SPAN,
};
use glap::{train, unified_table, GlapPolicy, TableStore};
use glap_baselines::bfd_baseline;
use glap_cluster::{DataCenter, DataCenterConfig, DemandSource};
use glap_dcsim::{
    run_simulation_with_net, splitmix64, stream_rng, ConsolidationPolicy, NetworkModel, Stream,
};
use glap_experiments::{
    build_policy, build_world, encode_tables, run_scenario, run_scenario_traced, Algorithm,
    Scenario,
};
use glap_metrics::{MetricsCollector, RunResult};
use glap_node::{ChannelTransport, NodeRuntime, SimTransport, Transport};
use glap_qlearn::QTablePair;
use glap_telemetry::Tracer;
use glap_workload::{GoogleLikeTraceGen, MaterializedTrace, OffsetTrace};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// What an entry point hands back: one result per algorithm, plus the
/// fleet's serialized tables.
pub struct Outputs {
    pub results: Vec<RunResult>,
    pub tables: Option<Vec<u8>>,
}

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

pub struct Traced {
    pub outputs: Outputs,
    pub spans: Vec<Span>,
    pub values: Values,
    /// Output checks that failed, in words.
    pub failures: Vec<String>,
}

/// `noderun.rs` salts the training network's fault stream with this
/// private constant; the composed fleet run must use the same value
/// (the composed-equals-entry-point test pins it).
const TRAIN_NET_SALT: u64 = 0x4e4f4445;

/// What the composed calls learn on the way that spans do not hold.
#[derive(Default)]
struct Seen {
    demand_calls: u64,
    /// First `demand` call of each learning round inside `train`.
    train_round_starts_ns: Vec<u64>,
    /// First `demand` call of each measured round, all days in order.
    day_round_starts_ns: Vec<u64>,
    net_dropped: u64,
    updates: u64,
    pms_trained: usize,
    trained_pairs_per_pm: f64,
    final_diameter: f64,
    kept_tables: Vec<QTablePair>,
    /// Bootstrap dispatches `NodeRuntime::new` made, before any round.
    boot_dispatches: usize,
    playback_round_us: f64,
    snapshot: micro::SnapshotCost,
    failures: Vec<String>,
}

impl Seen {
    /// Reads what it needs from the freshly trained tables (inside a
    /// pause): density, diameter, and a copy of the first few.
    fn tables(&mut self, tables: &[QTablePair]) {
        let pairs: usize = tables.iter().map(QTablePair::trained_pairs).sum();
        self.trained_pairs_per_pm = pairs as f64 / tables.len().max(1) as f64;
        self.final_diameter = micro::diameter(tables);
        self.kept_tables = tables[..tables.len().min(micro::KEPT_TABLES)].to_vec();
    }

    /// Measures on the end-of-day world (inside a pause) and checks
    /// that it still holds every VM.
    fn world(&mut self, sc: &Scenario, dc: &DataCenter, trace: &MaterializedTrace) {
        let placed = dc.vms().filter(|vm| vm.host.is_some()).count();
        if placed != sc.n_vms() {
            self.failures.push(format!(
                "{placed} of {} VMs placed at end of day",
                sc.n_vms()
            ));
        }
        if let Err(e) = dc.check_invariants() {
            self.failures.push(format!("cluster invariants: {e}"));
        }
        self.playback_round_us =
            micro::playback_round_us(trace, sc.glap.learning_rounds as u64, sc.rounds);
        match micro::snapshot(dc) {
            Ok(cost) => self.snapshot = cost,
            Err(e) => self.failures.push(format!("snapshot round trip: {e}")),
        }
    }
}

/// The pieces of `build_world`, in its order, each under its span.
fn build_world_traced(sc: &Scenario, rec: &Recorder) -> (DataCenter, MaterializedTrace) {
    let _s = rec.span("experiments.build_world");
    let dc = {
        let _s = rec.span("cluster.place");
        let mut dc = DataCenter::new(DataCenterConfig::paper(sc.n_pms));
        for i in 0..sc.n_vms() {
            dc.add_vm(sc.vm_mix.spec(i));
        }
        dc.random_placement(&mut stream_rng(sc.world_seed(), Stream::Placement));
        dc
    };
    let _s = rec.span("workload.generate");
    let total_rounds = sc.glap.learning_rounds + sc.rounds as usize;
    let trace = GoogleLikeTraceGen::new(sc.trace_cfg).generate(
        sc.n_vms(),
        total_rounds,
        &mut stream_rng(sc.world_seed(), Stream::Trace),
    );
    (dc, trace)
}

fn cloned_world<'a>(
    dc: &DataCenter,
    trace: &MaterializedTrace,
    rec: &'a Recorder,
) -> (DataCenter, StampedDemand<'a, MaterializedTrace>) {
    let train_dc = {
        let _s = rec.span("cluster.clone");
        dc.clone()
    };
    let train_trace = {
        let _s = rec.span("workload.clone");
        trace.clone()
    };
    (train_dc, StampedDemand::new(train_trace, rec))
}

/// The measured day and result assembly, as both entry points run them.
fn day_traced(
    sc: &Scenario,
    dc: &mut DataCenter,
    trace: &MaterializedTrace,
    policy: Box<dyn ConsolidationPolicy>,
    rec: &Recorder,
    seen: &mut Seen,
) -> RunResult {
    let (init_span, round_span) = if sc.algorithm == Algorithm::Grmp {
        ("baselines.grmp.init", "baselines.grmp.round")
    } else {
        ("core.policy.init", "core.policy.round")
    };
    let mut policy = TimedPolicy::new(policy, rec, init_span, round_span);
    let mut day = StampedDemand::new(OffsetTrace::new(trace, sc.glap.learning_rounds as u64), rec);
    let mut collector = TimedObserver::new(MetricsCollector::new(), rec);
    let mut net = NetworkModel::new(sc.n_pms, sc.fault.clone(), sc.policy_seed());
    {
        let _s = rec.span("dcsim.day");
        run_simulation_with_net(
            dc,
            &mut day,
            &mut policy,
            &mut [&mut collector],
            sc.rounds,
            sc.policy_seed(),
            &mut net,
        );
    }
    seen.demand_calls += day.calls;
    seen.day_round_starts_ns.extend(day.round_starts_ns);
    seen.net_dropped += net.stats.dropped;
    let mut result = {
        let _s = rec.span("metrics.finalize");
        RunResult::from_run(sc.algorithm.label(), collector.inner, dc)
    };
    result.bfd_bins = {
        let _s = rec.span("baselines.bfd");
        bfd_baseline(dc)
    };
    let _s = rec.span("experiments.teardown");
    drop(policy);
    result
}

/// `run_scenario`, composed.
fn scenario_traced(sc: &Scenario, rec: &Recorder, seen: &mut Seen) -> RunResult {
    let _root = rec.span(ROOT);
    let (mut dc, trace) = build_world_traced(sc, rec);
    let policy: Box<dyn ConsolidationPolicy> = if sc.algorithm == Algorithm::Glap {
        let cfg = sc.glap;
        let (mut train_dc, mut demand) = cloned_world(&dc, &trace, rec);
        let (tables, report) = {
            let _s = rec.span("core.train");
            train(&mut train_dc, &mut demand, &cfg, sc.policy_seed(), false)
        };
        let unified = {
            let _s = rec.span("core.unify");
            unified_table(&tables)
        };
        {
            let _p = rec.span(PAUSE);
            seen.tables(&tables);
            seen.updates = report.updates;
            seen.pms_trained = report.pms_trained;
            seen.demand_calls += demand.calls;
            seen.train_round_starts_ns = std::mem::take(&mut demand.round_starts_ns);
        }
        {
            let _s = rec.span("experiments.teardown");
            drop((tables, train_dc, demand));
        }
        Box::new(GlapPolicy::new(cfg, TableStore::Shared(Box::new(unified))))
    } else {
        build_policy(sc, &dc, &trace)
    };
    let result = day_traced(sc, &mut dc, &trace, policy, rec, seen);
    if rec.run() == 0 {
        let _p = rec.span(PAUSE);
        seen.world(sc, &dc, &trace);
    }
    let _s = rec.span("experiments.teardown");
    drop((dc, trace));
    result
}

/// The training loop of `run_node_scenario`, a span per round.
fn train_fleet<T: Transport, D: DemandSource>(
    rt: &mut NodeRuntime<T>,
    sc: &Scenario,
    dc: &mut DataCenter,
    demand: &mut D,
    rec: &Recorder,
) {
    let tracer = &Tracer::off();
    for _ in 0..sc.glap.learning_rounds {
        let _s = rec.span("node.learn_round");
        rt.learning_round(dc, demand, tracer);
    }
    for _ in 0..sc.glap.aggregation_rounds {
        let _s = rec.span("node.agg_round");
        rt.aggregation_round(tracer);
    }
}

fn train_net(sc: &Scenario) -> NetworkModel {
    NetworkModel::new(
        sc.n_pms,
        sc.fault.clone(),
        splitmix64(sc.policy_seed() ^ TRAIN_NET_SALT),
    )
}

/// `run_node_scenario` over `TransportKind::Sim`, composed.
fn fleet_traced(
    sc: &Scenario,
    rec: &Recorder,
    seen: &mut Seen,
    stats: &RefCell<TransportStats>,
) -> (RunResult, Vec<u8>) {
    let _root = rec.span(ROOT);
    let (mut dc, trace) = build_world_traced(sc, rec);
    let cfg = sc.glap;
    let seed = sc.policy_seed();
    let (mut train_dc, mut demand) = cloned_world(&dc, &trace, rec);
    let mut rt = {
        let _s = rec.span("node.new");
        let transport = TimedTransport::new(SimTransport::new(sc.n_pms, &cfg, seed), stats);
        NodeRuntime::new(transport, &cfg, train_net(sc), seed, &train_dc)
    };
    seen.boot_dispatches = stats.borrow().dispatch_ns.len();
    train_fleet(&mut rt, sc, &mut train_dc, &mut demand, rec);
    let tables = {
        let _s = rec.span("node.into_tables");
        rt.into_tables()
    };
    let table_bytes = {
        let _s = rec.span("experiments.encode_tables");
        encode_tables(&tables)
    };
    let unified = {
        let _s = rec.span("core.unify");
        unified_table(&tables)
    };
    {
        let _p = rec.span(PAUSE);
        seen.tables(&tables);
        seen.demand_calls += demand.calls;
    }
    {
        let _s = rec.span("experiments.teardown");
        drop((tables, train_dc, demand));
    }
    let policy = Box::new(GlapPolicy::new(cfg, TableStore::Shared(Box::new(unified))));
    let result = day_traced(sc, &mut dc, &trace, policy, rec, seen);
    {
        let _p = rec.span(PAUSE);
        seen.world(sc, &dc, &trace);
    }
    let _s = rec.span("experiments.teardown");
    drop((dc, trace));
    (result, table_bytes)
}

/// The mpsc `ChannelTransport` against `SimTransport` on a short
/// training (20 + 10 rounds) of the same fleet. Not an end-to-end
/// workload — its wall time does not repeat — but its counts do, and
/// its tables must equal the in-process ones.
fn channel_probe(sc: &Scenario, values: &mut Values, failures: &mut Vec<String>) {
    let mut sc = sc.clone();
    sc.glap.learning_rounds = sc.glap.learning_rounds.min(20);
    sc.glap.aggregation_rounds = sc.glap.aggregation_rounds.min(10);
    let (cfg, seed) = (sc.glap, sc.policy_seed());
    let (dc, trace) = build_world(&sc);
    let rec = Recorder::new();

    fn run<T: Transport>(
        transport: T,
        sc: &Scenario,
        dc: &DataCenter,
        trace: &MaterializedTrace,
        rec: &Recorder,
    ) -> (f64, TransportStats, Vec<u8>) {
        let stats = RefCell::new(TransportStats::default());
        let (mut dc, mut trace) = (dc.clone(), trace.clone());
        let t = Instant::now();
        let transport = TimedTransport::new(transport, &stats);
        let mut rt = NodeRuntime::new(transport, &sc.glap, train_net(sc), sc.policy_seed(), &dc);
        train_fleet(&mut rt, sc, &mut dc, &mut trace, rec);
        let tables = rt.into_tables();
        let wall = t.elapsed().as_secs_f64();
        (wall, stats.into_inner(), encode_tables(&tables))
    }

    let (sim_wall, _, sim_tables) = run(
        SimTransport::new(sc.n_pms, &cfg, seed),
        &sc,
        &dc,
        &trace,
        &rec,
    );
    let workers =
        std::thread::available_parallelism().map_or(1, |n| n.get().saturating_sub(1).max(1));
    let before = ProcStat::read();
    let (chan_wall, chan, chan_tables) = run(
        ChannelTransport::new(sc.n_pms, &cfg, seed, Some(workers)),
        &sc,
        &dc,
        &trace,
        &rec,
    );
    let used = ProcStat::read().since(&before);
    if sim_tables != chan_tables {
        failures.push("ChannelTransport tables differ from SimTransport tables".into());
    }
    let us: Vec<f64> = chan
        .dispatch_ns
        .iter()
        .map(|&ns| f64::from(ns) / 1e3)
        .collect();
    values.insert("node.channel.round_trips", us.len() as f64);
    insert_quantiles(
        values,
        "node.channel.dispatch_us_p50",
        ("node.channel.dispatch_us_p95", 0.95),
        &us,
    );
    values.insert("node.channel.wall_ratio", chan_wall / sim_wall);
    values.insert("node.channel.sys_s", used.sys_s);
}

/// Counts the allocator calls of one more, untraced call of the entry
/// point. A pass of its own: counting costs two atomic adds per call,
/// contended between the workers, and slowed the timed spans by up to a
/// tenth when it shared their pass.
fn count_allocations(
    w: &Workload,
    seed: u64,
    smoke: bool,
    traced: &Outputs,
    values: &mut Values,
    failures: &mut Vec<String>,
) {
    alloc::set_counting(true);
    let recount = crate::child::entry_point(w, seed, smoke);
    alloc::set_counting(false);
    let (calls, bytes) = alloc::counted();
    values.insert(
        "process.allocs_per_pm_round",
        calls as f64 / w.pm_rounds(smoke),
    );
    values.insert("process.alloc_mb", bytes as f64 / 1e6);
    match recount {
        Ok(outputs) if crate::child::digest(&outputs) == crate::child::digest(traced) => {}
        Ok(_) => failures.push("the composed run's outputs differ from the entry point's".into()),
        Err(e) => failures.push(e),
    }
}

/// Prices `Tracer::counting()` on the sim path, where it swaps in the
/// two-pass training engine and samples convergence every round: the
/// wall of `run_scenario_traced` over that of `run_scenario`, back to
/// back in this process. On the workload's *smoke* size — at full size
/// the counting run alone outlasts a driver run (see README).
fn counting_probe(w: &Workload, seed: u64, values: &mut Values, failures: &mut Vec<String>) {
    let sc = w.scenario(w.algorithms[0], seed, true);
    let t = Instant::now();
    let plain = run_scenario(&sc);
    let plain_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (counted, _) = run_scenario_traced(&sc, &Tracer::counting());
    values.insert(
        "telemetry.counting_wall_ratio",
        t.elapsed().as_secs_f64() / plain_s,
    );
    let digest = |result: RunResult| {
        crate::child::digest(&Outputs {
            results: vec![result],
            tables: None,
        })
    };
    if digest(plain) != digest(counted) {
        failures.push("Tracer::counting() changed the run's outputs".into());
    }
}

/// One clock reading (`pick`) of every span called `name`, in start order.
fn stamps(spans: &[Span], name: &str, pick: fn(&Span) -> u64) -> Vec<u64> {
    spans.iter().filter(|s| s.name == name).map(pick).collect()
}

/// Pairwise `later − earlier` in microseconds.
fn gaps_us(earlier: &[u64], later: &[u64]) -> Vec<f64> {
    earlier
        .iter()
        .zip(later)
        .map(|(a, b)| b.saturating_sub(*a) as f64 / 1e3)
        .collect()
}

fn scaled(xs: &[f64], k: f64) -> Vec<f64> {
    xs.iter().map(|x| x * k).collect()
}

/// Inserts the median of `xs` as `p50` and its `q`-quantile as `high`.
fn insert_quantiles(v: &mut Values, p50: &'static str, (high, q): (&'static str, f64), xs: &[f64]) {
    v.insert(p50, median(xs));
    v.insert(high, percentile(xs, q));
}

/// What every workload passes through: world building, training on the
/// sim path, the measured day, result assembly, teardown.
fn sim_values(v: &mut Values, sc: &Scenario, spans: &[Span], seen: &Seen, outputs: &Outputs) {
    let total = |name: &str| spans::total(spans, name);
    let us = |name: &str| scaled(&spans::durations(spans, name), 1e6);

    v.insert("workload.generate_s", total("workload.generate"));
    v.insert("workload.clone_s", total("workload.clone"));
    let cells = (sc.n_vms() * (sc.glap.learning_rounds + sc.rounds as usize)) as f64;
    let cell_bytes = std::mem::size_of::<glap_cluster::Resources>() as f64;
    v.insert("workload.trace_mb", cells * cell_bytes / 1e6);
    v.insert("workload.demand_calls", seen.demand_calls as f64);
    v.insert("workload.playback_round_us", seen.playback_round_us);
    v.insert("cluster.place_s", total("cluster.place"));
    v.insert("cluster.clone_s", total("cluster.clone"));
    let mut policy_round_starts = stamps(spans, "core.policy.round", |s| s.start_ns);
    policy_round_starts.extend(stamps(spans, "baselines.grmp.round", |s| s.start_ns));
    policy_round_starts.sort_unstable();
    let step_us = gaps_us(&seen.day_round_starts_ns, &policy_round_starts);
    v.insert("cluster.step_us", median(&step_us));
    let migrations: u64 = outputs
        .results
        .iter()
        .map(|r| r.collector.total_migrations())
        .sum();
    v.insert("cluster.migrations", migrations as f64);
    let active_final = outputs
        .results
        .last()
        .and_then(|r| r.collector.samples.last())
        .map_or(0, |s| s.active_pms);
    v.insert("cluster.active_pms_final", active_final as f64);

    let table = QTablePair::default();
    let dense_bytes = 2
        * (std::mem::size_of_val(table.out.raw_values())
            + std::mem::size_of_val(table.out.raw_visited()));
    v.insert("qlearn.dense_kb_per_pm", dense_bytes as f64 / 1e3);
    v.insert("qlearn.trained_pairs_per_pm", seen.trained_pairs_per_pm);
    v.insert("core.final_diameter", seen.final_diameter);
    v.insert("core.unify_s", total("core.unify"));
    if let Some(train_span) = spans.iter().find(|s| s.name == "core.train") {
        let rounds = &seen.train_round_starts_ns;
        let first = rounds.first().copied().unwrap_or(train_span.end_ns);
        let last = rounds.last().copied().unwrap_or(train_span.end_ns);
        // The last learning round is fused with the first aggregation
        // round, so it belongs to the tail, not to the round samples.
        let learn_ms = scaled(&gaps_us(rounds, rounds.get(1..).unwrap_or(&[])), 1e-3);
        v.insert("core.train_s", train_span.secs());
        v.insert(
            "core.train.head_s",
            (first - train_span.start_ns) as f64 / 1e9,
        );
        insert_quantiles(
            v,
            "core.train.learn_round_ms_p50",
            ("core.train.learn_round_ms_p90", 0.9),
            &learn_ms,
        );
        v.insert("core.train.tail_s", (train_span.end_ns - last) as f64 / 1e9);
        v.insert("core.train.updates", seen.updates as f64);
        v.insert(
            "core.train.updates_per_s",
            seen.updates as f64 / train_span.secs(),
        );
        v.insert("core.train.pms_trained", seen.pms_trained as f64);
    }

    let glap_policy = total("core.policy.init") + total("core.policy.round");
    let grmp_policy = total("baselines.grmp.init") + total("baselines.grmp.round");
    v.insert("core.policy.init_s", total("core.policy.init"));
    insert_quantiles(
        v,
        "core.policy.round_us_p50",
        ("core.policy.round_us_p95", 0.95),
        &us("core.policy.round"),
    );
    v.insert("core.policy.total_s", glap_policy);
    let round_ends = stamps(spans, OBSERVE_SPAN, |s| s.end_ns);
    v.insert("dcsim.day_s", total("dcsim.day"));
    insert_quantiles(
        v,
        "dcsim.round_us_p50",
        ("dcsim.round_us_p95", 0.95),
        &gaps_us(&seen.day_round_starts_ns, &round_ends),
    );
    v.insert(
        "dcsim.engine_self_s",
        total("dcsim.day") - glap_policy - grmp_policy - total(OBSERVE_SPAN),
    );
    v.insert("dcsim.net.dropped", seen.net_dropped as f64);
    v.insert(
        "baselines.grmp.round_us_p50",
        median(&us("baselines.grmp.round")),
    );
    v.insert("baselines.grmp.total_s", grmp_policy);
    v.insert("baselines.bfd_s", total("baselines.bfd"));
    v.insert("metrics.collect_s", total(OBSERVE_SPAN));
    v.insert("metrics.finalize_s", total("metrics.finalize"));

    v.insert("snapshot.encode_ms", seen.snapshot.encode_ms);
    v.insert("snapshot.bytes", seen.snapshot.bytes);
    v.insert(
        "snapshot.decode_restore_ms",
        seen.snapshot.decode_restore_ms,
    );
    v.insert(
        "experiments.build_world_s",
        total("experiments.build_world"),
    );
    v.insert("experiments.teardown_s", total("experiments.teardown"));
    v.insert(
        "experiments.run.unattributed_s",
        spans::unattributed_secs(spans),
    );
    v.insert("traced_wall_s", spans::run_wall_secs(spans));
}

/// The node layer of a fleet's training and what it put on the wire.
fn fleet_values(
    v: &mut Values,
    sc: &Scenario,
    spans: &[Span],
    seen: &Seen,
    stats: &TransportStats,
) {
    let total = |name: &str| spans::total(spans, name);
    let ms = |name: &str| scaled(&spans::durations(spans, name), 1e3);
    let dispatch_us: Vec<f64> = stats
        .dispatch_ns
        .iter()
        .map(|&ns| f64::from(ns) / 1e3)
        .collect();
    let dispatch_total = dispatch_us.iter().sum::<f64>() / 1e6;
    // Bootstrap dispatches happen in `node.new`, outside the rounds.
    let boot = dispatch_us[..seen.boot_dispatches].iter().sum::<f64>() / 1e6;
    let train_all = stats.train_all_ns as f64 / 1e9;
    let rounds = total("node.learn_round") + total("node.agg_round");
    let training_rounds = (sc.glap.learning_rounds + sc.glap.aggregation_rounds) as f64;
    v.insert("node.new_s", total("node.new"));
    insert_quantiles(
        v,
        "node.learn_round_ms_p50",
        ("node.learn_round_ms_p90", 0.9),
        &ms("node.learn_round"),
    );
    insert_quantiles(
        v,
        "node.agg_round_ms_p50",
        ("node.agg_round_ms_p90", 0.9),
        &ms("node.agg_round"),
    );
    v.insert("node.dispatches", dispatch_us.len() as f64);
    insert_quantiles(
        v,
        "node.dispatch_us_p50",
        ("node.dispatch_us_p95", 0.95),
        &dispatch_us,
    );
    v.insert("node.dispatch_total_s", dispatch_total);
    v.insert("node.train_all_s", train_all);
    v.insert(
        "node.driver_self_s",
        rounds - (dispatch_total - boot) - train_all,
    );
    v.insert("node.wire_msgs", stats.wire_msgs as f64);
    v.insert("node.wire_bytes", stats.wire_bytes as f64);
    v.insert(
        "node.wire_kb_per_node_round",
        stats.wire_bytes as f64 / 1e3 / (sc.n_pms as f64 * training_rounds),
    );
    v.insert("node.merge_retried", stats.merge_retried as f64);
    v.insert("node.into_tables_s", total("node.into_tables"));
    v.insert(
        "experiments.encode_tables_s",
        total("experiments.encode_tables"),
    );
    v.insert("codec.payloads", stats.codec_payloads as f64);
    v.insert("codec.full_payloads", stats.codec_full_payloads as f64);
    v.insert("codec.bytes_saved", stats.codec_bytes_saved as f64);
    v.insert("codec.fallbacks", stats.codec_fallbacks as f64);
    v.insert("codec.decode_errors", stats.codec_decode_errors as f64);
}

/// Runs workload `w` at `seed` traced and derives every per-layer
/// value this process can measure (the parent adds the ratios that
/// need an untraced run).
pub fn run_traced(w: &Workload, seed: u64, smoke: bool) -> Traced {
    let rec = Recorder::new();
    let mut seen = Seen::default();
    let stats = RefCell::new(TransportStats::default());
    let scenarios = w.scenarios(seed, smoke);

    let outputs = match w.entry {
        Entry::Sim => Outputs {
            results: scenarios
                .iter()
                .enumerate()
                .map(|(run, sc)| {
                    rec.set_run(run as u32);
                    scenario_traced(sc, &rec, &mut seen)
                })
                .collect(),
            tables: None,
        },
        Entry::Fleet => {
            let (result, tables) = fleet_traced(&scenarios[0], &rec, &mut seen, &stats);
            Outputs {
                results: vec![result],
                tables: Some(tables),
            }
        }
    };
    let spans = rec.into_spans();
    let stats = stats.into_inner();
    let sc = &scenarios[0];
    let mut failures = std::mem::take(&mut seen.failures);
    if let Err(e) = spans::check_tree(&spans) {
        failures.push(format!("span tree: {e}"));
    }

    let mut v = Values::new();
    sim_values(&mut v, sc, &spans, &seen, &outputs);
    let mut kept = std::mem::take(&mut seen.kept_tables);
    if w.entry == Entry::Fleet {
        fleet_values(&mut v, sc, &spans, &seen, &stats);
        match micro::codec(w.codec, &mut kept.clone()) {
            Ok(cost) => {
                v.insert("codec.encode_us_p50", cost.encode_us);
                v.insert("codec.exchange_us_p50", cost.exchange_us);
                v.insert("codec.payload_bytes_mean", cost.payload_bytes);
            }
            Err(e) => failures.push(format!("codec exchange on trained tables: {e}")),
        }
    } else {
        let (bootstrap_s, round_us) =
            micro::cyclon(sc.n_pms, sc.glap.cyclon_cache, sc.glap.cyclon_shuffle, seed);
        v.insert("cyclon.bootstrap_s", bootstrap_s);
        v.insert("cyclon.round_us", round_us);
    }
    v.insert("qlearn.merge_pair_us", micro::merge_pair_us(&mut kept));
    drop(kept);
    if w.channel_probe {
        channel_probe(sc, &mut v, &mut failures);
    }
    if w.counting_probe {
        counting_probe(w, seed, &mut v, &mut failures);
    }
    count_allocations(w, seed, smoke, &outputs, &mut v, &mut failures);

    Traced {
        outputs,
        spans,
        values: v,
        failures,
    }
}

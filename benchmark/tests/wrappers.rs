//! Each wrapper forwards every call unchanged: the wrapped call yields
//! byte-identical results to the unwrapped one.

use glap::{train, GlapConfig};
use glap_baselines::{GrmpConfig, GrmpPolicy};
use glap_benchmark::spans::Recorder;
use glap_benchmark::wrappers::{
    StampedDemand, TimedObserver, TimedPolicy, TimedTransport, TransportStats,
};
use glap_cluster::DataCenter;
use glap_codec::CodecKind;
use glap_dcsim::{run_simulation, FaultProfile, NetworkModel};
use glap_experiments::{build_world, encode_tables, rounds_csv, Algorithm, Scenario};
use glap_metrics::{MetricsCollector, RunResult};
use glap_node::{NodeRuntime, SimTransport, Transport};
use glap_telemetry::Tracer;
use glap_workload::{MaterializedTrace, OffsetTrace};
use std::cell::RefCell;

fn toy() -> Scenario {
    let mut sc = Scenario::paper(40, 3, 7, Algorithm::Glap);
    sc.rounds = 30;
    sc.glap = GlapConfig {
        learning_rounds: 12,
        aggregation_rounds: 6,
        ..GlapConfig::default()
    };
    sc
}

fn world() -> (Scenario, DataCenter, MaterializedTrace) {
    let sc = toy();
    let (dc, trace) = build_world(&sc);
    (sc, dc, trace)
}

#[test]
fn stamped_demand_trains_the_same_tables() {
    let (sc, dc, trace) = world();
    let plain = {
        let (mut dc, mut trace) = (dc.clone(), trace.clone());
        train(&mut dc, &mut trace, &sc.glap, sc.policy_seed(), false)
    };
    let rec = Recorder::new();
    let mut demand = StampedDemand::new(trace.clone(), &rec);
    let wrapped = {
        let mut dc = dc.clone();
        train(&mut dc, &mut demand, &sc.glap, sc.policy_seed(), false)
    };
    assert_eq!(encode_tables(&plain.0), encode_tables(&wrapped.0));
    assert_eq!(plain.1.updates, wrapped.1.updates);
    // One stamp per learning round, one call per placed VM per round.
    assert_eq!(demand.round_starts_ns.len(), sc.glap.learning_rounds);
    assert_eq!(demand.calls, (sc.n_vms() * sc.glap.learning_rounds) as u64);
    assert!(demand.round_starts_ns.windows(2).all(|w| w[0] <= w[1]));
}

/// One GRMP day over `dc`, with or without the three day wrappers.
fn day(
    sc: &Scenario,
    dc: &DataCenter,
    trace: &MaterializedTrace,
    wrap: Option<&Recorder>,
) -> String {
    let mut dc = dc.clone();
    let offset = sc.glap.learning_rounds as u64;
    let policy = Box::new(GrmpPolicy::new(GrmpConfig::default()));
    let collector = match wrap {
        None => {
            let mut day = OffsetTrace::new(trace, offset);
            let mut policy = policy;
            let mut collector = MetricsCollector::new();
            run_simulation(
                &mut dc,
                &mut day,
                policy.as_mut(),
                &mut [&mut collector],
                sc.rounds,
                sc.policy_seed(),
            );
            collector
        }
        Some(rec) => {
            let mut day = StampedDemand::new(OffsetTrace::new(trace, offset), rec);
            let mut policy = TimedPolicy::new(policy, rec, "p.init", "p.round");
            let mut collector = TimedObserver::new(MetricsCollector::new(), rec);
            run_simulation(
                &mut dc,
                &mut day,
                &mut policy,
                &mut [&mut collector],
                sc.rounds,
                sc.policy_seed(),
            );
            assert_eq!(day.round_starts_ns.len() as u64, sc.rounds);
            collector.inner
        }
    };
    rounds_csv(&RunResult::from_run("GRMP", collector, &dc))
}

#[test]
fn day_wrappers_leave_the_day_unchanged_and_see_every_round() {
    let (sc, dc, trace) = world();
    let rec = Recorder::new();
    assert_eq!(
        day(&sc, &dc, &trace, None),
        day(&sc, &dc, &trace, Some(&rec))
    );
    let spans = rec.into_spans();
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as u64;
    assert_eq!(count("p.init"), 1);
    assert_eq!(count("p.round"), sc.rounds);
    assert_eq!(count(glap_benchmark::wrappers::OBSERVE_SPAN), sc.rounds);
}

fn fleet<T: Transport>(
    transport: T,
    sc: &Scenario,
    dc: &DataCenter,
    trace: &MaterializedTrace,
    tracer: &Tracer,
) -> Vec<u8> {
    let (mut dc, mut trace) = (dc.clone(), trace.clone());
    let net = NetworkModel::new(sc.n_pms, sc.fault.clone(), 99);
    let mut rt = NodeRuntime::new(transport, &sc.glap, net, sc.policy_seed(), &dc);
    for _ in 0..sc.glap.learning_rounds {
        rt.learning_round(&mut dc, &mut trace, tracer);
    }
    for _ in 0..sc.glap.aggregation_rounds {
        rt.aggregation_round(tracer);
    }
    encode_tables(&rt.into_tables())
}

#[test]
fn timed_transport_trains_the_same_fleet_and_counts_its_traffic() {
    let (sc, dc, trace) = world();
    let sim = || SimTransport::new(sc.n_pms, &sc.glap, sc.policy_seed());
    let stats = RefCell::new(TransportStats::default());
    let off = Tracer::off();
    let plain = fleet(sim(), &sc, &dc, &trace, &off);
    let wrapped = fleet(TimedTransport::new(sim(), &stats), &sc, &dc, &trace, &off);
    assert_eq!(plain, wrapped);
    let stats = stats.into_inner();
    assert!(stats.dispatch_ns.len() as u64 > stats.wire_msgs);
    // Every aggregation exchange ships two dense tables of > 100 KB.
    assert!(stats.wire_bytes > 100_000 * stats.wire_msgs / 10);
    assert!(stats.train_all_ns > 0);
    assert_eq!(stats.merge_retried, 0, "ideal network, nothing bounces");
    assert_eq!(
        stats.codec_payloads, 0,
        "identity tables take the legacy path"
    );
}

#[test]
fn timed_transport_accounts_traffic_as_the_runtime_does() {
    let (mut sc, dc, trace) = world();
    sc.glap.codec = CodecKind::Delta;
    sc.fault = FaultProfile::faulty(0.05, 0.01, 0.3);
    let stats = RefCell::new(TransportStats::default());
    let tracer = Tracer::counting();
    let sim = SimTransport::new(sc.n_pms, &sc.glap, sc.policy_seed());
    fleet(TimedTransport::new(sim, &stats), &sc, &dc, &trace, &tracer);
    let stats = stats.into_inner();
    let counter = |name: &str| tracer.counter_total(name);
    assert!(stats.codec_payloads > 0 && stats.merge_retried > 0);
    assert_eq!(stats.wire_msgs, counter("net.msgs"));
    assert_eq!(stats.wire_bytes, counter("net.bytes_tx"));
    assert_eq!(stats.merge_retried, counter("ev.merge_retried"));
    assert_eq!(stats.codec_payloads, counter("codec.payloads"));
    assert_eq!(stats.codec_full_payloads, counter("codec.full_payloads"));
    assert_eq!(stats.codec_fallbacks, counter("codec.fallbacks"));
    assert_eq!(stats.codec_bytes_saved, counter("codec.bytes_saved"));
    assert_eq!(stats.codec_decode_errors, counter("codec.decode_errors"));
}

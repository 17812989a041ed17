//! Telemetry contracts: tracing must be a pure observer. An attached
//! JSONL sink may not perturb a simulation by a single byte, the trace it
//! writes must be schema-valid end-to-end (strict round-trip via the
//! replay digest), and the convergence monitor must certify Theorem 1's
//! non-increasing-diameter claim on a real training run.

use glap::{train_instrumented, GlapConfig};
use glap_dcsim::{FaultProfile, LinkLatency};
use glap_experiments::{
    build_world, replay_digest, run_scenario, run_scenario_traced, Algorithm, Scenario,
};
use glap_profile::Profiler;
use glap_telemetry::{JsonlSink, Phase, SharedBuf, Tracer};

fn scenario(algorithm: Algorithm) -> Scenario {
    Scenario {
        n_pms: 40,
        ratio: 2,
        rep: 3,
        algorithm,
        rounds: 120,
        glap: GlapConfig {
            learning_rounds: 20,
            aggregation_rounds: 10,
            ..Default::default()
        },
        trace_cfg: Default::default(),
        vm_mix: Default::default(),
        fault: Default::default(),
    }
}

/// A profile that exercises every fault path: drops, timeouts (one-way
/// latency 100-400 ms against a 450 ms round-trip budget), and
/// stochastic crash/recovery.
fn nasty_faults() -> FaultProfile {
    FaultProfile {
        drop_prob: 0.2,
        latency: LinkLatency {
            min_ms: 100,
            max_ms: 400,
        },
        timeout_ms: 450,
        crash_rate: 0.01,
        recovery_rate: 0.3,
        crash_schedule: vec![],
        recovery_schedule: vec![],
    }
}

#[test]
fn jsonl_sink_does_not_change_simulation_results() {
    // The satellite determinism contract: attaching a live JSONL sink
    // (events constructed, serialized, and written every round) yields
    // byte-identical results to the untraced run — for every algorithm,
    // with and without fault injection.
    for faulty in [false, true] {
        for algorithm in Algorithm::PAPER_SET {
            let mut sc = scenario(algorithm);
            if faulty {
                sc.fault = FaultProfile::faulty(0.2, 0.01, 0.3);
            }
            let plain = run_scenario(&sc);

            let buf = SharedBuf::new();
            let tracer = Tracer::new(Box::new(JsonlSink::new(Box::new(buf.clone()))));
            let (traced, _) = run_scenario_traced(&sc, &tracer);
            tracer.flush();

            assert_eq!(
                plain.collector.samples,
                traced.collector.samples,
                "{} (faulty={faulty}): tracing changed the simulation",
                algorithm.label()
            );
            assert_eq!(plain.sla, traced.sla, "{}", algorithm.label());
            assert_eq!(plain.wake_ups, traced.wake_ups, "{}", algorithm.label());
            // And the sink actually saw the run.
            assert!(
                tracer.events_emitted() > 0,
                "{}: no events emitted",
                algorithm.label()
            );
            assert_eq!(
                buf.contents().lines().count() as u64,
                tracer.events_emitted()
            );
        }
    }
}

#[test]
fn fault_injected_trace_is_schema_valid_and_complete() {
    // A GLAP run under heavy faults must produce a trace in which every
    // line survives the strict schema round-trip, and which contains the
    // full fault vocabulary: drops, timeouts, vetoes, and crashes.
    let mut sc = scenario(Algorithm::Glap);
    sc.fault = nasty_faults();

    let buf = SharedBuf::new();
    let tracer = Tracer::new(Box::new(JsonlSink::new(Box::new(buf.clone()))));
    let (_result, monitor) = run_scenario_traced(&sc, &tracer);
    tracer.flush();

    let text = buf.contents();
    let digest = replay_digest(text.as_bytes())
        .unwrap_or_else(|e| panic!("trace failed schema validation: {e}"));
    assert_eq!(digest.events as u64, tracer.events_emitted());

    let timed_out: usize = digest.rounds.iter().map(|(_, d)| d.timed_out).sum();
    let crashes: usize = digest.rounds.iter().map(|(_, d)| d.crashes).sum();
    assert!(digest.total_dropped() > 0, "no msg_dropped events");
    assert!(timed_out > 0, "no msg_timed_out events");
    assert!(digest.total_vetoes() > 0, "no migration_vetoed events");
    assert!(crashes > 0, "no pm_crashed events");

    // The digest and the counter registry agree on the fault tallies.
    assert_eq!(
        tracer.counter_total("ev.msg_dropped"),
        digest.total_dropped() as u64
    );
    assert_eq!(tracer.counter_total("ev.msg_timed_out"), timed_out as u64);

    // The GLAP variant also carried a convergence monitor.
    let monitor = monitor.expect("GLAP run with tracer on returns a monitor");
    assert!(!monitor.samples.is_empty());
}

#[test]
fn aggregation_diameter_is_monotone() {
    // Theorem 1, machine-checked: during the aggregation phase each
    // merge replaces a pair of Q-entries with values inside the pair's
    // interval, so the population diameter can never increase.
    let sc = scenario(Algorithm::Glap);
    let (mut dc, mut trace) = build_world(&sc);
    let tracer = Tracer::counting();
    let (_tables, _report, monitor) = train_instrumented(
        &mut dc,
        &mut trace,
        &sc.glap,
        sc.policy_seed(),
        false,
        &tracer,
        None,
        &Profiler::off(),
    );

    let agg = monitor.diameters(Phase::Aggregation);
    assert_eq!(agg.len(), sc.glap.aggregation_rounds);
    assert!(
        monitor.diameter_is_nonincreasing(Phase::Aggregation),
        "aggregation diameter increased: {agg:?}"
    );
    // Learning was sampled too, and aggregation actually tightened the
    // population (the series is not all-zero).
    assert_eq!(
        monitor.diameters(Phase::Learning).len(),
        sc.glap.learning_rounds
    );
    assert!(agg[0] > 0.0, "population already collapsed before merging");
    assert!(agg[agg.len() - 1] < agg[0], "aggregation never tightened");
}

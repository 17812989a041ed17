//! The profiler's hard invariant: profiling is *observational*. Turning
//! it on must never change a single byte of a run's results — not the
//! per-round metrics, not the telemetry counters, not the serialized
//! Q-tables — at any worker-thread count, with or without fault
//! injection, on both the simulation path and the node-runtime path.
//! The span tree it produces must also be well-formed (no spans left
//! open, children nested within their parents' wall time, ordered
//! percentiles) and its JSON artifact must round-trip losslessly.

use glap::GlapConfig;
use glap_dcsim::FaultProfile;
use glap_experiments::{
    rounds_csv, run_node_scenario, run_node_scenario_instrumented, run_scenario_instrumented,
    run_scenario_traced, Algorithm, CheckpointOpts, Scenario, TransportKind,
};
use glap_profile::{ProfileReport, Profiler};
use glap_snapshot::Writer;
use glap_telemetry::Tracer;

fn scenario(fault: FaultProfile) -> Scenario {
    Scenario {
        n_pms: 24,
        ratio: 2,
        rep: 0,
        algorithm: Algorithm::Glap,
        rounds: 40,
        glap: GlapConfig {
            learning_rounds: 10,
            aggregation_rounds: 6,
            ..GlapConfig::default()
        },
        trace_cfg: Default::default(),
        vm_mix: Default::default(),
        fault,
    }
}

fn faulty() -> FaultProfile {
    FaultProfile::faulty(0.1, 0.02, 0.5)
}

/// Everything comparable about a sim-path run: the per-round metrics
/// CSV, the counter digest, and the tracer's serialized state bytes.
fn sim_digest(sc: &Scenario, profiler: &Profiler) -> (String, String, Vec<u8>) {
    let tracer = Tracer::counting();
    let (result, _) =
        run_scenario_instrumented(sc, &tracer, &CheckpointOpts::default(), profiler, false)
            .expect("no checkpoint I/O configured");
    let r = result.expect("runs to completion");
    let mut w = Writer::new();
    tracer.save_state(&mut w);
    (rounds_csv(&r), tracer.counters_csv(), w.into_bytes())
}

#[test]
fn profiling_never_changes_sim_results() {
    for faulty_run in [false, true] {
        let sc = scenario(if faulty_run {
            faulty()
        } else {
            FaultProfile::default()
        });
        let reference = sim_digest(&sc, &Profiler::off());
        for threads in [1usize, 4] {
            glap_par::set_default_threads(threads);
            let off = sim_digest(&sc, &Profiler::off());
            let on = sim_digest(&sc, &Profiler::enabled());
            glap_par::set_default_threads(0);
            assert_eq!(
                reference, off,
                "faulty={faulty_run}, {threads} threads: unprofiled run not thread-invariant"
            );
            assert_eq!(
                reference.0, on.0,
                "faulty={faulty_run}, {threads} threads: profiling changed the rounds CSV"
            );
            assert_eq!(
                reference.1, on.1,
                "faulty={faulty_run}, {threads} threads: profiling changed the counters"
            );
            assert_eq!(
                reference.2, on.2,
                "faulty={faulty_run}, {threads} threads: profiling changed tracer state bytes"
            );
        }
    }
}

/// The run the benchmark times (`run_scenario_traced`), the run
/// `--profile` / `--progress` / checkpoints observe
/// (`run_scenario_instrumented`) and, for algorithms that train nothing,
/// the node runtime's day (`run_node_scenario` over the sim transport)
/// are one measured day: same rounds CSV, counters and tracer state
/// bytes, on an ideal net and on a faulty one.
#[test]
fn entry_points_run_one_measured_day() {
    let traced_digest = |sc: &Scenario| {
        let tracer = Tracer::counting();
        let (r, _) = run_scenario_traced(sc, &tracer);
        let mut w = Writer::new();
        tracer.save_state(&mut w);
        (rounds_csv(&r), tracer.counters_csv(), w.into_bytes())
    };
    let node_digest = |sc: &Scenario| {
        let tracer = Tracer::counting();
        let out = run_node_scenario(
            sc,
            TransportKind::Sim,
            None,
            &tracer,
            &CheckpointOpts::default(),
        )
        .expect("no checkpoint I/O configured");
        let r = out.result.expect("runs to completion");
        let mut w = Writer::new();
        tracer.save_state(&mut w);
        (rounds_csv(&r), tracer.counters_csv(), w.into_bytes())
    };
    for fault in [
        FaultProfile::default(),
        FaultProfile::faulty(0.05, 0.01, 0.3),
    ] {
        let faulty_run = fault != FaultProfile::default();
        for algorithm in [Algorithm::Glap, Algorithm::Grmp] {
            let sc = Scenario {
                algorithm,
                ..scenario(fault.clone())
            };
            assert_eq!(
                traced_digest(&sc),
                sim_digest(&sc, &Profiler::off()),
                "{} faulty={faulty_run}: traced and instrumented days differ",
                algorithm.label()
            );
        }
        for algorithm in [Algorithm::Grmp, Algorithm::Pabfd] {
            let sc = Scenario {
                algorithm,
                ..scenario(fault.clone())
            };
            assert_eq!(
                traced_digest(&sc),
                node_digest(&sc),
                "{} faulty={faulty_run}: node and sim days differ",
                algorithm.label()
            );
        }
    }
}

#[test]
fn profiling_never_changes_node_runtime_results() {
    // The node path exercises the transport instrumentation
    // (`transport_dispatch` samples, `net.bytes_*` counters) and the
    // serialized post-training Q-tables on real channel workers.
    let sc = scenario(faulty());
    let digest = |kind, profiler: &Profiler| {
        let tracer = Tracer::counting();
        let out = run_node_scenario_instrumented(
            &sc,
            kind,
            Some(2),
            &tracer,
            &CheckpointOpts::default(),
            profiler,
        )
        .expect("no checkpoint I/O configured");
        let r = out.result.expect("runs to completion");
        (
            out.tables.unwrap_or_default(),
            rounds_csv(&r),
            tracer.counters_csv(),
        )
    };
    for kind in [TransportKind::Sim, TransportKind::Channel] {
        let off = digest(kind, &Profiler::off());
        let on = digest(kind, &Profiler::enabled());
        assert_eq!(off.0, on.0, "{kind:?}: profiling changed Q-table bytes");
        assert_eq!(off.1, on.1, "{kind:?}: profiling changed the rounds CSV");
        assert_eq!(off.2, on.2, "{kind:?}: profiling changed the counters");
    }
}

/// Runs a small profiled scenario and returns its report.
fn profiled_report() -> ProfileReport {
    let profiler = Profiler::enabled();
    let sc = scenario(FaultProfile::default());
    let (result, _) = run_scenario_instrumented(
        &sc,
        &Tracer::off(),
        &CheckpointOpts::default(),
        &profiler,
        false,
    )
    .expect("no checkpoint I/O configured");
    result.expect("runs to completion");
    assert_eq!(
        profiler.open_spans(),
        0,
        "all spans must be closed once the run returns"
    );
    profiler.snapshot()
}

#[test]
fn span_tree_is_well_formed() {
    let report = profiled_report();
    assert!(report.total_ns > 0);
    assert!(!report.spans.is_empty());
    for s in &report.spans {
        // The root `run` span is implicit (still open at snapshot
        // time), so it reports no completed samples.
        assert!(
            s.count > 0 || s.depth == 0,
            "{}: empty span reported",
            s.path
        );
        assert!(
            s.p50_ns <= s.p95_ns && s.p95_ns <= s.max_ns,
            "{}: percentiles out of order",
            s.path
        );
        assert!(
            s.max_ns <= s.total_ns,
            "{}: max sample exceeds span total",
            s.path
        );
    }
    // Sequential children nest inside their parent's wall time, so
    // their totals sum to at most the parent's. Concurrent samples
    // (per-worker busy/idle) are explicitly exempt: they overlap.
    for parent in &report.spans {
        let child_prefix = format!("{}/", parent.path);
        let child_sum: u64 = report
            .spans
            .iter()
            .filter(|c| {
                !c.concurrent && c.depth == parent.depth + 1 && c.path.starts_with(&child_prefix)
            })
            .map(|c| c.total_ns)
            .sum();
        assert!(
            child_sum <= parent.total_ns,
            "{}: children total {}ns exceeds parent total {}ns",
            parent.path,
            child_sum,
            parent.total_ns
        );
    }
}

#[test]
fn profiled_run_covers_wall_time() {
    // The acceptance bar: the top-level phases must account for at
    // least 90% of the run's wall clock — no large untimed gaps.
    let report = profiled_report();
    let coverage = report.coverage();
    assert!(
        coverage >= 0.9,
        "phase coverage {coverage:.3} below the 90% acceptance bar"
    );
}

#[test]
fn report_json_round_trips() {
    let report = profiled_report();
    let parsed = ProfileReport::from_json(&report.to_json()).expect("valid JSON artifact");
    assert_eq!(parsed.total_ns, report.total_ns);
    assert_eq!(parsed.spans.len(), report.spans.len());
    for (a, b) in report.spans.iter().zip(&parsed.spans) {
        assert_eq!(a.path, b.path);
        assert_eq!(a.depth, b.depth);
        assert_eq!(a.count, b.count);
        assert_eq!(a.total_ns, b.total_ns);
        assert_eq!(a.p50_ns, b.p50_ns);
        assert_eq!(a.p95_ns, b.p95_ns);
        assert_eq!(a.max_ns, b.max_ns);
        assert_eq!(a.concurrent, b.concurrent);
    }
}

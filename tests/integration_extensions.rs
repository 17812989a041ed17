//! Integration tests of the future-work extensions: rack-topology-aware
//! consolidation, churn with the learning re-trigger, and bursty
//! workloads.

use glap::{train, unified_table, GlapConfig, GlapPolicy, RetrainConfig};
use glap_cluster::{DataCenter, DataCenterConfig, Topology, VmSpec};
use glap_dcsim::{run_simulation, stream_rng, Stream};
use glap_experiments::{
    build_churn_world, build_policy, run_churn_scenario, run_scenario, Algorithm, ChurnConfig,
    Scenario,
};
use glap_metrics::MetricsCollector;
use glap_workload::{GoogleLikeTraceGen, GoogleTraceConfig, OffsetTrace};

fn glap_cfg() -> GlapConfig {
    GlapConfig {
        learning_rounds: 30,
        aggregation_rounds: 10,
        ..Default::default()
    }
}

fn racked_run(rack_aware: bool) -> (DataCenter, MetricsCollector, Topology) {
    let topology = Topology {
        pms_per_rack: 10,
        inter_rack_bw_factor: 0.25,
        switch_watts: 150.0,
    };
    let sc = Scenario {
        rounds: 300,
        glap: glap_cfg(),
        ..Scenario::paper(60, 3, 0, Algorithm::Glap)
    };
    let mut dc = DataCenter::new(DataCenterConfig::paper_with_topology(60, topology));
    for _ in 0..sc.n_vms() {
        dc.add_vm(VmSpec::EC2_MICRO);
    }
    dc.random_placement(&mut stream_rng(sc.world_seed(), Stream::Placement));
    let total = sc.glap.learning_rounds + sc.rounds as usize;
    let trace = GoogleLikeTraceGen::new(sc.trace_cfg).generate(
        sc.n_vms(),
        total,
        &mut stream_rng(sc.world_seed(), Stream::Trace),
    );
    let mut train_dc = dc.clone();
    let (tables, _) = train(
        &mut train_dc,
        &mut OffsetTrace::new(&trace, 0),
        &sc.glap,
        sc.policy_seed(),
        false,
    );
    let mut policy = GlapPolicy::with_shared_table(sc.glap, unified_table(&tables));
    policy.rack_aware = rack_aware;
    let mut day = OffsetTrace::new(&trace, sc.glap.learning_rounds as u64);
    let mut metrics = MetricsCollector::new();
    run_simulation(
        &mut dc,
        &mut day,
        &mut policy,
        &mut [&mut metrics],
        sc.rounds,
        sc.policy_seed(),
    );
    (dc, metrics, topology)
}

#[test]
fn rack_aware_glap_powers_down_switches() {
    let (dc_flat, _, topo) = racked_run(false);
    let (dc_rack, _, _) = racked_run(true);
    let flat_racks = topo.active_racks(&dc_flat);
    let rack_racks = topo.active_racks(&dc_rack);
    assert!(
        rack_racks < flat_racks,
        "rack-aware GLAP should power down switches: {rack_racks} vs {flat_racks} active racks"
    );
    // And at least one rack is entirely off.
    assert!(topo.rack_occupancy(&dc_rack).contains(&0));
    dc_rack.check_invariants().unwrap();
}

#[test]
fn rack_awareness_does_not_sacrifice_sla() {
    let (_, metrics_flat, _) = racked_run(false);
    let (_, metrics_rack, _) = racked_run(true);
    let flat: f64 = metrics_flat.overloaded_series().iter().sum();
    let rack: f64 = metrics_rack.overloaded_series().iter().sum();
    // Rack awareness reroutes migrations; it must not blow up overloads
    // (tolerate modest noise).
    assert!(
        rack <= flat * 2.0 + 10.0,
        "rack-aware overload explosion: {rack} vs {flat} overloaded PM-rounds"
    );
}

#[test]
fn inter_rack_migrations_cost_more_energy_per_move() {
    // Verified at the substrate level in glap-cluster; here end-to-end:
    // the racked world's migration records show both costs.
    let (_, metrics, _) = racked_run(true);
    assert!(metrics.total_migrations() > 0);
    assert!(metrics.total_migration_energy_j() > 0.0);
}

#[test]
fn churn_with_shifted_arrivals_degrades_stale_glap() {
    let hot = GoogleTraceConfig {
        cpu_floor: 0.4,
        cpu_ceil: 0.98,
        bursty_fraction: 0.7,
        burst_prob: 0.05,
        burst_boost: 0.7,
        ..GoogleTraceConfig::default()
    };
    let run = |churn: ChurnConfig| {
        let sc = Scenario {
            rounds: 240,
            glap: glap_cfg(),
            ..Scenario::paper(40, 3, 0, Algorithm::Glap)
        };
        let (mut dc, trace) = build_churn_world(&sc, &churn);
        let mut policy = build_policy(&sc, &dc, &trace);
        run_churn_scenario(&sc, &churn, &mut dc, &trace, policy.as_mut())
            .collector
            .mean_overloaded_fraction()
    };
    let stationary = run(ChurnConfig::balanced(120, 0.01));
    let shifted = run(ChurnConfig::shifted(120, 0.01, hot));
    assert!(
        shifted > stationary,
        "hot arrivals should stress the stale table: {shifted} vs {stationary}"
    );
}

#[test]
fn retrain_window_completes_and_preserves_correctness() {
    let sc = Scenario {
        rounds: 200,
        glap: glap_cfg(),
        ..Scenario::paper(40, 3, 1, Algorithm::Glap)
    };
    let churn = ChurnConfig::balanced(120, 0.02);
    let (mut dc, trace) = build_churn_world(&sc, &churn);
    let mut train_dc = dc.clone();
    let (tables, _) = train(
        &mut train_dc,
        &mut OffsetTrace::new(&trace, 0),
        &sc.glap,
        sc.policy_seed(),
        false,
    );
    let mut policy = GlapPolicy::with_shared_table(sc.glap, unified_table(&tables));
    policy.retrain = Some(RetrainConfig {
        churn_threshold: 24,
        interval: None,
        learning_window: 10,
    });
    let r = run_churn_scenario(&sc, &churn, &mut dc, &trace, &mut policy);
    assert!(policy.retrainings >= 1, "window never completed");
    assert_eq!(r.collector.samples.len(), 200);
    dc.check_invariants().unwrap();
}

#[test]
fn interval_trigger_fires_without_churn() {
    let sc = Scenario {
        rounds: 100,
        glap: glap_cfg(),
        ..Scenario::paper(30, 2, 0, Algorithm::Glap)
    };
    let (mut dc, trace) = glap_experiments::build_world(&sc);
    let mut train_dc = dc.clone();
    let (tables, _) = train(
        &mut train_dc,
        &mut OffsetTrace::new(&trace, 0),
        &sc.glap,
        sc.policy_seed(),
        false,
    );
    let mut policy = GlapPolicy::with_shared_table(sc.glap, unified_table(&tables));
    policy.retrain = Some(RetrainConfig {
        churn_threshold: usize::MAX,
        interval: Some(30),
        learning_window: 5,
    });
    let mut day = OffsetTrace::new(&trace, sc.glap.learning_rounds as u64);
    run_simulation(
        &mut dc,
        &mut day,
        &mut policy,
        &mut [],
        sc.rounds,
        sc.policy_seed(),
    );
    assert!(
        policy.retrainings >= 2,
        "interval trigger fired {} times",
        policy.retrainings
    );
}

#[test]
fn bursty_trace_config_flows_through_scenarios() {
    let bursty = GoogleTraceConfig {
        bursty_fraction: 0.9,
        burst_prob: 0.05,
        burst_boost: 0.8,
        ..GoogleTraceConfig::default()
    };
    let mut sc = Scenario {
        rounds: 120,
        glap: glap_cfg(),
        ..Scenario::paper(30, 3, 0, Algorithm::Grmp)
    };
    sc.trace_cfg = bursty;
    let result = run_scenario(&sc);
    assert_eq!(result.collector.samples.len(), 120);
    // The bursty world must actually be busier than the default one.
    let mut default_sc = sc.clone();
    default_sc.trace_cfg = GoogleTraceConfig::default();
    let (_, bursty_trace) = glap_experiments::build_world(&sc);
    let (_, default_trace) = glap_experiments::build_world(&default_sc);
    assert!(bursty_trace.mean_cpu() > default_trace.mean_cpu());
}

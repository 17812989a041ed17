//! Reproducibility contracts: every run is a pure function of its
//! scenario (seed included), and the world invariants hold throughout.

use glap::GlapConfig;
use glap_dcsim::{run_simulation, FaultProfile};
use glap_experiments::{build_policy, build_world, run_scenario, Algorithm, Scenario};
use glap_metrics::MetricsCollector;
use glap_workload::OffsetTrace;

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

#[test]
fn runs_are_bit_reproducible_for_every_algorithm() {
    for algorithm in Algorithm::PAPER_SET {
        let sc = scenario(algorithm);
        let a = run_scenario(&sc);
        let b = run_scenario(&sc);
        assert_eq!(
            a.collector.samples,
            b.collector.samples,
            "{}",
            algorithm.label()
        );
        assert_eq!(a.sla, b.sla);
        assert_eq!(a.bfd_bins, b.bfd_bins);
    }
}

#[test]
fn thread_count_never_changes_results() {
    // The learning phase fans out over a worker pool (PR 5), but each
    // PM trains from its own dedicated RNG stream, so a run is a pure
    // function of the seed regardless of pool width (an odd one too) —
    // with and without network faults. (Other tests in this binary are also
    // thread-count-invariant, so flipping the process-wide default
    // while they run concurrently is harmless.)
    for algorithm in Algorithm::PAPER_SET {
        for faulty in [false, true] {
            let mut sc = scenario(algorithm);
            if faulty {
                sc.fault = FaultProfile::faulty(0.2, 0.01, 0.3);
            }
            glap_par::set_default_threads(1);
            let seq = run_scenario(&sc);
            for threads in [3, 4] {
                glap_par::set_default_threads(threads);
                let par = run_scenario(&sc);
                glap_par::set_default_threads(0);
                let label = format!("{} (faulty={faulty}, threads={threads})", algorithm.label());
                assert_eq!(
                    seq.collector.samples, par.collector.samples,
                    "{label}: thread count changed per-round samples"
                );
                assert_eq!(seq.sla, par.sla, "{label}");
                assert_eq!(seq.bfd_bins, par.bfd_bins, "{label}");
            }
        }
    }
}

#[test]
fn different_seeds_give_different_runs() {
    let a = run_scenario(&scenario(Algorithm::Glap));
    let b = run_scenario(&Scenario {
        rep: 4,
        ..scenario(Algorithm::Glap)
    });
    assert_ne!(a.collector.samples, b.collector.samples);
}

#[test]
fn datacenter_invariants_hold_every_round() {
    struct InvariantChecker;
    impl glap_dcsim::Observer for InvariantChecker {
        fn on_round_end(&mut self, round: u64, dc: &mut glap_cluster::DataCenter) {
            dc.check_invariants()
                .unwrap_or_else(|e| panic!("round {round}: invariant violated: {e}"));
        }
    }
    for algorithm in Algorithm::PAPER_SET {
        let sc = scenario(algorithm);
        let (mut dc, trace) = build_world(&sc);
        let mut policy = build_policy(&sc, &dc, &trace);
        let mut day = OffsetTrace::new(&trace, sc.glap.learning_rounds as u64);
        let mut checker = InvariantChecker;
        let mut metrics = MetricsCollector::new();
        run_simulation(
            &mut dc,
            &mut day,
            policy.as_mut(),
            &mut [&mut checker, &mut metrics],
            sc.rounds,
            sc.policy_seed(),
        );
    }
}

#[test]
fn zero_fault_network_is_byte_identical_to_direct_calls() {
    // The tentpole contract of the network layer: with the default
    // FaultProfile::none(), routing every gossip message through the
    // NetworkModel (what run_scenario now does) produces byte-identical
    // results to driving the policy directly over run_simulation with no
    // explicit network — the pre-network code path. The ideal message
    // path consumes no randomness and refuses nothing, so the two runs
    // must match sample for sample.
    for algorithm in Algorithm::PAPER_SET {
        let sc = scenario(algorithm);
        assert!(sc.fault.is_ideal());
        let via_net = run_scenario(&sc);

        let (mut dc, trace) = build_world(&sc);
        let mut policy = build_policy(&sc, &dc, &trace);
        let mut day = OffsetTrace::new(&trace, sc.glap.learning_rounds as u64);
        let mut collector = MetricsCollector::new();
        run_simulation(
            &mut dc,
            &mut day,
            policy.as_mut(),
            &mut [&mut collector],
            sc.rounds,
            sc.policy_seed(),
        );

        assert_eq!(
            via_net.collector.samples,
            collector.samples,
            "{}: network layer changed a zero-fault run",
            algorithm.label()
        );
    }
}

#[test]
fn faulty_runs_complete_and_stay_reproducible() {
    // Fault injection must never panic, lose VMs, or break determinism:
    // a 20% drop rate plus stochastic crash/recovery is survivable for
    // every algorithm.
    for algorithm in Algorithm::PAPER_SET {
        let mut sc = scenario(algorithm);
        sc.fault = FaultProfile::faulty(0.2, 0.01, 0.3);
        let a = run_scenario(&sc);
        let b = run_scenario(&sc);
        assert_eq!(
            a.collector.samples,
            b.collector.samples,
            "{}",
            algorithm.label()
        );
        assert_eq!(a.collector.samples.len(), sc.rounds as usize);

        // And the fault profile actually changes behaviour vs. the ideal
        // network (the layer is not a no-op).
        let ideal = run_scenario(&scenario(algorithm));
        assert_ne!(
            a.collector.samples,
            ideal.collector.samples,
            "{}: faults had no effect",
            algorithm.label()
        );
    }
}

#[test]
fn vm_conservation_under_faults() {
    for algorithm in Algorithm::PAPER_SET {
        let mut sc = scenario(algorithm);
        sc.fault = FaultProfile::faulty(0.2, 0.02, 0.2);
        let (mut dc, trace) = build_world(&sc);
        let policy = build_policy(&sc, &dc, &trace);
        let mut day = OffsetTrace::new(&trace, sc.glap.learning_rounds as u64);
        let mut policy = policy;
        let mut net = glap_dcsim::NetworkModel::new(sc.n_pms, sc.fault.clone(), sc.policy_seed());
        glap_dcsim::run_simulation_with_net(
            &mut dc,
            &mut day,
            policy.as_mut(),
            &mut [],
            sc.rounds,
            sc.policy_seed(),
            &mut net,
        );
        dc.check_invariants().unwrap();
        let hosted: usize = dc.pms().map(|p| p.vm_count()).sum();
        assert_eq!(hosted, sc.n_vms(), "{}", algorithm.label());
    }
}

#[test]
fn vm_conservation_across_the_day() {
    // No VM is ever lost or duplicated by any algorithm.
    for algorithm in Algorithm::PAPER_SET {
        let sc = scenario(algorithm);
        let (mut dc, trace) = build_world(&sc);
        let mut policy = build_policy(&sc, &dc, &trace);
        let mut day = OffsetTrace::new(&trace, sc.glap.learning_rounds as u64);
        run_simulation(
            &mut dc,
            &mut day,
            policy.as_mut(),
            &mut [],
            sc.rounds,
            sc.policy_seed(),
        );
        let hosted: usize = dc.pms().map(|p| p.vm_count()).sum();
        assert_eq!(hosted, sc.n_vms(), "{}", algorithm.label());
        assert!(dc.vms().all(|v| v.host.is_some()));
    }
}

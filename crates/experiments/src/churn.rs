//! Churn simulation: VM arrivals and departures during the measured day.
//!
//! The paper's learning component "runs as required by a predefined
//! policy e.g., if the arrival and departure rates of VMs exceed a
//! threshold compared to the last learning time" (§IV-B). This module
//! drives that scenario: a Poisson-ish stream of arrivals (placed by the
//! cloud's admission service on random active PMs) and random departures,
//! with the policy notified of the churn volume so GLAP's re-trigger can
//! fire.

use crate::scenario::Scenario;
use glap_baselines::bfd_baseline;
use glap_cluster::{DataCenter, DataCenterConfig, PmId, VmId, VmSpec};
use glap_dcsim::{stream_rng, ConsolidationPolicy, NetworkModel, Observer, RoundCtx, Stream};
use glap_metrics::{MetricsCollector, RunResult};
use glap_telemetry::Tracer;
use glap_workload::{GoogleLikeTraceGen, GoogleTraceConfig, MaterializedTrace, OffsetTrace};
use rand::seq::SliceRandom;
use rand::Rng;

/// Churn intensity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Expected VM arrivals per round (thinned Bernoulli per slot).
    pub arrivals_per_round: f64,
    /// Per-round probability that each live VM departs.
    pub departure_prob: f64,
    /// Demand distribution of *arriving* VMs. `None` draws arrivals from
    /// the scenario's own trace config (stationary churn); `Some` models a
    /// workload distribution shift — the case the paper's learning
    /// re-trigger exists for.
    pub arrival_cfg: Option<GoogleTraceConfig>,
}

impl ChurnConfig {
    /// Balanced churn: arrivals sized so the population is roughly stable
    /// for the given initial VM count.
    pub fn balanced(n_vms: usize, departure_prob: f64) -> Self {
        ChurnConfig {
            arrivals_per_round: n_vms as f64 * departure_prob,
            departure_prob,
            arrival_cfg: None,
        }
    }

    /// Same, but arriving VMs follow a different demand distribution.
    pub fn shifted(n_vms: usize, departure_prob: f64, arrival_cfg: GoogleTraceConfig) -> Self {
        ChurnConfig {
            arrivals_per_round: n_vms as f64 * departure_prob,
            departure_prob,
            arrival_cfg: Some(arrival_cfg),
        }
    }
}

/// Builds a churn world: like the standard one, but the trace is sized
/// for the maximum possible VM population (initial + all arrivals).
pub fn build_churn_world(sc: &Scenario, churn: &ChurnConfig) -> (DataCenter, MaterializedTrace) {
    let mut dc = DataCenter::new(DataCenterConfig::paper(sc.n_pms));
    for i in 0..sc.n_vms() {
        dc.add_vm(sc.vm_mix.spec(i));
    }
    dc.random_placement(&mut stream_rng(sc.world_seed(), Stream::Placement));

    let total_rounds = sc.glap.learning_rounds + sc.rounds as usize;
    // Head-room for arrivals: 2× the expectation, so the trace never runs
    // out of series even in a high tail.
    let max_arrivals = (churn.arrivals_per_round * sc.rounds as f64 * 2.0).ceil() as usize;
    let mut trace_rng = stream_rng(sc.world_seed(), Stream::Trace);
    let mut trace =
        GoogleLikeTraceGen::new(sc.trace_cfg).generate(sc.n_vms(), total_rounds, &mut trace_rng);
    let arrivals_gen = GoogleLikeTraceGen::new(churn.arrival_cfg.unwrap_or(sc.trace_cfg));
    let arrivals_trace = arrivals_gen.generate(max_arrivals, total_rounds, &mut trace_rng);
    trace.append_vms(&arrivals_trace);
    (dc, trace)
}

/// Runs a consolidation day with churn. Arrivals are placed on a random
/// active PM (the cloud's admission service, out of scope for DVMC);
/// departures pick uniformly among live VMs. The policy sees the number
/// of churn events each round in [`RoundCtx::churn_events`], and gossips
/// over the scenario's fault profile.
pub fn run_churn_scenario(
    sc: &Scenario,
    churn: &ChurnConfig,
    dc: &mut DataCenter,
    trace: &MaterializedTrace,
    policy: &mut dyn ConsolidationPolicy,
) -> RunResult {
    let mut day = OffsetTrace::new(trace, sc.glap.learning_rounds as u64);
    let mut collector = MetricsCollector::new();
    let mut policy_rng = stream_rng(sc.policy_seed(), Stream::Policy);
    let mut churn_rng = stream_rng(sc.world_seed(), Stream::Custom(42));
    let mut net = NetworkModel::new(sc.n_pms, sc.fault.clone(), sc.policy_seed());

    policy.init(dc, &mut policy_rng);
    for _ in 0..sc.rounds {
        let round = dc.round();

        // --- churn events -------------------------------------------
        let mut events = 0usize;
        // Departures.
        let live: Vec<VmId> = dc
            .vms()
            .filter(|v| v.host.is_some())
            .map(|v| v.id)
            .collect();
        for vm in live {
            if churn_rng.gen::<f64>() < churn.departure_prob {
                dc.remove_vm(vm);
                events += 1;
            }
        }
        // Arrivals (Bernoulli-thinned to the expected rate).
        let mut arrivals = churn.arrivals_per_round.floor() as usize;
        if churn_rng.gen::<f64>() < churn.arrivals_per_round.fract() {
            arrivals += 1;
        }
        let active: Vec<PmId> = dc.active_pm_ids().collect();
        for _ in 0..arrivals {
            if dc.n_vms() >= trace.n_vms() {
                break; // trace head-room exhausted (statistically unreachable)
            }
            let vm = dc.add_vm(VmSpec::EC2_MICRO);
            if let Some(&pm) = active.choose(&mut churn_rng) {
                dc.place(vm, pm);
                events += 1;
            }
        }
        // --- the usual engine round ---------------------------------
        dc.step(&mut day);
        net.begin_round(round);
        let mut ctx = RoundCtx {
            round,
            dc,
            rng: &mut policy_rng,
            churn_events: events,
            net: &mut net,
            tracer: &Tracer::off(),
        };
        policy.round(&mut ctx);
        debug_assert!(dc.check_invariants().is_ok());
        collector.on_round_end(round, dc);
    }

    let mut result = RunResult::from_run(policy.name(), collector, dc);
    result.bfd_bins = bfd_baseline(dc);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::build_policy;
    use crate::scenario::Algorithm;
    use glap::GlapConfig;

    fn sc(algorithm: Algorithm) -> Scenario {
        Scenario {
            rounds: 80,
            glap: GlapConfig {
                learning_rounds: 20,
                aggregation_rounds: 8,
                ..Default::default()
            },
            ..Scenario::paper(30, 3, 0, algorithm)
        }
    }

    #[test]
    fn churn_world_sizes_trace_for_arrivals() {
        let s = sc(Algorithm::Glap);
        let churn = ChurnConfig {
            arrivals_per_round: 2.0,
            departure_prob: 0.01,
            arrival_cfg: None,
        };
        let (dc, trace) = build_churn_world(&s, &churn);
        assert_eq!(dc.n_vms(), 90);
        assert!(trace.n_vms() >= 90 + 2 * 80);
    }

    #[test]
    fn population_stays_roughly_balanced() {
        let s = sc(Algorithm::Grmp);
        let churn = ChurnConfig::balanced(90, 0.02);
        let (mut dc, trace) = build_churn_world(&s, &churn);
        let mut policy = build_policy(&s, &dc, &trace);
        let r = run_churn_scenario(&s, &churn, &mut dc, &trace, policy.as_mut());
        assert_eq!(r.collector.samples.len(), 80);
        let live = dc.vms().filter(|v| v.host.is_some()).count();
        assert!(live > 45 && live < 160, "population drifted to {live}");
        dc.check_invariants().unwrap();
    }

    #[test]
    fn churn_runs_are_reproducible() {
        let s = sc(Algorithm::Glap);
        let churn = ChurnConfig::balanced(90, 0.02);
        let run = || {
            let (mut dc, trace) = build_churn_world(&s, &churn);
            let mut policy = build_policy(&s, &dc, &trace);
            run_churn_scenario(&s, &churn, &mut dc, &trace, policy.as_mut())
        };
        let a = run();
        let b = run();
        assert_eq!(a.collector.samples, b.collector.samples);
    }

    #[test]
    fn glap_retrain_triggers_under_churn() {
        use glap::{train, unified_table, GlapPolicy, RetrainConfig};
        let s = sc(Algorithm::Glap);
        let churn = ChurnConfig::balanced(90, 0.03);
        let (mut dc, trace) = build_churn_world(&s, &churn);
        let mut train_dc = dc.clone();
        let (tables, _) = train(
            &mut train_dc,
            &mut OffsetTrace::new(&trace, 0),
            &s.glap,
            s.policy_seed(),
            false,
        );
        let mut policy = GlapPolicy::with_shared_table(s.glap, unified_table(&tables));
        policy.retrain = Some(RetrainConfig {
            churn_threshold: 30,
            interval: None,
            learning_window: 5,
        });
        run_churn_scenario(&s, &churn, &mut dc, &trace, &mut policy);
        assert!(policy.retrainings > 0, "re-training never triggered");
    }
}

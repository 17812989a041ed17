//! Full-run byte-identity across worker-pool widths.
//!
//! The trainer's local-learning fan-out, the aggregation round's merge
//! waves and the sharded consolidation sweep all promise the same contract:
//! thread count is an execution detail, never an input. These proptests
//! pin it end to end — whole scenario runs (training + measured day),
//! across the paper's four algorithms, with and without fault injection,
//! must produce identical results at 1 worker and at 2, 3 or 4. An odd
//! width leaves the pool's queue an uneven number of chunks per worker.
//!
//! The worker count is installed through `glap_par::set_default_threads`
//! (the same knob the `--threads` CLI flag uses), so every pool the run
//! touches is covered. The proptest functions share one process-global
//! default, hence the single test function per concern.

use glap::GlapConfig;
use glap_dcsim::FaultProfile;
use glap_experiments::{run_scenario, Algorithm, Scenario};
use proptest::prelude::*;

/// Short-but-complete GLAP configuration: full two-phase training, just
/// compressed enough for a proptest budget.
fn quick_glap() -> GlapConfig {
    GlapConfig {
        learning_rounds: 6,
        aggregation_rounds: 6,
        learning_iterations: 8,
        ..GlapConfig::default()
    }
}

/// Runs the scenario under an installed process-wide worker count and
/// fingerprints everything the run reports: the per-round series, final
/// SLA metrics, wake-ups and the BFD reference. `Debug` formatting of
/// `f64` is exact (shortest round-trip representation), so any
/// accumulation-order difference shows up.
fn fingerprint(sc: &Scenario, threads: usize) -> String {
    glap_par::set_default_threads(threads);
    let result = run_scenario(sc);
    glap_par::set_default_threads(0);
    format!("{result:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn whole_runs_are_thread_count_invariant(
        algo_idx in 0usize..4,
        faulty in any::<bool>(),
        rep in 0usize..3,
        n_pms in 16usize..40,
        width in 2usize..=4,
    ) {
        let mut sc = Scenario::paper(n_pms, 3, rep, Algorithm::PAPER_SET[algo_idx]);
        sc.rounds = 10;
        sc.glap = quick_glap();
        if faulty {
            // Drops, timeouts and crash/recovery exercise the serial
            // fallback paths; identity must hold there too.
            sc.fault = FaultProfile::faulty(0.1, 0.02, 0.3);
        }
        let one = fingerprint(&sc, 1);
        let wide = fingerprint(&sc, width);
        prop_assert_eq!(
            one,
            wide,
            "algorithm {:?}, faulty={}, rep={}, n_pms={}, width={}",
            sc.algorithm,
            faulty,
            rep,
            n_pms,
            width
        );
    }
}

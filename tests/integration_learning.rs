//! Integration tests of the two-phase gossip learning protocol against
//! the paper's claims: convergence of the aggregation phase (Figure 5)
//! and the Theorem 1 normality property of gossip-averaged values.

use glap::prelude::*;
use glap_cluster::Resources;
use glap_experiments::{build_world, Algorithm, Scenario};
use glap_metrics::{jarque_bera, mean};
use glap_qlearn::{PmState, QParams, QTablePair, VmAction};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn trained_world(
    n_pms: usize,
    learning_rounds: usize,
    aggregation_rounds: usize,
) -> (Vec<QTablePair>, glap::TrainReport) {
    let glap = GlapConfig {
        learning_rounds,
        aggregation_rounds,
        ..Default::default()
    };
    let sc = Scenario {
        glap,
        ..Scenario::paper(n_pms, 3, 0, Algorithm::Glap)
    };
    let (mut dc, mut trace) = build_world(&sc);
    train(&mut dc, &mut trace, &glap, sc.policy_seed(), true)
}

#[test]
fn figure5_shape_wog_plateaus_wg_converges() {
    let (_, report) = trained_world(80, 30, 12);
    let wog: Vec<f64> = report
        .similarity
        .iter()
        .filter(|(p, _, _)| *p == TrainPhase::Learning)
        .map(|&(_, _, s)| s)
        .collect();
    let wg: Vec<f64> = report
        .similarity
        .iter()
        .filter(|(p, _, _)| *p == TrainPhase::Aggregation)
        .map(|&(_, _, s)| s)
        .collect();
    // Learning alone never reaches agreement…
    let wog_final = *wog.last().unwrap();
    assert!(wog_final < 0.95, "WOG converged on its own: {wog_final}");
    // …aggregation does, quickly.
    let wg_final = *wg.last().unwrap();
    assert!(wg_final > 0.999, "WG failed to converge: {wg_final}");
    // And convergence is fast: within 10 gossip rounds.
    assert!(wg[9.min(wg.len() - 1)] > 0.99);
}

#[test]
fn all_pms_own_identical_tables_after_aggregation() {
    let (tables, _) = trained_world(60, 25, 15);
    let reference = &tables[0];
    for t in &tables[1..] {
        let sim = reference.cosine_similarity(t);
        assert!(sim > 0.9999, "a PM diverged: similarity {sim}");
    }
}

#[test]
fn unified_table_is_fixed_point_of_merging() {
    let (tables, _) = trained_world(40, 20, 15);
    let uni = unified_table(&tables);
    let mut again = uni.clone();
    again.merge(&uni);
    // Merging a table with itself is identity (average of equal values).
    assert!((again.cosine_similarity(&uni) - 1.0).abs() < 1e-12);
    assert_eq!(again.trained_pairs(), uni.trained_pairs());
}

#[test]
fn theorem1_gossip_averages_tend_toward_normality() {
    // Start n nodes with strongly *non-normal* (exponential-like) values
    // for one (state, action) pair; run the aggregation gossip; the
    // cross-node distribution must become much closer to normal
    // (Jarque–Bera statistic shrinks dramatically) while preserving the
    // mean — §IV-C's claim, checked empirically.
    let n = 400;
    let mut rng = SmallRng::seed_from_u64(99);
    let s = PmState::from_utilization(Resources::splat(0.5));
    let a = VmAction::from_demand(Resources::splat(0.1));
    let mut tables: Vec<QTablePair> = (0..n)
        .map(|_| {
            let mut t = QTablePair::new(QParams::default());
            // Exponential via inverse CDF: heavily right-skewed.
            let u: f64 = rng.gen::<f64>().max(1e-12);
            t.out.set(s, a, -u.ln() * 10.0);
            t
        })
        .collect();
    let values =
        |tables: &[QTablePair]| -> Vec<f64> { tables.iter().map(|t| t.out.get(s, a)).collect() };
    let before = values(&tables);
    let jb_before = jarque_bera(&before);
    let mean_before = mean(&before);

    let mut overlay = CyclonOverlay::new(n, 8, 4);
    overlay.bootstrap_random(&mut rng);
    // A *few* rounds only: full convergence would collapse the variance
    // entirely; Theorem 1 is about the distribution en route.
    for _ in 0..4 {
        overlay.run_round(&mut rng, RoundIo::default());
        aggregation_round(&mut tables, &mut overlay, &mut rng, None, AggIo::default());
    }
    let after = values(&tables);
    let jb_after = jarque_bera(&after);
    let mean_after = mean(&after);

    assert!(
        jb_after < jb_before / 3.0,
        "Jarque–Bera did not drop: {jb_before:.1} → {jb_after:.1}"
    );
    assert!(
        (mean_after - mean_before).abs() / mean_before < 0.05,
        "gossip averaging drifted the mean: {mean_before} → {mean_after}"
    );
}

#[test]
fn learning_threshold_excludes_busy_pms() {
    // With an impossible threshold nobody trains; with a permissive one
    // almost everybody does.
    let run = |threshold: f64| {
        let glap = GlapConfig {
            learning_rounds: 10,
            aggregation_rounds: 0,
            learning_threshold: threshold,
            ..Default::default()
        };
        let sc = Scenario {
            glap,
            ..Scenario::paper(40, 3, 0, Algorithm::Glap)
        };
        let (mut dc, mut trace) = build_world(&sc);
        let (_, report) = train(&mut dc, &mut trace, &glap, sc.policy_seed(), false);
        report.pms_trained
    };
    // Only PMs that are already idle (utilization exactly 0) can pass a
    // zero threshold.
    assert!(run(0.0) <= 5, "{} PMs trained at threshold 0", run(0.0));
    assert!(run(1.0) > 30);
}

//! CI scale smoke: one 16k-PM cell of the scale trajectory under a
//! wall-clock budget, with the 1k cell measured in the same process as
//! the linearity reference.
//!
//! The full `BENCH_scale.json` refresh (through 100k PMs) takes minutes
//! and runs on demand; this smoke fails fast on every push if per-round
//! cost goes super-linear at a size debug CI can still afford. Ignored
//! by default because the measured loops only make sense in release —
//! CI runs `sixteen_k_cell_stays_near_linear_within_budget` by name with
//! `--release -- --ignored`; the 250k memory smoke takes minutes (the
//! overlay bootstrap is O(n²)) and runs on demand.

use glap_experiments::scale_records_at;
use std::time::Instant;

use glap::prelude::*;
use glap_cluster::{DataCenter, DataCenterConfig, Resources, VmId, VmSpec};

#[test]
#[ignore = "release-mode CI smoke (minutes in debug builds); run with --ignored"]
fn sixteen_k_cell_stays_near_linear_within_budget() {
    let t0 = Instant::now();
    let records = scale_records_at(&[1_000, 16_000], 60);
    // Five records per size, every one actually measured.
    assert_eq!(records.len(), 10);
    for r in &records {
        assert!(r.median_ns > 0, "{} measured nothing", r.name);
        assert!(r.iterations >= 3, "{} under-sampled", r.name);
    }
    let ns = |name: &str| {
        records
            .iter()
            .find(|b| b.name == name)
            .unwrap_or_else(|| panic!("missing record {name}"))
            .median_ns as f64
    };
    // The committed criterion scaled down: 16x the PMs may cost at most
    // ~30x per round (the 100k/4k advisory allows 30x for 25x). A
    // super-linear blow-up — quadratic scans, per-PM allocation churn —
    // trips this long before the 100k row would.
    let ratio = ns("learn_plus_agg_round_16000pms") / ns("learn_plus_agg_round_1000pms");
    let policy_ratio = ns("policy_round_16000pms") / ns("policy_round_1000pms");
    eprintln!("scale smoke: learn+agg 16k/1k = {ratio:.1}x, policy 16k/1k = {policy_ratio:.1}x");
    assert!(
        ratio <= 30.0,
        "learn+agg at 16k PMs costs {ratio:.1}x the 1k figure (16x the PMs)"
    );
    // Slightly looser than the headline: the 1k policy cell is ~1ms, so
    // its round-to-round variance moves this ratio more. A quadratic
    // sweep would land at ~256x, far past either bound.
    assert!(
        policy_ratio <= 35.0,
        "policy round at 16k PMs costs {policy_ratio:.1}x the 1k figure"
    );
    // Wall-clock budget for the whole smoke (both cells, all loops).
    let elapsed = t0.elapsed();
    assert!(
        elapsed.as_secs() < 300,
        "scale smoke blew its wall-clock budget: {elapsed:?}"
    );
}

/// Release memory smoke: one learning round + one aggregation round over a
/// quarter-million PMs, end to end through [`train_instrumented`], must
/// fit the CI memory budget.
///
/// The fleet's Q-tables are no longer the memory story at this size: a
/// slot holds only the ~70 pairs a PM visits in one round (~1 KB), so
/// the arena is a few hundred MB next to the world, the overlay and the
/// per-PM scratch. The budget is what a dense copy cannot fit under —
/// one 118 KB table per PM is 30 GB — so an `export()` on this path, or
/// a return to dense slots, trips it long before the OOM killer would.
///
/// Stays `#[ignore]` for its run time, not its memory: the overlay's
/// random bootstrap is O(n²) and takes minutes here (ROADMAP 3(c)/(d)).
#[test]
#[ignore = "release-mode smoke (minutes: O(n^2) overlay bootstrap); run with --ignored"]
fn quarter_million_pm_round_pair_fits_memory_budget() {
    const N: usize = 250_000;
    /// Process peak-RSS ceiling: measured 0.4 GB, against 30 GB for one
    /// dense copy of the tables.
    const PEAK_RSS_BUDGET_BYTES: u64 = 2_000_000_000;

    let t0 = Instant::now();
    let mut wave = |vm: VmId, round: u64| {
        let x = 0.3 + 0.25 * ((round as f64 / 7.0) + vm.0 as f64).sin();
        Resources::splat(x)
    };
    let mut dc = DataCenter::new(DataCenterConfig::paper(N));
    for _ in 0..N * 2 {
        dc.add_vm(VmSpec::EC2_MICRO);
    }
    dc.random_placement(&mut stream_rng(7, Stream::Placement));
    dc.step(&mut wave);

    // The shortest two-phase schedule: one learning round, one
    // aggregation round, both over the arena.
    let cfg = GlapConfig {
        learning_rounds: 1,
        aggregation_rounds: 1,
        ..Default::default()
    };
    let profiler = Profiler::enabled();
    let (arena, report, _) = train_instrumented(
        &mut dc,
        &mut wave,
        &cfg,
        42,
        false,
        &Tracer::off(),
        None,
        &profiler,
    );
    assert_eq!(arena.len(), N);
    assert!(report.pms_trained > 0, "nobody trained at 250k PMs");
    let snapshot = profiler.snapshot();
    for path in ["train/bootstrap", "train/learn_round", "train/agg_round"] {
        let span = snapshot
            .span(path)
            .unwrap_or_else(|| panic!("the 1+1 schedule emits a {path} span"));
        assert_eq!(span.count, 1, "{path}");
        eprintln!("{path}: {:.1}s", span.total_ns as f64 / 1e9);
    }

    let peak = glap_profile::peak_rss_bytes().expect("peak RSS readable on this platform");
    eprintln!(
        "250k-PM learn+agg rounds: {:.1}s total, peak RSS {:.1} GB (budget {:.0} GB)",
        t0.elapsed().as_secs_f64(),
        peak as f64 / 1e9,
        PEAK_RSS_BUDGET_BYTES as f64 / 1e9,
    );
    assert!(
        peak <= PEAK_RSS_BUDGET_BYTES,
        "peak RSS {peak} bytes blew the {PEAK_RSS_BUDGET_BYTES}-byte budget \
         — a dense per-PM table copy is back on the training path"
    );
    // Generous wall budget: this is a memory smoke, not a speed gate —
    // the run is dominated by the quadratic overlay bootstrap. A hang
    // should still fail rather than wedge CI.
    let elapsed = t0.elapsed();
    assert!(
        elapsed.as_secs() < 1800,
        "250k-PM round-pair smoke blew its wall-clock budget: {elapsed:?}"
    );
}

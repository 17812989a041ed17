//! The perf-regression gate: re-measures the hot-path suite and compares
//! each median against the committed `BENCH_profile.json` baseline,
//! exiting nonzero when any scenario slowed past the tolerance.
//!
//! ```text
//! perf_gate                      # default tolerance 1.0 (fail past 2x)
//! perf_gate --tolerance 0.25     # fail past 1.25x the baseline
//! GLAP_BENCH_BUDGET_MS=1000 perf_gate   # steadier medians
//! ```
//!
//! The measured run is also written to `<out>/perf_gate_measured.json`
//! (same `glap-bench-v1` schema as the baseline) so CI can upload it as
//! an artifact; refresh the committed baseline with `bench_refresh`.

use glap_experiments::{git_rev, parse_or_exit, run_suite};
use glap_profile::{compare, fmt_ns, Baseline};

/// Per-case sampling budget: `GLAP_BENCH_BUDGET_MS`, else 300ms (the
/// same default as the in-repo criterion stub).
fn budget_ms() -> u64 {
    std::env::var("GLAP_BENCH_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

fn main() {
    let cli = parse_or_exit();
    let baseline_path = std::path::Path::new("BENCH_profile.json");
    let text = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
        eprintln!(
            "cannot read {} ({e}); regenerate it with bench_refresh",
            baseline_path.display()
        );
        std::process::exit(2);
    });
    let baseline = Baseline::from_json(&text).unwrap_or_else(|e| {
        eprintln!("{}: {e}", baseline_path.display());
        std::process::exit(2);
    });

    let budget = budget_ms();
    eprintln!(
        "measuring {} scenarios ({budget}ms budget each) against baseline rev {}…",
        baseline.benchmarks.len(),
        baseline.git_rev
    );
    let measured = run_suite(budget);
    let outcomes = compare(&baseline, &measured, cli.tolerance);

    println!(
        "{:<28} {:>12} {:>12} {:>8}  verdict",
        "benchmark", "baseline", "measured", "ratio"
    );
    let mut regressed = false;
    for o in &outcomes {
        let (base, verdict) = match o.baseline_ns {
            Some(ns) => (
                fmt_ns(ns),
                if o.regressed {
                    regressed = true;
                    "REGRESSED"
                } else {
                    "ok"
                },
            ),
            None => ("-".to_string(), "no baseline"),
        };
        println!(
            "{:<28} {:>12} {:>12} {:>7.2}x  {verdict}",
            o.name,
            base,
            fmt_ns(o.measured_ns),
            o.ratio,
        );
    }

    // Scale advisory (never fails the gate): the committed 1k→250k
    // trajectory's headline ratio — one learning round plus one
    // aggregation round over the arena (the steady-state cost of a
    // GLAP training round) at 100k PMs over the 4k figure. The committed criterion is ≤ ~30x *on ≥4 cores* (size
    // ratio 25x); the trajectory is measured serially, and the sharded
    // waves carry a qualified ≥2x speedup on ≥4 cores (byte-identity
    // pinned, so threads change only wall-clock), so the serial bound
    // here is 60x. Past that, the arena rounds' scaling regressed
    // and the trajectory should be re-measured with bench_refresh.
    if let Ok(text) = std::fs::read_to_string("BENCH_scale.json") {
        match Baseline::from_json(&text) {
            Ok(scale) => {
                let ns_of = |name: &str| {
                    scale
                        .benchmarks
                        .iter()
                        .find(|b| b.name == name)
                        .map(|b| b.median_ns)
                };
                match (
                    ns_of("learn_plus_agg_round_4000pms"),
                    ns_of("learn_plus_agg_round_100000pms"),
                ) {
                    (Some(at_4k), Some(at_100k)) if at_4k > 0 => {
                        let ratio = at_100k as f64 / at_4k as f64;
                        let verdict = if ratio <= 60.0 { "ok" } else { "ADVISORY" };
                        println!(
                            "scale: learn+agg round {} @4k → {} @100k PMs \
                             ({ratio:.1}x serial for 25x the PMs; ~{:.0}x on ≥4 cores \
                             via the sharded waves, target ≤30x there / ≤60x serial)  {verdict}",
                            fmt_ns(at_4k),
                            fmt_ns(at_100k),
                            ratio / 2.0,
                        );
                        if ratio > 60.0 {
                            eprintln!(
                                "scale advisory: 100k/4k learn+agg ratio {ratio:.1}x \
                                 exceeds the 60x serial bound (30x on ≥4 cores) — the \
                                 arena rounds' scaling regressed \
                                 (advisory only, gate unaffected)"
                            );
                        }
                    }
                    _ => eprintln!(
                        "BENCH_scale.json lacks the 4k/100k learn_plus_agg rows; \
                         re-run bench_refresh for the advisory"
                    ),
                }
            }
            Err(e) => eprintln!("BENCH_scale.json: {e} (advisory skipped)"),
        }
    }

    std::fs::create_dir_all(&cli.out_dir).expect("create output directory");
    let out = Baseline {
        suite: "profile".to_string(),
        git_rev: git_rev(),
        budget_ms: budget,
        benchmarks: measured,
    };
    let path = cli.out_dir.join("perf_gate_measured.json");
    std::fs::write(&path, out.to_json()).expect("write measured JSON");
    eprintln!("wrote {}", path.display());

    if regressed {
        eprintln!(
            "perf gate FAILED: at least one scenario slowed past {:.0}% of baseline \
             (override with --tolerance, refresh with bench_refresh)",
            100.0 * (1.0 + cli.tolerance)
        );
        std::process::exit(1);
    }
    eprintln!("perf gate passed (tolerance {:.2})", cli.tolerance);
}

//! Tour of the workload substrate: parametric patterns, the
//! Google-cluster-like generator's statistics, and CSV round-tripping.
//!
//! ```sh
//! cargo run --release --example workload_patterns
//! ```

use glap_cluster::{DemandSource, Resources, VmId};
use glap_workload::{save_csv, GoogleLikeTraceGen, OffsetTrace, Pattern};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Renders a value in [0, 1] as a crude ASCII bar.
fn bar(x: f64) -> String {
    let n = (x * 40.0).round() as usize;
    format!("{:<40} {:.2}", "#".repeat(n.min(40)), x)
}

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);

    println!("== parametric patterns (CPU track, every 30th round) ==\n");
    let mut patterns: Vec<(&str, Pattern)> = vec![
        (
            "stable",
            Pattern::Stable {
                level: Resources::splat(0.5),
                noise: 0.02,
            },
        ),
        (
            "mean-reverting",
            Pattern::MeanReverting {
                mean: Resources::splat(0.35),
                phi: 0.9,
                sigma: 0.08,
                state: Resources::splat(0.35),
            },
        ),
        (
            "diurnal",
            Pattern::Diurnal {
                base: Resources::splat(0.45),
                amplitude: 0.3,
                period: 240,
                phase: 0,
                noise: 0.0,
            },
        ),
        (
            "bursty",
            Pattern::Bursty {
                low: Resources::splat(0.1),
                high: Resources::splat(0.85),
                burst_prob: 0.08,
                mean_burst_len: 3.0,
                remaining_burst: 0,
            },
        ),
        (
            "on/off",
            Pattern::OnOff {
                on: Resources::splat(0.7),
                off: Resources::splat(0.05),
                on_rounds: 60,
                off_rounds: 60,
            },
        ),
    ];
    for (name, p) in &mut patterns {
        println!("{name}:");
        for t in (0..240).step_by(30) {
            println!("  r{t:>3} {}", bar(p.sample(t, &mut rng).cpu()));
        }
        println!();
    }

    println!("== Google-cluster-like trace statistics ==\n");
    let gen = GoogleLikeTraceGen::default_stats();
    let trace = gen.generate(500, 720, &mut rng);
    println!("  500 VMs × 720 rounds (one day at 2-minute resolution)");
    println!("  mean CPU utilization of request: {:.3}", trace.mean_cpu());
    println!("  mean MEM utilization of request: {:.3}", trace.mean_mem());
    let rho: f64 = (0..500).map(|vm| trace.cpu_lag1_autocorr(vm)).sum::<f64>() / 500.0;
    println!("  mean lag-1 CPU autocorrelation:  {:.3}", rho);

    // Aggregate demand over the day: the diurnal swing that stresses
    // threshold-based consolidation.
    println!("\n  aggregate CPU demand over the day (normalized to its mean):");
    let mut day = OffsetTrace::new(&trace, 0);
    let totals: Vec<f64> = (0..720)
        .map(|r| {
            (0..500)
                .map(|vm| day.demand(VmId(vm), r).cpu())
                .sum::<f64>()
        })
        .collect();
    let mean = totals.iter().sum::<f64>() / totals.len() as f64;
    for r in (0..720).step_by(60) {
        println!("  h{:>2} {}", r / 30, bar(totals[r] / mean / 2.0));
    }

    let path = std::env::temp_dir().join("glap_example_trace.csv");
    save_csv(&trace, &path).expect("write trace CSV");
    println!(
        "\n  trace saved to {} (schema: vm,round,cpu,mem)",
        path.display()
    );
}

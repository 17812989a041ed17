//! Churn evaluation: VM arrivals/departures during the day, exercising
//! the paper's learning re-trigger ("if the arrival and departure rates
//! of VMs exceed a threshold compared to the last learning time").
//!
//! Compares, on identical churn streams: GLAP with a *stale* pre-trained
//! table, GLAP with churn-triggered re-training, and the three baselines
//! (which need no training and adapt implicitly).

use glap::{train, unified_table, GlapPolicy, RetrainConfig};
use glap_experiments::{
    build_churn_world, build_policy, fnum, parse_or_exit, run_churn_scenario, Algorithm,
    ChurnConfig, Scenario, TextTable,
};
use glap_workload::{GoogleTraceConfig, OffsetTrace};

fn main() {
    let cli = parse_or_exit();
    let size = cli.grid.sizes.first().copied().unwrap_or(200);
    let ratio = cli.grid.ratios.first().copied().unwrap_or(3);

    let mut table = TextTable::new([
        "churn",
        "variant",
        "overloaded_fraction",
        "total_migrations",
        "slav",
        "retrainings",
    ]);

    // A hotter, burstier arrival population: the workload distribution
    // shift that makes stale Q-tables mispredict.
    let hot_arrivals = GoogleTraceConfig {
        cpu_floor: 0.3,
        cpu_ceil: 0.98,
        bursty_fraction: 0.6,
        burst_prob: 0.04,
        burst_boost: 0.7,
        ..GoogleTraceConfig::default()
    };
    let conditions = [
        ("stationary", ChurnConfig::balanced(size * ratio, 0.01)),
        (
            "shifted",
            ChurnConfig::shifted(size * ratio, 0.01, hot_arrivals),
        ),
    ];
    for (cond_name, churn) in conditions {
        // GLAP variants share the pre-trained table construction.
        let glap_variants: [(&str, Option<RetrainConfig>); 2] = [
            ("GLAP-stale", None),
            (
                "GLAP-retrain",
                Some(RetrainConfig {
                    churn_threshold: (size * ratio) / 10,
                    interval: None,
                    learning_window: 30,
                }),
            ),
        ];
        for (name, retrain) in glap_variants {
            let mut frac = 0.0;
            let mut migs = 0.0;
            let mut slav = 0.0;
            let mut retrainings = 0u64;
            for rep in 0..cli.grid.reps {
                let sc = Scenario {
                    rep,
                    rounds: cli.grid.rounds,
                    glap: cli.grid.glap,
                    ..Scenario::paper(size, ratio, rep, Algorithm::Glap)
                };
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
                policy.retrain = retrain;
                let r = run_churn_scenario(&sc, &churn, &mut dc, &trace, &mut policy);
                frac += r.collector.mean_overloaded_fraction();
                migs += r.collector.total_migrations() as f64;
                slav += r.sla.slav;
                retrainings += policy.retrainings;
            }
            let n = cli.grid.reps as f64;
            table.row([
                cond_name.to_string(),
                name.to_string(),
                fnum(frac / n),
                fnum(migs / n),
                fnum(slav / n),
                format!("{:.1}", retrainings as f64 / n),
            ]);
            if cli.verbose {
                eprintln!("churn {cond_name}: {name} done");
            }
        }
        // Baselines.
        for algorithm in [Algorithm::EcoCloud, Algorithm::Grmp, Algorithm::Pabfd] {
            let mut frac = 0.0;
            let mut migs = 0.0;
            let mut slav = 0.0;
            for rep in 0..cli.grid.reps {
                let sc = Scenario {
                    rep,
                    rounds: cli.grid.rounds,
                    glap: cli.grid.glap,
                    ..Scenario::paper(size, ratio, rep, algorithm)
                };
                let (mut dc, trace) = build_churn_world(&sc, &churn);
                let mut policy = build_policy(&sc, &dc, &trace);
                let r = run_churn_scenario(&sc, &churn, &mut dc, &trace, policy.as_mut());
                frac += r.collector.mean_overloaded_fraction();
                migs += r.collector.total_migrations() as f64;
                slav += r.sla.slav;
            }
            let n = cli.grid.reps as f64;
            table.row([
                cond_name.to_string(),
                algorithm.label().to_string(),
                fnum(frac / n),
                fnum(migs / n),
                fnum(slav / n),
                "-".to_string(),
            ]);
        }
    }

    println!("== Churn evaluation ({size} PMs, ratio {ratio}) ==\n");
    print!("{}", table.render());
    println!(
        "\nnote: churn column = per-round departure probability (arrivals balanced); \
         GLAP-stale keeps its pre-trained table all day, GLAP-retrain re-runs the \
         two-phase learning once accumulated churn exceeds 10% of the VM population."
    );
    let path = cli.out_dir.join("churn_eval.csv");
    table.save_csv(&path).expect("write CSV");
    eprintln!("wrote {}", path.display());
}

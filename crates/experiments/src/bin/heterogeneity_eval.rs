//! Heterogeneous-fleet evaluation — extension beyond the paper's
//! micro-only setup. A mixed fleet (60% EC2 micro / 30% m1.small /
//! 10% m1.medium) finally exercises the full calibrated action space:
//! with micros only, every VM action collapses to (Low, Low) and π_out's
//! arg-max is trivial; with large VMs the learned tables must genuinely
//! rank which *class* of VM to evict and which the target can absorb.

use glap::{train, unified_table};
use glap_experiments::{
    build_world, fnum, parse_or_exit, Algorithm, Grid, Scenario, TextTable, VmMix,
};
use glap_qlearn::VmAction;

/// Distinct out-table actions learned under a scenario's fleet — the
/// action-space coverage statistic.
fn action_coverage(sc: &Scenario) -> usize {
    let (mut dc, mut trace) = build_world(sc);
    let (tables, _) = train(&mut dc, &mut trace, &sc.glap, sc.policy_seed(), false);
    let uni = unified_table(&tables);
    let mut seen = std::collections::HashSet::new();
    for (_, a, _) in uni.out.iter_visited() {
        seen.insert(a);
    }
    for (_, a, _) in uni.r#in.iter_visited() {
        seen.insert(a);
    }
    seen.len()
}

fn main() {
    let cli = parse_or_exit();
    let size = cli.grid.sizes.first().copied().unwrap_or(200);
    let ratio = cli.grid.ratios.first().copied().unwrap_or(3);

    // Action-space coverage: micro-only vs mixed.
    let mut base = Scenario {
        rounds: cli.grid.rounds,
        glap: cli.grid.glap,
        ..Scenario::paper(size, ratio, 0, Algorithm::Glap)
    };
    let micro_actions = action_coverage(&base);
    base.vm_mix = VmMix::Mixed;
    let mixed_actions = action_coverage(&base);
    println!("== Heterogeneous fleet ({size} PMs, ratio {ratio}) ==\n");
    println!(
        "distinct VM actions learned: micro-only fleet {micro_actions}, mixed fleet \
         {mixed_actions} (of {} possible)\n",
        glap_qlearn::NUM_STATES
    );
    debug_assert!(VmAction::all().count() == glap_qlearn::NUM_STATES);

    // Full comparison on the mixed fleet.
    let grid = Grid {
        sizes: vec![size],
        ratios: vec![ratio],
        reps: cli.grid.reps,
        rounds: cli.grid.rounds,
        glap: cli.grid.glap,
        trace_cfg: cli.grid.trace_cfg,
    };
    let mut table = TextTable::new([
        "fleet",
        "algorithm",
        "mean_active_pms",
        "overloaded_fraction",
        "total_migrations",
        "slav",
    ]);
    for (fleet_name, mix) in [("micro", VmMix::MicroOnly), ("mixed", VmMix::Mixed)] {
        let mut scenarios = grid.scenarios(&Algorithm::PAPER_SET);
        for sc in &mut scenarios {
            sc.vm_mix = mix;
        }
        let results: Vec<_> = scenarios
            .iter()
            .map(|sc| (sc.clone(), glap_experiments::run_scenario(sc)))
            .collect();
        for algo in Algorithm::PAPER_SET {
            let rs: Vec<_> = results
                .iter()
                .filter(|(sc, _)| sc.algorithm == algo)
                .map(|(_, r)| r)
                .collect();
            if rs.is_empty() {
                continue;
            }
            let n = rs.len() as f64;
            table.row([
                fleet_name.to_string(),
                algo.label().to_string(),
                fnum(
                    rs.iter()
                        .map(|r| r.collector.mean_active_pms())
                        .sum::<f64>()
                        / n,
                ),
                fnum(
                    rs.iter()
                        .map(|r| r.collector.mean_overloaded_fraction())
                        .sum::<f64>()
                        / n,
                ),
                fnum(
                    rs.iter()
                        .map(|r| r.collector.total_migrations() as f64)
                        .sum::<f64>()
                        / n,
                ),
                fnum(rs.iter().map(|r| r.sla.slav).sum::<f64>() / n),
            ]);
        }
        if cli.verbose {
            eprintln!("{fleet_name} fleet done");
        }
    }
    print!("{}", table.render());
    println!(
        "\nnote: with m1.medium VMs a single eviction can move a PM several load levels \
         at once, so π_out's choice among VM classes and π_in's class-aware veto \
         actually matter; GLAP's ordering should persist on the mixed fleet."
    );
    let path = cli.out_dir.join("heterogeneity_eval.csv");
    table.save_csv(&path).expect("write CSV");
    eprintln!("wrote {}", path.display());
}

//! Runs the full evaluation grid once and regenerates every figure and
//! table that depends on it (Figures 6-10, Table I), plus Figure 5's
//! convergence study and the ablations.

use glap_experiments::{
    ablation_summary, fig10_energy, fig5_convergence, fig6_packing, fig7_overloaded,
    fig8_migrations, fig9_cumulative, parse_or_exit, run_grid_with, run_scenario_traced,
    table1_sla, Algorithm,
};
use glap_profile::Profiler;

fn main() {
    let cli = parse_or_exit();

    // Telemetry (--trace / --counters): record the grid's first scenario
    // with a full event trace before the measured sweep.
    let tracer = cli.tracer();
    if tracer.is_on() {
        if let Some(sc) = cli.grid.scenarios(&Algorithm::PAPER_SET).first() {
            eprintln!("tracing scenario {}…", sc.id());
            run_scenario_traced(sc, &tracer);
            tracer.flush();
            cli.write_counters(&tracer).expect("write counter CSVs");
            eprintln!("traced {} events", tracer.events_emitted());
        }
    }

    // Figure 5 is a training-only study (no consolidation day).
    let fig5_size = cli.grid.sizes.first().copied().unwrap_or(1000);
    let f5 = fig5_convergence(
        fig5_size,
        &cli.grid.ratios,
        cli.grid.glap,
        0,
        &Profiler::off(),
    );
    print!("{}", f5.render());
    f5.table
        .save_csv(&cli.out_dir.join("fig5_convergence.csv"))
        .expect("write CSV");

    // One grid run feeds Figures 6-10 and Table I.
    let results = run_grid_with(&cli.grid, &Algorithm::PAPER_SET, &cli);
    let stride = (cli.grid.rounds as usize / 36).max(1);
    let outputs = [
        ("fig6_packing.csv", fig6_packing(&results)),
        ("fig7_overloaded.csv", fig7_overloaded(&results)),
        ("fig8_migrations.csv", fig8_migrations(&results)),
        (
            "fig9_cumulative.csv",
            fig9_cumulative(&results, fig5_size, stride),
        ),
        ("fig10_energy.csv", fig10_energy(&results)),
        ("table1_sla.csv", table1_sla(&results)),
    ];
    for (file, out) in outputs {
        print!("\n{}", out.render());
        out.table
            .save_csv(&cli.out_dir.join(file))
            .expect("write CSV");
    }

    // Ablations on the same grid shape.
    let ab_results = run_grid_with(&cli.grid, &Algorithm::ABLATION_SET, &cli);
    let ab = ablation_summary(&ab_results);
    print!("\n{}", ab.render());
    ab.table
        .save_csv(&cli.out_dir.join("ablations.csv"))
        .expect("write CSV");

    eprintln!("\nCSV files in {}", cli.out_dir.display());
}

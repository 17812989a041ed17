//! Regenerates Figure 5: Q-value convergence during the learning phase
//! (WOG) and the aggregation phase (WG) for VM:PM ratios 2, 3, 4.

use glap_experiments::{fig5_convergence, parse_or_exit};

fn main() {
    let cli = parse_or_exit();
    let n_pms = cli.grid.sizes.first().copied().unwrap_or(1000);
    let profiler = cli.profiler();
    let out = fig5_convergence(n_pms, &cli.grid.ratios, cli.grid.glap, 0, &profiler);
    cli.finish_profile("fig5", &profiler);
    print!("{}", out.render());
    let path = cli.out_dir.join("fig5_convergence.csv");
    out.table.save_csv(&path).expect("write CSV");
    eprintln!("wrote {}", path.display());
}

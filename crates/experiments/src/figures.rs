//! Regeneration of every figure and table in the paper's evaluation
//! (§V-C). Each function either runs the sweep it needs or consumes the
//! shared grid results, and produces a [`TextTable`] that mirrors the
//! figure's series.

use crate::checkpoint::{checkpoint_path, decode_result, done_path, encode_result};
use crate::cli::Cli;
use crate::report::{fnum, TextTable};
use crate::runner::{build_world, run_scenario, run_scenario_instrumented, CheckpointOpts};

use crate::scenario::{Algorithm, Grid, Scenario};
use glap::{train_instrumented, GlapConfig, TrainPhase};
use glap_metrics::{p10_median_p90, RunResult};
use glap_par::parallel_map;
use glap_profile::{Profiler, SweepProgress};
use glap_snapshot::{read_snapshot_file, write_atomic};
use glap_telemetry::{Phase, Tracer};
use std::path::Path;

/// A regenerated figure/table: a title, the data table, and free-form
/// notes (e.g. the paper's headline claims to compare against).
#[derive(Debug, Clone)]
pub struct FigureOutput {
    /// Human-readable title.
    pub title: String,
    /// The regenerated series.
    pub table: TextTable,
    /// Observations / caveats.
    pub notes: Vec<String>,
}

impl FigureOutput {
    /// Renders title + table + notes for stdout.
    pub fn render(&self) -> String {
        let mut out = format!("== {} ==\n\n{}", self.title, self.table.render());
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }
}

/// Runs all scenarios of a grid for the given algorithms, in parallel.
pub fn run_grid(
    grid: &Grid,
    algorithms: &[Algorithm],
    threads: Option<usize>,
    verbose: bool,
) -> Vec<(Scenario, RunResult)> {
    let cli = Cli {
        threads,
        verbose,
        ..Cli::default()
    };
    run_grid_with(grid, algorithms, &cli)
}

/// Runs a grid according to the CLI's flags. `--progress` adds a live
/// stderr ticker (count, rate and ETA per finished cell; observational
/// only). `--checkpoint-dir` makes the sweep crash-safe: each cell
/// writes `<id>.ckpt` every `--checkpoint-every` rounds (default 60) and
/// a CRC-protected `<id>.done` result file on completion. Re-invoking an
/// interrupted sweep over the same directory loads finished cells,
/// resumes interrupted ones from their latest checkpoint (byte-identical
/// to an uninterrupted run) and starts only untouched cells fresh; an
/// unusable checkpoint (corrupt, or the grid changed) is reported and
/// its cell restarts fresh.
pub fn run_grid_with(
    grid: &Grid,
    algorithms: &[Algorithm],
    cli: &Cli,
) -> Vec<(Scenario, RunResult)> {
    let every = Some(cli.checkpoint_every).filter(|&n| n > 0).unwrap_or(60);
    let checkpoints = cli.checkpoint_dir.as_deref().map(|dir| {
        std::fs::create_dir_all(dir).expect("create checkpoint directory");
        (dir, every)
    });
    let scenarios = grid.scenarios(algorithms);
    if cli.verbose {
        eprintln!("running {} scenarios…", scenarios.len());
    }
    let ticker = SweepProgress::new(scenarios.len(), cli.progress);
    let results = parallel_map(scenarios.clone(), cli.threads, |sc| {
        let (r, how) = match checkpoints {
            Some((dir, every)) => run_cell(sc, dir, every),
            None => (run_scenario(sc), ""),
        };
        ticker.cell_done(&sc.id());
        if cli.verbose {
            eprintln!(
                "  {}{how}: active={} overloaded(med)={} migrations={} slav={:.3e}",
                sc.id(),
                r.collector.samples.last().map_or(0, |s| s.active_pms),
                r.collector.overloaded_summary().1,
                r.collector.total_migrations(),
                r.sla.slav,
            );
        }
        r
    });
    scenarios.into_iter().zip(results).collect()
}

/// One checkpointed cell of [`run_grid_with`], with how it ran for the
/// verbose log: loaded from its `.done` file, resumed, or run whole.
fn run_cell(sc: &Scenario, dir: &Path, every: u64) -> (RunResult, &'static str) {
    let done = done_path(dir, sc);
    if done.exists() {
        match read_snapshot_file(&done).and_then(|snap| decode_result(&snap)) {
            Ok(r) => return (r, " (finished earlier)"),
            Err(e) => eprintln!("  {}: unreadable result file ({e}), re-running", sc.id()),
        }
    }
    let ckpt = checkpoint_path(dir, sc);
    let mut opts = CheckpointOpts {
        every,
        dir: Some(dir.to_path_buf()),
        resume: ckpt.exists().then(|| ckpt.clone()),
        stop_at_round: None,
    };
    let resumed = opts.resume.is_some();
    let run = |opts: &CheckpointOpts| {
        run_scenario_instrumented(sc, &Tracer::off(), opts, &Profiler::off(), false)
    };
    let outcome = run(&opts).or_else(|e| {
        // A corrupt or stale checkpoint is loud but not fatal to the
        // sweep: redo the cell from scratch.
        eprintln!("  {}: checkpoint unusable ({e}), restarting cell", sc.id());
        opts.resume = None;
        run(&opts)
    });
    let (result, _) =
        outcome.unwrap_or_else(|e| panic!("{}: checkpoint write failed: {e}", sc.id()));
    let r = result.expect("no stop_at_round: the sweep runs every cell to completion");
    write_atomic(&done, &encode_result(&r))
        .unwrap_or_else(|e| panic!("{}: cannot write result file: {e}", sc.id()));
    std::fs::remove_file(&ckpt).ok();
    (r, if resumed { " (resumed)" } else { "" })
}

/// Iterates the distinct (size, ratio) cells of a result set.
fn cells(results: &[(Scenario, RunResult)]) -> Vec<(usize, usize)> {
    let mut cells: Vec<(usize, usize)> =
        results.iter().map(|(sc, _)| (sc.n_pms, sc.ratio)).collect();
    cells.sort_unstable();
    cells.dedup();
    cells
}

/// Results for one (size, ratio, algorithm) cell.
fn cell_results(
    results: &[(Scenario, RunResult)],
    size: usize,
    ratio: usize,
    algo: Algorithm,
) -> Vec<&RunResult> {
    results
        .iter()
        .filter(|(sc, _)| sc.n_pms == size && sc.ratio == ratio && sc.algorithm == algo)
        .map(|(_, r)| r)
        .collect()
}

fn algorithms_of(results: &[(Scenario, RunResult)]) -> Vec<Algorithm> {
    let mut algos: Vec<Algorithm> = results.iter().map(|(sc, _)| sc.algorithm).collect();
    algos.sort_by_key(|a| a.tag());
    algos.dedup();
    algos
}

// ---------------------------------------------------------------------
// Figure 5 — Q-value convergence (learning phase WOG vs aggregation WG)
// ---------------------------------------------------------------------

/// Regenerates Figure 5: mean pairwise cosine similarity of PM Q-tables
/// per cycle, for each VM:PM ratio, across the learning phase (WOG) and
/// the aggregation phase (WG). Each ratio's training runs under a
/// `fig5_ratio` span of `profiler` with the full `train` span tree below
/// it; the figure data is byte-identical with profiling on or off.
pub fn fig5_convergence(
    n_pms: usize,
    ratios: &[usize],
    glap: GlapConfig,
    seed_base: u64,
    profiler: &Profiler,
) -> FigureOutput {
    let mut table = TextTable::new(["ratio", "phase", "cycle", "cosine_similarity"]);
    let mut finals = Vec::new();
    for &ratio in ratios {
        let sc = Scenario {
            n_pms,
            ratio,
            rep: 0,
            algorithm: Algorithm::Glap,
            rounds: 0,
            glap,
            trace_cfg: Default::default(),
            vm_mix: Default::default(),
            fault: Default::default(),
        };
        let ratio_span = profiler.span("fig5_ratio");
        let (mut dc, mut trace) = {
            let _s = profiler.span("build_world");
            build_world(&sc)
        };
        // A counting tracer turns on the convergence monitor without any
        // sink I/O; its divergence series cross-checks the Figure 5 data.
        let (_tables, report, monitor) = train_instrumented(
            &mut dc,
            &mut trace,
            &glap,
            sc.policy_seed() ^ seed_base,
            true,
            &Tracer::counting(),
            None,
            profiler,
        );
        drop(ratio_span);
        for (phase, cycle, sim) in &report.similarity {
            let phase_name = match phase {
                TrainPhase::Learning => "WOG",
                TrainPhase::Aggregation => "WG",
            };
            table.row([
                ratio.to_string(),
                phase_name.to_string(),
                cycle.to_string(),
                fnum(*sim),
            ]);
        }
        let wog_last = report
            .similarity
            .iter()
            .rfind(|(p, _, _)| *p == TrainPhase::Learning)
            .map_or(0.0, |&(_, _, s)| s);
        let wg_last = report
            .similarity
            .iter()
            .rfind(|(p, _, _)| *p == TrainPhase::Aggregation)
            .map_or(0.0, |&(_, _, s)| s);
        finals.push(format!(
            "ratio {ratio}: WOG plateau {:.3}, WG final {:.3}",
            wog_last, wg_last
        ));
        if let Some(last) = monitor.last() {
            finals.push(format!(
                "ratio {ratio} monitor cross-check: final diameter {:.4}, mean cosine to \
                 unified {:.3}, aggregation diameter non-increasing: {}",
                last.diameter,
                last.mean_cosine_to_ref,
                monitor.diameter_is_nonincreasing(Phase::Aggregation)
            ));
        }
    }
    FigureOutput {
        title: format!("Figure 5 — Q-value convergence ({n_pms} PMs)"),
        table,
        notes: {
            let mut n = finals;
            n.push(
                "paper: learning alone converges to ≈0.45 similarity; gossip aggregation \
                 drives it to 1.0 for all ratios"
                    .into(),
            );
            n
        },
    }
}

// ---------------------------------------------------------------------
// Figure 6 — fraction of overloaded / active PMs, + BFD baseline
// ---------------------------------------------------------------------

/// Regenerates Figure 6 from grid results: per (size, ratio, algorithm)
/// the mean active-PM count, the BFD baseline bins, and the fraction of
/// overloaded over active PMs.
pub fn fig6_packing(results: &[(Scenario, RunResult)]) -> FigureOutput {
    let mut table = TextTable::new([
        "size",
        "ratio",
        "algorithm",
        "mean_active_pms",
        "bfd_baseline",
        "overloaded_fraction",
    ]);
    for (size, ratio) in cells(results) {
        for algo in algorithms_of(results) {
            let rs = cell_results(results, size, ratio, algo);
            if rs.is_empty() {
                continue;
            }
            let mean_active: f64 = rs
                .iter()
                .map(|r| r.collector.mean_active_pms())
                .sum::<f64>()
                / rs.len() as f64;
            let bfd: f64 = rs.iter().map(|r| r.bfd_bins as f64).sum::<f64>() / rs.len() as f64;
            let frac: f64 = rs
                .iter()
                .map(|r| r.collector.mean_overloaded_fraction())
                .sum::<f64>()
                / rs.len() as f64;
            table.row([
                size.to_string(),
                ratio.to_string(),
                algo.label().to_string(),
                fnum(mean_active),
                fnum(bfd),
                fnum(frac),
            ]);
        }
    }
    FigureOutput {
        title: "Figure 6 — overloaded/active PM fraction and packing vs BFD baseline".into(),
        table,
        notes: vec![
            "paper: 75% of GRMP PMs, 58% of PABFD PMs, 22% of EcoCloud PMs but only 12% of \
             GLAP PMs are overloaded; GRMP/PABFD pack below the BFD line at high SLA cost"
                .into(),
        ],
    }
}

// ---------------------------------------------------------------------
// Figure 7 — number of overloaded PMs (median, p10, p90)
// ---------------------------------------------------------------------

/// Regenerates Figure 7: order statistics of the per-round overloaded-PM
/// counts, pooled across repetitions.
pub fn fig7_overloaded(results: &[(Scenario, RunResult)]) -> FigureOutput {
    let mut table = TextTable::new(["size", "ratio", "algorithm", "p10", "median", "p90"]);
    for (size, ratio) in cells(results) {
        for algo in algorithms_of(results) {
            let rs = cell_results(results, size, ratio, algo);
            if rs.is_empty() {
                continue;
            }
            let pooled: Vec<f64> = rs
                .iter()
                .flat_map(|r| r.collector.overloaded_series())
                .collect();
            let (p10, med, p90) = p10_median_p90(&pooled);
            table.row([
                size.to_string(),
                ratio.to_string(),
                algo.label().to_string(),
                fnum(p10),
                fnum(med),
                fnum(p90),
            ]);
        }
    }
    FigureOutput {
        title: "Figure 7 — overloaded PMs per round (p10 / median / p90)".into(),
        table,
        notes: vec![
            "paper: GLAP has the fewest overloaded PMs — 43% less than EcoCloud, 78% less \
             than GRMP, 73% less than PABFD"
                .into(),
        ],
    }
}

// ---------------------------------------------------------------------
// Figure 8 — number of migrations (median, p10, p90)
// ---------------------------------------------------------------------

/// Regenerates Figure 8: order statistics of per-round migration counts.
pub fn fig8_migrations(results: &[(Scenario, RunResult)]) -> FigureOutput {
    let mut table = TextTable::new([
        "size",
        "ratio",
        "algorithm",
        "p10",
        "median",
        "p90",
        "total_mean",
    ]);
    for (size, ratio) in cells(results) {
        for algo in algorithms_of(results) {
            let rs = cell_results(results, size, ratio, algo);
            if rs.is_empty() {
                continue;
            }
            let pooled: Vec<f64> = rs
                .iter()
                .flat_map(|r| r.collector.migration_series())
                .collect();
            let (p10, med, p90) = p10_median_p90(&pooled);
            let total: f64 = rs
                .iter()
                .map(|r| r.collector.total_migrations() as f64)
                .sum::<f64>()
                / rs.len() as f64;
            table.row([
                size.to_string(),
                ratio.to_string(),
                algo.label().to_string(),
                fnum(p10),
                fnum(med),
                fnum(p90),
                fnum(total),
            ]);
        }
    }
    FigureOutput {
        title: "Figure 8 — migrations per round (p10 / median / p90) and mean total".into(),
        table,
        notes: vec![
            "paper: GLAP needs the fewest migrations (−23% vs EcoCloud, −37% vs GRMP, −70% \
             vs PABFD); totals grow with the workload ratio"
                .into(),
        ],
    }
}

// ---------------------------------------------------------------------
// Figure 9 — cumulative migrations over the day
// ---------------------------------------------------------------------

/// Regenerates Figure 9: mean cumulative migration count over time for one
/// cluster size, per ratio and algorithm, sampled every `stride` rounds.
pub fn fig9_cumulative(
    results: &[(Scenario, RunResult)],
    size: usize,
    stride: usize,
) -> FigureOutput {
    let mut table = TextTable::new(["ratio", "algorithm", "round", "cumulative_migrations"]);
    let ratios: Vec<usize> = {
        let mut r: Vec<usize> = results
            .iter()
            .filter(|(sc, _)| sc.n_pms == size)
            .map(|(sc, _)| sc.ratio)
            .collect();
        r.sort_unstable();
        r.dedup();
        r
    };
    for &ratio in &ratios {
        for algo in algorithms_of(results) {
            let rs = cell_results(results, size, ratio, algo);
            if rs.is_empty() {
                continue;
            }
            let series: Vec<Vec<u64>> = rs
                .iter()
                .map(|r| r.collector.cumulative_migrations())
                .collect();
            let rounds = series.iter().map(Vec::len).min().unwrap_or(0);
            let mut round = 0;
            while round < rounds {
                let mean: f64 =
                    series.iter().map(|s| s[round] as f64).sum::<f64>() / series.len() as f64;
                table.row([
                    ratio.to_string(),
                    algo.label().to_string(),
                    round.to_string(),
                    fnum(mean),
                ]);
                round += stride.max(1);
            }
        }
    }
    FigureOutput {
        title: format!("Figure 9 — cumulative migrations over the day ({size} PMs)"),
        table,
        notes: vec![
            "paper: the distributed protocols front-load migrations in early rounds; \
             PABFD grows almost linearly all day"
                .into(),
        ],
    }
}

// ---------------------------------------------------------------------
// Figure 10 — energy overhead of migrations
// ---------------------------------------------------------------------

/// Regenerates Figure 10: mean total migration energy overhead (kJ) per
/// (size, ratio, algorithm).
pub fn fig10_energy(results: &[(Scenario, RunResult)]) -> FigureOutput {
    let mut table = TextTable::new(["size", "ratio", "algorithm", "energy_kj"]);
    for (size, ratio) in cells(results) {
        for algo in algorithms_of(results) {
            let rs = cell_results(results, size, ratio, algo);
            if rs.is_empty() {
                continue;
            }
            let kj: f64 = rs
                .iter()
                .map(|r| r.collector.total_migration_energy_j() / 1000.0)
                .sum::<f64>()
                / rs.len() as f64;
            table.row([
                size.to_string(),
                ratio.to_string(),
                algo.label().to_string(),
                fnum(kj),
            ]);
        }
    }
    FigureOutput {
        title: "Figure 10 — migration energy overhead (kJ)".into(),
        table,
        notes: vec![
            "paper: PABFD consumes the most migration energy, GLAP the least; more \
             migrations does not always mean more energy (VM size and timing matter)"
                .into(),
        ],
    }
}

// ---------------------------------------------------------------------
// Table I — SLA metric
// ---------------------------------------------------------------------

/// Regenerates Table I: the combined SLAV metric for every size-ratio
/// combination (mean across repetitions), one column per algorithm.
pub fn table1_sla(results: &[(Scenario, RunResult)]) -> FigureOutput {
    let algos = algorithms_of(results);
    let mut header: Vec<String> = vec!["size-ratio".into()];
    header.extend(algos.iter().map(|a| a.label().to_string()));
    let mut table = TextTable::new(header);
    for (size, ratio) in cells(results) {
        let mut row = vec![format!("{size}-{ratio}")];
        for &algo in &algos {
            let rs = cell_results(results, size, ratio, algo);
            if rs.is_empty() {
                row.push("-".into());
                continue;
            }
            let slav: f64 = rs.iter().map(|r| r.sla.slav).sum::<f64>() / rs.len() as f64;
            row.push(fnum(slav));
        }
        table.row(row);
    }
    FigureOutput {
        title: "Table I — SLA violation metric (SLAV = SLAVO × SLALM)".into(),
        table,
        notes: vec![
            "paper ordering: GLAP < EcoCloud < PABFD < GRMP, rising with workload ratio".into(),
        ],
    }
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// Summarizes the GLAP ablation variants: overloaded fraction, migrations
/// and SLAV against the full protocol.
pub fn ablation_summary(results: &[(Scenario, RunResult)]) -> FigureOutput {
    let mut table = TextTable::new([
        "size",
        "ratio",
        "variant",
        "overloaded_fraction",
        "total_migrations",
        "slav",
        "mean_active",
    ]);
    for (size, ratio) in cells(results) {
        for algo in algorithms_of(results) {
            let rs = cell_results(results, size, ratio, algo);
            if rs.is_empty() {
                continue;
            }
            let frac: f64 = rs
                .iter()
                .map(|r| r.collector.mean_overloaded_fraction())
                .sum::<f64>()
                / rs.len() as f64;
            let mig: f64 = rs
                .iter()
                .map(|r| r.collector.total_migrations() as f64)
                .sum::<f64>()
                / rs.len() as f64;
            let slav: f64 = rs.iter().map(|r| r.sla.slav).sum::<f64>() / rs.len() as f64;
            let act: f64 = rs
                .iter()
                .map(|r| r.collector.mean_active_pms())
                .sum::<f64>()
                / rs.len() as f64;
            table.row([
                size.to_string(),
                ratio.to_string(),
                algo.label().to_string(),
                fnum(frac),
                fnum(mig),
                fnum(slav),
                fnum(act),
            ]);
        }
    }
    FigureOutput {
        title: "Ablations — GLAP variants (no veto / current-only states / no aggregation)".into(),
        table,
        notes: vec![
            "expected: removing the in-veto or the average-demand signal raises overloads; \
             removing aggregation leaves PMs with partial knowledge"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> Grid {
        Grid {
            sizes: vec![30],
            ratios: vec![2],
            reps: 1,
            rounds: 40,
            glap: GlapConfig {
                learning_rounds: 15,
                aggregation_rounds: 8,
                ..GlapConfig::default()
            },
            trace_cfg: Default::default(),
        }
    }

    #[test]
    fn grid_run_produces_all_results() {
        let g = tiny_grid();
        let results = run_grid(&g, &Algorithm::PAPER_SET, Some(1), false);
        assert_eq!(results.len(), 4);
        let f6 = fig6_packing(&results);
        assert_eq!(f6.table.len(), 4);
        let f7 = fig7_overloaded(&results);
        assert_eq!(f7.table.len(), 4);
        let f8 = fig8_migrations(&results);
        assert_eq!(f8.table.len(), 4);
        let f10 = fig10_energy(&results);
        assert_eq!(f10.table.len(), 4);
        let t1 = table1_sla(&results);
        assert_eq!(t1.table.len(), 1);
    }

    #[test]
    fn checkpointed_grid_matches_plain_grid_and_skips_finished_cells() {
        let g = tiny_grid();
        let algos = [Algorithm::Grmp, Algorithm::Pabfd];
        let dir = std::env::temp_dir().join(format!("glap-ckpt-grid-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let cli = Cli {
            threads: Some(1),
            checkpoint_every: 10,
            checkpoint_dir: Some(dir.clone()),
            ..Cli::default()
        };
        let plain = run_grid(&g, &algos, Some(1), false);
        let swept = run_grid_with(&g, &algos, &cli);
        assert_eq!(plain.len(), swept.len());
        for ((sa, ra), (sb, rb)) in plain.iter().zip(&swept) {
            assert_eq!(sa.id(), sb.id());
            assert_eq!(ra.collector.samples, rb.collector.samples);
            assert_eq!(ra.sla, rb.sla);
        }
        // Every cell left a .done marker and no lingering .ckpt.
        for (sc, _) in &swept {
            assert!(done_path(&dir, sc).exists());
            assert!(!checkpoint_path(&dir, sc).exists());
        }
        // A second sweep over the same directory loads the results
        // instead of recomputing (identical output either way).
        let again = run_grid_with(&g, &algos, &cli);
        for ((_, ra), (_, rb)) in swept.iter().zip(&again) {
            assert_eq!(ra.collector.samples, rb.collector.samples);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fig9_samples_with_stride() {
        let g = tiny_grid();
        let results = run_grid(&g, &[Algorithm::Glap], Some(1), false);
        let f9 = fig9_cumulative(&results, 30, 10);
        // 40 rounds / stride 10 → 4 samples.
        assert_eq!(f9.table.len(), 4);
    }

    #[test]
    fn fig5_produces_both_phases() {
        let glap = GlapConfig {
            learning_rounds: 8,
            aggregation_rounds: 5,
            ..GlapConfig::default()
        };
        let out = fig5_convergence(25, &[2], glap, 7, &Profiler::off());
        // 8 learning + 5 aggregation rows.
        assert_eq!(out.table.len(), 13);
    }

    #[test]
    fn render_includes_title_and_notes() {
        let g = tiny_grid();
        let results = run_grid(&g, &[Algorithm::Glap], Some(1), false);
        let out = fig6_packing(&results);
        let s = out.render();
        assert!(s.contains("Figure 6"));
        assert!(s.contains("note:"));
    }
}

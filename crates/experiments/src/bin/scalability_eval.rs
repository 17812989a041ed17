//! Scalability study: GLAP's core claim is that it consolidates "without
//! sacrificing scalability" — per-PM work is constant per round (one
//! gossip exchange, O(view) peer sampling, O(|VMs|) decision making), so
//! total simulation cost should grow linearly with the cluster while a
//! centralized algorithm like PABFD (global scans per round) grows
//! super-linearly.
//!
//! All timing comes from the wall-clock profiler's span tree — the same
//! instrumentation `--profile` exposes — rather than ad-hoc stopwatch
//! calls: the measured day is the `measured_day` span, training is the
//! `train` span, and the learning phase's *effective parallel speedup*
//! is the per-worker busy time (`worker_busy`, summed across workers)
//! over the `local_train` wall time it was compressed into.

use glap_experiments::{
    fnum, parse_or_exit, run_scenario_instrumented, Algorithm, CheckpointOpts, Scenario, TextTable,
};
use glap_par::resolve_threads;
use glap_profile::{alloc_stats, peak_rss_bytes, Profiler};
use glap_telemetry::Tracer;

// Count every heap allocation so the table can attribute allocator churn
// to each cell. Observational: results are identical with or without it.
#[global_allocator]
static ALLOC: glap_profile::CountingAllocator = glap_profile::CountingAllocator;

fn main() {
    let cli = parse_or_exit();
    // The learning phase fans out over this many workers (`--threads`,
    // `GLAP_THREADS`, or all cores); record it — this is a timing study.
    let threads = resolve_threads(cli.threads);
    let sizes = if cli.grid.sizes.len() > 1 {
        cli.grid.sizes.clone()
    } else {
        vec![250, 500, 1000, 2000]
    };
    let ratio = cli.grid.ratios.first().copied().unwrap_or(3);
    let rounds = cli.grid.rounds.min(240); // wall-clock study, not SLA study

    // (size, allocs) of every GLAP cell, for the alloc-collapse guard
    // asserted after the table renders.
    let mut glap_alloc_cells: Vec<(usize, u64)> = Vec::new();
    let mut table = TextTable::new([
        "size",
        "algorithm",
        "total_s",
        "ms_per_round",
        "us_per_pm_round",
        "train_s",
        "learn_speedup",
        "migrations",
        "bytes_tx",
        "bytes_rx",
        "allocs",
        "alloc_mb",
        "peak_rss_mb",
    ]);
    for &size in &sizes {
        for algorithm in [Algorithm::Glap, Algorithm::Pabfd] {
            let (allocs_before, alloc_bytes_before) = alloc_stats();
            let sc = Scenario {
                rounds,
                glap: cli.grid.glap,
                ..Scenario::paper(size, ratio, 0, algorithm)
            };
            // A fresh enabled profiler per cell: its root span covers
            // exactly this scenario run. The counting tracer feeds the
            // bytes columns; counting is observational (results are
            // byte-identical with it on or off).
            let profiler = Profiler::enabled();
            let tracer = Tracer::counting();
            let (result, _) = run_scenario_instrumented(
                &sc,
                &tracer,
                &CheckpointOpts::default(),
                &profiler,
                cli.progress,
            )
            .expect("no checkpoint I/O configured");
            let r = result.expect("runs to completion");
            let report = profiler.snapshot();
            let total_s = report.total_ns as f64 / 1e9;
            let day_ns = report.span("measured_day").map_or(0, |s| s.total_ns);
            let ms_per_round = day_ns as f64 / 1e6 / rounds as f64;
            let train_ns = report.span("build_policy/train").map_or(0, |s| s.total_ns);
            // Effective learning-phase speedup: total worker busy time /
            // the wall time of the parallel local-training sections. 1.0
            // means sequential; `threads` means perfect scaling.
            let speedup = match (
                report.span("build_policy/train/learn_round/local_train"),
                report.span("build_policy/train/learn_round/local_train/worker_busy"),
            ) {
                (Some(wall), Some(busy)) if wall.total_ns > 0 => {
                    busy.total_ns as f64 / wall.total_ns as f64
                }
                _ => 0.0,
            };
            table.row([
                size.to_string(),
                algorithm.label().to_string(),
                fnum(total_s),
                fnum(ms_per_round),
                fnum(ms_per_round * 1000.0 / size as f64),
                fnum(train_ns as f64 / 1e9),
                fnum(speedup),
                r.collector.total_migrations().to_string(),
                tracer.counter_total("net.bytes_tx").to_string(),
                tracer.counter_total("net.bytes_rx").to_string(),
                {
                    let (allocs_after, _) = alloc_stats();
                    let allocs = allocs_after - allocs_before;
                    if algorithm == Algorithm::Glap {
                        glap_alloc_cells.push((size, allocs));
                    }
                    allocs.to_string()
                },
                {
                    let (_, alloc_bytes_after) = alloc_stats();
                    fnum((alloc_bytes_after - alloc_bytes_before) as f64 / 1e6)
                },
                // Process high-water mark *so far* — monotone across
                // cells, so the largest size's row is the budget number.
                peak_rss_bytes().map_or_else(|| "n/a".into(), |b| fnum(b as f64 / 1e6)),
            ]);
            if cli.verbose {
                eprintln!("{} at {size} PMs: {total_s:.1}s", algorithm.label());
            }
        }
    }

    println!(
        "== Scalability ({rounds} rounds, ratio {ratio}, {threads} worker thread(s); \
         includes GLAP training) ==\n"
    );
    print!("{}", table.render());
    println!(
        "\nnote: the per-PM-per-round cost column is the scalability claim — flat for \
         GLAP (constant gossip work per PM), growing with size for the centralized \
         PABFD (its placement scans all hosts for every migrating VM). learn_speedup \
         is the learning phase's effective parallelism (worker busy time over wall \
         time, from the profiler's span tree): 1.0 = sequential, {threads} = perfect \
         scaling on this worker count. bytes_tx/bytes_rx count the gossip traffic \
         (per-PM traffic should stay flat with size). allocs / \
         alloc_mb are heap-allocator calls and requested MB attributed to the cell; \
         peak_rss_mb is the process resident high-water mark so far (monotone — read \
         the last row as the run's memory budget)."
    );
    let path = cli.out_dir.join("scalability_eval.csv");
    table.save_csv(&path).expect("write CSV");
    eprintln!("wrote {}", path.display());

    // Alloc-collapse regression guard: with the sparse Q-table arena (a
    // slot grows by amortised doubling, merges reuse its capacity) and
    // the reused per-PM scratch buffers,
    // a GLAP cell's allocator traffic is a handful of calls per PM per
    // round — gossip descriptors and policy bookkeeping — not the
    // per-PM/per-iteration churn of boxed tables and rebuilt profile
    // lists (measured ~6 allocs per PM-round at 250–1000 PMs; per-
    // iteration churn would sit at 40+). The bound is loose on purpose:
    // it only trips when per-round allocation grows by an order of
    // magnitude.
    const MAX_ALLOCS_PER_PM_ROUND: f64 = 32.0;
    let effective_rounds =
        rounds + cli.grid.glap.learning_rounds as u64 + cli.grid.glap.aggregation_rounds as u64;
    for &(size, allocs) in &glap_alloc_cells {
        let per_pm_round = allocs as f64 / (size as f64 * effective_rounds as f64);
        assert!(
            per_pm_round <= MAX_ALLOCS_PER_PM_ROUND,
            "GLAP at {size} PMs made {allocs} heap allocations \
             ({per_pm_round:.1} per PM-round over {effective_rounds} train+measured rounds, \
             budget {MAX_ALLOCS_PER_PM_ROUND}) — the arena's per-round allocation \
             collapse regressed"
        );
    }
    eprintln!(
        "alloc guard ok: every GLAP cell under {MAX_ALLOCS_PER_PM_ROUND} allocations \
         per PM-round"
    );
}

//! Runs exactly one scenario (the grid's first size/ratio, repetition 0)
//! with full checkpoint/resume support — the harness behind the
//! interrupt/resume smoke tests and handy for long single runs.
//!
//! ```text
//! single_run --algo GRMP --rounds 120 --checkpoint-every 40 \
//!            --checkpoint-dir ckpts --stop-at-round 40 --trace part1.jsonl
//! single_run --algo GRMP --rounds 120 --checkpoint-every 40 \
//!            --checkpoint-dir ckpts --resume ckpts/GRMP-100x2-r0.ckpt \
//!            --trace part2.jsonl
//! ```
//!
//! concatenating `part1.jsonl` + `part2.jsonl` reproduces the trace of
//! an uninterrupted run byte for byte, as do the rounds/counters CSVs.
//! `--drop`/`--crash`/`--recover` inject network faults into the day.

use glap_experiments::{parse_or_exit, rounds_csv, run_scenario_instrumented};

fn main() {
    let cli = parse_or_exit();
    let sc = cli.scenario();
    let tracer = cli.tracer();
    let opts = cli.checkpoint_opts();
    if let Some(dir) = &opts.dir {
        std::fs::create_dir_all(dir).expect("create checkpoint directory");
    }

    let profiler = cli.profiler();
    let (result, _) = run_scenario_instrumented(&sc, &tracer, &opts, &profiler, cli.progress)
        .unwrap_or_else(|e| {
            eprintln!("{}: {e}", sc.id());
            std::process::exit(1);
        });
    cli.finish_profile(&sc.id(), &profiler);
    tracer.flush();
    cli.write_counters(&tracer).expect("write counter CSVs");

    match result {
        Some(r) => {
            std::fs::create_dir_all(&cli.out_dir).expect("create output directory");
            let path = cli.out_dir.join(format!("{}_rounds.csv", sc.id()));
            std::fs::write(&path, rounds_csv(&r)).expect("write rounds CSV");
            println!(
                "{}: {} rounds, final active {}, {} migrations, {} wake-ups, slav {:.6e}",
                sc.id(),
                r.collector.samples.len(),
                r.collector.samples.last().map_or(0, |s| s.active_pms),
                r.collector.total_migrations(),
                r.wake_ups,
                r.sla.slav,
            );
            eprintln!("wrote {}", path.display());
        }
        None => {
            println!(
                "{}: stopped at round {} of {} (resume with --resume)",
                sc.id(),
                opts.stop_at_round.unwrap_or(sc.rounds),
                sc.rounds
            );
        }
    }
}

//! Runs one scenario with GLAP training hosted on real nodes behind a
//! chosen transport (the grid's first size/ratio, repetition 0) —
//! the byte-identity harness for the NodeCore/Transport split.
//!
//! ```text
//! node_runtime --transport sim     --sizes 64 --dump-tables sim.bin
//! node_runtime --transport channel --sizes 64 --threads 4 \
//!              --dump-tables chan.bin
//! cmp sim.bin chan.bin   # identical: same Q-tables, bit for bit
//! ```
//!
//! The rounds CSV, counters CSV and dumped tables of a `--transport
//! channel` run match the `--transport sim` run byte for byte at any
//! worker count, with or without `--drop`/`--crash`/`--recover` fault
//! injection — CI diffs exactly these artifacts. Checkpointing flags
//! (`--checkpoint-every`/`--stop-at-round`/`--resume`) interrupt and
//! resume the *training* phase.

use glap_experiments::{parse_or_exit, rounds_csv, run_node_scenario_instrumented};

fn main() {
    let cli = parse_or_exit();
    let sc = cli.scenario();
    let tracer = cli.tracer();
    let opts = cli.checkpoint_opts();
    if let Some(dir) = &opts.dir {
        std::fs::create_dir_all(dir).expect("create checkpoint directory");
    }

    let profiler = cli.profiler();
    let outcome =
        run_node_scenario_instrumented(&sc, cli.transport, cli.threads, &tracer, &opts, &profiler)
            .unwrap_or_else(|e| {
                eprintln!("{}: {e}", sc.id());
                std::process::exit(1);
            });
    cli.finish_profile(&format!("{}_node", sc.id()), &profiler);
    tracer.flush();
    cli.write_counters(&tracer).expect("write counter CSVs");

    if let (Some(path), Some(bytes)) = (&cli.dump_tables, &outcome.tables) {
        std::fs::write(path, bytes).expect("write table dump");
        eprintln!("wrote {} ({} bytes)", path.display(), bytes.len());
    }

    match outcome.result {
        Some(r) => {
            std::fs::create_dir_all(&cli.out_dir).expect("create output directory");
            let path = cli.out_dir.join(format!("{}_rounds.csv", sc.id()));
            std::fs::write(&path, rounds_csv(&r)).expect("write rounds CSV");
            println!(
                "{} [{:?}]: {} rounds, final active {}, {} migrations, {} wake-ups, slav {:.6e}",
                sc.id(),
                cli.transport,
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
                "{}: training stopped at round {} (resume with --resume)",
                sc.id(),
                opts.stop_at_round.unwrap_or(0),
            );
        }
    }
}

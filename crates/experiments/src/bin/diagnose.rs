//! Diagnostic tool: runs one GLAP scenario and dumps protocol internals
//! (trained-table coverage, veto counts, per-phase migration activity) —
//! useful when tuning trace dynamics or reward shapes.
//!
//! With `--replay trace.jsonl` it instead parses a previously recorded
//! JSONL event trace (strictly — every line must be byte for byte what
//! `Event::to_json`, the schema, writes for the event it decodes to)
//! and prints a per-round digest: drop/timeout counts, veto and abort
//! tallies, crashes, and the convergence series. A line that is not
//! exits 1, naming the line.
//!
//! `--trace file` / `--counters file` record the diagnosed run itself.

use glap::{train_instrumented, unified_table, GlapPolicy, TableStore};
use glap_dcsim::{run_simulation_profiled, NetworkModel};
use glap_experiments::{build_world, parse_or_exit, replay_digest, Algorithm, Scenario};
use glap_metrics::MetricsCollector;
use glap_profile::Profiler;
use glap_qlearn::{Level, PmState, VmAction};
use glap_telemetry::Phase;
use glap_workload::OffsetTrace;
use std::fs::File;
use std::io::BufReader;

fn main() {
    let cli = parse_or_exit();

    if let Some(path) = &cli.replay {
        let file = File::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open {}: {e}", path.display());
            std::process::exit(2);
        });
        match replay_digest(BufReader::new(file)) {
            Ok(digest) => print!("{}", digest.render()),
            Err(msg) => {
                eprintln!("replay failed: {msg}");
                std::process::exit(1);
            }
        }
        return;
    }

    let sc = Scenario {
        n_pms: cli.grid.sizes[0],
        ratio: cli.grid.ratios[0],
        rep: 0,
        algorithm: Algorithm::Glap,
        rounds: cli.grid.rounds,
        glap: cli.grid.glap,
        trace_cfg: cli.grid.trace_cfg,
        vm_mix: Default::default(),
        fault: Default::default(),
    };
    let (mut dc, trace) = build_world(&sc);
    let tracer = cli.tracer();

    let mut train_dc = dc.clone();
    let (arena, report, monitor) = train_instrumented(
        &mut train_dc,
        &mut OffsetTrace::new(&trace, 0),
        &sc.glap,
        sc.policy_seed(),
        false,
        &tracer,
        None,
        &Profiler::off(),
    );
    let uni = unified_table(arena.slots());
    println!(
        "training: {} PMs trained, {} updates, unified pairs out={} in={}",
        report.pms_trained,
        report.updates,
        uni.out.visited_count(),
        uni.r#in.visited_count()
    );
    if let Some(last) = monitor.last() {
        println!(
            "convergence monitor: final diameter {:.6}, mean cosine {:.6}, \
             aggregation diameter non-increasing: {}",
            last.diameter,
            last.mean_cosine_to_ref,
            monitor.diameter_is_nonincreasing(Phase::Aggregation)
        );
    }

    // Out-table coverage by state CPU level.
    println!("\nout-table coverage by sender state (rows with any visited action):");
    for cpu in Level::ALL {
        let mut covered = 0;
        let mut total = 0;
        for s in PmState::all().filter(|s| s.cpu == cpu) {
            total += 1;
            if VmAction::all().any(|a| uni.out.is_visited(s, a)) {
                covered += 1;
            }
        }
        println!("  cpu={cpu:?}: {covered}/{total}");
    }
    let neg_in = uni.r#in.iter_visited().filter(|&(_, _, v)| v < 0.0).count();
    println!(
        "in-table: {} visited, {} negative (veto) entries",
        uni.r#in.visited_count(),
        neg_in
    );
    println!("\nin-table entries (state, action, value):");
    let mut entries: Vec<_> = uni.r#in.iter_visited().collect();
    entries.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap());
    for (s, a, v) in &entries {
        println!("  {s} {a} {v:.1}");
    }

    let mut policy = GlapPolicy::new(sc.glap, TableStore::Shared(Box::new(uni)));
    let mut day = OffsetTrace::new(&trace, sc.glap.learning_rounds as u64);
    let mut collector = MetricsCollector::new();
    let mut net = NetworkModel::ideal(sc.n_pms);
    run_simulation_profiled(
        &mut dc,
        &mut day,
        &mut policy,
        &mut [&mut collector],
        sc.rounds,
        sc.policy_seed(),
        &mut net,
        &tracer,
        &Profiler::off(),
    );

    println!(
        "\nday: {} migrations, {} vetoes, {} wake-ups, final active {}/{} PMs, \
         overloaded fraction {:.4}",
        collector.total_migrations(),
        policy.vetoes,
        collector.total_wake_ups(),
        dc.active_pm_count(),
        dc.n_pms(),
        collector.mean_overloaded_fraction()
    );
    // Utilization histogram of active PMs at the end.
    let mut hist = [0usize; 10];
    for pm in dc.pms().filter(|p| p.is_active()) {
        let u = pm.utilization().cpu().min(0.999);
        hist[(u * 10.0) as usize] += 1;
    }
    println!("final active-PM CPU histogram (0.0-1.0 in tenths): {hist:?}");

    if tracer.is_on() {
        println!("telemetry: {} events emitted", tracer.events_emitted());
    }
    tracer.flush();
    cli.write_counters(&tracer).expect("write counter CSVs");
}

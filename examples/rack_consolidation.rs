//! Topology-aware consolidation (the paper's future work, implemented):
//! watch rack-aware GLAP drain whole racks so their top-of-rack switches
//! can power down, versus standard GLAP leaving every rack partially
//! occupied.
//!
//! ```sh
//! cargo run --release --example rack_consolidation
//! ```

use glap::{train, unified_table, GlapConfig, GlapPolicy};
use glap_cluster::{DataCenter, DataCenterConfig, Topology, VmSpec};
use glap_dcsim::{run_simulation, stream_rng, Stream};
use glap_workload::{GoogleLikeTraceGen, OffsetTrace};

fn occupancy_bar(occ: &[usize], per_rack: usize) -> String {
    occ.iter()
        .map(|&o| {
            let tenths = (o as f64 / per_rack as f64 * 8.0).round() as usize;
            match tenths {
                0 => " off ".to_string(),
                t => format!("[{:<8}]", "#".repeat(t.min(8))),
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn run(rack_aware: bool) -> (DataCenter, Topology) {
    let seed = 11;
    let n_pms = 120;
    let topology = Topology {
        pms_per_rack: 15,
        ..Topology::default()
    };
    let cfg = GlapConfig {
        learning_rounds: 40,
        aggregation_rounds: 12,
        ..Default::default()
    };

    let mut dc = DataCenter::new(DataCenterConfig::paper_with_topology(n_pms, topology));
    for _ in 0..n_pms * 3 {
        dc.add_vm(VmSpec::EC2_MICRO);
    }
    dc.random_placement(&mut stream_rng(seed, Stream::Placement));
    let trace = GoogleLikeTraceGen::default_stats().generate(
        n_pms * 3,
        cfg.learning_rounds + 480,
        &mut stream_rng(seed, Stream::Trace),
    );

    let mut train_dc = dc.clone();
    let (tables, _) = train(
        &mut train_dc,
        &mut OffsetTrace::new(&trace, 0),
        &cfg,
        seed,
        false,
    );
    let mut policy = GlapPolicy::with_shared_table(cfg, unified_table(&tables));
    policy.rack_aware = rack_aware;

    let mut day = OffsetTrace::new(&trace, cfg.learning_rounds as u64);
    run_simulation(&mut dc, &mut day, &mut policy, &mut [], 480, seed);
    (dc, topology)
}

fn main() {
    println!("120 PMs in 8 racks of 15, 360 VMs, 16 simulated hours\n");
    for (name, rack_aware) in [("standard GLAP", false), ("rack-aware GLAP", true)] {
        let (dc, topo) = run(rack_aware);
        let occ = topo.rack_occupancy(&dc);
        println!("{name}:");
        println!(
            "  rack occupancy  {}",
            occupancy_bar(&occ, topo.pms_per_rack)
        );
        println!(
            "  active PMs {}  |  powered racks {} of {}  |  switch power {:.0} W",
            dc.active_pm_count(),
            topo.active_racks(&dc),
            topo.rack_count(dc.n_pms()),
            topo.switch_power_w(&dc),
        );
        println!();
    }
    println!(
        "rack-aware GLAP ranks racks and routes consolidation down the ranking, so \
         entire racks empty and their switches power off — the energy the paper's \
         future work goes after."
    );
}

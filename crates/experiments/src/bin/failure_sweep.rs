//! Failure sweep: how GLAP degrades when the management network does.
//!
//! The paper's evaluation assumes a perfectly reliable network; this
//! experiment injects message loss and PM crash/recovery through the
//! [`glap_dcsim::NetworkModel`] and measures, per (drop rate, crash rate)
//! cell:
//!
//! * total energy (active-PM power integrated over the day plus migration
//!   energy, in kWh),
//! * SLA violations (the paper's SLAV = SLAVO × SLALM),
//! * migrations completed,
//! * mean active PMs, and
//! * how many aggregation gossip rounds divergent Q-tables need to reach
//!   0.999 mean pairwise cosine similarity under that fault profile —
//!   the convergence cost of re-sends and crashed partners.
//!
//! Output: `results/failure_sweep.csv`.

use glap::prelude::*;
use glap_cluster::DataCenter;
use glap_dcsim::{run_simulation_with_net, Observer};
use glap_experiments::{
    build_policy, build_world, fnum, parse_or_exit, Algorithm, Scenario, TextTable,
};
use glap_metrics::{sla_metrics, MetricsCollector};
use glap_par::parallel_map;
use glap_qlearn::{PmState, QTablePair, VmAction};
use glap_workload::OffsetTrace;
use rand::Rng;

/// Drop rates swept (0.2 is the acceptance point of the fault layer).
const DROP_RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.3];
/// Per-round crash hazards swept (recovery rate fixed at 0.3).
const CRASH_RATES: [f64; 3] = [0.0, 0.01, 0.03];
const RECOVERY_RATE: f64 = 0.3;
/// Give up on table convergence after this many aggregation rounds.
const CONVERGENCE_CAP: usize = 200;

/// Integrates active-PM power over the day (trapezoid-free: one sample
/// per 2-minute round is the simulator's native resolution).
struct EnergyMeter {
    joules: f64,
}

impl Observer for EnergyMeter {
    fn on_round_end(&mut self, _round: u64, dc: &mut DataCenter) {
        let secs = dc.config().round_seconds;
        for pm in dc.pms() {
            if pm.is_active() {
                self.joules += dc.power_model().watts(pm.utilization().cpu()) * secs;
            }
        }
    }
}

struct CellResult {
    drop_rate: f64,
    crash_rate: f64,
    energy_kwh: f64,
    slav: f64,
    migrations: u64,
    mean_active: f64,
    convergence_rounds: usize,
    /// Gossip bytes pushed / received during the convergence run.
    bytes_tx: u64,
    bytes_rx: u64,
    delivered_frac: f64,
}

/// A maximally divergent table: every (state, action) value is an
/// independent symmetric uniform draw, so two fresh tables have ~zero
/// expected cosine similarity (unlike `glap::synthetic_table`, whose
/// shared deterministic structure makes tables near-identical already).
fn divergent_table(rng: &mut impl Rng) -> QTablePair {
    let mut q = QTablePair::new(Default::default());
    for s in PmState::all() {
        for a in VmAction::all() {
            q.out.set(s, a, rng.gen_range(-1.0..1.0));
            q.r#in.set(s, a, rng.gen_range(-1.0..1.0));
        }
    }
    q
}

/// Aggregation rounds until fully divergent tables reach 0.999 mean
/// pairwise cosine similarity over `profile`, or the cap — plus the
/// gossip bytes pushed (`net.bytes_tx`) and received (`net.bytes_rx`)
/// getting there.
fn convergence_rounds(n: usize, profile: &FaultProfile, seed: u64) -> (usize, u64, u64) {
    let mut rng = stream_rng(seed, Stream::Custom(77));
    let mut overlay = CyclonOverlay::new(n, 8, 4);
    overlay.bootstrap_random(&mut rng);
    let mut tables: Vec<QTablePair> = (0..n).map(|_| divergent_table(&mut rng)).collect();
    let mut net = NetworkModel::new(n, profile.clone(), seed);
    let tracer = Tracer::counting();
    let mut rounds = CONVERGENCE_CAP;
    for round in 0..CONVERGENCE_CAP {
        if mean_pairwise_similarity(&tables[..], &overlay, usize::MAX, &mut rng) > 0.999 {
            rounds = round;
            break;
        }
        net.begin_round(round as u64);
        overlay.run_round(
            &mut rng,
            RoundIo::contact(&mut |a, b| net.request(a, b).is_ok()),
        );
        let io = AggIo::full(&mut net, &tracer);
        aggregation_round(&mut tables, &mut overlay, &mut rng, None, io);
    }
    (
        rounds,
        tracer.counter_total("net.bytes_tx"),
        tracer.counter_total("net.bytes_rx"),
    )
}

fn run_cell(sc: &Scenario) -> CellResult {
    let profile = sc.fault.clone();
    let (mut dc, trace) = build_world(sc);
    let mut policy = build_policy(sc, &dc, &trace);
    let mut day = OffsetTrace::new(&trace, sc.glap.learning_rounds as u64);
    let mut collector = MetricsCollector::new();
    let mut energy = EnergyMeter { joules: 0.0 };
    let mut net = NetworkModel::new(sc.n_pms, profile.clone(), sc.policy_seed());
    run_simulation_with_net(
        &mut dc,
        &mut day,
        policy.as_mut(),
        &mut [&mut collector, &mut energy],
        sc.rounds,
        sc.policy_seed(),
        &mut net,
    );
    let sla = sla_metrics(&dc);
    let delivered_frac = if net.stats.attempts == 0 {
        1.0
    } else {
        net.stats.delivered as f64 / net.stats.attempts as f64
    };
    let (conv_rounds, bytes_tx, bytes_rx) =
        convergence_rounds(sc.n_pms, &profile, sc.policy_seed());
    CellResult {
        drop_rate: profile.drop_prob,
        crash_rate: profile.crash_rate,
        energy_kwh: (energy.joules + collector.total_migration_energy_j()) / 3.6e6,
        slav: sla.slav,
        migrations: collector.total_migrations(),
        mean_active: collector.mean_active_pms(),
        convergence_rounds: conv_rounds,
        bytes_tx,
        bytes_rx,
        delivered_frac,
    }
}

fn main() {
    let cli = parse_or_exit();
    let size = cli.grid.sizes.first().copied().unwrap_or(100);
    let ratio = cli.grid.ratios.first().copied().unwrap_or(3);

    let mut scenarios = Vec::new();
    for &drop in &DROP_RATES {
        for &crash in &CRASH_RATES {
            let mut sc = Scenario::paper(size, ratio, 0, Algorithm::Glap);
            sc.rounds = cli.grid.rounds;
            sc.glap = cli.grid.glap;
            sc.trace_cfg = cli.grid.trace_cfg;
            sc.fault = FaultProfile {
                drop_prob: drop,
                crash_rate: crash,
                recovery_rate: if crash > 0.0 { RECOVERY_RATE } else { 0.0 },
                ..FaultProfile::none()
            };
            scenarios.push(sc);
        }
    }

    let results = parallel_map(scenarios, cli.threads, run_cell);

    let mut table = TextTable::new([
        "drop_rate",
        "crash_rate",
        "energy_kwh",
        "slav",
        "migrations",
        "mean_active_pms",
        "agg_convergence_rounds",
        "bytes_tx",
        "bytes_rx",
        "delivered_frac",
    ]);
    for r in &results {
        table.row([
            format!("{}", r.drop_rate),
            format!("{}", r.crash_rate),
            fnum(r.energy_kwh),
            format!("{:.6}", r.slav),
            r.migrations.to_string(),
            fnum(r.mean_active),
            r.convergence_rounds.to_string(),
            r.bytes_tx.to_string(),
            r.bytes_rx.to_string(),
            fnum(r.delivered_frac),
        ]);
    }

    println!(
        "== GLAP under network faults ({size} PMs, ratio {ratio}, {} rounds) ==\n",
        cli.grid.rounds
    );
    print!("{}", table.render());
    println!(
        "\nnote: the zero-fault row is byte-identical to the ideal-network runs \
         (integration_determinism pins this); rising drop rates cost extra aggregation \
         rounds — the resend/backoff path — before consolidation quality degrades."
    );

    let conv_ok = results
        .iter()
        .all(|r| r.convergence_rounds < CONVERGENCE_CAP);
    if !conv_ok {
        eprintln!("warning: some cells never reached 0.999 table similarity");
    }

    std::fs::create_dir_all(&cli.out_dir).expect("create out dir");
    let path = cli.out_dir.join("failure_sweep.csv");
    table.save_csv(&path).expect("write CSV");
    eprintln!("wrote {}", path.display());
}

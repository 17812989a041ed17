//! Empirical check of Theorem 1 (§IV-C): under repeated gossip
//! aggregation, the cross-PM distribution of a Q-value converges toward a
//! normal distribution (and, as rounds continue, concentrates on the
//! mean). Prints skewness, excess kurtosis, the Jarque–Bera statistic and
//! the population mean/σ per aggregation round, starting from a heavily
//! skewed initial distribution.

use glap::prelude::*;
use glap_cluster::Resources;
use glap_experiments::{fnum, parse_or_exit, TextTable};
use glap_metrics::{excess_kurtosis, jarque_bera, mean, skewness, std_dev};
use glap_qlearn::{
    ArenaSlot, EntryStore, PairStore, PmState, QArena, QParams, VmAction, NUM_STATES,
};
use rand::Rng;

fn main() {
    let cli = parse_or_exit();
    let n = cli.grid.sizes.first().copied().unwrap_or(500);
    let rounds = 12usize;
    let mut rng = stream_rng(13, Stream::Custom(7));

    let s = PmState::from_utilization(Resources::splat(0.5));
    let a = VmAction::from_demand(Resources::splat(0.1));
    // The pair's flat index in φ_out — the first half of `out ++ in`.
    let col = s.index() * NUM_STATES + a.index();

    // Exponential initial values: strongly right-skewed, the adversarial
    // case for the theorem's normality claim. One visited entry per PM,
    // so each is a sparse slot.
    let mut arena = QArena::new(n, QParams::default());
    for slot in arena.slots_mut() {
        let u: f64 = rng.gen::<f64>().max(1e-12);
        let [out, _] = slot.tables_mut();
        out.set_entries(std::iter::once((col, -u.ln() * 10.0)));
    }

    let mut overlay = CyclonOverlay::new(n, 8, 4);
    overlay.bootstrap_random(&mut rng);

    let mut table = TextTable::new([
        "round",
        "mean",
        "std_dev",
        "skewness",
        "excess_kurtosis",
        "jarque_bera",
    ]);
    let record = |round: usize, slots: &[ArenaSlot], table: &mut TextTable| {
        let mut xs = Vec::with_capacity(slots.len());
        for slot in slots {
            slot.gather(&[col as u32], &mut xs);
        }
        table.row([
            round.to_string(),
            fnum(mean(&xs)),
            fnum(std_dev(&xs)),
            fnum(skewness(&xs)),
            fnum(excess_kurtosis(&xs)),
            fnum(jarque_bera(&xs)),
        ]);
    };

    record(0, arena.slots(), &mut table);
    for round in 1..=rounds {
        overlay.run_round(&mut rng, RoundIo::default());
        aggregation_round(
            arena.slots_mut(),
            &mut overlay,
            &mut rng,
            None,
            AggIo::default(),
        );
        record(round, arena.slots(), &mut table);
    }

    println!("== Theorem 1 — gossip-aggregated Q-values converge to a normal ==\n");
    println!("{n} PMs; initial values ~ Exponential(mean 10), one (state, action) pair\n");
    print!("{}", table.render());
    println!(
        "\nnote: exponential data starts with skewness 2 and excess kurtosis 6 \
         (Jarque–Bera ≫ χ²₂ critical value ≈ 6); after a couple of gossip rounds \
         both moments collapse toward 0 while the mean is preserved, and further \
         rounds shrink σ — 'we can optimally decide how many rounds are needed … \
         to assure a satisfying convergence' (§IV-C)."
    );
    let path = cli.out_dir.join("theorem1.csv");
    table.save_csv(&path).expect("write CSV");
    eprintln!("wrote {}", path.display());
}

//! Bandwidth sweep: bytes on the wire vs. convergence, sparse vs. dense
//! table payloads.
//!
//! Runs the aggregation phase from divergent-but-sparse Q-tables (the
//! realistic post-learning shape: every PM has trained a few hundred of
//! the 6561 (state, action) pairs, heavily overlapping across PMs) under
//! each fault profile, recording per round the cumulative gossip bytes
//! and the population diameter — the machine-checkable face of Theorem 1,
//! fed through the same [`ConvergenceMonitor`] the trainer uses.
//!
//! The simulator merges tables verbatim, and the merge does not depend on
//! how a table travels, so each profile runs once and its counters price
//! the same rounds two ways:
//!
//! * `sparse` — the round's own accounting, 10 B per trained entry: what
//!   a sparse full table costs;
//! * `identity` — every message carries the dense table as the identity
//!   codec ships it ([`DENSE_PAYLOAD_BYTES`]).
//!
//! The run self-checks two acceptance claims and exits non-zero if
//! either fails:
//!
//! 1. **Payload reduction** — the sparse payload reaches the matched
//!    convergence diameter with ≥ 4× fewer bytes than the dense one, on
//!    every fault profile.
//! 2. **Theorem 1** — every profile's diameter series is non-increasing
//!    (every merge is an exact convex combination).
//!
//! Output: `results/bandwidth_sweep.csv` with
//! `codec,profile,round,bytes_tx,bytes_rx,diameter` rows.

use glap::codec::{CodedHeader, WIRE_OVERHEAD};
use glap::prelude::*;
use glap_experiments::{parse_or_exit, TextTable};
use glap_qlearn::QTablePair;
use glap_telemetry::{ConvergenceMonitor, OverlayHealth};
use rand::seq::SliceRandom;
use rand::Rng;

/// Matched convergence point: population diameter at or below this is
/// "converged" for the bytes comparison. Initial diameter is ≈ 2 (values
/// drawn from ±1), so this is a 100× contraction.
const DIAMETER_TARGET: f64 = 0.02;
/// Give up on a profile after this many aggregation rounds.
const ROUNDS_CAP: usize = 150;
/// Trained-entry pool shared by the fleet (overlapping coverage).
const POOL_ENTRIES: usize = 600;
/// Entries each PM trains per table (subset of the pool).
const PER_PM_ENTRIES: usize = 400;
/// Required dense-to-sparse byte ratio at the matched diameter.
const REQUIRED_REDUCTION: f64 = 4.0;
/// Wire bytes of one dense payload: the coded header, the pair's
/// checkpoint encoding and the node wire's framing (118 326 B).
const DENSE_PAYLOAD_BYTES: u64 =
    (CodedHeader::LEN + QTablePair::ENCODED_LEN + WIRE_OVERHEAD) as u64;

/// Post-learning-shaped tables: a shared pool of trained entries, each PM
/// holding a random subset with divergent values. Sparse (pool ≪ 6561)
/// and overlapping, like real per-PM training coverage.
fn sparse_divergent_tables(n: usize, rng: &mut impl Rng) -> Vec<QTablePair> {
    let entries = QTablePair::default().out.raw_values().len();
    let mut pool: Vec<usize> = (0..entries).collect();
    pool.shuffle(rng);
    pool.truncate(POOL_ENTRIES);
    (0..n)
        .map(|_| {
            let mut t = QTablePair::default();
            for table in [&mut t.out, &mut t.r#in] {
                let mut mine = pool.clone();
                mine.shuffle(rng);
                mine.truncate(PER_PM_ENTRIES);
                for i in mine {
                    table.set_index(i, rng.gen_range(-1.0..1.0));
                }
            }
            t
        })
        .collect()
}

struct ProfileResult {
    profile_label: &'static str,
    rounds_to_target: Option<usize>,
    /// Bytes pushed until the target, as `[sparse, dense]` payloads.
    bytes_to_target: [u64; 2],
    diameter_monotone: bool,
    final_diameter: f64,
}

/// Runs one profile's rounds, writing its `sparse` rows and then its
/// `identity` rows.
fn run_profile(
    n: usize,
    profile: &FaultProfile,
    profile_label: &'static str,
    seed: u64,
    rows: &mut TextTable,
) -> ProfileResult {
    let mut rng = stream_rng(seed, Stream::Custom(91));
    let mut overlay = CyclonOverlay::new(n, 8, 4);
    overlay.bootstrap_random(&mut rng);
    let mut tables = sparse_divergent_tables(n, &mut rng);
    let mut net = NetworkModel::new(n, profile.clone(), seed);
    let tracer = Tracer::counting();
    let mut monitor = ConvergenceMonitor::new();
    let mut scratch_flat: Vec<f64> = Vec::new();
    let mut reference: Vec<f64> = Vec::new();
    let mut dense_rows = Vec::new();
    let mut rounds_to_target = None;
    let mut bytes_to_target = [0; 2];
    let mut final_diameter = f64::INFINITY;
    for round in 0..ROUNDS_CAP {
        net.begin_round(round as u64);
        overlay.run_round(
            &mut rng,
            RoundIo::contact(&mut |a, b| net.request(a, b).is_ok()),
        );
        let io = AggIo::full(&mut net, &tracer);
        aggregation_round(&mut tables, &mut overlay, &mut rng, None, io);

        // Feed the same ConvergenceMonitor the trainer uses, so the
        // diameter and the Theorem 1 certificate come from the standard
        // instrumentation.
        let dim = tables[0].out.raw_values().len() * 2;
        scratch_flat.clear();
        for (i, t) in tables.iter().enumerate() {
            if overlay.is_alive(i as u32) {
                scratch_flat.extend_from_slice(t.out.raw_values());
                scratch_flat.extend_from_slice(t.r#in.raw_values());
            }
        }
        let unified = unified_table(&tables);
        reference.clear();
        reference.extend_from_slice(unified.out.raw_values());
        reference.extend_from_slice(unified.r#in.raw_values());
        let alive: Vec<bool> = (0..overlay.len())
            .map(|i| overlay.is_alive(i as u32))
            .collect();
        let health =
            OverlayHealth::from_in_degrees(&overlay.in_degrees(), &alive, overlay.is_connected());
        let d = monitor
            .record(
                Phase::Aggregation,
                round as u64,
                scratch_flat.chunks_exact(dim),
                &reference,
                health,
            )
            .diameter;
        final_diameter = d;

        let sparse = [
            tracer.counter_total("net.bytes_tx"),
            tracer.counter_total("net.bytes_rx"),
        ];
        let dense = [
            tracer.counter_total("net.msgs") * DENSE_PAYLOAD_BYTES,
            tracer.counter_total("agg.merges") * 2 * DENSE_PAYLOAD_BYTES,
        ];
        let row = |label: &str, [tx, rx]: [u64; 2]| {
            [
                label.to_string(),
                profile_label.to_string(),
                round.to_string(),
                tx.to_string(),
                rx.to_string(),
                format!("{d:.6e}"),
            ]
        };
        rows.row(row("sparse", sparse));
        dense_rows.push(row("identity", dense));
        if d <= DIAMETER_TARGET {
            rounds_to_target = Some(round);
            bytes_to_target = [sparse[0], dense[0]];
            break;
        }
    }
    for row in dense_rows {
        rows.row(row);
    }
    ProfileResult {
        profile_label,
        rounds_to_target,
        bytes_to_target,
        diameter_monotone: monitor.diameter_is_nonincreasing(Phase::Aggregation),
        final_diameter,
    }
}

fn main() {
    let cli = parse_or_exit();
    let n = cli.grid.sizes.first().copied().unwrap_or(48).min(128);
    let seed = 42;
    let profiles: [(&'static str, FaultProfile); 3] = [
        ("ideal", FaultProfile::none()),
        ("lossy", FaultProfile::lossy(0.15)),
        ("faulty", FaultProfile::faulty(0.1, 0.005, 0.5)),
    ];

    let mut rows = TextTable::new([
        "codec", "profile", "round", "bytes_tx", "bytes_rx", "diameter",
    ]);
    let results: Vec<ProfileResult> = profiles
        .iter()
        .map(|(label, profile)| run_profile(n, profile, label, seed, &mut rows))
        .collect();

    println!(
        "== Gossip bandwidth vs. convergence ({n} PMs, diameter target {DIAMETER_TARGET}) ==\n"
    );
    let mut summary = TextTable::new([
        "profile",
        "rounds",
        "sparse_bytes",
        "dense_bytes",
        "dense_vs_sparse",
        "diameter_monotone",
    ]);
    let mut failures: Vec<String> = Vec::new();
    for r in &results {
        let label = r.profile_label;
        let [sparse, dense] = r.bytes_to_target;
        let reduction = if sparse > 0 {
            dense as f64 / sparse as f64
        } else {
            0.0
        };
        summary.row([
            label.to_string(),
            r.rounds_to_target
                .map_or_else(|| "cap".into(), |x| x.to_string()),
            sparse.to_string(),
            dense.to_string(),
            format!("{reduction:.2}"),
            r.diameter_monotone.to_string(),
        ]);
        if r.rounds_to_target.is_none() {
            failures.push(format!(
                "{label}: never reached diameter {DIAMETER_TARGET} (final {:.4})",
                r.final_diameter
            ));
        }
        if !r.diameter_monotone {
            failures.push(format!("{label}: diameter series increased"));
        }
        if reduction < REQUIRED_REDUCTION {
            failures.push(format!(
                "{label}: sparse payload only {reduction:.2}x smaller than dense \
                 (need >= {REQUIRED_REDUCTION}x)"
            ));
        }
    }
    print!("{}", summary.render());
    println!(
        "\nnote: sparse is the round's 10 B per trained entry; dense is \
         {DENSE_PAYLOAD_BYTES} B per message, the identity codec's coded table \
         plus wire framing. The monotone column is Theorem 1 checked by the \
         ConvergenceMonitor."
    );

    std::fs::create_dir_all(&cli.out_dir).expect("create out dir");
    let path = cli.out_dir.join("bandwidth_sweep.csv");
    rows.save_csv(&path).expect("write CSV");
    eprintln!("wrote {}", path.display());

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("\nall bandwidth acceptance checks passed");
}

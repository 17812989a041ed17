//! Bandwidth sweep: bytes on the wire vs. convergence, per gossip codec.
//!
//! Runs the aggregation phase from divergent-but-sparse Q-tables (the
//! realistic post-learning shape: every PM has trained a few hundred of
//! the 6561 (state, action) pairs, heavily overlapping across PMs) under
//! each payload codec and fault profile, recording per round the
//! cumulative gossip bytes and the population diameter — the
//! machine-checkable face of Theorem 1, fed through the same
//! [`ConvergenceMonitor`] the trainer uses.
//!
//! The run self-checks its two acceptance claims and exits non-zero if
//! either fails:
//!
//! 1. **Payload reduction** — delta and quantized reach the matched
//!    convergence diameter with ≥ 4× fewer bytes than the identity
//!    (dense full-table) payload, on every fault profile.
//! 2. **Theorem 1 under lossy codecs** — every codec's diameter series
//!    is non-increasing within the codec's declared quantization-error
//!    tolerance (zero for the lossless ones).
//!
//! Output: `results/bandwidth_sweep.csv` with
//! `codec,profile,round,bytes_tx,bytes_rx,diameter` rows.

use glap::codec::ALL_CODEC_KINDS;
use glap::prelude::*;
use glap_experiments::{parse_or_exit, TextTable};
use glap_qlearn::QTablePair;
use glap_telemetry::{ConvergenceMonitor, OverlayHealth};
use rand::seq::SliceRandom;
use rand::Rng;

/// Matched convergence point: population diameter at or below this is
/// "converged" for the bytes comparison. Initial diameter is ≈ 2 (values
/// drawn from ±1), so this is a 100× contraction — loose enough that the
/// quantized codec's error floor (≈ 1e-4 here) sits far below it.
const DIAMETER_TARGET: f64 = 0.02;
/// Give up on a cell after this many aggregation rounds.
const ROUNDS_CAP: usize = 150;
/// Trained-entry pool shared by the fleet (overlapping coverage).
const POOL_ENTRIES: usize = 600;
/// Entries each PM trains per table (subset of the pool).
const PER_PM_ENTRIES: usize = 400;
/// Required identity-to-codec byte ratio at the matched diameter.
const REQUIRED_REDUCTION: f64 = 4.0;

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

/// L∞ population diameter over alive PMs' dense value vectors.
fn diameter(tables: &[QTablePair], overlay: &CyclonOverlay) -> f64 {
    let mut d = 0.0f64;
    let n = tables.len();
    let dim = tables[0].out.raw_values().len();
    for side in 0..2 {
        for i in 0..dim {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for (p, t) in tables.iter().enumerate().take(n) {
                if !overlay.is_alive(p as u32) {
                    continue;
                }
                let v = if side == 0 {
                    t.out.raw_values()[i]
                } else {
                    t.r#in.raw_values()[i]
                };
                lo = lo.min(v);
                hi = hi.max(v);
            }
            if hi > lo {
                d = d.max(hi - lo);
            }
        }
    }
    d
}

struct CellResult {
    kind: CodecKind,
    profile_label: &'static str,
    rounds_to_target: Option<usize>,
    bytes_to_target: u64,
    q_err_tol: f64,
    diameter_monotone: bool,
    final_diameter: f64,
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    n: usize,
    kind: CodecKind,
    profile: &FaultProfile,
    profile_label: &'static str,
    seed: u64,
    rows: &mut TextTable,
) -> CellResult {
    let mut rng = stream_rng(seed, Stream::Custom(91));
    let mut overlay = CyclonOverlay::new(n, 8, 4);
    overlay.bootstrap_random(&mut rng);
    let mut tables = sparse_divergent_tables(n, &mut rng);
    let mut net = NetworkModel::new(n, profile.clone(), seed);
    let tracer = Tracer::counting();
    // Identity runs through the codec layer too, so every cell accounts
    // *actual* payload bytes and the comparison is apples to apples.
    let mut codecs = FleetCodecs::new(n, kind);
    let mut monitor = ConvergenceMonitor::new();
    let mut scratch_flat: Vec<f64> = Vec::new();
    let mut reference: Vec<f64> = Vec::new();
    let mut rounds_to_target = None;
    let mut bytes_to_target = 0;
    let mut final_diameter = f64::INFINITY;
    for round in 0..ROUNDS_CAP {
        net.begin_round(round as u64);
        overlay.run_round(
            &mut rng,
            RoundIo::contact(&mut |a, b| net.request(a, b).is_ok()),
        );
        let io = AggIo {
            codec: Some(&mut codecs),
            ..AggIo::full(&mut net, &tracer)
        };
        aggregation_round(&mut tables, &mut overlay, &mut rng, None, io);

        // Feed the same ConvergenceMonitor the trainer uses, so the
        // Theorem 1 certificate comes from the standard instrumentation.
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
        monitor.record(
            Phase::Aggregation,
            round as u64,
            scratch_flat.chunks_exact(dim),
            &reference,
            health,
        );

        let d = diameter(&tables, &overlay);
        final_diameter = d;
        let bytes_tx = tracer.counter_total("net.bytes_tx");
        let bytes_rx = tracer.counter_total("net.bytes_rx");
        rows.row([
            kind.label().to_string(),
            profile_label.to_string(),
            round.to_string(),
            bytes_tx.to_string(),
            bytes_rx.to_string(),
            format!("{d:.6e}"),
        ]);
        if d <= DIAMETER_TARGET {
            rounds_to_target = Some(round);
            bytes_to_target = bytes_tx;
            break;
        }
    }
    // Lossy codecs certify Theorem 1 within their accumulated
    // quantization error: each exchange may re-inject at most the
    // declared per-payload bound on both legs.
    let q_err = tracer.counter_total("codec.q_err_max_1e9") as f64 * 1e-9;
    let q_err_tol = 4.0 * q_err;
    CellResult {
        kind,
        profile_label,
        rounds_to_target,
        bytes_to_target,
        q_err_tol,
        diameter_monotone: monitor.diameter_is_nonincreasing_within(Phase::Aggregation, q_err_tol),
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
    let mut results = Vec::new();
    for (label, profile) in &profiles {
        for &kind in &ALL_CODEC_KINDS {
            let r = run_cell(n, kind, profile, label, seed, &mut rows);
            if cli.verbose {
                eprintln!(
                    "{label}/{kind}: rounds {:?}, bytes {}, monotone {}",
                    r.rounds_to_target, r.bytes_to_target, r.diameter_monotone
                );
            }
            results.push(r);
        }
    }

    println!(
        "== Gossip bandwidth vs. convergence ({n} PMs, diameter target {DIAMETER_TARGET}) ==\n"
    );
    let mut summary = TextTable::new([
        "codec",
        "profile",
        "rounds",
        "bytes_to_target",
        "reduction_vs_identity",
        "q_err_tol",
        "diameter_monotone",
    ]);
    let mut failures: Vec<String> = Vec::new();
    for (label, _) in &profiles {
        let identity_bytes = results
            .iter()
            .find(|r| r.profile_label == *label && r.kind == CodecKind::Identity)
            .map(|r| r.bytes_to_target)
            .unwrap_or(0);
        for r in results.iter().filter(|r| r.profile_label == *label) {
            let reduction = if r.bytes_to_target > 0 {
                identity_bytes as f64 / r.bytes_to_target as f64
            } else {
                0.0
            };
            summary.row([
                r.kind.label().to_string(),
                r.profile_label.to_string(),
                r.rounds_to_target
                    .map_or_else(|| "cap".into(), |x| x.to_string()),
                r.bytes_to_target.to_string(),
                format!("{reduction:.2}"),
                format!("{:.3e}", r.q_err_tol),
                r.diameter_monotone.to_string(),
            ]);
            if r.rounds_to_target.is_none() {
                failures.push(format!(
                    "{label}/{}: never reached diameter {DIAMETER_TARGET} \
                     (final {:.4})",
                    r.kind, r.final_diameter
                ));
            }
            if !r.diameter_monotone {
                failures.push(format!(
                    "{label}/{}: diameter series increased beyond tolerance {:.3e}",
                    r.kind, r.q_err_tol
                ));
            }
            if matches!(r.kind, CodecKind::Delta | CodecKind::Quantized)
                && reduction < REQUIRED_REDUCTION
            {
                failures.push(format!(
                    "{label}/{}: only {reduction:.2}x payload reduction \
                     (need >= {REQUIRED_REDUCTION}x)",
                    r.kind
                ));
            }
        }
    }
    print!("{}", summary.render());
    println!(
        "\nnote: bytes count actual encoded payloads plus wire framing for all four \
         codecs (identity ships the dense table). The monotone column is Theorem 1 \
         checked by the ConvergenceMonitor, with the quantized codec allowed its \
         declared accumulated error."
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
    println!("\nall codec acceptance checks passed");
}

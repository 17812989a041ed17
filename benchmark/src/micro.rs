//! Stand-alone measurements of single layers, made by the traced child
//! on the live data of its run (trained tables, the end-of-day world)
//! while the run's clock is paused. Each calls the layer's `pub` items
//! directly and reports a median over its own repeats.

use crate::stats::median;
use glap_cluster::{DataCenter, DemandSource, VmId};
use glap_codec::{AnyCodec, CodecKind, TableCodec};
use glap_cyclon::{CyclonOverlay, RoundIo};
use glap_dcsim::{stream_rng, Stream};
use glap_qlearn::QTablePair;
use glap_snapshot::{Checkpointable, Snapshot, SnapshotBuilder, SnapshotError, Writer};
use glap_workload::{MaterializedTrace, OffsetTrace};
use std::hint::black_box;
use std::time::Instant;

/// How many trained tables the traced run keeps for the pair-wise
/// measurements below (128 disjoint pairs).
pub const KEPT_TABLES: usize = 256;

fn micros(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Median microseconds of one round of `OffsetTrace::demand` over all
/// VMs — a strided walk, since the trace is stored VM-major.
pub fn playback_round_us(trace: &MaterializedTrace, offset: u64, rounds: u64) -> f64 {
    let mut day = OffsetTrace::new(trace, offset);
    let samples: Vec<f64> = (0..rounds.min(200))
        .map(|round| {
            let t = Instant::now();
            for vm in 0..trace.n_vms() {
                black_box(day.demand(VmId(vm as u32), round));
            }
            micros(t)
        })
        .collect();
    median(&samples)
}

/// `(bootstrap seconds, median microseconds of one shuffle round)` of a
/// Cyclon overlay of `n` nodes.
pub fn cyclon(n: usize, cache: usize, shuffle: usize, seed: u64) -> (f64, f64) {
    let mut rng = stream_rng(seed, Stream::Custom(0xbe));
    let t = Instant::now();
    let mut overlay = CyclonOverlay::new(n, cache, shuffle);
    overlay.bootstrap_random(&mut rng);
    let bootstrap_s = t.elapsed().as_secs_f64();
    let rounds: Vec<f64> = (0..30)
        .map(|_| {
            let t = Instant::now();
            overlay.run_round(&mut rng, RoundIo::default());
            micros(t)
        })
        .collect();
    black_box(&overlay);
    (bootstrap_s, median(&rounds))
}

/// Median microseconds of `merge_pair` over disjoint pairs of `tables`
/// (which it merges in place).
pub fn merge_pair_us(tables: &mut [QTablePair]) -> f64 {
    let samples: Vec<f64> = (0..tables.len() / 2)
        .map(|i| {
            let t = Instant::now();
            glap::merge_pair(tables, 2 * i, 2 * i + 1);
            micros(t)
        })
        .collect();
    median(&samples)
}

/// Largest spread of any single Q-value across `tables`.
pub fn diameter(tables: &[QTablePair]) -> f64 {
    fn values(t: &QTablePair) -> impl Iterator<Item = f64> + '_ {
        let (out, inn) = (t.out.raw_values(), t.r#in.raw_values());
        out.iter().chain(inn).copied()
    }
    let Some(first) = tables.first() else {
        return 0.0;
    };
    let mut lo: Vec<f64> = values(first).collect();
    let mut hi = lo.clone();
    for t in &tables[1..] {
        for ((lo, hi), v) in lo.iter_mut().zip(&mut hi).zip(values(t)) {
            *lo = lo.min(v);
            *hi = hi.max(v);
        }
    }
    lo.iter().zip(&hi).map(|(l, h)| h - l).fold(0.0, f64::max)
}

/// First-contact exchanges between disjoint pairs of trained tables.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CodecCost {
    /// Median microseconds of `encode_push`.
    pub encode_us: f64,
    /// Median microseconds of a whole exchange: `encode_push`,
    /// `apply_push`, `apply_reply`.
    pub exchange_us: f64,
    /// Mean push body length.
    pub payload_bytes: f64,
}

pub fn codec(kind: CodecKind, tables: &mut [QTablePair]) -> Result<CodecCost, SnapshotError> {
    let (mut encode, mut exchange, mut bytes) = (Vec::new(), Vec::new(), 0usize);
    for pair in tables.chunks_exact_mut(2) {
        let [a, b] = pair else { unreachable!() };
        let (mut ca, mut cb) = (AnyCodec::new(kind), AnyCodec::new(kind));
        let t = Instant::now();
        let push = ca.encode_push(1, a);
        encode.push(micros(t));
        let reply = cb.apply_push(0, b, &push)?;
        ca.apply_reply(1, a, &reply)?;
        exchange.push(micros(t));
        bytes += push.len();
    }
    Ok(CodecCost {
        encode_us: median(&encode),
        exchange_us: median(&exchange),
        payload_bytes: bytes as f64 / encode.len().max(1) as f64,
    })
}

/// Checkpointing the world: `DataCenter::save` into a one-section
/// container, then decode and restore into a live world.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SnapshotCost {
    pub encode_ms: f64,
    pub bytes: f64,
    pub decode_restore_ms: f64,
}

pub fn snapshot(dc: &DataCenter) -> Result<SnapshotCost, SnapshotError> {
    let encode = || {
        let mut w = Writer::new();
        dc.save(&mut w);
        let mut b = SnapshotBuilder::new();
        b.section("dc", w);
        b.encode()
    };
    let bytes = encode();
    let mut fresh = dc.clone();
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        black_box(encode());
        enc.push(micros(t) / 1e3);
        let t = Instant::now();
        let snap = Snapshot::decode(&bytes)?;
        fresh.restore(&mut snap.section("dc")?)?;
        dec.push(micros(t) / 1e3);
    }
    Ok(SnapshotCost {
        encode_ms: median(&enc),
        bytes: bytes.len() as f64,
        decode_restore_ms: median(&dec),
    })
}

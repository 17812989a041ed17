//! The perf-gate suite: the hot-path scenarios `perf_gate` measures
//! against the committed `BENCH_profile.json` baselines.
//!
//! Mirrors the shapes of `glap-bench`'s `hotpath` benchmarks at gate
//! sizes (256/1024 PMs — small enough for CI, big enough that the four
//! loops dominated by large-N wall-clock are the ones measured):
//!
//! * `learn_phase_256pms` — one full learning round via `train`;
//! * `aggregation_round_256pms` — one push–pull merge sweep;
//! * `dc_step_1024pms` — one workload step;
//! * `policy_round_256pms` — one consolidation round.
//!
//! `bench_refresh` regenerates the baseline file from this same suite,
//! so gate and baseline can never drift apart.

use glap::prelude::*;
use glap::synthetic_table;
use glap_cluster::{DataCenter, DataCenterConfig, Resources, VmId, VmSpec};
use glap_profile::{measure_median, BenchRecord, Measurement};

/// VMs per PM in every perf-gate world (same as the bench suite).
const VM_RATIO: usize = 2;

/// A mid-load wave: most PMs stay under the 0.5 learning-eligibility
/// threshold, some cross it, so the measured loops see the mixed
/// population real runs do.
fn wave(vm: VmId, round: u64) -> Resources {
    let x = 0.3 + 0.25 * ((round as f64 / 7.0) + vm.0 as f64).sin();
    Resources::splat(x)
}

/// A populated, randomly placed, once-stepped data center.
fn world(n_pms: usize) -> DataCenter {
    let mut dc = DataCenter::new(DataCenterConfig::paper(n_pms));
    for _ in 0..n_pms * VM_RATIO {
        dc.add_vm(VmSpec::EC2_MICRO);
    }
    dc.random_placement(&mut stream_rng(7, Stream::Placement));
    dc.step(&mut wave);
    dc
}

/// One learning round, heavy on local training so the parallelizable
/// Bellman loop dominates.
fn learn_cfg() -> GlapConfig {
    GlapConfig {
        learning_rounds: 1,
        aggregation_rounds: 0,
        learning_iterations: 200,
        ..Default::default()
    }
}

fn measure_learn_phase_at(n: usize, budget_ms: u64) -> Measurement {
    let base = world(n);
    measure_median(budget_ms, || {
        let mut dc = base.clone();
        train(&mut dc, &mut wave, &learn_cfg(), 42, false);
    })
}

fn measure_learn_phase(budget_ms: u64) -> Measurement {
    measure_learn_phase_at(256, budget_ms)
}

fn measure_aggregation_round_at(n: usize, budget_ms: u64) -> Measurement {
    // Short training gives the tables realistic sparsity; the merge
    // sweep itself is what's measured.
    let mut dc = world(n);
    let cfg = GlapConfig {
        learning_rounds: 2,
        aggregation_rounds: 0,
        learning_iterations: 20,
        ..Default::default()
    };
    let (tables, _) = train(&mut dc, &mut wave, &cfg, 42, false);
    let mut overlay = CyclonOverlay::new(n, cfg.cyclon_cache, cfg.cyclon_shuffle);
    let mut rng = stream_rng(42, Stream::Learning);
    overlay.bootstrap_random(&mut rng);
    let mut tables = tables;
    measure_median(budget_ms, || {
        aggregation_round(&mut tables, &mut overlay, &mut rng, AggIo::default());
    })
}

fn measure_aggregation_round(budget_ms: u64) -> Measurement {
    measure_aggregation_round_at(256, budget_ms)
}

fn measure_dc_step_at(n: usize, budget_ms: u64) -> Measurement {
    let mut dc = world(n);
    measure_median(budget_ms, || {
        dc.step(&mut wave);
    })
}

fn measure_dc_step(budget_ms: u64) -> Measurement {
    measure_dc_step_at(1024, budget_ms)
}

fn measure_policy_round_at(n: usize, budget_ms: u64) -> Measurement {
    let base = world(n);
    let mut policy = GlapPolicy::with_shared_table(
        GlapConfig::default(),
        synthetic_table(&mut stream_rng(7, Stream::Custom(99))),
    );
    let mut init_dc = base.clone();
    policy.init(&mut init_dc, &mut stream_rng(7, Stream::Policy));
    let tracer = Tracer::off();
    measure_median(budget_ms, || {
        let mut dc = base.clone();
        let mut pol = policy.clone();
        let mut net = NetworkModel::ideal(n);
        let mut rng = stream_rng(7, Stream::Policy);
        let mut ctx = RoundCtx {
            round: dc.round(),
            dc: &mut dc,
            rng: &mut rng,
            churn_events: 0,
            net: &mut net,
            tracer: &tracer,
        };
        pol.round(&mut ctx);
    })
}

fn measure_policy_round(budget_ms: u64) -> Measurement {
    measure_policy_round_at(256, budget_ms)
}

/// Two realistically sparse trained tables (distinct PMs of a shortly
/// trained world) for the codec measurements.
fn trained_table_pair(n: usize) -> (glap_qlearn::QTablePair, glap_qlearn::QTablePair) {
    let mut dc = world(n);
    let cfg = GlapConfig {
        learning_rounds: 2,
        aggregation_rounds: 0,
        learning_iterations: 20,
        ..Default::default()
    };
    let (tables, _) = train(&mut dc, &mut wave, &cfg, 42, false);
    let a = tables
        .iter()
        .find(|t| t.trained_pairs() > 0)
        .cloned()
        .expect("some PM trained");
    let b = tables
        .iter()
        .rev()
        .find(|t| t.trained_pairs() > 0)
        .cloned()
        .expect("some PM trained");
    (a, b)
}

/// One primed codec pair: a completed exchange so the stateful codecs
/// (delta, priority) measure their steady state, not first contact.
fn primed_codecs(
    kind: CodecKind,
    ta: &mut glap_qlearn::QTablePair,
    tb: &mut glap_qlearn::QTablePair,
) -> (AnyCodec, AnyCodec) {
    let mut ca = AnyCodec::new(kind);
    let mut cb = AnyCodec::new(kind);
    let push = ca.encode_push(1, ta);
    let reply = cb.apply_push(0, tb, &push).expect("codec push applies");
    ca.apply_reply(1, ta, &reply).expect("codec reply applies");
    (ca, cb)
}

fn measure_codec_encode(kind: CodecKind, budget_ms: u64) -> Measurement {
    let (mut ta, mut tb) = trained_table_pair(256);
    let (mut ca, _cb) = primed_codecs(kind, &mut ta, &mut tb);
    measure_median(budget_ms, || {
        let body = ca.encode_push(1, &ta);
        // Undo the in-flight bookkeeping so every iteration encodes the
        // same steady state.
        ca.push_failed(1);
        std::hint::black_box(body);
    })
}

fn measure_codec_exchange(kind: CodecKind, budget_ms: u64) -> Measurement {
    let (mut ta, mut tb) = trained_table_pair(256);
    let (mut ca, mut cb) = primed_codecs(kind, &mut ta, &mut tb);
    measure_median(budget_ms, || {
        // Full ping-pong exchange: encode, decode + merge + reply
        // encode, reply decode + apply. Tables converge and stay
        // converged, so iterations measure the steady state.
        let push = ca.encode_push(1, &ta);
        let reply = cb
            .apply_push(0, &mut tb, &push)
            .expect("codec push applies");
        ca.apply_reply(1, &mut ta, &reply)
            .expect("codec reply applies");
    })
}

fn measure_codec_exchange_delta(budget_ms: u64) -> Measurement {
    measure_codec_exchange(CodecKind::Delta, budget_ms)
}

/// The codec suite — encode cost and full exchange (encode + decode +
/// merge + reply) cost per codec kind, on realistically sparse trained
/// tables — what `bench_refresh` writes into `BENCH_codec.json`.
pub fn codec_records(budget_ms: u64) -> Vec<BenchRecord> {
    let mut out = Vec::new();
    for &kind in &glap::codec::ALL_CODEC_KINDS {
        let enc = measure_codec_encode(kind, budget_ms);
        let ex = measure_codec_exchange(kind, budget_ms);
        out.push(BenchRecord {
            name: format!("codec_encode_{}", kind.label()),
            scenario: format!("encode one {kind} push payload, trained 256-PM tables"),
            median_ns: enc.median_ns,
            iterations: enc.iterations,
        });
        out.push(BenchRecord {
            name: format!("codec_exchange_{}", kind.label()),
            scenario: format!("one full {kind}-coded push-pull exchange (encode/decode both legs)"),
            median_ns: ex.median_ns,
            iterations: ex.iterations,
        });
    }
    out
}

/// One gate scenario: a named setup + timed closure.
pub struct PerfCase {
    /// Benchmark name, matching a `BENCH_profile.json` entry.
    pub name: &'static str,
    /// Human-readable description of the measured loop.
    pub scenario: &'static str,
    /// Runs the measurement under the given per-case time budget.
    pub run: fn(u64) -> Measurement,
}

/// The gate suite, in measurement order.
pub const PERF_SUITE: &[PerfCase] = &[
    PerfCase {
        name: "learn_phase_256pms",
        scenario: "one learning round (workload step + shuffle + local training), 256 PMs",
        run: measure_learn_phase,
    },
    PerfCase {
        name: "aggregation_round_256pms",
        scenario: "one push-pull table merge sweep, 256 PMs",
        run: measure_aggregation_round,
    },
    PerfCase {
        name: "dc_step_1024pms",
        scenario: "one workload step with incremental load bookkeeping, 1024 PMs",
        run: measure_dc_step,
    },
    PerfCase {
        name: "policy_round_256pms",
        scenario: "one GLAP consolidation round over a stepped world, 256 PMs",
        run: measure_policy_round,
    },
    PerfCase {
        name: "codec_exchange_delta_256pms",
        scenario: "one delta-coded push-pull exchange (encode/decode both legs), 256-PM tables",
        run: measure_codec_exchange_delta,
    },
];

/// Runs the whole suite, `budget_ms` of sampling per case.
pub fn run_suite(budget_ms: u64) -> Vec<glap_profile::BenchRecord> {
    PERF_SUITE
        .iter()
        .map(|case| {
            let m = (case.run)(budget_ms);
            glap_profile::BenchRecord {
                name: case.name.to_string(),
                scenario: case.scenario.to_string(),
                median_ns: m.median_ns,
                iterations: m.iterations,
            }
        })
        .collect()
}

/// The hot-path suite at bench sizes (1024/4096 PMs) — what
/// `bench_refresh` writes into `BENCH_hotpath.json`. Same four loops as
/// the gate suite, at the sizes `glap-bench`'s `hotpath` bench pins.
pub fn hotpath_records(budget_ms: u64) -> Vec<BenchRecord> {
    let mut out = Vec::new();
    for n in [1024usize, 4096] {
        for (stem, scenario, m) in [
            (
                "learn_phase",
                "one full learning round (train, learning_iterations=200)",
                measure_learn_phase_at(n, budget_ms),
            ),
            (
                "aggregation_round",
                "one push-pull table merge sweep over the population",
                measure_aggregation_round_at(n, budget_ms),
            ),
            (
                "dc_step",
                "one workload step with incremental load bookkeeping",
                measure_dc_step_at(n, budget_ms),
            ),
            (
                "policy_round",
                "one GLAP consolidation round over a stepped world",
                measure_policy_round_at(n, budget_ms),
            ),
        ] {
            out.push(BenchRecord {
                name: format!("{stem}_{n}pms"),
                scenario: scenario.to_string(),
                median_ns: m.median_ns,
                iterations: m.iterations,
            });
        }
    }
    out
}

/// Per-round learning cost at `n` PMs, read from the profiler's
/// `learn_round` spans of full `train_instrumented` calls.
///
/// The hotpath-suite `measure_learn_phase_at` times a whole
/// 1-learning-round `train` per sample, which at gate sizes is fine but
/// along the scale trajectory is dominated by per-call setup (the
/// overlay bootstrap, the dense export of every PM's table), which
/// reads as super-linear per-round growth that real runs (one setup
/// amortized over every round) never see. Here each train call runs
/// several learning rounds and each round's span is one sample, so the
/// committed trajectory measures the round, not the setup.
fn measure_learn_round_at(n: usize, budget_ms: u64) -> Measurement {
    const ROUNDS_PER_CALL: usize = 3;
    let base = world(n);
    let cfg = GlapConfig {
        learning_rounds: ROUNDS_PER_CALL,
        aggregation_rounds: 0,
        learning_iterations: 200,
        ..Default::default()
    };
    let mut samples_ns: Vec<u64> = Vec::new();
    let t0 = std::time::Instant::now();
    // One call already yields `ROUNDS_PER_CALL` round samples; keep
    // re-running while the budget lasts for steadier medians at small n.
    while samples_ns.is_empty() || t0.elapsed().as_millis() < budget_ms as u128 {
        let profiler = Profiler::enabled();
        let mut dc = base.clone();
        train_instrumented(
            &mut dc,
            &mut wave,
            &cfg,
            42,
            false,
            &Tracer::off(),
            None,
            &profiler,
        );
        let report = profiler.snapshot();
        let span = report
            .span("train/learn_round")
            .expect("train emits learn_round spans");
        // p50 over this call's rounds: robust against the first round,
        // which pays every slot's first inserts.
        samples_ns.push(span.p50_ns);
    }
    samples_ns.sort_unstable();
    Measurement {
        median_ns: samples_ns[samples_ns.len() / 2],
        iterations: (samples_ns.len() * ROUNDS_PER_CALL) as u64,
    }
}

/// Per-round consolidation cost at `n` PMs, read from the engine's
/// `policy_round` spans — same rationale as [`measure_learn_round_at`]:
/// the closure-timed variant re-clones the data center and policy every
/// iteration, and along the trajectory that clone-and-drop churn grows
/// faster than the round itself.
fn measure_policy_round_at_scale(n: usize, budget_ms: u64) -> Measurement {
    const ROUNDS_PER_CALL: u64 = 3;
    let base = world(n);
    let policy = GlapPolicy::with_shared_table(
        GlapConfig::default(),
        synthetic_table(&mut stream_rng(7, Stream::Custom(99))),
    );
    let tracer = Tracer::off();
    let mut samples_ns: Vec<u64> = Vec::new();
    let t0 = std::time::Instant::now();
    while samples_ns.is_empty() || t0.elapsed().as_millis() < budget_ms as u128 {
        let profiler = Profiler::enabled();
        let mut dc = base.clone();
        let mut pol = policy.clone();
        let mut net = NetworkModel::ideal(n);
        glap_dcsim::run_simulation_profiled(
            &mut dc,
            &mut wave,
            &mut pol,
            &mut [],
            ROUNDS_PER_CALL,
            7,
            &mut net,
            &tracer,
            &profiler,
        );
        let report = profiler.snapshot();
        let span = report
            .span("sim_round/policy_round")
            .expect("engine emits policy_round spans");
        samples_ns.push(span.p50_ns);
    }
    samples_ns.sort_unstable();
    Measurement {
        median_ns: samples_ns[samples_ns.len() / 2],
        iterations: samples_ns.len() as u64 * ROUNDS_PER_CALL,
    }
}

/// Cost of one learning round plus one aggregation round at `n` PMs:
/// the `learn_round` and `agg_round` span p50s of the same
/// [`train_instrumented`] call, summed. Several learning rounds per call
/// keep the learning p50 off the first round — the
/// [`measure_learn_round_at`] methodology.
fn measure_learn_plus_agg_round_at(n: usize, budget_ms: u64) -> Measurement {
    let base = world(n);
    let cfg = GlapConfig {
        learning_rounds: 3,
        aggregation_rounds: 1,
        learning_iterations: 200,
        ..Default::default()
    };
    let mut samples_ns: Vec<u64> = Vec::new();
    let t0 = std::time::Instant::now();
    // One call yields one sample; take at least three for a meaningful
    // median even when one call overruns the budget (the 100k+ cells).
    while samples_ns.len() < 3 || t0.elapsed().as_millis() < budget_ms as u128 {
        let profiler = Profiler::enabled();
        let mut dc = base.clone();
        train_instrumented(
            &mut dc,
            &mut wave,
            &cfg,
            42,
            false,
            &Tracer::off(),
            None,
            &profiler,
        );
        let report = profiler.snapshot();
        let p50 = |path: &str| {
            report
                .span(path)
                .unwrap_or_else(|| panic!("train emits {path} spans"))
                .p50_ns
        };
        samples_ns.push(p50("train/learn_round") + p50("train/agg_round"));
    }
    samples_ns.sort_unstable();
    Measurement {
        median_ns: samples_ns[samples_ns.len() / 2],
        iterations: samples_ns.len() as u64,
    }
}

/// The scale-trajectory sizes committed in `BENCH_scale.json`: the
/// 1k→250k PM sweep the flat-storage work targets.
pub const SCALE_SIZES: &[usize] = &[1_000, 4_000, 16_000, 64_000, 100_000, 250_000];

/// The scale suite — per-round costs of the phase loops along the
/// 1k→250k PM trajectory, what `bench_refresh` writes into
/// `BENCH_scale.json`. Per size: one learning round (`learn_round`),
/// one aggregation merge sweep (`aggregation_round`), one learning
/// round plus one aggregation round of the same `train_instrumented` run
/// (`learn_plus_agg_round`, the scalability headline `perf_gate`
/// advises on), one consolidation round (`policy_round`) and one workload step
/// (`dc_step`). Linear growth in N is the target; the 100k/4k ratio of
/// `learn_plus_agg_round` is the committed criterion (≤ ~30x, vs the
/// 25x size ratio).
pub fn scale_records(budget_ms: u64) -> Vec<BenchRecord> {
    scale_records_at(SCALE_SIZES, budget_ms)
}

/// [`scale_records`] over an explicit size list (CI's 16k smoke run).
pub fn scale_records_at(sizes: &[usize], budget_ms: u64) -> Vec<BenchRecord> {
    let mut out = Vec::new();
    for &n in sizes {
        let learn = measure_learn_round_at(n, budget_ms);
        let agg = measure_aggregation_round_at(n, budget_ms);
        let learn_agg = measure_learn_plus_agg_round_at(n, budget_ms);
        let pol = measure_policy_round_at_scale(n, budget_ms);
        let step = measure_dc_step_at(n, budget_ms);
        let mk = |stem: &str, scenario: &str, m: &Measurement| BenchRecord {
            name: format!("{stem}_{n}pms"),
            scenario: scenario.to_string(),
            median_ns: m.median_ns,
            iterations: m.iterations,
        };
        out.push(mk(
            "learn_round",
            "one learning round (learn_round profiler span p50, learning_iterations=200; \
             per-train setup amortized)",
            &learn,
        ));
        out.push(mk(
            "aggregation_round",
            "one push-pull table merge sweep over the population",
            &agg,
        ));
        out.push(mk(
            "learn_plus_agg_round",
            "one learning round + one aggregation round over the Q-table arena \
             (learn_round + agg_round profiler span p50s of one train_instrumented run; \
             scalability headline)",
            &learn_agg,
        ));
        out.push(mk(
            "policy_round",
            "one GLAP consolidation round (policy_round profiler span p50; \
             per-run setup amortized)",
            &pol,
        ));
        out.push(mk(
            "dc_step",
            "one workload step with incremental load bookkeeping",
            &step,
        ));
    }
    out
}

/// The snapshot suite (1024 PMs, faulty network, dense shared table) —
/// what `bench_refresh` writes into `BENCH_snapshot.json`. Mirrors
/// `glap-bench`'s `snapshot` bench: checkpoint encode, full-validation
/// decode, data-center restore, and the raw CRC32 sweep.
pub fn snapshot_records(budget_ms: u64) -> Vec<BenchRecord> {
    use glap_dcsim::{save_rng, FaultProfile};
    use glap_qlearn::{PmState, QParams, QTablePair, VmAction};
    use glap_snapshot::{Snapshot, SnapshotBuilder, Writer};
    use rand::Rng;

    let n = 1024usize;
    let mut dc = DataCenter::new(DataCenterConfig::paper(n));
    for _ in 0..n * VM_RATIO {
        dc.add_vm(VmSpec::EC2_MICRO);
    }
    dc.random_placement(&mut stream_rng(11, Stream::Placement));
    let mut src = |vm: VmId, r: u64| Resources::splat(((vm.0 as u64 + r) % 87) as f64 / 100.0);
    for _ in 0..8 {
        dc.step(&mut src);
    }
    let net = NetworkModel::new(n, FaultProfile::faulty(0.05, 0.01, 0.2), 11);
    let mut table = QTablePair::new(QParams::default());
    let mut rng = stream_rng(11, Stream::Custom(3));
    for s in PmState::all() {
        for a in VmAction::all() {
            table.out.set(s, a, rng.gen::<f64>());
            table.r#in.set(s, a, rng.gen::<f64>() - 0.5);
        }
    }
    let policy = glap::GlapPolicy::new(
        GlapConfig::default(),
        glap::TableStore::Shared(Box::new(table)),
    );

    let encode = |dc: &DataCenter, net: &NetworkModel, policy: &glap::GlapPolicy| -> Vec<u8> {
        let mut b = SnapshotBuilder::new();
        let mut w = Writer::new();
        save_rng(&stream_rng(11, Stream::Policy), &mut w);
        b.section("rng", w);
        let mut w = Writer::new();
        dc.save(&mut w);
        b.section("dc", w);
        let mut w = Writer::new();
        net.save(&mut w);
        b.section("net", w);
        let mut w = Writer::new();
        policy.save_state(&mut w);
        b.section("policy", w);
        b.encode()
    };
    let bytes = encode(&dc, &net, &policy);
    let snap = Snapshot::decode(&bytes).expect("fresh container decodes");

    let enc = measure_median(budget_ms, || {
        std::hint::black_box(encode(&dc, &net, &policy));
    });
    let dec = measure_median(budget_ms, || {
        std::hint::black_box(Snapshot::decode(&bytes).unwrap());
    });
    let restore = measure_median(budget_ms, || {
        let mut fresh = dc.clone();
        let mut r = snap.section("dc").unwrap();
        fresh.restore(&mut r).unwrap();
        std::hint::black_box(&fresh);
    });
    let crc = measure_median(budget_ms, || {
        std::hint::black_box(glap_snapshot::crc32(&bytes));
    });

    let mk = |stem: &str, scenario: &str, m: Measurement| BenchRecord {
        name: format!("{stem}_{n}pms"),
        scenario: scenario.to_string(),
        median_ns: m.median_ns,
        iterations: m.iterations,
    };
    vec![
        mk(
            "encode_checkpoint",
            "encode one mid-run checkpoint container (1024 PMs, faulty net, dense table)",
            enc,
        ),
        mk(
            "decode_checkpoint",
            "decode + fully validate one checkpoint container (magic, sections, CRCs)",
            dec,
        ),
        mk(
            "restore_datacenter",
            "restore the data-center section into a live world",
            restore,
        ),
        mk("crc32_payload", "raw CRC32 over the whole container", crc),
    ]
}

/// The current git revision (short hash), or `"unknown"` outside a work
/// tree — stamped into regenerated baselines for provenance.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_names_are_unique() {
        let mut names: Vec<_> = PERF_SUITE.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PERF_SUITE.len());
    }

    #[test]
    fn dc_step_case_measures() {
        let m = measure_dc_step(1);
        assert!(m.median_ns > 0);
        assert!(m.iterations >= 3);
    }

    #[test]
    fn git_rev_is_nonempty() {
        assert!(!git_rev().is_empty());
    }
}

//! Sim-vs-channel byte identity for transport-backed runs: a scenario
//! trained on [`ChannelTransport`] worker threads (real mpsc channels,
//! serialized wire payloads) must reproduce the [`SimTransport`] oracle
//! bit for bit — final Q-table bytes, the per-round metrics CSV, and
//! the telemetry counter digest — at 1 and 4 workers, for the GLAP
//! ablation set, with and without fault injection. Also covers
//! training-phase checkpoint/resume: a channel run interrupted mid-
//! training and resumed from its snapshot equals the uninterrupted run.
//! Finally pins the byte streams themselves: CRCs of every delta-coded
//! payload, of every payload of an identity fleet, and of a
//! mid-aggregation fleet checkpoint for each.
//!
//! [`ChannelTransport`]: glap_node::ChannelTransport
//! [`SimTransport`]: glap_node::SimTransport

use glap::codec::CodecKind;
use glap::GlapConfig;
use glap_dcsim::{FaultProfile, NetworkModel};
use glap_experiments::{
    build_world, node_checkpoint_path, run_node_scenario, Algorithm, CheckpointOpts, Scenario,
    TransportKind,
};
use glap_experiments::{rounds_csv, NodeRunOutcome};
use glap_node::{coded_header, NodeInput, NodeRuntime, Routed, SimTransport, Transport};
use glap_snapshot::{crc32, Reader, SnapshotError, Writer};
use glap_telemetry::Tracer;
use std::path::PathBuf;

fn scenario(algorithm: Algorithm, fault: FaultProfile) -> Scenario {
    Scenario {
        n_pms: 24,
        ratio: 2,
        rep: 0,
        algorithm,
        rounds: 40,
        glap: GlapConfig {
            learning_rounds: 10,
            aggregation_rounds: 6,
            ..GlapConfig::default()
        },
        trace_cfg: Default::default(),
        vm_mix: Default::default(),
        fault,
    }
}

fn faulty() -> FaultProfile {
    FaultProfile::faulty(0.1, 0.02, 0.5)
}

/// The complete comparable output of a run: serialized tables, the
/// rounds CSV, the final scalar metrics, and the counter digest.
fn digest(sc: &Scenario, kind: TransportKind, threads: Option<usize>) -> (Vec<u8>, String, String) {
    let tracer = Tracer::counting();
    let out = run_node_scenario(sc, kind, threads, &tracer, &CheckpointOpts::default()).unwrap();
    let r = out.result.expect("run completes");
    let summary = format!(
        "{},{},{},{:.12e},{:.12e}",
        rounds_csv(&r),
        r.collector.total_migrations(),
        r.wake_ups,
        r.sla.slav,
        r.collector.total_migration_energy_j(),
    );
    (
        out.tables.unwrap_or_default(),
        summary,
        tracer.counters_csv(),
    )
}

fn assert_channel_matches_sim(sc: &Scenario, tag: &str) {
    let (sim_tables, sim_summary, sim_counters) = digest(sc, TransportKind::Sim, None);
    for workers in [1usize, 4] {
        let (ch_tables, ch_summary, ch_counters) =
            digest(sc, TransportKind::Channel, Some(workers));
        assert_eq!(
            sim_tables, ch_tables,
            "{tag}: Q-table bytes diverge at {workers} workers"
        );
        assert_eq!(
            sim_summary, ch_summary,
            "{tag}: metrics diverge at {workers} workers"
        );
        assert_eq!(
            sim_counters, ch_counters,
            "{tag}: telemetry counters diverge at {workers} workers"
        );
    }
}

#[test]
fn glap_channel_matches_sim_ideal_network() {
    let sc = scenario(Algorithm::Glap, FaultProfile::none());
    assert_channel_matches_sim(&sc, "GLAP/ideal");
}

#[test]
fn glap_channel_matches_sim_under_faults() {
    let sc = scenario(Algorithm::Glap, faulty());
    assert_channel_matches_sim(&sc, "GLAP/faulty");
}

#[test]
fn ablations_channel_matches_sim() {
    for algorithm in [
        Algorithm::GlapNoVeto,
        Algorithm::GlapCurrentOnly,
        Algorithm::GlapNoAggregation,
    ] {
        let sc = scenario(algorithm, FaultProfile::none());
        assert_channel_matches_sim(&sc, algorithm.label());
        let sc = scenario(algorithm, faulty());
        assert_channel_matches_sim(&sc, &format!("{}/faulty", algorithm.label()));
    }
}

#[test]
fn baselines_channel_matches_sim() {
    // The baselines train nothing, so the transport choice must be
    // invisible: same measured day, same counters, no table artifact.
    for algorithm in [Algorithm::Grmp, Algorithm::EcoCloud, Algorithm::Pabfd] {
        let sc = scenario(algorithm, FaultProfile::none());
        assert_channel_matches_sim(&sc, algorithm.label());
        let sc = scenario(algorithm, faulty());
        assert_channel_matches_sim(&sc, &format!("{}/faulty", algorithm.label()));
    }
}

#[test]
fn wire_bytes_are_counted() {
    let sc = scenario(Algorithm::Glap, FaultProfile::none());
    let tracer = Tracer::counting();
    run_node_scenario(
        &sc,
        TransportKind::Channel,
        Some(2),
        &tracer,
        &CheckpointOpts::default(),
    )
    .unwrap();
    let csv = tracer.counters_csv();
    for counter in [
        "net.msgs",
        "net.bytes_tx",
        "net.bytes_rx",
        "wire.shuffle.req",
    ] {
        assert!(csv.contains(counter), "missing counter {counter}:\n{csv}");
    }
}

#[test]
fn baseline_algorithms_skip_training() {
    let sc = scenario(Algorithm::Grmp, FaultProfile::none());
    let tracer = Tracer::off();
    let NodeRunOutcome { result, tables } = run_node_scenario(
        &sc,
        TransportKind::Channel,
        Some(2),
        &tracer,
        &CheckpointOpts::default(),
    )
    .unwrap();
    assert!(result.is_some());
    assert!(tables.is_none(), "baselines train no tables");
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("glap-node-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn training_interrupt_resume_is_byte_identical() {
    const STOP_AT: u64 = 8; // mid-learning-phase
    let sc = scenario(Algorithm::Glap, faulty());
    let dir = temp_dir("resume");

    // Uninterrupted reference (checkpoint cadence is invisible to the
    // run, so no checkpointing here).
    let ref_tracer = Tracer::counting();
    let reference = run_node_scenario(
        &sc,
        TransportKind::Channel,
        Some(4),
        &ref_tracer,
        &CheckpointOpts::default(),
    )
    .unwrap();
    let ref_result = reference.result.expect("reference completes");

    // Interrupt training at STOP_AT…
    let stop = CheckpointOpts {
        every: STOP_AT,
        dir: Some(dir.clone()),
        stop_at_round: Some(STOP_AT),
        ..CheckpointOpts::default()
    };
    let part_tracer = Tracer::counting();
    let stopped =
        run_node_scenario(&sc, TransportKind::Channel, Some(4), &part_tracer, &stop).unwrap();
    assert!(stopped.result.is_none(), "run stops at --stop-at-round");
    assert!(stopped.tables.is_none());
    let ckpt = node_checkpoint_path(&dir, &sc);
    assert!(ckpt.exists(), "checkpoint written at the stop round");

    // …and resume — with a different worker count, which must not matter.
    let resume = CheckpointOpts {
        resume: Some(ckpt),
        ..CheckpointOpts::default()
    };
    let resume_tracer = Tracer::counting();
    let resumed =
        run_node_scenario(&sc, TransportKind::Sim, None, &resume_tracer, &resume).unwrap();
    let resumed_result = resumed.result.expect("resumed run completes");

    assert_eq!(
        reference.tables, resumed.tables,
        "resumed Q-tables diverge from the uninterrupted run"
    );
    assert_eq!(rounds_csv(&ref_result), rounds_csv(&resumed_result));
    assert_eq!(
        ref_tracer.counters_csv(),
        resume_tracer.counters_csv(),
        "restored tracer counters diverge"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A [`SimTransport`] that keeps the CRC32 of every payload its nodes
/// emit that `keep` selects, in dispatch order.
struct PayloadTap {
    inner: SimTransport,
    keep: fn(&[u8]) -> bool,
    payload_crcs: Vec<u8>,
}

impl Transport for PayloadTap {
    fn n_nodes(&self) -> usize {
        self.inner.n_nodes()
    }

    fn dispatch(&mut self, node: u32, input: NodeInput) -> Routed {
        let outs = self.inner.dispatch(node, input);
        for (_, payload) in &outs {
            if (self.keep)(payload) {
                self.payload_crcs.extend(crc32(payload).to_le_bytes());
            }
        }
        outs
    }

    fn train_all(&mut self) {
        self.inner.train_all();
    }

    fn save_nodes(&mut self, w: &mut Writer) {
        self.inner.save_nodes(w);
    }

    fn restore_nodes(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        self.inner.restore_nodes(r)
    }

    fn into_tables(self) -> Vec<glap_qlearn::QTablePair> {
        self.inner.into_tables()
    }
}

/// Trains a 48-node fleet on a lossy, crashing network under `codec`
/// and returns `(tapped payloads, CRC32 over their CRC32s, CRC32 of the
/// runtime checkpoint taken half-way through aggregation)` — the wire
/// bytes `keep` selects and the fleet's checkpointed state.
fn fleet_crcs(codec: CodecKind, keep: fn(&[u8]) -> bool) -> (usize, u32, u32) {
    let cfg = GlapConfig {
        learning_rounds: 10,
        aggregation_rounds: 8,
        codec,
        ..GlapConfig::default()
    };
    let sc = Scenario {
        n_pms: 48,
        glap: cfg,
        ..scenario(Algorithm::Glap, FaultProfile::faulty(0.05, 0.01, 0.3))
    };
    let (mut dc, mut trace) = build_world(&sc);
    let seed = sc.policy_seed();
    let tap = PayloadTap {
        inner: SimTransport::new(sc.n_pms, &cfg, seed),
        keep,
        payload_crcs: Vec::new(),
    };
    let net = NetworkModel::new(sc.n_pms, sc.fault.clone(), seed ^ 0x4e4f4445);
    let mut rt = NodeRuntime::new(tap, &cfg, net, seed, &dc);
    let tracer = Tracer::off();
    for _ in 0..cfg.learning_rounds {
        rt.learning_round(&mut dc, &mut trace, &tracer);
    }
    let mut checkpoint_crc = 0;
    for round in 0..cfg.aggregation_rounds {
        rt.aggregation_round(&tracer);
        if round + 1 == cfg.aggregation_rounds / 2 {
            let mut w = Writer::new();
            rt.save(&mut w);
            checkpoint_crc = crc32(w.bytes());
        }
    }
    let crcs = &rt.transport().payload_crcs;
    (crcs.len() / 4, crc32(crcs), checkpoint_crc)
}

fn is_coded(payload: &[u8]) -> bool {
    coded_header(payload).is_some()
}

/// Recorded on the dense-state codec (PR 21's tree): the sparse state
/// must put the same bytes on the wire and in checkpoints.
#[test]
fn coded_payload_and_checkpoint_bytes_are_pinned() {
    assert_eq!(
        fleet_crcs(CodecKind::Delta, is_coded),
        (797, 0x9fde_10be, 0xf477_d3c7)
    );
}

/// The identity fleet's whole payload stream — shuffles, profiles and
/// the dense table legs — and its checkpoint, recorded on the tree that
/// still decoded every table leg into a fresh `QTablePair`: merging from
/// and encoding into the wire buffer must not move a byte.
#[test]
fn identity_payload_stream_and_checkpoint_bytes_are_pinned() {
    assert_eq!(
        fleet_crcs(CodecKind::Identity, |_| true),
        (3257, 0x436a_a822, 0x04cb_9304)
    );
}

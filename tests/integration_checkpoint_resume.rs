//! End-to-end checkpoint/resume byte-identity: for every paper
//! algorithm, with and without fault injection, a run interrupted at
//! round R and resumed from its checkpoint must reproduce the
//! uninterrupted run exactly — per-round metrics, SLA figures, the
//! telemetry counter CSV, and the full event trace (the resumed trace
//! concatenated onto the pre-interrupt trace equals the uninterrupted
//! trace event for event, sequence numbers included).
//!
//! The uninterrupted reference runs at the *same* checkpoint cadence,
//! because each checkpoint leaves a `checkpoint_written` event in the
//! trace; both legs therefore observe identical telemetry.

use glap::GlapConfig;
use glap_dcsim::FaultProfile;
use glap_experiments::{
    checkpoint_path, run_scenario_instrumented, Algorithm, CheckpointOpts, Scenario,
};
use glap_profile::Profiler;
use glap_telemetry::Tracer;
use std::path::{Path, PathBuf};

const STOP_AT: u64 = 20;
const ROUNDS: u64 = 40;

fn scenario(algorithm: Algorithm, fault: FaultProfile) -> Scenario {
    Scenario {
        n_pms: 30,
        ratio: 2,
        rep: 0,
        algorithm,
        rounds: ROUNDS,
        glap: GlapConfig {
            learning_rounds: 15,
            aggregation_rounds: 8,
            ..GlapConfig::default()
        },
        trace_cfg: Default::default(),
        vm_mix: Default::default(),
        fault,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "glap-resume-{}-{}",
        tag.replace(['/', ' '], "_"),
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts(dir: &Path) -> CheckpointOpts {
    CheckpointOpts {
        every: STOP_AT,
        dir: Some(dir.to_path_buf()),
        ..CheckpointOpts::default()
    }
}

fn assert_interrupt_resume_is_byte_identical(sc: &Scenario, tag: &str) {
    let dir = temp_dir(tag);

    // Uninterrupted reference.
    let (full_tracer, full_sink) = Tracer::memory();
    let full_dir = dir.join("full");
    std::fs::create_dir_all(&full_dir).unwrap();
    let (full, _) =
        run_scenario_instrumented(sc, &full_tracer, &opts(&full_dir), &Profiler::off(), false)
            .unwrap();
    let full = full.expect("uninterrupted run completes");
    let full_counters = full_tracer.counters_csv();

    // Interrupt at STOP_AT…
    let part_dir = dir.join("part");
    std::fs::create_dir_all(&part_dir).unwrap();
    let (part1_tracer, part1_sink) = Tracer::memory();
    let stop = CheckpointOpts {
        stop_at_round: Some(STOP_AT),
        ..opts(&part_dir)
    };
    let (stopped, _) =
        run_scenario_instrumented(sc, &part1_tracer, &stop, &Profiler::off(), false).unwrap();
    assert!(
        stopped.is_none(),
        "{tag}: interrupted run must not yield a result"
    );
    let ckpt = checkpoint_path(&part_dir, sc);
    assert!(ckpt.exists(), "{tag}: checkpoint file missing");

    // …and resume to the end in a fresh process-equivalent (new tracer,
    // new policy instance, everything rebuilt from the snapshot).
    let (part2_tracer, part2_sink) = Tracer::memory();
    let resume = CheckpointOpts {
        resume: Some(ckpt),
        ..opts(&part_dir)
    };
    let (resumed, _) =
        run_scenario_instrumented(sc, &part2_tracer, &resume, &Profiler::off(), false).unwrap();
    let resumed = resumed.expect("resumed run completes");

    // RunResult equality: per-round samples, SLA metrics, baselines.
    assert_eq!(
        full.collector.samples, resumed.collector.samples,
        "{tag}: per-round samples diverged"
    );
    assert_eq!(full.sla, resumed.sla, "{tag}: SLA metrics diverged");
    assert_eq!(
        full.bfd_bins, resumed.bfd_bins,
        "{tag}: BFD baseline diverged"
    );
    assert_eq!(full.wake_ups, resumed.wake_ups, "{tag}: wake-ups diverged");

    // Counter totals survive the interruption (restored from snapshot).
    assert_eq!(
        full_counters,
        part2_tracer.counters_csv(),
        "{tag}: counter CSV diverged"
    );

    // Event-trace equality: part1 ++ part2 == full, sequence numbers
    // and all (the tracer cursor is checkpointed too).
    let mut stitched = part1_sink.events();
    stitched.extend(part2_sink.events());
    let full_events = full_sink.events();
    assert_eq!(
        full_events.len(),
        stitched.len(),
        "{tag}: event count diverged"
    );
    for (i, (a, b)) in full_events.iter().zip(&stitched).enumerate() {
        assert_eq!(a, b, "{tag}: event {i} diverged");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn glap_interrupt_resume_is_byte_identical() {
    assert_interrupt_resume_is_byte_identical(
        &scenario(Algorithm::Glap, FaultProfile::none()),
        "GLAP",
    );
}

#[test]
fn grmp_interrupt_resume_is_byte_identical() {
    assert_interrupt_resume_is_byte_identical(
        &scenario(Algorithm::Grmp, FaultProfile::none()),
        "GRMP",
    );
}

#[test]
fn ecocloud_interrupt_resume_is_byte_identical() {
    assert_interrupt_resume_is_byte_identical(
        &scenario(Algorithm::EcoCloud, FaultProfile::none()),
        "EcoCloud",
    );
}

#[test]
fn pabfd_interrupt_resume_is_byte_identical() {
    assert_interrupt_resume_is_byte_identical(
        &scenario(Algorithm::Pabfd, FaultProfile::none()),
        "PABFD",
    );
}

#[test]
fn glap_interrupt_resume_with_parallel_training_is_byte_identical() {
    // PR 5: the learning phase fans out over a worker pool. A
    // checkpoint cut from a parallel-trained world must restore
    // byte-identically — per-PM RNG streams make training (and hence
    // every checkpointed table) independent of pool width, so the
    // interrupted/resumed legs match the uninterrupted reference even
    // when all three run 4-wide on the in-training pool.
    glap_par::set_default_threads(4);
    assert_interrupt_resume_is_byte_identical(
        &scenario(Algorithm::Glap, FaultProfile::faulty(0.05, 0.01, 0.2)),
        "GLAP-parallel",
    );
    glap_par::set_default_threads(0);
}

#[test]
fn glap_interrupt_resume_under_faults_is_byte_identical() {
    assert_interrupt_resume_is_byte_identical(
        &scenario(Algorithm::Glap, FaultProfile::faulty(0.05, 0.01, 0.2)),
        "GLAP-faulty",
    );
}

#[test]
fn grmp_interrupt_resume_under_faults_is_byte_identical() {
    assert_interrupt_resume_is_byte_identical(
        &scenario(Algorithm::Grmp, FaultProfile::faulty(0.05, 0.01, 0.2)),
        "GRMP-faulty",
    );
}

#[test]
fn ecocloud_interrupt_resume_under_lossy_network_is_byte_identical() {
    assert_interrupt_resume_is_byte_identical(
        &scenario(Algorithm::EcoCloud, FaultProfile::lossy(0.1)),
        "EcoCloud-lossy",
    );
}

#[test]
fn pabfd_interrupt_resume_under_faults_is_byte_identical() {
    assert_interrupt_resume_is_byte_identical(
        &scenario(Algorithm::Pabfd, FaultProfile::faulty(0.05, 0.01, 0.2)),
        "PABFD-faulty",
    );
}

//! Scenario-level checkpointing: packaging the engine's mid-run state
//! ([`glap_dcsim::CheckpointArgs`]) into one snapshot file, and
//! reconstructing a resumable run from it.
//!
//! A checkpoint is a [`glap_snapshot`] container with seven sections:
//!
//! | section   | contents                                              |
//! |-----------|-------------------------------------------------------|
//! | `meta`    | scenario identity + seeds + rounds completed          |
//! | `rng`     | the policy-stream RNG cursor (exact, mid-block)       |
//! | `dc`      | the full [`DataCenter`](glap_cluster::DataCenter) dynamic state |
//! | `net`     | the network model: fault profile, up-map, RNG cursor  |
//! | `policy`  | the policy's own state (`ConsolidationPolicy::save_state`) |
//! | `metrics` | every [`MetricsCollector`] round sample so far        |
//! | `tracer`  | telemetry phase/round/seq + the counter registry      |
//!
//! The `meta` section is validated against the scenario on resume, so a
//! checkpoint can never be silently applied to the wrong cell of a sweep
//! grid. The `tracer` section is encoded twice (see [`encode_checkpoint`])
//! so the `checkpoint.bytes` counter can include the size of the very
//! snapshot it is stored in.

use crate::runner::{build_world, scenario_policy, DayStart};
use crate::scenario::Scenario;
use glap::TableStore;
use glap_dcsim::{restore_rng, save_rng, CheckpointArgs, ConsolidationPolicy, NetworkModel};
use glap_metrics::{MetricsCollector, RunResult, SlaMetrics};
use glap_snapshot::{Checkpointable, Reader, Snapshot, SnapshotBuilder, SnapshotError, Writer};
use glap_telemetry::{EventKind, Tracer};
use std::convert::Infallible;
use std::path::{Path, PathBuf};

/// The checkpoint file of a scenario inside `dir`.
pub fn checkpoint_path(dir: &Path, sc: &Scenario) -> PathBuf {
    dir.join(format!("{}.ckpt", sc.id()))
}

/// The finished-result marker file of a scenario inside `dir`.
pub fn done_path(dir: &Path, sc: &Scenario) -> PathBuf {
    dir.join(format!("{}.done", sc.id()))
}

fn meta_section(sc: &Scenario, round: u64) -> Writer {
    let mut w = Writer::new();
    w.put_str(sc.algorithm.label());
    w.put_usize(sc.n_pms);
    w.put_usize(sc.ratio);
    w.put_usize(sc.rep);
    w.put_u64(sc.rounds);
    w.put_u64(sc.world_seed());
    w.put_u64(sc.policy_seed());
    w.put_u64(round);
    w
}

/// Validates a snapshot's `meta` section against the scenario it is about
/// to resume, returning the number of measured rounds already completed.
/// Every mismatch is a [`SnapshotError::Corrupt`] naming the field, so a
/// checkpoint can never silently resume the wrong cell.
pub fn check_meta(sc: &Scenario, snap: &Snapshot) -> Result<u64, SnapshotError> {
    let mut r = snap.section("meta")?;
    let algorithm = r.get_str()?;
    if algorithm != sc.algorithm.label() {
        return Err(SnapshotError::Corrupt(format!(
            "checkpoint is for algorithm {algorithm}, scenario runs {}",
            sc.algorithm.label()
        )));
    }
    let n_pms = r.get_usize()?;
    if n_pms != sc.n_pms {
        return Err(SnapshotError::Corrupt(format!(
            "checkpoint has {n_pms} PMs, scenario has {}",
            sc.n_pms
        )));
    }
    let ratio = r.get_usize()?;
    if ratio != sc.ratio {
        return Err(SnapshotError::Corrupt(format!(
            "checkpoint has ratio {ratio}, scenario has {}",
            sc.ratio
        )));
    }
    let rep = r.get_usize()?;
    if rep != sc.rep {
        return Err(SnapshotError::Corrupt(format!(
            "checkpoint is repetition {rep}, scenario is {}",
            sc.rep
        )));
    }
    let rounds = r.get_u64()?;
    if rounds != sc.rounds {
        return Err(SnapshotError::Corrupt(format!(
            "checkpoint targets {rounds} rounds, scenario targets {}",
            sc.rounds
        )));
    }
    let world_seed = r.get_u64()?;
    if world_seed != sc.world_seed() {
        return Err(SnapshotError::Corrupt(
            "checkpoint world seed does not match the scenario".into(),
        ));
    }
    let policy_seed = r.get_u64()?;
    if policy_seed != sc.policy_seed() {
        return Err(SnapshotError::Corrupt(
            "checkpoint policy seed does not match the scenario".into(),
        ));
    }
    let round = r.get_u64()?;
    if round > sc.rounds {
        return Err(SnapshotError::Corrupt(format!(
            "checkpoint claims {round} completed rounds of {}",
            sc.rounds
        )));
    }
    Ok(round)
}

/// Encodes one checkpoint for a scenario from the engine's hook payload.
///
/// The telemetry side effects happen *before* the tracer state is
/// captured, so an uninterrupted run and an interrupted-then-resumed run
/// (both checkpointing at the same cadence) keep byte-identical event
/// traces and counter CSVs: `checkpoint.written` is bumped, a
/// [`EventKind::CheckpointWritten`] event is emitted, and the
/// `checkpoint.bytes` key is created. The container is then encoded
/// twice — the first pass measures the total size, the second stores it
/// in `checkpoint.bytes`. The two passes are size-stable because
/// counters are fixed-width.
pub fn encode_checkpoint(
    sc: &Scenario,
    args: &CheckpointArgs<'_>,
    collector: &MetricsCollector,
) -> Vec<u8> {
    args.tracer.add("checkpoint.written", 1);
    args.tracer.emit(EventKind::CheckpointWritten);
    args.tracer.add("checkpoint.bytes", 0);

    let mut b = SnapshotBuilder::new();
    b.section("meta", meta_section(sc, args.round));
    let mut w = Writer::new();
    save_rng(args.rng, &mut w);
    b.section("rng", w);
    let mut w = Writer::new();
    args.dc.save(&mut w);
    b.section("dc", w);
    let mut w = Writer::new();
    args.net.save(&mut w);
    b.section("net", w);
    let mut w = Writer::new();
    w.put_bytes(args.policy_state);
    b.section("policy", w);
    let mut w = Writer::new();
    collector.save(&mut w);
    b.section("metrics", w);
    let mut w = Writer::new();
    args.tracer.save_state(&mut w);
    b.section("tracer", w);

    let first = b.encode();
    args.tracer.add("checkpoint.bytes", first.len() as u64);
    let mut w = Writer::new();
    args.tracer.save_state(&mut w);
    b.section("tracer", w);
    let second = b.encode();
    debug_assert_eq!(
        first.len(),
        second.len(),
        "fixed-width counters keep the two encode passes size-stable"
    );
    second
}

/// Builds the policy a checkpoint restores into: the same type and
/// configuration [`crate::runner::build_policy`] would produce, but
/// *without* GLAP's offline pre-training — the trained tables arrive
/// from the snapshot via `restore_state`, so resuming costs seconds,
/// not another 700 training rounds.
fn unprimed_policy(sc: &Scenario) -> Box<dyn ConsolidationPolicy> {
    let Ok(policy) = scenario_policy(sc, |_| {
        Ok::<_, Infallible>(TableStore::Shared(Box::default()))
    });
    policy
}

/// Reconstructs a runnable mid-run state from a validated snapshot.
///
/// Static structure (PM/VM inventory, the demand trace) is rebuilt
/// deterministically from the scenario's seeds; the snapshot then
/// overwrites every piece of dynamic state. `tracer` — when on — has its
/// phase/round/seq stamp and counter registry restored too, so event
/// traces and counter CSVs continue seamlessly.
pub(crate) fn resume_scenario(
    sc: &Scenario,
    snap: &Snapshot,
    tracer: &Tracer,
) -> Result<DayStart, SnapshotError> {
    let rounds_done = check_meta(sc, snap)?;
    let (mut dc, trace) = build_world(sc);
    dc.restore(&mut snap.section("dc")?)?;
    if dc.round() != rounds_done {
        return Err(SnapshotError::Corrupt(format!(
            "meta claims {rounds_done} rounds, data center is at {}",
            dc.round()
        )));
    }
    let mut net = NetworkModel::new(sc.n_pms, sc.fault.clone(), sc.policy_seed());
    net.restore(&mut snap.section("net")?)?;
    let rng = restore_rng(&mut snap.section("rng")?)?;
    let mut policy = unprimed_policy(sc);
    let policy_bytes = snap.section("policy")?.get_bytes()?;
    policy.restore_state(&mut Reader::new(&policy_bytes))?;
    let mut collector = MetricsCollector::new();
    collector.restore(&mut snap.section("metrics")?)?;
    tracer.restore_state(&mut snap.section("tracer")?)?;
    Ok(DayStart {
        dc,
        trace,
        net,
        rng,
        policy,
        collector,
        rounds_done,
        call_init: false,
    })
}

/// Encodes a finished [`RunResult`] as a snapshot container (one
/// `result` section) — the sweep's `.done` marker files, CRC-protected
/// like every other snapshot.
pub fn encode_result(result: &RunResult) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_str(&result.algorithm);
    result.collector.save(&mut w);
    w.put_f64(result.sla.slavo);
    w.put_f64(result.sla.slalm);
    w.put_f64(result.sla.slav);
    w.put_usize(result.bfd_bins);
    w.put_u64(result.wake_ups);
    let mut b = SnapshotBuilder::new();
    b.section("result", w);
    b.encode()
}

/// Inverse of [`encode_result`].
pub fn decode_result(snap: &Snapshot) -> Result<RunResult, SnapshotError> {
    let mut r = snap.section("result")?;
    let algorithm = r.get_str()?;
    let mut collector = MetricsCollector::new();
    collector.restore(&mut r)?;
    let sla = SlaMetrics {
        slavo: r.get_f64()?,
        slalm: r.get_f64()?,
        slav: r.get_f64()?,
    };
    let bfd_bins = r.get_usize()?;
    let wake_ups = r.get_u64()?;
    Ok(RunResult {
        algorithm,
        collector,
        sla,
        bfd_bins,
        wake_ups,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Algorithm;
    use glap_metrics::RoundSample;
    use glap_snapshot::Snapshot;

    fn scenario(algorithm: Algorithm) -> Scenario {
        Scenario {
            n_pms: 20,
            ratio: 2,
            rep: 1,
            algorithm,
            rounds: 30,
            glap: Default::default(),
            trace_cfg: Default::default(),
            vm_mix: Default::default(),
            fault: Default::default(),
        }
    }

    fn snapshot_with_meta(sc: &Scenario, round: u64) -> Snapshot {
        let mut b = SnapshotBuilder::new();
        b.section("meta", meta_section(sc, round));
        Snapshot::decode(&b.encode()).unwrap()
    }

    #[test]
    fn meta_round_trips_and_reports_rounds_done() {
        let sc = scenario(Algorithm::Glap);
        let snap = snapshot_with_meta(&sc, 12);
        assert_eq!(check_meta(&sc, &snap).unwrap(), 12);
    }

    #[test]
    fn meta_rejects_wrong_algorithm_and_cell() {
        let sc = scenario(Algorithm::Glap);
        let snap = snapshot_with_meta(&sc, 5);
        let wrong_algo = scenario(Algorithm::Grmp);
        let err = check_meta(&wrong_algo, &snap).unwrap_err();
        assert!(err.to_string().contains("GLAP"), "{err}");
        let mut wrong_cell = scenario(Algorithm::Glap);
        wrong_cell.n_pms = 21;
        assert!(check_meta(&wrong_cell, &snap).is_err());
        let mut wrong_rep = scenario(Algorithm::Glap);
        wrong_rep.rep = 0;
        assert!(check_meta(&wrong_rep, &snap).is_err());
    }

    #[test]
    fn meta_rejects_round_past_the_end() {
        let sc = scenario(Algorithm::Glap);
        let snap = snapshot_with_meta(&sc, 31);
        assert!(check_meta(&sc, &snap).is_err());
    }

    #[test]
    fn result_files_round_trip() {
        let mut collector = MetricsCollector::new();
        collector.samples.push(RoundSample {
            round: 0,
            active_pms: 9,
            overloaded_pms: 1,
            migrations: 4,
            migration_energy_j: 123.5,
            wake_ups: 2,
        });
        let result = RunResult {
            algorithm: "GLAP".into(),
            collector,
            sla: SlaMetrics {
                slavo: 0.25,
                slalm: 0.5,
                slav: 0.125,
            },
            bfd_bins: 7,
            wake_ups: 2,
        };
        let bytes = encode_result(&result);
        let twin = decode_result(&Snapshot::decode(&bytes).unwrap()).unwrap();
        assert_eq!(twin.algorithm, "GLAP");
        assert_eq!(twin.collector.samples, result.collector.samples);
        assert_eq!(twin.sla, result.sla);
        assert_eq!(twin.bfd_bins, 7);
        assert_eq!(twin.wake_ups, 2);
        // And a re-encode is byte-identical.
        assert_eq!(encode_result(&twin), bytes);
    }

    #[test]
    fn paths_embed_the_scenario_id() {
        let sc = scenario(Algorithm::Pabfd);
        let dir = Path::new("/tmp/ckpts");
        assert!(checkpoint_path(dir, &sc)
            .to_string_lossy()
            .ends_with("PABFD-20x2-r1.ckpt"));
        assert!(done_path(dir, &sc)
            .to_string_lossy()
            .ends_with("PABFD-20x2-r1.done"));
    }

    #[test]
    fn unprimed_policies_match_scenario_algorithms() {
        for algo in Algorithm::PAPER_SET
            .iter()
            .chain(Algorithm::ABLATION_SET.iter())
        {
            let sc = scenario(*algo);
            let policy = unprimed_policy(&sc);
            // Every unprimed policy reports a name; GLAP variants share
            // the protocol name while baselines keep their own.
            assert!(!policy.name().is_empty());
        }
    }
}

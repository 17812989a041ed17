//! Offline trace replay: parses a JSONL event trace (written by a
//! [`glap_telemetry::JsonlSink`]) back into typed events and folds it
//! into a per-round digest — dropped/timed-out messages, veto and abort
//! tallies, crashes, migrations, and the convergence series.
//!
//! Parsing is strict: [`Event::from_json`] accepts a line only if it is
//! exactly what [`Event::to_json`] writes for the event it decodes to,
//! so replaying a trace doubles as schema validation of the whole file.

use glap_telemetry::{AbortReason, Event, EventKind, Phase};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::BufRead;

/// Aggregated telemetry of one `(phase, round)` group.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundDigest {
    /// Simulation round the digest covers.
    pub round: u64,
    /// Events in the round.
    pub events: usize,
    /// Messages dropped in flight.
    pub dropped: usize,
    /// Requests whose reply missed the timeout.
    pub timed_out: usize,
    /// Sends/requests addressed to a crashed PM.
    pub target_down: usize,
    /// PM crashes.
    pub crashes: usize,
    /// PM recoveries.
    pub recoveries: usize,
    /// Completed shuffles.
    pub shuffles: usize,
    /// Applied Q-merges.
    pub merges: usize,
    /// Committed migrations.
    pub migrations: usize,
    /// π_in vetoes.
    pub vetoes: usize,
    /// Checkpoints written during the round.
    pub checkpoints: usize,
    /// Aborted transfers by reason.
    pub aborts: BTreeMap<AbortReason, usize>,
    /// Q-table population diameter, when sampled this round.
    pub diameter: Option<f64>,
}

/// Whole-trace digest: rounds per phase, in file order.
#[derive(Debug, Clone, Default)]
pub struct ReplayDigest {
    /// `(phase, per-round digest)` groups in trace order.
    pub rounds: Vec<(Phase, RoundDigest)>,
    /// Total events parsed.
    pub events: usize,
}

impl ReplayDigest {
    fn entry(&mut self, phase: Phase, round: u64) -> &mut RoundDigest {
        let fresh = match self.rounds.last() {
            Some((p, d)) => *p != phase || d.round != round,
            None => true,
        };
        if fresh {
            self.rounds.push((
                phase,
                RoundDigest {
                    round,
                    ..RoundDigest::default()
                },
            ));
        }
        &mut self.rounds.last_mut().expect("just pushed").1
    }

    /// Folds one event into the digest.
    pub fn fold(&mut self, ev: &Event) {
        self.events += 1;
        let d = self.entry(ev.phase, ev.round);
        d.events += 1;
        match ev.kind {
            EventKind::MsgDropped { .. } => d.dropped += 1,
            EventKind::MsgTimedOut { .. } => d.timed_out += 1,
            EventKind::MsgTargetDown { .. } => d.target_down += 1,
            EventKind::PmCrashed { .. } => d.crashes += 1,
            EventKind::PmRecovered { .. } => d.recoveries += 1,
            EventKind::ShuffleCompleted { .. } => d.shuffles += 1,
            EventKind::MergeApplied { .. } => d.merges += 1,
            EventKind::MigrationCommitted { .. } => d.migrations += 1,
            EventKind::MigrationVetoed { .. } => d.vetoes += 1,
            EventKind::MigrationAborted { reason, .. } => {
                *d.aborts.entry(reason).or_insert(0) += 1;
            }
            EventKind::CheckpointWritten => d.checkpoints += 1,
            EventKind::ConvergenceSampled { diameter, .. } => d.diameter = Some(diameter),
            _ => {}
        }
    }

    /// Total vetoes across all rounds.
    pub fn total_vetoes(&self) -> usize {
        self.rounds.iter().map(|(_, d)| d.vetoes).sum()
    }

    /// Total dropped messages across all rounds.
    pub fn total_dropped(&self) -> usize {
        self.rounds.iter().map(|(_, d)| d.dropped).sum()
    }

    /// Renders the digest as the human-readable report `diagnose
    /// --replay` prints: one line per round with activity, then totals.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:>6} {:>7} {:>5} {:>5} {:>6} {:>6} {:>6} {:>6}  vetoes/aborts, diameter",
            "phase", "round", "events", "drop", "t/o", "crash", "shufl", "merge", "migr"
        );
        for (phase, d) in &self.rounds {
            let mut tail = String::new();
            if d.vetoes > 0 {
                let _ = write!(tail, "veto×{}", d.vetoes);
            }
            for (reason, n) in &d.aborts {
                if !tail.is_empty() {
                    tail.push(' ');
                }
                let _ = write!(tail, "{}×{}", reason.tag(), n);
            }
            if let Some(diam) = d.diameter {
                if !tail.is_empty() {
                    tail.push(' ');
                }
                let _ = write!(tail, "diam={diam:.4}");
            }
            if d.checkpoints > 0 {
                if !tail.is_empty() {
                    tail.push(' ');
                }
                let _ = write!(tail, "ckpt×{}", d.checkpoints);
            }
            let _ = writeln!(
                out,
                "{:>5} {:>6} {:>7} {:>5} {:>5} {:>6} {:>6} {:>6} {:>6}  {}",
                phase.tag(),
                d.round,
                d.events,
                d.dropped,
                d.timed_out,
                d.crashes,
                d.shuffles,
                d.merges,
                d.migrations,
                tail
            );
        }
        let _ = writeln!(
            out,
            "total: {} events over {} rounds, {} dropped, {} vetoes",
            self.events,
            self.rounds.len(),
            self.total_dropped(),
            self.total_vetoes()
        );
        out
    }
}

/// Replays a JSONL trace into a digest. Every non-empty line must be an
/// event's canonical encoding ([`Event::from_json`]); the first
/// offending line fails the whole replay.
pub fn replay_digest<R: BufRead>(input: R) -> Result<ReplayDigest, String> {
    let mut digest = ReplayDigest::default();
    for (lineno, line) in input.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: read error: {e}", lineno + 1))?;
        if line.is_empty() {
            continue;
        }
        let ev = Event::from_json(&line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        digest.fold(&ev);
    }
    Ok(digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glap_telemetry::MsgOp;

    fn ev(phase: Phase, round: u64, seq: u64, kind: EventKind) -> Event {
        Event {
            phase,
            round,
            seq,
            kind,
        }
    }

    #[test]
    fn digest_groups_by_phase_and_round() {
        let events = [
            ev(
                Phase::Learning,
                0,
                0,
                EventKind::ShuffleCompleted { from: 0, to: 1 },
            ),
            ev(
                Phase::Aggregation,
                0,
                1,
                EventKind::MergeApplied { a: 0, b: 1 },
            ),
            ev(
                Phase::Run,
                0,
                2,
                EventKind::MsgDropped {
                    from: 1,
                    to: 2,
                    op: MsgOp::Request,
                },
            ),
            ev(
                Phase::Run,
                1,
                3,
                EventKind::MigrationVetoed {
                    vm: 7,
                    from: 1,
                    to: 2,
                },
            ),
            ev(
                Phase::Run,
                1,
                4,
                EventKind::MigrationAborted {
                    from: 1,
                    to: 2,
                    reason: AbortReason::NoCapacity,
                },
            ),
        ];
        let jsonl: String = events.iter().map(|e| e.to_json() + "\n").collect();
        let digest = replay_digest(jsonl.as_bytes()).unwrap();
        assert_eq!(digest.events, 5);
        assert_eq!(digest.rounds.len(), 4);
        assert_eq!(digest.rounds[0].0, Phase::Learning);
        assert_eq!(digest.rounds[0].1.shuffles, 1);
        assert_eq!(digest.rounds[1].1.merges, 1);
        assert_eq!(digest.total_dropped(), 1);
        assert_eq!(digest.total_vetoes(), 1);
        let last = &digest.rounds[3].1;
        assert_eq!(last.aborts[&AbortReason::NoCapacity], 1);
        let report = digest.render();
        assert!(report.contains("veto×1"));
        assert!(report.contains("no_capacity×1"));
    }

    #[test]
    fn digest_shows_checkpoint_rounds() {
        let events = [
            ev(
                Phase::Run,
                4,
                0,
                EventKind::MigrationCommitted {
                    vm: 1,
                    from: 0,
                    to: 1,
                },
            ),
            ev(Phase::Run, 5, 1, EventKind::CheckpointWritten),
        ];
        let jsonl: String = events.iter().map(|e| e.to_json() + "\n").collect();
        let digest = replay_digest(jsonl.as_bytes()).unwrap();
        assert_eq!(digest.rounds[0].1.checkpoints, 0);
        assert_eq!(digest.rounds[1].1.checkpoints, 1);
        let report = digest.render();
        assert!(report.contains("ckpt×1"), "{report}");
    }

    #[test]
    fn malformed_line_fails_replay() {
        assert!(replay_digest("not json\n".as_bytes()).is_err());
        // Valid JSON object but unknown kind.
        let bogus = r#"{"phase":"run","round":0,"seq":0,"kind":"nope","payload":{}}"#;
        assert!(replay_digest(bogus.as_bytes()).is_err());
    }

    #[test]
    fn empty_lines_are_skipped() {
        let e = ev(Phase::Run, 3, 0, EventKind::PmCrashed { pm: 2 });
        let text = format!("\n{}\n\n", e.to_json());
        let digest = replay_digest(text.as_bytes()).unwrap();
        assert_eq!(digest.events, 1);
        assert_eq!(digest.rounds[0].1.crashes, 1);
    }
}

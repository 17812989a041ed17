//! Typed protocol events and their JSONL wire format.
//!
//! Every event is one flat JSON object per line. [`Event::to_json`] is
//! the schema: the only statement of which fields a kind has, in what
//! order and how each is written. [`Event::from_json`] is its inverse,
//! checked by re-encoding: it reads the line with the workspace's one
//! JSON reader ([`glap_profile::json`]) and accepts it only if the
//! decoded event's `to_json` is the line itself. So
//! `from_json(to_json(e)) == e`, and every accepted line is canonical;
//! CI's replay of a recorded trace validates that property end to end.

use glap_profile::json::Json;
use std::fmt;

/// Which simulation phase an event was emitted in.
///
/// The trainer runs the `Learning` (WOG) and `Aggregation` (WG) phases
/// before the measured day (`Run`). Round indices restart per phase, so
/// the phase tag is part of every event's timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Phase {
    /// Pre-training, learning rounds (without gossip).
    Learning,
    /// Pre-training, gossip aggregation rounds.
    Aggregation,
    /// The measured simulation day.
    #[default]
    Run,
}

impl Phase {
    /// Stable wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            Phase::Learning => "learn",
            Phase::Aggregation => "agg",
            Phase::Run => "run",
        }
    }

    /// Inverse of [`Phase::tag`].
    pub fn parse(s: &str) -> Option<Phase> {
        match s {
            "learn" => Some(Phase::Learning),
            "agg" => Some(Phase::Aggregation),
            "run" => Some(Phase::Run),
            _ => None,
        }
    }
}

/// Whether a network interaction was a one-way send or a request/reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgOp {
    /// Fire-and-forget message.
    Send,
    /// Round-trip request (two legs).
    Request,
}

impl MsgOp {
    /// Stable wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            MsgOp::Send => "send",
            MsgOp::Request => "request",
        }
    }

    /// Inverse of [`MsgOp::tag`].
    pub fn parse(s: &str) -> Option<MsgOp> {
        match s {
            "send" => Some(MsgOp::Send),
            "request" => Some(MsgOp::Request),
            _ => None,
        }
    }
}

/// Why a migration attempt stopped without committing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbortReason {
    /// The `π_out` policy selected no VM to evict.
    NoAction,
    /// The destination had no spare capacity for the selected VM.
    NoCapacity,
    /// The migration handshake failed (partner down / message lost).
    Unreachable,
}

impl AbortReason {
    /// Stable wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            AbortReason::NoAction => "no_action",
            AbortReason::NoCapacity => "no_capacity",
            AbortReason::Unreachable => "unreachable",
        }
    }

    /// Inverse of [`AbortReason::tag`].
    pub fn parse(s: &str) -> Option<AbortReason> {
        match s {
            "no_action" => Some(AbortReason::NoAction),
            "no_capacity" => Some(AbortReason::NoCapacity),
            "unreachable" => Some(AbortReason::Unreachable),
            _ => None,
        }
    }
}

/// The event vocabulary. All four policies emit from this one set; the
/// `DataCenter` and `NetworkModel` funnels guarantee the shared subset
/// (migration commits, sleep/wake, message fates, crash/recover).
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A message was delivered.
    MsgSent {
        /// Sender PM.
        from: u32,
        /// Receiver PM.
        to: u32,
        /// Send or request.
        op: MsgOp,
    },
    /// A message was dropped by the network.
    MsgDropped {
        /// Sender PM.
        from: u32,
        /// Receiver PM.
        to: u32,
        /// Send or request.
        op: MsgOp,
    },
    /// A request's round-trip exceeded the timeout.
    MsgTimedOut {
        /// Sender PM.
        from: u32,
        /// Receiver PM.
        to: u32,
    },
    /// The target PM was down when the message was sent.
    MsgTargetDown {
        /// Sender PM.
        from: u32,
        /// Receiver PM.
        to: u32,
        /// Send or request.
        op: MsgOp,
    },
    /// A PM crashed (scripted or stochastic).
    PmCrashed {
        /// The PM.
        pm: u32,
    },
    /// A crashed PM came back up.
    PmRecovered {
        /// The PM.
        pm: u32,
    },
    /// A Cyclon shuffle round-trip completed.
    ShuffleCompleted {
        /// Initiator node.
        from: u32,
        /// Shuffle partner.
        to: u32,
    },
    /// A Cyclon shuffle was aborted (partner unreachable).
    ShuffleFailed {
        /// Initiator node.
        from: u32,
        /// Shuffle partner.
        to: u32,
    },
    /// A pairwise Q-table merge was applied (both directions).
    MergeApplied {
        /// First PM of the merged pair.
        a: u32,
        /// Second PM of the merged pair.
        b: u32,
    },
    /// A merge attempt failed and the PM retried with another peer.
    MergeRetried {
        /// The initiating PM.
        pm: u32,
        /// 1-based attempt number that failed.
        attempt: u32,
    },
    /// A consolidation exchange (GLAP/GRMP pairwise session) opened.
    ExchangeOpened {
        /// Initiator PM.
        p: u32,
        /// Partner PM.
        q: u32,
    },
    /// `π_out` proposed evicting a VM to a destination.
    MigrationProposed {
        /// The VM.
        vm: u32,
        /// Source PM.
        from: u32,
        /// Destination PM.
        to: u32,
    },
    /// The destination's `π_in` policy vetoed the proposal.
    MigrationVetoed {
        /// The VM.
        vm: u32,
        /// Source PM.
        from: u32,
        /// Destination PM.
        to: u32,
    },
    /// A migration committed (the `DataCenter::migrate` funnel).
    MigrationCommitted {
        /// The VM.
        vm: u32,
        /// Source PM.
        from: u32,
        /// Destination PM.
        to: u32,
    },
    /// A migration attempt stopped before committing.
    MigrationAborted {
        /// Source PM.
        from: u32,
        /// Destination PM.
        to: u32,
        /// Why it stopped.
        reason: AbortReason,
    },
    /// An emptied PM was switched to sleep.
    PmSlept {
        /// The PM.
        pm: u32,
    },
    /// A sleeping PM was woken up.
    PmWoke {
        /// The PM.
        pm: u32,
    },
    /// A checkpoint of the full simulation state was written. Emitted
    /// *before* the snapshot is encoded so the event itself is part of
    /// the checkpointed trace; the size lands in the
    /// `checkpoint.bytes` counter instead of an event payload.
    CheckpointWritten,
    /// The convergence monitor sampled the Q-table population.
    ConvergenceSampled {
        /// Cycle index within the phase.
        cycle: u32,
        /// Max pairwise L∞ distance across alive tables.
        diameter: f64,
        /// Mean cosine similarity vs. the unified reference table.
        cosine: f64,
        /// Alive overlay nodes at sampling time.
        alive: u32,
        /// Whether the alive overlay is a single connected component.
        connected: bool,
    },
}

impl EventKind {
    /// Stable wire tag, also used as the per-kind counter suffix.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::MsgSent { .. } => "msg_sent",
            EventKind::MsgDropped { .. } => "msg_dropped",
            EventKind::MsgTimedOut { .. } => "msg_timed_out",
            EventKind::MsgTargetDown { .. } => "msg_target_down",
            EventKind::PmCrashed { .. } => "pm_crashed",
            EventKind::PmRecovered { .. } => "pm_recovered",
            EventKind::ShuffleCompleted { .. } => "shuffle_completed",
            EventKind::ShuffleFailed { .. } => "shuffle_failed",
            EventKind::MergeApplied { .. } => "merge_applied",
            EventKind::MergeRetried { .. } => "merge_retried",
            EventKind::ExchangeOpened { .. } => "exchange_opened",
            EventKind::MigrationProposed { .. } => "migration_proposed",
            EventKind::MigrationVetoed { .. } => "migration_vetoed",
            EventKind::MigrationCommitted { .. } => "migration_committed",
            EventKind::MigrationAborted { .. } => "migration_aborted",
            EventKind::PmSlept { .. } => "pm_slept",
            EventKind::PmWoke { .. } => "pm_woke",
            EventKind::CheckpointWritten => "checkpoint_written",
            EventKind::ConvergenceSampled { .. } => "convergence_sampled",
        }
    }
}

/// One timestamped protocol event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulation phase.
    pub phase: Phase,
    /// Round index within the phase.
    pub round: u64,
    /// Logical time: monotone sequence number over the whole trace.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Parse error for a JSONL trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace parse error: {}", self.msg)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { msg: msg.into() })
}

/// The value read for field `key`, or an error saying it is not `what`.
fn read<T>(key: &str, what: &str, value: Option<T>) -> Result<T, ParseError> {
    value.ok_or_else(|| ParseError {
        msg: format!("field `{key}` is not {what}"),
    })
}

impl Event {
    /// Encodes this event as one flat JSON object (no trailing newline).
    ///
    /// Schema: every line has `"phase"` (`"learn" | "agg" | "run"`),
    /// `"round"` (u64), `"seq"` (u64) and `"kind"` (the tag from
    /// [`EventKind::name`]), followed by the kind's payload fields in a
    /// fixed order:
    ///
    /// | kind | payload |
    /// |------|---------|
    /// | `msg_sent`, `msg_dropped`, `msg_target_down` | `from`, `to`, `op` (`"send" \| "request"`) |
    /// | `msg_timed_out` | `from`, `to` |
    /// | `pm_crashed`, `pm_recovered`, `pm_slept`, `pm_woke` | `pm` |
    /// | `shuffle_completed`, `shuffle_failed` | `from`, `to` |
    /// | `merge_applied` | `a`, `b` |
    /// | `merge_retried` | `pm`, `attempt` |
    /// | `exchange_opened` | `p`, `q` |
    /// | `migration_proposed`, `migration_vetoed`, `migration_committed` | `vm`, `from`, `to` |
    /// | `migration_aborted` | `from`, `to`, `reason` (`"no_action" \| "no_capacity" \| "unreachable"`) |
    /// | `checkpoint_written` | *(no payload)* |
    /// | `convergence_sampled` | `cycle`, `diameter` (f64), `cosine` (f64), `alive`, `connected` (bool) |
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"phase\":\"");
        s.push_str(self.phase.tag());
        s.push_str("\",\"round\":");
        s.push_str(&self.round.to_string());
        s.push_str(",\"seq\":");
        s.push_str(&self.seq.to_string());
        s.push_str(",\"kind\":\"");
        s.push_str(self.kind.name());
        s.push('"');
        let num = |s: &mut String, key: &str, v: u64| {
            s.push_str(",\"");
            s.push_str(key);
            s.push_str("\":");
            s.push_str(&v.to_string());
        };
        match &self.kind {
            EventKind::MsgSent { from, to, op }
            | EventKind::MsgDropped { from, to, op }
            | EventKind::MsgTargetDown { from, to, op } => {
                num(&mut s, "from", u64::from(*from));
                num(&mut s, "to", u64::from(*to));
                s.push_str(",\"op\":\"");
                s.push_str(op.tag());
                s.push('"');
            }
            EventKind::MsgTimedOut { from, to }
            | EventKind::ShuffleCompleted { from, to }
            | EventKind::ShuffleFailed { from, to } => {
                num(&mut s, "from", u64::from(*from));
                num(&mut s, "to", u64::from(*to));
            }
            EventKind::PmCrashed { pm }
            | EventKind::PmRecovered { pm }
            | EventKind::PmSlept { pm }
            | EventKind::PmWoke { pm } => {
                num(&mut s, "pm", u64::from(*pm));
            }
            EventKind::MergeApplied { a, b } => {
                num(&mut s, "a", u64::from(*a));
                num(&mut s, "b", u64::from(*b));
            }
            EventKind::MergeRetried { pm, attempt } => {
                num(&mut s, "pm", u64::from(*pm));
                num(&mut s, "attempt", u64::from(*attempt));
            }
            EventKind::ExchangeOpened { p, q } => {
                num(&mut s, "p", u64::from(*p));
                num(&mut s, "q", u64::from(*q));
            }
            EventKind::MigrationProposed { vm, from, to }
            | EventKind::MigrationVetoed { vm, from, to }
            | EventKind::MigrationCommitted { vm, from, to } => {
                num(&mut s, "vm", u64::from(*vm));
                num(&mut s, "from", u64::from(*from));
                num(&mut s, "to", u64::from(*to));
            }
            EventKind::MigrationAborted { from, to, reason } => {
                num(&mut s, "from", u64::from(*from));
                num(&mut s, "to", u64::from(*to));
                s.push_str(",\"reason\":\"");
                s.push_str(reason.tag());
                s.push('"');
            }
            EventKind::CheckpointWritten => {}
            EventKind::ConvergenceSampled {
                cycle,
                diameter,
                cosine,
                alive,
                connected,
            } => {
                num(&mut s, "cycle", u64::from(*cycle));
                s.push_str(",\"diameter\":");
                s.push_str(&fmt_f64(*diameter));
                s.push_str(",\"cosine\":");
                s.push_str(&fmt_f64(*cosine));
                num(&mut s, "alive", u64::from(*alive));
                s.push_str(",\"connected\":");
                s.push_str(if *connected { "true" } else { "false" });
            }
        }
        s.push('}');
        s
    }

    /// The inverse of [`Event::to_json`]: reads one trace line through
    /// [`glap_profile::json`], builds the event from its `kind` tag and
    /// named fields, and accepts it only if it re-encodes to `line`
    /// byte for byte. That one comparison is the whole strictness rule:
    /// a missing, extra, duplicate or reordered field, whitespace, an
    /// escape or a non-canonical number are all refused by it.
    pub fn from_json(line: &str) -> Result<Event, ParseError> {
        let doc = Json::parse(line).map_err(|msg| ParseError { msg })?;
        let field = |key: &str| {
            doc.get(key).ok_or_else(|| ParseError {
                msg: format!("missing field `{key}`"),
            })
        };
        let id = |key: &str| {
            let n = field(key)?.as_u64().and_then(|n| u32::try_from(n).ok());
            read(key, "a u32", n)
        };
        let float = |key: &str| read(key, "a number", field(key)?.as_f64());
        let tag = |key: &str| read(key, "a string", field(key)?.as_str());
        let op = || read("op", "a known tag", MsgOp::parse(tag("op")?));
        let kind = match tag("kind")? {
            "msg_sent" => EventKind::MsgSent {
                from: id("from")?,
                to: id("to")?,
                op: op()?,
            },
            "msg_dropped" => EventKind::MsgDropped {
                from: id("from")?,
                to: id("to")?,
                op: op()?,
            },
            "msg_timed_out" => EventKind::MsgTimedOut {
                from: id("from")?,
                to: id("to")?,
            },
            "msg_target_down" => EventKind::MsgTargetDown {
                from: id("from")?,
                to: id("to")?,
                op: op()?,
            },
            "pm_crashed" => EventKind::PmCrashed { pm: id("pm")? },
            "pm_recovered" => EventKind::PmRecovered { pm: id("pm")? },
            "shuffle_completed" => EventKind::ShuffleCompleted {
                from: id("from")?,
                to: id("to")?,
            },
            "shuffle_failed" => EventKind::ShuffleFailed {
                from: id("from")?,
                to: id("to")?,
            },
            "merge_applied" => EventKind::MergeApplied {
                a: id("a")?,
                b: id("b")?,
            },
            "merge_retried" => EventKind::MergeRetried {
                pm: id("pm")?,
                attempt: id("attempt")?,
            },
            "exchange_opened" => EventKind::ExchangeOpened {
                p: id("p")?,
                q: id("q")?,
            },
            "migration_proposed" => EventKind::MigrationProposed {
                vm: id("vm")?,
                from: id("from")?,
                to: id("to")?,
            },
            "migration_vetoed" => EventKind::MigrationVetoed {
                vm: id("vm")?,
                from: id("from")?,
                to: id("to")?,
            },
            "migration_committed" => EventKind::MigrationCommitted {
                vm: id("vm")?,
                from: id("from")?,
                to: id("to")?,
            },
            "migration_aborted" => EventKind::MigrationAborted {
                from: id("from")?,
                to: id("to")?,
                reason: read("reason", "a known tag", AbortReason::parse(tag("reason")?))?,
            },
            "pm_slept" => EventKind::PmSlept { pm: id("pm")? },
            "pm_woke" => EventKind::PmWoke { pm: id("pm")? },
            "checkpoint_written" => EventKind::CheckpointWritten,
            "convergence_sampled" => EventKind::ConvergenceSampled {
                cycle: id("cycle")?,
                diameter: float("diameter")?,
                cosine: float("cosine")?,
                alive: id("alive")?,
                connected: read("connected", "a bool", field("connected")?.as_bool())?,
            },
            other => return err(format!("unknown event kind `{other}`")),
        };
        let event = Event {
            phase: read("phase", "a known tag", Phase::parse(tag("phase")?))?,
            round: read("round", "a u64", field("round")?.as_u64())?,
            seq: read("seq", "a u64", field("seq")?.as_u64())?,
            kind,
        };
        let canonical = event.to_json();
        if canonical != line {
            return err(format!("not the canonical encoding `{canonical}`"));
        }
        Ok(event)
    }
}

/// Round-trip-stable f64 formatting (`Display` prints the shortest
/// decimal that parses back exactly).
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(e: Event) {
        let line = e.to_json();
        let back = Event::from_json(&line).expect(&line);
        assert_eq!(back, e, "{line}");
        assert_eq!(back.to_json(), line);
    }

    #[test]
    fn every_kind_round_trips() {
        let kinds = vec![
            EventKind::MsgSent {
                from: 1,
                to: 2,
                op: MsgOp::Send,
            },
            EventKind::MsgDropped {
                from: 3,
                to: 4,
                op: MsgOp::Request,
            },
            EventKind::MsgTimedOut { from: 5, to: 6 },
            EventKind::MsgTargetDown {
                from: 7,
                to: 8,
                op: MsgOp::Request,
            },
            EventKind::PmCrashed { pm: 9 },
            EventKind::PmRecovered { pm: 10 },
            EventKind::ShuffleCompleted { from: 11, to: 12 },
            EventKind::ShuffleFailed { from: 13, to: 14 },
            EventKind::MergeApplied { a: 15, b: 16 },
            EventKind::MergeRetried { pm: 17, attempt: 2 },
            EventKind::ExchangeOpened { p: 18, q: 19 },
            EventKind::MigrationProposed {
                vm: 20,
                from: 21,
                to: 22,
            },
            EventKind::MigrationVetoed {
                vm: 23,
                from: 24,
                to: 25,
            },
            EventKind::MigrationCommitted {
                vm: 26,
                from: 27,
                to: 28,
            },
            EventKind::MigrationAborted {
                from: 29,
                to: 30,
                reason: AbortReason::NoCapacity,
            },
            EventKind::PmSlept { pm: 31 },
            EventKind::PmWoke { pm: 32 },
            EventKind::CheckpointWritten,
            EventKind::ConvergenceSampled {
                cycle: 7,
                diameter: 0.125,
                cosine: 0.987654321,
                alive: 40,
                connected: true,
            },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            for phase in [Phase::Learning, Phase::Aggregation, Phase::Run] {
                roundtrip(Event {
                    phase,
                    round: i as u64 * 13,
                    seq: i as u64 * 101 + 7,
                    kind: kind.clone(),
                });
            }
        }
    }

    #[test]
    fn abort_reasons_round_trip() {
        for reason in [
            AbortReason::NoAction,
            AbortReason::NoCapacity,
            AbortReason::Unreachable,
        ] {
            roundtrip(Event {
                phase: Phase::Run,
                round: 1,
                seq: 2,
                kind: EventKind::MigrationAborted {
                    from: 0,
                    to: 1,
                    reason,
                },
            });
        }
    }

    #[test]
    fn extreme_floats_round_trip() {
        for diameter in [0.0, 1e-300, 1e300, 0.1 + 0.2, f64::MIN_POSITIVE] {
            roundtrip(Event {
                phase: Phase::Aggregation,
                round: 0,
                seq: 0,
                kind: EventKind::ConvergenceSampled {
                    cycle: 0,
                    diameter,
                    cosine: -1.0 / 3.0,
                    alive: 1,
                    connected: false,
                },
            });
        }
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "",
            "{}",
            "not json",
            r#"{"phase":"run","round":1,"seq":2,"kind":"no_such_kind"}"#,
            r#"{"phase":"run","round":1,"seq":2,"kind":"pm_slept"}"#, // missing pm
            r#"{"phase":"run","round":1,"seq":2,"kind":"pm_slept","pm":1,"extra":9}"#,
            r#"{"phase":"run","round":1,"seq":2,"kind":"pm_slept","pm":-1}"#,
            r#"{"phase":"walk","round":1,"seq":2,"kind":"pm_slept","pm":1}"#,
            r#"{"phase":"run","round":1,"seq":2,"kind":"pm_slept","pm":1} trailing"#,
            r#"{"phase":"run","round":1,"round":1,"seq":2,"kind":"pm_slept","pm":1}"#,
        ] {
            assert!(Event::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    /// An event kind for each `tag` in `0..19` (in [`EventKind::name`]'s
    /// order), its ids from `v`.
    fn kind_of(tag: usize, v: [u32; 3], x: f64, flag: bool) -> EventKind {
        let [a, b, c] = v;
        let op = if flag { MsgOp::Send } else { MsgOp::Request };
        let reasons = [
            AbortReason::NoAction,
            AbortReason::NoCapacity,
            AbortReason::Unreachable,
        ];
        match tag {
            0 => EventKind::MsgSent { from: a, to: b, op },
            1 => EventKind::MsgDropped { from: a, to: b, op },
            2 => EventKind::MsgTimedOut { from: a, to: b },
            3 => EventKind::MsgTargetDown { from: a, to: b, op },
            4 => EventKind::PmCrashed { pm: a },
            5 => EventKind::PmRecovered { pm: a },
            6 => EventKind::ShuffleCompleted { from: a, to: b },
            7 => EventKind::ShuffleFailed { from: a, to: b },
            8 => EventKind::MergeApplied { a, b },
            9 => EventKind::MergeRetried { pm: a, attempt: b },
            10 => EventKind::ExchangeOpened { p: a, q: b },
            11 => EventKind::MigrationProposed {
                vm: c,
                from: a,
                to: b,
            },
            12 => EventKind::MigrationVetoed {
                vm: c,
                from: a,
                to: b,
            },
            13 => EventKind::MigrationCommitted {
                vm: c,
                from: a,
                to: b,
            },
            14 => EventKind::MigrationAborted {
                from: a,
                to: b,
                reason: reasons[c as usize % 3],
            },
            15 => EventKind::PmSlept { pm: a },
            16 => EventKind::PmWoke { pm: a },
            17 => EventKind::CheckpointWritten,
            _ => EventKind::ConvergenceSampled {
                cycle: a,
                diameter: x,
                cosine: -x / 3.0,
                alive: b,
                connected: flag,
            },
        }
    }

    /// A canonical `line` damaged by mutation `m`: 0 truncates it, 1
    /// flips bits of a byte, 2 inserts whitespace, 3 duplicates a field,
    /// 4 swaps two, 5 sets a payload value to 2³², 6 sets `round` to
    /// `1e3` or `-1`. `i`, `j` and `bits` choose where and how.
    fn damage(line: &str, m: u8, i: usize, j: usize, bits: u8) -> String {
        let fields: Vec<&str> = line[1..line.len() - 1].split(',').collect();
        let object = |f: Vec<&str>| format!("{{{}}}", f.join(","));
        let set = |k: usize, value: &str| {
            let field = format!("{}:{value}", fields[k].split_once(':').unwrap().0);
            let mut f = fields.clone();
            f[k] = &field;
            object(f)
        };
        let (fi, fj) = (i % fields.len(), j % fields.len());
        match m {
            0 => line[..i % line.len()].to_owned(),
            1 => {
                let mut b = line.as_bytes().to_vec();
                b[i % line.len()] ^= bits.max(1);
                String::from_utf8_lossy(&b).into_owned()
            }
            2 => {
                let mut s = line.to_owned();
                s.insert(i % (line.len() + 1), [' ', '\t', '\n', '\r'][j % 4]);
                s
            }
            3 => {
                let mut f = fields.clone();
                f.insert(fi, fields[fi]);
                object(f)
            }
            4 => {
                let mut f = fields.clone();
                f.swap(fi, fj);
                object(f)
            }
            5 => set((4 + i % 5).min(fields.len() - 1), "4294967296"),
            _ => set(1, ["1e3", "-1"][j % 2]),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Hostile lines: the decoder never panics, and any line it
        /// accepts is the canonical encoding of what it decoded.
        #[test]
        fn damaged_lines_are_refused_or_canonical(
            kind in (0usize..19, any::<u32>(), any::<u32>(), any::<u32>()),
            value in (prop_oneof![Just(0.0), -4.0..4.0f64, -1e300..1e300f64], any::<bool>()),
            header in (0usize..3, any::<u64>(), any::<u64>()),
            mutation in (0u8..7, any::<usize>(), any::<usize>(), any::<u8>()),
        ) {
            let ((tag, a, b, c), (x, flag)) = (kind, value);
            let (phase, round, seq) = header;
            let event = Event {
                phase: [Phase::Learning, Phase::Aggregation, Phase::Run][phase],
                round,
                seq,
                kind: kind_of(tag, [a, b, c], x, flag),
            };
            let line = event.to_json();
            prop_assert_eq!(Event::from_json(&line), Ok(event));
            let (m, i, j, bits) = mutation;
            let bad = damage(&line, m, i, j, bits);
            if let Ok(back) = Event::from_json(&bad) {
                prop_assert_eq!(back.to_json(), bad);
            }
        }
    }

    #[test]
    fn seq_and_round_are_preserved_verbatim() {
        let e = Event {
            phase: Phase::Run,
            round: u64::MAX,
            seq: u64::MAX - 1,
            kind: EventKind::PmWoke { pm: u32::MAX },
        };
        roundtrip(e);
    }
}

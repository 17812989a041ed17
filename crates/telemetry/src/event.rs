//! Typed protocol events and their JSONL wire format.
//!
//! Every event is one flat JSON object per line. The schema is fixed and
//! documented on [`Event::to_json`]; `Event::from_json` is the strict
//! inverse, so `from_json(to_json(e)) == e` and
//! `to_json(from_json(line)) == line` for every line this crate emits.
//! The workspace has no serialization framework, so the codec here is
//! hand-rolled and the round-trip property is what CI validates.

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

    /// Strict inverse of [`Event::to_json`]: parses one trace line,
    /// rejecting unknown kinds, missing/extra fields and malformed JSON.
    pub fn from_json(line: &str) -> Result<Event, ParseError> {
        let fields = parse_flat_object(line)?;
        let get = |key: &str| -> Result<&JsonValue, ParseError> {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| ParseError {
                    msg: format!("missing field `{key}`"),
                })
        };
        let get_u64 = |key: &str| -> Result<u64, ParseError> {
            match get(key)? {
                JsonValue::Num(raw) => raw.parse::<u64>().map_err(|_| ParseError {
                    msg: format!("field `{key}` is not a u64: {raw}"),
                }),
                _ => err(format!("field `{key}` is not a number")),
            }
        };
        let get_u32 = |key: &str| -> Result<u32, ParseError> {
            u32::try_from(get_u64(key)?).map_err(|_| ParseError {
                msg: format!("field `{key}` overflows u32"),
            })
        };
        let get_f64 = |key: &str| -> Result<f64, ParseError> {
            match get(key)? {
                JsonValue::Num(raw) => raw.parse::<f64>().map_err(|_| ParseError {
                    msg: format!("field `{key}` is not an f64: {raw}"),
                }),
                _ => err(format!("field `{key}` is not a number")),
            }
        };
        let get_str = |key: &str| -> Result<&str, ParseError> {
            match get(key)? {
                JsonValue::Str(s) => Ok(s.as_str()),
                _ => err(format!("field `{key}` is not a string")),
            }
        };
        let get_bool = |key: &str| -> Result<bool, ParseError> {
            match get(key)? {
                JsonValue::Bool(b) => Ok(*b),
                _ => err(format!("field `{key}` is not a bool")),
            }
        };
        let get_op = |key: &str| -> Result<MsgOp, ParseError> {
            let raw = get_str(key)?;
            MsgOp::parse(raw).ok_or_else(|| ParseError {
                msg: format!("unknown op `{raw}`"),
            })
        };

        let phase_raw = get_str("phase")?;
        let phase = Phase::parse(phase_raw).ok_or_else(|| ParseError {
            msg: format!("unknown phase `{phase_raw}`"),
        })?;
        let round = get_u64("round")?;
        let seq = get_u64("seq")?;
        let kind_tag = get_str("kind")?.to_string();

        let (kind, payload_fields): (EventKind, usize) = match kind_tag.as_str() {
            "msg_sent" => (
                EventKind::MsgSent {
                    from: get_u32("from")?,
                    to: get_u32("to")?,
                    op: get_op("op")?,
                },
                3,
            ),
            "msg_dropped" => (
                EventKind::MsgDropped {
                    from: get_u32("from")?,
                    to: get_u32("to")?,
                    op: get_op("op")?,
                },
                3,
            ),
            "msg_timed_out" => (
                EventKind::MsgTimedOut {
                    from: get_u32("from")?,
                    to: get_u32("to")?,
                },
                2,
            ),
            "msg_target_down" => (
                EventKind::MsgTargetDown {
                    from: get_u32("from")?,
                    to: get_u32("to")?,
                    op: get_op("op")?,
                },
                3,
            ),
            "pm_crashed" => (EventKind::PmCrashed { pm: get_u32("pm")? }, 1),
            "pm_recovered" => (EventKind::PmRecovered { pm: get_u32("pm")? }, 1),
            "shuffle_completed" => (
                EventKind::ShuffleCompleted {
                    from: get_u32("from")?,
                    to: get_u32("to")?,
                },
                2,
            ),
            "shuffle_failed" => (
                EventKind::ShuffleFailed {
                    from: get_u32("from")?,
                    to: get_u32("to")?,
                },
                2,
            ),
            "merge_applied" => (
                EventKind::MergeApplied {
                    a: get_u32("a")?,
                    b: get_u32("b")?,
                },
                2,
            ),
            "merge_retried" => (
                EventKind::MergeRetried {
                    pm: get_u32("pm")?,
                    attempt: get_u32("attempt")?,
                },
                2,
            ),
            "exchange_opened" => (
                EventKind::ExchangeOpened {
                    p: get_u32("p")?,
                    q: get_u32("q")?,
                },
                2,
            ),
            "migration_proposed" => (
                EventKind::MigrationProposed {
                    vm: get_u32("vm")?,
                    from: get_u32("from")?,
                    to: get_u32("to")?,
                },
                3,
            ),
            "migration_vetoed" => (
                EventKind::MigrationVetoed {
                    vm: get_u32("vm")?,
                    from: get_u32("from")?,
                    to: get_u32("to")?,
                },
                3,
            ),
            "migration_committed" => (
                EventKind::MigrationCommitted {
                    vm: get_u32("vm")?,
                    from: get_u32("from")?,
                    to: get_u32("to")?,
                },
                3,
            ),
            "migration_aborted" => {
                let raw = get_str("reason")?;
                (
                    EventKind::MigrationAborted {
                        from: get_u32("from")?,
                        to: get_u32("to")?,
                        reason: AbortReason::parse(raw).ok_or_else(|| ParseError {
                            msg: format!("unknown abort reason `{raw}`"),
                        })?,
                    },
                    3,
                )
            }
            "pm_slept" => (EventKind::PmSlept { pm: get_u32("pm")? }, 1),
            "pm_woke" => (EventKind::PmWoke { pm: get_u32("pm")? }, 1),
            "checkpoint_written" => (EventKind::CheckpointWritten, 0),
            "convergence_sampled" => (
                EventKind::ConvergenceSampled {
                    cycle: get_u32("cycle")?,
                    diameter: get_f64("diameter")?,
                    cosine: get_f64("cosine")?,
                    alive: get_u32("alive")?,
                    connected: get_bool("connected")?,
                },
                5,
            ),
            other => return err(format!("unknown event kind `{other}`")),
        };

        // Strict: no extra fields beyond header (4) + payload.
        if fields.len() != 4 + payload_fields {
            return err(format!(
                "expected {} fields for `{kind_tag}`, found {}",
                4 + payload_fields,
                fields.len()
            ));
        }

        Ok(Event {
            phase,
            round,
            seq,
            kind,
        })
    }
}

/// Round-trip-stable f64 formatting (`Display` prints the shortest
/// decimal that parses back exactly).
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

/// Minimal JSON value for the flat trace objects.
#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    /// Raw number text (parsed to u64/f64 on demand).
    Num(String),
    /// String (no escape sequences — none are ever emitted).
    Str(String),
    /// Boolean.
    Bool(bool),
}

/// Parses a flat JSON object `{"k":v,...}` with string/number/bool
/// values. Rejects nesting, escapes, duplicate keys and trailing input.
fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonValue)>, ParseError> {
    let b = line.trim().as_bytes();
    let mut i = 0usize;
    let mut out: Vec<(String, JsonValue)> = Vec::with_capacity(8);

    let take = |i: &mut usize, c: u8| -> Result<(), ParseError> {
        if *i < b.len() && b[*i] == c {
            *i += 1;
            Ok(())
        } else {
            err(format!("expected `{}` at byte {}", c as char, *i))
        }
    };

    take(&mut i, b'{')?;
    loop {
        // Key.
        take(&mut i, b'"')?;
        let start = i;
        while i < b.len() && b[i] != b'"' {
            if b[i] == b'\\' {
                return err("escape sequences are not part of the schema");
            }
            i += 1;
        }
        if i >= b.len() {
            return err("unterminated key");
        }
        let key = std::str::from_utf8(&b[start..i])
            .map_err(|_| ParseError {
                msg: "non-utf8 key".into(),
            })?
            .to_string();
        i += 1;
        take(&mut i, b':')?;

        // Value.
        let value = if i < b.len() && b[i] == b'"' {
            i += 1;
            let vs = i;
            while i < b.len() && b[i] != b'"' {
                if b[i] == b'\\' {
                    return err("escape sequences are not part of the schema");
                }
                i += 1;
            }
            if i >= b.len() {
                return err("unterminated string value");
            }
            let v = std::str::from_utf8(&b[vs..i])
                .map_err(|_| ParseError {
                    msg: "non-utf8 string value".into(),
                })?
                .to_string();
            i += 1;
            JsonValue::Str(v)
        } else if b[i..].starts_with(b"true") {
            i += 4;
            JsonValue::Bool(true)
        } else if b[i..].starts_with(b"false") {
            i += 5;
            JsonValue::Bool(false)
        } else {
            let vs = i;
            while i < b.len() && matches!(b[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                i += 1;
            }
            if vs == i {
                return err(format!("expected a value at byte {vs}"));
            }
            JsonValue::Num(
                std::str::from_utf8(&b[vs..i])
                    .map_err(|_| ParseError {
                        msg: "non-utf8 number".into(),
                    })?
                    .to_string(),
            )
        };
        if out.iter().any(|(k, _)| *k == key) {
            return err(format!("duplicate key `{key}`"));
        }
        out.push((key, value));

        if i < b.len() && b[i] == b',' {
            i += 1;
            continue;
        }
        break;
    }
    take(&mut i, b'}')?;
    if i != b.len() {
        return err("trailing input after object");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

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

//! # glap-telemetry
//!
//! Protocol-level observability for the GLAP reproduction: a structured
//! event trace, a counter/histogram registry, and a convergence monitor.
//! It depends only on the leaf crates `glap-snapshot` and
//! `glap-profile`, so every layer of the workspace (`dcsim`, `cyclon`,
//! `cluster`, `core`, `baselines`, `experiments`) can emit into one
//! shared vocabulary.
//!
//! ## Three pillars
//!
//! 1. **Event trace** — [`Tracer::emit`] takes a typed [`EventKind`]
//!    (message fates, shuffles, Q-merges, migration lifecycle, PM
//!    crash/recover/sleep/wake, convergence samples), stamps it with the
//!    current phase/round and a globally monotone sequence number, and
//!    forwards it to an [`EventSink`]. [`JsonlSink`] serialises one
//!    event per line; [`Event::to_json`] is the schema, and
//!    [`Event::from_json`] is its inverse, reading through
//!    `glap_profile::json` and accepting a line only if it re-encodes
//!    to the same bytes, so replaying a trace validates it.
//! 2. **Counter registry** — every emit bumps an `ev.<kind>` counter;
//!    instrumented code adds protocol counters (gossip bytes, merge
//!    attempts, veto counts) and latency histograms via [`Tracer::add`]
//!    / [`Tracer::observe_ms`]. [`Tracer::end_round`] snapshots
//!    per-round deltas; [`CounterRegistry::counters_csv`] exports the
//!    per-round series.
//! 3. **Convergence monitor** — [`ConvergenceMonitor`] tracks the
//!    Q-table population diameter (max pairwise L∞ distance), mean
//!    cosine similarity vs. the unified reference table and overlay
//!    health per training cycle, and can certify that the diameter is
//!    non-increasing during aggregation (Theorem 1's claim).
//!
//! ## Overhead guarantees
//!
//! The default tracer is [`Tracer::off`]: every method short-circuits on
//! one `Option` discriminant, constructs nothing, and — the load-bearing
//! property — never touches any RNG stream, so enabling the telemetry
//! *code path* cannot perturb the simulation. Enabling a *sink* only
//! adds work outside the simulation's random sequence; the
//! `integration_telemetry` tests pin both properties (byte-identical
//! results with the sink off and with the JSONL sink on).

#![warn(missing_docs)]

pub mod convergence;
pub mod event;
pub mod registry;
pub mod sink;
pub mod tracer;

pub use convergence::{
    cosine, population_diameter, ConvergenceMonitor, ConvergenceSample, OverlayHealth,
};
pub use event::{AbortReason, Event, EventKind, MsgOp, ParseError, Phase};
pub use registry::{CounterRegistry, CounterSnapshot, Histogram};
pub use sink::{EventSink, JsonlSink, MemorySink, NullSink, SharedBuf};
pub use tracer::{TraceCore, Tracer};

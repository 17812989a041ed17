//! Out-of-band wall-clock profiling for GLAP runs.
//!
//! The simulation core is *deterministic by construction*: every result
//! is a pure function of the scenario and the master seed, pinned by
//! byte-identity tests across thread counts, transports and
//! interrupt/resume. Wall-clock time is the one quantity that can never
//! be part of that function — so this crate keeps it strictly
//! **out-of-band**. A [`Profiler`] observes the run (scoped span
//! guards, externally measured samples) but feeds nothing back into it:
//! it draws no randomness, emits no events into the telemetry trace,
//! and is excluded from checkpoints. When disabled it is a single
//! `Option` branch per call, exactly like the telemetry
//! `Tracer`'s off path, so instrumented code costs nothing in
//! production runs.
//!
//! What lives here:
//!
//! * [`Profiler`] / [`SpanGuard`] — hierarchical span tree with
//!   per-span count, total, p50/p95/max over retained samples;
//! * [`ProfileReport`] — a finished snapshot: text rendering for the
//!   terminal and a hand-rolled JSON codec for `profile_*.json`
//!   artifacts;
//! * [`peak_rss_bytes`] / [`CountingAllocator`] — process memory
//!   readouts (peak RSS, allocation counts);
//! * [`Heartbeat`] / [`SweepProgress`] — live stderr progress
//!   (round rate, ETA, sweep cell) for long runs;
//! * [`json`] — the minimal JSON value parser backing the codecs.

#![warn(missing_docs)]

mod heartbeat;
pub mod json;
mod memory;
mod profiler;
mod report;

pub use heartbeat::{Heartbeat, SweepProgress};
pub use memory::{alloc_stats, peak_rss_bytes, CountingAllocator};
pub use profiler::{Profiler, SpanGuard};
pub use report::{fmt_ns, ProfileReport, SpanStats};

//! # glap-benchmark — the repo's one benchmark
//!
//! Whole-run numbers a user of the simulator would see (wall clock, CPU,
//! peak RSS, set-up time) on five workloads, plus a traced run that
//! decomposes the same work into the crates it passes through. See
//! `README.md` for the glossary and the layer → end-to-end table, and
//! `BENCHMARK.json` at the repo root for the contract the driver reads.
//!
//! The program under test only ever sees a generated
//! [`glap_experiments::Scenario`]; everything here calls `pub` items of
//! the workspace crates and changes none of them.

pub mod alloc;
pub mod child;
pub mod compare;
pub mod json;
pub mod micro;
pub mod names;
pub mod parent;
pub mod procstat;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workloads;
pub mod wrappers;

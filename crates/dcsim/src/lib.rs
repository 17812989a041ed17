//! # glap-dcsim — simulation engine (PeerSim equivalent)
//!
//! The GLAP paper evaluates on PeerSim, "a simulator for modeling large
//! scale P2P networks", augmented with a cloud model. This crate is that
//! substrate in Rust:
//!
//! * [`engine`] — the **cycle-driven** scheduler used by all paper
//!   experiments: per round, step workload demands → run the consolidation
//!   policy → notify metric observers.
//! * [`event`] — an **event-driven** engine (future-event list, random link
//!   latency, timers) used to validate that the gossip protocols behave the
//!   same under asynchrony.
//! * [`net`] — the **message-level network model**: per-message drops,
//!   latency vs. timeout, and PM crash/recovery schedules, with a
//!   zero-randomness ideal path so fault-free runs stay byte-identical.
//! * [`rng`] — deterministic named RNG streams so every run is a pure
//!   function of one `u64` seed.
//!
//! ```
//! use glap_dcsim::prelude::*;
//! use glap_cluster::prelude::*;
//!
//! let mut dc = DataCenter::new(DataCenterConfig::paper(4));
//! for _ in 0..8 { dc.add_vm(VmSpec::EC2_MICRO); }
//! let mut rng = stream_rng(1, Stream::Placement);
//! dc.random_placement(&mut rng);
//!
//! let mut trace = |_: VmId, _: u64| Resources::splat(0.3);
//! let mut policy = NoopPolicy;
//! run_simulation(&mut dc, &mut trace, &mut policy, &mut [], 10, 1);
//! assert_eq!(dc.round(), 10);
//! ```

pub mod engine;
pub mod event;
pub mod net;
pub mod rng;

pub use engine::{
    run_simulation, run_simulation_profiled, run_simulation_resumable, run_simulation_with_net,
    CheckpointArgs, ConsolidationPolicy, NoopPolicy, Observer, RoundCtx,
};
pub use event::{EdContext, EdEvent, EdNode, EdNodeId, EventEngine, LatencyModel};
pub use net::{Delivery, FaultProfile, LinkLatency, NetStats, NetworkModel};
pub use rng::{node_rng, restore_rng, save_rng, splitmix64, stream_rng, SimRng, Stream};

/// Convenient glob import.
pub mod prelude {
    pub use crate::engine::{
        run_simulation, run_simulation_profiled, run_simulation_resumable, run_simulation_with_net,
        CheckpointArgs, ConsolidationPolicy, NoopPolicy, Observer, RoundCtx,
    };
    pub use crate::event::{EdContext, EdEvent, EdNode, EdNodeId, EventEngine, LatencyModel};
    pub use crate::net::{Delivery, FaultProfile, LinkLatency, NetStats, NetworkModel};
    pub use crate::rng::{node_rng, restore_rng, save_rng, stream_rng, SimRng, Stream};
}

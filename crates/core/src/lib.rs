//! # glap — Gossip Learning Resource Allocation Protocol
//!
//! A full reproduction of **GLAP** (Khelghatdoust, Gramoli & Sun, IEEE
//! CLUSTER 2016): the first fully distributed, threshold-free dynamic VM
//! consolidation algorithm that accounts for time-varying VM demand.
//!
//! GLAP composes three per-PM components (Figure 2 of the paper):
//!
//! 1. **Cyclon** peer sampling ([`glap_cyclon`]) — a churn-tolerant random
//!    overlay;
//! 2. **Gossip learning** ([`learning`], [`aggregation`], [`trainer`]) — a
//!    two-phase protocol where PMs first *locally* train Q-tables by
//!    simulating migrations over VM demand profiles (Algorithm 1), then
//!    *unify* them via push–pull gossip merging (Algorithm 2), provably
//!    converging (§IV-C);
//! 3. **Gossip consolidation** ([`policy`]) — the migration protocol
//!    (Algorithm 3): overloaded PMs evict; otherwise the less-utilized
//!    partner empties itself toward switch-off, with every migration gated
//!    by the learned `φ_out` (what to move) and `φ_in` (what the target can
//!    safely absorb, now *and in the near future*).
//!
//! ```
//! use glap::prelude::*;
//! use glap_cluster::prelude::*;
//!
//! // Build a small data center: 10 PMs, 20 VMs.
//! let mut dc = DataCenter::new(DataCenterConfig::paper(10));
//! for _ in 0..20 { dc.add_vm(VmSpec::EC2_MICRO); }
//! dc.random_placement(&mut stream_rng(1, Stream::Placement));
//!
//! // Train the two-phase gossip learner, then consolidate for a day.
//! let cfg = GlapConfig { learning_rounds: 20, aggregation_rounds: 10, ..Default::default() };
//! let mut trace = |vm: VmId, r: u64| Resources::splat(0.25 + 0.05 * ((vm.0 + r as u32) % 3) as f64);
//! let (tables, _report) = train(&mut dc, &mut trace, &cfg, 42, false);
//! let mut policy = GlapPolicy::with_shared_table(cfg, unified_table(&tables));
//! run_simulation(&mut dc, &mut trace, &mut policy, &mut [], 50, 42);
//! assert!(dc.active_pm_count() <= 10);
//! ```

pub mod aggregation;
pub mod config;
pub mod learning;
pub mod policy;
pub mod trainer;

pub use aggregation::{
    aggregation_round, mean_pairwise_similarity, merge_pair, AggIo, AggregationRoundStats,
    AGGREGATION_MAX_ATTEMPTS,
};
pub use config::GlapConfig;
pub use glap_qlearn::unified_table;
pub use learning::{
    gather_profiles_into, is_eligible, local_train_with, repeat_profiles, required_duplication,
};
pub use policy::{synthetic_table, GlapPolicy, RetrainConfig, StopReason, TableStore};
pub use trainer::{train, train_instrumented, train_two_pass_reference, TrainPhase, TrainReport};

// Workspace-level re-exports: the protocol stack a consumer of `glap`
// almost always needs next, reachable as `glap::cyclon::…` etc. instead
// of a four-crate dependency list.
pub use glap_codec as codec;
pub use glap_cyclon as cyclon;
pub use glap_dcsim as dcsim;
pub use glap_qlearn as qlearn;
pub use glap_snapshot as snapshot;
pub use glap_telemetry as telemetry;

/// Convenient glob import: the GLAP protocol surface plus the handful of
/// cross-crate types every experiment binary and integration test was
/// reaching through four crates for (`RoundCtx`, `QTablePair`, `Stream`,
/// `Checkpointable`, …). Cluster-model types are deliberately absent —
/// glob-import `glap_cluster::prelude` alongside without ambiguity.
pub mod prelude {
    pub use crate::aggregation::{
        aggregation_round, mean_pairwise_similarity, merge_pair, AggIo, AggregationRoundStats,
        AGGREGATION_MAX_ATTEMPTS,
    };
    pub use crate::config::GlapConfig;
    pub use crate::learning::{
        gather_profiles_into, is_eligible, local_train_with, repeat_profiles,
    };
    pub use crate::policy::{GlapPolicy, RetrainConfig, StopReason, TableStore};
    pub use crate::trainer::{train, train_instrumented, TrainPhase, TrainReport};
    pub use glap_codec::{AnyCodec, CodecKind, TableCodec};
    pub use glap_cyclon::{CyclonNode, CyclonOverlay, Descriptor, PendingShuffle, RoundIo};
    pub use glap_dcsim::{
        node_rng, restore_rng, run_simulation, run_simulation_profiled, run_simulation_resumable,
        save_rng, splitmix64, stream_rng, ConsolidationPolicy, Delivery, FaultProfile,
        NetworkModel, RoundCtx, SimRng, Stream,
    };
    pub use glap_profile::Profiler;
    pub use glap_qlearn::{unified_table, PmState, QParams, QTable, QTablePair, VmAction};
    pub use glap_snapshot::{Checkpointable, Reader, SnapshotError, Writer};
    pub use glap_telemetry::{EventKind, Phase, Tracer};
}

//! # glap-qlearn — tabular Q-learning substrate
//!
//! The model-free reinforcement-learning machinery of the GLAP paper
//! (§IV-A): the nine-level calibration of utilization, PM states and VM
//! actions over (CPU, MEM), the two reward systems (`out` for emptying
//! PMs, `in` for admission control), Q-tables (dense [`QTablePair`]s and
//! the entry-sparse fleet [`QArena`]) with the Bellman
//! update of Eq. (1), the gossip merge of Algorithm 2 and the cosine
//! similarity convergence measure of Figure 5.
//!
//! ```
//! use glap_qlearn::prelude::*;
//! use glap_cluster::Resources;
//!
//! let mut q = QTablePair::new(QParams::default());
//! let s = PmState::from_utilization(Resources::new(0.79, 0.40)); // (3xHigh, Medium)
//! let a = VmAction::from_demand(Resources::new(0.41, 0.10));     // (High, Low)
//! let s_next = PmState::from_utilization(Resources::new(0.50, 0.30));
//! q.train_out(s, a, s_next); // Figure 3's update, in code
//! assert!(q.out.get(s, a) > 0.0);
//! ```

pub mod arena;
pub mod kernel;
pub mod level;
pub mod reward;
pub mod sparse;
pub mod state;
pub mod store;
pub mod table;

pub use arena::{ArenaSlot, QArena};
pub use kernel::TABLE_LEN;
pub use level::{Level, NUM_LEVELS};
pub use reward::{RewardIn, RewardOut};
pub use sparse::SparseTable;
pub use state::{PmState, VmAction, NUM_STATES};
pub use store::{unified_table, EntryStore, PairStore};
pub use table::{DensePairView, QParams, QTable, QTablePair, TrainTarget};

/// Convenient glob import.
pub mod prelude {
    pub use crate::level::Level;
    pub use crate::reward::{RewardIn, RewardOut};
    pub use crate::state::{PmState, VmAction};
    pub use crate::table::{QParams, QTable, QTablePair};
}

//! The two Q-table storages behind one small interface: the dense
//! [`QTable`](crate::QTable) / [`QTablePair`](crate::QTablePair) and the
//! entry-sparse [`SparseTable`] / [`ArenaSlot`](crate::ArenaSlot).
//!
//! Like [`TrainTarget`](crate::TrainTarget) for training, these traits
//! let the payload codecs and the dense wire boundary
//! ([`DensePairView`](crate::DensePairView)) be written once and
//! monomorphize to both storages: the simulator's boxed rounds run them
//! on `QTablePair`s, the node fleets on `ArenaSlot`s. Every operation
//! walks entries in ascending flat-index order and merges through the
//! shared [`kernel`](crate::kernel) expressions, so the two storages end
//! bitwise equal (an unvisited entry is `+0.0` in both).

use crate::reward::{RewardIn, RewardOut};
use crate::sparse::SparseTable;
use crate::table::QParams;
use glap_snapshot::Checkpointable;

/// One Q-table as its visited `(flat index, value)` entries.
pub trait EntryStore {
    /// Visited entries, ascending.
    fn entries(&self) -> impl Iterator<Item = (usize, f64)> + Clone + '_;

    /// The visited entries of row `row` (one state's actions), ascending.
    fn row_entries(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + Clone + '_;

    /// Algorithm 2's `UPDATE` against a peer's entries, in the order
    /// given: average an entry this table holds, adopt one it does not.
    fn merge_entries(&mut self, entries: impl Iterator<Item = (usize, f64)> + Clone);

    /// Sets each entry, marking it visited (a later duplicate wins);
    /// the table's other entries stay.
    fn set_entries(&mut self, entries: impl Iterator<Item = (usize, f64)>);

    /// Overwrites the table with exactly `entries`.
    fn assign_entries(&mut self, entries: impl Iterator<Item = (usize, f64)>);

    /// The visited entries as an owned sparse table.
    fn to_sparse(&self) -> SparseTable;
}

/// One PM's (φ_out, φ_in) pair plus its hyperparameters and rewards.
/// Its [`Checkpointable`] encoding is the dense pair encoding
/// ([`QTablePair::ENCODED_LEN`](crate::QTablePair::ENCODED_LEN) bytes)
/// for both storages.
pub trait PairStore: Checkpointable {
    /// The storage of each of the two tables.
    type Table: EntryStore;

    /// `[φ_out, φ_in]`.
    fn tables(&self) -> [&Self::Table; 2];

    /// `[φ_out, φ_in]`, mutably.
    fn tables_mut(&mut self) -> [&mut Self::Table; 2];

    /// Replaces the hyperparameters and the reward systems.
    fn set_params(&mut self, params: QParams, reward_out: RewardOut, reward_in: RewardIn);
}

//! The two Q-table storages behind one small interface: the dense
//! [`QTable`](crate::QTable) / [`QTablePair`] and the entry-sparse
//! [`SparseTable`] / [`ArenaSlot`](crate::ArenaSlot).
//!
//! Like [`TrainTarget`](crate::TrainTarget) for training, these traits
//! let everything that reads or merges a population of tables be written
//! once and monomorphize to both storages: the aggregation rounds, the
//! Figure 5 similarity, the Theorem 1 monitor, [`unified_table`], the
//! payload codecs and the dense wire boundary
//! ([`DensePairView`](crate::DensePairView)). The training engine, the
//! policy's re-training window and the node fleets run them on
//! `ArenaSlot`s; boxed `QTablePair`s remain for the reference engine the
//! identity suites compare against and for callers that want dense
//! per-PM tables. Every operation
//! walks entries in ascending flat-index order and merges through the
//! shared [`kernel`](crate::kernel) expressions, so the two storages end
//! bitwise equal (an unvisited entry is `+0.0` in both).

use crate::reward::{RewardIn, RewardOut};
use crate::sparse::SparseTable;
use crate::table::{QParams, QTablePair};
use glap_snapshot::Checkpointable;

/// One Q-table as its visited `(flat index, value)` entries.
pub trait EntryStore {
    /// Visited entries, ascending.
    fn entries(&self) -> impl Iterator<Item = (usize, f64)> + Clone + '_;

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

    /// Trained (state, action) pairs, both tables.
    fn trained_pairs(&self) -> usize;

    /// Algorithm 2's push–pull `UPDATE`, in place: both end with the
    /// identical union/average tables, and `b` adopts `a`'s
    /// hyperparameters and reward systems.
    fn merge_symmetric(a: &mut Self, b: &mut Self);

    /// Cosine similarity of the concatenated (out, in) value vectors —
    /// the convergence measure of Figure 5.
    fn cosine_similarity(&self, other: &Self) -> f64;

    /// Appends the values at `cols` — ascending indices into the
    /// concatenated `out ++ in` vector — to `buf`.
    fn gather(&self, cols: &[u32], buf: &mut Vec<f64>);

    /// The pair as a dense [`QTablePair`].
    fn export(&self) -> QTablePair;
}

/// Every PM's knowledge merged into one dense pair, in PM order — the
/// fixed point the gossip converges to (union of keys, averaged values),
/// handed to the consolidation component after convergence. The first
/// slot's dense form, then each other slot's visited entries merged in.
pub fn unified_table<S: PairStore>(slots: &[S]) -> QTablePair {
    let Some((first, rest)) = slots.split_first() else {
        return QTablePair::default();
    };
    let mut unified = first.export();
    for slot in rest {
        for (table, peer) in unified.tables_mut().into_iter().zip(slot.tables()) {
            table.merge_entries(peer.entries());
        }
    }
    unified
}

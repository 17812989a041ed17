//! [`SparseTable`]: one Q-table as the list of its visited entries.
//!
//! The paper's φ_out/φ_in are *maps* over visited (state, action) pairs,
//! and a trained PM visits ~1% of the 6561 dense entries. This is that
//! map as two parallel lists sorted by flat index (`u16` key, `f64`
//! value) — the one sparse table type, stored per PM by the
//! [`QArena`](crate::QArena) and per peer by `glap-codec`'s baselines and
//! in-flight pushes.
//!
//! **Invariant:** keys are strictly ascending and below
//! [`TABLE_LEN`]. Every constructor and mutator keeps it
//! ([`push`](SparseTable::push) refuses a key that would break it), so
//! walks over one or two tables see entries in the dense loops'
//! ascending-index order — which is what makes sparse results
//! bit-identical to dense ones. The one dense state it cannot hold is
//! "unvisited but non-zero", which only a hand-crafted snapshot has.

use crate::kernel::{self, TABLE_LEN};
use crate::state::NUM_STATES;
use crate::store::EntryStore;
use crate::table::QTable;
use std::cmp::Ordering;

/// One table's visited entries: ascending flat indices
/// (`s.index() * NUM_STATES + a.index()`) in `keys`, their values
/// parallel in `values`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseTable {
    keys: Vec<u16>,
    values: Vec<f64>,
}

impl SparseTable {
    /// An empty table with room for `n` entries.
    pub fn with_capacity(n: usize) -> Self {
        SparseTable {
            keys: Vec::with_capacity(n),
            values: Vec::with_capacity(n),
        }
    }

    /// The visited entries of a dense table (an unvisited entry's value
    /// is not representable and is dropped), allocated to fit.
    pub fn from_dense(t: &QTable) -> Self {
        let mut sparse = SparseTable::with_capacity(t.visited_count());
        for (i, v) in t.visited_entries() {
            sparse.keys.push(i as u16);
            sparse.values.push(v);
        }
        sparse
    }

    /// Materializes the dense table holding exactly these entries.
    pub fn to_dense(&self) -> QTable {
        let mut t = QTable::new();
        t.merge_entries(self.entries());
        t
    }

    /// Number of visited entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no entry is visited.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Visited entries as `(flat index, value)`, ascending.
    pub fn entries(&self) -> impl Iterator<Item = (usize, f64)> + Clone + '_ {
        self.keys
            .iter()
            .zip(&self.values)
            .map(|(&k, &v)| (k as usize, v))
    }

    /// Row `s` (one state's actions) as its key range: the flat indices
    /// and values of the row's visited entries, ascending.
    #[inline]
    pub fn row(&self, s: usize) -> (&[u16], &[f64]) {
        let base = s * NUM_STATES;
        let lo = self.keys.partition_point(|&k| (k as usize) < base);
        let len = self.keys[lo..]
            .iter()
            .take_while(|&&k| (k as usize) < base + NUM_STATES)
            .count();
        (&self.keys[lo..lo + len], &self.values[lo..lo + len])
    }

    /// Appends entry `i`, which must lie above every key already held
    /// and inside the table; returns `false` (and appends nothing)
    /// otherwise. Decoders build tables through this, so a wire or
    /// checkpoint list that is not strictly ascending is caught here.
    #[must_use]
    pub fn push(&mut self, i: usize, value: f64) -> bool {
        if i >= TABLE_LEN || self.keys.last().is_some_and(|&k| k as usize >= i) {
            return false;
        }
        self.keys.push(i as u16);
        self.values.push(value);
        true
    }

    /// The value slot of entry `i`; a first visit inserts the `0.0` a
    /// dense table would have held there.
    #[inline]
    fn slot(&mut self, i: usize) -> &mut f64 {
        let key = i as u16;
        let pos = match self.keys.binary_search(&key) {
            Ok(pos) => pos,
            Err(pos) => {
                self.keys.insert(pos, key);
                self.values.insert(pos, 0.0);
                pos
            }
        };
        &mut self.values[pos]
    }

    /// Sets entry `i` (`< TABLE_LEN`), marking it visited.
    pub fn set(&mut self, i: usize, value: f64) {
        debug_assert!(i < TABLE_LEN);
        if self.keys.last().is_none_or(|&k| (k as usize) < i) {
            self.keys.push(i as u16);
            self.values.push(value);
        } else {
            *self.slot(i) = value;
        }
    }

    /// Algorithm 2's `UPDATE` against `entries`: average an entry this
    /// table holds, adopt one it does not — what [`QTable::merge_entries`]
    /// does, through the same [`kernel::average`]. Entries in strictly
    /// ascending order (every honest payload) take one walk over both
    /// lists: shared entries are averaged in place, and adopted ones are
    /// then merged in from the back. Any other order is applied entry by
    /// entry, as the dense table would.
    pub fn merge_entries(&mut self, entries: impl Iterator<Item = (usize, f64)> + Clone) {
        let mut prev = None;
        if !entries.clone().all(|(i, _)| prev.replace(i) < Some(i)) {
            for (i, v) in entries {
                match self.keys.binary_search(&(i as u16)) {
                    Ok(pos) => self.values[pos] = kernel::average(self.values[pos], v),
                    Err(_) => self.set(i, v),
                }
            }
            return;
        }
        let mut adopted = Vec::new();
        let mut j = 0;
        for (i, v) in entries {
            let key = i as u16;
            while self.keys.get(j).is_some_and(|&k| k < key) {
                j += 1;
            }
            if self.keys.get(j) == Some(&key) {
                self.values[j] = kernel::average(self.values[j], v);
            } else {
                adopted.push((key, v));
            }
        }
        let (mut a, mut b) = (self.keys.len(), adopted.len());
        self.keys.resize(a + b, 0);
        self.values.resize(a + b, 0.0);
        while b > 0 {
            let k = a + b - 1;
            if a > 0 && self.keys[a - 1] > adopted[b - 1].0 {
                (self.keys[k], self.values[k]) = (self.keys[a - 1], self.values[a - 1]);
                a -= 1;
            } else {
                (self.keys[k], self.values[k]) = adopted[b - 1];
                b -= 1;
            }
        }
    }

    /// Gives back capacity the lists do not use (a table built under an
    /// upper-bound reservation).
    pub fn shrink_to_fit(&mut self) {
        self.keys.shrink_to_fit();
        self.values.shrink_to_fit();
    }

    /// Bytes of heap the two lists hold (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u16>()
            + self.values.capacity() * std::mem::size_of::<f64>()
    }

    /// The bootstrap term of row `s`: the canonical scan over the row's
    /// key range, in the dense scan's ascending-action order.
    #[inline]
    pub(crate) fn max_over_actions(&self, s: usize) -> f64 {
        kernel::max_visited(self.row(s).1.iter().copied())
    }

    /// The EMA update of entry `i`; a first visit blends against the
    /// `0.0` a dense table would have held there.
    #[inline]
    pub(crate) fn update_toward(&mut self, i: usize, target: f64, alpha: f64) {
        let q = self.slot(i);
        *q = kernel::blend(*q, target, alpha);
    }

    /// Symmetric merge: both tables end as the union of keys, shared
    /// keys averaged. After a few gossip rounds the key lists are equal
    /// and the merge is one pass over the values; otherwise `a` grows to
    /// the union in place (merging from the back, so no entry is
    /// overwritten before it is read) and `b` copies it.
    pub(crate) fn merge_symmetric(a: &mut SparseTable, b: &mut SparseTable) {
        if a.keys == b.keys {
            for (x, y) in a.values.iter_mut().zip(&mut b.values) {
                *x = kernel::average(*x, *y);
                *y = *x;
            }
            return;
        }
        let shared = b
            .keys
            .iter()
            .filter(|k| a.keys.binary_search(k).is_ok())
            .count();
        let (mut i, mut j) = (a.keys.len(), b.keys.len());
        let mut k = i + j - shared;
        a.keys.resize(k, 0);
        a.values.resize(k, 0.0);
        while j > 0 {
            k -= 1;
            let order = if i == 0 {
                Ordering::Less
            } else {
                a.keys[i - 1].cmp(&b.keys[j - 1])
            };
            (a.keys[k], a.values[k]) = match order {
                Ordering::Greater => (a.keys[i - 1], a.values[i - 1]),
                Ordering::Equal => (
                    a.keys[i - 1],
                    kernel::average(a.values[i - 1], b.values[j - 1]),
                ),
                Ordering::Less => (b.keys[j - 1], b.values[j - 1]),
            };
            i -= usize::from(order != Ordering::Less);
            j -= usize::from(order != Ordering::Greater);
        }
        b.keys.clone_from(&a.keys);
        b.values.clone_from(&a.values);
    }

    /// `(Σ x·y, Σ x², Σ y²)` over the union of keys in index order; a
    /// key missing on one side reads `0.0` there, as in the dense loop.
    pub(crate) fn dot_norms(&self, other: &SparseTable) -> (f64, f64, f64) {
        let (mut dot, mut nx, mut ny) = (0.0, 0.0, 0.0);
        let (mut i, mut j) = (0, 0);
        while i < self.keys.len() || j < other.keys.len() {
            // Every key is below `TABLE_LEN < u16::MAX`.
            let ka = self.keys.get(i).copied().unwrap_or(u16::MAX);
            let kb = other.keys.get(j).copied().unwrap_or(u16::MAX);
            let x = if ka <= kb { self.values[i] } else { 0.0 };
            let y = if kb <= ka { other.values[j] } else { 0.0 };
            dot += x * y;
            nx += x * x;
            ny += y * y;
            i += usize::from(ka <= kb);
            j += usize::from(kb <= ka);
        }
        (dot, nx, ny)
    }
}

impl EntryStore for SparseTable {
    fn entries(&self) -> impl Iterator<Item = (usize, f64)> + Clone + '_ {
        SparseTable::entries(self)
    }

    fn row_entries(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + Clone + '_ {
        let (keys, values) = self.row(row);
        keys.iter().zip(values).map(|(&k, &v)| (k as usize, v))
    }

    fn merge_entries(&mut self, entries: impl Iterator<Item = (usize, f64)> + Clone) {
        SparseTable::merge_entries(self, entries);
    }

    fn set_entries(&mut self, entries: impl Iterator<Item = (usize, f64)>) {
        for (i, v) in entries {
            self.set(i, v);
        }
    }

    fn assign_entries(&mut self, entries: impl Iterator<Item = (usize, f64)>) {
        self.keys.clear();
        self.values.clear();
        self.set_entries(entries);
    }

    fn to_sparse(&self) -> SparseTable {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bits(entries: impl Iterator<Item = (usize, f64)>) -> Vec<(usize, u64)> {
        entries.map(|(i, v)| (i, v.to_bits())).collect()
    }

    fn arb_entries() -> impl Strategy<Value = Vec<(usize, f64)>> {
        let index = prop_oneof![0usize..48, TABLE_LEN - 4..TABLE_LEN];
        let value = prop_oneof![Just(0.0), Just(-0.0), -3.0f64..3.0];
        proptest::collection::vec((index, value), 0..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Merging, setting and assigning entries leave a sparse table
        /// where they leave the dense one: ascending lists through the
        /// one-walk merge, any other order (duplicates included) entry
        /// by entry.
        #[test]
        fn entry_updates_match_the_dense_table(
            own in arb_entries(),
            peer in arb_entries(),
            ascending in any::<bool>(),
        ) {
            let mut peer = peer;
            if ascending {
                peer.sort_by_key(|e| e.0);
                peer.dedup_by_key(|e| e.0);
            }
            let mut dense = QTable::new();
            for &(i, v) in &own {
                dense.set_index(i, v);
            }
            let base = SparseTable::from_dense(&dense);

            let (mut d, mut s) = (dense.clone(), base.clone());
            d.merge_entries(peer.iter().copied());
            SparseTable::merge_entries(&mut s, peer.iter().copied());
            prop_assert_eq!(bits(s.entries()), bits(d.visited_entries()));

            let (mut d, mut s) = (dense.clone(), base.clone());
            EntryStore::set_entries(&mut d, peer.iter().copied());
            EntryStore::set_entries(&mut s, peer.iter().copied());
            prop_assert_eq!(bits(s.entries()), bits(d.visited_entries()));

            let (mut d, mut s) = (dense, base);
            EntryStore::assign_entries(&mut d, peer.iter().copied());
            EntryStore::assign_entries(&mut s, peer.iter().copied());
            prop_assert_eq!(bits(s.entries()), bits(d.visited_entries()));
        }
    }
}

//! Entry-sparse Q-table arena: one slot per PM holding only the
//! (state, action) pairs that PM has visited.
//!
//! The paper's φ_out/φ_in are *maps* over visited pairs — Algorithm 2's
//! `UPDATE` averages shared keys and adopts missing ones — and a trained
//! PM visits ~1% of the 2 × 6561 dense entries, one entry per visited
//! row. So a slot stores each table as a [`SparseTable`] — the public
//! sorted-entry-list type `glap-codec` keeps its per-peer state in too:
//! ~2 KB per PM where the dense [`QTablePair`] takes 118 KB.
//!
//! Byte-identity with the boxed tables is by construction: every
//! operation feeds the shared [`kernel`] expressions its
//! entries in the same ascending-index order the dense loops walk, and
//! the entries it skips are the dense loops' no-ops — an unvisited entry
//! is `+0.0`, contributes `+0.0` to every cosine sum, and is left alone
//! by a merge. The one state a slot cannot hold is "unvisited but
//! non-zero", which only a hand-crafted snapshot has;
//! [`QArena::from_pairs`] drops such values.

use crate::kernel::{self, TABLE_LEN};
use crate::reward::{RewardIn, RewardOut};
use crate::sparse::SparseTable;
use crate::state::{PmState, VmAction, NUM_STATES};
use crate::store::PairStore;
use crate::table::{
    put_dense_entries, put_params, DensePairView, QParams, QTablePair, TrainTarget,
};
use glap_snapshot::{Checkpointable, Reader, SnapshotError, Writer};

/// One PM's learned knowledge: the sparse twin of a [`QTablePair`],
/// held per PM by the [`QArena`] and by every node of a fleet. Trains
/// through the shared [`TrainTarget`] loop, so the learning fan-out hands
/// each worker a plain `&mut ArenaSlot`; its checkpoint encoding is the
/// dense pair's, byte for byte.
#[derive(Debug, Clone, Default)]
pub struct ArenaSlot {
    out: SparseTable,
    r#in: SparseTable,
    params: QParams,
    reward_out: RewardOut,
    reward_in: RewardIn,
}

impl ArenaSlot {
    /// Fresh, untrained tables with the given hyperparameters — the
    /// sparse [`QTablePair::new`].
    pub fn new(params: QParams) -> Self {
        ArenaSlot {
            params,
            ..ArenaSlot::default()
        }
    }
}

impl From<&QTablePair> for ArenaSlot {
    /// The visited entries of a boxed pair (an unvisited entry's value
    /// is not representable and is dropped).
    fn from(pair: &QTablePair) -> Self {
        ArenaSlot {
            out: SparseTable::from_dense(&pair.out),
            r#in: SparseTable::from_dense(&pair.r#in),
            params: pair.params,
            reward_out: pair.reward_out,
            reward_in: pair.reward_in,
        }
    }
}

impl PairStore for ArenaSlot {
    type Table = SparseTable;

    fn tables(&self) -> [&SparseTable; 2] {
        [&self.out, &self.r#in]
    }

    fn tables_mut(&mut self) -> [&mut SparseTable; 2] {
        [&mut self.out, &mut self.r#in]
    }

    fn set_params(&mut self, params: QParams, reward_out: RewardOut, reward_in: RewardIn) {
        self.params = params;
        self.reward_out = reward_out;
        self.reward_in = reward_in;
    }

    #[inline]
    fn trained_pairs(&self) -> usize {
        self.out.len() + self.r#in.len()
    }

    /// Bit-identical to [`QTablePair::merge_symmetric`] on the
    /// equivalent boxed pairs.
    fn merge_symmetric(a: &mut ArenaSlot, b: &mut ArenaSlot) {
        SparseTable::merge_symmetric(&mut a.out, &mut b.out);
        SparseTable::merge_symmetric(&mut a.r#in, &mut b.r#in);
        b.params = a.params;
        b.reward_out = a.reward_out;
        b.reward_in = a.reward_in;
    }

    /// Bit-identical to [`QTablePair::cosine_similarity`].
    fn cosine_similarity(&self, other: &ArenaSlot) -> f64 {
        let (d1, a1, b1) = self.out.dot_norms(&other.out);
        let (d2, a2, b2) = self.r#in.dot_norms(&other.r#in);
        kernel::cosine(d1 + d2, a1 + a2, b1 + b2)
    }

    /// `0.0` where unvisited.
    fn gather(&self, cols: &[u32], buf: &mut Vec<f64>) {
        let mut entries = self
            .out
            .entries()
            .chain(self.r#in.entries().map(|(k, v)| (k + TABLE_LEN, v)))
            .peekable();
        for &col in cols {
            let col = col as usize;
            while entries.next_if(|&(k, _)| k < col).is_some() {}
            buf.push(entries.next_if(|&(k, _)| k == col).map_or(0.0, |(_, v)| v));
        }
    }

    fn export(&self) -> QTablePair {
        QTablePair {
            out: self.out.to_dense(),
            r#in: self.r#in.to_dense(),
            params: self.params,
            reward_out: self.reward_out,
            reward_in: self.reward_in,
        }
    }
}

impl Checkpointable for ArenaSlot {
    /// Exactly [`QTablePair::save`] of [`export`](PairStore::export)
    /// ([`QTablePair::ENCODED_LEN`] bytes), written from the entries
    /// without building the dense pair.
    fn save(&self, w: &mut Writer) {
        put_dense_entries(w, self.out.entries());
        put_dense_entries(w, self.r#in.entries());
        put_params(w, self.params, &self.reward_out, &self.reward_in);
    }

    /// All-or-nothing, through [`DensePairView`]; an unvisited entry's
    /// value is dropped.
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        DensePairView::read(r)?.restore_into(self);
        Ok(())
    }
}

impl TrainTarget for ArenaSlot {
    fn train_out(&mut self, s: PmState, a: VmAction, s_next: PmState) {
        let target = kernel::target(
            self.reward_out.of_transition(s_next),
            self.params.gamma,
            s_next.is_overloaded(),
            || self.out.max_over_actions(s_next.index()),
        );
        self.out.update_toward(
            s.index() * NUM_STATES + a.index(),
            target,
            self.params.alpha,
        );
    }

    fn train_in(&mut self, s: PmState, a: VmAction, s_next: PmState) {
        let target = kernel::target(
            self.reward_in.of_transition(s_next),
            self.params.gamma,
            s_next.is_overloaded(),
            || self.r#in.max_over_actions(s_next.index()).max(0.0),
        );
        self.r#in.update_toward(
            s.index() * NUM_STATES + a.index(),
            target,
            self.params.alpha,
        );
    }
}

/// Every PM's Q-tables, one [`ArenaSlot`] each.
#[derive(Debug, Clone)]
pub struct QArena {
    slots: Vec<ArenaSlot>,
}

impl QArena {
    /// A fresh arena of `n` untrained pairs.
    pub fn new(n: usize, params: QParams) -> Self {
        QArena {
            slots: vec![ArenaSlot::new(params); n],
        }
    }

    /// The arena holding `slots`, slot `i` for PM `i`.
    pub fn from_slots(slots: Vec<ArenaSlot>) -> Self {
        QArena { slots }
    }

    /// The sparse form of boxed pairs, slot `i` from `pairs[i]`.
    pub fn from_pairs(pairs: &[QTablePair]) -> Self {
        QArena {
            slots: pairs.iter().map(ArenaSlot::from).collect(),
        }
    }

    /// Number of PM slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the arena holds zero slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slots, in PM order.
    #[inline]
    pub fn slots(&self) -> &[ArenaSlot] {
        &self.slots
    }

    /// The slots, in PM order — disjoint `&mut`s for parallel phases.
    #[inline]
    pub fn slots_mut(&mut self) -> &mut [ArenaSlot] {
        &mut self.slots
    }

    /// Materializes the whole arena as boxed pairs — 118 KB per PM, so
    /// only for callers that need per-PM dense tables; the one shared
    /// table is [`unified_table`](crate::unified_table)`(arena.slots())`.
    pub fn export(&self) -> Vec<QTablePair> {
        self.slots.iter().map(ArenaSlot::export).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unified_table;
    use glap_snapshot::{Checkpointable, Reader, Writer};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn save_bytes(p: &QTablePair) -> Vec<u8> {
        let mut w = Writer::new();
        p.save(&mut w);
        w.into_bytes()
    }

    /// `(&mut v[a], &mut v[b])` for `a != b`.
    fn two_mut<T>(v: &mut [T], a: usize, b: usize) -> (&mut T, &mut T) {
        if a < b {
            let (head, tail) = v.split_at_mut(b);
            (&mut head[a], &mut tail[0])
        } else {
            let (head, tail) = v.split_at_mut(a);
            (&mut tail[0], &mut head[b])
        }
    }

    /// One step of a random history over a small population.
    #[derive(Debug, Clone)]
    enum Op {
        /// `train_out` (or `train_in`) on PM `pm`.
        Train {
            pm: usize,
            out: bool,
            s: usize,
            a: usize,
            s_next: usize,
        },
        /// A bare EMA update of PM `pm`'s out table toward `target`.
        Nudge {
            pm: usize,
            s: usize,
            a: usize,
            target: f64,
        },
        /// Symmetric merge with `a` in the initiator role.
        Merge { a: usize, b: usize },
    }

    const N: usize = 4;

    /// States and actions from a handful of rows and columns, so rows
    /// collect several entries and first visits land mid-list; targets
    /// clustered on signed zeros and exact ties.
    fn op() -> impl Strategy<Value = Op> {
        let idx = || prop_oneof![0usize..4, 38usize..42, Just(NUM_STATES - 1)];
        let target = prop_oneof![Just(0.0), Just(-0.0), Just(1.0), Just(-1.0)];
        let train = || {
            (0..N, any::<bool>(), idx(), idx(), idx()).prop_map(|(pm, out, s, a, s_next)| {
                Op::Train {
                    pm,
                    out,
                    s,
                    a,
                    s_next,
                }
            })
        };
        // Two training arms in four: bursts between merges.
        prop_oneof![
            train(),
            train(),
            (0..N, idx(), idx(), target).prop_map(|(pm, s, a, target)| Op::Nudge {
                pm,
                s,
                a,
                target
            }),
            (0..N, 1..N).prop_map(|(a, d)| Op::Merge { a, b: (a + d) % N }),
        ]
    }

    /// Applies `ops` to boxed pairs and to arena slots.
    fn run(ops: &[Op], params: QParams) -> (Vec<QTablePair>, QArena) {
        let mut boxed = vec![QTablePair::new(params); N];
        let mut arena = QArena::new(N, params);
        for op in ops {
            match *op {
                Op::Train {
                    pm,
                    out,
                    s,
                    a,
                    s_next,
                } => {
                    let (s, a, s_next) = (
                        PmState::from_index(s),
                        VmAction::from_index(a),
                        PmState::from_index(s_next),
                    );
                    let slot = &mut arena.slots_mut()[pm];
                    if out {
                        boxed[pm].train_out(s, a, s_next);
                        slot.train_out(s, a, s_next);
                    } else {
                        boxed[pm].train_in(s, a, s_next);
                        slot.train_in(s, a, s_next);
                    }
                }
                Op::Nudge { pm, s, a, target } => {
                    boxed[pm].out.update_toward(
                        PmState::from_index(s),
                        VmAction::from_index(a),
                        target,
                        params.alpha,
                    );
                    arena.slots_mut()[pm].out.update_toward(
                        s * NUM_STATES + a,
                        target,
                        params.alpha,
                    );
                }
                Op::Merge { a, b } => {
                    let (x, y) = two_mut(&mut boxed, a, b);
                    QTablePair::merge_symmetric(x, y);
                    let (x, y) = two_mut(arena.slots_mut(), a, b);
                    ArenaSlot::merge_symmetric(x, y);
                }
            }
        }
        (boxed, arena)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The same random history — several actions per row, α = 1,
        /// `±0.0` targets, merges in both role orders — leaves boxed
        /// pairs and arena slots indistinguishable: exported bytes,
        /// tallies, cosine bits and the unified table. The simulated
        /// workloads only ever visit one entry per row, so nothing else
        /// exercises multi-entry row scans or mid-list inserts.
        #[test]
        fn arena_training_matches_boxed_bitwise(
            ops in proptest::collection::vec(op(), 1..120),
            alpha_one in any::<bool>(),
        ) {
            let params = QParams {
                alpha: if alpha_one { 1.0 } else { 0.3 },
                ..QParams::default()
            };
            let (boxed, arena) = run(&ops, params);
            for (i, (b, slot)) in boxed.iter().zip(arena.slots()).enumerate() {
                prop_assert_eq!(save_bytes(&slot.export()), save_bytes(b), "pm {}", i);
                prop_assert_eq!(slot.trained_pairs(), b.trained_pairs());
                let j = (i + 1) % N;
                prop_assert_eq!(
                    slot.cosine_similarity(&arena.slots()[j]).to_bits(),
                    b.cosine_similarity(&boxed[j]).to_bits()
                );
            }
            let mut want = boxed[0].clone();
            for b in &boxed[1..] {
                want.merge(b);
            }
            prop_assert_eq!(save_bytes(&unified_table(arena.slots())), save_bytes(&want));
        }
    }

    /// A training burst on one slot, off its own seeded stream.
    fn train_slot(slot: &mut ArenaSlot, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..80 {
            let mut draw = || rng.gen_range(0..NUM_STATES);
            let (s, a, s_next) = (
                PmState::from_index(draw()),
                VmAction::from_index(draw()),
                PmState::from_index(draw()),
            );
            slot.train_out(s, a, s_next);
            slot.train_in(s_next, a, s);
        }
    }

    fn trained_arena(n: usize, seed: u64) -> QArena {
        let mut arena = QArena::new(n, QParams::default());
        for (i, slot) in arena.slots_mut().iter_mut().enumerate() {
            train_slot(slot, seed + i as u64);
        }
        arena
    }

    #[test]
    fn save_restore_roundtrips_across_storages() {
        // Boxed bytes → boxed pair → slot → identical bytes back out.
        let pair = trained_arena(1, 5).slots()[0].export();
        let bytes = save_bytes(&pair);
        let mut restored = QTablePair::default();
        restored.restore(&mut Reader::new(&bytes)).unwrap();
        let arena = QArena::from_pairs(&[QTablePair::default(), restored]);
        assert_eq!(save_bytes(&arena.slots()[1].export()), bytes);
        assert_eq!(arena.slots()[1].export(), pair);
        // A fresh pair keeps its fresh encoding.
        assert_eq!(arena.slots()[0].export(), QTablePair::default());
    }

    /// Slots trained on four threads equal the same slots trained
    /// serially: a `&mut ArenaSlot` is all a training burst touches.
    #[test]
    fn slot_views_match_across_threads() {
        let serial = trained_arena(8, 11);
        let mut parallel = QArena::new(8, QParams::default());
        std::thread::scope(|scope| {
            for (w, chunk) in parallel.slots_mut().chunks_mut(2).enumerate() {
                scope.spawn(move || {
                    for (k, slot) in chunk.iter_mut().enumerate() {
                        train_slot(slot, 11 + (2 * w + k) as u64);
                    }
                });
            }
        });
        assert_eq!(parallel.export(), serial.export());
    }

    #[test]
    fn unified_table_and_value_rows_match_boxed_export() {
        let arena = trained_arena(3, 17);
        let boxed = arena.export();
        let mut want = boxed[0].clone();
        for b in &boxed[1..] {
            want.merge(b);
        }
        assert_eq!(save_bytes(&unified_table(arena.slots())), save_bytes(&want));
        // Gathering every column reproduces the dense `out ++ in` row.
        let all: Vec<u32> = (0..2 * TABLE_LEN as u32).collect();
        for (slot, b) in arena.slots().iter().zip(&boxed) {
            let mut row = Vec::new();
            slot.gather(&all, &mut row);
            assert_eq!(row, [b.out.raw_values(), b.r#in.raw_values()].concat());
        }
        let empty = QArena::new(0, QParams::default());
        assert_eq!(unified_table(empty.slots()), QTablePair::default());
    }

    #[test]
    fn cosine_similarity_matches_boxed() {
        let arena = trained_arena(2, 3);
        let [s0, s1] = arena.slots() else {
            unreachable!()
        };
        assert_eq!(
            s0.cosine_similarity(s1).to_bits(),
            s0.export().cosine_similarity(&s1.export()).to_bits()
        );
    }
}

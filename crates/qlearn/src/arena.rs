//! Flat Q-table arena: every PM's φ_out/φ_in pair in one contiguous slab.
//!
//! At 100k PMs the boxed representation — two `Vec<f64>` + two
//! `Vec<bool>` heap allocations per [`QTablePair`] — costs 400k scattered
//! allocations and destroys locality for the sharded learn/aggregate
//! sweeps. The arena stores all tables PM-major in two slabs (values and
//! visited), laid out `[pm0: out | in][pm1: out | in]…`, with small
//! sidecar vectors for visited tallies, per-table row masks and the
//! per-PM hyperparameters/reward systems. Round phases walk the slab
//! sequentially; per-round allocation collapses to zero.
//!
//! Three properties are pinned by tests:
//!
//! * **Training byte-identity** — arena slot views train through the same
//!   [`kernel`](crate::kernel) functions (plus the exact
//!   [`RowMaxCache`]) as the boxed tables, via the shared
//!   [`TrainTarget`] loop, so the produced bits are equal.
//! * **Snapshot byte-identity** — [`QArena::save_pm`] emits exactly the
//!   bytes of [`QTablePair::save`](glap_snapshot::Checkpointable::save),
//!   entry for entry, so v1 snapshots are unchanged whichever storage
//!   produced them.
//! * **Backing transparency** — the slabs are [`Slab`]s: heap by default,
//!   file-backed `mmap` behind `GLAP_ARENA_MMAP` (see
//!   [`slab`](crate::slab)), bit-identical either way.

use crate::kernel::{self, RowMaxCache, TABLE_LEN};
use crate::reward::{RewardIn, RewardOut};
use crate::slab::{mmap_requested_from_env, Slab};
use crate::state::{PmState, VmAction, NUM_STATES};
use crate::table::{QParams, QTable, QTablePair, TrainTarget};
use glap_snapshot::{Checkpointable, Reader, SnapshotError, Writer};

/// Values/visited stride of one PM (out table followed by in table).
const PM_STRIDE: usize = 2 * TABLE_LEN;

/// The per-PM [`RowMaxCache`] pair used by arena training. Lives outside
/// the arena (trainer scratch): caches are transient accelerator state,
/// reset (O(1)) at the start of every training burst, and must also be
/// reset after any out-of-band table mutation (a merge, a restore).
#[derive(Debug, Clone, Default)]
pub struct PairCaches {
    /// Bootstrap cache for the φ_out table.
    pub out: RowMaxCache,
    /// Bootstrap cache for the φ_in table.
    pub r#in: RowMaxCache,
}

impl PairCaches {
    /// Drops both caches (O(1)).
    #[inline]
    pub fn reset(&mut self) {
        self.out.reset();
        self.r#in.reset();
    }
}

/// All PMs' Q-tables in one flat allocation (or mmap region).
#[derive(Debug)]
pub struct QArena {
    n: usize,
    /// `n * 2 * TABLE_LEN` Q-values, PM-major `[out | in]`.
    values: Slab<f64>,
    /// Visited bitmap parallel to `values`.
    visited: Slab<bool>,
    /// Visited tallies, `[2i]` = PM i's out table, `[2i+1]` = in.
    n_visited: Vec<usize>,
    /// Monotone row masks (bit r ⇔ row r has a visited entry), indexed
    /// like `n_visited`. Invariant: always exact, maintained by training
    /// (`|= 1 << s`), unioned by merges, recomputed on restore/import.
    row_any: Vec<u128>,
    params: Vec<QParams>,
    reward_out: Vec<RewardOut>,
    reward_in: Vec<RewardIn>,
}

impl QArena {
    /// A fresh arena of `n` untrained pairs on the heap.
    pub fn new(n: usize, params: QParams) -> Self {
        Self::with_storage(n, params, false)
    }

    /// A fresh arena, file-backed when `want_mmap` (and the platform
    /// cooperates — silently heap otherwise).
    pub fn with_storage(n: usize, params: QParams, want_mmap: bool) -> Self {
        QArena {
            n,
            values: Slab::new(n * PM_STRIDE, want_mmap),
            visited: Slab::new(n * PM_STRIDE, want_mmap),
            n_visited: vec![0; 2 * n],
            row_any: vec![0; 2 * n],
            params: vec![params; n],
            reward_out: vec![RewardOut::default(); n],
            reward_in: vec![RewardIn::default(); n],
        }
    }

    /// A fresh arena whose backing honors the `GLAP_ARENA_MMAP`
    /// environment flag.
    pub fn from_env(n: usize, params: QParams) -> Self {
        Self::with_storage(n, params, mmap_requested_from_env())
    }

    /// Number of PM slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the arena holds zero slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether the value slab actually ended up file-backed.
    pub fn is_mmap(&self) -> bool {
        self.values.is_mmap()
    }

    /// Total trained (state, action) pairs of PM `i`, both tables —
    /// mirrors [`QTablePair::trained_pairs`].
    #[inline]
    pub fn trained_pairs(&self, i: usize) -> usize {
        self.n_visited[2 * i] + self.n_visited[2 * i + 1]
    }

    /// Mutable training view of PM `i`'s pair, borrowing the caller's
    /// cache pair. Serial twin of [`ArenaPtr::pair_mut`].
    pub fn pair_mut<'a>(&'a mut self, i: usize, caches: &'a mut PairCaches) -> ArenaPair<'a> {
        assert!(i < self.n, "pm {i} out of arena bounds {}", self.n);
        let base = i * PM_STRIDE;
        let (out_values, in_values) =
            self.values[base..base + PM_STRIDE].split_at_mut(TABLE_LEN);
        let (out_visited, in_visited) =
            self.visited[base..base + PM_STRIDE].split_at_mut(TABLE_LEN);
        let (nl, nr) = self.n_visited.split_at_mut(2 * i + 1);
        let (rl, rr) = self.row_any.split_at_mut(2 * i + 1);
        ArenaPair {
            out_values,
            out_visited,
            out_n_visited: &mut nl[2 * i],
            out_row_any: &mut rl[2 * i],
            in_values,
            in_visited,
            in_n_visited: &mut nr[0],
            in_row_any: &mut rr[0],
            params: self.params[i],
            reward_out: self.reward_out[i],
            reward_in: self.reward_in[i],
            caches,
        }
    }

    /// Raw-pointer handle for sharded parallel phases (the arena twin of
    /// the sharded round's `*mut QTablePair` tasks). See
    /// [`ArenaPtr::pair_mut`] for the safety contract.
    pub fn as_ptr(&mut self) -> ArenaPtr {
        ArenaPtr {
            values: self.values.as_mut_ptr(),
            visited: self.visited.as_mut_ptr(),
            n_visited: self.n_visited.as_mut_ptr(),
            row_any: self.row_any.as_mut_ptr(),
            params: self.params.as_mut_ptr(),
            reward_out: self.reward_out.as_mut_ptr(),
            reward_in: self.reward_in.as_mut_ptr(),
            n: self.n,
        }
    }

    /// Symmetric gossip merge of PMs `a` and `b`, bit-identical to
    /// [`QTablePair::merge_symmetric`] on the equivalent boxed pairs
    /// (row-skipping: only rows visited on either side are walked;
    /// skipped rows are provable no-ops). Like the boxed version, `b`
    /// adopts `a`'s hyperparameters and reward systems. Any live
    /// [`PairCaches`] for `a` or `b` must be reset afterwards.
    pub fn merge_pms(&mut self, a: usize, b: usize) {
        assert!(a != b && a < self.n && b < self.n);
        // SAFETY: `&mut self` guarantees no other live view; one shared
        // implementation with the sharded raw path keeps them bitwise
        // inseparable.
        unsafe { self.as_ptr().merge_pms(a, b) }
    }

    /// Cosine similarity of PMs `a` and `b` over their concatenated
    /// (out, in) value vectors — the same expression order as
    /// [`QTablePair::cosine_similarity`], bit-identical.
    pub fn cosine_similarity_pms(&self, a: usize, b: usize) -> f64 {
        let dot_norms = |xa: &[f64], xb: &[f64]| {
            let mut dot = 0.0;
            let mut nx = 0.0;
            let mut ny = 0.0;
            for i in 0..xa.len() {
                dot += xa[i] * xb[i];
                nx += xa[i] * xa[i];
                ny += xb[i] * xb[i];
            }
            (dot, nx, ny)
        };
        let (ab, bb) = (a * PM_STRIDE, b * PM_STRIDE);
        let (d1, a1, b1) = dot_norms(
            &self.values[ab..ab + TABLE_LEN],
            &self.values[bb..bb + TABLE_LEN],
        );
        let (d2, a2, b2) = dot_norms(
            &self.values[ab + TABLE_LEN..ab + PM_STRIDE],
            &self.values[bb + TABLE_LEN..bb + PM_STRIDE],
        );
        let (dot, na, nb) = (d1 + d2, a1 + a2, b1 + b2);
        if na == 0.0 && nb == 0.0 {
            1.0
        } else if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na.sqrt() * nb.sqrt())
        }
    }

    /// PM `i`'s concatenated `out ++ in` value vector, in place — one row
    /// of the `n × 2·TABLE_LEN` matrix the slab already is.
    #[inline]
    pub fn pm_values(&self, i: usize) -> &[f64] {
        &self.values[i * PM_STRIDE..(i + 1) * PM_STRIDE]
    }

    /// Every PM's knowledge merged into one boxed pair, in PM order —
    /// bit-identical to folding [`QTablePair::merge`] over the exported
    /// pairs, without exporting them.
    pub fn unified_table(&self) -> QTablePair {
        if self.n == 0 {
            return QTablePair::default();
        }
        let mut unified = self.export_pm(0);
        for base in (1..self.n).map(|i| i * PM_STRIDE) {
            let (out, r#in) = (base..base + TABLE_LEN, base + TABLE_LEN..base + PM_STRIDE);
            unified
                .out
                .merge_average_raw(&self.values[out.clone()], &self.visited[out]);
            unified
                .r#in
                .merge_average_raw(&self.values[r#in.clone()], &self.visited[r#in]);
        }
        unified
    }

    /// Serializes PM `i`'s pair — byte-identical to
    /// [`QTablePair::save`](Checkpointable::save) on the exported pair,
    /// so arena-backed checkpoints keep the v1 snapshot format.
    pub fn save_pm(&self, i: usize, w: &mut Writer) {
        let base = i * PM_STRIDE;
        w.put_f64_slice(&self.values[base..base + TABLE_LEN]);
        w.put_bool_slice(&self.visited[base..base + TABLE_LEN]);
        w.put_f64_slice(&self.values[base + TABLE_LEN..base + PM_STRIDE]);
        w.put_bool_slice(&self.visited[base + TABLE_LEN..base + PM_STRIDE]);
        w.put_f64(self.params[i].alpha);
        w.put_f64(self.params[i].gamma);
        w.put_f64_slice(&self.reward_out[i].values);
        w.put_f64_slice(&self.reward_in[i].values);
    }

    /// Restores PM `i` from bytes written by [`save_pm`](Self::save_pm)
    /// or by the boxed [`QTablePair::save`](Checkpointable::save) —
    /// the formats are one and the same. Sidecars (tallies, row masks)
    /// are recomputed; any live caches for `i` must be reset.
    pub fn restore_pm(&mut self, i: usize, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        // Parse through the boxed restore for identical validation, then
        // copy into the slab.
        let mut pair = QTablePair::default();
        pair.restore(r)?;
        self.import_pm(i, &pair);
        Ok(())
    }

    /// Copies a boxed pair into slot `i`, recomputing sidecars. Any live
    /// caches for `i` must be reset.
    pub fn import_pm(&mut self, i: usize, pair: &QTablePair) {
        assert!(i < self.n);
        let base = i * PM_STRIDE;
        self.values[base..base + TABLE_LEN].copy_from_slice(pair.out.raw_values());
        self.visited[base..base + TABLE_LEN].copy_from_slice(pair.out.raw_visited());
        self.values[base + TABLE_LEN..base + PM_STRIDE].copy_from_slice(pair.r#in.raw_values());
        self.visited[base + TABLE_LEN..base + PM_STRIDE].copy_from_slice(pair.r#in.raw_visited());
        self.n_visited[2 * i] = pair.out.visited_count();
        self.n_visited[2 * i + 1] = pair.r#in.visited_count();
        self.row_any[2 * i] = kernel::row_any_mask(pair.out.raw_visited());
        self.row_any[2 * i + 1] = kernel::row_any_mask(pair.r#in.raw_visited());
        self.params[i] = pair.params;
        self.reward_out[i] = pair.reward_out;
        self.reward_in[i] = pair.reward_in;
    }

    /// Materializes slot `i` as a boxed pair (values kept verbatim,
    /// including unvisited entries, so restored snapshots stay
    /// byte-faithful).
    pub fn export_pm(&self, i: usize) -> QTablePair {
        let base = i * PM_STRIDE;
        QTablePair {
            out: QTable::from_raw_parts(
                self.values[base..base + TABLE_LEN].to_vec(),
                self.visited[base..base + TABLE_LEN].to_vec(),
            ),
            r#in: QTable::from_raw_parts(
                self.values[base + TABLE_LEN..base + PM_STRIDE].to_vec(),
                self.visited[base + TABLE_LEN..base + PM_STRIDE].to_vec(),
            ),
            params: self.params[i],
            reward_out: self.reward_out[i],
            reward_in: self.reward_in[i],
        }
    }

    /// Materializes the whole arena as boxed pairs (the public trainer
    /// return type). Scale paths that cannot afford the transient copy
    /// use the arena directly instead.
    pub fn export(&self) -> Vec<QTablePair> {
        (0..self.n).map(|i| self.export_pm(i)).collect()
    }
}

/// Raw-pointer handle into an arena for sharded parallel phases.
///
/// Carries no lifetime: the caller (the trainer's scoped parallel
/// sections) guarantees the arena outlives every use.
#[derive(Clone, Copy, Debug)]
pub struct ArenaPtr {
    values: *mut f64,
    visited: *mut bool,
    n_visited: *mut usize,
    row_any: *mut u128,
    params: *mut QParams,
    reward_out: *mut RewardOut,
    reward_in: *mut RewardIn,
    n: usize,
}

// Plain-old-data pointers; disjointness across threads is the caller's
// contract (see `pair_mut`), same as the sharded round's task pointers.
unsafe impl Send for ArenaPtr {}
unsafe impl Sync for ArenaPtr {}

impl ArenaPtr {
    /// Mutable training view of PM `i`.
    ///
    /// # Safety
    ///
    /// The arena must outlive the view, `i < n`, and no other live view
    /// or arena borrow may touch PM `i` concurrently. Distinct PMs'
    /// views touch provably disjoint memory and may be used from
    /// different threads.
    pub unsafe fn pair_mut<'a>(&self, i: usize, caches: &'a mut PairCaches) -> ArenaPair<'a> {
        debug_assert!(i < self.n);
        let base = i * PM_STRIDE;
        ArenaPair {
            out_values: std::slice::from_raw_parts_mut(self.values.add(base), TABLE_LEN),
            out_visited: std::slice::from_raw_parts_mut(self.visited.add(base), TABLE_LEN),
            out_n_visited: &mut *self.n_visited.add(2 * i),
            out_row_any: &mut *self.row_any.add(2 * i),
            in_values: std::slice::from_raw_parts_mut(
                self.values.add(base + TABLE_LEN),
                TABLE_LEN,
            ),
            in_visited: std::slice::from_raw_parts_mut(
                self.visited.add(base + TABLE_LEN),
                TABLE_LEN,
            ),
            in_n_visited: &mut *self.n_visited.add(2 * i + 1),
            in_row_any: &mut *self.row_any.add(2 * i + 1),
            params: *self.params.add(i),
            reward_out: *self.reward_out.add(i),
            reward_in: *self.reward_in.add(i),
            caches,
        }
    }

    /// Symmetric gossip merge of PMs `a` and `b` — the raw twin of (and
    /// single implementation behind) [`QArena::merge_pms`]: row-skipping
    /// masked merge of both tables, union row masks on both sides, `b`
    /// adopts `a`'s hyperparameters and reward systems. The entry merge
    /// is symmetric in (a, b), so either role ordering produces
    /// identical bits. Any live [`PairCaches`] for `a` or `b` must be
    /// reset before their next use.
    ///
    /// # Safety
    ///
    /// The arena must outlive the call, `a != b`, both `< n`, and no
    /// other live view or arena borrow may touch PM `a` or `b`
    /// concurrently. Vertex-disjoint pairs touch provably disjoint
    /// memory and may merge from different threads.
    pub unsafe fn merge_pms(&self, a: usize, b: usize) {
        debug_assert!(a != b && a < self.n && b < self.n);
        for t in 0..2 {
            let (ab, bb) = (a * PM_STRIDE + t * TABLE_LEN, b * PM_STRIDE + t * TABLE_LEN);
            let union = *self.row_any.add(2 * a + t) | *self.row_any.add(2 * b + t);
            kernel::merge_symmetric_masked(
                std::slice::from_raw_parts_mut(self.values.add(ab), TABLE_LEN),
                std::slice::from_raw_parts_mut(self.visited.add(ab), TABLE_LEN),
                &mut *self.n_visited.add(2 * a + t),
                std::slice::from_raw_parts_mut(self.values.add(bb), TABLE_LEN),
                std::slice::from_raw_parts_mut(self.visited.add(bb), TABLE_LEN),
                &mut *self.n_visited.add(2 * b + t),
                union,
            );
            *self.row_any.add(2 * a + t) = union;
            *self.row_any.add(2 * b + t) = union;
        }
        *self.params.add(b) = *self.params.add(a);
        *self.reward_out.add(b) = *self.reward_out.add(a);
        *self.reward_in.add(b) = *self.reward_in.add(a);
    }
}

/// Mutable view of one PM's pair inside the arena, with the bootstrap
/// caches wired in. Implements [`TrainTarget`] bit-identically to the
/// boxed [`QTablePair`] — same kernels, same expression order, with the
/// canonical row scan replaced by the provably exact [`RowMaxCache`].
pub struct ArenaPair<'a> {
    out_values: &'a mut [f64],
    out_visited: &'a mut [bool],
    out_n_visited: &'a mut usize,
    out_row_any: &'a mut u128,
    in_values: &'a mut [f64],
    in_visited: &'a mut [bool],
    in_n_visited: &'a mut usize,
    in_row_any: &'a mut u128,
    params: QParams,
    reward_out: RewardOut,
    reward_in: RewardIn,
    caches: &'a mut PairCaches,
}

impl TrainTarget for ArenaPair<'_> {
    fn train_out(&mut self, s: PmState, a: VmAction, s_next: PmState) {
        let r = self.reward_out.of_transition(s_next);
        let future = if s_next.is_overloaded() {
            0.0
        } else {
            self.caches
                .out
                .max_over_actions(self.out_values, self.out_visited, s_next.index())
        };
        let i = s.index() * NUM_STATES + a.index();
        let (was, old) = kernel::update_toward(
            self.out_values,
            self.out_visited,
            self.out_n_visited,
            i,
            r + self.params.gamma * future,
            self.params.alpha,
        );
        self.caches.out.note_update(s.index(), was, old, self.out_values[i]);
        *self.out_row_any |= 1u128 << s.index();
    }

    fn train_in(&mut self, s: PmState, a: VmAction, s_next: PmState) {
        let r = self.reward_in.of_transition(s_next);
        let future = if s_next.is_overloaded() {
            0.0
        } else {
            self.caches
                .r#in
                .max_over_actions(self.in_values, self.in_visited, s_next.index())
                .max(0.0)
        };
        let i = s.index() * NUM_STATES + a.index();
        let (was, old) = kernel::update_toward(
            self.in_values,
            self.in_visited,
            self.in_n_visited,
            i,
            r + self.params.gamma * future,
            self.params.alpha,
        );
        self.caches.r#in.note_update(s.index(), was, old, self.in_values[i]);
        *self.in_row_any |= 1u128 << s.index();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_state(rng: &mut SmallRng) -> PmState {
        PmState::from_index(rng.gen_range(0..NUM_STATES))
    }

    fn random_action(rng: &mut SmallRng) -> VmAction {
        VmAction::from_index(rng.gen_range(0..NUM_STATES))
    }

    fn save_bytes(p: &QTablePair) -> Vec<u8> {
        let mut w = Writer::new();
        p.save(&mut w);
        w.into_bytes()
    }

    fn arena_bytes(a: &QArena, i: usize) -> Vec<u8> {
        let mut w = Writer::new();
        a.save_pm(i, &mut w);
        w.into_bytes()
    }

    /// Drives the same random training sequence through boxed pairs and
    /// arena views (interleaved with merges + cache resets) and asserts
    /// byte-identity of every PM's serialized pair.
    fn assert_training_parity(want_mmap: bool) {
        const N: usize = 6;
        let params = QParams::default();
        let mut boxed: Vec<QTablePair> = (0..N).map(|_| QTablePair::new(params)).collect();
        let mut arena = QArena::with_storage(N, params, want_mmap);
        let mut caches: Vec<PairCaches> = (0..N).map(|_| PairCaches::default()).collect();
        let mut rng = SmallRng::seed_from_u64(99);

        for burst in 0..30 {
            // Training burst on a random PM: identical op sequence on
            // both storages.
            let pm = rng.gen_range(0..N);
            caches[pm].reset();
            let mut ops = Vec::new();
            for _ in 0..rng.gen_range(1..60) {
                ops.push((
                    rng.gen_bool(0.5),
                    random_state(&mut rng),
                    random_action(&mut rng),
                    random_state(&mut rng),
                ));
            }
            {
                let mut view = arena.pair_mut(pm, &mut caches[pm]);
                for &(out, s, a, sn) in &ops {
                    if out {
                        view.train_out(s, a, sn);
                    } else {
                        view.train_in(s, a, sn);
                    }
                }
            }
            for &(out, s, a, sn) in &ops {
                if out {
                    boxed[pm].train_out(s, a, sn);
                } else {
                    boxed[pm].train_in(s, a, sn);
                }
            }
            // Occasional gossip merge between two PMs.
            if burst % 3 == 2 {
                let a = rng.gen_range(0..N);
                let b = (a + 1 + rng.gen_range(0..N - 1)) % N;
                arena.merge_pms(a, b);
                caches[a].reset();
                caches[b].reset();
                let (x, y) = if a < b { (a, b) } else { (b, a) };
                let (l, r) = boxed.split_at_mut(y);
                if a < b {
                    QTablePair::merge_symmetric(&mut l[x], &mut r[0]);
                } else {
                    let (bb, aa) = (&mut l[x], &mut r[0]);
                    QTablePair::merge_symmetric(aa, bb);
                }
            }
        }
        for i in 0..N {
            assert_eq!(
                arena_bytes(&arena, i),
                save_bytes(&boxed[i]),
                "pm {i} diverged (mmap={want_mmap})"
            );
            assert_eq!(arena.trained_pairs(i), boxed[i].trained_pairs());
        }
    }

    #[test]
    fn arena_training_matches_boxed_bitwise() {
        assert_training_parity(false);
    }

    #[test]
    fn mmap_arena_training_matches_boxed_bitwise() {
        assert_training_parity(true);
    }

    #[test]
    fn save_restore_roundtrips_across_storages() {
        let params = QParams {
            alpha: 0.45,
            gamma: 0.7,
        };
        let mut pair = QTablePair::new(params);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..200 {
            pair.train_out(random_state(&mut rng), random_action(&mut rng), random_state(&mut rng));
            pair.train_in(random_state(&mut rng), random_action(&mut rng), random_state(&mut rng));
        }
        let bytes = save_bytes(&pair);

        // Boxed bytes → arena slot → identical bytes back out.
        let mut arena = QArena::new(3, QParams::default());
        arena.restore_pm(1, &mut Reader::new(&bytes)).unwrap();
        assert_eq!(arena_bytes(&arena, 1), bytes);
        // And the exported pair is the original, field for field.
        assert_eq!(arena.export_pm(1), pair);
        // Untouched slots keep their fresh-pair encoding.
        assert_eq!(
            arena_bytes(&arena, 0),
            save_bytes(&QTablePair::new(QParams::default()))
        );
    }

    #[test]
    fn restore_keeps_unvisited_values_byte_faithful() {
        // Craft a snapshot whose unvisited entries carry nonzero values:
        // the arena must reproduce it verbatim on re-save.
        let mut w = Writer::new();
        let mut vals = vec![0.0f64; TABLE_LEN];
        vals[7] = 5.25; // unvisited but nonzero
        let vis = vec![false; TABLE_LEN];
        w.put_f64_slice(&vals);
        w.put_bool_slice(&vis);
        w.put_f64_slice(&vec![0.0; TABLE_LEN]);
        w.put_bool_slice(&vec![false; TABLE_LEN]);
        w.put_f64(0.3);
        w.put_f64(0.8);
        w.put_f64_slice(&RewardOut::default().values);
        w.put_f64_slice(&RewardIn::default().values);
        let bytes = w.into_bytes();

        let mut arena = QArena::new(1, QParams::default());
        arena.restore_pm(0, &mut Reader::new(&bytes)).unwrap();
        assert_eq!(arena_bytes(&arena, 0), bytes);
        let mut boxed = QTablePair::default();
        boxed.restore(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(save_bytes(&boxed), bytes);
        assert_eq!(arena.export_pm(0), boxed);
    }

    #[test]
    fn raw_ptr_views_match_serial_views() {
        let params = QParams::default();
        let mut a1 = QArena::new(4, params);
        let mut a2 = QArena::new(4, params);
        let mut c1: Vec<PairCaches> = (0..4).map(|_| PairCaches::default()).collect();
        let mut c2: Vec<PairCaches> = (0..4).map(|_| PairCaches::default()).collect();
        let mut rng = SmallRng::seed_from_u64(11);
        let ops: Vec<_> = (0..300)
            .map(|_| {
                (
                    rng.gen_range(0..4usize),
                    rng.gen_bool(0.5),
                    random_state(&mut rng),
                    random_action(&mut rng),
                    random_state(&mut rng),
                )
            })
            .collect();
        for &(pm, out, s, a, sn) in &ops {
            let mut v = a1.pair_mut(pm, &mut c1[pm]);
            if out {
                v.train_out(s, a, sn)
            } else {
                v.train_in(s, a, sn)
            }
        }
        let ptr = a2.as_ptr();
        for &(pm, out, s, a, sn) in &ops {
            let mut v = unsafe { ptr.pair_mut(pm, &mut c2[pm]) };
            if out {
                v.train_out(s, a, sn)
            } else {
                v.train_in(s, a, sn)
            }
        }
        for i in 0..4 {
            assert_eq!(arena_bytes(&a1, i), arena_bytes(&a2, i));
        }
    }

    #[test]
    fn unified_table_and_value_rows_match_boxed_export() {
        let mut arena = QArena::new(3, QParams::default());
        let mut caches = PairCaches::default();
        let mut rng = SmallRng::seed_from_u64(17);
        for pm in 0..3 {
            caches.reset();
            let mut v = arena.pair_mut(pm, &mut caches);
            for _ in 0..60 {
                let (s, a, sn) = (
                    random_state(&mut rng),
                    random_action(&mut rng),
                    random_state(&mut rng),
                );
                v.train_out(s, a, sn);
                v.train_in(sn, a, s);
            }
        }
        let boxed = arena.export();
        let mut want = boxed[0].clone();
        for b in &boxed[1..] {
            want.merge(b);
        }
        assert_eq!(save_bytes(&arena.unified_table()), save_bytes(&want));
        for (i, b) in boxed.iter().enumerate() {
            let row = [b.out.raw_values(), b.r#in.raw_values()].concat();
            assert_eq!(arena.pm_values(i), &row[..]);
        }
    }

    #[test]
    fn cosine_similarity_matches_boxed() {
        let params = QParams::default();
        let mut arena = QArena::new(2, params);
        let mut caches = PairCaches::default();
        let mut rng = SmallRng::seed_from_u64(3);
        for pm in 0..2 {
            caches.reset();
            let mut v = arena.pair_mut(pm, &mut caches);
            for _ in 0..80 {
                v.train_out(random_state(&mut rng), random_action(&mut rng), random_state(&mut rng));
                v.train_in(random_state(&mut rng), random_action(&mut rng), random_state(&mut rng));
            }
        }
        let (p0, p1) = (arena.export_pm(0), arena.export_pm(1));
        assert_eq!(
            arena.cosine_similarity_pms(0, 1).to_bits(),
            p0.cosine_similarity(&p1).to_bits()
        );
    }
}

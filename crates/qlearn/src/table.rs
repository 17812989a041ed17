//! Dense tabular Q-values: the single [`QTable`] and the φ_out/φ_in
//! [`QTablePair`] every PM maintains.
//!
//! With 81 states × 81 actions, a Q-table is a 6561-entry `f64` array plus
//! a `visited` bitmap. The bitmap distinguishes "never trained" from
//! "trained to value 0", which the gossip merge of Algorithm 2 needs: a
//! (state, action) pair present in both peers is averaged, a pair present
//! in only one is adopted by the other.
//!
//! [`QTablePair`] adds the paper's decision functions on top:
//!
//! * `π_out(s_p) = arg max_a φ_out(s_p, a)` over the actions available in
//!   the sender's VM set — which VM to evict.
//! * `π_in(a) = sign(φ_in(s_q, a))` — accept the migrating VM iff the
//!   learned value is non-negative; a negative value means accepting a VM
//!   in this load state "very likely ends in an overload state immediately
//!   or in the near future".

use crate::kernel::TABLE_LEN;
use crate::level::NUM_LEVELS;
use crate::reward::{RewardIn, RewardOut};
use crate::sparse::SparseTable;
use crate::state::{PmState, VmAction, NUM_STATES};
use crate::store::{EntryStore, PairStore};
use glap_snapshot::{Checkpointable, Reader, SnapshotError, Writer};

/// Q-learning hyperparameters of Eq. (1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QParams {
    /// Learning rate α ∈ (0, 1].
    pub alpha: f64,
    /// Discount factor γ ∈ [0, 1).
    pub gamma: f64,
}

impl Default for QParams {
    fn default() -> Self {
        QParams {
            alpha: 0.3,
            gamma: 0.8,
        }
    }
}

/// One dense Q-table over (PM state, VM action).
#[derive(Debug, Clone, PartialEq)]
pub struct QTable {
    values: Vec<f64>,
    visited: Vec<bool>,
    n_visited: usize,
}

impl Default for QTable {
    fn default() -> Self {
        Self::new()
    }
}

impl QTable {
    /// An empty (fully unvisited) table.
    pub fn new() -> Self {
        QTable {
            values: vec![0.0; NUM_STATES * NUM_STATES],
            visited: vec![false; NUM_STATES * NUM_STATES],
            n_visited: 0,
        }
    }

    #[inline]
    fn idx(s: PmState, a: VmAction) -> usize {
        s.index() * NUM_STATES + a.index()
    }

    /// Q(s, a); 0 for unvisited pairs.
    #[inline]
    pub fn get(&self, s: PmState, a: VmAction) -> f64 {
        self.values[Self::idx(s, a)]
    }

    /// Whether (s, a) has ever been trained or merged in.
    #[inline]
    pub fn is_visited(&self, s: PmState, a: VmAction) -> bool {
        self.visited[Self::idx(s, a)]
    }

    /// Number of visited pairs.
    #[inline]
    pub fn visited_count(&self) -> usize {
        self.n_visited
    }

    /// Directly sets Q(s, a), marking it visited.
    pub fn set(&mut self, s: PmState, a: VmAction, value: f64) {
        let i = Self::idx(s, a);
        if !self.visited[i] {
            self.visited[i] = true;
            self.n_visited += 1;
        }
        self.values[i] = value;
    }

    /// The greedy bootstrap term `max_a' Q(s', a')` over *visited* actions
    /// of `s'`; 0 when the row is untrained (optimistic-neutral init).
    /// Delegates to the shared [`kernel`](crate::kernel) scan so the
    /// boxed and the arena paths cannot drift.
    pub fn max_over_actions(&self, s: PmState) -> f64 {
        crate::kernel::max_over_actions(&self.values, &self.visited, s.index())
    }

    /// One Bellman update (the paper's Eq. (1)):
    /// `Q(s,a) ← (1−α)·Q(s,a) + α·(R + γ·max_a' Q(s', a'))`.
    pub fn bellman_update(
        &mut self,
        s: PmState,
        a: VmAction,
        s_next: PmState,
        reward: f64,
        params: QParams,
    ) {
        let future = self.max_over_actions(s_next);
        self.update_toward(s, a, reward + params.gamma * future, params.alpha);
    }

    /// Exponential-moving-average update toward an externally computed
    /// target: `Q(s,a) ← (1−α)·Q(s,a) + α·target`. This is Eq. (1) with
    /// the caller supplying `target = R + γ·future`; the GLAP reward
    /// systems use it to apply their own continuation semantics (terminal
    /// overload states, the recipient's option to reject).
    pub fn update_toward(&mut self, s: PmState, a: VmAction, target: f64, alpha: f64) {
        crate::kernel::update_toward(
            &mut self.values,
            &mut self.visited,
            &mut self.n_visited,
            Self::idx(s, a),
            target,
            alpha,
        );
    }

    /// `π_out`-style arg-max: the best action for `s` among `available`,
    /// considering only visited pairs. Returns the action and its Q-value.
    pub fn best_action_among<I>(&self, s: PmState, available: I) -> Option<(VmAction, f64)>
    where
        I: IntoIterator<Item = VmAction>,
    {
        let base = s.index() * NUM_STATES;
        let mut best: Option<(VmAction, f64)> = None;
        for a in available {
            let i = base + a.index();
            if !self.visited[i] {
                continue;
            }
            let q = self.values[i];
            match best {
                Some((_, bq)) if bq >= q => {}
                _ => best = Some((a, q)),
            }
        }
        best
    }

    /// Algorithm 2's merge: average pairs present in both tables, adopt
    /// pairs present only in `other`.
    pub fn merge_average(&mut self, other: &QTable) {
        self.merge_entries(other.visited_entries());
    }

    /// [`merge_average`](Self::merge_average) against a peer given as its
    /// visited `(flat index, value)` entries — a dense table's or a
    /// [`SparseTable`]'s.
    pub fn merge_entries(&mut self, entries: impl Iterator<Item = (usize, f64)>) {
        for (i, v) in entries {
            if self.visited[i] {
                self.values[i] = crate::kernel::average(self.values[i], v);
            } else {
                self.set_index(i, v);
            }
        }
    }

    /// Overwrites the table with exactly `entries`: everything else ends
    /// unvisited and `0.0`, as in a fresh table the entries were set into.
    pub fn assign_entries(&mut self, entries: impl Iterator<Item = (usize, f64)>) {
        self.values.fill(0.0);
        self.visited.fill(false);
        self.n_visited = 0;
        for (i, v) in entries {
            self.set_index(i, v);
        }
    }

    /// Visited entries as `(flat index, value)`, ascending.
    pub fn visited_entries(&self) -> impl Iterator<Item = (usize, f64)> + Clone + '_ {
        (0..self.values.len())
            .filter(|&i| self.visited[i])
            .map(|i| (i, self.values[i]))
    }

    /// Symmetric, in-place form of Algorithm 2's push–pull `UPDATE`:
    /// after the call both tables hold the identical union/average
    /// result, without materializing a merged copy. The average uses the
    /// exact expression of [`merge_average`](Self::merge_average), so
    /// `QTable::merge_symmetric(&mut a, &mut b)` is bit-for-bit equal to
    /// the clone-then-average formulation `a.merge_average(&b);
    /// b.clone_from(&a);`.
    pub fn merge_symmetric(a: &mut QTable, b: &mut QTable) {
        crate::kernel::merge_symmetric(
            &mut a.values,
            &mut a.visited,
            &mut a.n_visited,
            &mut b.values,
            &mut b.visited,
            &mut b.n_visited,
        );
    }

    /// Cosine similarity with `other` over the union of visited entries
    /// (unvisited = 0). Two empty tables are fully similar (1.0); an empty
    /// vs non-empty pair scores 0.
    pub fn cosine_similarity(&self, other: &QTable) -> f64 {
        let mut dot = 0.0;
        let mut na = 0.0;
        let mut nb = 0.0;
        for i in 0..self.values.len() {
            let a = if self.visited[i] { self.values[i] } else { 0.0 };
            let b = if other.visited[i] {
                other.values[i]
            } else {
                0.0
            };
            dot += a * b;
            na += a * a;
            nb += b * b;
        }
        crate::kernel::cosine(dot, na, nb)
    }

    /// Iterates over visited entries as `(state, action, value)`.
    pub fn iter_visited(&self) -> impl Iterator<Item = (PmState, VmAction, f64)> + '_ {
        self.visited_entries().map(|(i, v)| {
            (
                PmState::from_index(i / NUM_STATES),
                VmAction::from_index(i % NUM_STATES),
                v,
            )
        })
    }

    /// Flat read-only view of the value array (benchmarks, similarity
    /// computations over many tables).
    pub fn raw_values(&self) -> &[f64] {
        &self.values
    }

    /// Flat read-only view of the visited bitmap, parallel to
    /// [`raw_values`](Self::raw_values).
    pub fn raw_visited(&self) -> &[bool] {
        &self.visited
    }

    /// Directly sets the entry at flat index `i`
    /// (= `s.index() * NUM_STATES + a.index()`), marking it visited.
    /// Index-based twin of [`set`](Self::set) for codecs that address
    /// entries by wire offset.
    #[inline]
    pub fn set_index(&mut self, i: usize, value: f64) {
        if !self.visited[i] {
            self.visited[i] = true;
            self.n_visited += 1;
        }
        self.values[i] = value;
    }
}

/// A PM's learned knowledge: the φ_out/φ_in tables plus hyperparameters
/// and reward systems. This is the one construction path for trained
/// state — protocols and policies hold `QTablePair`s, never loose
/// `QTable`s.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QTablePair {
    /// Sender-mode values (which VM to move out).
    pub out: QTable,
    /// Recipient-mode values (accept/reject).
    pub r#in: QTable,
    /// Bellman hyperparameters.
    pub params: QParams,
    /// Reward system for sender mode.
    pub reward_out: RewardOut,
    /// Reward system for recipient mode.
    pub reward_in: RewardIn,
}

impl QTablePair {
    /// Fresh, untrained tables with the given hyperparameters.
    pub fn new(params: QParams) -> Self {
        QTablePair {
            out: QTable::new(),
            r#in: QTable::new(),
            params,
            reward_out: RewardOut::default(),
            reward_in: RewardIn::default(),
        }
    }

    /// One sender-mode training step: the PM in state `s` (from average
    /// demands) evicted a VM with action label `a` and ended in `s_next`
    /// (from current demands of the remaining VMs).
    ///
    /// Transitions into an overload state are terminal for bootstrapping —
    /// the consolidation episode stops there, so no future value is
    /// propagated through it.
    pub fn train_out(&mut self, s: PmState, a: VmAction, s_next: PmState) {
        let target = crate::kernel::target(
            self.reward_out.of_transition(s_next),
            self.params.gamma,
            s_next.is_overloaded(),
            || self.out.max_over_actions(s_next),
        );
        self.out.update_toward(s, a, target, self.params.alpha);
    }

    /// One recipient-mode training step: the PM in state `s` accepted a VM
    /// with action label `a` and ended in `s_next`.
    ///
    /// The continuation value is floored at zero: a recipient PM can
    /// always *reject* further VMs (the `π_in = −1` branch), so the value
    /// of the reached state is never worse than "stop accepting here".
    /// Without this floor the big negative overload reward would cascade
    /// backwards through `γ·max_a Q(s', a)` and poison every state —
    /// admission control would veto everything. Transitions that land in
    /// overload are terminal and keep their full `r_O ≪ 0` penalty, which
    /// is exactly the paper's "very likely ends in an overload state
    /// immediately or in the near future" signal (the near-future part
    /// enters through the average-demand state calibration).
    pub fn train_in(&mut self, s: PmState, a: VmAction, s_next: PmState) {
        let target = crate::kernel::target(
            self.reward_in.of_transition(s_next),
            self.params.gamma,
            s_next.is_overloaded(),
            || self.r#in.max_over_actions(s_next).max(0.0),
        );
        self.r#in.update_toward(s, a, target, self.params.alpha);
    }

    /// `π_out`: best available eviction action for sender state `s`.
    pub fn pi_out<I: IntoIterator<Item = VmAction>>(
        &self,
        s: PmState,
        available: I,
    ) -> Option<(VmAction, f64)> {
        self.out.best_action_among(s, available)
    }

    /// `π_in`: whether a recipient in state `s_q` should accept action `a`.
    /// Untrained pairs default to 0 → accepted, matching the `≥ 0` rule.
    pub fn pi_in(&self, s_q: PmState, a: VmAction) -> bool {
        self.r#in.get(s_q, a) >= 0.0
    }

    /// Algorithm 2's `UPDATE`: merge a peer's tables into ours (average on
    /// shared pairs, adopt missing pairs). `out` and `in` maps keep their
    /// identities (the paper's `φ^io = φ^in ∪ φ^out` is a tagged union).
    pub fn merge(&mut self, other: &QTablePair) {
        self.out.merge_average(&other.out);
        self.r#in.merge_average(&other.r#in);
    }

    /// Symmetric push–pull merge of two PMs' knowledge: both pairs end
    /// with the identical union/average tables, in place. Matches the
    /// old `a.merge(&b); b.clone_from(&a);` bit-for-bit — including the
    /// hyperparameter/reward copy that `clone_from` performed — while
    /// allocating nothing.
    pub fn merge_symmetric(a: &mut QTablePair, b: &mut QTablePair) {
        QTable::merge_symmetric(&mut a.out, &mut b.out);
        QTable::merge_symmetric(&mut a.r#in, &mut b.r#in);
        b.params = a.params;
        b.reward_out = a.reward_out;
        b.reward_in = a.reward_in;
    }

    /// Cosine similarity of the concatenated (out, in) value vectors —
    /// the convergence measure of Figure 5.
    pub fn cosine_similarity(&self, other: &QTablePair) -> f64 {
        // Concatenate by combining the two dot products and norms.
        let dot_norms = |x: &QTable, y: &QTable| {
            let mut dot = 0.0;
            let mut nx = 0.0;
            let mut ny = 0.0;
            let (xv, yv) = (x.raw_values(), y.raw_values());
            for i in 0..xv.len() {
                dot += xv[i] * yv[i];
                nx += xv[i] * xv[i];
                ny += yv[i] * yv[i];
            }
            (dot, nx, ny)
        };
        let (d1, a1, b1) = dot_norms(&self.out, &other.out);
        let (d2, a2, b2) = dot_norms(&self.r#in, &other.r#in);
        let (dot, na, nb) = (d1 + d2, a1 + a2, b1 + b2);
        crate::kernel::cosine(dot, na, nb)
    }

    /// Total number of trained (state, action) pairs in both tables.
    pub fn trained_pairs(&self) -> usize {
        self.out.visited_count() + self.r#in.visited_count()
    }
}

/// The two GLAP training updates, abstracted over storage — boxed
/// [`QTablePair`]s or [`QArena`](crate::QArena) slots — so the
/// learning loop is written once and monomorphizes to both. Sharing the
/// loop is what pins the RNG draw sequence and arithmetic expression
/// order across the storage back ends; byte-identity of the two training
/// paths follows by construction.
pub trait TrainTarget {
    /// Sender-mode update, exactly [`QTablePair::train_out`].
    fn train_out(&mut self, s: PmState, a: VmAction, s_next: PmState);
    /// Recipient-mode update, exactly [`QTablePair::train_in`].
    fn train_in(&mut self, s: PmState, a: VmAction, s_next: PmState);
}

impl TrainTarget for QTablePair {
    #[inline]
    fn train_out(&mut self, s: PmState, a: VmAction, s_next: PmState) {
        QTablePair::train_out(self, s, a, s_next)
    }

    #[inline]
    fn train_in(&mut self, s: PmState, a: VmAction, s_next: PmState) {
        QTablePair::train_in(self, s, a, s_next)
    }
}

impl EntryStore for QTable {
    fn entries(&self) -> impl Iterator<Item = (usize, f64)> + Clone + '_ {
        self.visited_entries()
    }

    fn row_entries(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + Clone + '_ {
        (row * NUM_STATES..(row + 1) * NUM_STATES)
            .filter(|&i| self.visited[i])
            .map(|i| (i, self.values[i]))
    }

    fn merge_entries(&mut self, entries: impl Iterator<Item = (usize, f64)> + Clone) {
        QTable::merge_entries(self, entries);
    }

    fn set_entries(&mut self, entries: impl Iterator<Item = (usize, f64)>) {
        for (i, v) in entries {
            self.set_index(i, v);
        }
    }

    fn assign_entries(&mut self, entries: impl Iterator<Item = (usize, f64)>) {
        QTable::assign_entries(self, entries);
    }

    fn to_sparse(&self) -> SparseTable {
        SparseTable::from_dense(self)
    }
}

impl PairStore for QTablePair {
    type Table = QTable;

    fn tables(&self) -> [&QTable; 2] {
        [&self.out, &self.r#in]
    }

    fn tables_mut(&mut self) -> [&mut QTable; 2] {
        [&mut self.out, &mut self.r#in]
    }

    fn set_params(&mut self, params: QParams, reward_out: RewardOut, reward_in: RewardIn) {
        self.params = params;
        self.reward_out = reward_out;
        self.reward_in = reward_in;
    }

    fn trained_pairs(&self) -> usize {
        QTablePair::trained_pairs(self)
    }

    fn merge_symmetric(a: &mut QTablePair, b: &mut QTablePair) {
        QTablePair::merge_symmetric(a, b)
    }

    fn cosine_similarity(&self, other: &QTablePair) -> f64 {
        QTablePair::cosine_similarity(self, other)
    }

    fn gather(&self, cols: &[u32], buf: &mut Vec<f64>) {
        let (out, r#in) = (self.out.raw_values(), self.r#in.raw_values());
        buf.extend(cols.iter().map(|&c| {
            let c = c as usize;
            if c < TABLE_LEN {
                out[c]
            } else {
                r#in[c - TABLE_LEN]
            }
        }));
    }

    fn export(&self) -> QTablePair {
        self.clone()
    }
}

impl Checkpointable for QTable {
    fn save(&self, w: &mut Writer) {
        w.put_f64_slice(&self.values);
        w.put_bool_slice(&self.visited);
    }

    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        DenseTableView::read(r)?.copy_into(self);
        Ok(())
    }
}

impl Checkpointable for QTablePair {
    fn save(&self, w: &mut Writer) {
        self.out.save(w);
        self.r#in.save(w);
        put_params(w, self.params, &self.reward_out, &self.reward_in);
    }

    /// All-or-nothing: the whole pair is validated before `self` changes.
    /// Restores the encoded values verbatim, an unvisited entry's
    /// included.
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let view = DensePairView::read(r)?;
        view.out.copy_into(&mut self.out);
        view.r#in.copy_into(&mut self.r#in);
        self.set_params(view.params, view.reward_out, view.reward_in);
        Ok(())
    }
}

/// The tail of the dense pair encoding: α, γ and the two `u64`-prefixed
/// reward vectors.
pub(crate) fn put_params(w: &mut Writer, params: QParams, out: &RewardOut, r#in: &RewardIn) {
    w.put_f64(params.alpha);
    w.put_f64(params.gamma);
    w.put_f64_slice(&out.values);
    w.put_f64_slice(&r#in.values);
}

/// One table's dense encoding — what [`QTable`]'s `save` writes: a
/// `u64`-prefixed run of 6561 value bit patterns, then one of 6561
/// visited bytes — from its visited `entries` alone: one zero-fill per
/// run, then the entries scattered in. An unvisited entry reads `+0.0`,
/// whose bits are all zero.
pub(crate) fn put_dense_entries(
    w: &mut Writer,
    entries: impl Iterator<Item = (usize, f64)> + Clone,
) {
    w.put_u64(TABLE_LEN as u64);
    let values = w.put_zeroed(8 * TABLE_LEN);
    for (i, v) in entries.clone() {
        values[8 * i..8 * i + 8].copy_from_slice(&v.to_bits().to_le_bytes());
    }
    w.put_u64(TABLE_LEN as u64);
    let visited = w.put_zeroed(TABLE_LEN);
    for (i, _) in entries {
        visited[i] = 1;
    }
}

impl QTablePair {
    /// Length of [`save`](Checkpointable::save)'s encoding of any pair:
    /// per table a `u64`-prefixed run of 6561 `f64` bit patterns and one
    /// of 6561 visited bytes, then α and γ, then the two `u64`-prefixed
    /// reward vectors. The contents never change it.
    pub const ENCODED_LEN: usize =
        2 * (8 + 8 * TABLE_LEN + 8 + TABLE_LEN) + 2 * 8 + 2 * (8 + 8 * NUM_LEVELS);
}

/// A validated, borrowed view of one [`QTablePair`]'s checkpoint encoding
/// — the one dense decoder, shared by checkpoints ([`QTablePair::restore`],
/// an [`ArenaSlot`](crate::ArenaSlot)'s restore) and the node wire's
/// table legs.
///
/// [`read`](Self::read) runs every check before anything is applied:
/// both tables hold exactly 6561 values and 6561 visited bytes, each
/// visited byte is 0 or 1, and both reward vectors hold exactly
/// `NUM_LEVELS` values. A view therefore applies whole or not at all:
/// [`merge_into`](Self::merge_into) folds the visited entries into a live
/// pair of either storage, [`restore_into`](Self::restore_into)
/// overwrites one in place. Both find the visited flags eight at a time
/// (one `u64` word), so a sparse table costs a scan of its flags, not a
/// per-entry walk; an unvisited entry's value is never read, so a
/// hand-crafted non-zero one is dropped here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensePairView<'a> {
    bytes: &'a [u8],
    out: DenseTableView<'a>,
    r#in: DenseTableView<'a>,
    params: QParams,
    reward_out: RewardOut,
    reward_in: RewardIn,
}

impl<'a> DensePairView<'a> {
    /// Reads one encoded pair from the front of `r`.
    pub fn read(r: &mut Reader<'a>) -> Result<Self, SnapshotError> {
        let bytes = r.get_raw(QTablePair::ENCODED_LEN)?;
        // The fixed lengths below sum to ENCODED_LEN, so a body whose
        // length fields all check out is consumed exactly.
        let body = &mut Reader::new(bytes);
        Ok(DensePairView {
            bytes,
            out: DenseTableView::read(body)?,
            r#in: DenseTableView::read(body)?,
            params: QParams {
                alpha: body.get_f64()?,
                gamma: body.get_f64()?,
            },
            reward_out: RewardOut {
                values: read_levels(body)?,
            },
            reward_in: RewardIn {
                values: read_levels(body)?,
            },
        })
    }

    /// Parses `bytes` as exactly one encoded pair: [`read`](Self::read)
    /// plus a trailing-bytes check.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes);
        let view = Self::read(&mut r)?;
        if !r.is_exhausted() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after q-table pair",
                r.remaining()
            )));
        }
        Ok(view)
    }

    /// The encoded pair this view reads.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Algorithm 2's merge of the encoded pair into `own`: exactly what
    /// [`QTablePair::merge_symmetric`]`(own, &mut decoded)` leaves in
    /// `own` — the same [`kernel::average`](crate::kernel::average) over
    /// the visited entries in the same ascending order, `own`'s
    /// parameters and rewards kept.
    pub fn merge_into<S: PairStore>(&self, own: &mut S) {
        let [out, r#in] = own.tables_mut();
        out.merge_entries(self.out.entries());
        r#in.merge_entries(self.r#in.entries());
    }

    /// Overwrites `own` with the encoded pair, reusing its buffers: the
    /// visited entries, parameters and rewards a freshly decoded pair
    /// holds.
    pub fn restore_into<S: PairStore>(&self, own: &mut S) {
        let [out, r#in] = own.tables_mut();
        out.assign_entries(self.out.entries());
        r#in.assign_entries(self.r#in.entries());
        own.set_params(self.params, self.reward_out, self.reward_in);
    }
}

/// One table of a [`DensePairView`]: 6561 little-endian `f64` bit
/// patterns and 6561 visited bytes, validated.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DenseTableView<'a> {
    values: &'a [u8],
    visited: &'a [u8],
}

/// Every bit of a flag word but each byte's lowest: set only by a flag
/// byte other than 0 or 1.
const NON_BOOL_BITS: u64 = 0xFEFE_FEFE_FEFE_FEFE;

/// Up to eight flag bytes as one little-endian word; missing bytes read 0.
#[inline]
fn flag_word(bytes: &[u8]) -> u64 {
    match bytes.first_chunk::<8>() {
        Some(word) => u64::from_le_bytes(*word),
        None => {
            let mut word = [0; 8];
            word[..bytes.len()].copy_from_slice(bytes);
            u64::from_le_bytes(word)
        }
    }
}

impl<'a> DenseTableView<'a> {
    fn read(r: &mut Reader<'a>) -> Result<Self, SnapshotError> {
        let values = read_run(r, TABLE_LEN, 8, "q-table values")?;
        let visited = read_run(r, TABLE_LEN, 1, "q-table visited flags")?;
        if visited
            .chunks(8)
            .any(|chunk| flag_word(chunk) & NON_BOOL_BITS != 0)
        {
            let b = visited.iter().find(|&&b| b > 1).expect("a non-bool byte");
            return Err(SnapshotError::Corrupt(format!("invalid bool byte {b}")));
        }
        Ok(DenseTableView { values, visited })
    }

    /// Visited entries as `(flat index, value)`, ascending.
    fn entries(&self) -> VisitedEntries<'a> {
        VisitedEntries {
            values: self.values,
            visited: self.visited,
            next: 0,
            base: 0,
            word: 0,
        }
    }

    fn copy_into(&self, t: &mut QTable) {
        for (v, bytes) in t.values.iter_mut().zip(self.values.chunks_exact(8)) {
            *v = le_f64(bytes);
        }
        for (v, &b) in t.visited.iter_mut().zip(self.visited) {
            *v = b == 1;
        }
        t.n_visited = self.visited.iter().filter(|&&b| b == 1).count();
    }
}

/// The visited entries of a validated [`DenseTableView`], ascending: each
/// flag byte is 0 or 1, so a word of eight flags has one set bit per
/// visited entry, and all-clear words are skipped whole.
#[derive(Debug, Clone)]
struct VisitedEntries<'a> {
    values: &'a [u8],
    visited: &'a [u8],
    /// Offset of the next flag word to load.
    next: usize,
    /// Flat index of `word`'s first flag.
    base: usize,
    /// The current flag word, visited entries already yielded cleared.
    word: u64,
}

impl Iterator for VisitedEntries<'_> {
    type Item = (usize, f64);

    #[inline]
    fn next(&mut self) -> Option<(usize, f64)> {
        while self.word == 0 {
            let chunk = self.visited.get(self.next..).filter(|c| !c.is_empty())?;
            self.base = self.next;
            self.word = flag_word(chunk);
            self.next += 8;
        }
        let i = self.base + self.word.trailing_zeros() as usize / 8;
        self.word &= self.word - 1;
        Some((i, le_f64(&self.values[8 * i..8 * i + 8])))
    }
}

fn le_f64(bytes: &[u8]) -> f64 {
    f64::from_le_bytes(bytes.try_into().expect("8-byte chunk"))
}

/// A `u64` length prefix that must equal `len`, then `len` elements of
/// `width` bytes, borrowed.
fn read_run<'a>(
    r: &mut Reader<'a>,
    len: usize,
    width: usize,
    what: &str,
) -> Result<&'a [u8], SnapshotError> {
    let n = r.get_u64()?;
    if n != len as u64 {
        return Err(SnapshotError::Corrupt(format!(
            "{what}: {n} entries, expected {len}"
        )));
    }
    r.get_raw(len * width)
}

fn read_levels(r: &mut Reader<'_>) -> Result<[f64; NUM_LEVELS], SnapshotError> {
    let run = read_run(r, NUM_LEVELS, 8, "reward vector")?;
    Ok(std::array::from_fn(|i| le_f64(&run[8 * i..8 * i + 8])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use glap_cluster::Resources;

    fn s(cpu: f64, mem: f64) -> PmState {
        PmState::from_utilization(Resources::new(cpu, mem))
    }

    fn a(cpu: f64, mem: f64) -> VmAction {
        VmAction::from_demand(Resources::new(cpu, mem))
    }

    #[test]
    fn new_table_is_unvisited_zero() {
        let t = QTable::new();
        assert_eq!(t.get(s(0.5, 0.5), a(0.1, 0.1)), 0.0);
        assert!(!t.is_visited(s(0.5, 0.5), a(0.1, 0.1)));
        assert_eq!(t.visited_count(), 0);
    }

    #[test]
    fn set_marks_visited_once() {
        let mut t = QTable::new();
        t.set(s(0.5, 0.5), a(0.1, 0.1), 7.0);
        t.set(s(0.5, 0.5), a(0.1, 0.1), 9.0);
        assert_eq!(t.visited_count(), 1);
        assert_eq!(t.get(s(0.5, 0.5), a(0.1, 0.1)), 9.0);
    }

    #[test]
    fn checkpoint_round_trips_pair_byte_identically() {
        let mut p = QTablePair::new(QParams::default());
        p.train_out(s(0.75, 0.75), a(0.3, 0.3), s(0.45, 0.45));
        p.train_in(s(0.45, 0.45), a(0.3, 0.3), s(0.75, 0.75));
        p.out.set(s(0.15, 0.15), a(0.1, 0.1), -0.0); // signed zero survives

        let mut w = Writer::new();
        p.save(&mut w);
        let bytes = w.into_bytes();

        let mut q = QTablePair::new(QParams {
            alpha: 0.9,
            gamma: 0.1,
        });
        q.restore(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(q.params, p.params);
        assert_eq!(q.out.visited_count(), p.out.visited_count());
        let mut w2 = Writer::new();
        q.save(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn qtable_restore_rejects_wrong_shape() {
        let mut w = Writer::new();
        w.put_f64_slice(&[1.0, 2.0]);
        w.put_bool_slice(&[true, false]);
        let bytes = w.into_bytes();
        let mut t = QTable::new();
        assert!(matches!(
            t.restore(&mut Reader::new(&bytes)).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn bellman_matches_formula() {
        let mut t = QTable::new();
        let params = QParams {
            alpha: 0.5,
            gamma: 0.8,
        };
        let s0 = s(0.75, 0.75);
        let s1 = s(0.45, 0.45);
        let act = a(0.3, 0.3);
        // Pre-seed the next state's row.
        t.set(s1, a(0.1, 0.1), 10.0);
        t.set(s0, act, 4.0);
        t.bellman_update(s0, act, s1, 100.0, params);
        // (1-0.5)*4 + 0.5*(100 + 0.8*10) = 2 + 54 = 56
        assert!((t.get(s0, act) - 56.0).abs() < 1e-12);
    }

    #[test]
    fn bellman_on_untrained_next_state_uses_zero_bootstrap() {
        let mut t = QTable::new();
        let params = QParams {
            alpha: 1.0,
            gamma: 0.9,
        };
        t.bellman_update(s(0.3, 0.3), a(0.1, 0.1), s(0.1, 0.1), 50.0, params);
        assert!((t.get(s(0.3, 0.3), a(0.1, 0.1)) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn max_over_actions_ignores_unvisited() {
        let mut t = QTable::new();
        let st = s(0.5, 0.5);
        assert_eq!(t.max_over_actions(st), 0.0);
        t.set(st, a(0.1, 0.1), -5.0);
        assert_eq!(t.max_over_actions(st), -5.0);
        t.set(st, a(0.3, 0.3), 2.0);
        assert_eq!(t.max_over_actions(st), 2.0);
    }

    #[test]
    fn best_action_among_respects_availability() {
        let mut t = QTable::new();
        let st = s(0.5, 0.5);
        let a1 = a(0.1, 0.1);
        let a2 = a(0.3, 0.3);
        let a3 = a(0.45, 0.45);
        t.set(st, a1, 10.0);
        t.set(st, a2, 20.0);
        t.set(st, a3, 30.0);
        // a3 not available → a2 wins.
        let best = t.best_action_among(st, [a1, a2]).unwrap();
        assert_eq!(best.0, a2);
        assert_eq!(best.1, 20.0);
        // No visited available → None.
        assert!(t.best_action_among(st, [a(0.85, 0.85)]).is_none());
    }

    #[test]
    fn merge_averages_shared_and_adopts_missing() {
        let mut p = QTable::new();
        let mut q = QTable::new();
        let st = s(0.5, 0.5);
        let shared = a(0.1, 0.1);
        let only_q = a(0.3, 0.3);
        let only_p = a(0.45, 0.45);
        p.set(st, shared, 10.0);
        q.set(st, shared, 20.0);
        q.set(st, only_q, 7.0);
        p.set(st, only_p, 3.0);
        p.merge_average(&q);
        assert_eq!(p.get(st, shared), 15.0);
        assert_eq!(p.get(st, only_q), 7.0);
        assert!(p.is_visited(st, only_q));
        assert_eq!(p.get(st, only_p), 3.0);
    }

    #[test]
    fn symmetric_merge_converges_to_common_average() {
        let mut p = QTable::new();
        let mut q = QTable::new();
        let st = s(0.5, 0.5);
        let act = a(0.1, 0.1);
        p.set(st, act, 0.0);
        q.set(st, act, 100.0);
        let p0 = p.clone();
        p.merge_average(&q);
        q.merge_average(&p0);
        assert_eq!(p.get(st, act), 50.0);
        assert_eq!(q.get(st, act), 50.0);
    }

    #[test]
    fn merge_symmetric_matches_clone_then_average_bitwise() {
        let mut p = QTable::new();
        let mut q = QTable::new();
        let st = s(0.5, 0.5);
        p.set(st, a(0.1, 0.1), 10.0 / 3.0);
        p.set(st, a(0.45, 0.45), -0.0);
        q.set(st, a(0.1, 0.1), 1.0 / 7.0);
        q.set(st, a(0.3, 0.3), 7.0);

        let (mut pr, mut qr) = (p.clone(), q.clone());
        p.merge_average(&q);
        q.clone_from(&p);
        QTable::merge_symmetric(&mut pr, &mut qr);
        assert_eq!(pr, p);
        assert_eq!(qr, q);
        assert_eq!(pr.visited_count(), 3);
        assert_eq!(qr.visited_count(), 3);
    }

    #[test]
    fn cosine_similarity_bounds_and_identity() {
        let mut p = QTable::new();
        let mut q = QTable::new();
        assert_eq!(p.cosine_similarity(&q), 1.0);
        p.set(s(0.5, 0.5), a(0.1, 0.1), 5.0);
        assert_eq!(p.cosine_similarity(&q), 0.0);
        q.set(s(0.5, 0.5), a(0.1, 0.1), 10.0);
        assert!((p.cosine_similarity(&q) - 1.0).abs() < 1e-12);
        q.set(s(0.3, 0.3), a(0.1, 0.1), -10.0);
        let c = p.cosine_similarity(&q);
        assert!(c > 0.0 && c < 1.0);
    }

    #[test]
    fn iter_visited_yields_only_trained_pairs() {
        let mut t = QTable::new();
        t.set(s(0.5, 0.5), a(0.1, 0.1), 1.0);
        t.set(s(0.75, 0.3), a(0.3, 0.45), 2.0);
        let got: Vec<_> = t.iter_visited().collect();
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|&(_, _, v)| v == 1.0 || v == 2.0));
    }
}

#[cfg(test)]
mod pair_tests {
    use super::*;
    use glap_cluster::Resources;

    fn s(cpu: f64, mem: f64) -> PmState {
        PmState::from_utilization(Resources::new(cpu, mem))
    }

    fn a(cpu: f64, mem: f64) -> VmAction {
        VmAction::from_demand(Resources::new(cpu, mem))
    }

    #[test]
    fn train_out_prefers_emptier_outcomes() {
        let mut q = QTablePair::new(QParams {
            alpha: 1.0,
            gamma: 0.0,
        });
        let st = s(0.75, 0.75);
        let evict_big = a(0.45, 0.45);
        let evict_small = a(0.1, 0.1);
        // Evicting the big VM lands in a light state, the small one in a
        // heavy state.
        q.train_out(st, evict_big, s(0.3, 0.3));
        q.train_out(st, evict_small, s(0.65, 0.65));
        assert!(q.out.get(st, evict_big) > q.out.get(st, evict_small));
        let (best, _) = q.pi_out(st, [evict_big, evict_small]).unwrap();
        assert_eq!(best, evict_big);
    }

    #[test]
    fn train_in_rejects_overloading_actions() {
        let mut q = QTablePair::new(QParams {
            alpha: 1.0,
            gamma: 0.0,
        });
        let st = s(0.85, 0.85);
        let small = a(0.1, 0.1);
        let big = a(0.45, 0.45);
        q.train_in(st, small, s(0.95, 0.95)); // fills up, fine
        q.train_in(st, big, s(1.0, 0.95)); // overloads → huge negative
        assert!(q.pi_in(st, small));
        assert!(!q.pi_in(st, big));
    }

    #[test]
    fn pi_in_default_accepts_untrained() {
        let q = QTablePair::new(QParams::default());
        assert!(q.pi_in(s(0.5, 0.5), a(0.3, 0.3)));
    }

    #[test]
    fn repeated_overload_training_stays_negative() {
        let mut q = QTablePair::new(QParams::default());
        let st = s(0.95, 0.95);
        let act = a(0.3, 0.3);
        for _ in 0..20 {
            q.train_in(st, act, s(1.0, 1.0));
        }
        assert!(q.r#in.get(st, act) < -100.0);
        assert!(!q.pi_in(st, act));
    }

    #[test]
    fn merge_unifies_knowledge() {
        let mut p = QTablePair::new(QParams::default());
        let mut q = QTablePair::new(QParams::default());
        p.train_out(s(0.5, 0.5), a(0.1, 0.1), s(0.3, 0.3));
        q.train_in(s(0.85, 0.85), a(0.45, 0.45), s(1.0, 1.0));
        let p0 = p.clone();
        p.merge(&q);
        q.merge(&p0);
        assert!((p.cosine_similarity(&q) - 1.0).abs() < 1e-12);
        assert!(!p.pi_in(s(0.85, 0.85), a(0.45, 0.45)));
    }

    #[test]
    fn pair_merge_symmetric_unifies_like_sequential_merge() {
        let mut p = QTablePair::new(QParams::default());
        let mut q = QTablePair::new(QParams {
            alpha: 0.9,
            gamma: 0.1,
        });
        p.train_out(s(0.5, 0.5), a(0.1, 0.1), s(0.3, 0.3));
        q.train_in(s(0.85, 0.85), a(0.45, 0.45), s(1.0, 1.0));

        let (mut pr, mut qr) = (p.clone(), q.clone());
        p.merge(&q);
        q.clone_from(&p);
        QTablePair::merge_symmetric(&mut pr, &mut qr);
        assert_eq!(pr, p);
        assert_eq!(qr, q);
        assert_eq!(qr.params, pr.params);
    }

    #[test]
    fn similarity_of_fresh_tables_is_one() {
        let p = QTablePair::new(QParams::default());
        let q = QTablePair::new(QParams::default());
        assert_eq!(p.cosine_similarity(&q), 1.0);
    }

    #[test]
    fn trained_pairs_counts_both_tables() {
        let mut p = QTablePair::new(QParams::default());
        p.train_out(s(0.5, 0.5), a(0.1, 0.1), s(0.3, 0.3));
        p.train_in(s(0.5, 0.5), a(0.1, 0.1), s(0.65, 0.65));
        assert_eq!(p.trained_pairs(), 2);
    }
}

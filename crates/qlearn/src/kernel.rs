//! Shared table kernels: the *one* implementation of every hot Q-table
//! expression, used both by the boxed dense [`QTable`](crate::QTable)
//! and by the entry-sparse [`QArena`](crate::QArena) slots.
//!
//! Byte-identity between the two storages rests on this sharing: the
//! Bellman blend and target, the merge average and the cosine tail are
//! single functions, the bootstrap maximum is the same strict-`>` scan,
//! and each storage walks its visited entries in the same ascending
//! flat-index order, so the two cannot drift in floating-point
//! expression order.

use crate::state::NUM_STATES;

/// Entries in one dense table (81 × 81).
pub const TABLE_LEN: usize = NUM_STATES * NUM_STATES;

/// The Bellman blend `(1−α)·old + α·target` of Eq. (1). A first visit
/// passes `old = 0.0`, so `-0.0` targets round the same way whether the
/// zero was stored or implied.
#[inline]
pub fn blend(old: f64, target: f64, alpha: f64) -> f64 {
    (1.0 - alpha) * old + alpha * target
}

/// The bootstrap term `max_a Q(s, a)` over one row's *visited* values in
/// ascending action order: the first-encountered maximum under strict
/// `>` (so which of a `±0.0` tie wins depends on position, and both
/// storages must scan in the same order), `0.0` for an untrained row.
#[inline]
pub fn max_visited(row: impl Iterator<Item = f64>) -> f64 {
    let mut best = f64::NEG_INFINITY;
    let mut any = false;
    for v in row {
        any = true;
        if v > best {
            best = v;
        }
    }
    if any {
        best
    } else {
        0.0
    }
}

/// The Bellman target `R + γ·future` of one GLAP training step.
/// Transitions into an overload state are terminal — the consolidation
/// episode stops there, so no future value is propagated through them
/// and `bootstrap` is not evaluated.
#[inline]
pub fn target(reward: f64, gamma: f64, terminal: bool, bootstrap: impl FnOnce() -> f64) -> f64 {
    let future = if terminal { 0.0 } else { bootstrap() };
    reward + gamma * future
}

/// Algorithm 2's value for a pair present on both sides of a merge.
///
/// For finite `a ≤ b` the result lies in `[a, b]`, which is what keeps
/// every merge inside its pair's hull (Theorem 1). Rounding is
/// monotone, and `2a` and `2b` are representable, so the rounded sum
/// stays in `[2a, 2b]`; halving it is monotone too and `a`, `b` are
/// representable, so the result stays in `[a, b]` (subnormals and
/// `±0.0` included: `-0.0` and `0.0` average to `0.0`, equal to both).
/// The one exception is a sum that overflows to `±∞`, which needs
/// inputs near `f64::MAX`; Q-values are bounded by `r_max / (1 − γ)`
/// and never get there.
#[inline]
pub fn average(a: f64, b: f64) -> f64 {
    (a + b) / 2.0
}

/// Cosine similarity from its three running sums: two all-zero vectors
/// are fully similar (1.0), an all-zero vs a non-zero one scores 0.
#[inline]
pub fn cosine(dot: f64, na: f64, nb: f64) -> f64 {
    if na == 0.0 && nb == 0.0 {
        1.0
    } else if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

/// Dense EMA update `Q(s,a) ← (1−α)·Q(s,a) + α·target`, marking the
/// entry visited.
#[inline]
pub fn update_toward(
    values: &mut [f64],
    visited: &mut [bool],
    n_visited: &mut usize,
    i: usize,
    target: f64,
    alpha: f64,
) {
    values[i] = blend(values[i], target, alpha);
    if !visited[i] {
        visited[i] = true;
        *n_visited += 1;
    }
}

/// Dense bootstrap term of row `s`: [`max_visited`] over the row's
/// visited entries, written as the indexed loop — fed through an
/// iterator adaptor it cost the node fleets (which train dense tables)
/// 3–5% of `wall_s`.
#[inline]
pub fn max_over_actions(values: &[f64], visited: &[bool], s: usize) -> f64 {
    let base = s * NUM_STATES;
    let mut best = f64::NEG_INFINITY;
    let mut any = false;
    for i in base..base + NUM_STATES {
        if visited[i] {
            any = true;
            if values[i] > best {
                best = values[i];
            }
        }
    }
    if any {
        best
    } else {
        0.0
    }
}

/// Dense symmetric merge of two whole tables (Algorithm 2's `UPDATE`,
/// both directions at once): average where both visited, adopt where one
/// is.
#[inline]
pub fn merge_symmetric(
    a_values: &mut [f64],
    a_visited: &mut [bool],
    a_n_visited: &mut usize,
    b_values: &mut [f64],
    b_visited: &mut [bool],
    b_n_visited: &mut usize,
) {
    for i in 0..a_values.len() {
        match (a_visited[i], b_visited[i]) {
            (true, true) => {
                let m = average(a_values[i], b_values[i]);
                a_values[i] = m;
                b_values[i] = m;
            }
            (false, true) => {
                a_values[i] = b_values[i];
                a_visited[i] = true;
                *a_n_visited += 1;
            }
            (true, false) => {
                b_values[i] = a_values[i];
                b_visited[i] = true;
                *b_n_visited += 1;
            }
            (false, false) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `-0.0` earlier in the row than a `+0.0` wins the strict-`>`
    /// scan: the result's bits depend on scan order, which is why both
    /// storages feed [`max_visited`] in ascending action order.
    #[test]
    fn signed_zero_ties_resolve_by_position() {
        assert_eq!(
            max_visited([-0.0, 0.0].into_iter()).to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(
            max_visited([0.0, -0.0].into_iter()).to_bits(),
            0.0f64.to_bits()
        );
        assert_eq!(max_visited(std::iter::empty()), 0.0);
        assert_eq!(max_visited([-5.0].into_iter()), -5.0);
    }
}

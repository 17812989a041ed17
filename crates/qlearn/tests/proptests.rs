//! Property-based tests of the Q-learning substrate: calibration
//! totality, index bijectivity, merge algebra and update boundedness.

use glap_cluster::Resources;
use glap_qlearn::{Level, PmState, QParams, QTable, QTablePair, VmAction, NUM_STATES};
use proptest::prelude::*;

fn arb_state() -> impl Strategy<Value = PmState> {
    (0..NUM_STATES).prop_map(PmState::from_index)
}

fn arb_action() -> impl Strategy<Value = VmAction> {
    (0..NUM_STATES).prop_map(VmAction::from_index)
}

/// Finite `f64`s from every regime the merge average can meet: signed
/// zeros, subnormals, Q-value magnitudes, magnitudes near `f64::MAX`
/// and arbitrary bit patterns (a non-finite pattern becomes `±MAX`).
fn arb_finite() -> impl Strategy<Value = f64> {
    const MANTISSA: u64 = 1 << 52;
    let signed = |(neg, x): (bool, f64)| if neg { -x } else { x };
    prop_oneof![
        prop_oneof![Just(0.0), Just(-0.0)],
        (any::<bool>(), (1..MANTISSA).prop_map(f64::from_bits)).prop_map(signed),
        -1.0e4f64..1.0e4,
        (any::<bool>(), (0x7FD..=0x7FEu64, 0..MANTISSA))
            .prop_map(|(neg, (exp, m))| (neg, f64::from_bits(exp << 52 | m)))
            .prop_map(signed),
        any::<u64>().prop_map(|bits| {
            let x = f64::from_bits(bits);
            if x.is_finite() {
                x
            } else {
                f64::MAX.copysign(x)
            }
        }),
    ]
}

proptest! {
    /// Calibration is total and monotone: higher utilization never maps
    /// to a lighter level.
    #[test]
    fn calibration_is_monotone(a in 0.0f64..=1.5, b in 0.0f64..=1.5) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(Level::from_utilization(lo) <= Level::from_utilization(hi));
    }

    /// Every utilization pair maps to a state whose index round-trips.
    #[test]
    fn state_index_bijection(cpu in 0.0f64..=1.2, mem in 0.0f64..=1.2) {
        let s = PmState::from_utilization(Resources::new(cpu, mem));
        prop_assert!(s.index() < NUM_STATES);
        prop_assert_eq!(PmState::from_index(s.index()), s);
    }

    /// The Bellman update with bounded rewards keeps Q-values bounded by
    /// `max(|R|) / (1 − γ)` — no runaway values.
    #[test]
    fn bellman_values_are_bounded(
        updates in proptest::collection::vec(
            (0..NUM_STATES, 0..NUM_STATES, 0..NUM_STATES, -100.0f64..100.0),
            1..300,
        ),
    ) {
        let params = QParams { alpha: 0.5, gamma: 0.8 };
        let mut t = QTable::new();
        let bound = 100.0 / (1.0 - params.gamma) + 1e-9;
        for (s, a, s_next, r) in updates {
            t.bellman_update(
                PmState::from_index(s),
                VmAction::from_index(a),
                PmState::from_index(s_next),
                r,
                params,
            );
        }
        for (_, _, v) in t.iter_visited() {
            prop_assert!(v.abs() <= bound, "value {v} exceeds bound {bound}");
        }
    }

    /// Merge is commutative on the resulting value set: A·merge(B) equals
    /// B·merge(A) entry-wise.
    #[test]
    fn merge_is_commutative(
        a_entries in proptest::collection::vec((0..NUM_STATES, 0..NUM_STATES, -50.0f64..50.0), 0..40),
        b_entries in proptest::collection::vec((0..NUM_STATES, 0..NUM_STATES, -50.0f64..50.0), 0..40),
    ) {
        let build = |entries: &[(usize, usize, f64)]| {
            let mut t = QTable::new();
            for &(s, a, v) in entries {
                t.set(PmState::from_index(s), VmAction::from_index(a), v);
            }
            t
        };
        let a = build(&a_entries);
        let b = build(&b_entries);
        let mut ab = a.clone();
        ab.merge_average(&b);
        let mut ba = b.clone();
        ba.merge_average(&a);
        prop_assert_eq!(ab.raw_values(), ba.raw_values());
        prop_assert_eq!(ab.visited_count(), ba.visited_count());
    }

    /// Merge is idempotent: merging a table with itself changes nothing.
    #[test]
    fn merge_is_idempotent(
        entries in proptest::collection::vec((0..NUM_STATES, 0..NUM_STATES, -50.0f64..50.0), 0..40),
    ) {
        let mut t = QTable::new();
        for (s, a, v) in entries {
            t.set(PmState::from_index(s), VmAction::from_index(a), v);
        }
        let orig = t.clone();
        t.merge_average(&orig);
        prop_assert_eq!(t, orig);
    }

    /// Cosine similarity is symmetric and within [−1, 1].
    #[test]
    fn similarity_is_symmetric_and_bounded(
        a_entries in proptest::collection::vec((0..NUM_STATES, 0..NUM_STATES, -50.0f64..50.0), 0..30),
        b_entries in proptest::collection::vec((0..NUM_STATES, 0..NUM_STATES, -50.0f64..50.0), 0..30),
    ) {
        let build = |entries: &[(usize, usize, f64)]| {
            let mut t = QTable::new();
            for &(s, a, v) in entries {
                t.set(PmState::from_index(s), VmAction::from_index(a), v);
            }
            t
        };
        let a = build(&a_entries);
        let b = build(&b_entries);
        let ab = a.cosine_similarity(&b);
        let ba = b.cosine_similarity(&a);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&ab));
        prop_assert!((a.cosine_similarity(&a) - 1.0).abs() < 1e-12 || a.visited_count() == 0);
    }

    /// π_out always returns an action from the offered set, and never an
    /// unvisited one.
    #[test]
    fn pi_out_respects_availability(
        entries in proptest::collection::vec((0..NUM_STATES, 0..NUM_STATES, -50.0f64..50.0), 1..40),
        state in arb_state(),
        offered in proptest::collection::vec(arb_action(), 1..10),
    ) {
        let mut q = QTablePair::new(QParams::default());
        for (s, a, v) in entries {
            q.out.set(PmState::from_index(s), VmAction::from_index(a), v);
        }
        match q.pi_out(state, offered.iter().copied()) {
            Some((a, v)) => {
                prop_assert!(offered.contains(&a));
                prop_assert!(q.out.is_visited(state, a));
                prop_assert_eq!(v, q.out.get(state, a));
                // It is the arg max among offered visited actions.
                for &o in &offered {
                    if q.out.is_visited(state, o) {
                        prop_assert!(q.out.get(state, o) <= v);
                    }
                }
            }
            None => {
                for &o in &offered {
                    prop_assert!(!q.out.is_visited(state, o));
                }
            }
        }
    }

    /// Training `in` with only safe (non-overload) outcomes never vetoes;
    /// training with only overload outcomes always vetoes.
    #[test]
    fn veto_sign_tracks_outcomes(
        state in arb_state(),
        action in arb_action(),
        n in 1usize..30,
    ) {
        let safe_next = PmState::from_utilization(Resources::new(0.5, 0.5));
        let over_next = PmState::from_utilization(Resources::new(1.0, 0.5));
        let mut safe = QTablePair::new(QParams::default());
        let mut over = QTablePair::new(QParams::default());
        for _ in 0..n {
            safe.train_in(state, action, safe_next);
            over.train_in(state, action, over_next);
        }
        prop_assert!(safe.pi_in(state, action));
        prop_assert!(!over.pi_in(state, action));
    }

    /// The merge average of two finite values stays inside their hull
    /// unless their sum overflows, which takes a value beyond
    /// `f64::MAX / 2` — far above any Q-value. A third of the cases
    /// average `a` with itself and a third with its neighbour, where
    /// the hull is one or two values wide.
    #[test]
    fn average_stays_in_the_hull(a in arb_finite(), b in arb_finite(), width in 0..3u8) {
        let b = match width {
            0 => a,
            1 if a.abs() < f64::MAX => f64::from_bits(a.to_bits() + 1),
            _ => b,
        };
        let m = glap_qlearn::kernel::average(a, b);
        if (a + b).is_finite() {
            prop_assert!(
                a.min(b) <= m && m <= a.max(b),
                "average({a:e}, {b:e}) = {m:e}"
            );
        } else {
            prop_assert!(a.abs().max(b.abs()) > f64::MAX / 2.0, "{a:e} + {b:e}");
        }
    }
}

#[test]
fn average_edge_cases() {
    use glap_qlearn::kernel::average;
    assert_eq!(average(-0.0, 0.0).to_bits(), 0.0f64.to_bits());
    assert_eq!(average(-0.0, -0.0).to_bits(), (-0.0f64).to_bits());
    let tiny = f64::from_bits(1);
    // Halving the smallest subnormal rounds to even (zero): still in the hull.
    assert_eq!(average(tiny, 0.0), 0.0);
    assert_eq!(average(tiny, tiny), tiny);
    assert_eq!(average(f64::MAX, -f64::MAX), 0.0);
    assert_eq!(
        average(f64::MAX, f64::MAX),
        f64::INFINITY,
        "the one exception"
    );
}

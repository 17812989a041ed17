//! The dense pair decoder shared by checkpoints and the node wire
//! (`DensePairView`): merging from and restoring from the encoded bytes
//! must land bitwise where the decoded pair did.
//!
//! The reference is the exchange as it ran on decoded pairs: the
//! responder `merge_symmetric`s its own pair with the decoded push and
//! replies with the decoded pair after the merge; the initiator replaces
//! its pair with the decoded reply. Decoding is exact (`save` bytes
//! round-trip), so "the decoded pair" is the encoded pair's clone.

use glap_qlearn::{ArenaSlot, DensePairView, PairStore, QParams, QTablePair, TABLE_LEN};
use glap_snapshot::{Checkpointable, Reader, Writer};
use proptest::prelude::*;

fn pair_bytes(p: &QTablePair) -> Vec<u8> {
    let mut w = Writer::new();
    p.save(&mut w);
    w.into_bytes()
}

/// Which side(s) of an exchange hold one pooled entry.
#[derive(Debug, Clone, Copy)]
enum Side {
    A,
    B,
    Both,
}

/// Values that stress bitwise equality: both zeros, subnormal-adjacent
/// and ordinary magnitudes.
fn arb_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(f64::MIN_POSITIVE),
        Just(-1.0 / 3.0),
        -5.0f64..5.0,
    ]
}

/// One pooled entry: a flat index (tables φ_out or φ_in), its holders,
/// and the value each side holds.
fn arb_entry() -> impl Strategy<Value = (usize, bool, Side, f64, f64)> {
    (
        0..TABLE_LEN,
        any::<bool>(),
        prop_oneof![Just(Side::A), Just(Side::B), Just(Side::Both)],
        arb_value(),
        arb_value(),
    )
}

/// Two pairs over a shared entry pool — one-sided and shared entries in
/// both tables — with different parameters and rewards.
fn arb_pairs() -> impl Strategy<Value = (QTablePair, QTablePair)> {
    (
        proptest::collection::vec(arb_entry(), 0..120),
        0.05f64..1.0,
        0.0f64..0.99,
        arb_value(),
    )
        .prop_map(|(entries, alpha, gamma, reward)| {
            let mut a = QTablePair::default();
            let mut b = QTablePair::new(QParams { alpha, gamma });
            b.reward_out.values[3] = reward;
            b.reward_in.values[8] = -reward;
            for (i, in_table, side, va, vb) in entries {
                for (p, v, holds) in [
                    (&mut a, va, matches!(side, Side::A | Side::Both)),
                    (&mut b, vb, matches!(side, Side::B | Side::Both)),
                ] {
                    if holds {
                        let t = if in_table { &mut p.r#in } else { &mut p.out };
                        t.set_index(i, v);
                    }
                }
            }
            (a, b)
        })
}

/// Responder `own` merges `incoming`'s bytes; `own` afterwards — which
/// the reply is encoded from — must equal both sides of the decoded
/// reference.
fn check_merge(own: &QTablePair, incoming: &QTablePair) -> Result<(), TestCaseError> {
    let (mut own_ref, mut incoming_ref) = (own.clone(), incoming.clone());
    QTablePair::merge_symmetric(&mut own_ref, &mut incoming_ref);

    let push = pair_bytes(incoming);
    let mut merged = own.clone();
    DensePairView::parse(&push).unwrap().merge_into(&mut merged);
    prop_assert_eq!(pair_bytes(&merged), pair_bytes(&own_ref));
    prop_assert_eq!(merged.trained_pairs(), own_ref.trained_pairs());
    // The reply is encoded from the merged `own`: the decoded reference
    // replied with `incoming` after the merge.
    prop_assert_eq!(pair_bytes(&merged), pair_bytes(&incoming_ref));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Merge-from-bytes plus reply encode equals decode → merge_symmetric
    /// → encode of `incoming`, bitwise, in both role orders.
    #[test]
    fn merge_from_bytes_matches_decoded_merge(pairs in arb_pairs()) {
        let (a, b) = pairs;
        check_merge(&a, &b)?;
        check_merge(&b, &a)?;
    }

    /// In-place adoption equals replacing the pair with the decoded one:
    /// same `save` bytes and visited counts, whatever the target held.
    #[test]
    fn restore_in_place_matches_adopting_the_decoded_pair(pairs in arb_pairs()) {
        let (a, b) = pairs;
        for (target, source) in [(&a, &b), (&b, &a)] {
            let bytes = pair_bytes(source);
            let mut adopted = target.clone();
            DensePairView::parse(&bytes).unwrap().restore_into(&mut adopted);
            prop_assert_eq!(pair_bytes(&adopted), bytes.clone());
            prop_assert_eq!(adopted.out.visited_count(), source.out.visited_count());
            prop_assert_eq!(adopted.r#in.visited_count(), source.r#in.visited_count());
            prop_assert_eq!(adopted.params, source.params);

            // The checkpoint path runs the same decoder.
            let mut restored = target.clone();
            let mut r = Reader::new(&bytes);
            restored.restore(&mut r).unwrap();
            prop_assert!(r.is_exhausted());
            prop_assert_eq!(pair_bytes(&restored), bytes);
        }
    }
}

#[test]
fn encoded_length_is_the_constant() {
    let mut p = QTablePair::default();
    assert_eq!(pair_bytes(&p).len(), QTablePair::ENCODED_LEN);
    p.out.set_index(1, 2.0);
    assert_eq!(pair_bytes(&p).len(), QTablePair::ENCODED_LEN);
    let bytes = pair_bytes(&p);
    assert_eq!(DensePairView::parse(&bytes).unwrap().as_bytes(), &bytes[..]);
}

/// The one case where the byte path and the decoded exchange differ: a
/// hand-crafted push carrying a value under a cleared visited flag. The
/// decoded reply echoed that value back; the reply encoded from `own`
/// carries `own`'s `+0.0`. Honest encoders never write such a push.
#[test]
fn unvisited_nonzero_values_are_not_echoed() {
    let mut crafted = pair_bytes(&QTablePair::default());
    // φ_out value 5 (behind the u64 length), visited flag left clear.
    crafted[8 + 5 * 8..8 + 6 * 8].copy_from_slice(&7.0f64.to_le_bytes());
    let own = QTablePair::default();

    let mut merged = own.clone();
    DensePairView::parse(&crafted)
        .unwrap()
        .merge_into(&mut merged);
    assert_eq!(pair_bytes(&merged), pair_bytes(&own));

    let mut decoded = QTablePair::default();
    decoded.restore(&mut Reader::new(&crafted)).unwrap();
    let mut own_ref = own.clone();
    QTablePair::merge_symmetric(&mut own_ref, &mut decoded);
    assert_eq!(pair_bytes(&decoded), crafted);
    assert_ne!(pair_bytes(&merged), crafted);
}

fn slot_bytes(slot: &ArenaSlot) -> Vec<u8> {
    let mut w = Writer::new();
    slot.save(&mut w);
    w.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The node boundary on sparse slots: a slot's dense writer is
    /// `QTablePair::save` of its export, byte for byte, and merging or
    /// restoring a view into a slot lands where doing it to the dense
    /// pair and converting with `ArenaSlot::from` does.
    #[test]
    fn slot_boundary_matches_the_dense_pair(pairs in arb_pairs()) {
        let (a, b) = pairs;
        for (own, incoming) in [(&a, &b), (&b, &a)] {
            let slot = ArenaSlot::from(own);
            prop_assert_eq!(slot_bytes(&slot), pair_bytes(&slot.export()));
            prop_assert_eq!(slot_bytes(&slot), pair_bytes(own));

            let push = pair_bytes(incoming);
            let view = DensePairView::parse(&push).unwrap();
            let (mut dense, mut sparse) = (own.clone(), slot.clone());
            view.merge_into(&mut dense);
            view.merge_into(&mut sparse);
            prop_assert_eq!(slot_bytes(&sparse), slot_bytes(&ArenaSlot::from(&dense)));
            prop_assert_eq!(sparse.trained_pairs(), dense.trained_pairs());

            let (mut dense, mut sparse) = (own.clone(), slot.clone());
            view.restore_into(&mut dense);
            view.restore_into(&mut sparse);
            prop_assert_eq!(slot_bytes(&sparse), slot_bytes(&ArenaSlot::from(&dense)));
            prop_assert_eq!(slot_bytes(&sparse), push.clone());

            // A slot's checkpoint restore runs the same decoder.
            let mut restored = ArenaSlot::default();
            let mut r = Reader::new(&push);
            restored.restore(&mut r).unwrap();
            prop_assert!(r.is_exhausted());
            prop_assert_eq!(slot_bytes(&restored), push);
        }
    }
}

/// A flag byte other than 0 or 1 anywhere in either table — the first,
/// mid-word or the odd last byte — is rejected by the word-at-a-time
/// check with the byte-at-a-time error.
#[test]
fn invalid_flag_bytes_are_found_in_every_word_position() {
    let clean = pair_bytes(&QTablePair::default());
    let table_len = 8 + 8 * TABLE_LEN + 8 + TABLE_LEN;
    for table in 0..2 {
        for flag in [0, 5, 7, 8, 4095, TABLE_LEN - 1] {
            let mut bad = clean.clone();
            bad[table * table_len + 8 + 8 * TABLE_LEN + 8 + flag] = 0x80;
            let err = DensePairView::parse(&bad).unwrap_err();
            assert_eq!(
                err,
                glap_snapshot::SnapshotError::Corrupt("invalid bool byte 128".into())
            );
        }
    }
}

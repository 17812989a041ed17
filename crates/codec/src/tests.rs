//! Unit and property tests for the codec crate.
//!
//! The reference semantics every codec is measured against is the legacy
//! dense push–pull: the responder merges symmetrically, the initiator
//! adopts the merged pair wholesale.

use crate::sparse::SparsePair;
use crate::*;
use glap_qlearn::{
    ArenaSlot, DensePairView, EntryStore, PairStore, QTable, QTablePair, NUM_LEVELS, NUM_STATES,
};
use glap_snapshot::{Checkpointable, Reader, Writer};
use proptest::prelude::*;

const ENTRIES: usize = NUM_STATES * NUM_STATES;

fn build_table(entries: &[(usize, f64)]) -> QTable {
    let mut t = QTable::new();
    for &(i, v) in entries {
        t.set_index(i % ENTRIES, v);
    }
    t
}

fn build_pair(out: &[(usize, f64)], r#in: &[(usize, f64)]) -> QTablePair {
    QTablePair {
        out: build_table(out),
        r#in: build_table(r#in),
        ..QTablePair::default()
    }
}

fn pair_bytes(p: &impl Checkpointable) -> Vec<u8> {
    let mut w = Writer::new();
    p.save(&mut w);
    w.into_bytes()
}

/// The legacy exchange: B merges symmetrically, A adopts the merged pair.
fn legacy_exchange(a: &mut QTablePair, b: &mut QTablePair) {
    let mut incoming = a.clone();
    QTablePair::merge_symmetric(b, &mut incoming);
    *a = incoming;
}

/// One full codec-mediated exchange A→B; returns (push, reply) bodies.
fn codec_exchange<S: PairStore>(
    ca: &mut AnyCodec,
    cb: &mut AnyCodec,
    a: &mut S,
    b: &mut S,
) -> (Vec<u8>, Vec<u8>) {
    let push = ca.encode_push(1, a);
    let reply = cb.apply_push(0, b, &push).expect("apply_push");
    ca.apply_reply(1, a, &reply).expect("apply_reply");
    (push, reply)
}

fn entry_strategy() -> impl Strategy<Value = Vec<(usize, f64)>> {
    proptest::collection::vec((0usize..ENTRIES, -5.0f64..5.0), 0..150)
}

#[test]
fn header_round_trips_and_rejects_garbage() {
    let mut w = Writer::new();
    CodedHeader::write(CodecKind::Delta, subtag::STALE_FULL, &mut w);
    let body = w.into_bytes();
    assert_eq!(body.len(), CodedHeader::LEN);
    let h = CodedHeader::peek(&body).unwrap();
    assert_eq!(h.kind, CodecKind::Delta);
    assert_eq!(h.subtag, subtag::STALE_FULL);

    let mut bad = body.clone();
    bad[0] = 99; // version
    assert!(CodedHeader::peek(&bad).is_err());
    let mut bad = body.clone();
    bad[1] = 7; // kind
    assert!(CodedHeader::peek(&bad).is_err());
    let mut bad = body.clone();
    bad[2] = 3; // subtag
    assert!(CodedHeader::peek(&bad).is_err());
    let mut bad = body.clone();
    bad[10] = 0x3f; // error-bound slot: lossless bodies hold 0.0
    assert!(CodedHeader::peek(&bad).is_err());
    assert!(CodedHeader::peek(&body[..4]).is_err()); // truncated
}

#[test]
fn codec_kind_labels_round_trip() {
    for kind in ALL_CODEC_KINDS {
        assert_eq!(kind.label().parse::<CodecKind>().unwrap(), kind);
        assert_eq!(CodecKind::from_u8(kind.as_u8()), Some(kind));
    }
    assert!("zstd".parse::<CodecKind>().is_err());
}

#[test]
fn identity_payload_len_is_dense_and_constant() {
    let len = identity_payload_len();
    // Dense pair: 2 tables × (6561 f64 + 6561 bool bitmap) dominate.
    assert!(len > 2 * ENTRIES * 8);
    assert_eq!(len, identity_payload_len());
    // The figure the crate docs quote.
    assert_eq!(len, 118_307);
}

#[test]
fn delta_first_contact_then_delta_then_fallback() {
    let mut a = build_pair(&[(0, 1.0), (100, -2.0)], &[(7, 0.5)]);
    let mut b = build_pair(&[(0, 3.0)], &[(9, 1.5)]);
    let mut ca = AnyCodec::new(CodecKind::Delta);
    let mut cb = AnyCodec::new(CodecKind::Delta);

    let (push, _) = codec_exchange(&mut ca, &mut cb, &mut a, &mut b);
    assert_eq!(CodedHeader::peek(&push).unwrap().subtag, subtag::FULL);
    assert_eq!(pair_bytes(&a), pair_bytes(&b));

    a.out.set_index(200, 4.0);
    let (push, _) = codec_exchange(&mut ca, &mut cb, &mut a, &mut b);
    assert_eq!(CodedHeader::peek(&push).unwrap().subtag, subtag::DELTA);
    assert_eq!(pair_bytes(&a), pair_bytes(&b));
    // A tiny change costs a tiny payload.
    assert!(push.len() < identity_payload_len() / 100);

    // B loses its codec state: the next delta push must fall back.
    let mut cb = AnyCodec::new(CodecKind::Delta);
    a.out.set_index(300, 5.0);
    let before_b = b.clone();
    let (push, reply) = codec_exchange(&mut ca, &mut cb, &mut a, &mut b);
    assert_eq!(CodedHeader::peek(&push).unwrap().subtag, subtag::DELTA);
    assert_eq!(
        CodedHeader::peek(&reply).unwrap().subtag,
        subtag::STALE_FULL
    );
    // The responder did not merge the stale push...
    assert_eq!(pair_bytes(&b), pair_bytes(&before_b));
    // ...and the next exchange resynchronizes losslessly.
    let (push, _) = codec_exchange(&mut ca, &mut cb, &mut a, &mut b);
    assert_eq!(CodedHeader::peek(&push).unwrap().subtag, subtag::FULL);
    assert_eq!(pair_bytes(&a), pair_bytes(&b));
}

#[test]
fn delta_reply_overwrites_interleaved_merges_like_legacy() {
    // A pushes to B; before the reply lands, C's exchange merges into A.
    // Legacy semantics: the reply overwrites A with the A–B merge,
    // discarding the C merge. The delta codec must reproduce that exactly.
    let mut a = build_pair(&[(1, 1.0), (2, 2.0)], &[]);
    let mut b = build_pair(&[(2, 4.0), (3, 3.0)], &[]);
    let mut c = build_pair(&[(4, -1.0)], &[(5, 2.5)]);

    let mut la = a.clone();
    let mut lb = b.clone();
    let mut lc = c.clone();

    let mut ca = AnyCodec::new(CodecKind::Delta);
    let mut cb = AnyCodec::new(CodecKind::Delta);
    let mut cc = AnyCodec::new(CodecKind::Delta);

    // Establish baselines so the interesting second round uses diffs.
    codec_exchange(&mut ca, &mut cb, &mut a, &mut b);
    legacy_exchange(&mut la, &mut lb);
    a.out.set_index(10, 7.0);
    la.out.set_index(10, 7.0);

    // Interleaved: A's push to B is encoded, then C pushes into A, then
    // B's reply lands at A.
    let push_ab = ca.encode_push(1, &a);
    let push_ca = cc.encode_push(0, &c);
    let reply_ac = ca.apply_push(2, &mut a, &push_ca).unwrap();
    cc.apply_reply(0, &mut c, &reply_ac).unwrap();
    let reply_ab = cb.apply_push(0, &mut b, &push_ab).unwrap();
    ca.apply_reply(1, &mut a, &reply_ab).unwrap();

    // Legacy with the same interleaving.
    let la_at_push = la.clone();
    legacy_exchange(&mut lc, &mut la);
    let mut incoming = la_at_push;
    QTablePair::merge_symmetric(&mut lb, &mut incoming);
    la = incoming;

    assert_eq!(pair_bytes(&a), pair_bytes(&la));
    assert_eq!(pair_bytes(&b), pair_bytes(&lb));
    assert_eq!(pair_bytes(&c), pair_bytes(&lc));

    // The overwrite dropped C's entries from A, but A's baseline with C
    // still has them — the next A→C diff must encode removals to stay
    // bitwise faithful to legacy.
    let push_ac = ca.encode_push(2, &a);
    let reply_ca = cc.apply_push(0, &mut c, &push_ac).unwrap();
    ca.apply_reply(2, &mut a, &reply_ca).unwrap();
    legacy_exchange(&mut la, &mut lc);
    assert_eq!(pair_bytes(&a), pair_bytes(&la));
    assert_eq!(pair_bytes(&c), pair_bytes(&lc));

    // And the next A–B delta exchange still reproduces legacy bitwise.
    codec_exchange(&mut ca, &mut cb, &mut a, &mut b);
    legacy_exchange(&mut la, &mut lb);
    assert_eq!(pair_bytes(&a), pair_bytes(&la));
    assert_eq!(pair_bytes(&b), pair_bytes(&lb));
}

#[test]
fn delta_state_checkpoint_round_trips() {
    let mut a = build_pair(&[(1, 1.0)], &[(2, -2.0)]);
    let mut b = build_pair(&[(3, 3.0)], &[]);
    let mut ca = AnyCodec::new(CodecKind::Delta);
    let mut cb = AnyCodec::new(CodecKind::Delta);
    codec_exchange(&mut ca, &mut cb, &mut a, &mut b);

    let mut w = Writer::new();
    ca.save(&mut w);
    let bytes = w.into_bytes();
    let mut restored = AnyCodec::new(CodecKind::Delta);
    let mut r = Reader::new(&bytes);
    restored.restore(&mut r).unwrap();
    assert!(r.is_exhausted());
    let mut w2 = Writer::new();
    restored.save(&mut w2);
    assert_eq!(bytes, w2.into_bytes());

    // Restoring into the wrong kind is rejected.
    let mut wrong = AnyCodec::new(CodecKind::Identity);
    assert!(wrong.restore(&mut Reader::new(&bytes)).is_err());

    // The restored codec continues losslessly where the original would.
    a.out.set_index(50, 9.0);
    let mut la = a.clone();
    let mut lb = b.clone();
    codec_exchange(&mut restored, &mut cb, &mut a, &mut b);
    legacy_exchange(&mut la, &mut lb);
    assert_eq!(pair_bytes(&a), pair_bytes(&la));
    assert_eq!(pair_bytes(&b), pair_bytes(&lb));
}

#[test]
fn delta_crossed_pushes_fall_back_and_resync() {
    // A and B push to each other in the same round while a third party's
    // merge has made their would-be merged tables differ. Without the
    // in-flight guard both completions would install different baselines
    // at the same version and the next DELTA would silently reconstruct
    // a wrong table (the REVIEW desync scenario).
    let mut a = build_pair(&[(1, 1.0), (2, 2.0)], &[]);
    let mut b = build_pair(&[(2, 4.0), (3, 3.0)], &[]);
    let mut ca = AnyCodec::new(CodecKind::Delta);
    let mut cb = AnyCodec::new(CodecKind::Delta);
    codec_exchange(&mut ca, &mut cb, &mut a, &mut b);
    a.out.set_index(10, 7.0);
    b.out.set_index(11, -7.0);

    // Both pushes are encoded before either lands.
    let push_ab = ca.encode_push(1, &a);
    let push_ba = cb.encode_push(0, &b);
    // A third party merges into A while the pushes are in flight.
    let mut c = build_pair(&[(20, 5.0)], &[]);
    let mut cc = AnyCodec::new(CodecKind::Delta);
    let push_ca = cc.encode_push(0, &c);
    let reply_ac = ca.apply_push(2, &mut a, &push_ca).unwrap();
    cc.apply_reply(0, &mut c, &reply_ac).unwrap();
    // Each side receives the other's crossed push: both must decline
    // with STALE_FULL instead of merging.
    let reply_ba = cb.apply_push(0, &mut b, &push_ab).unwrap();
    let reply_ab = ca.apply_push(1, &mut a, &push_ba).unwrap();
    assert_eq!(
        CodedHeader::peek(&reply_ba).unwrap().subtag,
        subtag::STALE_FULL
    );
    assert_eq!(
        CodedHeader::peek(&reply_ab).unwrap().subtag,
        subtag::STALE_FULL
    );
    ca.apply_reply(1, &mut a, &reply_ba).unwrap();
    cb.apply_reply(0, &mut b, &reply_ab).unwrap();

    // Both sides dropped the baseline: the next push resynchronizes via
    // FULL and leaves the pair bitwise identical — no silent desync.
    let (push, _) = codec_exchange(&mut ca, &mut cb, &mut a, &mut b);
    assert_eq!(CodedHeader::peek(&push).unwrap().subtag, subtag::FULL);
    assert_eq!(pair_bytes(&a), pair_bytes(&b));

    // And delta exchanges from the fresh baseline are lossless again.
    a.out.set_index(30, 9.0);
    let mut la = a.clone();
    let mut lb = b.clone();
    let (push, _) = codec_exchange(&mut ca, &mut cb, &mut a, &mut b);
    assert_eq!(CodedHeader::peek(&push).unwrap().subtag, subtag::DELTA);
    legacy_exchange(&mut la, &mut lb);
    assert_eq!(pair_bytes(&a), pair_bytes(&la));
    assert_eq!(pair_bytes(&b), pair_bytes(&lb));
}

#[test]
fn delta_hash_mismatch_at_equal_version_falls_back() {
    // The second guard: a DELTA push whose version matches but whose
    // baseline hash does not (any desync path the in-flight check cannot
    // see) must take the STALE_FULL fallback, not merge.
    let mut a = build_pair(&[(1, 1.0)], &[(2, -2.0)]);
    let mut b = build_pair(&[(3, 3.0)], &[]);
    let mut ca = AnyCodec::new(CodecKind::Delta);
    let mut cb = AnyCodec::new(CodecKind::Delta);
    codec_exchange(&mut ca, &mut cb, &mut a, &mut b);
    // After first contact both baselines equal the merged pair == `a`.
    let good_hash = crate::delta::baseline_hash(&SparsePair::from_store(&a));

    let forge_push = |hash: u64, a: &QTablePair| {
        let mut w = Writer::new();
        CodedHeader::write(CodecKind::Delta, subtag::DELTA, &mut w);
        w.put_u64(1); // version matches B's baseline
        w.put_u64(hash);
        let a = SparsePair::from_store(a);
        a.put_diff(&mut w, &a); // empty diffs
        w.into_bytes()
    };

    let before_b = b.clone();
    let reply = cb
        .apply_push(0, &mut b, &forge_push(good_hash ^ 1, &a))
        .unwrap();
    assert_eq!(
        CodedHeader::peek(&reply).unwrap().subtag,
        subtag::STALE_FULL
    );
    assert_eq!(pair_bytes(&b), pair_bytes(&before_b));

    // The same body with the matching hash merges normally (B re-learns
    // the baseline on its next FULL contact; rebuild it first).
    let mut cb = AnyCodec::new(CodecKind::Delta);
    let mut ca = AnyCodec::new(CodecKind::Delta);
    codec_exchange(&mut ca, &mut cb, &mut a, &mut b);
    let good_hash = crate::delta::baseline_hash(&SparsePair::from_store(&a));
    let reply = cb
        .apply_push(0, &mut b, &forge_push(good_hash, &a))
        .unwrap();
    assert_eq!(CodedHeader::peek(&reply).unwrap().subtag, subtag::DELTA);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Identity codec exchanges are bitwise the legacy exchange.
    #[test]
    fn identity_exchange_is_lossless(
        ao in entry_strategy(), ai in entry_strategy(),
        bo in entry_strategy(), bi in entry_strategy(),
    ) {
        let mut a = build_pair(&ao, &ai);
        let mut b = build_pair(&bo, &bi);
        let mut la = a.clone();
        let mut lb = b.clone();
        let mut ca = AnyCodec::new(CodecKind::Identity);
        let mut cb = AnyCodec::new(CodecKind::Identity);
        codec_exchange(&mut ca, &mut cb, &mut a, &mut b);
        legacy_exchange(&mut la, &mut lb);
        prop_assert_eq!(pair_bytes(&a), pair_bytes(&la));
        prop_assert_eq!(pair_bytes(&b), pair_bytes(&lb));
    }

    /// Delta exchanges — full, then diffs across mutations — reproduce the
    /// legacy exchange down to snapshot bytes.
    #[test]
    fn delta_exchanges_are_lossless(
        ao in entry_strategy(), ai in entry_strategy(),
        bo in entry_strategy(), bi in entry_strategy(),
        m1 in entry_strategy(), m2 in entry_strategy(),
    ) {
        let mut a = build_pair(&ao, &ai);
        let mut b = build_pair(&bo, &bi);
        let mut la = a.clone();
        let mut lb = b.clone();
        let mut ca = AnyCodec::new(CodecKind::Delta);
        let mut cb = AnyCodec::new(CodecKind::Delta);
        for muts in [&m1, &m2] {
            codec_exchange(&mut ca, &mut cb, &mut a, &mut b);
            legacy_exchange(&mut la, &mut lb);
            prop_assert_eq!(pair_bytes(&a), pair_bytes(&la));
            prop_assert_eq!(pair_bytes(&b), pair_bytes(&lb));
            for &(i, v) in muts.iter() {
                a.out.set_index(i % ENTRIES, v);
                la.out.set_index(i % ENTRIES, v);
            }
        }
        codec_exchange(&mut ca, &mut cb, &mut a, &mut b);
        legacy_exchange(&mut la, &mut lb);
        prop_assert_eq!(pair_bytes(&a), pair_bytes(&la));
        prop_assert_eq!(pair_bytes(&b), pair_bytes(&lb));
    }

    /// A whole fleet of delta codecs — 64 PMs, three rounds of
    /// everyone-pushes-once, so first contacts, diffs against baselines,
    /// repeat partners and failed pushes all occur — lands bitwise on the
    /// tables the legacy in-place `merge_symmetric` produces.
    #[test]
    fn fleet_complete_matches_pairwise(
        ao in entry_strategy(), bo in entry_strategy(),
        stride in 1usize..64,
    ) {
        const N: usize = 64;
        let mut legacy: Vec<QTablePair> = (0..N)
            .map(|p| {
                let shift = |e: &[(usize, f64)]| -> Vec<(usize, f64)> {
                    e.iter().map(|&(i, v)| (i + p * 31, v + p as f64)).collect()
                };
                build_pair(&shift(&ao), &shift(&bo))
            })
            .collect();
        let mut coded = legacy.clone();
        let mut codecs: Vec<AnyCodec> = (0..N).map(|_| AnyCodec::new(CodecKind::Delta)).collect();
        for round in 0..3 {
            for p in 0..N {
                // Rounds 0 and 2 pair everyone with the same partner.
                let q = (p + stride + round % 2) % N;
                if p == q {
                    continue;
                }
                let push = codecs[p].encode_push(q as PeerId, &coded[p]);
                if (p + round) % 11 == 0 {
                    codecs[p].push_failed(q as PeerId);
                    continue;
                }
                let [cp, cq] = codecs.get_disjoint_mut([p, q]).unwrap();
                let [tp, tq] = coded.get_disjoint_mut([p, q]).unwrap();
                let reply = cq.apply_push(p as PeerId, tq, &push).unwrap();
                cp.apply_reply(q as PeerId, tp, &reply).unwrap();
                let [x, y] = legacy.get_disjoint_mut([p, q]).unwrap();
                QTablePair::merge_symmetric(x, y);
            }
        }
        for (p, (c, l)) in coded.iter().zip(&legacy).enumerate() {
            prop_assert_eq!(pair_bytes(c), pair_bytes(l), "pm {}", p);
        }
    }
}

/// One script of exchanges between A (peer 0), B (peer 1) and a third
/// party C (peer 2): first contact; an exchange after both sides learned
/// more; crossed A⇄B pushes while C merges into A; the exchange after
/// them; B pushing to A. Returns every body that crossed the wire, then
/// the three codecs' saved state.
fn scripted_exchanges<S: PairStore>(
    kind: CodecKind,
    tables: &mut [S; 3],
    muts: &[(usize, f64)],
) -> Vec<Vec<u8>> {
    let [a, b, c] = tables;
    let (mut ca, mut cb, mut cc) = (
        AnyCodec::new(kind),
        AnyCodec::new(kind),
        AnyCodec::new(kind),
    );
    let mut wire = Vec::new();
    let (push, reply) = codec_exchange(&mut ca, &mut cb, a, b);
    wire.extend([push, reply]);
    a.tables_mut()[0].set_entries(muts.iter().map(|&(i, v)| (i % ENTRIES, v)));
    b.tables_mut()[1].set_entries(muts.iter().map(|&(i, v)| ((i * 7) % ENTRIES, -v)));
    let (push, reply) = codec_exchange(&mut ca, &mut cb, a, b);
    wire.extend([push, reply]);

    let push_ab = ca.encode_push(1, &*a);
    let push_ba = cb.encode_push(0, &*b);
    let push_ca = cc.encode_push(0, &*c);
    let reply_ac = ca.apply_push(2, a, &push_ca).unwrap();
    cc.apply_reply(0, c, &reply_ac).unwrap();
    let reply_ba = cb.apply_push(0, b, &push_ab).unwrap();
    let reply_ab = ca.apply_push(1, a, &push_ba).unwrap();
    ca.apply_reply(1, a, &reply_ba).unwrap();
    cb.apply_reply(0, b, &reply_ab).unwrap();
    wire.extend([push_ab, push_ba, push_ca, reply_ac, reply_ba, reply_ab]);

    let (push, reply) = codec_exchange(&mut ca, &mut cb, a, b);
    wire.extend([push, reply]);
    let push = cb.encode_push(0, &*b);
    let reply = ca.apply_push(1, a, &push).unwrap();
    cb.apply_reply(0, b, &reply).unwrap();
    wire.extend([push, reply]);
    wire.extend([&ca, &cb, &cc].map(codec_bytes));
    wire
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every codec runs the same on both table storages: the same script
    /// on boxed `QTablePair`s (the simulator's coded rounds) and on
    /// sparse `ArenaSlot`s (the node fleets) puts the same bodies on the
    /// wire, leaves the same codec state and exports the same tables —
    /// delta's crossed-exchange `STALE_FULL` declines included.
    #[test]
    fn codecs_match_across_storages(
        ao in entry_strategy(), ai in entry_strategy(),
        bo in entry_strategy(), bi in entry_strategy(),
        co in entry_strategy(), muts in entry_strategy(),
    ) {
        let dense = [build_pair(&ao, &ai), build_pair(&bo, &bi), build_pair(&co, &[])];
        for kind in ALL_CODEC_KINDS {
            let mut boxed = dense.clone();
            let mut slots = dense.each_ref().map(ArenaSlot::from);
            let wire = scripted_exchanges(kind, &mut boxed, &muts);
            prop_assert_eq!(&wire, &scripted_exchanges(kind, &mut slots, &muts), "{}", kind);
            for (pair, slot) in boxed.iter().zip(&slots) {
                prop_assert_eq!(pair_bytes(pair), pair_bytes(&slot.export()), "{}", kind);
            }
            if kind == CodecKind::Delta {
                let subtag_of = |body: &[u8]| CodedHeader::peek(body).unwrap().subtag;
                prop_assert_eq!(subtag_of(&wire[2]), subtag::DELTA);
                prop_assert_eq!(subtag_of(&wire[8]), subtag::STALE_FULL);
                prop_assert_eq!(subtag_of(&wire[9]), subtag::STALE_FULL);
                prop_assert_eq!(subtag_of(&wire[10]), subtag::FULL);
            }
        }
    }
}

/// A delta body with a hand-written sparse block pair behind `subtag`.
fn forged_full(tag: u8, out: &[(u16, f64)], r#in: &[(u16, f64)]) -> Vec<u8> {
    let mut w = Writer::new();
    CodedHeader::write(CodecKind::Delta, tag, &mut w);
    for block in [out, r#in] {
        w.put_u32(block.len() as u32);
        for &(i, v) in block {
            w.put_u16(i);
            w.put_f64(v);
        }
    }
    w.into_bytes()
}

fn codec_bytes(c: &AnyCodec) -> Vec<u8> {
    let mut w = Writer::new();
    c.save(&mut w);
    w.into_bytes()
}

#[test]
fn decoders_require_strictly_ascending_indices() {
    let mut own = build_pair(&[(5, 2.0)], &[(6, -1.0)]);
    let before = pair_bytes(&own);
    let mut c = AnyCodec::new(CodecKind::Delta);
    let ok = forged_full(subtag::FULL, &[(1, 1.0), (2, 2.0)], &[]);
    assert!(c.clone().apply_push(9, &mut own.clone(), &ok).is_ok());
    for bad in [
        forged_full(subtag::FULL, &[(2, 2.0), (1, 1.0)], &[]), // descending
        forged_full(subtag::FULL, &[(1, 1.0), (1, 3.0)], &[]), // duplicate
        forged_full(subtag::FULL, &[], &[(7, 1.0), (7, 1.0)]), // duplicate, φ_in
        forged_full(subtag::FULL, &[(ENTRIES as u16, 1.0)], &[]), // out of range
    ] {
        assert!(c.apply_push(9, &mut own, &bad).is_err());
        c.encode_push(9, &own);
        let stale = [&bad[..2], &[subtag::STALE_FULL], &bad[3..]].concat();
        assert!(c.apply_reply(9, &mut own, &stale).is_err());
        c.push_failed(9);
    }
    assert_eq!(pair_bytes(&own), before);
    assert_eq!(
        codec_bytes(&c),
        codec_bytes(&AnyCodec::new(CodecKind::Delta))
    );
}

#[test]
fn delta_diff_rejects_unsorted_and_phantom_removals() {
    // B holds a baseline with out-entries {1, 2, 3} for peer 0.
    let mut a = build_pair(&[(1, 1.0), (2, 2.0), (3, 3.0)], &[]);
    let mut b = QTablePair::default();
    let mut ca = AnyCodec::new(CodecKind::Delta);
    let mut cb = AnyCodec::new(CodecKind::Delta);
    codec_exchange(&mut ca, &mut cb, &mut a, &mut b);
    let hash = crate::delta::baseline_hash(&SparsePair::from_store(&a));

    let push = |removed: &[u16], upserts: &[(u16, f64)]| {
        let mut w = Writer::new();
        CodedHeader::write(CodecKind::Delta, subtag::DELTA, &mut w);
        w.put_u64(1);
        w.put_u64(hash);
        w.put_u32(removed.len() as u32);
        for &i in removed {
            w.put_u16(i);
        }
        w.put_u32(upserts.len() as u32);
        for &(i, v) in upserts {
            w.put_u16(i);
            w.put_f64(v);
        }
        w.put_u32(0); // φ_in: no removals
        w.put_u32(0); // φ_in: no upserts
        w.into_bytes()
    };

    let (own_before, state_before) = (pair_bytes(&b), codec_bytes(&cb));
    for bad in [
        push(&[3, 1], &[]),                  // unsorted: the old decoder kept entry 1
        push(&[2, 2], &[]),                  // duplicate removal
        push(&[4], &[]),                     // not in the base
        push(&[6000], &[]),                  // above every base key
        push(&[2], &[(2, 9.0)]),             // removed and upserted at once
        push(&[], &[(5, 1.0), (4, 1.0)]),    // descending upserts
        push(&[], &[(ENTRIES as u16, 1.0)]), // out of range
    ] {
        assert!(cb.apply_push(0, &mut b, &bad).is_err());
        assert_eq!(pair_bytes(&b), own_before);
        assert_eq!(codec_bytes(&cb), state_before);
    }
    // The same shapes fail the table-free check of a stale push too (a
    // fresh codec has no baseline, so it takes the STALE_FULL branch)…
    let mut fresh = AnyCodec::new(CodecKind::Delta);
    assert!(fresh.apply_push(0, &mut b, &push(&[3, 1], &[])).is_err());
    assert!(fresh
        .apply_push(0, &mut b, &push(&[], &[(5, 1.0), (5, 1.0)]))
        .is_err());
    let reply = fresh.apply_push(0, &mut b, &push(&[4], &[])).unwrap();
    assert_eq!(
        CodedHeader::peek(&reply).unwrap().subtag,
        subtag::STALE_FULL
    );
    // …and a well-formed removal reconstructs exactly.
    let reply = cb
        .apply_push(0, &mut b, &push(&[1, 3], &[(2, 4.0)]))
        .unwrap();
    assert_eq!(CodedHeader::peek(&reply).unwrap().subtag, subtag::DELTA);
    assert_eq!(b.out.raw_values()[2], 3.0); // (2.0 + 4.0) / 2
}

/// One byte-level mutation of a coded body.
#[derive(Debug, Clone)]
enum Mutation {
    /// Keep only the first `keep`‰ of the body.
    Truncate { keep: usize },
    /// Flip bit `bit` of the byte at `pos`‰.
    BitFlip { pos: usize, bit: u8 },
    /// Swap (or, with `duplicate`, copy the first over the second) two
    /// adjacent `len`-byte entries, the `k`-th pair after `start`.
    Entries {
        start: usize,
        len: usize,
        k: usize,
        duplicate: bool,
    },
    /// Add `delta` to the `u32` count field at `at`.
    Count { at: usize, delta: u32 },
}

/// Where entry lists and their count fields start in the bodies the
/// delta codec writes: after the 11-byte header (FULL / STALE_FULL),
/// after a version (delta reply), after version + hash (delta push).
fn mutation() -> impl Strategy<Value = Mutation> {
    let entries_at = prop_oneof![Just(15usize), Just(27), Just(35)];
    let count_at = prop_oneof![Just(11usize), Just(19), Just(23), Just(27), Just(31)];
    let delta = prop_oneof![Just(1u32), Just(u32::MAX), Just(1000), Just(1 << 16)];
    prop_oneof![
        (0usize..1000).prop_map(|keep| Mutation::Truncate { keep }),
        (0usize..1000, 0u8..8).prop_map(|(pos, bit)| Mutation::BitFlip { pos, bit }),
        (entries_at, Just(10usize), 0usize..40, any::<bool>()).prop_map(
            |(start, len, k, duplicate)| Mutation::Entries {
                start,
                len,
                k,
                duplicate
            }
        ),
        (count_at, delta).prop_map(|(at, delta)| Mutation::Count { at, delta }),
    ]
}

fn mutate(body: &[u8], m: &Mutation) -> Vec<u8> {
    let mut out = body.to_vec();
    match *m {
        Mutation::Truncate { keep } => out.truncate(body.len() * keep / 1000),
        Mutation::BitFlip { pos, bit } => out[body.len() * pos / 1000] ^= 1 << bit,
        Mutation::Entries {
            start,
            len,
            k,
            duplicate,
        } => {
            let pairs = body.len().saturating_sub(start) / len / 2;
            if pairs > 0 {
                let at = start + (k % pairs) * 2 * len;
                let (first, second) = out[at..at + 2 * len].split_at_mut(len);
                if duplicate {
                    second.copy_from_slice(first);
                } else {
                    first.swap_with_slice(second);
                }
            }
        }
        Mutation::Count { at, delta } => {
            if let Some(field) = out.get_mut(at..at + 4) {
                let v = u32::from_le_bytes(field.try_into().unwrap()).wrapping_add(delta);
                field.copy_from_slice(&v.to_le_bytes());
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A damaged push or reply never panics the decoder, and a rejected
    /// one leaves the table and the codec's checkpoint bytes exactly as
    /// they were — for first-contact, diff and stale bodies alike.
    /// A node's sparse tables answer every damaged body as the boxed pair
    /// does: same verdict, same reply, same table and codec state.
    #[test]
    fn mutated_bodies_never_panic_or_half_apply(
        ao in entry_strategy(), ai in entry_strategy(),
        bo in entry_strategy(), bi in entry_strategy(),
        muts in entry_strategy(),
        warm in 0usize..3,
        stale in any::<bool>(),
        m in mutation(),
    ) {
        let kind = CodecKind::Delta;
        let mut a = build_pair(&ao, &ai);
        let mut b = build_pair(&bo, &bi);
        let mut ca = AnyCodec::new(kind);
        let mut cb = AnyCodec::new(kind);
        for _ in 0..warm {
            codec_exchange(&mut ca, &mut cb, &mut a, &mut b);
            for &(i, v) in &muts {
                a.out.set_index(i % ENTRIES, v);
                a.r#in.set_index((i * 7) % ENTRIES, -v);
            }
        }
        if stale {
            // B forgets A: the reply below is a STALE_FULL body.
            cb = AnyCodec::new(kind);
        }
        let push = ca.encode_push(1, &a);

        // The damaged push at B, and at B's tables as a node holds them.
        let damaged = mutate(&push, &m);
        let (mut b1, mut cb1) = (b.clone(), cb.clone());
        let answer = cb1.apply_push(0, &mut b1, &damaged);
        if answer.is_err() {
            prop_assert_eq!(pair_bytes(&b1), pair_bytes(&b));
            prop_assert_eq!(codec_bytes(&cb1), codec_bytes(&cb));
        }
        let (mut s1, mut cs1) = (ArenaSlot::from(&b), cb.clone());
        prop_assert_eq!(cs1.apply_push(0, &mut s1, &damaged).ok(), answer.ok());
        prop_assert_eq!(pair_bytes(&s1.export()), pair_bytes(&b1));
        prop_assert_eq!(codec_bytes(&cs1), codec_bytes(&cb1));

        // The damaged reply at A, likewise.
        let reply = cb.apply_push(0, &mut b, &push).unwrap();
        let damaged = mutate(&reply, &m);
        let (slot, slot_codec) = (ArenaSlot::from(&a), ca.clone());
        let (own_before, state_before) = (pair_bytes(&a), codec_bytes(&ca));
        let applied = ca.apply_reply(1, &mut a, &damaged).is_ok();
        if !applied {
            prop_assert_eq!(pair_bytes(&a), own_before);
            prop_assert_eq!(codec_bytes(&ca), state_before);
        }
        let (mut s1, mut cs1) = (slot, slot_codec);
        prop_assert_eq!(cs1.apply_reply(1, &mut s1, &damaged).is_ok(), applied);
        prop_assert_eq!(pair_bytes(&s1.export()), pair_bytes(&a));
        prop_assert_eq!(codec_bytes(&cs1), codec_bytes(&ca));
    }
}

/// Byte offsets inside a dense pair body (`QTablePair::save`): one table
/// is a `u64` count, 6561 `f64`s, a `u64` count, 6561 visited bytes.
const DENSE_TABLE: usize = 8 + 8 * ENTRIES + 8 + ENTRIES;
const DENSE_REWARDS: usize = 2 * DENSE_TABLE + 16;
const DENSE_REWARD: usize = 8 + 8 * NUM_LEVELS;

/// Where each `u64` length field of a dense body sits: φ_out values and
/// visited flags, φ_in values and visited flags, the two reward vectors.
const DENSE_LENGTHS: [usize; 6] = [
    0,
    8 + 8 * ENTRIES,
    DENSE_TABLE,
    DENSE_TABLE + 8 + 8 * ENTRIES,
    DENSE_REWARDS,
    DENSE_REWARDS + DENSE_REWARD,
];

/// Every section boundary short of the full body: the length fields,
/// the runs behind them, and α / γ.
fn dense_boundaries() -> Vec<usize> {
    let mut cuts: Vec<usize> = DENSE_LENGTHS.iter().flat_map(|&at| [at, at + 8]).collect();
    cuts.extend([2 * DENSE_TABLE, 2 * DENSE_TABLE + 8]);
    cuts.sort_unstable();
    cuts
}

/// One structure-aware mutation of a dense pair body.
#[derive(Debug, Clone)]
enum DenseMutation {
    /// Cut the body at section boundary `k` (mod the boundary count).
    Truncate { k: usize },
    /// Flip bit `bit` (never bit 0, which swaps a valid 0 and 1) of the
    /// visited byte of `entry` in φ_out or φ_in.
    VisitedFlip {
        in_table: bool,
        entry: usize,
        bit: u8,
    },
    /// Add `delta` to length field `field` (mod 6).
    LyingLength { field: usize, delta: u64 },
    /// Append bytes after the body.
    Trailing { junk: Vec<u8> },
}

fn dense_mutation() -> impl Strategy<Value = DenseMutation> {
    let delta = prop_oneof![Just(1u64), Just(u64::MAX), Just(8), Just(1 << 32)];
    prop_oneof![
        (0usize..64).prop_map(|k| DenseMutation::Truncate { k }),
        (any::<bool>(), 0usize..ENTRIES, 1u8..8).prop_map(|(in_table, entry, bit)| {
            DenseMutation::VisitedFlip {
                in_table,
                entry,
                bit,
            }
        }),
        (0usize..6, delta).prop_map(|(field, delta)| DenseMutation::LyingLength { field, delta }),
        proptest::collection::vec(any::<u8>(), 1..16)
            .prop_map(|junk| DenseMutation::Trailing { junk }),
    ]
}

/// Applies `m` to the dense body that starts `at` bytes into `payload`.
fn mutate_dense(payload: &[u8], at: usize, m: &DenseMutation) -> Vec<u8> {
    let mut out = payload.to_vec();
    match m {
        DenseMutation::Truncate { k } => {
            let cuts = dense_boundaries();
            out.truncate(at + cuts[k % cuts.len()]);
        }
        DenseMutation::VisitedFlip {
            in_table,
            entry,
            bit,
        } => {
            let flags = at + usize::from(*in_table) * DENSE_TABLE + 8 + 8 * ENTRIES + 8;
            out[flags + entry] ^= 1 << bit;
        }
        DenseMutation::LyingLength { field, delta } => {
            let field = &mut out[at + DENSE_LENGTHS[field % 6]..][..8];
            let n = u64::from_le_bytes((&*field).try_into().unwrap()).wrapping_add(*delta);
            field.copy_from_slice(&n.to_le_bytes());
        }
        DenseMutation::Trailing { junk } => out.extend_from_slice(junk),
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Damaged dense bodies — cut at a section boundary, a visited byte
    /// that is neither 0 nor 1, a length field that lies, bytes after
    /// the end — are rejected without panicking, and a rejected body
    /// changes nothing: not the identity codec's push or reply side, not
    /// the checkpoint decoder, on boxed pairs and sparse slots alike.
    #[test]
    fn mutated_dense_bodies_never_panic_or_half_apply(
        ao in entry_strategy(), ai in entry_strategy(),
        bo in entry_strategy(), bi in entry_strategy(),
        m in dense_mutation(),
    ) {
        let mut a = build_pair(&ao, &ai);
        let mut b = build_pair(&bo, &bi);
        let mut ca = AnyCodec::new(CodecKind::Identity);
        let mut cb = AnyCodec::new(CodecKind::Identity);
        let push = ca.encode_push(1, &a);
        let reply = cb.clone().apply_push(0, &mut b.clone(), &push).unwrap();
        let (a_before, b_before) = (pair_bytes(&a), pair_bytes(&b));

        let bad_push = mutate_dense(&push, CodedHeader::LEN, &m);
        prop_assert!(DensePairView::parse(&bad_push[CodedHeader::LEN..]).is_err());
        prop_assert!(cb.apply_push(0, &mut b, &bad_push).is_err());
        prop_assert_eq!(pair_bytes(&b), b_before.clone());

        let bad_reply = mutate_dense(&reply, CodedHeader::LEN, &m);
        prop_assert!(ca.apply_reply(1, &mut a, &bad_reply).is_err());
        prop_assert_eq!(pair_bytes(&a), a_before);

        // The same for a node's sparse tables.
        let mut slot = ArenaSlot::from(&b);
        prop_assert!(cb.apply_push(0, &mut slot, &bad_push).is_err());
        prop_assert!(ca.apply_reply(1, &mut slot, &bad_reply).is_err());
        prop_assert_eq!(pair_bytes(&slot), b_before.clone());

        // A checkpointed pair sits inside a longer stream, so only the
        // trailing-bytes case is the caller's to reject.
        if !matches!(m, DenseMutation::Trailing { .. }) {
            prop_assert!(b.restore(&mut Reader::new(&bad_push[CodedHeader::LEN..])).is_err());
            prop_assert_eq!(pair_bytes(&b), b_before.clone());
            prop_assert!(slot.restore(&mut Reader::new(&bad_push[CodedHeader::LEN..])).is_err());
            prop_assert_eq!(pair_bytes(&slot), b_before);
        }
    }
}

/// A ~140-entry pair over a fixed pool of 70 + 70 keys: `seed` decides
/// which ~3/4 of the pool this pair holds and every value.
fn pooled_pair(seed: u64) -> QTablePair {
    let mut p = QTablePair::default();
    for k in 0..70u64 {
        let h = (seed * 0x9e37_79b9 + k * 0x85eb_ca6b) % 1009;
        if !h.is_multiple_of(4) {
            p.out
                .set_index((k * 93 % ENTRIES as u64) as usize, h as f64 / 7.0);
        }
        if h % 4 != 1 {
            p.r#in
                .set_index((k * 89 % ENTRIES as u64) as usize, -(h as f64) / 3.0);
        }
    }
    p
}

/// The codec's per-peer state costs what its entries cost: one node, 50
/// peers, 200 scripted exchanges in both directions with dropped pushes
/// and one crossed exchange. Runs off a fixed script, so the numbers
/// repeat exactly.
#[test]
fn codec_state_stays_entry_sized() {
    const PEERS: usize = 50;
    let mut own = pooled_pair(0);
    let mut node = AnyCodec::new(CodecKind::Delta);
    let mut tables: Vec<QTablePair> = (1..=PEERS as u64).map(pooled_pair).collect();
    let mut codecs = vec![AnyCodec::new(CodecKind::Delta); PEERS];
    for step in 0..200usize {
        let p = step * 7 % PEERS;
        let (peer, table, codec) = (p as PeerId + 1, &mut tables[p], &mut codecs[p]);
        if step == 190 {
            // Crossed: both push before either push lands.
            let to_peer = node.encode_push(peer, &own);
            let to_node = codec.encode_push(0, table);
            let reply_peer = codec.apply_push(0, table, &to_peer).unwrap();
            let reply_node = node.apply_push(peer, &mut own, &to_node).unwrap();
            for reply in [&reply_peer, &reply_node] {
                assert_eq!(CodedHeader::peek(reply).unwrap().subtag, subtag::STALE_FULL);
            }
            node.apply_reply(peer, &mut own, &reply_peer).unwrap();
            codec.apply_reply(0, table, &reply_node).unwrap();
        } else if step % 9 == 4 {
            // Dropped on the wire.
            node.encode_push(peer, &own);
            node.push_failed(peer);
        } else if step % 2 == 0 {
            let push = node.encode_push(peer, &own);
            let reply = codec.apply_push(0, table, &push).unwrap();
            node.apply_reply(peer, &mut own, &reply).unwrap();
        } else {
            let push = codec.encode_push(0, table);
            let reply = node.apply_push(peer, &mut own, &push).unwrap();
            codec.apply_reply(0, table, &reply).unwrap();
        }
    }
    let AnyCodec::Delta(codec) = &node else {
        unreachable!()
    };
    let (baselines, in_flight, heap) = codec.footprint();
    assert_eq!(in_flight, 0, "every push was answered or failed");
    // Every peer but the crossed one (it resyncs on next contact).
    assert_eq!(baselines, PEERS - 1);
    let entries = own.trained_pairs();
    assert_eq!(entries, 140, "the whole key pool");
    // 10 B per entry (u16 key + f64 value) in exactly-sized lists,
    // held to 16 B. A dense baseline would be 118 KB: 50× over this
    // bound.
    assert!(
        heap <= 16 * entries * baselines,
        "{heap} B for {baselines} baselines of {entries} entries"
    );
    assert!(heap >= 10 * entries * baselines / 2, "{heap} B");
}

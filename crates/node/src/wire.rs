//! The GLAP wire format: every message one node sends another,
//! serialized with the `glap-snapshot` little-endian codec.
//!
//! Both transports route *encoded* payloads — [`SimTransport`]
//! (crate::SimTransport) included — so the byte stream a run puts on the
//! wire is identical whichever transport carries it, and the driver's
//! `net.bytes_tx` telemetry counter measures real serialized payload
//! sizes, not estimates.
//!
//! Format: a one-byte message tag followed by the tag-specific body.
//! Descriptors are `u32` node id + `u32` age; VM profiles are the
//! current demand vector plus the running-average parts; Q-table pairs
//! reuse their [`Checkpointable`] encoding (so a table travels the wire
//! in exactly its checkpoint representation).
//!
//! The table legs are merged from and encoded into the wire buffer: a
//! push is written straight from the sender's sparse table into a buffer
//! sized for it ([`encode_table`]: one zero-fill, the visited entries
//! scattered in), the receiver merges the visited entries of a borrowed
//! [`DensePairView`] of the payload into its own table and rewrites that
//! same buffer with its reply, and the initiator restores the reply into
//! its table in place. No leg builds a dense
//! [`QTablePair`](glap_qlearn::QTablePair);
//! [`WireMsg::decode`] borrows every large body from the payload instead
//! of copying it.

use glap_cluster::{Resources, RunningAvg, VmProfile};
use glap_cyclon::Descriptor;
use glap_qlearn::{DensePairView, PairStore};
use glap_snapshot::{Reader, SnapshotError, Writer};

/// Message tags (the first byte of every encoded payload).
pub const TAG_SHUFFLE_REQUEST: u8 = 1;
/// See [`TAG_SHUFFLE_REQUEST`].
pub const TAG_SHUFFLE_REPLY: u8 = 2;
/// See [`TAG_SHUFFLE_REQUEST`].
pub const TAG_PROFILE_REQUEST: u8 = 3;
/// See [`TAG_SHUFFLE_REQUEST`].
pub const TAG_PROFILE_REPLY: u8 = 4;
/// See [`TAG_SHUFFLE_REQUEST`].
pub const TAG_AGG_PUSH: u8 = 5;
/// See [`TAG_SHUFFLE_REQUEST`].
pub const TAG_AGG_REPLY: u8 = 6;
/// Codec-coded aggregation push: a [`glap_codec::CodedHeader`]-prefixed
/// body produced by the cluster's configured
/// [`TableCodec`](glap_codec::TableCodec). Only non-identity codecs use
/// these tags — identity exchanges travel as [`TAG_AGG_PUSH`] /
/// [`TAG_AGG_REPLY`].
pub const TAG_AGG_PUSH_CODED: u8 = 7;
/// See [`TAG_AGG_PUSH_CODED`].
pub const TAG_AGG_REPLY_CODED: u8 = 8;

/// One protocol message between two nodes, as decoded from a payload:
/// table and coded bodies borrow from it.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg<'a> {
    /// Active half of a Cyclon shuffle: the initiator's descriptor batch.
    ShuffleRequest {
        /// Descriptors sent by the initiator (fresh self + random sample).
        descriptors: Vec<Descriptor>,
    },
    /// Passive half of a Cyclon shuffle: the target's random sample back.
    ShuffleReply {
        /// Descriptors returned by the target.
        descriptors: Vec<Descriptor>,
    },
    /// Ask a neighbour for its VMs' demand profiles (Algorithm 1's
    /// "profiles of the neighbour's VMs" input to local training).
    ProfileRequest,
    /// The neighbour's current VM demand profiles.
    ProfileReply {
        /// One profile per VM hosted on the replying PM.
        profiles: Vec<VmProfile>,
    },
    /// Push–pull aggregation, push leg: the initiator's full Q-table pair.
    AggPush {
        /// The initiator's tables (118 306 bytes), validated in place.
        table: DensePairView<'a>,
    },
    /// Push–pull aggregation, pull leg: the merged result back.
    AggReply {
        /// The merged tables the initiator adopts.
        table: DensePairView<'a>,
    },
    /// Codec-coded aggregation push (delta): an
    /// opaque, self-describing coded body the receiver's codec state
    /// interprets. Versioned via the body's leading
    /// [`CodedHeader`](glap_codec::CodedHeader).
    AggPushCoded {
        /// The coded body (header + codec-specific payload).
        body: &'a [u8],
    },
    /// Codec-coded aggregation reply.
    AggReplyCoded {
        /// The coded body (header + codec-specific payload).
        body: &'a [u8],
    },
}

fn put_profile(w: &mut Writer, p: &VmProfile) {
    w.put_f64(p.current.cpu());
    w.put_f64(p.current.mem());
    w.put_u64(p.avg.count());
    w.put_f64(p.avg.value().cpu());
    w.put_f64(p.avg.value().mem());
}

fn get_profile(r: &mut Reader<'_>) -> Result<VmProfile, SnapshotError> {
    let cur = Resources::new(r.get_f64()?, r.get_f64()?);
    let count = r.get_u64()?;
    let avg = Resources::new(r.get_f64()?, r.get_f64()?);
    Ok(VmProfile {
        current: cur,
        avg: RunningAvg::from_parts(count, avg),
    })
}

/// Serializes a profile list (shared by the wire format and the
/// [`NodeCore`](crate::NodeCore) checkpoint encoding).
pub(crate) fn put_profiles(w: &mut Writer, ps: &[VmProfile]) {
    w.put_usize(ps.len());
    for p in ps {
        put_profile(w, p);
    }
}

/// Inverse of [`put_profiles`].
pub(crate) fn get_profiles(r: &mut Reader<'_>) -> Result<Vec<VmProfile>, SnapshotError> {
    // Each profile is 40 bytes.
    let n = r.get_count(40)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_profile(r)?);
    }
    Ok(out)
}

pub(crate) fn put_descriptors(w: &mut Writer, ds: &[Descriptor]) {
    w.put_usize(ds.len());
    for d in ds {
        w.put_u32(d.node);
        w.put_u32(d.age);
    }
}

pub(crate) fn get_descriptors(r: &mut Reader<'_>) -> Result<Vec<Descriptor>, SnapshotError> {
    // Each descriptor is 8 bytes.
    let n = r.get_count(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let node = r.get_u32()?;
        let age = r.get_u32()?;
        out.push(Descriptor { node, age });
    }
    Ok(out)
}

/// Encodes a table leg — `tag` is [`TAG_AGG_PUSH`] or [`TAG_AGG_REPLY`] —
/// of `table` into `buf`, replacing its contents. A buffer of
/// [`identity_payload_len`](glap_codec::identity_payload_len) capacity
/// (a fresh one, or the push a reply answers) is written without
/// reallocating.
pub(crate) fn encode_table<S: PairStore>(tag: u8, table: &S, mut buf: Vec<u8>) -> Vec<u8> {
    debug_assert!(matches!(tag, TAG_AGG_PUSH | TAG_AGG_REPLY));
    buf.clear();
    let mut w = Writer::from_vec(buf);
    w.put_u8(tag);
    table.save(&mut w);
    w.into_bytes()
}

impl<'a> WireMsg<'a> {
    /// The tag byte this message encodes under.
    pub fn tag(&self) -> u8 {
        match self {
            WireMsg::ShuffleRequest { .. } => TAG_SHUFFLE_REQUEST,
            WireMsg::ShuffleReply { .. } => TAG_SHUFFLE_REPLY,
            WireMsg::ProfileRequest => TAG_PROFILE_REQUEST,
            WireMsg::ProfileReply { .. } => TAG_PROFILE_REPLY,
            WireMsg::AggPush { .. } => TAG_AGG_PUSH,
            WireMsg::AggReply { .. } => TAG_AGG_REPLY,
            WireMsg::AggPushCoded { .. } => TAG_AGG_PUSH_CODED,
            WireMsg::AggReplyCoded { .. } => TAG_AGG_REPLY_CODED,
        }
    }

    /// Serializes to the canonical payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(self.tag());
        match self {
            WireMsg::ShuffleRequest { descriptors } | WireMsg::ShuffleReply { descriptors } => {
                put_descriptors(&mut w, descriptors);
            }
            WireMsg::ProfileRequest => {}
            WireMsg::ProfileReply { profiles } => put_profiles(&mut w, profiles),
            WireMsg::AggPush { table } | WireMsg::AggReply { table } => {
                w.put_raw(table.as_bytes());
            }
            WireMsg::AggPushCoded { body } | WireMsg::AggReplyCoded { body } => {
                w.put_bytes(body);
            }
        }
        w.into_bytes()
    }

    /// Decodes a payload, validating it whole (unknown tags, malformed
    /// bodies and trailing bytes are errors). Table and coded bodies are
    /// borrowed from `payload`, not copied.
    pub fn decode(payload: &'a [u8]) -> Result<WireMsg<'a>, SnapshotError> {
        let mut r = Reader::new(payload);
        let tag = r.get_u8()?;
        let msg = match tag {
            TAG_SHUFFLE_REQUEST => WireMsg::ShuffleRequest {
                descriptors: get_descriptors(&mut r)?,
            },
            TAG_SHUFFLE_REPLY => WireMsg::ShuffleReply {
                descriptors: get_descriptors(&mut r)?,
            },
            TAG_PROFILE_REQUEST => WireMsg::ProfileRequest,
            TAG_PROFILE_REPLY => WireMsg::ProfileReply {
                profiles: get_profiles(&mut r)?,
            },
            TAG_AGG_PUSH | TAG_AGG_REPLY => {
                let table = DensePairView::read(&mut r)?;
                if tag == TAG_AGG_PUSH {
                    WireMsg::AggPush { table }
                } else {
                    WireMsg::AggReply { table }
                }
            }
            TAG_AGG_PUSH_CODED | TAG_AGG_REPLY_CODED => {
                let len = r.get_usize()?;
                let body = r.get_raw(len)?;
                // The codec interprets the body later; validate its
                // self-describing header here so corrupt payloads are
                // rejected at the same layer as every other message.
                glap_codec::CodedHeader::peek(body)?;
                if tag == TAG_AGG_PUSH_CODED {
                    WireMsg::AggPushCoded { body }
                } else {
                    WireMsg::AggReplyCoded { body }
                }
            }
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "unknown wire message tag {other}"
                )))
            }
        };
        if !r.is_exhausted() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after wire message",
                r.remaining()
            )));
        }
        Ok(msg)
    }
}

/// The tag byte of an encoded payload (0 for an empty payload, which no
/// encoder produces).
pub fn payload_tag(payload: &[u8]) -> u8 {
    payload.first().copied().unwrap_or(0)
}

/// Whether `tag` names a request-type message — one whose delivery is a
/// request/reply round trip subject to the fault model. Replies travel
/// inside that round trip, so the driver delivers them unconditionally.
pub fn tag_is_request(tag: u8) -> bool {
    matches!(
        tag,
        TAG_SHUFFLE_REQUEST | TAG_PROFILE_REQUEST | TAG_AGG_PUSH | TAG_AGG_PUSH_CODED
    )
}

/// The per-kind telemetry counter an encoded payload accrues under.
pub fn tag_counter(tag: u8) -> Option<&'static str> {
    match tag {
        TAG_SHUFFLE_REQUEST => Some("wire.shuffle.req"),
        TAG_SHUFFLE_REPLY => Some("wire.shuffle.reply"),
        TAG_PROFILE_REQUEST => Some("wire.profile.req"),
        TAG_PROFILE_REPLY => Some("wire.profile.reply"),
        TAG_AGG_PUSH => Some("wire.agg.push"),
        TAG_AGG_REPLY => Some("wire.agg.reply"),
        TAG_AGG_PUSH_CODED => Some("wire.agg.push_coded"),
        TAG_AGG_REPLY_CODED => Some("wire.agg.reply_coded"),
        _ => None,
    }
}

/// The coded header of a coded aggregation payload (`None` for legacy
/// tags or malformed bodies). Lets the transport driver account `codec.*`
/// counters from bytes alone, without per-peer codec state.
pub fn coded_header(payload: &[u8]) -> Option<glap_codec::CodedHeader> {
    if !matches!(
        payload_tag(payload),
        TAG_AGG_PUSH_CODED | TAG_AGG_REPLY_CODED
    ) {
        return None;
    }
    // Skip the tag byte and the u64 length prefix `put_bytes` wrote.
    payload
        .get(glap_codec::WIRE_OVERHEAD..)
        .and_then(|body| glap_codec::CodedHeader::peek(body).ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use glap_qlearn::{ArenaSlot, QTablePair};
    use glap_snapshot::Checkpointable;

    fn roundtrip(msg: WireMsg<'_>) {
        let bytes = msg.encode();
        assert_eq!(payload_tag(&bytes), msg.tag());
        let back = WireMsg::decode(&bytes).unwrap();
        assert_eq!(back, msg);
    }

    fn pair_bytes(p: &impl Checkpointable) -> Vec<u8> {
        let mut w = Writer::new();
        p.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn shuffle_messages_round_trip() {
        let ds = vec![
            Descriptor { node: 3, age: 0 },
            Descriptor { node: 9, age: 17 },
        ];
        roundtrip(WireMsg::ShuffleRequest {
            descriptors: ds.clone(),
        });
        roundtrip(WireMsg::ShuffleReply { descriptors: ds });
        roundtrip(WireMsg::ShuffleRequest {
            descriptors: vec![],
        });
    }

    #[test]
    fn profile_messages_round_trip() {
        roundtrip(WireMsg::ProfileRequest);
        let profiles = vec![
            VmProfile {
                current: Resources::new(0.25, 0.5),
                avg: RunningAvg::from_parts(7, Resources::new(0.3, 0.4)),
            },
            VmProfile {
                current: Resources::new(0.0, 0.0),
                avg: RunningAvg::from_parts(0, Resources::new(0.0, 0.0)),
            },
        ];
        roundtrip(WireMsg::ProfileReply { profiles });
    }

    #[test]
    fn table_messages_round_trip_bit_exact() {
        use glap_cluster::Resources;
        use glap_qlearn::{PmState, QParams, VmAction};
        let mut table = QTablePair {
            params: QParams {
                alpha: 0.9,
                gamma: 0.1,
            },
            ..QTablePair::default()
        };
        let s = PmState::from_utilization(Resources::splat(0.5));
        let a = VmAction::from_demand(Resources::splat(0.3));
        table.out.set(s, a, -0.0);
        table.r#in.set(s, a, 1.25e-3);
        // A node's sparse tables encode to the dense pair's bytes.
        let bytes = encode_table(TAG_AGG_PUSH, &ArenaSlot::from(&table), Vec::new());
        assert_eq!(bytes.len(), glap_codec::identity_payload_len());
        assert_eq!(bytes[1..], pair_bytes(&table));
        let WireMsg::AggPush { table: view } = WireMsg::decode(&bytes).unwrap() else {
            panic!("wrong variant");
        };
        // Adopting the view reproduces the pair, parameters included.
        let mut adopted = ArenaSlot::default();
        view.restore_into(&mut adopted);
        assert_eq!(pair_bytes(&adopted), pair_bytes(&table));
        assert_eq!(adopted.trained_pairs(), 2);
        roundtrip(WireMsg::AggReply {
            table: DensePairView::parse(&bytes[1..]).unwrap(),
        });
    }

    /// A reply written over a spent push buffer is byte-for-byte a fresh
    /// encode, and it keeps the buffer's allocation.
    #[test]
    fn reused_reply_buffer_equals_a_fresh_encode() {
        let mut pair = QTablePair::default();
        pair.out.set_index(7, 2.5);
        pair.r#in.set_index(6560, -1.0);
        let table = ArenaSlot::from(&pair);
        let mut push = Vec::with_capacity(glap_codec::identity_payload_len());
        push.extend_from_slice(&[0xAB; 300]);
        let ptr = push.as_ptr();
        let reply = encode_table(TAG_AGG_REPLY, &table, push);
        assert_eq!(reply, encode_table(TAG_AGG_REPLY, &table, Vec::new()));
        assert_eq!(reply.as_ptr(), ptr, "the reply reallocated");
        assert_eq!(payload_tag(&reply), TAG_AGG_REPLY);
    }

    #[test]
    fn corrupt_payloads_are_rejected() {
        assert!(WireMsg::decode(&[]).is_err());
        assert!(WireMsg::decode(&[99]).is_err());
        // Trailing garbage after a valid message.
        let mut bytes = WireMsg::ProfileRequest.encode();
        bytes.push(0);
        assert!(WireMsg::decode(&bytes).is_err());
        // Truncated descriptor list.
        let bytes = WireMsg::ShuffleRequest {
            descriptors: vec![Descriptor { node: 1, age: 2 }],
        }
        .encode();
        assert!(WireMsg::decode(&bytes[..bytes.len() - 2]).is_err());
        // A table leg with a flipped visited byte or trailing bytes.
        let table = encode_table(TAG_AGG_REPLY, &ArenaSlot::default(), Vec::new());
        let mut bad = table.clone();
        bad[1 + 8 + 8 * 6561 + 8] = 2;
        assert!(WireMsg::decode(&bad).is_err());
        let mut bad = table;
        bad.push(0);
        assert!(WireMsg::decode(&bad).is_err());
    }

    #[test]
    fn request_reply_classification() {
        assert!(tag_is_request(TAG_SHUFFLE_REQUEST));
        assert!(tag_is_request(TAG_PROFILE_REQUEST));
        assert!(tag_is_request(TAG_AGG_PUSH));
        assert!(tag_is_request(TAG_AGG_PUSH_CODED));
        assert!(!tag_is_request(TAG_SHUFFLE_REPLY));
        assert!(!tag_is_request(TAG_PROFILE_REPLY));
        assert!(!tag_is_request(TAG_AGG_REPLY));
        assert!(!tag_is_request(TAG_AGG_REPLY_CODED));
    }

    fn coded_body(kind: u8, subtag: u8, err: f64, junk: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(1); // CODEC_WIRE_VERSION
        w.put_u8(kind);
        w.put_u8(subtag);
        w.put_f64(err);
        let mut body = w.into_bytes();
        body.extend_from_slice(junk);
        body
    }

    #[test]
    fn coded_messages_round_trip_and_validate_headers() {
        let body = coded_body(1, 1, 0.0, &[1, 2, 3]);
        roundtrip(WireMsg::AggPushCoded { body: &body });
        roundtrip(WireMsg::AggReplyCoded { body: &body });

        let bytes = WireMsg::AggPushCoded { body: &body }.encode();
        let h = coded_header(&bytes).expect("valid coded header");
        assert_eq!(h.kind, glap_codec::CodecKind::Delta);
        assert_eq!(h.subtag, glap_codec::subtag::DELTA);
        assert!(coded_header(&WireMsg::ProfileRequest.encode()).is_none());

        // A coded message whose body fails header validation is rejected
        // at decode time.
        for bad in [
            coded_body(9, 1, 0.0, &[]),  // unknown kind
            coded_body(2, 3, 0.0, &[]),  // a deleted codec's kind and subtag
            coded_body(1, 77, 0.0, &[]), // unknown subtag
            coded_body(1, 1, 1e-4, &[]), // error-bound slot not 0.0
            vec![1, 1],                  // truncated header
        ] {
            let bytes = WireMsg::AggPushCoded { body: &bad }.encode();
            assert!(WireMsg::decode(&bytes).is_err());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use glap_qlearn::{ArenaSlot, QTablePair};
    use proptest::prelude::*;

    fn arb_descriptors() -> impl Strategy<Value = Vec<Descriptor>> {
        proptest::collection::vec(
            (0u32..1024, 0u32..64).prop_map(|(node, age)| Descriptor { node, age }),
            0..12,
        )
    }

    fn arb_profiles() -> impl Strategy<Value = Vec<VmProfile>> {
        proptest::collection::vec(
            (
                0.0f64..1.0,
                0.0f64..1.0,
                0u64..100,
                0.0f64..1.0,
                0.0f64..1.0,
            )
                .prop_map(|(c, m, n, ac, am)| VmProfile {
                    current: Resources::new(c, m),
                    avg: RunningAvg::from_parts(n, Resources::new(ac, am)),
                }),
            0..8,
        )
    }

    fn arb_table() -> impl Strategy<Value = ArenaSlot> {
        proptest::collection::vec((0usize..6561, -5.0f64..5.0), 0..60).prop_map(|entries| {
            let mut t = QTablePair::default();
            for (i, v) in entries {
                t.out.set_index(i, v);
                t.r#in.set_index((i * 13) % 6561, -v);
            }
            ArenaSlot::from(&t)
        })
    }

    fn arb_coded_body() -> impl Strategy<Value = Vec<u8>> {
        (
            0u8..2,
            0u8..3,
            proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..64),
        )
            .prop_map(|(kind, subtag, junk)| {
                let mut w = Writer::new();
                w.put_u8(1);
                w.put_u8(kind);
                w.put_u8(subtag);
                w.put_f64(0.0);
                let mut body = w.into_bytes();
                body.extend_from_slice(&junk);
                body
            })
    }

    /// An encoded payload of every message kind (decoded messages borrow
    /// their payload, so the strategy yields the bytes).
    fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            arb_descriptors()
                .prop_map(|descriptors| WireMsg::ShuffleRequest { descriptors }.encode()),
            arb_descriptors()
                .prop_map(|descriptors| WireMsg::ShuffleReply { descriptors }.encode()),
            Just(WireMsg::ProfileRequest.encode()),
            arb_profiles().prop_map(|profiles| WireMsg::ProfileReply { profiles }.encode()),
            arb_table().prop_map(|t| encode_table(TAG_AGG_PUSH, &t, Vec::new())),
            arb_table().prop_map(|t| encode_table(TAG_AGG_REPLY, &t, Vec::new())),
            arb_coded_body().prop_map(|body| WireMsg::AggPushCoded { body: &body }.encode()),
            arb_coded_body().prop_map(|body| WireMsg::AggReplyCoded { body: &body }.encode()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every message round-trips, and the same payload with *any*
        /// trailing bytes appended is rejected — a decode that succeeds
        /// must have consumed the payload exactly.
        #[test]
        fn decode_rejects_trailing_bytes(
            bytes in arb_payload(),
            junk in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 1..16),
        ) {
            let msg = WireMsg::decode(&bytes).unwrap();
            prop_assert_eq!(msg.tag(), payload_tag(&bytes));
            prop_assert_eq!(msg.encode(), bytes.clone());
            let mut padded = bytes;
            padded.extend_from_slice(&junk);
            prop_assert!(WireMsg::decode(&padded).is_err());
        }

        /// Truncating a valid payload anywhere may not panic and (except
        /// at full length) may not decode successfully.
        #[test]
        fn decode_rejects_truncations(bytes in arb_payload(), cut in 0usize..10_000) {
            let cut = cut % bytes.len();
            prop_assert!(WireMsg::decode(&bytes[..cut]).is_err());
        }

        /// Arbitrary byte soup never panics the decoder, and anything it
        /// *does* accept re-encodes to exactly the input bytes (the wire
        /// format is canonical).
        #[test]
        fn decode_is_total_and_canonical(
            bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..200),
        ) {
            if let Ok(msg) = WireMsg::decode(&bytes) {
                prop_assert_eq!(msg.encode(), bytes);
            }
        }
    }
}

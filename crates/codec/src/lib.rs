//! # glap-codec — bandwidth-lean gossip payload codecs
//!
//! A gossip exchange in GLAP ships a full [`QTablePair`] — 2×6561 `f64`
//! entries plus bitmaps, [`identity_payload_len`] = 118 307 bytes per leg —
//! even though trained tables are sparse and consecutive exchanges with
//! the same peer differ in a handful of entries. This crate factors the *payload representation* of the
//! push–pull merge (Algorithm 2) out of the protocol: a [`TableCodec`]
//! chooses what bytes cross the wire, while the merge semantics (average
//! shared entries, adopt one-sided entries) stay fixed.
//!
//! Two implementations, selected by [`CodecKind`]:
//!
//! * **Identity** — the dense checkpoint encoding, bit-exact. The default;
//!   the node wire ships it on its own table legs (no coded header), merged
//!   from and encoded into the wire buffer, and the sim trainer runs it
//!   without a codec at all, so a default run is byte-identical to a
//!   codec-less build.
//! * **Delta** — per-peer diff against the table version last exchanged
//!   with that peer, with a sparse full-table fallback on first contact or
//!   version mismatch. Lossless: a delta-coded cluster converges to
//!   bitwise the same tables as an identity one.
//!
//! Both are lossless, so every merge stays the exact convex combination
//! Algorithm 2 specifies.
//!
//! ## Protocol shape
//!
//! One exchange is push → reply, mediated entirely through the codec:
//!
//! ```text
//! A: body = codec.encode_push(B, &table)          // choose representation
//! B: reply = codec.apply_push(A, &mut own, body)  // decode, merge, encode reply
//! A: codec.apply_reply(B, &mut own, reply)        // decode, adopt merged state
//! A: codec.push_failed(B)                         // instead, when the push is dropped
//! ```
//!
//! Every coded body starts with a self-describing 11-byte [`CodedHeader`]
//! (wire version, codec kind, payload subtag, and an error-bound slot
//! that is always `0.0`) so transports can account `codec.*` telemetry
//! without holding codec state.
//!
//! Per-peer state (delta baselines and in-flight pushes)
//! lives inside the codec value as sorted entry lists
//! ([`glap_qlearn::SparseTable`], ~2 KB per peer) and is checkpointable;
//! maps are ordered so snapshot bytes are deterministic.

mod delta;
mod identity;
mod sparse;

pub use delta::DeltaCodec;
pub use identity::IdentityCodec;

use glap_qlearn::{PairStore, QTablePair};
use glap_snapshot::{Reader, SnapshotError, Writer};
use std::fmt;
use std::str::FromStr;

/// Peer identifier — matches `glap_node::NodeId` / the sim-path PM index.
pub type PeerId = u32;

/// Wire-format version byte leading every coded payload. Bumped on any
/// incompatible change to a codec's body layout.
pub const CODEC_WIRE_VERSION: u8 = 1;

/// Framing overhead a coded body pays on the node wire relative to its
/// body length: 1 tag byte plus the u64 length prefix of `put_bytes`.
pub const WIRE_OVERHEAD: usize = 9;

/// Payload subtags: what a coded body contains, independent of codec kind.
pub mod subtag {
    /// Complete table contents (first contact, or an identity payload).
    pub const FULL: u8 = 0;
    /// Versioned diff against the shared per-peer baseline.
    pub const DELTA: u8 = 1;
    /// Version-mismatch fallback: the responder's full table, sent in
    /// place of a merge so both sides can resynchronize baselines.
    pub const STALE_FULL: u8 = 2;
}

/// Which payload codec a cluster runs. Uniform across the fleet: codecs
/// negotiate nothing, so mixing kinds is a configuration error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CodecKind {
    /// Dense, bit-exact payloads (legacy wire behavior).
    #[default]
    Identity,
    /// Per-peer versioned diffs; lossless.
    Delta,
}

/// All kinds, in wire-tag order — sweep binaries iterate this.
pub const ALL_CODEC_KINDS: [CodecKind; 2] = [CodecKind::Identity, CodecKind::Delta];

impl CodecKind {
    /// Stable one-byte wire tag.
    pub fn as_u8(self) -> u8 {
        match self {
            CodecKind::Identity => 0,
            CodecKind::Delta => 1,
        }
    }

    /// Inverse of [`as_u8`](Self::as_u8).
    pub fn from_u8(v: u8) -> Option<CodecKind> {
        match v {
            0 => Some(CodecKind::Identity),
            1 => Some(CodecKind::Delta),
            _ => None,
        }
    }

    /// CLI / CSV label.
    pub fn label(self) -> &'static str {
        match self {
            CodecKind::Identity => "identity",
            CodecKind::Delta => "delta",
        }
    }
}

impl fmt::Display for CodecKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for CodecKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "identity" => Ok(CodecKind::Identity),
            "delta" => Ok(CodecKind::Delta),
            other => Err(format!("unknown codec {other:?} (expected identity|delta)")),
        }
    }
}

/// The self-describing prefix of every coded payload body.
///
/// Transports peek this to validate payloads and account `codec.*`
/// counters (bytes saved, full payloads, fallbacks) without any per-peer
/// codec state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodedHeader {
    /// Which codec produced the body.
    pub kind: CodecKind,
    /// Body layout, one of [`subtag`].
    pub subtag: u8,
}

impl CodedHeader {
    /// Serialized length: version, kind, subtag, and an `f64` error-bound
    /// slot. Both codecs are lossless, so the slot is always `0.0`; it is
    /// kept so wire version 1 bytes do not move.
    pub const LEN: usize = 11;

    pub(crate) fn write(kind: CodecKind, subtag: u8, w: &mut Writer) {
        w.put_u8(CODEC_WIRE_VERSION);
        w.put_u8(kind.as_u8());
        w.put_u8(subtag);
        w.put_f64(0.0);
    }

    /// Parses and validates the header without consuming the body.
    pub fn peek(body: &[u8]) -> Result<CodedHeader, SnapshotError> {
        let mut r = Reader::new(body);
        Self::read(&mut r)
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> Result<CodedHeader, SnapshotError> {
        let version = r.get_u8()?;
        if version != CODEC_WIRE_VERSION {
            return Err(SnapshotError::Corrupt(format!(
                "unsupported codec wire version {version}"
            )));
        }
        let kind = CodecKind::from_u8(r.get_u8()?)
            .ok_or_else(|| SnapshotError::Corrupt("unknown codec kind".into()))?;
        let tag = r.get_u8()?;
        if tag > subtag::STALE_FULL {
            return Err(SnapshotError::Corrupt(format!(
                "unknown codec subtag {tag}"
            )));
        }
        let err_bound = r.get_f64()?;
        if err_bound.to_bits() != 0 {
            return Err(SnapshotError::Corrupt(format!(
                "codec error-bound slot holds {err_bound}, not 0.0"
            )));
        }
        Ok(CodedHeader { kind, subtag: tag })
    }
}

pub(crate) fn read_header_expecting(
    r: &mut Reader<'_>,
    kind: CodecKind,
) -> Result<CodedHeader, SnapshotError> {
    let h = CodedHeader::read(r)?;
    if h.kind != kind {
        return Err(SnapshotError::Corrupt(format!(
            "codec kind mismatch: payload is {}, local codec is {kind}",
            h.kind
        )));
    }
    Ok(h)
}

pub(crate) fn expect_exhausted(r: &Reader<'_>) -> Result<(), SnapshotError> {
    if r.is_exhausted() {
        Ok(())
    } else {
        Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes after coded payload",
            r.remaining()
        )))
    }
}

/// Length of the node wire's identity payload for one table leg: the
/// 1-byte wire tag plus the dense checkpoint body
/// ([`QTablePair::ENCODED_LEN`]). Constant — the dense encoding's size
/// does not depend on table contents — so it doubles as the byte baseline
/// `codec.bytes_saved` is accounted against.
pub fn identity_payload_len() -> usize {
    1 + QTablePair::ENCODED_LEN
}

/// One side of the codec-mediated push–pull exchange.
///
/// Every method is generic over the table storage ([`PairStore`]): the
/// simulator's coded rounds and the node fleets pass sparse
/// [`ArenaSlot`](glap_qlearn::ArenaSlot)s, the reference engine boxed
/// [`QTablePair`]s, and the same exchange produces the same bytes and
/// the same tables on both.
///
/// Implementations own all per-peer state; the driver only routes bytes.
/// State is mutated exclusively in `apply_push` / `apply_reply` (i.e. at
/// the moment an exchange completes on this side), so a dropped push needs
/// no rollback beyond [`push_failed`](Self::push_failed) clearing any
/// in-flight bookkeeping.
pub trait TableCodec {
    /// Which kind this codec is.
    fn kind(&self) -> CodecKind;

    /// Encodes this node's table for a push to `peer`.
    fn encode_push<S: PairStore>(&mut self, peer: PeerId, table: &S) -> Vec<u8>;

    /// Responder side: decodes a push from `peer`, merges it into `own`,
    /// and returns the coded reply body.
    fn apply_push<S: PairStore>(
        &mut self,
        peer: PeerId,
        own: &mut S,
        body: &[u8],
    ) -> Result<Vec<u8>, SnapshotError>;

    /// Initiator side: decodes `peer`'s reply to our push and folds the
    /// merged state into `own`.
    fn apply_reply<S: PairStore>(
        &mut self,
        peer: PeerId,
        own: &mut S,
        body: &[u8],
    ) -> Result<(), SnapshotError>;

    /// The push encoded for `peer` was dropped (or the peer is down);
    /// discard any in-flight bookkeeping for it.
    fn push_failed(&mut self, _peer: PeerId) {}

    /// Discards *all* per-peer state for `peer` — baselines and in-flight
    /// bookkeeping. Hosts call this after an `apply_push`/`apply_reply`
    /// error to abandon the exchange cleanly: with no baseline left, the
    /// next contact with that peer resynchronizes via `FULL`/`STALE_FULL`
    /// instead of trusting state the failed decode may have skewed.
    fn reset_peer(&mut self, _peer: PeerId) {}
}

/// Enum dispatch over the two codecs. An enum (not `dyn`) so holders such
/// as `NodeCore` keep `Clone + Debug` and checkpoint bytes stay concrete.
#[derive(Debug, Clone)]
pub enum AnyCodec {
    /// Dense bit-exact payloads.
    Identity(IdentityCodec),
    /// Per-peer versioned diffs.
    Delta(DeltaCodec),
}

impl AnyCodec {
    /// A fresh codec of the given kind with default parameters.
    pub fn new(kind: CodecKind) -> AnyCodec {
        match kind {
            CodecKind::Identity => AnyCodec::Identity(IdentityCodec),
            CodecKind::Delta => AnyCodec::Delta(DeltaCodec::default()),
        }
    }

    /// Serializes codec state (kind tag + per-peer baselines). Ordered
    /// maps make this deterministic for byte-identity checks.
    pub fn save(&self, w: &mut Writer) {
        w.put_u8(self.kind().as_u8());
        match self {
            AnyCodec::Identity(_) => {}
            AnyCodec::Delta(c) => c.save_state(w),
        }
    }

    /// Restores codec state saved by [`save`](Self::save). The stored kind
    /// must match this codec's configured kind.
    pub fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let stored = CodecKind::from_u8(r.get_u8()?)
            .ok_or_else(|| SnapshotError::Corrupt("unknown codec kind in snapshot".into()))?;
        if stored != self.kind() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot codec kind {stored} does not match configured {}",
                self.kind()
            )));
        }
        match self {
            AnyCodec::Identity(_) => Ok(()),
            AnyCodec::Delta(c) => c.restore_state(r),
        }
    }
}

impl TableCodec for AnyCodec {
    fn kind(&self) -> CodecKind {
        match self {
            AnyCodec::Identity(c) => c.kind(),
            AnyCodec::Delta(c) => c.kind(),
        }
    }

    fn encode_push<S: PairStore>(&mut self, peer: PeerId, table: &S) -> Vec<u8> {
        match self {
            AnyCodec::Identity(c) => c.encode_push(peer, table),
            AnyCodec::Delta(c) => c.encode_push(peer, table),
        }
    }

    fn apply_push<S: PairStore>(
        &mut self,
        peer: PeerId,
        own: &mut S,
        body: &[u8],
    ) -> Result<Vec<u8>, SnapshotError> {
        match self {
            AnyCodec::Identity(c) => c.apply_push(peer, own, body),
            AnyCodec::Delta(c) => c.apply_push(peer, own, body),
        }
    }

    fn apply_reply<S: PairStore>(
        &mut self,
        peer: PeerId,
        own: &mut S,
        body: &[u8],
    ) -> Result<(), SnapshotError> {
        match self {
            AnyCodec::Identity(c) => c.apply_reply(peer, own, body),
            AnyCodec::Delta(c) => c.apply_reply(peer, own, body),
        }
    }

    fn push_failed(&mut self, peer: PeerId) {
        match self {
            AnyCodec::Identity(c) => c.push_failed(peer),
            AnyCodec::Delta(c) => c.push_failed(peer),
        }
    }

    fn reset_peer(&mut self, peer: PeerId) {
        match self {
            AnyCodec::Identity(c) => c.reset_peer(peer),
            AnyCodec::Delta(c) => c.reset_peer(peer),
        }
    }
}

/// One codec instance per PM for the sim path's one `aggregation_round`,
/// where the whole fleet's tables live in one slice. The round plans its
/// exchanges first, then runs each coded one on the caller in attempt
/// order: `encode_push`, then `complete` or `push_failed`, each exchange
/// completing atomically.
#[derive(Debug, Clone)]
pub struct FleetCodecs {
    kind: CodecKind,
    codecs: Vec<AnyCodec>,
}

impl FleetCodecs {
    /// One fresh codec per PM.
    pub fn new(n: usize, kind: CodecKind) -> FleetCodecs {
        FleetCodecs {
            kind,
            codecs: (0..n).map(|_| AnyCodec::new(kind)).collect(),
        }
    }

    /// The uniform codec kind.
    pub fn kind(&self) -> CodecKind {
        self.kind
    }

    /// PM `p` encodes a push for PM `q`.
    pub fn encode_push<S: PairStore>(&mut self, p: usize, q: usize, tables: &[S]) -> Vec<u8> {
        self.codecs[p].encode_push(q as PeerId, &tables[p])
    }

    /// Completes a delivered exchange: `q` applies `p`'s push and `p`
    /// applies the reply. Returns the reply body (for byte accounting).
    pub fn complete<S: PairStore>(
        &mut self,
        p: usize,
        q: usize,
        tables: &mut [S],
        push: &[u8],
    ) -> Result<Vec<u8>, SnapshotError> {
        let (cp, cq) = pair_mut(&mut self.codecs, p, q);
        let (tp, tq) = pair_mut(tables, p, q);
        let reply = cq.apply_push(p as PeerId, tq, push)?;
        cp.apply_reply(q as PeerId, tp, &reply)?;
        Ok(reply)
    }

    /// The push from `p` to `q` was dropped.
    pub fn push_failed(&mut self, p: usize, q: usize) {
        self.codecs[p].push_failed(q as PeerId);
    }
}

fn pair_mut<T>(xs: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert_ne!(i, j, "push-pull exchange with self");
    if i < j {
        let (lo, hi) = xs.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = xs.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

#[cfg(test)]
mod tests;

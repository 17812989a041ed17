//! Per-peer versioned diffs with full-table fallback. Lossless: every
//! completed exchange leaves both sides bitwise where the legacy dense
//! exchange would have.
//!
//! ## State and versions
//!
//! For each peer the codec keeps the *baseline*: the merged table both
//! sides held when their last exchange completed, plus a version counter.
//! Baselines and in-flight pushes are [`SparseTable`]s — the visited
//! entries as ascending lists, ~2 KB per peer where a dense pair takes
//! 118 KB. The codec works on either table storage
//! ([`PairStore`](glap_qlearn::PairStore)): on a node's sparse
//! [`ArenaSlot`](glap_qlearn::ArenaSlot) a decoded push is merged in by
//! one ascending walk and the baseline is a copy of the slot's lists, so
//! no dense table is built, scanned or zero-filled per exchange.
//! Both sides update the baseline at completion, so versions advance in
//! lockstep; a `DELTA` push carries the sender's version and the receiver
//! reconstructs the sender's exact current table as `baseline + diff`.
//! First contact (no baseline) sends a sparse `FULL` table instead.
//!
//! On version mismatch — possible only if one side lost state, e.g. a
//! restored snapshot from a different point — the receiver does *not*
//! merge; it clears the baseline and replies `STALE_FULL` with its own
//! table so both sides resynchronize (counted as `codec.fallbacks`).
//!
//! ## Exactness across interleavings
//!
//! The initiator also records the table it pushed (`in_flight`). The reply
//! diff is computed against exactly that table, so `apply_reply`
//! reconstructs the responder's merged result bitwise and *overwrites* the
//! initiator's pair with it — matching the legacy `table = *merged`
//! semantics even when other exchanges merged into the initiator while the
//! reply was in flight. Diffs additionally encode removals (entries the
//! sender's visited set dropped relative to the baseline, which that same
//! overwrite can cause), keeping reconstruction exact in every
//! interleaving a serialized push→reply transport can produce.
//!
//! ## Crossed exchanges
//!
//! The lockstep-version scheme assumes exchanges with one peer complete
//! one at a time. If both sides push to each other concurrently (A→B and
//! B→A in the same round), each completion installs *its own* merged
//! table as the baseline — two different tables at the same version when
//! a third party's merge interleaves — and the next `DELTA` would
//! reconstruct a wrong table while the version check still passes. Two
//! guards close that hole:
//!
//! * A push arriving while this side has its own push to the same peer in
//!   flight is answered `STALE_FULL` without merging: both sides drop the
//!   baseline and resynchronize via `FULL` on next contact (exact
//!   arithmetic throughout — the fallback merges full `f64` tables, it
//!   just spends full-table bytes).
//! * Every `DELTA` push carries a content hash of the sender's baseline
//!   next to the version. Mismatched baselines at equal versions — any
//!   desync path the in-flight check does not see — are detected on
//!   receipt and take the same `STALE_FULL` fallback instead of silently
//!   breaking the lossless guarantee.

use crate::sparse::{put_tables, skip_diff_pair, SparsePair};
use crate::{
    expect_exhausted, read_header_expecting, subtag, CodecKind, CodedHeader, PeerId, TableCodec,
};
use glap_qlearn::{EntryStore, PairStore};
use glap_snapshot::{Reader, SnapshotError, Writer};
use std::collections::BTreeMap;

/// The per-peer shared table state delta and priority codecs diff against.
#[derive(Debug, Clone)]
pub(crate) struct PeerBaseline {
    /// Exchange counter, advanced in lockstep on both sides.
    pub version: u64,
    /// φ_out and φ_in as of the last completed exchange.
    pub tables: SparsePair,
}

#[inline]
fn fnv_mix(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Content hash of a baseline table pair (visited entries: index + value
/// bits, FNV-1a). Carried alongside the version in every `DELTA` push so
/// mismatched baselines at equal versions are detected instead of
/// reconstructing a wrong table.
pub(crate) fn baseline_hash(base: &SparsePair) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, v) in base.out.entries().chain(base.r#in.entries()) {
        fnv_mix(&mut h, i as u64);
        fnv_mix(&mut h, v.to_bits());
    }
    h
}

pub(crate) fn save_baselines(peers: &BTreeMap<PeerId, PeerBaseline>, w: &mut Writer) {
    w.put_usize(peers.len());
    for (&peer, base) in peers {
        w.put_u32(peer);
        w.put_u64(base.version);
        base.tables.put(w);
    }
}

pub(crate) fn restore_baselines(
    r: &mut Reader<'_>,
) -> Result<BTreeMap<PeerId, PeerBaseline>, SnapshotError> {
    let n = r.get_usize()?;
    let mut peers = BTreeMap::new();
    for _ in 0..n {
        let peer = r.get_u32()?;
        let version = r.get_u64()?;
        let tables = SparsePair::get(r)?;
        if peers
            .insert(peer, PeerBaseline { version, tables })
            .is_some()
        {
            return Err(SnapshotError::Corrupt(format!(
                "duplicate peer {peer} in codec snapshot"
            )));
        }
    }
    Ok(peers)
}

#[cfg(test)]
pub(crate) fn baselines_heap_bytes(peers: &BTreeMap<PeerId, PeerBaseline>) -> usize {
    peers.values().map(|b| b.tables.heap_bytes()).sum()
}

/// The delta (lossless diff) codec.
#[derive(Debug, Clone, Default)]
pub struct DeltaCodec {
    peers: BTreeMap<PeerId, PeerBaseline>,
    /// Table contents as of each not-yet-answered push, keyed by peer.
    in_flight: BTreeMap<PeerId, SparsePair>,
}

impl DeltaCodec {
    pub(crate) fn save_state(&self, w: &mut Writer) {
        save_baselines(&self.peers, w);
        w.put_usize(self.in_flight.len());
        for (&peer, pushed) in &self.in_flight {
            w.put_u32(peer);
            pushed.put(w);
        }
    }

    pub(crate) fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        self.peers = restore_baselines(r)?;
        self.in_flight.clear();
        let n = r.get_usize()?;
        for _ in 0..n {
            let peer = r.get_u32()?;
            if self.in_flight.insert(peer, SparsePair::get(r)?).is_some() {
                return Err(SnapshotError::Corrupt(format!(
                    "duplicate in-flight peer {peer} in codec snapshot"
                )));
            }
        }
        Ok(())
    }

    /// Baselines held and in-flight pushes pending, and the heap bytes
    /// their entry lists occupy.
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> (usize, usize, usize) {
        (
            self.peers.len(),
            self.in_flight.len(),
            baselines_heap_bytes(&self.peers)
                + self
                    .in_flight
                    .values()
                    .map(SparsePair::heap_bytes)
                    .sum::<usize>(),
        )
    }

    /// Merges the reconstructed pusher table into `own`, records the new
    /// baseline, and encodes the reply diff (merged vs. what the pusher
    /// already has).
    fn merge_and_reply<S: PairStore>(
        &mut self,
        peer: PeerId,
        own: &mut S,
        pushed: &SparsePair,
        new_version: u64,
    ) -> Vec<u8> {
        pushed.merge_into(own);
        let merged = SparsePair::from_store(own);
        let mut w = Writer::new();
        CodedHeader::write(CodecKind::Delta, subtag::DELTA, 0.0, &mut w);
        w.put_u64(new_version);
        merged.put_diff(&mut w, pushed);
        self.peers.insert(
            peer,
            PeerBaseline {
                version: new_version,
                tables: merged,
            },
        );
        w.into_bytes()
    }

    /// Declines to merge a push: drops the baseline and replies with our
    /// full table so both sides resynchronize (counted as
    /// `codec.fallbacks` by the transports).
    fn stale_reply<S: PairStore>(&mut self, peer: PeerId, own: &S) -> Vec<u8> {
        self.peers.remove(&peer);
        stale_full(CodecKind::Delta, own)
    }
}

/// A `STALE_FULL` body: `own`'s full table.
pub(crate) fn stale_full<S: PairStore>(kind: CodecKind, own: &S) -> Vec<u8> {
    let mut w = Writer::new();
    CodedHeader::write(kind, subtag::STALE_FULL, 0.0, &mut w);
    put_tables(&mut w, own.tables());
    w.into_bytes()
}

impl TableCodec for DeltaCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Delta
    }

    fn encode_push<S: PairStore>(&mut self, peer: PeerId, table: &S) -> Vec<u8> {
        let pushed = SparsePair::from_store(table);
        let mut w = Writer::new();
        match self.peers.get(&peer) {
            None => {
                CodedHeader::write(CodecKind::Delta, subtag::FULL, 0.0, &mut w);
                pushed.put(&mut w);
            }
            Some(base) => {
                CodedHeader::write(CodecKind::Delta, subtag::DELTA, 0.0, &mut w);
                w.put_u64(base.version);
                w.put_u64(baseline_hash(&base.tables));
                pushed.put_diff(&mut w, &base.tables);
            }
        }
        self.in_flight.insert(peer, pushed);
        w.into_bytes()
    }

    fn apply_push<S: PairStore>(
        &mut self,
        peer: PeerId,
        own: &mut S,
        body: &[u8],
    ) -> Result<Vec<u8>, SnapshotError> {
        let mut r = Reader::new(body);
        let h = read_header_expecting(&mut r, CodecKind::Delta)?;
        match h.subtag {
            subtag::FULL => {
                let pushed = SparsePair::get(&mut r)?;
                expect_exhausted(&r)?;
                if self.in_flight.contains_key(&peer) {
                    // Crossed exchange (module docs): completing both
                    // legs would install divergent baselines at the same
                    // version, so decline and resynchronize.
                    return Ok(self.stale_reply(peer, own));
                }
                Ok(self.merge_and_reply(peer, own, &pushed, 1))
            }
            subtag::DELTA => {
                let version = r.get_u64()?;
                let hash = r.get_u64()?;
                let fresh = match self.peers.get(&peer) {
                    Some(b) if !self.in_flight.contains_key(&peer) => {
                        (b.version == version && baseline_hash(&b.tables) == hash).then_some(b)
                    }
                    _ => None,
                };
                if let Some(base) = fresh {
                    let pushed = SparsePair::get_diff(&mut r, &base.tables)?;
                    expect_exhausted(&r)?;
                    Ok(self.merge_and_reply(peer, own, &pushed, version + 1))
                } else {
                    // Stale or mismatched baseline, or a crossed
                    // exchange: validate the body shape but do not merge
                    // — reply with our full table so both sides
                    // resynchronize on the next exchange.
                    skip_diff_pair(&mut r)?;
                    expect_exhausted(&r)?;
                    Ok(self.stale_reply(peer, own))
                }
            }
            other => Err(SnapshotError::Corrupt(format!(
                "delta codec cannot apply subtag {other} as a push"
            ))),
        }
    }

    fn apply_reply<S: PairStore>(
        &mut self,
        peer: PeerId,
        own: &mut S,
        body: &[u8],
    ) -> Result<(), SnapshotError> {
        let mut r = Reader::new(body);
        let h = read_header_expecting(&mut r, CodecKind::Delta)?;
        match h.subtag {
            subtag::DELTA => {
                let pushed = self.in_flight.get(&peer).ok_or_else(|| {
                    SnapshotError::Corrupt(format!(
                        "delta reply from {peer} without a push in flight"
                    ))
                })?;
                let version = r.get_u64()?;
                let merged = SparsePair::get_diff(&mut r, pushed)?;
                expect_exhausted(&r)?;
                // Adopt the responder's merged result wholesale — the
                // legacy `table = *merged` semantics — and keep it as the
                // new baseline.
                let [out, r#in] = own.tables_mut();
                out.assign_entries(merged.out.entries());
                r#in.assign_entries(merged.r#in.entries());
                self.in_flight.remove(&peer);
                self.peers.insert(
                    peer,
                    PeerBaseline {
                        version,
                        tables: merged,
                    },
                );
                Ok(())
            }
            subtag::STALE_FULL => {
                let theirs = SparsePair::get(&mut r)?;
                expect_exhausted(&r)?;
                // One-sided merge: the responder did not merge our push,
                // but averaging their table in is still diameter-safe.
                theirs.merge_into(own);
                self.in_flight.remove(&peer);
                self.peers.remove(&peer);
                Ok(())
            }
            other => Err(SnapshotError::Corrupt(format!(
                "delta codec cannot apply subtag {other} as a reply"
            ))),
        }
    }

    fn push_failed(&mut self, peer: PeerId) {
        self.in_flight.remove(&peer);
    }

    fn reset_peer(&mut self, peer: PeerId) {
        self.peers.remove(&peer);
        self.in_flight.remove(&peer);
    }
}

//! Priority gossip: spend each exchange's bandwidth on the table regions
//! that diverged most since the last exchange with that peer, deferring
//! the rest to later rounds (after Frey et al.'s differentiated-
//! consistency gossip).
//!
//! A *region* is one Q-table row (81 entries); a pair has
//! [`NUM_REGIONS`] = 162 of them (φ_out rows first, then φ_in). Each push
//! selects the top-k regions by divergence against the per-peer baseline —
//! the sum of |current − baseline| over the row, with a small floor for
//! entries the baseline has never seen so new knowledge always scores —
//! and sends those rows at full `f64` precision. The responder merges
//! them with the usual average/adopt rule and replies with the merged
//! contents of the *same* regions; both sides then advance the baseline
//! for exactly the exchanged regions, so their divergence drops to ~zero
//! and the next exchange naturally rotates to other rows. Under repeated
//! contact the union of exchanges covers every divergent region
//! (⌈162/k⌉ exchanges suffice when nothing else changes), which the
//! eventually-complete proptest pins.
//!
//! Partial merges stay diameter-safe: every adopted value either already
//! exists at the peer or is a pairwise average, the same operations
//! Theorem 1's non-increasing-diameter argument covers — a region left
//! unsent merely keeps its current (in-hull) values.
//!
//! First contact falls back to a sparse full-table exchange; a version
//! mismatch resynchronizes via `STALE_FULL` exactly like the delta codec.
//!
//! Crossed exchanges (both sides pushing to each other concurrently)
//! share the delta codec's hazard: each completion would install its own
//! merged contents as the baseline, leaving the two sides with different
//! baselines at the same version — divergence would then be scored
//! against a table that never crossed the wire. The codec tracks which
//! peers it has a push in flight to and answers a crossed push with
//! `STALE_FULL` instead of merging, so both sides drop the baseline and
//! resynchronize via a full exchange on next contact (merges stay
//! in-hull throughout; the cost is one full-table fallback).

use crate::delta::{restore_baselines, save_baselines, stale_full, PeerBaseline};
use crate::sparse::{put_tables, SparsePair};
use crate::{
    expect_exhausted, read_header_expecting, subtag, CodecKind, CodedHeader, PeerId, TableCodec,
};
use glap_qlearn::{EntryStore, PairStore, SparseTable, NUM_STATES};
use glap_snapshot::{Reader, SnapshotError, Writer};
use std::collections::{BTreeMap, BTreeSet};

/// Regions per table pair: 81 φ_out rows + 81 φ_in rows.
pub const NUM_REGIONS: usize = 2 * NUM_STATES;

/// Default top-k regions per exchange (~10% of the pair per push).
pub const DEFAULT_PRIORITY_REGIONS: usize = 16;

/// Divergence floor for entries the baseline has never seen: guarantees a
/// region holding only new-but-zero-valued knowledge still gets scheduled.
const MIN_NEW_ENTRY_SCORE: f64 = 1e-12;

/// The priority (top-k divergent rows) codec.
#[derive(Debug, Clone)]
pub struct PriorityCodec {
    k: usize,
    peers: BTreeMap<PeerId, PeerBaseline>,
    /// Peers with a not-yet-answered push from this side (crossed-
    /// exchange detection; see the module docs).
    in_flight: BTreeSet<PeerId>,
}

impl Default for PriorityCodec {
    fn default() -> Self {
        PriorityCodec::new(DEFAULT_PRIORITY_REGIONS)
    }
}

/// The member of a `[φ_out, φ_in]` pair that `region` lies in; the row
/// inside it is `region % NUM_STATES`.
fn side<T>(region: usize, [out, r#in]: [T; 2]) -> T {
    if region < NUM_STATES {
        out
    } else {
        r#in
    }
}

/// Divergence of `cur`'s row against the baseline's: one ascending walk
/// over the row's visited entries and the baseline row's key range.
fn region_score(cur: &impl EntryStore, base: &SparseTable, row: usize) -> f64 {
    let (keys, values) = base.row(row);
    let mut j = 0;
    let mut score = 0.0;
    for (i, v) in cur.row_entries(row) {
        while j < keys.len() && (keys[j] as usize) < i {
            j += 1;
        }
        if j < keys.len() && keys[j] as usize == i {
            score += (v - values[j]).abs();
        } else {
            score += v.abs().max(MIN_NEW_ENTRY_SCORE);
        }
    }
    score
}

/// `u16 region, u8 count, count × (u8 offset, f64 value)` — every visited
/// entry of the row, offsets ascending.
fn put_region<S: PairStore>(w: &mut Writer, pair: &S, region: usize) {
    let row = region % NUM_STATES;
    let entries = side(region, pair.tables()).row_entries(row);
    w.put_u16(region as u16);
    w.put_u8(entries.clone().count() as u8);
    for (i, v) in entries {
        w.put_u8((i - row * NUM_STATES) as u8);
        w.put_f64(v);
    }
}

/// Decoded regions: `(region, its entries as (flat index, value))`.
type Regions = Vec<(usize, Vec<(usize, f64)>)>;

fn get_regions(r: &mut Reader<'_>) -> Result<Regions, SnapshotError> {
    let n = r.get_u16()? as usize;
    if n > NUM_REGIONS {
        return Err(SnapshotError::Corrupt(format!(
            "priority payload claims {n} regions (max {NUM_REGIONS})"
        )));
    }
    let mut regions = Vec::with_capacity(n);
    for _ in 0..n {
        let region = r.get_u16()? as usize;
        if region >= NUM_REGIONS {
            return Err(SnapshotError::Corrupt(format!(
                "priority region {region} out of range"
            )));
        }
        let count = r.get_u8()? as usize;
        if count > NUM_STATES {
            return Err(SnapshotError::Corrupt(format!(
                "priority region claims {count} entries (max {NUM_STATES})"
            )));
        }
        let row = region % NUM_STATES;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let o = r.get_u8()? as usize;
            if o >= NUM_STATES {
                return Err(SnapshotError::Corrupt(format!(
                    "priority entry offset {o} out of range"
                )));
            }
            entries.push((row * NUM_STATES + o, r.get_f64()?));
        }
        regions.push((region, entries));
    }
    Ok(regions)
}

impl PriorityCodec {
    /// A codec sending at most `k` regions per exchange.
    pub fn new(k: usize) -> PriorityCodec {
        PriorityCodec {
            k: k.clamp(1, NUM_REGIONS),
            peers: BTreeMap::new(),
            in_flight: BTreeSet::new(),
        }
    }

    pub(crate) fn save_state(&self, w: &mut Writer) {
        w.put_usize(self.k);
        save_baselines(&self.peers, w);
        w.put_usize(self.in_flight.len());
        for &peer in &self.in_flight {
            w.put_u32(peer);
        }
    }

    pub(crate) fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let k = r.get_usize()?;
        if k == 0 || k > NUM_REGIONS {
            return Err(SnapshotError::Corrupt(format!(
                "priority k {k} out of range in snapshot"
            )));
        }
        self.k = k;
        self.peers = restore_baselines(r)?;
        self.in_flight.clear();
        let n = r.get_usize()?;
        for _ in 0..n {
            if !self.in_flight.insert(r.get_u32()?) {
                return Err(SnapshotError::Corrupt(
                    "duplicate in-flight peer in priority snapshot".into(),
                ));
            }
        }
        Ok(())
    }

    /// Baselines held and in-flight pushes pending, and the heap bytes
    /// the baselines' entry lists occupy.
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> (usize, usize, usize) {
        (
            self.peers.len(),
            self.in_flight.len(),
            crate::delta::baselines_heap_bytes(&self.peers),
        )
    }

    /// Top-k regions by divergence, deterministically ordered (score
    /// descending, region index ascending); zero-score regions are never
    /// sent.
    fn select_regions<S: PairStore>(&self, table: &S, base: &SparsePair) -> Vec<usize> {
        let mut scored: Vec<(f64, usize)> = (0..NUM_REGIONS)
            .filter_map(|region| {
                let score = region_score(
                    side(region, table.tables()),
                    side(region, [&base.out, &base.r#in]),
                    region % NUM_STATES,
                );
                (score > 0.0).then_some((score, region))
            })
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        scored.truncate(self.k);
        scored.into_iter().map(|(_, region)| region).collect()
    }

    fn stale_reply<S: PairStore>(&mut self, peer: PeerId, own: &S) -> Vec<u8> {
        self.peers.remove(&peer);
        stale_full(CodecKind::Priority, own)
    }
}

/// Sets `entries` into region `region` of the baseline.
fn set_baseline_region(
    base: &mut SparsePair,
    region: usize,
    entries: impl Iterator<Item = (usize, f64)>,
) {
    side(region, [&mut base.out, &mut base.r#in]).set_entries(entries);
}

impl TableCodec for PriorityCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Priority
    }

    fn encode_push<S: PairStore>(&mut self, peer: PeerId, table: &S) -> Vec<u8> {
        self.in_flight.insert(peer);
        let mut w = Writer::new();
        match self.peers.get(&peer) {
            None => {
                CodedHeader::write(CodecKind::Priority, subtag::FULL, 0.0, &mut w);
                put_tables(&mut w, table.tables());
            }
            Some(base) => {
                let regions = self.select_regions(table, &base.tables);
                CodedHeader::write(CodecKind::Priority, subtag::REGIONS, 0.0, &mut w);
                w.put_u64(base.version);
                w.put_u16(regions.len() as u16);
                for &region in &regions {
                    put_region(&mut w, table, region);
                }
            }
        }
        w.into_bytes()
    }

    fn apply_push<S: PairStore>(
        &mut self,
        peer: PeerId,
        own: &mut S,
        body: &[u8],
    ) -> Result<Vec<u8>, SnapshotError> {
        let mut r = Reader::new(body);
        let h = read_header_expecting(&mut r, CodecKind::Priority)?;
        match h.subtag {
            subtag::FULL => {
                let pushed = SparsePair::get(&mut r)?;
                expect_exhausted(&r)?;
                if self.in_flight.contains(&peer) {
                    // Crossed exchange (module docs): decline to merge
                    // and resynchronize rather than install divergent
                    // baselines at the same version.
                    return Ok(self.stale_reply(peer, own));
                }
                pushed.merge_into(own);
                // The reply is our full merged table, so the baseline (=
                // exactly what crossed the wire) is our merged table.
                let merged = SparsePair::from_store(own);
                let mut w = Writer::new();
                CodedHeader::write(CodecKind::Priority, subtag::FULL, 0.0, &mut w);
                merged.put(&mut w);
                self.peers.insert(
                    peer,
                    PeerBaseline {
                        version: 1,
                        tables: merged,
                    },
                );
                Ok(w.into_bytes())
            }
            subtag::REGIONS => {
                let version = r.get_u64()?;
                let regions = get_regions(&mut r)?;
                expect_exhausted(&r)?;
                let base = match self.peers.get_mut(&peer) {
                    Some(b) if b.version == version && !self.in_flight.contains(&peer) => b,
                    _ => return Ok(self.stale_reply(peer, own)),
                };
                // Merge the pushed entries: average shared, adopt new.
                for (region, entries) in &regions {
                    side(*region, own.tables_mut()).merge_entries(entries.iter().copied());
                }
                // Reply with the merged contents of the same regions and
                // advance the baseline for exactly those regions.
                let new_version = version + 1;
                let mut w = Writer::new();
                CodedHeader::write(CodecKind::Priority, subtag::REGIONS, 0.0, &mut w);
                w.put_u64(new_version);
                w.put_u16(regions.len() as u16);
                for &(region, _) in &regions {
                    put_region(&mut w, own, region);
                    let merged = side(region, own.tables()).row_entries(region % NUM_STATES);
                    set_baseline_region(&mut base.tables, region, merged);
                }
                base.version = new_version;
                Ok(w.into_bytes())
            }
            other => Err(SnapshotError::Corrupt(format!(
                "priority codec cannot apply subtag {other} as a push"
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
        let h = read_header_expecting(&mut r, CodecKind::Priority)?;
        match h.subtag {
            subtag::FULL => {
                // Reply to our first-contact full push: the responder's
                // merged table. Adopt every entry; the baseline is the
                // wire content itself (not `own`, which may hold entries
                // the responder has not seen).
                let merged = SparsePair::get(&mut r)?;
                expect_exhausted(&r)?;
                let [out, r#in] = own.tables_mut();
                out.set_entries(merged.out.entries());
                r#in.set_entries(merged.r#in.entries());
                self.peers.insert(
                    peer,
                    PeerBaseline {
                        version: 1,
                        tables: merged,
                    },
                );
            }
            subtag::REGIONS => {
                let version = r.get_u64()?;
                let regions = get_regions(&mut r)?;
                expect_exhausted(&r)?;
                let base = self.peers.entry(peer).or_insert_with(|| PeerBaseline {
                    version,
                    tables: SparsePair::default(),
                });
                base.version = version;
                // Adopt the merged regions exactly (no averaging), into
                // the table and the baseline alike.
                for (region, entries) in &regions {
                    side(*region, own.tables_mut()).set_entries(entries.iter().copied());
                    set_baseline_region(&mut base.tables, *region, entries.iter().copied());
                }
            }
            subtag::STALE_FULL => {
                let theirs = SparsePair::get(&mut r)?;
                expect_exhausted(&r)?;
                theirs.merge_into(own);
                self.peers.remove(&peer);
            }
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "priority codec cannot apply subtag {other} as a reply"
                )))
            }
        }
        self.in_flight.remove(&peer);
        Ok(())
    }

    fn push_failed(&mut self, peer: PeerId) {
        self.in_flight.remove(&peer);
    }

    fn reset_peer(&mut self, peer: PeerId) {
        self.peers.remove(&peer);
        self.in_flight.remove(&peer);
    }
}

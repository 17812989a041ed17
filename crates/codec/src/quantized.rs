//! Fixed-point table payloads: each value is sent as a `u16` offset into a
//! per-row `[min, max]` range (the "per-block scale"), cutting an entry
//! from 10 bytes (sparse index + `f64`) to 3.
//!
//! The codec is stateless and lossy. Every payload header declares the
//! *measured* worst-case dequantization error of its own contents (max
//! |exact − dequantized| over all encoded entries), so transports can
//! account a sound `codec.q_err_max` bound without trusting an a-priori
//! formula. A merge that adopts a dequantized value perturbs it by at most
//! that bound relative to the exact exchange; the bandwidth sweep feeds
//! the bound into the `ConvergenceMonitor`'s diameter-monotonicity check
//! as a tolerance.

use crate::sparse::SparsePair;
use crate::{
    expect_exhausted, read_header_expecting, subtag, CodecKind, CodedHeader, PeerId, TableCodec,
};
use glap_qlearn::{EntryStore, PairStore, NUM_STATES};
use glap_snapshot::{Reader, SnapshotError, Writer};

const Q_MAX: f64 = u16::MAX as f64;

/// The quantized (per-row fixed-point) codec. Stateless.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuantizedCodec;

/// `u16 n_rows; n_rows × (u8 row, u8 count, f64 min, f64 scale,
/// count × (u8 offset, u16 q))`, rows and offsets ascending.
/// Returns the encoded block and its measured max dequantization error.
pub(crate) fn encode_table(t: &impl EntryStore) -> (Vec<u8>, f64) {
    let mut w = Writer::new();
    let n_rows = (0..NUM_STATES)
        .filter(|&row| t.row_entries(row).next().is_some())
        .count();
    w.put_u16(n_rows as u16);
    let mut err_max = 0.0f64;
    for row in 0..NUM_STATES {
        let entries = t.row_entries(row);
        let mut count = 0usize;
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (_, v) in entries.clone() {
            count += 1;
            min = min.min(v);
            max = max.max(v);
        }
        if count == 0 {
            continue;
        }
        let scale = if max > min { (max - min) / Q_MAX } else { 0.0 };
        w.put_u8(row as u8);
        w.put_u8(count as u8);
        w.put_f64(min);
        w.put_f64(scale);
        for (i, v) in entries {
            let q = if scale > 0.0 {
                ((v - min) / scale).round().clamp(0.0, Q_MAX) as u16
            } else {
                0
            };
            err_max = err_max.max((v - dequantize(min, scale, q)).abs());
            w.put_u8((i - row * NUM_STATES) as u8);
            w.put_u16(q);
        }
    }
    (w.into_bytes(), err_max)
}

#[inline]
fn dequantize(min: f64, scale: f64, q: u16) -> f64 {
    min + q as f64 * scale
}

/// Applies a quantized block onto `t`, setting every encoded entry.
pub(crate) fn decode_table_into(
    block: &[u8],
    t: &mut impl EntryStore,
) -> Result<(), SnapshotError> {
    let mut r = Reader::new(block);
    let n_rows = r.get_u16()? as usize;
    if n_rows > NUM_STATES {
        return Err(SnapshotError::Corrupt(format!(
            "quantized table claims {n_rows} rows (max {NUM_STATES})"
        )));
    }
    let mut row_entries = Vec::with_capacity(NUM_STATES);
    for _ in 0..n_rows {
        let row = r.get_u8()? as usize;
        let count = r.get_u8()? as usize;
        if row >= NUM_STATES || count == 0 || count > NUM_STATES {
            return Err(SnapshotError::Corrupt(format!(
                "invalid quantized row {row} with {count} entries"
            )));
        }
        let min = r.get_f64()?;
        let scale = r.get_f64()?;
        if !min.is_finite() || !scale.is_finite() || scale < 0.0 {
            return Err(SnapshotError::Corrupt(
                "non-finite quantization parameters".into(),
            ));
        }
        // Finite min/scale can still reconstruct to ±inf (e.g. scale
        // ~1e304): reject the row unless its largest reconstructible
        // value is finite, so no decoded entry can inject a non-finite
        // value into a Q-table. Dequantization is monotone in q, so the
        // q = u16::MAX endpoint bounds every entry of the row.
        if !dequantize(min, scale, u16::MAX).is_finite() {
            return Err(SnapshotError::Corrupt(format!(
                "quantized row range overflows: min {min}, scale {scale}"
            )));
        }
        for _ in 0..count {
            let o = r.get_u8()? as usize;
            if o >= NUM_STATES {
                return Err(SnapshotError::Corrupt(format!(
                    "quantized entry offset {o} out of range"
                )));
            }
            let q = r.get_u16()?;
            row_entries.push((row * NUM_STATES + o, dequantize(min, scale, q)));
        }
        t.set_entries(row_entries.drain(..));
    }
    expect_exhausted(&r)
}

fn encode_pair<S: PairStore>(own: &S) -> Vec<u8> {
    let [out, r#in] = own.tables();
    let (out_block, out_err) = encode_table(out);
    let (in_block, in_err) = encode_table(r#in);
    let mut w = Writer::new();
    CodedHeader::write(
        CodecKind::Quantized,
        subtag::QUANT,
        out_err.max(in_err),
        &mut w,
    );
    w.put_bytes(&out_block);
    w.put_bytes(&in_block);
    w.into_bytes()
}

/// The dequantized entries of a whole body, decoded into sparse tables
/// before anything is applied, so a corrupt body changes nothing.
fn decode_pair(body: &[u8]) -> Result<SparsePair, SnapshotError> {
    let mut r = Reader::new(body);
    let h = read_header_expecting(&mut r, CodecKind::Quantized)?;
    if h.subtag != subtag::QUANT {
        return Err(SnapshotError::Corrupt(format!(
            "quantized codec cannot apply subtag {}",
            h.subtag
        )));
    }
    let len = r.get_len()?;
    let out_block = r.get_raw(len)?;
    let len = r.get_len()?;
    let in_block = r.get_raw(len)?;
    expect_exhausted(&r)?;
    let mut pair = SparsePair::default();
    decode_table_into(out_block, &mut pair.out)?;
    decode_table_into(in_block, &mut pair.r#in)?;
    Ok(pair)
}

impl TableCodec for QuantizedCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Quantized
    }

    fn encode_push<S: PairStore>(&mut self, _peer: PeerId, table: &S) -> Vec<u8> {
        encode_pair(table)
    }

    fn apply_push<S: PairStore>(
        &mut self,
        _peer: PeerId,
        own: &mut S,
        body: &[u8],
    ) -> Result<Vec<u8>, SnapshotError> {
        // Merging the pusher's entries into `own` is what the symmetric
        // merge with the decoded pusher leaves in `own`.
        decode_pair(body)?.merge_into(own);
        Ok(encode_pair(own))
    }

    fn apply_reply<S: PairStore>(
        &mut self,
        _peer: PeerId,
        own: &mut S,
        body: &[u8],
    ) -> Result<(), SnapshotError> {
        // The responder's merged table is a superset of what we pushed;
        // adopting every encoded entry mirrors the legacy overwrite up to
        // the declared quantization error.
        let merged = decode_pair(body)?;
        let [out, r#in] = own.tables_mut();
        out.set_entries(merged.out.entries());
        r#in.set_entries(merged.r#in.entries());
        Ok(())
    }
}

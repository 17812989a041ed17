//! [`SparsePair`] — the entry-list form the codecs keep per-peer tables
//! in — and the sparse and diff wire encodings of its [`SparseTable`]s,
//! shared by the delta and priority codecs.
//!
//! Entries are addressed by flat index `s.index() * NUM_STATES +
//! a.index()` (a `u16`: tables have 81×81 = 6561 entries) and always
//! written in ascending index order, so identical tables encode to
//! identical bytes. Decoders *require* that order — strictly ascending
//! indices in every list — because the codec state is sorted entry lists
//! and every kernel here is one ascending merge walk over two of them; a
//! body that breaks it is [`SnapshotError::Corrupt`].

use glap_qlearn::{EntryStore, PairStore, SparseTable, TABLE_LEN};
use glap_snapshot::{Reader, SnapshotError, Writer};
use std::iter::Peekable;

/// The φ_out and φ_in entry lists of one table pair: a baseline, an
/// in-flight push, or a pair just decoded off the wire.
#[derive(Debug, Clone, Default)]
pub(crate) struct SparsePair {
    pub out: SparseTable,
    pub r#in: SparseTable,
}

impl SparsePair {
    /// The visited entries of a pair of either storage (a copy of a
    /// sparse one's lists).
    pub fn from_store<S: PairStore>(pair: &S) -> Self {
        let [out, r#in] = pair.tables();
        SparsePair {
            out: out.to_sparse(),
            r#in: r#in.to_sparse(),
        }
    }

    /// Two sparse blocks: φ_out, then φ_in.
    pub fn put(&self, w: &mut Writer) {
        put_tables(w, [&self.out, &self.r#in]);
    }

    /// Inverse of [`put`](Self::put).
    pub fn get(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(SparsePair {
            out: get_sparse(r)?,
            r#in: get_sparse(r)?,
        })
    }

    /// Two diffs against `old`: φ_out, then φ_in.
    pub fn put_diff(&self, w: &mut Writer, old: &SparsePair) {
        put_diff(w, &self.out, &old.out);
        put_diff(w, &self.r#in, &old.r#in);
    }

    /// Inverse of [`put_diff`](Self::put_diff): `base` + the two diffs.
    pub fn get_diff(r: &mut Reader<'_>, base: &SparsePair) -> Result<Self, SnapshotError> {
        Ok(SparsePair {
            out: get_diff(r, &base.out)?,
            r#in: get_diff(r, &base.r#in)?,
        })
    }

    /// Algorithm 2's `UPDATE` of `own` against these entries: average
    /// shared pairs, adopt missing ones — what
    /// `QTablePair::merge_symmetric(own, peer)` leaves in `own`, through
    /// the same `kernel::average` in the same ascending order.
    pub fn merge_into<S: PairStore>(&self, own: &mut S) {
        let [out, r#in] = own.tables_mut();
        out.merge_entries(self.out.entries());
        r#in.merge_entries(self.r#in.entries());
    }

    /// Heap bytes the four entry lists hold.
    #[cfg(test)]
    pub fn heap_bytes(&self) -> usize {
        self.out.heap_bytes() + self.r#in.heap_bytes()
    }
}

/// Wire bytes of one `(u16 index, f64 value)` entry.
const ENTRY_BYTES: usize = 10;

/// Two sparse blocks, φ_out then φ_in, of either storage: per table
/// `u32 count, count × (u16 index, f64 value)` over its visited entries.
pub(crate) fn put_tables<T: EntryStore>(w: &mut Writer, tables: [&T; 2]) {
    for t in tables {
        put_entries(w, t.entries());
    }
}

fn put_entries(w: &mut Writer, entries: impl Iterator<Item = (usize, f64)> + Clone) {
    w.put_u32(entries.clone().count() as u32);
    for (i, v) in entries {
        w.put_u16(i as u16);
        w.put_f64(v);
    }
}

/// A list's `u32` length prefix, bounded by the table size.
fn get_count(r: &mut Reader<'_>, what: &str) -> Result<usize, SnapshotError> {
    let count = r.get_u32()? as usize;
    if count > TABLE_LEN {
        return Err(SnapshotError::Corrupt(format!(
            "{what} claims {count} entries (max {TABLE_LEN})"
        )));
    }
    Ok(count)
}

/// The next index of a list: inside the table and above `prev`, the
/// index before it.
fn get_index(
    r: &mut Reader<'_>,
    prev: &mut Option<usize>,
    what: &str,
) -> Result<usize, SnapshotError> {
    let i = r.get_u16()? as usize;
    if i >= TABLE_LEN || prev.is_some_and(|p| p >= i) {
        return Err(SnapshotError::Corrupt(format!(
            "{what} index {i} out of range or not ascending"
        )));
    }
    *prev = Some(i);
    Ok(i)
}

/// Decodes one sparse block written by [`put_tables`].
fn get_sparse(r: &mut Reader<'_>) -> Result<SparseTable, SnapshotError> {
    let count = get_count(r, "sparse table")?;
    // A lying count cannot reserve more than the body could hold.
    let mut t = SparseTable::with_capacity(count.min(r.remaining() / ENTRY_BYTES));
    let mut prev = None;
    for _ in 0..count {
        let i = get_index(r, &mut prev, "sparse table entry")?;
        let pushed = t.push(i, r.get_f64()?);
        debug_assert!(pushed, "get_index checked the order");
    }
    Ok(t)
}

/// The ascending merge walk over two tables' keys:
/// `(index, value in a, value in b)` for every index either holds.
fn merge_walk<'a>(
    a: &'a SparseTable,
    b: &'a SparseTable,
) -> impl Iterator<Item = (usize, Option<f64>, Option<f64>)> + Clone + 'a {
    let (mut a, mut b) = (a.entries().peekable(), b.entries().peekable());
    std::iter::from_fn(move || {
        let ka = a.peek().map_or(usize::MAX, |e| e.0);
        let kb = b.peek().map_or(usize::MAX, |e| e.0);
        let x = if ka <= kb { a.next() } else { None };
        let y = if kb <= ka { b.next() } else { None };
        let (i, _) = x.or(y)?;
        Some((i, x.map(|e| e.1), y.map(|e| e.1)))
    })
}

/// Diff of `new` against `old`:
/// `u32 n_removed, n_removed × u16 index, u32 n_upserts, n_upserts ×
/// (u16 index, f64 value)`.
///
/// Removals (visited in `old`, not in `new`) are rare — a node's visited
/// set only shrinks when a push–pull reply overwrites interleaved merges —
/// but encoding them keeps baseline reconstruction exact in every
/// interleaving, which the delta codec's losslessness depends on.
fn put_diff(w: &mut Writer, new: &SparseTable, old: &SparseTable) {
    let walk = merge_walk(new, old);
    let removed = walk.clone().filter(|&(_, n, _)| n.is_none());
    w.put_u32(removed.clone().count() as u32);
    for (i, ..) in removed {
        w.put_u16(i as u16);
    }
    put_entries(
        w,
        walk.filter_map(|(i, n, o)| {
            n.filter(|n| o.is_none_or(|o| o.to_bits() != n.to_bits()))
                .map(|n| (i, n))
        }),
    );
}

/// Appends `base`'s entries below `until` to `out`, dropping those
/// listed next in `removed` — each of which must be a `base` key.
fn keep_below<'a>(
    out: &mut SparseTable,
    base: &mut Peekable<impl Iterator<Item = (usize, f64)>>,
    removed: &mut Peekable<impl Iterator<Item = &'a usize>>,
    until: usize,
) -> Result<(), SnapshotError> {
    while let Some((i, v)) = base.next_if(|e| e.0 < until) {
        if removed.next_if(|&&x| x == i).is_none() {
            let pushed = out.push(i, v);
            debug_assert!(pushed, "base is ascending and below `until`");
        }
    }
    match removed.peek() {
        Some(&&x) if x < until => Err(SnapshotError::Corrupt(format!(
            "diff removes index {x}, which the base does not hold"
        ))),
        _ => Ok(()),
    }
}

/// Reconstructs `base` + diff: base entries not listed as removed, with
/// the upserts merged in on top — one ascending walk over the three
/// lists. Bitwise-exact inverse of [`put_diff`]
/// (`get_diff(diff(new, base), base) == new`).
fn get_diff(r: &mut Reader<'_>, base: &SparseTable) -> Result<SparseTable, SnapshotError> {
    let removed = get_removals(r)?;
    let n_upserts = get_count(r, "diff upsert list")?;
    let mut out =
        SparseTable::with_capacity(base.len() + n_upserts.min(r.remaining() / ENTRY_BYTES));
    let (mut base, mut removed) = (base.entries().peekable(), removed.iter().peekable());
    let mut prev = None;
    for _ in 0..n_upserts {
        let i = get_index(r, &mut prev, "diff upsert")?;
        keep_below(&mut out, &mut base, &mut removed, i)?;
        // An upsert replaces the base's entry, if there is one.
        base.next_if(|e| e.0 == i);
        let pushed = out.push(i, r.get_f64()?);
        debug_assert!(pushed, "upserts and kept entries ascend together");
    }
    keep_below(&mut out, &mut base, &mut removed, usize::MAX)?;
    // The reservation was an upper bound (an upsert may replace a base
    // entry); the result may be kept as a baseline.
    out.shrink_to_fit();
    Ok(out)
}

/// The removal list of a diff (usually empty, so usually no allocation).
fn get_removals(r: &mut Reader<'_>) -> Result<Vec<usize>, SnapshotError> {
    let n = get_count(r, "diff removal list")?;
    let mut prev = None;
    (0..n)
        .map(|_| get_index(r, &mut prev, "diff removal"))
        .collect()
}

/// Checks the shape of a pair's two diffs — counts, index ranges,
/// ascending order — without a base to apply them to (the stale-`DELTA`
/// path, which answers with a full table instead of reconstructing).
pub(crate) fn skip_diff_pair(r: &mut Reader<'_>) -> Result<(), SnapshotError> {
    skip_diff(r)?;
    skip_diff(r)
}

fn skip_diff(r: &mut Reader<'_>) -> Result<(), SnapshotError> {
    get_removals(r)?;
    let n_upserts = get_count(r, "diff upsert list")?;
    let mut prev = None;
    for _ in 0..n_upserts {
        get_index(r, &mut prev, "diff upsert")?;
        r.get_f64()?;
    }
    Ok(())
}

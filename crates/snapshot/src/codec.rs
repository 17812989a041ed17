//! Primitive little-endian encoding: the [`Writer`]/[`Reader`] pair all
//! [`Checkpointable`](crate::Checkpointable) implementations build on.
//!
//! Integers are fixed-width little-endian; floats are the IEEE-754 bit
//! pattern (so `save → restore → save` is byte-identical even for NaN
//! payloads and signed zeros); strings and byte blobs are
//! length-prefixed with a `u64`. The reader is strict: any read past
//! the end is [`SnapshotError::Truncated`], and helpers that decode
//! tags return [`SnapshotError::Corrupt`] on unknown values.

use crate::error::SnapshotError;

/// Append-only byte buffer with typed little-endian primitives.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// A writer that appends to `buf`, keeping its contents and its
    /// capacity: a caller that knows the encoded size pre-sizes it, and a
    /// caller re-encoding into a spent buffer clears it first.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    /// The bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64` (the format is 64-bit everywhere).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed byte blob.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Writes raw bytes with no length prefix (a body whose length the
    /// format already fixes).
    pub fn put_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends `n` zero bytes and returns them, for a caller that
    /// scatters a sparse body into a fixed-size run in place.
    pub fn put_zeroed(&mut self, n: usize) -> &mut [u8] {
        let start = self.buf.len();
        self.buf.resize(start + n, 0);
        &mut self.buf[start..]
    }

    /// Writes a length-prefixed `f64` slice.
    pub fn put_f64_slice(&mut self, xs: &[f64]) {
        self.put_u64(xs.len() as u64);
        if let Some(out) = self.presized(8 * xs.len()) {
            for (dst, x) in out.chunks_exact_mut(8).zip(xs) {
                dst.copy_from_slice(&x.to_bits().to_le_bytes());
            }
        } else {
            for &x in xs {
                self.put_f64(x);
            }
        }
    }

    /// Writes a length-prefixed bool slice.
    pub fn put_bool_slice(&mut self, xs: &[bool]) {
        self.put_u64(xs.len() as u64);
        if let Some(out) = self.presized(xs.len()) {
            for (dst, &x) in out.iter_mut().zip(xs) {
                *dst = u8::from(x);
            }
        } else {
            for &x in xs {
                self.put_bool(x);
            }
        }
    }

    /// The next `n` bytes of the buffer, zeroed, when they fit in its
    /// spare capacity — a slice writer then fills them in one pass.
    /// `None` when they do not: the writer then appends element by
    /// element, so a growing buffer keeps exactly its doubling schedule
    /// (a bulk `reserve` would change it, and with it peak memory).
    fn presized(&mut self, n: usize) -> Option<&mut [u8]> {
        let start = self.buf.len();
        if self.buf.capacity() - start < n {
            return None;
        }
        self.buf.resize(start + n, 0);
        Some(&mut self.buf[start..])
    }
}

/// Strict sequential reader over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads the next `n` raw bytes as a borrowed slice of the input (no
    /// length prefix, no copy).
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.take(n)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn get_u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `usize` (stored as `u64`); errors only if it overflows
    /// the platform's `usize`. It is not checked against the remaining
    /// input: read an element count that sizes an allocation with
    /// [`get_count`](Self::get_count) instead.
    pub fn get_usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.get_u64()?;
        usize::try_from(v)
            .map_err(|_| SnapshotError::Corrupt(format!("length {v} overflows usize")))
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool; bytes other than 0/1 are corrupt.
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Corrupt(format!("invalid bool byte {other}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, SnapshotError> {
        let n = self.get_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("non-UTF-8 string".into()))
    }

    /// Reads a length-prefixed byte blob.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let n = self.get_len()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed `f64` slice.
    pub fn get_f64_slice(&mut self) -> Result<Vec<f64>, SnapshotError> {
        let n = self.get_count(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_f64()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed bool slice.
    pub fn get_bool_slice(&mut self) -> Result<Vec<bool>, SnapshotError> {
        let n = self.get_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_bool()?);
        }
        Ok(out)
    }

    /// A `u64` element count whose elements, `elem_bytes` each (at least
    /// one), fit in the bytes that remain — so a corrupt count fails
    /// fast with [`SnapshotError::Truncated`] instead of sizing a huge
    /// allocation. The one bound every length prefix reads through.
    pub fn get_count(&mut self, elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.get_usize()?;
        if n > self.remaining() / elem_bytes.max(1) {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    /// [`get_count`](Self::get_count) of one-byte elements: a byte or
    /// string length.
    pub fn get_len(&mut self) -> Result<usize, SnapshotError> {
        self.get_count(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u16(513);
        w.put_u32(70_000);
        w.put_u64(u64::MAX - 3);
        w.put_usize(42);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_str("hello");
        w.put_bytes(&[1, 2, 3]);
        w.put_f64_slice(&[1.5, -2.5]);
        w.put_bool_slice(&[true, false, true]);

        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 513);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_usize().unwrap(), 42);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "hello");
        assert_eq!(r.get_bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_f64_slice().unwrap(), vec![1.5, -2.5]);
        assert_eq!(r.get_bool_slice().unwrap(), vec![true, false, true]);
        assert!(r.is_exhausted());
    }

    /// A pre-sized writer takes the bulk slice path, a growing one the
    /// element-wise path; both write the same bytes, and a reused buffer
    /// keeps its capacity.
    #[test]
    fn slice_writers_match_across_presized_and_growing_buffers() {
        let xs = [1.5, -0.0, f64::NAN, f64::INFINITY, 3.0e-300];
        let bs = [true, false, false, true];
        let encode = |w: &mut Writer| {
            w.put_u8(9);
            w.put_f64_slice(&xs);
            w.put_bool_slice(&bs);
            w.put_raw(&[7, 7]);
        };
        let mut growing = Writer::new();
        encode(&mut growing);
        let growing = growing.into_bytes();
        let mut presized = Writer::from_vec(Vec::with_capacity(256));
        encode(&mut presized);
        let presized = presized.into_bytes();
        assert_eq!(growing, presized);
        assert_eq!(presized.capacity(), 256);

        let mut r = Reader::new(&growing);
        assert_eq!(r.get_u8().unwrap(), 9);
        let back = r.get_f64_slice().unwrap();
        assert_eq!(
            back.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(r.get_bool_slice().unwrap(), bs);
        assert_eq!(r.get_raw(2).unwrap(), &[7, 7]);
        assert_eq!(r.get_raw(1).unwrap_err(), SnapshotError::Truncated);
        assert!(r.is_exhausted());
    }

    #[test]
    fn reads_past_end_are_truncated() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.get_u64().unwrap_err(), SnapshotError::Truncated);
    }

    #[test]
    fn corrupt_length_prefix_is_rejected_without_allocation() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // absurd length prefix
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let e = r.get_bytes().unwrap_err();
        assert!(matches!(
            e,
            SnapshotError::Truncated | SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn counts_are_bounded_by_their_element_size() {
        let mut w = Writer::new();
        w.put_u64(2);
        w.put_raw(&[0; 16]);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).get_count(8).unwrap(), 2);
        assert_eq!(
            Reader::new(&bytes).get_count(16),
            Err(SnapshotError::Truncated)
        );
        assert_eq!(
            Reader::new(&bytes).get_count(9),
            Err(SnapshotError::Truncated)
        );
    }

    #[test]
    fn invalid_bool_byte_is_corrupt() {
        let mut r = Reader::new(&[9]);
        assert!(matches!(
            r.get_bool().unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }
}

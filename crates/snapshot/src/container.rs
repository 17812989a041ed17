//! The versioned section container: magic, format version, named
//! sections with per-section CRC-32. See the crate docs for the exact
//! byte layout.

use crate::codec::{Reader, Writer};
use crate::crc32;
use crate::error::SnapshotError;

/// The 8-byte file magic.
pub const MAGIC: &[u8; 8] = b"GLAPSNAP";

/// The container format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 1;

/// Builds a snapshot: named sections appended in order, then encoded
/// with [`SnapshotBuilder::encode`].
#[derive(Debug, Default, Clone)]
pub struct SnapshotBuilder {
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        SnapshotBuilder::default()
    }

    /// Appends a section with the given payload. Section names must be
    /// unique; re-adding a name replaces the previous payload (the
    /// two-pass encode of self-referential counters relies on this).
    pub fn section(&mut self, name: &str, payload: Writer) {
        let payload = payload.into_bytes();
        if let Some(slot) = self.sections.iter_mut().find(|(n, _)| n == name) {
            slot.1 = payload;
        } else {
            self.sections.push((name.to_string(), payload));
        }
    }

    /// Encodes the container.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        let mut out = Vec::with_capacity(
            16 + self
                .sections
                .iter()
                .map(|(n, p)| n.len() + p.len() + 14)
                .sum::<usize>(),
        );
        out.extend_from_slice(MAGIC);
        w.put_u32(FORMAT_VERSION);
        w.put_u32(self.sections.len() as u32);
        out.extend_from_slice(w.bytes());
        for (name, payload) in &self.sections {
            let mut sw = Writer::new();
            sw.put_u16(name.len() as u16);
            out.extend_from_slice(sw.bytes());
            out.extend_from_slice(name.as_bytes());
            let mut hw = Writer::new();
            hw.put_u64(payload.len() as u64);
            hw.put_u32(crc32(payload));
            out.extend_from_slice(hw.bytes());
            out.extend_from_slice(payload);
        }
        out
    }
}

/// A fully validated, decoded snapshot. Construction checks the magic,
/// the format version, every declared length, and every section CRC —
/// a [`Snapshot`] in hand means the whole file was intact.
#[derive(Debug, Clone)]
pub struct Snapshot {
    sections: Vec<(String, Vec<u8>)>,
}

impl Snapshot {
    /// Decodes and fully validates a container.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < MAGIC.len() {
            return Err(if bytes.starts_with(&MAGIC[..bytes.len()]) {
                SnapshotError::Truncated
            } else {
                SnapshotError::BadMagic
            });
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let mut r = Reader::new(&bytes[MAGIC.len()..]);
        let version = r.get_u32()?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::BadVersion {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let count = r.get_u32()?;
        let mut sections = Vec::with_capacity(count.min(1024) as usize);
        for _ in 0..count {
            let name_len = r.get_u16()? as usize;
            let name = String::from_utf8(r.get_raw(name_len)?.to_vec())
                .map_err(|_| SnapshotError::Corrupt("non-UTF-8 section name".into()))?;
            let payload_len = r.get_len()?;
            let declared_crc = r.get_u32()?;
            let payload = r.get_raw(payload_len)?.to_vec();
            if crc32(&payload) != declared_crc {
                return Err(SnapshotError::BadCrc { section: name });
            }
            if sections.iter().any(|(n, _): &(String, _)| *n == name) {
                return Err(SnapshotError::Corrupt(format!(
                    "duplicate section `{name}`"
                )));
            }
            sections.push((name, payload));
        }
        if !r.is_exhausted() {
            return Err(SnapshotError::Corrupt(
                "trailing bytes after section table".into(),
            ));
        }
        Ok(Snapshot { sections })
    }

    /// Names of all sections, in file order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// A reader over a required section's payload.
    pub fn section(&self, name: &str) -> Result<Reader<'_>, SnapshotError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| Reader::new(p))
            .ok_or_else(|| SnapshotError::MissingSection(name.to_string()))
    }

    /// Whether a section is present (decoders tolerate — and skip —
    /// unknown sections; this is the append-only evolution hook).
    pub fn has_section(&self, name: &str) -> bool {
        self.sections.iter().any(|(n, _)| n == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut b = SnapshotBuilder::new();
        let mut w = Writer::new();
        w.put_u64(42);
        w.put_str("hello");
        b.section("alpha", w);
        let mut w2 = Writer::new();
        w2.put_f64_slice(&[1.0, 2.0, 3.0]);
        b.section("beta", w2);
        b.encode()
    }

    #[test]
    fn encode_decode_round_trips() {
        let bytes = sample();
        let snap = Snapshot::decode(&bytes).unwrap();
        assert_eq!(
            snap.section_names().collect::<Vec<_>>(),
            vec!["alpha", "beta"]
        );
        let mut r = snap.section("alpha").unwrap();
        assert_eq!(r.get_u64().unwrap(), 42);
        assert_eq!(r.get_str().unwrap(), "hello");
        assert!(r.is_exhausted());
    }

    #[test]
    fn re_encoding_is_byte_identical() {
        let bytes = sample();
        let snap = Snapshot::decode(&bytes).unwrap();
        let mut b = SnapshotBuilder::new();
        for name in snap.section_names().map(String::from).collect::<Vec<_>>() {
            let mut w = Writer::new();
            let mut r = snap.section(&name).unwrap();
            while !r.is_exhausted() {
                w.put_u8(r.get_u8().unwrap());
            }
            b.section(&name, w);
        }
        assert_eq!(b.encode(), bytes);
    }

    #[test]
    fn replacing_a_section_keeps_one_copy() {
        let mut b = SnapshotBuilder::new();
        let mut w = Writer::new();
        w.put_u64(1);
        b.section("x", w);
        let mut w = Writer::new();
        w.put_u64(2);
        b.section("x", w);
        let snap = Snapshot::decode(&b.encode()).unwrap();
        assert_eq!(snap.section_names().count(), 1);
        assert_eq!(snap.section("x").unwrap().get_u64().unwrap(), 2);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert_eq!(
            Snapshot::decode(&bytes).unwrap_err(),
            SnapshotError::BadMagic
        );
        assert_eq!(
            Snapshot::decode(b"short").unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = sample();
        bytes[8] = 99; // format_version LE first byte
        assert_eq!(
            Snapshot::decode(&bytes).unwrap_err(),
            SnapshotError::BadVersion {
                found: 99,
                expected: FORMAT_VERSION
            }
        );
    }

    #[test]
    fn every_truncation_is_loud() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let err = Snapshot::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated
                        | SnapshotError::BadMagic
                        | SnapshotError::BadCrc { .. }
                        | SnapshotError::BadVersion { .. }
                        | SnapshotError::Corrupt(_)
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn payload_bit_flips_fail_crc() {
        let bytes = sample();
        // Flip a bit inside the first section's payload (after magic +
        // version + count + name header).
        let payload_start = 8 + 4 + 4 + 2 + "alpha".len() + 8 + 4;
        let mut corrupt = bytes.clone();
        corrupt[payload_start] ^= 0x40;
        match Snapshot::decode(&corrupt).unwrap_err() {
            SnapshotError::BadCrc { section } => assert_eq!(section, "alpha"),
            other => panic!("expected BadCrc, got {other}"),
        }
    }

    #[test]
    fn unknown_sections_are_tolerated() {
        let mut b = SnapshotBuilder::new();
        let mut w = Writer::new();
        w.put_u64(7);
        b.section("known", w);
        let mut w = Writer::new();
        w.put_str("from-the-future");
        b.section("added_in_v7", w);
        let snap = Snapshot::decode(&b.encode()).unwrap();
        assert!(snap.has_section("added_in_v7"));
        assert_eq!(snap.section("known").unwrap().get_u64().unwrap(), 7);
    }

    #[test]
    fn missing_section_is_typed() {
        let snap = Snapshot::decode(&sample()).unwrap();
        assert_eq!(
            snap.section("gamma").unwrap_err(),
            SnapshotError::MissingSection("gamma".into())
        );
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample();
        bytes.push(0);
        assert!(matches!(
            Snapshot::decode(&bytes).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }
}

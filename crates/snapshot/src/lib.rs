//! # glap-snapshot — deterministic checkpoint/restore
//!
//! A versioned, self-describing binary container for mid-run simulation
//! state, plus the [`Checkpointable`] trait every stateful component
//! implements. The format is little-endian throughout and has no
//! external dependencies (all encoding here is hand-rolled).
//!
//! ## Container layout (format v1)
//!
//! ```text
//! magic            8 bytes   "GLAPSNAP"
//! format_version   u32       1
//! section_count    u32
//! section*         repeated:
//!     name_len     u16
//!     name         name_len bytes (UTF-8)
//!     payload_len  u64
//!     crc32        u32       IEEE CRC-32 of the payload bytes
//!     payload      payload_len bytes
//! ```
//!
//! The section table is **append-only**: decoders ignore sections they
//! do not know, so old checkpoints keep decoding as the format grows —
//! `tests/golden.rs` pins a committed v1 fixture against exactly that
//! contract. Every section's CRC is validated *before* [`Snapshot`]
//! is returned, so a corrupt file never yields a partially-loaded
//! snapshot: decoding is all-or-nothing with a typed [`SnapshotError`].
//!
//! ## Determinism contract
//!
//! A snapshot captures component state exactly (RNG cursors included),
//! so interrupt-at-round-R + restore replays the uninterrupted run
//! byte for byte. The integration tests in the experiments crate
//! enforce that end to end; this crate only promises that what was
//! saved is what restore hands back.

pub mod codec;
pub mod container;
pub mod error;
pub mod io;

pub use codec::{Reader, Writer};
pub use container::{Snapshot, SnapshotBuilder, FORMAT_VERSION, MAGIC};
pub use error::SnapshotError;
pub use io::{read_snapshot_file, write_atomic};

/// A component whose complete dynamic state can be written to and
/// reconstructed from a snapshot section.
///
/// `save` and `restore` must be exact inverses: after
/// `a.save(&mut w); b.restore(&mut Reader::new(w.bytes()))`, a second
/// `b.save(..)` must produce identical bytes (the proptests in this
/// crate and the per-component tests pin this). `restore` operates on
/// a structurally compatible instance (same topology sizes) and must
/// never leave `self` partially updated on error paths that the caller
/// could observe — callers treat any `Err` as "discard this instance".
pub trait Checkpointable {
    /// Serializes the complete dynamic state into `w`.
    fn save(&self, w: &mut Writer);

    /// Overwrites `self` from serialized state.
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError>;
}

/// Computes the IEEE CRC-32 (reflected, polynomial `0xEDB88320`) of a
/// byte slice — the per-section integrity check of the container.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Small table built on demand; snapshot encode/decode is not on the
    // simulation hot path.
    let mut table = [0u32; 256];
    for (i, entry) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *entry = c;
    }
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }
}

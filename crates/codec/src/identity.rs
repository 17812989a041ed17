//! Bit-exact dense payloads: the table's checkpoint encoding behind a
//! coded header.
//!
//! The node wire carries identity exchanges on its own table legs
//! (`TAG_AGG_PUSH` / `TAG_AGG_REPLY`), so this implementation is
//! exercised by the sim-path sweeps and the benchmark — it exists so
//! every [`CodecKind`] has a uniform [`TableCodec`] behind it and the
//! dense encoding has a measured encode/exchange cost. Both apply sides
//! work on a [`DensePairView`] of the body, as the node's table legs do:
//! a push merges from the body and the reply is encoded from `own`, a
//! reply overwrites `own` in place.

use crate::{read_header_expecting, subtag, CodecKind, CodedHeader, PeerId, TableCodec};
use glap_qlearn::{DensePairView, PairStore, QTablePair};
use glap_snapshot::{Reader, SnapshotError, Writer};

/// The identity (dense, lossless) codec. Stateless.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityCodec;

fn encode<S: PairStore>(table: &S) -> Vec<u8> {
    let mut w = Writer::from_vec(Vec::with_capacity(
        CodedHeader::LEN + QTablePair::ENCODED_LEN,
    ));
    CodedHeader::write(CodecKind::Identity, subtag::FULL, &mut w);
    table.save(&mut w);
    w.into_bytes()
}

/// The header-checked body: a dense pair and nothing after it.
fn parse(body: &[u8]) -> Result<DensePairView<'_>, SnapshotError> {
    let mut r = Reader::new(body);
    read_header_expecting(&mut r, CodecKind::Identity)?;
    DensePairView::parse(&body[CodedHeader::LEN..])
}

impl TableCodec for IdentityCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Identity
    }

    fn encode_push<S: PairStore>(&mut self, _peer: PeerId, table: &S) -> Vec<u8> {
        encode(table)
    }

    fn apply_push<S: PairStore>(
        &mut self,
        _peer: PeerId,
        own: &mut S,
        body: &[u8],
    ) -> Result<Vec<u8>, SnapshotError> {
        parse(body)?.merge_into(own);
        Ok(encode(own))
    }

    fn apply_reply<S: PairStore>(
        &mut self,
        _peer: PeerId,
        own: &mut S,
        body: &[u8],
    ) -> Result<(), SnapshotError> {
        parse(body)?.restore_into(own);
        Ok(())
    }
}

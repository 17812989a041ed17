//! The [`Transport`] abstraction: how a fleet of [`NodeCore`]s is
//! hosted and how [`NodeInput`]s reach them.
//!
//! The driver ([`NodeRuntime`](crate::NodeRuntime)) is transport-generic:
//! it decides *what* happens (the seeded delivery schedule, the fault
//! fates, the telemetry) and the transport decides *where* the cores
//! live — in a plain `Vec` stepped inline ([`SimTransport`]) or behind
//! real mpsc channels on a worker pool
//! ([`ChannelTransport`](crate::ChannelTransport)). Both return each
//! node's outgoing messages as **encoded** wire payloads, so byte
//! accounting and message routing are identical across transports.

use crate::core::{NodeCore, NodeInput, TickKind};
use glap::prelude::{Checkpointable, GlapConfig, Reader, SnapshotError, Writer};
use glap_cyclon::NodeId;
use glap_qlearn::{ArenaSlot, PairStore, QTablePair};

/// Encoded outgoing traffic: `(destination, wire payload)` pairs.
pub type Routed = Vec<(NodeId, Vec<u8>)>;

/// Hosts N [`NodeCore`]s and routes inputs to them.
pub trait Transport {
    /// Number of nodes hosted.
    fn n_nodes(&self) -> usize;

    /// Delivers one input to one node, returning the node's outgoing
    /// messages as `(destination, encoded payload)` pairs.
    fn dispatch(&mut self, node: NodeId, input: NodeInput) -> Routed;

    /// Runs the deferred `TrainLocal` tick on every node. Training
    /// emits no messages and each node draws only its private RNG, so
    /// transports are free to run the nodes concurrently.
    fn train_all(&mut self);

    /// Serializes every node (ascending id order) into `w`, one
    /// length-prefixed record per node — the framing is part of the
    /// format, so a snapshot taken on one transport restores on any
    /// other.
    fn save_nodes(&mut self, w: &mut Writer);

    /// Restores every node (ascending id order) from `r` (the framing
    /// written by [`Transport::save_nodes`], whichever transport wrote
    /// it).
    fn restore_nodes(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError>;

    /// Tears the transport down, yielding each node's Q-table pair in
    /// id order.
    fn into_tables(self) -> Vec<QTablePair>
    where
        Self: Sized;

    /// Tears the transport down, yielding each node's tables in id order
    /// in the nodes' own sparse storage. The provided form converts
    /// [`into_tables`](Transport::into_tables)' pairs; this crate's
    /// transports hand their slots over without building a dense pair.
    fn into_slots(self) -> Vec<ArenaSlot>
    where
        Self: Sized,
    {
        self.into_tables().iter().map(ArenaSlot::from).collect()
    }
}

/// The in-process transport: nodes live in a `Vec` and every input is
/// handled inline on the caller's thread. This is the oracle the
/// channel transport must match byte-for-byte.
pub struct SimTransport {
    nodes: Vec<NodeCore>,
}

impl SimTransport {
    /// `n` fresh nodes with ids `0..n`.
    pub fn new(n: usize, cfg: &GlapConfig, master_seed: u64) -> SimTransport {
        SimTransport {
            nodes: (0..n as NodeId)
                .map(|id| NodeCore::new(id, cfg, master_seed))
                .collect(),
        }
    }

    /// Direct access for tests and diagnostics.
    pub fn node(&self, id: NodeId) -> &NodeCore {
        &self.nodes[id as usize]
    }
}

impl Transport for SimTransport {
    fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn dispatch(&mut self, node: NodeId, input: NodeInput) -> Routed {
        self.nodes[node as usize].handle(input)
    }

    fn train_all(&mut self) {
        for node in &mut self.nodes {
            let outs = node.handle(NodeInput::Tick(TickKind::TrainLocal));
            debug_assert!(outs.is_empty(), "TrainLocal must not emit messages");
        }
    }

    fn save_nodes(&mut self, w: &mut Writer) {
        for node in &self.nodes {
            let mut nw = Writer::new();
            node.save(&mut nw);
            w.put_bytes(&nw.into_bytes());
        }
    }

    fn restore_nodes(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        for node in &mut self.nodes {
            let bytes = r.get_bytes()?;
            let mut nr = Reader::new(&bytes);
            node.restore(&mut nr)?;
            if !nr.is_exhausted() {
                return Err(SnapshotError::Corrupt(format!(
                    "trailing bytes after node {} record",
                    node.id()
                )));
            }
        }
        Ok(())
    }

    fn into_tables(self) -> Vec<QTablePair> {
        self.into_slots().iter().map(ArenaSlot::export).collect()
    }

    fn into_slots(self) -> Vec<ArenaSlot> {
        self.nodes.into_iter().map(NodeCore::into_table).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{payload_tag, TAG_SHUFFLE_REQUEST};

    #[test]
    fn sim_transport_routes_and_encodes() {
        let cfg = GlapConfig::default();
        let mut t = SimTransport::new(4, &cfg, 11);
        for id in 0..4u32 {
            t.dispatch(
                id,
                NodeInput::Bootstrap {
                    peers: (0..4).filter(|&p| p != id).collect(),
                },
            );
        }
        let outs = t.dispatch(0, NodeInput::Tick(TickKind::Shuffle));
        assert_eq!(outs.len(), 1);
        assert_eq!(payload_tag(&outs[0].1), TAG_SHUFFLE_REQUEST);
        assert_ne!(outs[0].0, 0);
    }

    #[test]
    fn save_restore_round_trips_all_nodes() {
        let cfg = GlapConfig::default();
        let mut t = SimTransport::new(3, &cfg, 5);
        for id in 0..3u32 {
            t.dispatch(
                id,
                NodeInput::Bootstrap {
                    peers: (0..3).filter(|&p| p != id).collect(),
                },
            );
            t.dispatch(id, NodeInput::Tick(TickKind::Shuffle));
        }
        let mut w = Writer::new();
        t.save_nodes(&mut w);
        let bytes = w.into_bytes();

        let mut fresh = SimTransport::new(3, &cfg, 99);
        let mut r = Reader::new(&bytes);
        fresh.restore_nodes(&mut r).unwrap();
        assert!(r.is_exhausted());
        let mut w2 = Writer::new();
        fresh.save_nodes(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
    }
}

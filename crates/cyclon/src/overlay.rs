//! A whole-overlay driver: owns every node's Cyclon state and runs
//! synchronous shuffle rounds, mirroring how PeerSim schedules a
//! cycle-driven protocol.
//!
//! Nodes can be marked dead (a PM going to sleep leaves the overlay); their
//! descriptors age out of the live nodes' caches and contacts to them fail
//! gracefully, which is Cyclon's designed behaviour under churn.

use crate::descriptor::{Descriptor, NodeId};
use crate::node::CyclonNode;
use glap_snapshot::{Checkpointable, Reader, SnapshotError, Writer};
use glap_telemetry::{EventKind, Tracer};
use rand::seq::SliceRandom;
use rand::Rng;

/// Bytes one node descriptor occupies on the wire (id + age), used for
/// the gossip-traffic counter estimate.
const DESCRIPTOR_BYTES: u64 = 8;

/// Per-round context for [`CyclonOverlay::run_round`]: an optional
/// transport (`contact`) and an optional event tracer. `RoundIo::default()`
/// is the ideal, untraced round — every contact succeeds, nothing is
/// recorded — and costs two `Option` branches per shuffle, so the hot
/// no-op path stays free. Both fields are plain `pub`: build the struct
/// literal or start from `default()` and fill in what you need.
#[derive(Default)]
pub struct RoundIo<'a> {
    /// Transport callback: `contact(from, to)` returns whether the
    /// shuffle round trip completed in time. `None` means every contact
    /// succeeds (the ideal network). A failed contact (message dropped,
    /// reply past the timeout, target crashed) behaves exactly like
    /// contacting a dead node: the initiator gives up and the target's
    /// descriptor — already removed by `start_shuffle`, which always
    /// evicts the oldest entry — stays evicted. That *is* Cyclon's
    /// neighbour-eviction-on-non-response rule.
    pub contact: Option<&'a mut dyn FnMut(NodeId, NodeId) -> bool>,
    /// Event tracer: emits `shuffle_completed` / `shuffle_failed` per
    /// active shuffle and accounts gossip traffic under `cyclon.bytes` /
    /// `cyclon.shuffles`. Tracing reads no randomness, so any tracer
    /// (or `None`) leaves the view evolution identical.
    pub tracer: Option<&'a Tracer>,
}

impl<'a> RoundIo<'a> {
    /// A round over a caller-provided transport, untraced.
    pub fn contact(f: &'a mut dyn FnMut(NodeId, NodeId) -> bool) -> Self {
        RoundIo {
            contact: Some(f),
            tracer: None,
        }
    }

    /// An ideal-network round with an event tracer.
    pub fn traced(tracer: &'a Tracer) -> Self {
        RoundIo {
            contact: None,
            tracer: Some(tracer),
        }
    }

    /// A transport-backed, traced round.
    pub fn full(f: &'a mut dyn FnMut(NodeId, NodeId) -> bool, tracer: &'a Tracer) -> Self {
        RoundIo {
            contact: Some(f),
            tracer: Some(tracer),
        }
    }
}

/// One node's bootstrap view: `ids` (ascending) without `me`, shuffled
/// by `rng` and cut to its first `want` entries. The candidates are the
/// two runs of `ids` on either side of `me`, copied into the reused
/// `pool`, so a whole-overlay bootstrap allocates one buffer, not one
/// per node. Every overlay bootstrap ([`CyclonOverlay::bootstrap_random`]
/// and the node runtime's) draws through this, so they take the same
/// `shuffle` draws.
pub fn bootstrap_sample<'p, R: Rng + ?Sized>(
    ids: &[NodeId],
    me: NodeId,
    want: usize,
    rng: &mut R,
    pool: &'p mut Vec<NodeId>,
) -> &'p [NodeId] {
    let split = ids.partition_point(|&x| x < me);
    let after = split + usize::from(ids.get(split) == Some(&me));
    pool.clear();
    pool.extend_from_slice(&ids[..split]);
    pool.extend_from_slice(&ids[after..]);
    pool.shuffle(rng);
    &pool[..want.min(pool.len())]
}

/// All Cyclon state for an `n`-node overlay.
#[derive(Debug, Clone)]
pub struct CyclonOverlay {
    nodes: Vec<CyclonNode>,
    alive: Vec<bool>,
    /// Reused by every round; not part of the overlay's state, so
    /// neither checkpointed nor compared.
    scratch: Scratch,
}

/// [`CyclonOverlay::run_round`]'s buffers: the activation order, an
/// index permutation, and the descriptors of one shuffle's two legs.
#[derive(Debug, Clone, Default)]
struct Scratch {
    order: Vec<usize>,
    idxs: Vec<usize>,
    sent: Vec<Descriptor>,
    reply: Vec<Descriptor>,
}

impl CyclonOverlay {
    /// Creates an overlay of `n` nodes with the given per-node parameters.
    /// Views start empty; call a bootstrap method before running rounds.
    pub fn new(n: usize, cache_size: usize, shuffle_len: usize) -> Self {
        let nodes = (0..n)
            .map(|i| CyclonNode::new(i as NodeId, cache_size, shuffle_len))
            .collect();
        CyclonOverlay {
            nodes,
            alive: vec![true; n],
            scratch: Scratch::default(),
        }
    }

    /// Number of nodes (alive or dead).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the overlay has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Seeds every node's cache with uniformly random alive peers.
    pub fn bootstrap_random<R: Rng>(&mut self, rng: &mut R) {
        let n = self.nodes.len();
        let alive_ids: Vec<NodeId> = (0..n as NodeId)
            .filter(|&i| self.alive[i as usize])
            .collect();
        let mut pool = Vec::with_capacity(alive_ids.len());
        for i in 0..n {
            if !self.alive[i] {
                continue;
            }
            let want = self.nodes[i].cache_size();
            let peers = bootstrap_sample(&alive_ids, i as NodeId, want, rng, &mut pool);
            self.nodes[i].bootstrap(peers.iter().copied());
        }
    }

    /// Marks a node dead (e.g. PM went to sleep). Dead nodes stop
    /// shuffling, refuse contacts and are dropped from callers' views on
    /// failed contact.
    pub fn set_dead(&mut self, node: NodeId) {
        self.alive[node as usize] = false;
    }

    /// Marks a node alive again.
    pub fn set_alive(&mut self, node: NodeId) {
        self.alive[node as usize] = true;
    }

    /// Liveness of a node.
    #[inline]
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node as usize]
    }

    /// Immutable access to a node's Cyclon state.
    #[inline]
    pub fn node(&self, id: NodeId) -> &CyclonNode {
        &self.nodes[id as usize]
    }

    /// Mutable access to a node's Cyclon state.
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut CyclonNode {
        &mut self.nodes[id as usize]
    }

    /// Picks a uniformly random *alive* peer from `node`'s view, pruning
    /// dead entries as they are discovered (the failed-contact path).
    /// Returns `None` if the view holds no alive peer.
    pub fn random_alive_peer<R: Rng>(&mut self, node: NodeId, rng: &mut R) -> Option<NodeId> {
        Self::random_alive_peer_in(&mut self.nodes[node as usize], &self.alive, rng)
    }

    /// Splits the overlay into its disjoint per-node slots plus the
    /// shared liveness view. Each slot can then be mutated independently
    /// — this is what lets the trainer fan per-PM peer sampling out over
    /// a worker pool, each worker holding one `&mut CyclonNode` and the
    /// read-only `alive` slice. Pair with
    /// [`random_alive_peer_in`](Self::random_alive_peer_in).
    pub fn split_mut(&mut self) -> (&mut [CyclonNode], &[bool]) {
        (&mut self.nodes, &self.alive)
    }

    /// [`random_alive_peer`](Self::random_alive_peer) on one node slot
    /// obtained from [`split_mut`](Self::split_mut): same draws, same
    /// dead-entry pruning, usable from concurrent workers on disjoint
    /// slots.
    pub fn random_alive_peer_in<R: Rng>(
        node: &mut CyclonNode,
        alive: &[bool],
        rng: &mut R,
    ) -> Option<NodeId> {
        loop {
            let peer = node.random_peer(rng)?;
            if alive[peer as usize] {
                return Some(peer);
            }
            node.remove(peer);
        }
    }

    /// Runs one synchronous shuffle round: every alive node, in a random
    /// activation order, performs one active shuffle against the oldest
    /// entry of its view. Transport and tracing come from the [`RoundIo`]
    /// context — `RoundIo::default()` is the ideal, untraced round, and
    /// neither field changes the draws taken from `rng`, so any context
    /// yields the same view evolution for contacts that succeed.
    pub fn run_round<R: Rng>(&mut self, rng: &mut R, mut io: RoundIo<'_>) {
        let Scratch {
            order,
            idxs,
            sent,
            reply,
        } = &mut self.scratch;
        order.clear();
        order.extend((0..self.nodes.len()).filter(|&i| self.alive[i]));
        order.shuffle(rng);
        for &i in order.iter() {
            let Some(target) = self.nodes[i].start_shuffle_into(rng, idxs, sent) else {
                continue;
            };
            if let Some(tracer) = io.tracer {
                // Unified wire accounting: the request leg is transmitted
                // at attempt time whether or not it arrives.
                tracer.add("net.msgs", 1);
                tracer.add("net.bytes_tx", sent.len() as u64 * DESCRIPTOR_BYTES);
            }
            let delivered = match io.contact.as_mut() {
                Some(f) => f(i as NodeId, target),
                None => true,
            };
            if !self.alive[target as usize] || !delivered {
                // Contact failure (dead, crashed or timed out): descriptor
                // already dropped by start_shuffle, nothing else to do.
                if let Some(tracer) = io.tracer {
                    tracer.emit(EventKind::ShuffleFailed {
                        from: i as u32,
                        to: target,
                    });
                }
                continue;
            }
            self.nodes[target as usize].handle_shuffle_into(sent, rng, idxs, reply);
            self.nodes[i].merge(reply, sent);
            if let Some(tracer) = io.tracer {
                tracer.emit(EventKind::ShuffleCompleted {
                    from: i as u32,
                    to: target,
                });
                tracer.add("cyclon.shuffles", 1);
                tracer.add(
                    "cyclon.bytes",
                    (sent.len() + reply.len()) as u64 * DESCRIPTOR_BYTES,
                );
                // Reply leg of the completed round trip.
                tracer.add("net.msgs", 1);
                tracer.add("net.bytes_tx", reply.len() as u64 * DESCRIPTOR_BYTES);
                tracer.add(
                    "net.bytes_rx",
                    (sent.len() + reply.len()) as u64 * DESCRIPTOR_BYTES,
                );
            }
        }
    }

    /// In-degree of every node (how many alive views contain it) — used to
    /// validate the uniformity of the sampling service.
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            if !self.alive[i] {
                continue;
            }
            for nb in node.neighbors() {
                deg[nb as usize] += 1;
            }
        }
        deg
    }

    /// `true` when the directed union graph over alive nodes is weakly
    /// connected (every alive node reachable from the first alive node,
    /// treating view edges as undirected).
    pub fn is_connected(&self) -> bool {
        let n = self.nodes.len();
        let alive_count = self.alive.iter().filter(|&&a| a).count();
        if alive_count <= 1 {
            return true;
        }
        // Build undirected adjacency over alive nodes.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            if !self.alive[i] {
                continue;
            }
            for nb in node.neighbors() {
                let j = nb as usize;
                if self.alive[j] {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }
        let start = (0..n).find(|&i| self.alive[i]).expect("alive node exists");
        let mut seen = vec![false; n];
        let mut stack = vec![start];
        seen[start] = true;
        let mut visited = 0usize;
        while let Some(u) = stack.pop() {
            visited += 1;
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        visited == alive_count
    }
}

impl Checkpointable for CyclonOverlay {
    fn save(&self, w: &mut Writer) {
        w.put_usize(self.nodes.len());
        w.put_bool_slice(&self.alive);
        for node in &self.nodes {
            node.save(w);
        }
    }

    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let n = r.get_usize()?;
        if n != self.nodes.len() {
            return Err(SnapshotError::Corrupt(format!(
                "overlay has {n} nodes in snapshot, {} in world",
                self.nodes.len()
            )));
        }
        let alive = r.get_bool_slice()?;
        if alive.len() != n {
            return Err(SnapshotError::Corrupt(format!(
                "overlay alive vector has {} entries for {n} nodes",
                alive.len()
            )));
        }
        for node in &mut self.nodes {
            node.restore(r)?;
        }
        self.alive = alive;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn overlay(n: usize) -> (CyclonOverlay, SmallRng) {
        let mut o = CyclonOverlay::new(n, 8, 4);
        let mut rng = SmallRng::seed_from_u64(7);
        o.bootstrap_random(&mut rng);
        (o, rng)
    }

    #[test]
    fn bootstrap_fills_views() {
        let (o, _) = overlay(50);
        for i in 0..50 {
            assert_eq!(o.node(i).view_size(), 8);
        }
    }

    #[test]
    fn rounds_keep_overlay_connected() {
        let (mut o, mut rng) = overlay(100);
        for _ in 0..30 {
            o.run_round(&mut rng, RoundIo::default());
            assert!(o.is_connected());
        }
    }

    #[test]
    fn in_degree_concentrates_around_cache_size() {
        let (mut o, mut rng) = overlay(200);
        for _ in 0..50 {
            o.run_round(&mut rng, RoundIo::default());
        }
        let deg = o.in_degrees();
        let mean: f64 = deg.iter().sum::<usize>() as f64 / deg.len() as f64;
        // Total out-degree ≈ n * cache_size, so mean in-degree ≈ cache size.
        assert!((mean - 8.0).abs() < 1.0, "mean in-degree {mean}");
        // No pathological hub: Cyclon keeps the max in-degree within a
        // small factor of the mean.
        let max = *deg.iter().max().unwrap();
        assert!(max < 8 * 4, "max in-degree {max}");
    }

    #[test]
    fn dead_nodes_age_out_of_views() {
        let (mut o, mut rng) = overlay(60);
        for d in 0..10u32 {
            o.set_dead(d);
        }
        for _ in 0..40 {
            o.run_round(&mut rng, RoundIo::default());
        }
        for i in 10..60u32 {
            for nb in o.node(i).neighbors().collect::<Vec<_>>() {
                assert!(nb >= 10, "node {i} still references dead node {nb}");
            }
        }
    }

    #[test]
    fn random_alive_peer_prunes_dead() {
        let (mut o, mut rng) = overlay(20);
        // Kill everything except nodes 0 and 1.
        for d in 2..20u32 {
            o.set_dead(d);
        }
        for _ in 0..50 {
            if let Some(p) = o.random_alive_peer(0, &mut rng) {
                assert_eq!(p, 1);
            }
        }
    }

    #[test]
    fn split_slot_peer_sampling_matches_whole_overlay_api() {
        let (mut a, rng0) = overlay(30);
        for d in [3u32, 7, 11] {
            a.set_dead(d);
        }
        let mut b = a.clone();
        let mut rng_a = rng0.clone();
        let mut rng_b = rng0;
        for i in 0..30u32 {
            let via_whole = a.random_alive_peer(i, &mut rng_a);
            let (nodes, alive) = b.split_mut();
            let via_slot =
                CyclonOverlay::random_alive_peer_in(&mut nodes[i as usize], alive, &mut rng_b);
            assert_eq!(via_whole, via_slot, "node {i} diverged");
        }
        // Pruning must have been applied identically too.
        for i in 0..30u32 {
            let na: Vec<NodeId> = a.node(i).neighbors().collect();
            let nb: Vec<NodeId> = b.node(i).neighbors().collect();
            assert_eq!(na, nb);
        }
    }

    #[test]
    fn revived_node_rejoins_via_bootstrap() {
        let (mut o, mut rng) = overlay(30);
        o.set_dead(3);
        for _ in 0..20 {
            o.run_round(&mut rng, RoundIo::default());
        }
        o.set_alive(3);
        o.node_mut(3).bootstrap([0, 1, 2]);
        for _ in 0..10 {
            o.run_round(&mut rng, RoundIo::default());
        }
        assert!(o.is_connected());
        // Node 3 should be referenced again by someone.
        assert!(o.in_degrees()[3] > 0);
    }

    #[test]
    fn single_node_overlay_is_trivially_connected() {
        let o = CyclonOverlay::new(1, 4, 2);
        assert!(o.is_connected());
    }

    #[test]
    fn checkpoint_restore_resumes_identically() {
        let (mut a, mut rng) = overlay(40);
        a.set_dead(5);
        for _ in 0..10 {
            a.run_round(&mut rng, RoundIo::default());
        }

        let mut w = Writer::new();
        a.save(&mut w);
        let bytes = w.into_bytes();

        let mut b = CyclonOverlay::new(40, 8, 4);
        b.restore(&mut Reader::new(&bytes)).unwrap();
        let mut w2 = Writer::new();
        b.save(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
        assert!(!b.is_alive(5));

        // Identical evolution from identical RNG state.
        let mut rng_b = rng.clone();
        for _ in 0..10 {
            a.run_round(&mut rng, RoundIo::default());
            b.run_round(&mut rng_b, RoundIo::default());
        }
        for i in 0..40u32 {
            let na: Vec<NodeId> = a.node(i).neighbors().collect();
            let nb: Vec<NodeId> = b.node(i).neighbors().collect();
            assert_eq!(na, nb, "node {i} diverged after restore");
        }
    }

    #[test]
    fn restore_rejects_mismatched_overlay() {
        let (a, _) = overlay(40);
        let mut w = Writer::new();
        a.save(&mut w);
        let bytes = w.into_bytes();
        let mut wrong_n = CyclonOverlay::new(41, 8, 4);
        assert!(wrong_n.restore(&mut Reader::new(&bytes)).is_err());
        let mut wrong_cache = CyclonOverlay::new(40, 9, 4);
        assert!(wrong_cache.restore(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn run_round_with_true_contact_matches_run_round_exactly() {
        let (mut a, mut rng_a) = overlay(40);
        let mut b = a.clone();
        let mut rng_b = rng_a.clone();
        for _ in 0..15 {
            a.run_round(&mut rng_a, RoundIo::default());
            b.run_round(&mut rng_b, RoundIo::contact(&mut |_, _| true));
        }
        for i in 0..40u32 {
            let na: Vec<NodeId> = a.node(i).neighbors().collect();
            let nb: Vec<NodeId> = b.node(i).neighbors().collect();
            assert_eq!(na, nb, "node {i} diverged");
        }
    }

    #[test]
    fn failed_contacts_evict_without_refilling() {
        let (mut o, mut rng) = overlay(20);
        let before: usize = (0..20u32).map(|i| o.node(i).view_size()).sum();
        // Every contact fails: each initiator loses its shuffle target and
        // gains nothing back.
        o.run_round(&mut rng, RoundIo::contact(&mut |_, _| false));
        let after: usize = (0..20u32).map(|i| o.node(i).view_size()).sum();
        assert!(
            after < before,
            "no eviction on non-response: {before} → {after}"
        );
    }

    /// Pins the view evolution of a shrinking overlay with failing
    /// contacts: the CRC32 of the saved overlay and the next word of the
    /// round RNG after 300 rounds. Any change to the draws a shuffle
    /// takes, or to the order it merges in, moves one of the two.
    #[test]
    fn shuffle_rounds_are_pinned() {
        use rand::RngCore;
        let mut o = CyclonOverlay::new(400, 12, 5);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        o.bootstrap_random(&mut rng);
        let mut calls = 0u64;
        for round in 0..300u32 {
            if round % 10 == 9 {
                for k in 0..6 {
                    o.set_dead((round * 7 + k * 61) % 400);
                }
                o.set_alive((round * 13) % 400);
            }
            let mut contact = |from: NodeId, to: NodeId| {
                calls += 1;
                !(u64::from(from) * 31 + u64::from(to) * 17 + calls).is_multiple_of(9)
            };
            o.run_round(&mut rng, RoundIo::contact(&mut contact));
        }
        let mut w = Writer::new();
        o.save(&mut w);
        let crc = glap_snapshot::crc32(&w.into_bytes());
        assert_eq!(
            (crc, rng.next_u64()),
            (239_526_467, 6_882_423_822_241_045_188)
        );
    }

    #[test]
    fn overlay_survives_partial_contact_failure() {
        let (mut o, mut rng) = overlay(60);
        let mut flip = false;
        for _ in 0..40 {
            o.run_round(
                &mut rng,
                RoundIo::contact(&mut |_, _| {
                    flip = !flip;
                    flip
                }),
            );
        }
        // Half the shuffles failing must not disconnect the overlay.
        assert!(o.is_connected());
    }
}

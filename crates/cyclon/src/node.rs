//! Per-node Cyclon state machine.
//!
//! Implements the enhanced shuffle of Voulgaris, Gavidia & van Steen,
//! *"Cyclon: Inexpensive membership management for unstructured P2P
//! overlays"* (JNSM 2005), which the GLAP paper uses as its peer-sampling
//! component: each round a node increments all descriptor ages, contacts the
//! neighbour with the *oldest* descriptor, and the two nodes swap up to
//! `shuffle_len` descriptors, preferring to overwrite the entries they just
//! sent away.

use crate::descriptor::{Descriptor, NodeId};
use glap_snapshot::{Checkpointable, Reader, SnapshotError, Writer};
use rand::seq::SliceRandom;
use rand::Rng;

/// The Cyclon state of one overlay node.
#[derive(Debug, Clone)]
pub struct CyclonNode {
    id: NodeId,
    cache_size: usize,
    shuffle_len: usize,
    cache: Vec<Descriptor>,
}

/// An in-flight shuffle started by [`CyclonNode::start_shuffle`]; must be
/// finished with [`CyclonNode::complete_shuffle`] once the peer's reply
/// arrives (or abandoned with [`CyclonNode::abort_shuffle`] if the peer is
/// down).
#[derive(Debug, Clone)]
pub struct PendingShuffle {
    /// The contacted peer.
    pub target: NodeId,
    /// Descriptors sent to the peer (includes our own fresh descriptor).
    pub sent: Vec<Descriptor>,
}

impl CyclonNode {
    /// Creates a node with the given cache size and shuffle length.
    /// `shuffle_len` is clamped to `cache_size`.
    pub fn new(id: NodeId, cache_size: usize, shuffle_len: usize) -> Self {
        assert!(cache_size > 0, "cache size must be positive");
        CyclonNode {
            id,
            cache_size,
            shuffle_len: shuffle_len.min(cache_size),
            cache: Vec::new(),
        }
    }

    /// This node's id.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current partial view (neighbour ids).
    pub fn neighbors(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.cache.iter().map(|d| d.node)
    }

    /// Number of cached descriptors.
    #[inline]
    pub fn view_size(&self) -> usize {
        self.cache.len()
    }

    /// Maximum cache size.
    #[inline]
    pub fn cache_size(&self) -> usize {
        self.cache_size
    }

    /// Seeds the cache with bootstrap neighbours (deduplicated, self
    /// excluded, truncated to the cache size).
    pub fn bootstrap<I: IntoIterator<Item = NodeId>>(&mut self, peers: I) {
        self.cache.clear();
        for node in peers {
            if node != self.id
                && !self.cache.iter().any(|d| d.node == node)
                && self.cache.len() < self.cache_size
            {
                self.cache.push(Descriptor::fresh(node));
            }
        }
    }

    /// Uniformly random neighbour from the current view — the peer
    /// selection service the consolidation and learning components consume.
    pub fn random_peer<R: Rng>(&self, rng: &mut R) -> Option<NodeId> {
        self.cache.choose(rng).map(|d| d.node)
    }

    /// Drops every descriptor pointing at `node` (used when a contact
    /// failed or the node is known to have left, e.g. a PM went to sleep).
    pub fn remove(&mut self, node: NodeId) {
        self.cache.retain(|d| d.node != node);
    }

    /// Begins an active shuffle: ages all descriptors, removes the oldest
    /// one as the shuffle target, and selects up to `shuffle_len − 1`
    /// additional random descriptors plus a fresh self-descriptor to send.
    ///
    /// Returns `None` when the cache is empty (isolated node).
    pub fn start_shuffle<R: Rng>(&mut self, rng: &mut R) -> Option<PendingShuffle> {
        let mut sent = Vec::new();
        let target = self.start_shuffle_into(rng, &mut Vec::new(), &mut sent)?;
        Some(PendingShuffle { target, sent })
    }

    /// [`start_shuffle`](Self::start_shuffle) into caller-owned buffers:
    /// `idxs` is scratch for the index permutation, `sent` receives the
    /// descriptors to send. Returns the target; same draws.
    pub(crate) fn start_shuffle_into<R: Rng>(
        &mut self,
        rng: &mut R,
        idxs: &mut Vec<usize>,
        sent: &mut Vec<Descriptor>,
    ) -> Option<NodeId> {
        if self.cache.is_empty() {
            return None;
        }
        // Age every descriptor and find the oldest, the shuffle target;
        // on ties the last, as `max_by_key` picks.
        let (mut oldest, mut oldest_age) = (0, 0);
        for (i, d) in self.cache.iter_mut().enumerate() {
            d.age += 1;
            if d.age >= oldest_age {
                (oldest, oldest_age) = (i, d.age);
            }
        }
        let target = self.cache.swap_remove(oldest).node;

        // Pick shuffle_len - 1 random others (without removing them yet).
        let extra = self.shuffle_len.saturating_sub(1).min(self.cache.len());
        self.sample(rng, extra, idxs, sent);
        sent.push(Descriptor::fresh(self.id));
        Some(target)
    }

    /// Passive side of a shuffle: replies with up to `shuffle_len` random
    /// descriptors from the local cache and merges the received ones.
    pub fn handle_shuffle<R: Rng>(
        &mut self,
        received: &[Descriptor],
        rng: &mut R,
    ) -> Vec<Descriptor> {
        let mut reply = Vec::new();
        self.handle_shuffle_into(received, rng, &mut Vec::new(), &mut reply);
        reply
    }

    /// [`handle_shuffle`](Self::handle_shuffle) into caller-owned
    /// buffers: `idxs` is scratch, `reply` receives the reply; same draws.
    pub(crate) fn handle_shuffle_into<R: Rng>(
        &mut self,
        received: &[Descriptor],
        rng: &mut R,
        idxs: &mut Vec<usize>,
        reply: &mut Vec<Descriptor>,
    ) {
        let count = self.shuffle_len.min(self.cache.len());
        self.sample(rng, count, idxs, reply);
        self.merge(received, reply);
    }

    /// `out` becomes `count` cache entries picked by the first `count`
    /// slots of a uniformly shuffled index permutation.
    fn sample<R: Rng>(
        &self,
        rng: &mut R,
        count: usize,
        idxs: &mut Vec<usize>,
        out: &mut Vec<Descriptor>,
    ) {
        idxs.clear();
        idxs.extend(0..self.cache.len());
        idxs.shuffle(rng);
        out.clear();
        out.extend(idxs[..count].iter().map(|&i| self.cache[i]));
    }

    /// Active side completion: merges the peer's reply, preferring to
    /// overwrite the descriptors that were sent out.
    pub fn complete_shuffle(&mut self, pending: &PendingShuffle, reply: &[Descriptor]) {
        self.merge(reply, &pending.sent);
    }

    /// Abandons an active shuffle whose target did not answer. The target's
    /// descriptor was already discarded by `start_shuffle`, which is
    /// exactly Cyclon's failure handling: dead nodes silently age out.
    pub fn abort_shuffle(&mut self, _pending: &PendingShuffle) {}

    /// Cyclon merge: insert received descriptors (ignoring self-pointers
    /// and keeping the younger copy of duplicates), using empty cache slots
    /// first and then replacing the entries in `sent_away`.
    pub(crate) fn merge(&mut self, received: &[Descriptor], sent_away: &[Descriptor]) {
        for &d in received {
            if d.node == self.id {
                continue;
            }
            if let Some(existing) = self.cache.iter_mut().find(|e| e.node == d.node) {
                if d.age < existing.age {
                    existing.age = d.age;
                }
                continue;
            }
            if self.cache.len() < self.cache_size {
                self.cache.push(d);
                continue;
            }
            // Cache full: replace one of the descriptors we sent away.
            if let Some(pos) = self.cache.iter().position(|e| {
                sent_away
                    .iter()
                    .any(|s| s.node == e.node && e.node != d.node)
            }) {
                self.cache[pos] = d;
            }
            // Otherwise drop the received descriptor (cache stays full).
        }
        debug_assert!(self.cache.len() <= self.cache_size);
        debug_assert!(self.cache.iter().all(|d| d.node != self.id));
    }
}

/// Checkpointing a node captures its cache *in order* (shuffle-target
/// selection and replacement depend on slot order) plus the static
/// parameters, which `restore` validates against the receiving node.
impl Checkpointable for CyclonNode {
    fn save(&self, w: &mut Writer) {
        w.put_u32(self.id);
        w.put_usize(self.cache_size);
        w.put_usize(self.shuffle_len);
        w.put_usize(self.cache.len());
        for d in &self.cache {
            w.put_u32(d.node);
            w.put_u32(d.age);
        }
    }

    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let id = r.get_u32()?;
        let cache_size = r.get_usize()?;
        let shuffle_len = r.get_usize()?;
        if id != self.id || cache_size != self.cache_size || shuffle_len != self.shuffle_len {
            return Err(SnapshotError::Corrupt(format!(
                "cyclon node mismatch: snapshot ({id}, c={cache_size}, l={shuffle_len}) \
                 vs world ({}, c={}, l={})",
                self.id, self.cache_size, self.shuffle_len
            )));
        }
        let n = r.get_usize()?;
        if n > cache_size {
            return Err(SnapshotError::Corrupt(format!(
                "cyclon node {id} cache holds {n} > size {cache_size}"
            )));
        }
        let mut cache = Vec::with_capacity(n);
        for _ in 0..n {
            let node = r.get_u32()?;
            let age = r.get_u32()?;
            if node == id || cache.iter().any(|d: &Descriptor| d.node == node) {
                return Err(SnapshotError::Corrupt(format!(
                    "cyclon node {id} cache has self-pointer or duplicate {node}"
                )));
            }
            cache.push(Descriptor { node, age });
        }
        self.cache = cache;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn bootstrap_filters_self_and_duplicates() {
        let mut n = CyclonNode::new(0, 4, 3);
        n.bootstrap([0, 1, 1, 2, 3, 4, 5]);
        let view: Vec<NodeId> = n.neighbors().collect();
        assert_eq!(view, vec![1, 2, 3, 4]);
    }

    #[test]
    fn random_peer_comes_from_view() {
        let mut n = CyclonNode::new(0, 4, 3);
        n.bootstrap([1, 2, 3]);
        let mut r = rng();
        for _ in 0..20 {
            let p = n.random_peer(&mut r).unwrap();
            assert!((1..=3).contains(&p));
        }
    }

    #[test]
    fn empty_view_has_no_peer_and_no_shuffle() {
        let mut n = CyclonNode::new(0, 4, 3);
        assert!(n.random_peer(&mut rng()).is_none());
        assert!(n.start_shuffle(&mut rng()).is_none());
    }

    #[test]
    fn start_shuffle_targets_oldest_and_sends_self() {
        let mut n = CyclonNode::new(0, 4, 3);
        n.bootstrap([1, 2, 3]);
        // Age descriptor of node 2 artificially via repeated shuffles is
        // indirect; instead rely on bootstrap ages all being equal: after
        // aging, all have age 1 and any may be chosen. Check structure.
        let p = n.start_shuffle(&mut rng()).unwrap();
        assert!((1..=3).contains(&p.target));
        assert!(p.sent.iter().any(|d| d.node == 0 && d.age == 0));
        assert!(p.sent.len() <= 3);
        // Target removed from cache.
        assert!(!n.neighbors().any(|x| x == p.target));
    }

    #[test]
    fn handle_shuffle_merges_and_replies() {
        let mut n = CyclonNode::new(5, 4, 3);
        n.bootstrap([1, 2]);
        let received = vec![Descriptor::fresh(9), Descriptor::fresh(5)];
        let reply = n.handle_shuffle(&received, &mut rng());
        assert!(reply.len() <= 3);
        // 9 merged, self-descriptor 5 ignored.
        assert!(n.neighbors().any(|x| x == 9));
        assert!(!n.neighbors().any(|x| x == 5));
    }

    #[test]
    fn merge_keeps_younger_duplicate() {
        let mut n = CyclonNode::new(0, 4, 3);
        n.bootstrap([1]);
        // Age node 1's descriptor.
        let p = n.start_shuffle(&mut rng()).unwrap();
        assert_eq!(p.target, 1);
        // Re-learn node 1 with age 0 via a reply.
        n.complete_shuffle(&p, &[Descriptor::fresh(1)]);
        let d: Vec<Descriptor> = n.cache.clone();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].node, 1);
        assert_eq!(d[0].age, 0);
    }

    #[test]
    fn merge_respects_cache_capacity() {
        let mut n = CyclonNode::new(0, 3, 3);
        n.bootstrap([1, 2, 3]);
        let received = vec![Descriptor::fresh(4), Descriptor::fresh(5)];
        // Nothing was sent away → full cache, received entries dropped.
        n.merge(&received, &[]);
        assert_eq!(n.view_size(), 3);
        assert!(!n.neighbors().any(|x| x == 4 || x == 5));
    }

    #[test]
    fn merge_overwrites_sent_entries_when_full() {
        let mut n = CyclonNode::new(0, 3, 3);
        n.bootstrap([1, 2, 3]);
        let sent = vec![Descriptor::fresh(1)];
        n.merge(&[Descriptor::fresh(9)], &sent);
        assert_eq!(n.view_size(), 3);
        assert!(n.neighbors().any(|x| x == 9));
        assert!(!n.neighbors().any(|x| x == 1));
    }

    #[test]
    fn remove_drops_descriptor() {
        let mut n = CyclonNode::new(0, 4, 3);
        n.bootstrap([1, 2, 3]);
        n.remove(2);
        assert_eq!(n.view_size(), 2);
        assert!(!n.neighbors().any(|x| x == 2));
    }

    #[test]
    fn shuffle_ages_survivors() {
        let mut n = CyclonNode::new(0, 4, 2);
        n.bootstrap([1, 2, 3]);
        let _ = n.start_shuffle(&mut rng()).unwrap();
        assert!(n.cache.iter().all(|d| d.age == 1));
    }
}

//! `NodeCore`: one PM's complete GLAP protocol logic as a pure
//! message-driven state machine.
//!
//! A `NodeCore` owns everything a real node would own — its Cyclon view,
//! its Q-tables, its private RNG stream — and interacts with the
//! world only through [`handle`](NodeCore::handle): one [`NodeInput`]
//! in, the encoded payloads the node wants sent out. No shared state, no
//! callbacks, no transport knowledge: the same core runs single-threaded
//! inside the simulation loop or on a worker thread behind an mpsc
//! channel, and — because its randomness is the private
//! `Stream::Node(id)` cursor — produces byte-identical results either
//! way.
//!
//! The protocol it implements is GLAP's training side: Cyclon shuffles
//! keep the overlay fresh, `ProfileRequest`/`ProfileReply` fetch one
//! neighbour's VM profiles for Algorithm 1's local training, and
//! `AggPush`/`AggReply` run Algorithm 2's symmetric push–pull merge with
//! the re-pick-and-retry rule the simulator's one
//! [`aggregation_round`](glap::aggregation::aggregation_round) plans by:
//! prune a crashed partner, re-pick after a failure, up to
//! `AGGREGATION_MAX_ATTEMPTS` tries. A node draws its partners from its
//! own cursor, the round from per-PM streams.
//!
//! The tables are an entry-sparse [`ArenaSlot`] — the sparse storage the
//! simulator's arena holds per PM, ~2 KB where a dense pair takes
//! 118 KB — which local training updates in place. The dense form exists
//! only as bytes at the boundary: an identity push and its reply are the
//! dense pair encoding, written from the slot into the wire buffer (the
//! reply over the push's own buffer), merged from and restored from the
//! payload's bytes straight into the slot; checkpoints write the same
//! dense bytes; the coded legs run the codecs on the slot itself (see
//! `wire` and `glap_codec`).

use crate::transport::Routed;
use crate::wire::{self, WireMsg};
use glap::prelude::{
    local_train_with, repeat_profiles, restore_rng, save_rng, stream_rng, Checkpointable,
    CyclonNode, GlapConfig, PendingShuffle, Reader, SimRng, SnapshotError, Stream, Writer,
    AGGREGATION_MAX_ATTEMPTS,
};
use glap_cluster::VmProfile;
use glap_codec::{identity_payload_len, AnyCodec, CodecKind, TableCodec};
use glap_cyclon::NodeId;
use glap_qlearn::ArenaSlot;

/// The driver-initiated protocol steps of a round, in the order the
/// driver issues them. Ticks carry no payload: everything a step needs
/// is either node state or arrives by message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickKind {
    /// Initiate this round's Cyclon shuffle.
    Shuffle,
    /// Start a learning step: if eligible, request a neighbour's
    /// profiles (Algorithm 1 lines 3–5).
    LearnRequest,
    /// Run the deferred local training over own + received profiles
    /// (Algorithm 1 lines 6–13). Issued after all profile exchanges of
    /// the round settle, so every node can train in parallel.
    TrainLocal,
    /// Initiate this round's push–pull aggregation (Algorithm 2).
    Aggregate,
}

/// Everything that can happen to a node, as one typed event. The
/// transports route `NodeInput`s to cores; `Deliver`/`Failed` carry the
/// *encoded* wire payload so both transports move real bytes.
#[derive(Debug, Clone)]
pub enum NodeInput {
    /// A driver-initiated protocol step.
    Tick(TickKind),
    /// A message from another node arrived.
    Deliver {
        /// The sender.
        from: NodeId,
        /// Encoded [`WireMsg`].
        payload: Vec<u8>,
    },
    /// A message this node sent could not be delivered (dropped, timed
    /// out, or the target is down).
    Failed {
        /// The intended recipient.
        to: NodeId,
        /// The encoded message that failed.
        payload: Vec<u8>,
        /// Whether the failure was the target being crashed (prune it)
        /// as opposed to a transient loss (keep it).
        target_down: bool,
    },
    /// The driver's per-round world snapshot: this PM's VM profiles and
    /// whether it is eligible to train this round.
    SetWorld {
        /// Profiles of the VMs currently placed on this PM.
        profiles: Vec<VmProfile>,
        /// Algorithm 1 line 3: active and under the learning threshold.
        eligible: bool,
    },
    /// Seed the Cyclon view (start-up only).
    Bootstrap {
        /// Initial neighbours.
        peers: Vec<NodeId>,
    },
}

/// One PM's GLAP protocol state machine. See the module docs.
#[derive(Debug, Clone)]
pub struct NodeCore {
    id: NodeId,
    cfg: GlapConfig,
    cyclon: CyclonNode,
    table: ArenaSlot,
    rng: SimRng,
    /// Shuffle awaiting its reply (at most one in flight per round).
    pending: Option<PendingShuffle>,
    /// This round's own VM profiles (from `SetWorld`).
    own_profiles: Vec<VmProfile>,
    eligible: bool,
    /// Neighbour profiles received this round, if any.
    neighbor_profiles: Option<Vec<VmProfile>>,
    /// Set by `LearnRequest` when eligible; consumed by `TrainLocal`.
    pending_train: bool,
    /// Aggregation attempts used this round (Algorithm 2 retry cap).
    agg_attempts: usize,
    /// Bellman updates applied (2 per training iteration).
    updates: u64,
    /// Payload codec (and its per-peer state) for aggregation exchanges.
    /// Identity nodes exchange tables on the plain table tags and never
    /// touch this beyond checkpointing its (empty) state.
    codec: AnyCodec,
    /// Coded aggregation bodies the codec rejected (diagnostic only, not
    /// checkpointed): each one dropped its exchange and reset the peer's
    /// codec state instead of crashing the node.
    codec_errors: u64,
    train_buf: Vec<VmProfile>,
    idx_buf: Vec<usize>,
}

impl NodeCore {
    /// A fresh node. Its RNG is the private `Stream::Node(id)` cursor of
    /// `master_seed`, so no ordering of other nodes' work can perturb
    /// its draws.
    pub fn new(id: NodeId, cfg: &GlapConfig, master_seed: u64) -> NodeCore {
        NodeCore {
            id,
            cfg: *cfg,
            cyclon: CyclonNode::new(id, cfg.cyclon_cache, cfg.cyclon_shuffle),
            table: ArenaSlot::new(cfg.qparams),
            rng: stream_rng(master_seed, Stream::Node(id)),
            pending: None,
            own_profiles: Vec::new(),
            eligible: false,
            neighbor_profiles: None,
            pending_train: false,
            agg_attempts: 0,
            updates: 0,
            codec: AnyCodec::new(cfg.codec),
            codec_errors: 0,
            train_buf: Vec::new(),
            idx_buf: Vec::new(),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's current Q-tables.
    pub fn table(&self) -> &ArenaSlot {
        &self.table
    }

    /// Consumes the node, yielding its Q-tables.
    pub fn into_table(self) -> ArenaSlot {
        self.table
    }

    /// Bellman updates this node has applied.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Coded aggregation bodies this node's codec rejected (each dropped
    /// its exchange and resynchronized the peer instead of panicking).
    pub fn codec_errors(&self) -> u64 {
        self.codec_errors
    }

    /// Current Cyclon view size (diagnostics).
    pub fn view_size(&self) -> usize {
        self.cyclon.view_size()
    }

    /// Routes any [`NodeInput`] to the matching handler and returns the
    /// messages it provoked, encoded: `(destination, wire payload)`.
    pub fn handle(&mut self, input: NodeInput) -> Routed {
        match input {
            NodeInput::Tick(tick) => self.on_tick(tick),
            NodeInput::Deliver { from, payload } => self.on_deliver(from, payload),
            NodeInput::Failed {
                to,
                payload,
                target_down,
            } => self.on_send_failed(to, wire::payload_tag(&payload), target_down),
            NodeInput::SetWorld { profiles, eligible } => {
                self.set_world(profiles, eligible);
                Vec::new()
            }
            NodeInput::Bootstrap { peers } => {
                self.cyclon.bootstrap(peers);
                Vec::new()
            }
        }
    }

    /// Installs the driver's per-round world snapshot.
    pub fn set_world(&mut self, profiles: Vec<VmProfile>, eligible: bool) {
        self.own_profiles = profiles;
        self.eligible = eligible;
    }

    /// A driver-initiated protocol step.
    fn on_tick(&mut self, tick: TickKind) -> Routed {
        match tick {
            TickKind::Shuffle => {
                let Some(pending) = self.cyclon.start_shuffle(&mut self.rng) else {
                    return Vec::new();
                };
                let out = send(
                    pending.target,
                    &WireMsg::ShuffleRequest {
                        descriptors: pending.sent.clone(),
                    },
                );
                self.pending = Some(pending);
                out
            }
            TickKind::LearnRequest => {
                self.neighbor_profiles = None;
                self.pending_train = self.eligible;
                if !self.eligible {
                    return Vec::new();
                }
                match self.cyclon.random_peer(&mut self.rng) {
                    Some(peer) => send(peer, &WireMsg::ProfileRequest),
                    // Empty view: train over own profiles alone, exactly
                    // like a trainer PM with no alive neighbour.
                    None => Vec::new(),
                }
            }
            TickKind::TrainLocal => {
                if self.pending_train {
                    self.train_local();
                }
                Vec::new()
            }
            TickKind::Aggregate => {
                self.agg_attempts = 1;
                self.push_table()
            }
        }
    }

    /// A payload from `from` arrived.
    fn on_deliver(&mut self, from: NodeId, payload: Vec<u8>) -> Routed {
        // `None` marks a merged table push: its reply reuses `payload`,
        // which the decoded message borrows until this statement ends.
        let out =
            match WireMsg::decode(&payload).expect("transport delivered an undecodable payload") {
                WireMsg::ShuffleRequest { descriptors } => {
                    let reply = self.cyclon.handle_shuffle(&descriptors, &mut self.rng);
                    Some(send(from, &WireMsg::ShuffleReply { descriptors: reply }))
                }
                WireMsg::ShuffleReply { descriptors } => {
                    if let Some(pending) = self.pending.take() {
                        debug_assert_eq!(pending.target, from, "shuffle reply from wrong peer");
                        self.cyclon.complete_shuffle(&pending, &descriptors);
                    }
                    Some(Vec::new())
                }
                WireMsg::ProfileRequest => Some(send(
                    from,
                    &WireMsg::ProfileReply {
                        profiles: self.own_profiles.clone(),
                    },
                )),
                WireMsg::ProfileReply { profiles } => {
                    self.neighbor_profiles = Some(profiles);
                    Some(Vec::new())
                }
                // Symmetric UPDATE (Algorithm 2), responder side: merge the
                // push's visited entries into our table straight from the
                // payload — what `merge_symmetric(own, incoming)` leaves in
                // `own` — and reply with the merged table.
                WireMsg::AggPush { table } => {
                    table.merge_into(&mut self.table);
                    None
                }
                // Initiator side: adopt the merged table in place.
                WireMsg::AggReply { table } => {
                    table.restore_into(&mut self.table);
                    Some(Vec::new())
                }
                WireMsg::AggPushCoded { body } => {
                    Some(match self.codec.apply_push(from, &mut self.table, body) {
                        Ok(reply) => send(from, &WireMsg::AggReplyCoded { body: &reply }),
                        // A body the codec cannot apply — version or baseline
                        // skew, a malformed payload — drops the exchange
                        // instead of crashing the node: send no reply and
                        // clear the peer's codec state so the next contact
                        // resyncs via FULL/STALE_FULL. The driver counts the
                        // missing reply under `codec.decode_errors`.
                        Err(_) => self.drop_coded_exchange(from),
                    })
                }
                WireMsg::AggReplyCoded { body } => {
                    if self.codec.apply_reply(from, &mut self.table, body).is_err() {
                        // Same recovery as the push side: our table is left
                        // as-is (no partial merge escapes the codec) and the
                        // peer's codec state is dropped for a clean resync.
                        self.drop_coded_exchange(from);
                    }
                    Some(Vec::new())
                }
            };
        // The reply to a table push is the merged table, written over the
        // push's own buffer: same length, so nothing is allocated.
        out.unwrap_or_else(|| {
            vec![(
                from,
                wire::encode_table(wire::TAG_AGG_REPLY, &self.table, payload),
            )]
        })
    }

    /// A send of ours failed; `tag` is the failed message's wire tag.
    fn on_send_failed(&mut self, to: NodeId, tag: u8, target_down: bool) -> Routed {
        match tag {
            wire::TAG_SHUFFLE_REQUEST => {
                if let Some(pending) = self.pending.take() {
                    self.cyclon.abort_shuffle(&pending);
                }
                Vec::new()
            }
            wire::TAG_PROFILE_REQUEST => {
                // Train over own profiles alone this round; prune a
                // crashed neighbour (Cyclon's failed-contact rule).
                if target_down {
                    self.cyclon.remove(to);
                }
                Vec::new()
            }
            wire::TAG_AGG_PUSH | wire::TAG_AGG_PUSH_CODED => {
                if tag == wire::TAG_AGG_PUSH_CODED {
                    self.codec.push_failed(to);
                }
                if target_down {
                    self.cyclon.remove(to);
                }
                if self.agg_attempts < AGGREGATION_MAX_ATTEMPTS {
                    // Re-pick the partner and re-send: the original peer
                    // may be the problem (the rule aggregation_round's
                    // plan follows too).
                    self.agg_attempts += 1;
                    self.push_table()
                } else {
                    Vec::new()
                }
            }
            // Replies ride the request's round trip; the driver never
            // fails them independently.
            _ => Vec::new(),
        }
    }

    /// Recovery path for a coded aggregation body the codec rejected:
    /// count it and wipe the peer's codec state (baselines, in-flight
    /// bookkeeping) so the next contact starts from a clean FULL /
    /// STALE_FULL resync. Emits nothing — the exchange is abandoned.
    fn drop_coded_exchange(&mut self, peer: NodeId) -> Routed {
        self.codec_errors += 1;
        self.codec.reset_peer(peer);
        Vec::new()
    }

    fn push_table(&mut self) -> Routed {
        let Some(peer) = self.cyclon.random_peer(&mut self.rng) else {
            return Vec::new();
        };
        // Identity pushes our table's dense encoding on the plain table
        // tag, written from the slot into a buffer of exactly its size;
        // the other codecs route through the coded payload tags.
        let payload = if self.cfg.codec == CodecKind::Identity {
            wire::encode_table(
                wire::TAG_AGG_PUSH,
                &self.table,
                Vec::with_capacity(identity_payload_len()),
            )
        } else {
            WireMsg::AggPushCoded {
                body: &self.codec.encode_push(peer, &self.table),
            }
            .encode()
        };
        vec![(peer, payload)]
    }

    /// Algorithm 1 lines 6–13 over own + neighbour profiles, repeated
    /// `cfg.profile_duplication` times — the same list construction as
    /// `gather_profiles_into`, fed from messages instead of a shared
    /// data-center reference.
    fn train_local(&mut self) {
        self.train_buf.clear();
        self.train_buf.extend_from_slice(&self.own_profiles);
        if let Some(nb) = self.neighbor_profiles.take() {
            self.train_buf.extend_from_slice(&nb);
        }
        repeat_profiles(&mut self.train_buf, self.cfg.profile_duplication);
        local_train_with(
            &mut self.table,
            &self.train_buf,
            self.cfg.learning_iterations,
            &mut self.rng,
            &mut self.idx_buf,
        );
        self.updates += 2 * self.cfg.learning_iterations as u64;
        self.pending_train = false;
    }
}

/// One encoded message for `to`.
fn send(to: NodeId, msg: &WireMsg<'_>) -> Routed {
    vec![(to, msg.encode())]
}

impl Checkpointable for NodeCore {
    fn save(&self, w: &mut Writer) {
        w.put_u32(self.id);
        self.cyclon.save(w);
        self.table.save(w);
        save_rng(&self.rng, w);
        w.put_bool(self.pending.is_some());
        if let Some(p) = &self.pending {
            w.put_u32(p.target);
            wire::put_descriptors(w, &p.sent);
        }
        wire::put_profiles(w, &self.own_profiles);
        w.put_bool(self.eligible);
        w.put_bool(self.neighbor_profiles.is_some());
        if let Some(nb) = &self.neighbor_profiles {
            wire::put_profiles(w, nb);
        }
        w.put_bool(self.pending_train);
        w.put_usize(self.agg_attempts);
        w.put_u64(self.updates);
        self.codec.save(w);
    }

    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let id = r.get_u32()?;
        if id != self.id {
            return Err(SnapshotError::Corrupt(format!(
                "node id mismatch: snapshot {id}, live {}",
                self.id
            )));
        }
        self.cyclon.restore(r)?;
        self.table.restore(r)?;
        self.rng = restore_rng(r)?;
        self.pending = if r.get_bool()? {
            let target = r.get_u32()?;
            let sent = wire::get_descriptors(r)?;
            Some(PendingShuffle { target, sent })
        } else {
            None
        };
        self.own_profiles = wire::get_profiles(r)?;
        self.eligible = r.get_bool()?;
        self.neighbor_profiles = if r.get_bool()? {
            Some(wire::get_profiles(r)?)
        } else {
            None
        };
        self.pending_train = r.get_bool()?;
        self.agg_attempts = r.get_usize()?;
        self.updates = r.get_u64()?;
        self.codec.restore(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glap_cluster::Resources;
    use glap_qlearn::{PairStore, QTablePair};

    fn cfg() -> GlapConfig {
        GlapConfig {
            learning_iterations: 5,
            ..Default::default()
        }
    }

    fn profile(x: f64) -> VmProfile {
        VmProfile::from_fractions(Resources::splat(x), Resources::splat(x))
    }

    fn bootstrapped(id: NodeId) -> NodeCore {
        let mut node = NodeCore::new(id, &cfg(), 42);
        node.handle(NodeInput::Bootstrap {
            peers: (0..8).filter(|&p| p != id).collect(),
        });
        node
    }

    fn tick(node: &mut NodeCore, kind: TickKind) -> Routed {
        node.handle(NodeInput::Tick(kind))
    }

    fn deliver(node: &mut NodeCore, from: NodeId, payload: Vec<u8>) -> Routed {
        node.handle(NodeInput::Deliver { from, payload })
    }

    fn fail(node: &mut NodeCore, (to, payload): (NodeId, Vec<u8>), target_down: bool) -> Routed {
        node.handle(NodeInput::Failed {
            to,
            payload,
            target_down,
        })
    }

    fn pair_bytes(p: &impl Checkpointable) -> Vec<u8> {
        let mut w = Writer::new();
        p.save(&mut w);
        w.into_bytes()
    }

    fn trained(id: NodeId, load: f64) -> NodeCore {
        let mut node = bootstrapped(id);
        node.set_world(vec![profile(load), profile(load + 0.1)], true);
        tick(&mut node, TickKind::LearnRequest);
        tick(&mut node, TickKind::TrainLocal);
        node
    }

    #[test]
    fn shuffle_round_trip_updates_both_views() {
        let mut a = bootstrapped(0);
        let mut b = bootstrapped(1);
        let mut out = tick(&mut a, TickKind::Shuffle);
        assert_eq!(out.len(), 1);
        let (to, req) = out.pop().unwrap();
        assert_eq!(wire::payload_tag(&req), wire::TAG_SHUFFLE_REQUEST);
        let mut replies = deliver(&mut b, 0, req);
        assert_eq!(replies.len(), 1);
        let (back_to, reply) = replies.pop().unwrap();
        assert_eq!(back_to, 0);
        deliver(&mut a, to, reply);
        assert!(a.pending.is_none());
        assert!(a.view_size() > 0 && b.view_size() > 0);
    }

    #[test]
    fn failed_shuffle_aborts_pending() {
        let mut a = bootstrapped(0);
        let mut out = tick(&mut a, TickKind::Shuffle);
        assert!(a.pending.is_some());
        let retries = fail(&mut a, out.pop().unwrap(), false);
        assert!(retries.is_empty());
        assert!(a.pending.is_none());
    }

    #[test]
    fn eligible_node_requests_profiles_and_trains() {
        let mut a = bootstrapped(0);
        a.set_world(vec![profile(0.2), profile(0.3)], true);
        let out = tick(&mut a, TickKind::LearnRequest);
        assert_eq!(out.len(), 1);
        assert_eq!(WireMsg::decode(&out[0].1).unwrap(), WireMsg::ProfileRequest);
        let reply = WireMsg::ProfileReply {
            profiles: vec![profile(0.1), profile(0.4)],
        };
        deliver(&mut a, out[0].0, reply.encode());
        assert!(tick(&mut a, TickKind::TrainLocal).is_empty());
        assert_eq!(a.updates(), 2 * 5);
        assert!(a.table().trained_pairs() > 0);
        assert!(!a.pending_train);
        assert!(a.neighbor_profiles.is_none());
    }

    #[test]
    fn ineligible_node_stays_silent_and_untrained() {
        let mut a = bootstrapped(0);
        a.set_world(vec![profile(0.9)], false);
        assert!(tick(&mut a, TickKind::LearnRequest).is_empty());
        assert!(tick(&mut a, TickKind::TrainLocal).is_empty());
        assert_eq!(a.updates(), 0);
    }

    #[test]
    fn profile_request_is_answered_with_own_profiles() {
        let mut b = bootstrapped(1);
        b.set_world(vec![profile(0.25)], true);
        let replies = deliver(&mut b, 0, WireMsg::ProfileRequest.encode());
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].0, 0);
        let WireMsg::ProfileReply { profiles } = WireMsg::decode(&replies[0].1).unwrap() else {
            panic!("expected ProfileReply");
        };
        assert_eq!(profiles.len(), 1);
    }

    #[test]
    fn aggregation_push_pull_unifies_tables() {
        // Give each side distinct knowledge.
        let mut a = trained(0, 0.1);
        let mut b = trained(1, 0.4);
        let mut pushes = tick(&mut a, TickKind::Aggregate);
        assert_eq!(pushes.len(), 1);
        let (to, push) = pushes.pop().unwrap();
        assert_eq!(push.len(), identity_payload_len());
        let mut replies = deliver(&mut b, 0, push);
        assert_eq!(replies.len(), 1);
        assert!(deliver(&mut a, to, replies.pop().unwrap().1).is_empty());
        // Symmetric merge: both sides hold the identical result.
        assert_eq!(pair_bytes(a.table()), pair_bytes(b.table()));
    }

    /// The table legs work on the wire bytes, yet land exactly where the
    /// decoded exchange did: the responder's table is
    /// `merge_symmetric(own, incoming)`'s `own`, its reply is the encoded
    /// `incoming` after that merge — written into the push's own buffer —
    /// and the initiator ends holding that `incoming`.
    #[test]
    fn table_legs_match_the_decoded_exchange() {
        let mut a = trained(0, 0.1);
        let mut b = trained(1, 0.1);
        // Same world, own RNG streams: some entries are shared with
        // different values (averaged), some one-sided (adopted).
        let (ta, tb) = (a.table().export(), b.table().export());
        let (av, bv) = (ta.out.raw_visited(), tb.out.raw_visited());
        let shared_differing = (0..av.len())
            .filter(|&i| av[i] && bv[i] && ta.out.raw_values()[i] != tb.out.raw_values()[i])
            .count();
        assert!(shared_differing > 0);
        assert!((0..av.len()).any(|i| av[i] != bv[i]));
        let mut own = tb;
        let mut incoming = ta;
        QTablePair::merge_symmetric(&mut own, &mut incoming);
        let mut expected_reply = vec![wire::TAG_AGG_REPLY];
        expected_reply.extend(pair_bytes(&incoming));

        let (to, push) = tick(&mut a, TickKind::Aggregate).pop().unwrap();
        let buffer = push.as_ptr();
        let (back_to, reply) = deliver(&mut b, 0, push).pop().unwrap();
        assert_eq!(back_to, 0);
        assert_eq!(reply, expected_reply);
        assert_eq!(reply.as_ptr(), buffer, "the reply left the push's buffer");
        assert_eq!(pair_bytes(b.table()), pair_bytes(&own));
        deliver(&mut a, to, reply);
        assert_eq!(pair_bytes(a.table()), pair_bytes(&incoming));
        assert_eq!(a.table().trained_pairs(), incoming.trained_pairs());
    }

    #[test]
    fn failed_agg_push_retries_up_to_cap() {
        let mut a = bootstrapped(0);
        let mut sent = tick(&mut a, TickKind::Aggregate);
        let mut attempts = 1;
        while let Some(out) = sent.pop() {
            sent = fail(&mut a, out, false);
            if !sent.is_empty() {
                attempts += 1;
            }
        }
        assert_eq!(attempts, AGGREGATION_MAX_ATTEMPTS);
    }

    #[test]
    fn crashed_agg_partner_is_pruned() {
        let mut a = bootstrapped(0);
        let before = a.view_size();
        let out = tick(&mut a, TickKind::Aggregate).pop().unwrap();
        let partner = out.0;
        fail(&mut a, out, true);
        assert_eq!(a.view_size(), before - 1);
        assert!(!a.cyclon.neighbors().any(|p| p == partner));
    }

    fn bootstrapped_with_codec(id: NodeId, codec: CodecKind) -> NodeCore {
        let config = GlapConfig { codec, ..cfg() };
        let mut node = NodeCore::new(id, &config, 42);
        node.handle(NodeInput::Bootstrap {
            peers: (0..8).filter(|&p| p != id).collect(),
        });
        node
    }

    #[test]
    fn rejected_coded_push_drops_exchange_without_panicking() {
        let mut b = bootstrapped_with_codec(1, CodecKind::Delta);
        let before = pair_bytes(b.table());
        // A coded body the codec cannot apply (garbage past the wire
        // layer) must be swallowed: no reply, no panic, table untouched.
        let garbage = [wire_header_only(), vec![0xFF; 16]].concat();
        let out = deliver(&mut b, 0, WireMsg::AggPushCoded { body: &garbage }.encode());
        assert!(out.is_empty());
        assert_eq!(b.codec_errors(), 1);
        assert_eq!(pair_bytes(b.table()), before);

        // The node keeps aggregating normally afterwards.
        let mut a = bootstrapped_with_codec(0, CodecKind::Delta);
        a.set_world(vec![profile(0.1)], true);
        tick(&mut a, TickKind::LearnRequest);
        tick(&mut a, TickKind::TrainLocal);
        let mut pushes = tick(&mut a, TickKind::Aggregate);
        assert_eq!(pushes.len(), 1);
        let (to, push) = pushes.pop().unwrap();
        assert_eq!(wire::payload_tag(&push), wire::TAG_AGG_PUSH_CODED);
        // Route the push to B regardless of which peer A drew.
        let mut replies = deliver(&mut b, 0, push);
        assert_eq!(replies.len(), 1);
        deliver(&mut a, to, replies.pop().unwrap().1);
        assert_eq!(pair_bytes(a.table()), pair_bytes(b.table()));
    }

    /// A coded header the wire layer accepts (delta, `DELTA` subtag): the
    /// body behind it is for the codec to reject.
    fn wire_header_only() -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(glap_codec::CODEC_WIRE_VERSION);
        w.put_u8(CodecKind::Delta.as_u8());
        w.put_u8(glap_codec::subtag::DELTA);
        w.put_f64(0.0);
        w.into_bytes()
    }

    #[test]
    fn rejected_coded_reply_drops_exchange_without_panicking() {
        let mut a = bootstrapped_with_codec(0, CodecKind::Delta);
        let out = tick(&mut a, TickKind::Aggregate);
        assert_eq!(out.len(), 1);
        // A reply with no decodable codec body — and, after the reset, a
        // well-formed reply with no push in flight — are both dropped.
        let garbage = [wire_header_only(), vec![0xFF; 16]].concat();
        let out2 = deliver(
            &mut a,
            out[0].0,
            WireMsg::AggReplyCoded { body: &garbage }.encode(),
        );
        assert!(out2.is_empty());
        assert_eq!(a.codec_errors(), 1);
        // The peer's in-flight state was reset: the node can push again.
        assert!(!tick(&mut a, TickKind::Aggregate).is_empty());
    }

    #[test]
    fn checkpoint_round_trips_mid_protocol() {
        let mut a = bootstrapped(0);
        a.set_world(vec![profile(0.2), profile(0.3)], true);
        tick(&mut a, TickKind::Shuffle);
        tick(&mut a, TickKind::LearnRequest);
        let reply = WireMsg::ProfileReply {
            profiles: vec![profile(0.15)],
        };
        deliver(&mut a, 1, reply.encode());

        let mut w = Writer::new();
        a.save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = NodeCore::new(0, &cfg(), 7);
        let mut r = Reader::new(&bytes);
        restored.restore(&mut r).unwrap();
        assert!(r.is_exhausted());

        // The restored node continues identically.
        let out_a = tick(&mut a, TickKind::TrainLocal);
        let out_r = tick(&mut restored, TickKind::TrainLocal);
        assert!(out_a.is_empty() && out_r.is_empty());
        let (mut wa, mut wr) = (Writer::new(), Writer::new());
        a.save(&mut wa);
        restored.save(&mut wr);
        assert_eq!(wa.into_bytes(), wr.into_bytes());
    }

    #[test]
    fn restore_rejects_wrong_id() {
        let a = bootstrapped(0);
        let mut w = Writer::new();
        a.save(&mut w);
        let bytes = w.into_bytes();
        let mut other = NodeCore::new(3, &cfg(), 42);
        assert!(other.restore(&mut Reader::new(&bytes)).is_err());
    }
}

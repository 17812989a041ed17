//! The aggregation phase (Algorithm 2).
//!
//! After local training, PMs hold *different* Q-tables (and PMs that were
//! too loaded to train hold none). A push–pull gossip unifies them: each
//! round, every PM exchanges its `φ^io = φ^in ∪ φ^out` with one random
//! neighbour and both apply `UPDATE` — average the values of pairs present
//! on both sides, adopt the pairs present on only one. §IV-C proves the
//! per-pair value converges (to a normal distribution around the mean of
//! the contributions); Figure 5 measures convergence as cosine similarity.
//!
//! The merge is a convex-combination step, so it does not depend on how a
//! table is stored: every round here takes the population as a slice of
//! [`PairStore`] slots. The training engine and the policy's re-training
//! window pass sparse `ArenaSlot`s, coded runs included; the reference
//! engine passes boxed `QTablePair`s.

use glap_codec::{subtag, CodedHeader, FleetCodecs};
use glap_cyclon::CyclonOverlay;
use glap_dcsim::{stream_rng, NetworkModel, Stream};
use glap_qlearn::PairStore;
use glap_telemetry::{EventKind, Tracer};
use rand::seq::SliceRandom;
use rand::Rng;

/// Wire-size estimate of one trained `(state, action, value)` entry:
/// packed state + action byte plus an f64 value.
const ENTRY_BYTES: u64 = 10;

/// How often one node re-sends its table push within a round before
/// backing off to the next gossip round (the overlay refreshes views in
/// between, so the retry pool improves round over round).
pub const AGGREGATION_MAX_ATTEMPTS: usize = 3;

/// What happened during one net-aware aggregation round (diagnostics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggregationRoundStats {
    /// Successful symmetric merges.
    pub merges: u64,
    /// Exchanges lost to message drops or timeouts (re-sent up to the
    /// attempt cap).
    pub dropped: u64,
    /// Partner picks that landed on a crashed PM (pruned and re-picked).
    pub skipped_down: u64,
}

/// Per-round context for [`aggregation_round`]: an optional fault-model
/// network and an optional event tracer. `AggIo::default()` is the
/// ideal, untraced round and costs only `Option` branches — no event is
/// built, no fault randomness is consumed.
#[derive(Default)]
pub struct AggIo<'a> {
    /// Fault model: when present, each push–pull exchange is a
    /// request/reply round trip that can be dropped, time out, or land
    /// on a crashed partner. `None` means every exchange succeeds.
    pub net: Option<&'a mut NetworkModel>,
    /// Event tracer: emits `merge_applied` per symmetric merge and
    /// `merge_retried` per failed attempt, and accounts the estimated
    /// gossip traffic under `agg.bytes` / `agg.merges`. Tracing reads no
    /// randomness — the merge outcome for any seed is identical with or
    /// without it.
    pub tracer: Option<&'a Tracer>,
    /// Payload codec state: when present, every exchange is encoded
    /// through the per-PM codecs (actual bytes on the wire replace the
    /// entry-count estimate, and `codec.*` counters are accounted).
    /// `None` — the default — keeps the legacy verbatim-merge path
    /// bit-identical. Callers pass codecs only for non-identity kinds:
    /// an identity `FleetCodecs` merges to identical tables but accounts
    /// dense payload bytes instead of the estimate.
    pub codec: Option<&'a mut FleetCodecs>,
}

impl<'a> AggIo<'a> {
    /// An ideal-network round with an event tracer.
    pub fn traced(tracer: &'a Tracer) -> Self {
        AggIo {
            tracer: Some(tracer),
            ..AggIo::default()
        }
    }

    /// A lossy-network, traced round.
    pub fn full(net: &'a mut NetworkModel, tracer: &'a Tracer) -> Self {
        AggIo {
            net: Some(net),
            tracer: Some(tracer),
            ..AggIo::default()
        }
    }

    /// Routes every exchange through `codecs` (builder-style).
    pub fn with_codec(mut self, codecs: &'a mut FleetCodecs) -> Self {
        self.codec = Some(codecs);
        self
    }
}

/// Accounts `codec.*` counters for one coded payload body: bytes saved
/// versus the dense identity payload, full-table and stale-fallback
/// counts, and the running maximum declared quantization error (stored
/// as a monotone counter in units of 1e-9).
fn account_codec_payload(tracer: &Tracer, body: &[u8]) {
    let Ok(header) = CodedHeader::peek(body) else {
        return;
    };
    let identity = glap_codec::identity_payload_len() as u64;
    let wire = (body.len() + glap_codec::WIRE_OVERHEAD) as u64;
    tracer.add("codec.payloads", 1);
    tracer.add("codec.bytes_saved", identity.saturating_sub(wire));
    match header.subtag {
        subtag::FULL => tracer.add("codec.full_payloads", 1),
        subtag::STALE_FULL => tracer.add("codec.fallbacks", 1),
        _ => {}
    }
    if header.err_bound > 0.0 {
        let scaled = (header.err_bound * 1e9).ceil() as u64;
        let prev = tracer.counter_total("codec.q_err_max_1e9");
        if scaled > prev {
            tracer.add("codec.q_err_max_1e9", scaled - prev);
        }
    }
}

/// One synchronous aggregation gossip round over all alive PMs.
///
/// For each alive node (random activation order) a random alive peer is
/// drawn from its Cyclon view and the two run the symmetric `UPDATE` of
/// Algorithm 2, after which both hold the identical merged table.
///
/// With a network in the [`AggIo`] context, a node whose exchange fails
/// re-sends — re-picking its partner, since the original may be the
/// problem — up to [`AGGREGATION_MAX_ATTEMPTS`] times, then backs off
/// until the next aggregation round. Crashed partners are pruned from
/// the view exactly like dead ones (Cyclon's failed-contact rule);
/// crashed *initiators* sit the round out. Over an ideal network (or
/// with `net: None`) this draws the same RNG sequence and performs the
/// same merges as the no-net path — the byte-identity contract of the
/// fault layer.
pub fn aggregation_round<S: PairStore, R: Rng>(
    tables: &mut [S],
    overlay: &mut CyclonOverlay,
    rng: &mut R,
    io: AggIo<'_>,
) -> AggregationRoundStats {
    let AggIo {
        mut net,
        tracer,
        mut codec,
    } = io;
    let n = tables.len();
    let mut stats = AggregationRoundStats::default();
    let mut order: Vec<u32> = (0..n as u32).filter(|&i| overlay.is_alive(i)).collect();
    order.shuffle(rng);
    for p in order {
        if let Some(net) = net.as_deref() {
            if !net.is_up(p) {
                continue;
            }
        }
        let mut attempts = 0;
        loop {
            attempts += 1;
            let Some(q) = overlay.random_alive_peer(p, rng) else {
                break;
            };
            if p == q {
                break;
            }
            if let Some(net) = net.as_deref() {
                if !net.is_up(q) {
                    stats.skipped_down += 1;
                    overlay.node_mut(p).remove(q);
                    if let Some(tracer) = tracer {
                        tracer.emit(EventKind::MergeRetried {
                            pm: p,
                            attempt: attempts as u32,
                        });
                    }
                    if attempts >= AGGREGATION_MAX_ATTEMPTS {
                        break;
                    }
                    continue;
                }
            }
            // Coded exchanges encode at attempt time: the push leg is
            // transmitted (and its bytes spent, its codec state
            // advanced) whether or not delivery succeeds.
            let push = codec
                .as_deref_mut()
                .map(|codecs| codecs.encode_push(p as usize, q as usize, tables));
            if let Some(tracer) = tracer {
                if tracer.is_on() {
                    // Unified wire accounting: the push leg carrying p's
                    // trained set is transmitted at attempt time.
                    tracer.add("net.msgs", 1);
                    match &push {
                        // Actual bytes on the wire (body + framing).
                        Some(body) => {
                            tracer.add(
                                "net.bytes_tx",
                                (body.len() + glap_codec::WIRE_OVERHEAD) as u64,
                            );
                            account_codec_payload(tracer, body);
                        }
                        None => tracer.add(
                            "net.bytes_tx",
                            tables[p as usize].trained_pairs() as u64 * ENTRY_BYTES,
                        ),
                    }
                }
            }
            let delivered = match net.as_deref_mut() {
                Some(net) => net.request(p, q).is_ok(),
                None => true,
            };
            if delivered {
                match (codec.as_deref_mut(), push) {
                    (Some(codecs), Some(push)) => {
                        let reply = codecs
                            .complete(p as usize, q as usize, tables, &push)
                            .expect("codec produced an unappliable payload");
                        if let Some(tracer) = tracer {
                            if tracer.is_on() {
                                let push_bytes = (push.len() + glap_codec::WIRE_OVERHEAD) as u64;
                                let reply_bytes = (reply.len() + glap_codec::WIRE_OVERHEAD) as u64;
                                tracer.add("agg.bytes", push_bytes + reply_bytes);
                                tracer.add("agg.merges", 1);
                                // Pull leg completes the round trip.
                                tracer.add("net.msgs", 1);
                                tracer.add("net.bytes_tx", reply_bytes);
                                tracer.add("net.bytes_rx", push_bytes + reply_bytes);
                                account_codec_payload(tracer, &reply);
                            }
                            tracer.emit(EventKind::MergeApplied { a: p, b: q });
                        }
                    }
                    _ => {
                        if let Some(tracer) = tracer {
                            if tracer.is_on() {
                                // Push–pull ships both trained sets, one per leg.
                                let p_pairs = tables[p as usize].trained_pairs() as u64;
                                let q_pairs = tables[q as usize].trained_pairs() as u64;
                                let pairs = p_pairs + q_pairs;
                                tracer.add("agg.bytes", pairs * ENTRY_BYTES);
                                tracer.add("agg.merges", 1);
                                // Pull leg completes the round trip.
                                tracer.add("net.msgs", 1);
                                tracer.add("net.bytes_tx", q_pairs * ENTRY_BYTES);
                                tracer.add("net.bytes_rx", pairs * ENTRY_BYTES);
                            }
                            tracer.emit(EventKind::MergeApplied { a: p, b: q });
                        }
                        merge_pair(tables, p as usize, q as usize);
                    }
                }
                stats.merges += 1;
                break;
            }
            if let Some(codecs) = codec.as_deref_mut() {
                codecs.push_failed(p as usize, q as usize);
            }
            stats.dropped += 1;
            if let Some(tracer) = tracer {
                tracer.emit(EventKind::MergeRetried {
                    pm: p,
                    attempt: attempts as u32,
                });
            }
            if attempts >= AGGREGATION_MAX_ATTEMPTS {
                break;
            }
        }
    }
    stats
}

/// Runs `merge(&mut items[p], &mut items[q])` for every `(p, q)` of one
/// wave across the worker pool. A wave's pairs are vertex-disjoint by
/// construction, which is what lets each task hold both its `&mut`s; a
/// repeated endpoint panics instead of aliasing.
fn for_each_disjoint_pair<T: Send>(
    items: &mut [T],
    wave: &[(u32, u32)],
    threads: Option<usize>,
    merge: impl Fn(&mut T, &mut T) + Sync,
) {
    let mut free: Vec<Option<&mut T>> = items.iter_mut().map(Some).collect();
    let mut take = |i: u32| {
        free[i as usize]
            .take()
            .expect("wave pairs are vertex-disjoint")
    };
    let mut tasks: Vec<(&mut T, &mut T)> = wave.iter().map(|&(p, q)| (take(p), take(q))).collect();
    glap_par::parallel_for_each(&mut tasks, threads, |(a, b)| merge(a, b));
}

/// The deterministic schedule of one sharded aggregation round:
/// partner selection plus greedy wave decomposition, computed without
/// touching any tables, so every table storage applies bit-identical
/// merges in bit-identical order.
struct AggPlan {
    /// Exchanges `(initiator, partner)` in serial activation order.
    pairs: Vec<(u32, u32)>,
    /// `wave[k]` is the merge wave of `pairs[k]`.
    wave: Vec<u32>,
    /// Wave → its pairs, exchange order within each wave. Pairs of one
    /// wave are vertex-disjoint, so their symmetric merges commute and
    /// may run in parallel; waves must be applied in index order.
    by_wave: Vec<Vec<(u32, u32)>>,
}

/// Draws one sharded round's schedule (steps 1–2 of the determinism
/// scheme documented on [`aggregation_round_sharded`]): a `round_seed`
/// and the activation shuffle off the shared phase RNG, per-PM partner
/// picks from [`Stream::AggregationPm`] streams (pruning dead view
/// entries exactly like the serial pick — the one overlay mutation),
/// then the greedy vertex-disjoint wave decomposition.
fn build_agg_plan<R: Rng>(
    overlay: &mut CyclonOverlay,
    rng: &mut R,
    threads: Option<usize>,
) -> AggPlan {
    let n = overlay.len();

    // Exchange order: the same shared-RNG shuffle the serial round uses.
    let round_seed: u64 = rng.gen();
    let mut order: Vec<u32> = (0..n as u32).filter(|&i| overlay.is_alive(i)).collect();
    order.shuffle(rng);

    // Parallel partner selection on disjoint overlay slots.
    let (nodes, alive) = overlay.split_mut();
    struct Select<'a> {
        p: u32,
        node: &'a mut glap_cyclon::CyclonNode,
        picked: u32,
    }
    let mut slots: Vec<Select<'_>> = nodes
        .iter_mut()
        .enumerate()
        .filter(|&(i, _)| alive[i])
        .map(|(i, node)| Select {
            p: i as u32,
            node,
            picked: u32::MAX,
        })
        .collect();
    glap_par::parallel_for_each(&mut slots, threads, |s| {
        let mut prng = stream_rng(round_seed, Stream::AggregationPm(s.p));
        if let Some(q) = CyclonOverlay::random_alive_peer_in(s.node, alive, &mut prng) {
            if q != s.p {
                s.picked = q;
            }
        }
    });
    let mut picked = vec![u32::MAX; n];
    for s in &slots {
        picked[s.p as usize] = s.picked;
    }
    drop(slots);

    // Pairs in exchange order, each tagged with its merge wave.
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(order.len());
    let mut wave: Vec<u32> = Vec::with_capacity(order.len());
    let mut next_free = vec![0u32; n];
    for &p in &order {
        let q = picked[p as usize];
        if q == u32::MAX {
            continue;
        }
        let w = next_free[p as usize].max(next_free[q as usize]);
        next_free[p as usize] = w + 1;
        next_free[q as usize] = w + 1;
        pairs.push((p, q));
        wave.push(w);
    }
    let n_waves = wave.iter().copied().max().map_or(0, |w| w + 1);

    // Wave → its pairs, in exchange order within the wave.
    let mut by_wave: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_waves as usize];
    for (k, &pq) in pairs.iter().enumerate() {
        by_wave[wave[k] as usize].push(pq);
    }
    AggPlan {
        pairs,
        wave,
        by_wave,
    }
}

/// [`aggregation_round`] restructured for multi-core: partner selection
/// fans out over per-PM RNG streams, and the merges are applied in
/// vertex-disjoint *waves* that parallelize safely — with identical
/// results, telemetry and counters at any thread count.
///
/// How determinism survives the sharding:
///
/// 1. **Selection.** One `round_seed` is drawn from the shared phase RNG
///    (keeping its cursor, and therefore every later draw, checkpoint-
///    compatible); each alive PM `p` then picks its partner from its own
///    [`Stream::AggregationPm`]`(p)` stream, pruning dead view entries
///    exactly like the serial pick. Draws no longer depend on activation
///    order, so any number of workers computes the same partner vector.
///    This per-PM re-seed is the one place the sharded round differs
///    from the serial round for the *same* master seed — the same
///    deliberate trade PR 5 made for the learning phase.
/// 2. **Waves.** Exchanges are ordered by the shared-RNG shuffle (as
///    serially) and decomposed greedily: a pair's wave is one past the
///    latest wave touching either endpoint, so within a wave all pairs
///    are vertex-disjoint and their symmetric merges commute — applying
///    a wave in parallel is equivalent to applying its pairs in order.
/// 3. **Emission.** Events and counters are emitted serially in exchange
///    order by the coordinating thread (the tracer is single-threaded
///    anyway). A pair's byte accounting must read its endpoints' tables
///    *after* all earlier exchanges and *before* its own, so waves are
///    applied lazily as the emission cursor reaches them; any pair from
///    an earlier wave that sits *later* in exchange order is provably
///    endpoint-disjoint from the current pair (sharing an endpoint would
///    have forced it into a later wave), so early application cannot
///    perturb the bytes the serial round would have reported.
///
/// Only ideal-network, uncoded rounds shard: fault randomness and codec
/// state are inherently sequential, so callers keep those on
/// [`aggregation_round`] (asserted here).
pub fn aggregation_round_sharded<S: PairStore + Send, R: Rng>(
    tables: &mut [S],
    overlay: &mut CyclonOverlay,
    rng: &mut R,
    threads: Option<usize>,
    io: AggIo<'_>,
) -> AggregationRoundStats {
    let AggIo {
        mut net,
        tracer,
        codec,
    } = io;
    assert!(
        codec.is_none(),
        "coded exchanges are stateful per peer — use aggregation_round"
    );
    if let Some(net) = net.as_deref() {
        assert!(
            net.is_ideal(),
            "fault randomness is sequential — use aggregation_round"
        );
    }
    let mut stats = AggregationRoundStats::default();
    let AggPlan {
        pairs,
        wave,
        by_wave,
    } = build_agg_plan(overlay, rng, threads);

    // Serial emission sweep in exchange order, applying waves lazily so
    // byte accounting reads the same table states the serial round saw.
    let mut applied = 0;
    for (&(p, q), &w) in pairs.iter().zip(&wave) {
        while applied < w as usize {
            for_each_disjoint_pair(tables, &by_wave[applied], threads, S::merge_symmetric);
            applied += 1;
        }
        if let Some(tracer) = tracer {
            if tracer.is_on() {
                // Same per-exchange totals as the serial round: a
                // push–pull round trip ships both trained sets.
                let total = (tables[p as usize].trained_pairs()
                    + tables[q as usize].trained_pairs()) as u64;
                tracer.add("net.msgs", 2);
                tracer.add("net.bytes_tx", total * ENTRY_BYTES);
                tracer.add("net.bytes_rx", total * ENTRY_BYTES);
                tracer.add("agg.bytes", total * ENTRY_BYTES);
                tracer.add("agg.merges", 1);
            }
        }
        if let Some(net) = net.as_deref_mut() {
            let _ = net.request(p, q);
        }
        if let Some(tracer) = tracer {
            tracer.emit(EventKind::MergeApplied { a: p, b: q });
        }
        stats.merges += 1;
    }
    for wave in &by_wave[applied..] {
        for_each_disjoint_pair(tables, wave, threads, S::merge_symmetric);
    }
    stats
}

/// Symmetric push–pull merge of two PMs' tables: both end with the
/// identical union/average result.
pub fn merge_pair<S: PairStore>(tables: &mut [S], p: usize, q: usize) {
    assert_ne!(p, q);
    let (lo, hi) = if p < q { (p, q) } else { (q, p) };
    let (head, tail) = tables.split_at_mut(hi);
    // One in-place symmetric pass: bit-for-bit the same result as the
    // clone-then-average formulation, without cloning a 2×6561-entry
    // table per merge.
    S::merge_symmetric(&mut head[lo], &mut tail[0]);
}

/// Mean pairwise cosine similarity across alive PMs' tables — the Figure 5
/// metric. Exact all-pairs is O(n²·|table|); `sample_pairs` random pairs
/// give an unbiased estimate (pass `usize::MAX` to force exact).
pub fn mean_pairwise_similarity<S: PairStore, R: Rng>(
    tables: &[S],
    overlay: &CyclonOverlay,
    sample_pairs: usize,
    rng: &mut R,
) -> f64 {
    let alive: Vec<usize> = (0..tables.len())
        .filter(|&i| overlay.is_alive(i as u32))
        .collect();
    if alive.len() < 2 {
        return 1.0;
    }
    let total_pairs = alive.len() * (alive.len() - 1) / 2;
    if sample_pairs >= total_pairs {
        // Exact.
        let mut sum = 0.0;
        for i in 0..alive.len() {
            for j in i + 1..alive.len() {
                sum += tables[alive[i]].cosine_similarity(&tables[alive[j]]);
            }
        }
        return sum / total_pairs as f64;
    }
    let mut sum = 0.0;
    for _ in 0..sample_pairs {
        let i = alive[rng.gen_range(0..alive.len())];
        let j = loop {
            let j = alive[rng.gen_range(0..alive.len())];
            if j != i {
                break j;
            }
        };
        sum += tables[i].cosine_similarity(&tables[j]);
    }
    sum / sample_pairs as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use glap_cluster::Resources;
    use glap_cyclon::RoundIo;
    use glap_qlearn::{PmState, QArena, QParams, QTablePair, VmAction};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn seeded_tables(n: usize, seed_values: bool) -> Vec<QTablePair> {
        let mut tables: Vec<QTablePair> = (0..n)
            .map(|_| QTablePair::new(QParams::default()))
            .collect();
        if seed_values {
            for (i, t) in tables.iter_mut().enumerate() {
                let s = PmState::from_utilization(Resources::splat(0.5));
                let a = VmAction::from_demand(Resources::splat(0.3));
                t.out.set(s, a, i as f64);
                t.r#in.set(s, a, -(i as f64));
            }
        }
        tables
    }

    fn overlay(n: usize, rng: &mut SmallRng) -> CyclonOverlay {
        let mut o = CyclonOverlay::new(n, 6, 3);
        o.bootstrap_random(rng);
        o
    }

    #[test]
    fn merge_pair_makes_both_identical() {
        let mut tables = seeded_tables(2, true);
        merge_pair(&mut tables, 0, 1);
        assert!((tables[0].cosine_similarity(&tables[1]) - 1.0).abs() < 1e-12);
        let s = PmState::from_utilization(Resources::splat(0.5));
        let a = VmAction::from_demand(Resources::splat(0.3));
        assert_eq!(tables[0].out.get(s, a), 0.5);
        assert_eq!(tables[1].out.get(s, a), 0.5);
    }

    #[test]
    fn aggregation_converges_to_high_similarity() {
        let n = 40;
        let mut rng = SmallRng::seed_from_u64(5);
        let mut o = overlay(n, &mut rng);
        let mut tables = seeded_tables(n, true);
        let before = mean_pairwise_similarity(&tables[..], &o, usize::MAX, &mut rng);
        for _ in 0..15 {
            o.run_round(&mut rng, RoundIo::default());
            aggregation_round(&mut tables, &mut o, &mut rng, AggIo::default());
        }
        let after = mean_pairwise_similarity(&tables[..], &o, usize::MAX, &mut rng);
        assert!(
            after > before,
            "similarity should improve: {before} → {after}"
        );
        assert!(after > 0.999, "similarity after aggregation: {after}");
    }

    #[test]
    fn aggregation_preserves_global_mean_approximately() {
        // Gossip averaging conserves the mean of each pair across the
        // population (symmetric exchanges).
        let n = 16;
        let mut rng = SmallRng::seed_from_u64(9);
        let mut o = overlay(n, &mut rng);
        let mut tables = seeded_tables(n, true);
        let s = PmState::from_utilization(Resources::splat(0.5));
        let a = VmAction::from_demand(Resources::splat(0.3));
        let mean_before: f64 = tables.iter().map(|t| t.out.get(s, a)).sum::<f64>() / n as f64;
        for _ in 0..20 {
            o.run_round(&mut rng, RoundIo::default());
            aggregation_round(&mut tables, &mut o, &mut rng, AggIo::default());
        }
        let mean_after: f64 = tables.iter().map(|t| t.out.get(s, a)).sum::<f64>() / n as f64;
        assert!(
            (mean_after - mean_before).abs() < 1.0,
            "mean drifted: {mean_before} → {mean_after}"
        );
        // And individual values are close to the mean now.
        for t in &tables {
            assert!((t.out.get(s, a) - mean_after).abs() < 1.5);
        }
    }

    #[test]
    fn untrained_pms_adopt_knowledge() {
        let n = 10;
        let mut rng = SmallRng::seed_from_u64(11);
        let mut o = overlay(n, &mut rng);
        let mut tables = seeded_tables(n, false);
        // Only PM 0 trained anything.
        let s = PmState::from_utilization(Resources::splat(0.5));
        let a = VmAction::from_demand(Resources::splat(0.3));
        tables[0].out.set(s, a, 42.0);
        for _ in 0..15 {
            o.run_round(&mut rng, RoundIo::default());
            aggregation_round(&mut tables, &mut o, &mut rng, AggIo::default());
        }
        for t in &tables {
            assert_eq!(t.out.get(s, a), 42.0);
            assert!(t.out.is_visited(s, a));
        }
    }

    #[test]
    fn similarity_sampling_approximates_exact() {
        let n = 20;
        let mut rng = SmallRng::seed_from_u64(13);
        let o = overlay(n, &mut rng);
        let tables = seeded_tables(n, true);
        let exact = mean_pairwise_similarity(&tables[..], &o, usize::MAX, &mut rng);
        let sampled = mean_pairwise_similarity(&tables[..], &o, 400, &mut rng);
        assert!(
            (exact - sampled).abs() < 0.2,
            "exact {exact} sampled {sampled}"
        );
    }

    fn table_bytes(t: &impl glap_snapshot::Checkpointable) -> Vec<u8> {
        let mut w = glap_snapshot::Writer::new();
        t.save(&mut w);
        w.into_bytes()
    }

    /// [`seeded_tables`] with uneven trained sets, so per-exchange byte
    /// accounting depends on reading the right table state at the right
    /// time, and partial codecs have entries to choose among.
    fn uneven_tables(n: usize) -> Vec<QTablePair> {
        let mut tables = seeded_tables(n, true);
        for (i, t) in tables.iter_mut().enumerate() {
            for k in 0..i % 5 {
                t.r#in.set_index(7 * i + k, 1.0 + k as f64);
            }
        }
        tables
    }

    /// Ten serial rounds over `tables` — through `codec`, over an ideal
    /// network or a faulty one (drops, crashes, recoveries) — returning
    /// the summed round stats and the tracer's counters CSV.
    fn run_rounds<S: PairStore>(
        tables: &mut [S],
        codec: Option<glap_codec::CodecKind>,
        faulty: bool,
    ) -> (AggregationRoundStats, String) {
        use glap_dcsim::FaultProfile;
        let n = tables.len();
        let mut rng = SmallRng::seed_from_u64(21);
        let mut o = overlay(n, &mut rng);
        let mut codecs = codec.map(|k| FleetCodecs::new(n, k));
        let mut net = if faulty {
            NetworkModel::new(n, FaultProfile::faulty(0.2, 0.1, 0.3), 77)
        } else {
            NetworkModel::ideal(n)
        };
        let (tracer, _sink) = Tracer::memory();
        let mut stats = AggregationRoundStats::default();
        for round in 0..10 {
            net.begin_round(round);
            tracer.begin_round(round);
            o.run_round(&mut rng, RoundIo::default());
            let mut io = AggIo::full(&mut net, &tracer);
            if let Some(codecs) = codecs.as_mut() {
                io = io.with_codec(codecs);
            }
            let r = aggregation_round(tables, &mut o, &mut rng, io);
            stats.merges += r.merges;
            stats.dropped += r.dropped;
            stats.skipped_down += r.skipped_down;
            tracer.end_round();
        }
        (stats, tracer.counters_csv())
    }

    fn all_bytes<S: PairStore>(tables: &[S]) -> Vec<Vec<u8>> {
        tables.iter().map(table_bytes).collect()
    }

    #[test]
    fn delta_coded_rounds_match_legacy_bitwise() {
        // The delta codec is lossless and its exchange semantics mirror
        // the legacy symmetric merge, so coded sim-path rounds must be
        // bit-identical — tables included — for the same RNG draws. And
        // the serial round is one algorithm over any storage: through
        // every codec, boxed pairs and arena slots seeded alike end with
        // the same bytes, round stats and counters.
        use glap_codec::CodecKind;
        for faulty in [false, true] {
            let mut legacy = uneven_tables(24);
            let (legacy_stats, _) = run_rounds(&mut legacy, None, faulty);
            let mut delta = uneven_tables(24);
            let (delta_stats, _) = run_rounds(&mut delta, Some(CodecKind::Delta), faulty);
            assert_eq!(all_bytes(&legacy), all_bytes(&delta), "faulty={faulty}");
            assert_eq!(legacy_stats, delta_stats, "faulty={faulty}");
            assert!(legacy_stats.merges > 0);
            if faulty {
                assert!(legacy_stats.dropped > 0 && legacy_stats.skipped_down > 0);
            }
            for codec in [
                None,
                Some(CodecKind::Identity),
                Some(CodecKind::Delta),
                Some(CodecKind::Quantized),
                Some(CodecKind::Priority),
            ] {
                let mut boxed = uneven_tables(24);
                let mut arena = QArena::from_pairs(&boxed);
                let want = run_rounds(&mut boxed, codec, faulty);
                let got = run_rounds(arena.slots_mut(), codec, faulty);
                let label = format!("{codec:?} faulty={faulty}");
                assert_eq!(all_bytes(arena.slots()), all_bytes(&boxed), "{label}");
                assert_eq!(got, want, "{label}");
            }
        }
    }

    #[test]
    fn lossy_codecs_still_drive_similarity_up() {
        use glap_codec::CodecKind;
        let mut rng = SmallRng::seed_from_u64(21);
        let o = overlay(24, &mut rng);
        for kind in [CodecKind::Quantized, CodecKind::Priority] {
            let mut tables = seeded_tables(24, true);
            run_rounds(&mut tables, Some(kind), false);
            let sim = mean_pairwise_similarity(&tables[..], &o, usize::MAX, &mut rng);
            assert!(sim > 0.999, "{kind}: similarity after coded rounds {sim}");
            for t in &tables {
                assert!(t.out.raw_values().iter().all(|v| v.is_finite()));
                assert!(t.r#in.raw_values().iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn dead_nodes_are_excluded_from_similarity() {
        let n = 5;
        let mut rng = SmallRng::seed_from_u64(17);
        let mut o = overlay(n, &mut rng);
        let mut tables = seeded_tables(n, false);
        let s = PmState::from_utilization(Resources::splat(0.5));
        let a = VmAction::from_demand(Resources::splat(0.3));
        // Node 4 diverges wildly but is dead.
        tables[4].out.set(s, a, 1e9);
        o.set_dead(4);
        for t in tables.iter_mut().take(4) {
            t.out.set(s, a, 1.0);
        }
        let sim = mean_pairwise_similarity(&tables[..], &o, usize::MAX, &mut rng);
        assert!((sim - 1.0).abs() < 1e-12);
    }

    /// Ten sharded rounds over an ideal network, on boxed tables or on
    /// an arena holding the same tables; returns the table bytes, the
    /// merge count and the network stats so callers can byte-compare
    /// whole runs.
    fn run_sharded_rounds(
        n: usize,
        threads: Option<usize>,
        tracer: &Tracer,
        on_arena: bool,
    ) -> (Vec<Vec<u8>>, u64, glap_dcsim::NetStats) {
        let mut rng = SmallRng::seed_from_u64(33);
        let mut o = overlay(n, &mut rng);
        let mut tables = uneven_tables(n);
        let mut arena = QArena::from_pairs(&tables);
        let mut net = NetworkModel::ideal(n);
        let mut merges = 0;
        for round in 0..10 {
            tracer.begin_round(round);
            o.run_round(&mut rng, RoundIo::default());
            let io = AggIo::full(&mut net, tracer);
            let stats = if on_arena {
                aggregation_round_sharded(arena.slots_mut(), &mut o, &mut rng, threads, io)
            } else {
                aggregation_round_sharded(&mut tables[..], &mut o, &mut rng, threads, io)
            };
            merges += stats.merges;
            tracer.end_round();
        }
        if on_arena {
            tables = arena.export();
        }
        (tables.iter().map(table_bytes).collect(), merges, net.stats)
    }

    #[test]
    fn sharded_rounds_are_thread_count_invariant() {
        for on_arena in [false, true] {
            let one = run_sharded_rounds(32, Some(1), &Tracer::off(), on_arena);
            for threads in [2, 4, 7] {
                assert_eq!(
                    run_sharded_rounds(32, Some(threads), &Tracer::off(), on_arena),
                    one,
                    "threads={threads} on_arena={on_arena}"
                );
            }
            assert!(one.1 > 0, "no merges happened");
            assert_eq!(one.2.delivered, one.2.attempts);
        }
    }

    #[test]
    #[should_panic(expected = "vertex-disjoint")]
    fn a_wave_with_a_shared_endpoint_panics_instead_of_aliasing() {
        let mut tables = seeded_tables(3, true);
        for_each_disjoint_pair(
            &mut tables,
            &[(0, 1), (1, 2)],
            Some(1),
            QTablePair::merge_symmetric,
        );
    }

    #[test]
    fn sharded_rounds_are_tracer_invariant() {
        // Tracing reads no randomness, so attaching a tracer must not
        // change a single table byte or delivery outcome.
        assert_eq!(
            run_sharded_rounds(32, Some(3), &Tracer::memory().0, false),
            run_sharded_rounds(32, Some(3), &Tracer::off(), false)
        );
    }

    #[test]
    fn sharded_rounds_are_storage_invariant() {
        // One sweep, two merge backends: same tables, same exchange
        // events in the same order, same byte accounting.
        let (boxed_tracer, boxed_sink) = Tracer::memory();
        let (arena_tracer, arena_sink) = Tracer::memory();
        assert_eq!(
            run_sharded_rounds(32, Some(3), &arena_tracer, true),
            run_sharded_rounds(32, Some(3), &boxed_tracer, false)
        );
        assert_eq!(arena_sink.events(), boxed_sink.events());
        assert!(!arena_sink.is_empty());
        assert_eq!(arena_tracer.counters_csv(), boxed_tracer.counters_csv());
        assert!(arena_tracer.counter_total("agg.bytes") > 0);
    }

    #[test]
    fn sharded_rounds_converge_and_preserve_mean() {
        let n = 40;
        let mut rng = SmallRng::seed_from_u64(5);
        let mut o = overlay(n, &mut rng);
        let mut tables = seeded_tables(n, true);
        let s = PmState::from_utilization(Resources::splat(0.5));
        let a = VmAction::from_demand(Resources::splat(0.3));
        let mean_before: f64 = tables.iter().map(|t| t.out.get(s, a)).sum::<f64>() / n as f64;
        let before = mean_pairwise_similarity(&tables[..], &o, usize::MAX, &mut rng);
        for _ in 0..15 {
            o.run_round(&mut rng, RoundIo::default());
            aggregation_round_sharded(&mut tables[..], &mut o, &mut rng, Some(4), AggIo::default());
        }
        let after = mean_pairwise_similarity(&tables[..], &o, usize::MAX, &mut rng);
        assert!(
            after > before,
            "similarity did not rise: {before} → {after}"
        );
        assert!(after > 0.999, "tables did not converge: {after}");
        let mean_after: f64 = tables.iter().map(|t| t.out.get(s, a)).sum::<f64>() / n as f64;
        assert!(
            (mean_after - mean_before).abs() < 0.05 * mean_before.abs().max(1.0),
            "gossip averaging drifted: {mean_before} → {mean_after}"
        );
    }

    #[test]
    fn sharded_rounds_respect_dead_nodes() {
        let n = 16;
        let mut rng = SmallRng::seed_from_u64(9);
        let mut o = overlay(n, &mut rng);
        let mut tables = seeded_tables(n, true);
        let dead_bytes = table_bytes(&tables[3]);
        o.set_dead(3);
        for _ in 0..8 {
            o.run_round(&mut rng, RoundIo::default());
            aggregation_round_sharded(&mut tables[..], &mut o, &mut rng, Some(4), AggIo::default());
        }
        // A dead PM neither initiates nor answers: its table is untouched.
        assert_eq!(table_bytes(&tables[3]), dead_bytes);
    }
}

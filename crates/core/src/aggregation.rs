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
//! The merge is a convex-combination step, so it depends neither on how a
//! table is stored nor on how the exchanges are scheduled. There is one
//! round, [`aggregation_round`]: it first plans who gossips with whom
//! (partners, network fates, merge waves) without reading a table, then
//! sweeps the plan, merging in vertex-disjoint waves across the worker
//! pool. Faults, codecs and tracing are options of that one round
//! ([`AggIo`]). It takes the population as a slice of [`PairStore`]
//! slots: the training engine and the policy's re-training window pass
//! sparse `ArenaSlot`s, the reference engine boxed `QTablePair`s.

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
/// network, an optional event tracer and optional codecs. Each is an
/// option of the one round, not a second path. `AggIo::default()` is
/// the ideal, untraced, verbatim round — no event is built, no fault
/// randomness is consumed.
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
    /// `None` — the default — merges verbatim, in parallel waves.
    /// Callers pass codecs only for non-identity kinds:
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
}

/// Accounts `codec.*` counters for one coded payload of `wire_bytes`:
/// bytes saved versus the dense identity payload, and full-table and
/// stale-fallback counts. The node runtime accounts its coded wire
/// messages through this too.
pub fn account_codec_payload(tracer: &Tracer, wire_bytes: u64, header: &CodedHeader) {
    let identity = glap_codec::identity_payload_len() as u64;
    tracer.add("codec.payloads", 1);
    tracer.add("codec.bytes_saved", identity.saturating_sub(wire_bytes));
    match header.subtag {
        subtag::FULL => tracer.add("codec.full_payloads", 1),
        subtag::STALE_FULL => tracer.add("codec.fallbacks", 1),
        _ => {}
    }
}

/// One exchange attempt that reached the network, in attempt order.
struct Attempt {
    p: u32,
    q: u32,
    delivered: bool,
    /// Merge waves to apply before this attempt reads its tables: a
    /// delivered pair's own wave, or `next_free[p]` for a failed push.
    ready: u32,
}

/// The schedule of one round, drawn without reading any table.
struct Plan {
    attempts: Vec<Attempt>,
    /// Wave → its delivered pairs, in attempt order. Pairs of one wave
    /// are vertex-disjoint, so their merges commute and may run in
    /// parallel; waves apply in index order.
    by_wave: Vec<Vec<(u32, u32)>>,
    stats: AggregationRoundStats,
}

/// Plans one round: who gossips with whom, which exchanges the network
/// delivers, and the merge wave of each delivered pair. Draws one
/// `round_seed` and the activation shuffle off the shared `rng`; each
/// initiator that is up then picks (and re-picks after a failure) from
/// its own [`Stream::AggregationPm`] stream. The network is asked in
/// attempt order, and `merge_retried` / `merge_applied` are emitted
/// here, so events keep the exchange order. View pruning of dead and
/// crashed partners is the one overlay mutation.
fn plan_round<R: Rng>(
    overlay: &mut CyclonOverlay,
    rng: &mut R,
    mut net: Option<&mut NetworkModel>,
    tracer: Option<&Tracer>,
) -> Plan {
    let n = overlay.len();
    let round_seed: u64 = rng.gen();
    let mut order: Vec<u32> = (0..n as u32).filter(|&i| overlay.is_alive(i)).collect();
    order.shuffle(rng);
    let mut plan = Plan {
        attempts: Vec::with_capacity(order.len()),
        by_wave: Vec::new(),
        stats: AggregationRoundStats::default(),
    };
    let emit = |kind| {
        if let Some(tracer) = tracer {
            tracer.emit(kind);
        }
    };
    let mut next_free = vec![0u32; n];
    for p in order {
        if net.as_deref().is_some_and(|net| !net.is_up(p)) {
            continue;
        }
        let mut prng = stream_rng(round_seed, Stream::AggregationPm(p));
        for attempt in 1..=AGGREGATION_MAX_ATTEMPTS as u32 {
            let Some(q) = overlay.random_alive_peer(p, &mut prng) else {
                break;
            };
            if p == q {
                break;
            }
            let delivered = match net.as_deref_mut() {
                Some(net) if !net.is_up(q) => {
                    // Crashed partners are pruned like dead ones.
                    plan.stats.skipped_down += 1;
                    overlay.node_mut(p).remove(q);
                    emit(EventKind::MergeRetried { pm: p, attempt });
                    continue;
                }
                Some(net) => net.request(p, q).is_ok(),
                None => true,
            };
            let (pi, qi) = (p as usize, q as usize);
            // A delivered pair's wave is one past the latest wave touching
            // either endpoint.
            let ready = if delivered {
                next_free[pi].max(next_free[qi])
            } else {
                next_free[pi]
            };
            plan.attempts.push(Attempt {
                p,
                q,
                delivered,
                ready,
            });
            if !delivered {
                plan.stats.dropped += 1;
                emit(EventKind::MergeRetried { pm: p, attempt });
                continue;
            }
            next_free[pi] = ready + 1;
            next_free[qi] = ready + 1;
            if ready as usize == plan.by_wave.len() {
                plan.by_wave.push(Vec::new());
            }
            plan.by_wave[ready as usize].push((p, q));
            plan.stats.merges += 1;
            emit(EventKind::MergeApplied { a: p, b: q });
            break;
        }
    }
    plan
}

/// One synchronous aggregation gossip round over all alive PMs: each
/// alive, up initiator (random activation order) draws a random alive
/// peer from its Cyclon view and the two run the symmetric `UPDATE` of
/// Algorithm 2, after which both hold the identical merged table.
///
/// With a network in the [`AggIo`] context, an initiator whose exchange
/// fails re-picks its partner (the original may be the problem) up to
/// [`AGGREGATION_MAX_ATTEMPTS`] times, then backs off until the next
/// round. Crashed partners are pruned from the view exactly like dead
/// ones (Cyclon's failed-contact rule); crashed initiators sit the round
/// out.
///
/// The round runs in two parts, so the result is the same at any
/// `threads`, on any storage, traced or not:
///
/// 1. **Plan** (`plan_round`). Partners, network fates and merge
///    waves are decided before any table is read. A delivered pair's
///    wave is one past the latest wave touching either endpoint, so the
///    pairs of one wave are vertex-disjoint and their merges commute.
/// 2. **Merge.** Verbatim merges apply wave by wave across the worker
///    pool. When traced, each attempt's bytes are accounted just before
///    the first wave it must not see: a delivered pair reads its
///    endpoints after the waves before its own, a failed push reads its
///    initiator after waves `< next_free[p]`, and those are exactly the
///    merges a sequential run of the plan would have applied by then.
///    Coded exchanges carry per-pair codec state, so they encode,
///    complete (or fail) and merge on the caller, in attempt order.
pub fn aggregation_round<S: PairStore + Send, R: Rng>(
    tables: &mut [S],
    overlay: &mut CyclonOverlay,
    rng: &mut R,
    threads: Option<usize>,
    io: AggIo<'_>,
) -> AggregationRoundStats {
    let AggIo { net, tracer, codec } = io;
    let Plan {
        attempts,
        by_wave,
        stats,
    } = plan_round(overlay, rng, net, tracer);
    let tracer = tracer.filter(|t| t.is_on());
    match codec {
        Some(codecs) => {
            let wire = |body: &[u8]| (body.len() + glap_codec::WIRE_OVERHEAD) as u64;
            for &Attempt {
                p, q, delivered, ..
            } in &attempts
            {
                let (p, q) = (p as usize, q as usize);
                // The push is encoded, sent and its codec state advanced
                // whether or not delivery succeeds.
                let body = codecs.encode_push(p, q, tables);
                let reply = if delivered {
                    let reply = codecs.complete(p, q, tables, &body);
                    Some(reply.expect("codec produced an unappliable payload"))
                } else {
                    codecs.push_failed(p, q);
                    None
                };
                if let Some(tracer) = tracer {
                    for b in std::iter::once(&body).chain(&reply) {
                        if let Ok(header) = CodedHeader::peek(b) {
                            account_codec_payload(tracer, wire(b), &header);
                        }
                    }
                    account_exchange(tracer, wire(&body), reply.as_deref().map(wire));
                }
            }
        }
        None => {
            // Attempts by the number of waves applied before they read
            // their tables; the round's counters are sums, so accounting
            // each wave's readers just before it is applied counts what
            // a sequential run of the plan counts.
            let mut readers: Vec<&Attempt> =
                tracer.map_or(Vec::new(), |_| attempts.iter().collect());
            readers.sort_by_key(|a| a.ready);
            let mut readers = readers.into_iter().peekable();
            for w in 0..=by_wave.len() {
                if let Some(tracer) = tracer {
                    let entries = |i: u32| tables[i as usize].trained_pairs() as u64 * ENTRY_BYTES;
                    while let Some(a) = readers.next_if(|a| a.ready as usize == w) {
                        account_exchange(tracer, entries(a.p), a.delivered.then(|| entries(a.q)));
                    }
                }
                if let Some(wave) = by_wave.get(w) {
                    for_each_disjoint_pair(tables, wave, threads, S::merge_symmetric);
                }
            }
        }
    }
    stats
}

/// Accounts one exchange attempt's traffic: the push leg's `push`
/// bytes, and the pull leg's `reply` bytes if the exchange completed.
fn account_exchange(tracer: &Tracer, push: u64, reply: Option<u64>) {
    tracer.add("net.msgs", 1);
    tracer.add("net.bytes_tx", push);
    if let Some(reply) = reply {
        tracer.add("net.msgs", 1);
        tracer.add("net.bytes_tx", reply);
        tracer.add("net.bytes_rx", push + reply);
        tracer.add("agg.bytes", push + reply);
        tracer.add("agg.merges", 1);
    }
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
    use glap_codec::CodecKind;
    use glap_cyclon::RoundIo;
    use glap_dcsim::{FaultProfile, NetStats};
    use glap_qlearn::{PmState, QArena, QParams, QTablePair, VmAction};
    use glap_telemetry::MemorySink;
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
            aggregation_round(&mut tables, &mut o, &mut rng, None, AggIo::default());
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
            aggregation_round(&mut tables, &mut o, &mut rng, None, AggIo::default());
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
            aggregation_round(&mut tables, &mut o, &mut rng, None, AggIo::default());
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

    fn all_bytes<S: PairStore>(tables: &[S]) -> Vec<Vec<u8>> {
        tables.iter().map(table_bytes).collect()
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

    /// The sequential reference of the verbatim round: the same plan,
    /// each attempt accounted and, if delivered, merged before the next.
    fn sequential_round<S: PairStore>(
        tables: &mut [S],
        overlay: &mut CyclonOverlay,
        rng: &mut SmallRng,
        io: AggIo<'_>,
    ) -> AggregationRoundStats {
        let plan = plan_round(overlay, rng, io.net, io.tracer);
        for a in &plan.attempts {
            let (p, q) = (a.p as usize, a.q as usize);
            if let Some(tracer) = io.tracer.filter(|t| t.is_on()) {
                let entries = |i: usize| tables[i].trained_pairs() as u64 * ENTRY_BYTES;
                account_exchange(tracer, entries(p), a.delivered.then(|| entries(q)));
            }
            if a.delivered {
                merge_pair(tables, p, q);
            }
        }
        plan.stats
    }

    /// Ten rounds over `tables` at `threads` — through `codec`, over an
    /// ideal network or a faulty one (drops, crashes, recoveries), traced
    /// by `tracer` — returning the summed round stats and the network's.
    /// `sequential` runs [`sequential_round`] instead (verbatim only).
    fn run_rounds<S: PairStore + Send>(
        tables: &mut [S],
        threads: Option<usize>,
        codec: Option<CodecKind>,
        faulty: bool,
        tracer: &Tracer,
        sequential: bool,
    ) -> (AggregationRoundStats, NetStats) {
        let n = tables.len();
        let mut rng = SmallRng::seed_from_u64(33);
        let mut o = overlay(n, &mut rng);
        let mut codecs = codec.map(|k| FleetCodecs::new(n, k));
        let mut net = if faulty {
            NetworkModel::new(n, FaultProfile::faulty(0.2, 0.1, 0.3), 77)
        } else {
            NetworkModel::ideal(n)
        };
        let mut stats = AggregationRoundStats::default();
        for round in 0..10 {
            net.begin_round(round);
            tracer.begin_round(round);
            o.run_round(&mut rng, RoundIo::default());
            let io = AggIo {
                codec: codecs.as_mut(),
                ..AggIo::full(&mut net, tracer)
            };
            let r = if sequential {
                sequential_round(tables, &mut o, &mut rng, io)
            } else {
                aggregation_round(tables, &mut o, &mut rng, threads, io)
            };
            stats.merges += r.merges;
            stats.dropped += r.dropped;
            stats.skipped_down += r.skipped_down;
            tracer.end_round();
        }
        (stats, net.stats)
    }

    /// Everything [`run_rounds`] leaves behind, in comparable form: table
    /// bytes, round stats, network stats, the event stream's JSON lines
    /// and the counters CSV (both empty untraced).
    type Outcome = (
        Vec<Vec<u8>>,
        AggregationRoundStats,
        NetStats,
        String,
        String,
    );

    /// [`run_rounds`] over `uneven_tables(n)`, as boxed pairs or as the
    /// same tables on an arena.
    fn outcome(
        n: usize,
        threads: Option<usize>,
        codec: Option<CodecKind>,
        faulty: bool,
        on_arena: bool,
        traced: bool,
    ) -> Outcome {
        outcome_via(false, n, threads, codec, faulty, on_arena, traced)
    }

    /// [`outcome`] through [`aggregation_round`] or, when `sequential`,
    /// through [`sequential_round`].
    fn outcome_via(
        sequential: bool,
        n: usize,
        threads: Option<usize>,
        codec: Option<CodecKind>,
        faulty: bool,
        on_arena: bool,
        traced: bool,
    ) -> Outcome {
        let (tracer, sink) = if traced {
            Tracer::memory()
        } else {
            (Tracer::off(), MemorySink::new())
        };
        let mut boxed = uneven_tables(n);
        let mut arena = QArena::from_pairs(&boxed);
        let (bytes, (stats, net)) = if on_arena {
            let r = run_rounds(
                arena.slots_mut(),
                threads,
                codec,
                faulty,
                &tracer,
                sequential,
            );
            (all_bytes(arena.slots()), r)
        } else {
            let r = run_rounds(&mut boxed, threads, codec, faulty, &tracer, sequential);
            (all_bytes(&boxed), r)
        };
        let events = sink.events().iter().map(|e| e.to_json() + "\n").collect();
        (bytes, stats, net, events, tracer.counters_csv())
    }

    const CODECS: [Option<CodecKind>; 3] =
        [None, Some(CodecKind::Identity), Some(CodecKind::Delta)];

    #[test]
    fn sharded_rounds_are_thread_count_invariant() {
        // Over an ideal and a faulty net, verbatim and through every
        // codec, on boxed pairs and on arena slots: the same tables,
        // stats, events and counters at any thread count.
        for faulty in [false, true] {
            for codec in CODECS {
                for on_arena in [false, true] {
                    let one = outcome(24, Some(1), codec, faulty, on_arena, true);
                    assert!(one.1.merges > 0 && !one.3.is_empty());
                    for threads in [2, 4, 7] {
                        assert_eq!(
                            outcome(24, Some(threads), codec, faulty, on_arena, true),
                            one,
                            "{codec:?} faulty={faulty} threads={threads} on_arena={on_arena}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_rounds_are_storage_invariant() {
        // One sweep, two merge backends: the same tables, exchange
        // events in the same order and counters on arena slots as on
        // boxed pairs, over every net and codec.
        for faulty in [false, true] {
            for codec in CODECS {
                for threads in [1, 3] {
                    let boxed = outcome(24, Some(threads), codec, faulty, false, true);
                    assert!(boxed.1.merges > 0 && !boxed.3.is_empty());
                    assert!(boxed.4.contains("agg.bytes"));
                    assert_eq!(
                        outcome(24, Some(threads), codec, faulty, true, true),
                        boxed,
                        "{codec:?} faulty={faulty} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn delta_coded_rounds_match_legacy_bitwise() {
        // The delta codec is lossless and its exchange semantics mirror
        // the verbatim symmetric merge, so coded rounds end with the same
        // table bytes, round stats and network stats for the same draws.
        for faulty in [false, true] {
            let (bytes, stats, net, ..) = outcome(24, Some(2), None, faulty, false, false);
            let delta = outcome(24, Some(2), Some(CodecKind::Delta), faulty, false, false);
            assert_eq!(
                (&bytes, stats, net),
                (&delta.0, delta.1, delta.2),
                "faulty={faulty}"
            );
            assert!(stats.merges > 0);
            if faulty {
                assert!(stats.dropped > 0 && stats.skipped_down > 0);
            }
        }
    }

    #[test]
    fn verbatim_rounds_count_what_a_sequential_run_counts() {
        // Wave-parallel merging accounts each attempt against the tables
        // a one-at-a-time run of the same plan would read: the same
        // table bytes, stats, events and counters.
        for faulty in [false, true] {
            for threads in [1, 3] {
                for on_arena in [false, true] {
                    let seq = outcome_via(true, 24, None, None, faulty, on_arena, true);
                    assert!(seq.1.merges > 0 && seq.4.contains("agg.bytes"));
                    assert_eq!(
                        outcome(24, Some(threads), None, faulty, on_arena, true),
                        seq,
                        "faulty={faulty} threads={threads} on_arena={on_arena}"
                    );
                }
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
        for faulty in [false, true] {
            for codec in CODECS {
                let (bytes, stats, net, ..) = outcome(24, Some(3), codec, faulty, false, true);
                let untraced = outcome(24, Some(3), codec, faulty, false, false);
                assert_eq!((bytes, stats, net), (untraced.0, untraced.1, untraced.2));
            }
        }
    }

    #[test]
    fn ideal_uncoded_round_bytes_are_pinned() {
        // Ten ideal, uncoded rounds at three threads, on boxed pairs and
        // on arena slots: the CRC32 of the final table bytes, of the
        // counters CSV and of the event stream's JSON lines.
        use glap_snapshot::crc32;
        for on_arena in [false, true] {
            let (tables, stats, _, events, counters) =
                outcome(32, Some(3), None, false, on_arena, true);
            let got = (
                crc32(&tables.concat()),
                crc32(counters.as_bytes()),
                crc32(events.as_bytes()),
                stats.merges,
            );
            assert_eq!(
                got,
                (0x128a_a3dd, 0x0a66_a495, 0x55d1_3cee, 320),
                "on_arena={on_arena}: {got:#010x?}"
            );
        }
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
            aggregation_round(&mut tables[..], &mut o, &mut rng, Some(4), AggIo::default());
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
            aggregation_round(&mut tables[..], &mut o, &mut rng, Some(4), AggIo::default());
        }
        // A dead PM neither initiates nor answers: its table is untouched.
        assert_eq!(table_bytes(&tables[3]), dead_bytes);
    }
}

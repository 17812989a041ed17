//! The end-to-end two-phase training pipeline.
//!
//! Runs the learning phase (Algorithm 1) for a configured number of rounds
//! — stepping the workload so VM averages accumulate, exactly like the
//! paper's 700 pre-run rounds — then the aggregation phase (Algorithm 2)
//! until the PMs' tables unify. Optionally records the mean pairwise cosine
//! similarity each round, which regenerates Figure 5.
//!
//! There is one engine: `TrainerCtx` runs `L` learning rounds then `A`
//! aggregation rounds over the flat [`QArena`], and observation
//! (similarity series, event tracing, convergence monitor, profiler
//! spans) is read off the table population between those rounds — it
//! never selects different code. [`train`], [`train_instrumented`] and
//! [`train_arena`] are thin shells over it.

use crate::aggregation::{
    aggregation_round, aggregation_round_sharded, mean_pairwise_similarity, AggIo, Population,
};
use crate::config::GlapConfig;
use crate::learning::{
    duplicate_profiles, gather_profiles, gather_profiles_into, is_eligible, local_train,
    local_train_with, required_duplication,
};
use glap_cluster::{DataCenter, DemandSource, PmId, VmProfile};
use glap_codec::{CodecKind, FleetCodecs};
use glap_cyclon::{CyclonNode, CyclonOverlay, RoundIo};
use glap_dcsim::{stream_rng, SimRng, Stream};
use glap_par::parallel_for_each_timed;
use glap_profile::Profiler;
use glap_qlearn::{PairCaches, QArena, QTablePair};
use glap_telemetry::{ConvergenceMonitor, EventKind, OverlayHealth, Phase, Tracer};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which phase a similarity sample was taken in (Figure 5 plots the
/// learning phase as "WOG" — without gossip — and the aggregation phase as
/// "WG").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrainPhase {
    /// Learning phase (local training only).
    Learning,
    /// Aggregation phase (gossip merging).
    Aggregation,
}

/// Record of a training run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainReport {
    /// `(phase, round-within-phase, mean pairwise cosine similarity)`.
    pub similarity: Vec<(TrainPhase, usize, f64)>,
    /// Number of PMs that ran at least one local training round.
    pub pms_trained: usize,
    /// Total Bellman updates applied.
    pub updates: u64,
}

/// How many random PM pairs to sample per similarity measurement.
const SIMILARITY_SAMPLE_PAIRS: usize = 300;

/// Runs the full two-phase training protocol.
///
/// Steps `dc` through `cfg.learning_rounds` workload rounds (so averages
/// accumulate), training eligible PMs each round, then runs
/// `cfg.aggregation_rounds` of gossip merging. Returns the per-PM tables
/// and a report. Set `record_similarity` to collect the Figure 5 series
/// (costs one sampled similarity sweep per round).
pub fn train<D: DemandSource + ?Sized>(
    dc: &mut DataCenter,
    trace: &mut D,
    cfg: &GlapConfig,
    master_seed: u64,
    record_similarity: bool,
) -> (Vec<QTablePair>, TrainReport) {
    let (tables, report, _) = train_instrumented(
        dc,
        trace,
        cfg,
        master_seed,
        record_similarity,
        &Tracer::off(),
        None,
        &Profiler::off(),
    );
    (tables, report)
}

/// [`train`] with an event tracer, a convergence monitor, an explicit
/// worker count and a wall-clock [`Profiler`].
///
/// All of it is strictly observational — tracing, monitoring and
/// profiling read no randomness and feed nothing back — so the tables
/// and report are byte-identical with any of it on or off.
///
/// * **Tracer.** When on, every training round records a
///   [`ConvergenceSample`](glap_telemetry::ConvergenceSample) —
///   population diameter (the machine-checkable face of Theorem 1), mean
///   cosine similarity to the unified table, and overlay health — and
///   emits a `convergence_sampled` event stamped with the phase
///   ([`Phase::Learning`] / [`Phase::Aggregation`]) and round. When off,
///   the returned monitor is empty.
/// * **Threads.** `None` resolves through `glap_par::resolve_threads`
///   (the `--threads` flag, then `GLAP_THREADS`, then all cores). Each PM
///   draws from its own `Stream::LearningPm(pm)` RNG and merges run in
///   vertex-disjoint waves, so 1, 4 or N workers produce the same
///   tables, report, events and monitor series.
/// * **Profiler.** Spans: `train` → `learn_round` {`workload_step`,
///   `shuffle`, `fanout`, `local_train` (+ per-worker
///   `worker_busy`/`worker_idle` samples), `similarity`, `convergence`}
///   and `agg_round` {`shuffle`, `merge`, `similarity`, `convergence`}.
#[allow(clippy::too_many_arguments)]
pub fn train_instrumented<D: DemandSource + ?Sized>(
    dc: &mut DataCenter,
    trace: &mut D,
    cfg: &GlapConfig,
    master_seed: u64,
    record_similarity: bool,
    tracer: &Tracer,
    threads: Option<usize>,
    profiler: &Profiler,
) -> (Vec<QTablePair>, TrainReport, ConvergenceMonitor) {
    let _train_span = profiler.span("train");
    let mut ctx = TrainerCtx::new(
        dc,
        cfg,
        master_seed,
        record_similarity,
        tracer,
        threads,
        profiler,
    );
    let mut arena = ctx.learn_on_arena(dc, trace);
    let tables = if cfg.codec == CodecKind::Identity {
        ctx.aggregate(&mut arena);
        arena.export()
    } else {
        // Coded exchanges carry per-peer codec state over boxed tables
        // and are inherently serial: learn on the arena, then aggregate
        // the export through the coded round.
        let mut tables = arena.export();
        ctx.aggregate_coded(&mut tables);
        tables
    };
    let (report, monitor) = ctx.finish();
    (tables, report, monitor)
}

/// Runs the training engine and returns the flat [`QArena`] directly —
/// no boxed export, so the scale paths (benches, the 250k-PM smoke,
/// `scalability_eval`) never pay the transient doubling of
/// materializing `n` boxed pairs next to the slab. Storage backing
/// honors `GLAP_ARENA_MMAP` (see [`glap_qlearn::slab`]).
///
/// Byte-for-byte the tables equal what [`train`] returns for the same
/// inputs; the report is the same too. Only uncoded runs aggregate on
/// the arena — coded runs go through [`train`] (asserted).
pub fn train_arena<D: DemandSource + ?Sized>(
    dc: &mut DataCenter,
    trace: &mut D,
    cfg: &GlapConfig,
    master_seed: u64,
    threads: Option<usize>,
    profiler: &Profiler,
) -> (QArena, TrainReport) {
    let _train_span = profiler.span("train");
    assert_eq!(
        cfg.codec,
        CodecKind::Identity,
        "train_arena is the uncoded scale path; coded runs go through train()"
    );
    let tracer = Tracer::off();
    let mut ctx = TrainerCtx::new(dc, cfg, master_seed, false, &tracer, threads, profiler);
    let mut arena = ctx.learn_on_arena(dc, trace);
    ctx.aggregate(&mut arena);
    (arena, ctx.finish().0)
}

/// The oracle the identity suites compare the engine against, with no
/// other caller: the same round schedule over the pre-arena storage —
/// boxed per-PM tables, full-scan eligibility, canonical row scans and
/// unmasked merges — observed through the same arms, so tables, report,
/// event stream, counters and monitor must all match bit for bit.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn train_two_pass_reference<D: DemandSource + ?Sized>(
    dc: &mut DataCenter,
    trace: &mut D,
    cfg: &GlapConfig,
    master_seed: u64,
    record_similarity: bool,
    tracer: &Tracer,
    threads: Option<usize>,
    profiler: &Profiler,
) -> (Vec<QTablePair>, TrainReport, ConvergenceMonitor) {
    let _train_span = profiler.span("train");
    let mut ctx = TrainerCtx::new(
        dc,
        cfg,
        master_seed,
        record_similarity,
        tracer,
        threads,
        profiler,
    );
    let mut tables: Vec<QTablePair> = (0..dc.n_pms())
        .map(|_| QTablePair::new(cfg.qparams))
        .collect();
    for round in 0..cfg.learning_rounds {
        let _round_span = profiler.span("learn_round");
        ctx.begin_learn_round(round, dc, trace);
        ctx.local_training(
            dc,
            |i| is_eligible(dc, PmId(i as u32), cfg),
            tables.iter_mut(),
            |_, table, profiles, rng, idxs| {
                local_train_with(*table, profiles, cfg.learning_iterations, rng, idxs)
            },
        );
        ctx.end_round(TrainPhase::Learning, round, &tables[..]);
    }
    if cfg.codec == CodecKind::Identity {
        ctx.aggregate(&mut tables[..]);
    } else {
        ctx.aggregate_coded(&mut tables);
    }
    let (report, monitor) = ctx.finish();
    (tables, report, monitor)
}

/// Reusable buffers for the per-round convergence sample: the liveness
/// mask, the unified reference vector and — for storages that do not
/// hold a PM's `out ++ in` values contiguously — the flat copy of the
/// alive rows. Allocated once per training run instead of `O(n)` vectors
/// per sampled round.
#[derive(Default)]
struct ConvergenceScratch {
    flat: Vec<f64>,
    reference: Vec<f64>,
    alive: Vec<bool>,
}

/// Per-PM training workspace, persisting across learning rounds so the
/// hot loop never re-allocates its profile list or shuffle indices.
#[derive(Default)]
struct LearnScratch {
    profiles: Vec<VmProfile>,
    idxs: Vec<usize>,
}

/// One eligible PM's unit of work for a learning round: disjoint `&mut`
/// borrows of everything the PM touches (its private RNG stream, its
/// overlay slot, its scratch and its table storage's per-PM `slot`), so
/// the worker pool can run the units in any order or interleaving
/// without changing a single byte of the result.
struct LearnTask<'a, S> {
    pm: PmId,
    rng: &'a mut SimRng,
    node: &'a mut CyclonNode,
    scratch: &'a mut LearnScratch,
    slot: S,
}

/// The training engine: everything a run holds besides the tables
/// themselves — overlay, RNG cursors, per-PM scratch, the report and the
/// observation arms — with one method per round stage. The table storage
/// is a parameter of each stage, so the reference oracle drives the very
/// same rounds over boxed tables.
struct TrainerCtx<'a> {
    cfg: GlapConfig,
    threads: Option<usize>,
    overlay: CyclonOverlay,
    overlay_rng: SimRng,
    /// The shared phase RNG: similarity samples and merge plans draw
    /// from it in round order.
    learn_rng: SimRng,
    /// Private per-PM randomness: the stream cursor advances with the PM
    /// across rounds, independent of every other PM and of how the round
    /// is scheduled over workers.
    pm_rngs: Vec<SimRng>,
    scratch: Vec<LearnScratch>,
    trained: Vec<bool>,
    report: TrainReport,
    record_similarity: bool,
    tracer: &'a Tracer,
    profiler: &'a Profiler,
    monitor: ConvergenceMonitor,
    conv_scratch: ConvergenceScratch,
}

impl<'a> TrainerCtx<'a> {
    fn new(
        dc: &DataCenter,
        cfg: &GlapConfig,
        master_seed: u64,
        record_similarity: bool,
        tracer: &'a Tracer,
        threads: Option<usize>,
        profiler: &'a Profiler,
    ) -> Self {
        cfg.validate().expect("invalid GLAP config");
        let n = dc.n_pms();
        let mut overlay = CyclonOverlay::new(n, cfg.cyclon_cache, cfg.cyclon_shuffle);
        let mut overlay_rng = stream_rng(master_seed, Stream::Overlay);
        overlay.bootstrap_random(&mut overlay_rng);
        for pm in dc.pms() {
            if !pm.is_active() {
                overlay.set_dead(pm.id().0);
            }
        }
        tracer.set_phase(Phase::Learning);
        TrainerCtx {
            cfg: *cfg,
            threads,
            overlay,
            overlay_rng,
            learn_rng: stream_rng(master_seed, Stream::Learning),
            pm_rngs: (0..n)
                .map(|i| stream_rng(master_seed, Stream::LearningPm(i as u32)))
                .collect(),
            scratch: (0..n).map(|_| LearnScratch::default()).collect(),
            trained: vec![false; n],
            report: TrainReport::default(),
            record_similarity,
            tracer,
            profiler,
            monitor: ConvergenceMonitor::new(),
            conv_scratch: ConvergenceScratch::default(),
        }
    }

    fn finish(mut self) -> (TrainReport, ConvergenceMonitor) {
        self.report.pms_trained = self.trained.iter().filter(|&&t| t).count();
        (self.report, self.monitor)
    }

    /// The learning phase (WOG) on a fresh arena, with eligibility from
    /// the data center's dirty-set index instead of a full scan.
    fn learn_on_arena<D: DemandSource + ?Sized>(
        &mut self,
        dc: &mut DataCenter,
        trace: &mut D,
    ) -> QArena {
        let n = dc.n_pms();
        let mut arena = QArena::from_env(n, self.cfg.qparams);
        let mut caches: Vec<PairCaches> = (0..n).map(|_| PairCaches::default()).collect();
        let iters = self.cfg.learning_iterations;
        for round in 0..self.cfg.learning_rounds {
            let _round_span = self.profiler.span("learn_round");
            self.begin_learn_round(round, dc, trace);
            dc.refresh_eligibility(self.cfg.learning_threshold);
            let (eligible, ptr) = (dc.eligible_flags(), arena.as_ptr());
            self.local_training(
                dc,
                |i| eligible[i],
                caches.iter_mut(),
                |pm, caches, profiles, rng, idxs| {
                    caches.reset();
                    // SAFETY: tasks carry disjoint PM indices, so this
                    // view is the only access to PM `pm`'s slots; the
                    // arena outlives the pool run.
                    let mut pair = unsafe { ptr.pair_mut(pm.0 as usize, caches) };
                    local_train_with(&mut pair, profiles, iters, rng, idxs);
                },
            );
            self.end_round(TrainPhase::Learning, round, &arena);
        }
        arena
    }

    /// Opens learning round `round`: workload step, then the overlay
    /// shuffle.
    fn begin_learn_round<D: DemandSource + ?Sized>(
        &mut self,
        round: usize,
        dc: &mut DataCenter,
        trace: &mut D,
    ) {
        self.tracer.begin_round(round as u64);
        {
            let _s = self.profiler.span("workload_step");
            dc.step(trace);
        }
        self.shuffle();
    }

    fn shuffle(&mut self) {
        let _s = self.profiler.span("shuffle");
        self.overlay
            .run_round(&mut self.overlay_rng, RoundIo::traced(self.tracer));
    }

    /// One round of Algorithm 1 over the worker pool: every PM `i` with
    /// `eligible(i)` picks a learning neighbour off its own RNG stream,
    /// gathers both PMs' VM profiles and hands them to `train` together
    /// with its storage `slot` (`slots` yields one per PM, in PM order).
    /// Eligibility is decided up front from the shared snapshot; the
    /// workers then only touch their own task's state plus the read-only
    /// data-center view and liveness mask.
    fn local_training<S: Send>(
        &mut self,
        dc: &DataCenter,
        eligible: impl Fn(usize) -> bool,
        slots: impl Iterator<Item = S>,
        train: impl Fn(PmId, &mut S, &[VmProfile], &mut SimRng, &mut Vec<usize>) + Sync,
    ) {
        let profiler = self.profiler;
        let fanout_span = profiler.span("fanout");
        let view = dc.view();
        let (nodes, alive) = self.overlay.split_mut();
        let mut tasks: Vec<LearnTask<'_, S>> = self
            .pm_rngs
            .iter_mut()
            .zip(nodes.iter_mut())
            .zip(self.scratch.iter_mut())
            .zip(slots)
            .enumerate()
            .filter(|&(i, _)| eligible(i))
            .map(|(i, (((rng, node), scratch), slot))| LearnTask {
                pm: PmId(i as u32),
                rng,
                node,
                scratch,
                slot,
            })
            .collect();
        drop(fanout_span);
        let train_span = profiler.span("local_train");
        let dup = self.cfg.profile_duplication;
        let timing = parallel_for_each_timed(&mut tasks, self.threads, |t| {
            let neighbor = CyclonOverlay::random_alive_peer_in(t.node, alive, t.rng).map(PmId);
            gather_profiles_into(view, t.pm, neighbor, dup, &mut t.scratch.profiles);
            train(
                t.pm,
                &mut t.slot,
                &t.scratch.profiles,
                t.rng,
                &mut t.scratch.idxs,
            );
        });
        if profiler.is_on() {
            for w in &timing.workers {
                profiler.record_concurrent_ns("worker_busy", w.busy_ns);
                profiler
                    .record_concurrent_ns("worker_idle", timing.wall_ns.saturating_sub(w.busy_ns));
            }
        }
        drop(train_span);
        for t in &tasks {
            self.trained[t.pm.0 as usize] = true;
            self.report.updates += 2 * self.cfg.learning_iterations as u64;
        }
    }

    /// Closes a round of either phase by observing the table population
    /// it left behind: the Figure 5 similarity sample (off the shared
    /// phase RNG, so it is part of the run's draw sequence whichever
    /// storage is sampled), the convergence monitor sample, and the
    /// tracer's per-round counter snapshot.
    fn end_round<P: Population + ?Sized>(&mut self, phase: TrainPhase, round: usize, tables: &P) {
        if self.record_similarity {
            let _s = self.profiler.span("similarity");
            let sim = mean_pairwise_similarity(
                tables,
                &self.overlay,
                SIMILARITY_SAMPLE_PAIRS,
                &mut self.learn_rng,
            );
            self.report.similarity.push((phase, round, sim));
        }
        if self.tracer.is_on() {
            let _s = self.profiler.span("convergence");
            self.sample_convergence(phase, round, tables);
        }
        self.tracer.end_round();
    }

    /// One monitor sample: population diameter + cosine-vs-unified +
    /// overlay health, recorded into the monitor and emitted as a
    /// `convergence_sampled` event. Reads no randomness, so it cannot
    /// perturb the run.
    fn sample_convergence<P: Population + ?Sized>(
        &mut self,
        phase: TrainPhase,
        round: usize,
        tables: &P,
    ) {
        let scratch = &mut self.conv_scratch;
        let unified = tables.unified();
        scratch.reference.clear();
        scratch
            .reference
            .extend_from_slice(unified.out.raw_values());
        scratch
            .reference
            .extend_from_slice(unified.r#in.raw_values());
        scratch.alive.clear();
        scratch
            .alive
            .extend((0..self.overlay.len()).map(|i| self.overlay.is_alive(i as u32)));
        let health = OverlayHealth::from_in_degrees(
            &self.overlay.in_degrees(),
            &scratch.alive,
            self.overlay.is_connected(),
        );
        let sample = self.monitor.record(
            match phase {
                TrainPhase::Learning => Phase::Learning,
                TrainPhase::Aggregation => Phase::Aggregation,
            },
            round as u64,
            tables.value_rows(&scratch.alive, &mut scratch.flat),
            &scratch.reference,
            health,
        );
        self.tracer.emit(EventKind::ConvergenceSampled {
            cycle: round as u32,
            diameter: sample.diameter,
            cosine: sample.mean_cosine_to_ref,
            alive: health.alive as u32,
            connected: health.connected,
        });
    }

    /// The aggregation phase (WG) with verbatim merges: they carry no
    /// cross-exchange state, so each round shards across the worker pool.
    fn aggregate<P: Population + ?Sized>(&mut self, tables: &mut P) {
        let (threads, tracer) = (self.threads, self.tracer);
        self.aggregation_rounds(tables, |tables, overlay, rng| {
            aggregation_round_sharded(tables, overlay, rng, threads, AggIo::traced(tracer));
        });
    }

    /// The aggregation phase through `cfg.codec`: per-PM codec state
    /// persists across the whole phase (deltas diff against the last
    /// completed exchange), which keeps the rounds serial and boxed.
    fn aggregate_coded(&mut self, tables: &mut [QTablePair]) {
        let tracer = self.tracer;
        let mut codecs = FleetCodecs::new(tables.len(), self.cfg.codec);
        self.aggregation_rounds(tables, |tables, overlay, rng| {
            let io = AggIo::traced(tracer).with_codec(&mut codecs);
            aggregation_round(tables, overlay, rng, io);
        });
    }

    fn aggregation_rounds<P: Population + ?Sized>(
        &mut self,
        tables: &mut P,
        mut merge: impl FnMut(&mut P, &mut CyclonOverlay, &mut SimRng),
    ) {
        self.tracer.set_phase(Phase::Aggregation);
        for round in 0..self.cfg.aggregation_rounds {
            let _round_span = self.profiler.span("agg_round");
            self.tracer.begin_round(round as u64);
            self.shuffle();
            {
                let _s = self.profiler.span("merge");
                merge(tables, &mut self.overlay, &mut self.learn_rng);
            }
            self.end_round(TrainPhase::Aggregation, round, tables);
        }
    }
}

/// Collapses per-PM tables into one unified table by merging everything —
/// the fixed point the gossip converges to (union of keys, averaged
/// values). Used to hand one shared table to the consolidation component
/// after convergence.
pub fn unified_table(tables: &[QTablePair]) -> QTablePair {
    let mut unified = tables.first().cloned().unwrap_or_default();
    for t in &tables[1..] {
        unified.merge(t);
    }
    unified
}

/// Re-runs the two-phase protocol *in place* on a live data center —
/// no workload stepping, using the demand averages the VMs have already
/// accumulated in production. This is the paper's re-trigger path:
/// "the learning component runs as required by a predefined policy, e.g.
/// if the arrival and departure rates of VMs exceed a threshold compared
/// to the last learning time or based on a fixed time interval" (§IV-B).
///
/// `passes` controls how many local-training sweeps each eligible PM runs
/// (each sweep applies `cfg.learning_iterations` simulated migrations).
/// Returns the unified post-aggregation table.
pub fn retrain_in_place<R: Rng>(
    dc: &DataCenter,
    cfg: &GlapConfig,
    passes: usize,
    rng: &mut R,
) -> QTablePair {
    let n = dc.n_pms();
    let mut tables: Vec<QTablePair> = (0..n).map(|_| QTablePair::new(cfg.qparams)).collect();
    let mut overlay = CyclonOverlay::new(n, cfg.cyclon_cache, cfg.cyclon_shuffle);
    // Bootstrap with the live membership: sleeping PMs are out.
    overlay.bootstrap_random(rng);
    for pm in dc.pms() {
        if !pm.is_active() {
            overlay.set_dead(pm.id().0);
        }
    }
    for _ in 0..passes {
        overlay.run_round(rng, RoundIo::default());
        for (i, table) in tables.iter_mut().enumerate() {
            let pm = PmId(i as u32);
            if !is_eligible(dc, pm, cfg) {
                continue;
            }
            let neighbor = overlay.random_alive_peer(i as u32, rng).map(PmId);
            // Adaptive duplication: on a consolidated cluster the eligible
            // PMs are the light ones, so the fixed factor is not enough to
            // cover high-load states ("duplicate vms if required").
            let base = gather_profiles(dc, pm, neighbor, 1);
            let dup = required_duplication(&base, cfg.profile_duplication);
            let profiles = duplicate_profiles(base, dup);
            local_train(table, &profiles, cfg.learning_iterations, rng);
        }
    }
    let mut codecs = (cfg.codec != CodecKind::Identity).then(|| FleetCodecs::new(n, cfg.codec));
    for _ in 0..cfg.aggregation_rounds {
        overlay.run_round(rng, RoundIo::default());
        let mut io = AggIo::default();
        if let Some(codecs) = codecs.as_mut() {
            io = io.with_codec(codecs);
        }
        aggregation_round(&mut tables, &mut overlay, rng, io);
    }
    unified_table(&tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glap_cluster::{DataCenterConfig, Resources, VmId, VmSpec};

    fn setup(n_pms: usize, ratio: usize) -> DataCenter {
        let mut dc = DataCenter::new(DataCenterConfig::paper(n_pms));
        for _ in 0..n_pms * ratio {
            dc.add_vm(VmSpec::EC2_MICRO);
        }
        let mut rng = stream_rng(1, Stream::Placement);
        dc.random_placement(&mut rng);
        dc
    }

    fn small_cfg() -> GlapConfig {
        GlapConfig {
            learning_rounds: 10,
            aggregation_rounds: 10,
            learning_iterations: 10,
            ..Default::default()
        }
    }

    fn wave_trace(vm: VmId, round: u64) -> Resources {
        let x = 0.3 + 0.25 * ((round as f64 / 7.0) + vm.0 as f64).sin();
        Resources::splat(x)
    }

    #[test]
    fn training_produces_knowledge_and_convergence() {
        let mut dc = setup(30, 3);
        let cfg = small_cfg();
        let (tables, report) = train(&mut dc, &mut wave_trace, &cfg, 42, true);
        assert!(report.pms_trained > 0);
        assert!(report.updates > 0);
        assert!(tables.iter().any(|t| t.trained_pairs() > 0));
        // Similarity series: learning phase entries then aggregation.
        let learn_sims: Vec<f64> = report
            .similarity
            .iter()
            .filter(|(p, _, _)| *p == TrainPhase::Learning)
            .map(|&(_, _, s)| s)
            .collect();
        let agg_sims: Vec<f64> = report
            .similarity
            .iter()
            .filter(|(p, _, _)| *p == TrainPhase::Aggregation)
            .map(|&(_, _, s)| s)
            .collect();
        assert_eq!(learn_sims.len(), cfg.learning_rounds);
        assert_eq!(agg_sims.len(), cfg.aggregation_rounds);
        // The paper's headline: aggregation drives similarity near 1.
        let final_sim = *agg_sims.last().unwrap();
        assert!(final_sim > 0.99, "final similarity {final_sim}");
        // And learning alone plateaus lower than the aggregated result.
        let final_learn = *learn_sims.last().unwrap();
        assert!(
            final_learn < final_sim,
            "WOG {final_learn} vs WG {final_sim}"
        );
    }

    #[test]
    fn unified_table_covers_union_of_knowledge() {
        let mut dc = setup(20, 2);
        let (tables, _) = train(&mut dc, &mut wave_trace, &small_cfg(), 7, false);
        let uni = unified_table(&tables);
        let max_individual = tables.iter().map(|t| t.trained_pairs()).max().unwrap();
        assert!(uni.trained_pairs() >= max_individual);
    }

    #[test]
    fn training_is_deterministic() {
        let run = |seed: u64| {
            let mut dc = setup(15, 2);
            let (tables, _) = train(&mut dc, &mut wave_trace, &small_cfg(), seed, false);
            unified_table(&tables)
        };
        assert_eq!(run(9), run(9));
    }

    /// `train_arena` returns the same tables `train` exports, without
    /// the boxed materialization.
    #[test]
    fn train_arena_matches_boxed_export() {
        let cfg = small_cfg();
        let boxed = {
            let mut dc = setup(20, 2);
            train(&mut dc, &mut wave_trace, &cfg, 13, false).0
        };
        let mut dc = setup(20, 2);
        let (arena, report) =
            train_arena(&mut dc, &mut wave_trace, &cfg, 13, None, &Profiler::off());
        assert!(report.pms_trained > 0);
        for (i, b) in boxed.iter().enumerate() {
            assert_eq!(arena.export_pm(i), *b, "pm {i}");
        }
    }

    #[test]
    fn sleeping_pms_do_not_train() {
        let mut dc = setup(10, 2);
        // Empty PM 0 by construction is unlikely; force-sleep an empty one
        // if any, otherwise skip.
        let empty: Vec<PmId> = dc.pms().filter(|p| p.is_empty()).map(|p| p.id()).collect();
        for pm in &empty {
            dc.sleep_if_empty(*pm);
        }
        let (_, report) = train(&mut dc, &mut wave_trace, &small_cfg(), 3, false);
        assert!(report.pms_trained <= 10 - empty.len());
    }
}

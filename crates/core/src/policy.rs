//! The gossip workload-consolidation component (Algorithm 3).
//!
//! Each round every active PM push–pulls state with one random Cyclon
//! neighbour. If either side is overloaded it evicts VMs until it no longer
//! is; otherwise the PM with the lower total current utilization becomes
//! the *sender* and tries to empty itself to switch off. Every candidate
//! migration runs through the learned knowledge:
//!
//! * `π_out` picks the eviction action with the greatest `φ_out` value for
//!   the sender's (average-demand) state; among VMs matching the action,
//!   the cheapest to move (least memory) is chosen;
//! * `π_in` vetoes the migration if `φ_in(s_q, a) < 0` — the sender decides
//!   *on behalf of the target* because all PMs own identical Q-values,
//!   which is what eliminates an extra round trip;
//! * a capacity check ensures the target can host the VM's current demand.
//!
//! Emptied PMs go to sleep and leave the overlay.

use crate::aggregation::{aggregation_round, AggIo};
use crate::config::GlapConfig;
use crate::learning::{
    gather_profiles_into, is_eligible, local_train_with, repeat_profiles, required_duplication,
    LearnScratch,
};
use glap_cluster::{DataCenter, PmId, Resources, VmId};
use glap_cyclon::{bootstrap_sample, CyclonOverlay, RoundIo};
use glap_dcsim::{stream_rng, ConsolidationPolicy, NetworkModel, RoundCtx, SimRng, Stream};
use glap_qlearn::{unified_table, PmState, QArena, QTablePair, VmAction};
use glap_snapshot::{Checkpointable, Reader, SnapshotError, Writer};
use glap_telemetry::{AbortReason, EventKind, Tracer};
use rand::seq::SliceRandom;
use rand::Rng;

/// Modelled size of an exchange-opening request: the initiator ships its
/// load vector (3 × f64 utilization) plus id and round tag.
const EXCHANGE_REQ_BYTES: u64 = 32;
/// Modelled size of the exchange-opening reply: the partner's load vector
/// and its decision bit.
const EXCHANGE_REPLY_BYTES: u64 = 32;
/// Modelled size of a per-VM transfer handshake request: VM id plus its
/// current and near-future demand vectors.
const HANDSHAKE_REQ_BYTES: u64 = 52;
/// Modelled size of the handshake acknowledgement.
const HANDSHAKE_REPLY_BYTES: u64 = 4;

/// Where a PM finds its Q-tables.
#[derive(Debug, Clone)]
pub enum TableStore {
    /// All PMs share one unified table — the normal post-convergence mode.
    Shared(Box<QTablePair>),
    /// Each PM uses its own table (the "no aggregation" ablation).
    PerPm(Vec<QTablePair>),
}

impl TableStore {
    /// The table PM `pm` consults.
    #[inline]
    pub fn for_pm(&self, pm: PmId) -> &QTablePair {
        match self {
            TableStore::Shared(t) => t,
            TableStore::PerPm(v) => &v[pm.index()],
        }
    }
}

/// Why an eviction loop stopped (exposed for tests and diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The loop's goal was reached (no longer overloaded / PM empty).
    GoalReached,
    /// `π_out` had no trained action among the available VMs.
    NoAction,
    /// `π_in` vetoed the migration (`φ_in < 0`).
    InVeto,
    /// The target lacked capacity for the VM's current demand.
    NoCapacity,
    /// The transfer handshake failed: the target crashed or the
    /// request/reply was lost on the management network.
    Unreachable,
}

/// When and how the learning component re-runs during live operation
/// (§IV-B's "predefined policy"). A trigger opens a *learning window*:
/// for `learning_window` rounds every eligible PM trains on that round's
/// live profiles (fresh demand observations each round, so the learner
/// sees real variance, exactly like the initial training), then the
/// aggregation gossip unifies the new tables and they are merged into the
/// consolidation component's knowledge — "the consolidation component can
/// be configured to either continue using the previous Q-values or pause
/// for a while and resume by using new Q-values".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrainConfig {
    /// Re-train once this many VM arrival/departure events accumulated
    /// since the last training.
    pub churn_threshold: usize,
    /// Also re-train on a fixed round interval, if set.
    pub interval: Option<u64>,
    /// Length of the online learning window, in rounds.
    pub learning_window: usize,
}

impl Default for RetrainConfig {
    fn default() -> Self {
        RetrainConfig {
            churn_threshold: 50,
            interval: None,
            learning_window: 30,
        }
    }
}

/// In-flight online learning state (one re-training window): one sparse
/// slot per PM, checkpointed as the dense pair bytes.
#[derive(Debug, Clone)]
struct OnlineLearning {
    tables: QArena,
    rounds_left: usize,
}

/// GLAP's consolidation policy, pluggable into the cycle-driven engine.
#[derive(Debug, Clone)]
pub struct GlapPolicy {
    cfg: GlapConfig,
    store: TableStore,
    overlay: CyclonOverlay,
    /// Ablation: accept every capacity-feasible VM (disables the learned
    /// admission control).
    pub disable_in_veto: bool,
    /// Ablation: use current-demand states everywhere (disables the
    /// average-demand piggyback signal).
    pub current_state_only: bool,
    /// Running count of vetoed migrations (diagnostics).
    pub vetoes: u64,
    /// Optional learning re-trigger policy.
    pub retrain: Option<RetrainConfig>,
    /// Churn events since the last (re-)training.
    churn_since_training: usize,
    /// Rounds since the last (re-)training.
    rounds_since_training: u64,
    /// How many times the learning component re-ran (diagnostics).
    pub retrainings: u64,
    /// An open learning window, if any.
    online: Option<OnlineLearning>,
    /// The learning window's profile and shuffle buffers (scratch:
    /// neither checkpointed nor part of the policy's state).
    learn_scratch: LearnScratch,
    /// Extension (paper future work): topology awareness. When the data
    /// center has a rack topology, racks are ranked (lowest index first)
    /// and consolidation flows *down* the ranking from the first round:
    /// gossip partners are preferred in lower-ranked racks and the PM in
    /// the higher-ranked rack acts as sender. Survivor PMs therefore
    /// concentrate in a prefix of the racks and the remaining racks —
    /// and their ToR switches — power down entirely.
    pub rack_aware: bool,
    /// Cached per-rack active-PM counts, refreshed each round.
    rack_occupancy: Vec<usize>,
    /// Which PMs this policy currently believes crashed (management
    /// network down). Only maintained under a faulty network model.
    crashed: Vec<bool>,
}

impl GlapPolicy {
    /// Builds the policy from a table store and configuration.
    pub fn new(cfg: GlapConfig, store: TableStore) -> Self {
        let overlay = CyclonOverlay::new(0, cfg.cyclon_cache, cfg.cyclon_shuffle);
        GlapPolicy {
            cfg,
            store,
            overlay,
            disable_in_veto: false,
            current_state_only: false,
            vetoes: 0,
            retrain: None,
            churn_since_training: 0,
            rounds_since_training: 0,
            retrainings: 0,
            online: None,
            learn_scratch: LearnScratch::default(),
            rack_aware: false,
            rack_occupancy: Vec::new(),
            crashed: Vec::new(),
        }
    }

    /// Builds the usual shared-table policy.
    pub fn with_shared_table(cfg: GlapConfig, table: QTablePair) -> Self {
        Self::new(cfg, TableStore::Shared(Box::new(table)))
    }

    /// The state a PM presents: from average demands (the paper's scheme)
    /// or from current demands under the ablation.
    fn pm_state(&self, dc: &DataCenter, pm: PmId) -> PmState {
        let u = if self.current_state_only {
            dc.pm(pm).utilization()
        } else {
            dc.pm(pm).avg_utilization()
        };
        PmState::from_utilization(u)
    }

    /// The action label of a VM: from its average demand (or current under
    /// the ablation).
    fn vm_action(&self, dc: &DataCenter, vm: VmId) -> VmAction {
        let d = if self.current_state_only {
            dc.vm(vm).current
        } else {
            dc.vm(vm).avg.value()
        };
        VmAction::from_demand(d)
    }

    /// One `MIGRATE()` attempt from `src` to `dst`. Returns the migrated VM
    /// or the reason nothing moved.
    fn try_migrate(
        &mut self,
        dc: &mut DataCenter,
        net: &mut NetworkModel,
        src: PmId,
        dst: PmId,
        tracer: &Tracer,
    ) -> Result<VmId, StopReason> {
        let s_src = self.pm_state(dc, src);
        let tables = self.store.for_pm(src);

        // findVM(s_p): best action among available VMs; among the VMs
        // matching it, least migration cost (memory footprint).
        let vms = dc.pm(src).vms();
        let best = tables
            .pi_out(s_src, vms.iter().map(|&vm| self.vm_action(dc, vm)))
            .map(|(a, _)| a);
        let Some(action) = best else {
            tracer.emit(EventKind::MigrationAborted {
                from: src.0,
                to: dst.0,
                reason: AbortReason::NoAction,
            });
            return Err(StopReason::NoAction);
        };
        let vm = vms
            .iter()
            .copied()
            .filter(|&vm| self.vm_action(dc, vm) == action)
            .min_by(|&a, &b| {
                dc.vm(a)
                    .mem_demand_mb()
                    .partial_cmp(&dc.vm(b).mem_demand_mb())
                    .expect("finite memory demands")
            })
            .expect("an available VM matches the chosen action");
        tracer.emit(EventKind::MigrationProposed {
            vm: vm.0,
            from: src.0,
            to: dst.0,
        });

        // π_in on behalf of the target.
        if !self.disable_in_veto {
            let s_dst = self.pm_state(dc, dst);
            if !self.store.for_pm(src).pi_in(s_dst, action) {
                self.vetoes += 1;
                tracer.emit(EventKind::MigrationVetoed {
                    vm: vm.0,
                    from: src.0,
                    to: dst.0,
                });
                return Err(StopReason::InVeto);
            }
        }

        // Capacity check on current demands.
        let needed = dc.pm(dst).demand() + dc.vm(vm).current;
        if !needed.fits_within(Resources::FULL) {
            tracer.emit(EventKind::MigrationAborted {
                from: src.0,
                to: dst.0,
                reason: AbortReason::NoCapacity,
            });
            return Err(StopReason::NoCapacity);
        }

        // Per-VM transfer handshake: the target must acknowledge before
        // the state copy starts. If it crashed since the exchange opened
        // (or the handshake is lost), the transfer — and the surrounding
        // eviction loop — aborts cleanly, leaving the VM on `src`.
        if !net.is_up(dst.0)
            || !net
                .request_payload(src.0, dst.0, HANDSHAKE_REQ_BYTES, HANDSHAKE_REPLY_BYTES)
                .is_ok()
        {
            tracer.emit(EventKind::MigrationAborted {
                from: src.0,
                to: dst.0,
                reason: AbortReason::Unreachable,
            });
            return Err(StopReason::Unreachable);
        }

        dc.migrate(vm, dst)
            .expect("migration preconditions verified");
        Ok(vm)
    }

    /// `UPDATESTATE()` for an initiator/partner pair: overload relief
    /// first, otherwise the less-utilized side empties itself toward
    /// switch-off.
    fn exchange(
        &mut self,
        dc: &mut DataCenter,
        net: &mut NetworkModel,
        p: PmId,
        q: PmId,
        tracer: &Tracer,
    ) {
        // Overload relief: "call MIGRATE() as long as p is overloaded".
        for (over, other) in [(p, q), (q, p)] {
            while dc.pm(over).is_overloaded() {
                if self.try_migrate(dc, net, over, other, tracer).is_err() {
                    break;
                }
            }
        }
        if dc.pm(p).is_overloaded() || dc.pm(q).is_overloaded() {
            return;
        }

        // Consolidation: sender = arg min of total current utilization.
        let (mut sender, mut receiver) = if dc.pm(p).demand().total() <= dc.pm(q).demand().total() {
            (p, q)
        } else {
            (q, p)
        };
        // Rack awareness: consolidation flows toward lower-ranked racks,
        // so the PM in the higher-ranked rack sends regardless of which
        // of the two is individually lighter.
        if self.rack_aware {
            if let Some(topo) = dc.config().topology {
                if topo.rack_of(sender) < topo.rack_of(receiver) {
                    std::mem::swap(&mut sender, &mut receiver);
                }
            }
        }
        // "call MIGRATE() as long as [we can] switch off p".
        while !dc.pm(sender).is_empty() {
            if self.try_migrate(dc, net, sender, receiver, tracer).is_err() {
                break;
            }
        }
        if dc.sleep_if_empty(sender) {
            self.overlay.set_dead(sender.0);
        }
    }
}

impl ConsolidationPolicy for GlapPolicy {
    fn name(&self) -> &'static str {
        "glap"
    }

    fn init(&mut self, dc: &mut DataCenter, rng: &mut SimRng) {
        self.overlay =
            CyclonOverlay::new(dc.n_pms(), self.cfg.cyclon_cache, self.cfg.cyclon_shuffle);
        self.overlay.bootstrap_random(rng);
        self.crashed = vec![false; dc.n_pms()];
        for pm in dc.pms() {
            if !pm.is_active() {
                self.overlay.set_dead(pm.id().0);
            }
        }
    }

    fn round(&mut self, ctx: &mut RoundCtx<'_>) {
        self.churn_since_training += ctx.churn_events;
        let dc = &mut *ctx.dc;
        let rng = &mut *ctx.rng;
        let net = &mut *ctx.net;
        let tracer = ctx.tracer;

        // Crash/recovery bookkeeping (faulty networks only; the ideal
        // path never crashes anyone, and this block must not touch the
        // policy RNG in that case). A crashed PM leaves the overlay like
        // a sleeping one — its VMs keep running, it just answers no
        // gossip. A recovered, still-active PM rejoins by bootstrapping
        // its view from a few random alive peers.
        if !net.is_ideal() {
            if self.crashed.len() != dc.n_pms() {
                self.crashed = vec![false; dc.n_pms()];
            }
            for i in 0..dc.n_pms() as u32 {
                let up = net.is_up(i);
                if !up && !self.crashed[i as usize] {
                    self.crashed[i as usize] = true;
                    self.overlay.set_dead(i);
                } else if up && self.crashed[i as usize] {
                    self.crashed[i as usize] = false;
                    if dc.pm(PmId(i)).is_active() {
                        self.overlay.set_alive(i);
                        let ids: Vec<u32> = (0..dc.n_pms() as u32)
                            .filter(|&j| self.overlay.is_alive(j) && net.is_up(j))
                            .collect();
                        let mut pool = Vec::new();
                        let want = self.cfg.cyclon_cache;
                        let peers = bootstrap_sample(&ids, i, want, rng, &mut pool);
                        self.overlay.node_mut(i).bootstrap(peers.iter().copied());
                    }
                }
            }
        }

        // Learning re-trigger (§IV-B): by churn volume or fixed interval.
        if let Some(rt) = self.retrain {
            self.rounds_since_training += 1;
            if self.online.is_none() {
                let by_churn = self.churn_since_training >= rt.churn_threshold;
                let by_time = rt
                    .interval
                    .is_some_and(|iv| self.rounds_since_training >= iv);
                if by_churn || by_time {
                    self.online = Some(OnlineLearning {
                        tables: QArena::new(dc.n_pms(), self.cfg.qparams),
                        rounds_left: rt.learning_window.max(1),
                    });
                }
            }
        }

        // Cyclon runs continuously underneath (Figure 2), every shuffle a
        // request/reply over the message bus. A non-response (drop,
        // timeout, crashed target) leaves the target's descriptor evicted
        // — Cyclon's own churn rule, at no extra cost.
        self.overlay.run_round(
            rng,
            RoundIo::full(&mut |a, b| net.request(a, b).is_ok(), tracer),
        );

        // One round of the open learning window, if any: every eligible
        // PM trains on this round's live profiles, so the learner sees
        // the same demand variance the initial training did.
        if let Some(mut online) = self.online.take() {
            for i in 0..dc.n_pms() {
                let pm = PmId(i as u32);
                // Crashed and ineligible PMs train nothing this round.
                if !net.is_up(i as u32) || !is_eligible(dc, pm, &self.cfg) {
                    continue;
                }
                let neighbor = self.overlay.random_alive_peer(i as u32, rng).map(PmId);
                let scratch = &mut self.learn_scratch;
                gather_profiles_into(dc.view(), pm, neighbor, 1, &mut scratch.profiles);
                let dup = required_duplication(&scratch.profiles, self.cfg.profile_duplication);
                repeat_profiles(&mut scratch.profiles, dup);
                local_train_with(
                    &mut online.tables.slots_mut()[i],
                    &scratch.profiles,
                    self.cfg.learning_iterations,
                    rng,
                    &mut scratch.idxs,
                );
            }
            online.rounds_left -= 1;
            if online.rounds_left == 0 {
                // Aggregation phase, the trainer's round over the live
                // network (faults drop exchanges, crashed PMs sit out),
                // then merge the unified result into the consolidation
                // component's knowledge.
                for _ in 0..self.cfg.aggregation_rounds {
                    self.overlay.run_round(
                        rng,
                        RoundIo::full(&mut |a, b| net.request(a, b).is_ok(), tracer),
                    );
                    let io = AggIo::full(net, tracer);
                    aggregation_round(online.tables.slots_mut(), &mut self.overlay, rng, None, io);
                }
                let mut table = unified_table(online.tables.slots());
                if let TableStore::Shared(old) = &self.store {
                    table.merge(old);
                }
                self.store = TableStore::Shared(Box::new(table));
                self.churn_since_training = 0;
                self.rounds_since_training = 0;
                self.retrainings += 1;
            } else {
                self.online = Some(online);
            }
        }

        if self.rack_aware {
            if let Some(topo) = dc.config().topology {
                self.rack_occupancy = topo.rack_occupancy(dc);
            }
        }

        let mut order: Vec<PmId> = dc.active_pm_ids().collect();
        order.shuffle(rng);

        // Ideal-network sweep without the rack extension: every
        // initiator first picks its partner on its own
        // `Stream::PolicyPm(p)` stream, seeded from one per-sweep draw,
        // against the pre-sweep overlay; then the pairs exchange live,
        // in order. Like the aggregation round, the per-PM
        // selection streams are this path's deliberate re-seed relative
        // to the shared-RNG loop below. Fault randomness and rack-aware
        // draws are inherently sequential, so those configurations keep
        // that loop.
        if net.is_ideal() && !self.rack_aware {
            let sweep_seed: u64 = rng.gen();
            let pairs: Vec<(PmId, PmId)> = order
                .iter()
                .filter_map(|&p| {
                    let mut prng = stream_rng(sweep_seed, Stream::PolicyPm(p.0));
                    let q = self.overlay.random_alive_peer(p.0, &mut prng)?;
                    (q != p.0).then_some((p, PmId(q)))
                })
                .collect();
            for (p, q) in pairs {
                if !dc.pm(p).is_active() {
                    continue; // went to sleep earlier this round
                }
                if !dc.pm(q).is_active() {
                    // Stale view entry (asleep): drop and skip.
                    self.overlay.node_mut(p.0).remove(q.0);
                    continue;
                }
                // Exchange-opening round trip (always delivered here).
                let _ = net.request_payload(p.0, q.0, EXCHANGE_REQ_BYTES, EXCHANGE_REPLY_BYTES);
                tracer.emit(EventKind::ExchangeOpened { p: p.0, q: q.0 });
                self.exchange(dc, net, p, q, tracer);
            }
            return;
        }

        for p in order {
            if !dc.pm(p).is_active() {
                continue; // went to sleep earlier this round
            }
            if !net.is_up(p.0) {
                continue; // crashed PMs initiate nothing
            }
            // Peer selection: rack-aware GLAP gossips, half the time,
            // with the alive neighbour in the lowest-ranked rack (random
            // among ties) so VMs flow down the rack ranking — and
            // otherwise uniformly, so ordinary local consolidation keeps
            // happening everywhere.
            let q = if self.rack_aware && rng.gen_bool(0.5) {
                dc.config()
                    .topology
                    .and_then(|topo| {
                        let alive: Vec<u32> = self
                            .overlay
                            .node(p.0)
                            .neighbors()
                            .filter(|&nb| dc.pm(PmId(nb)).is_active())
                            .collect();
                        let best_rack = alive.iter().map(|&nb| topo.rack_of(PmId(nb))).min()?;
                        let candidates: Vec<u32> = alive
                            .into_iter()
                            .filter(|&nb| topo.rack_of(PmId(nb)) == best_rack)
                            .collect();
                        candidates.choose(rng).copied()
                    })
                    .or_else(|| self.overlay.random_alive_peer(p.0, rng))
            } else {
                self.overlay.random_alive_peer(p.0, rng)
            };
            let Some(q) = q else { continue };
            let q = PmId(q);
            if !dc.pm(q).is_active() || !net.is_up(q.0) {
                // Stale view entry (asleep or crashed): drop and skip.
                self.overlay.node_mut(p.0).remove(q.0);
                continue;
            }
            // Open the push–pull exchange with one request/reply; a lost
            // or timed-out opening skips the pairing this round.
            if !net
                .request_payload(p.0, q.0, EXCHANGE_REQ_BYTES, EXCHANGE_REPLY_BYTES)
                .is_ok()
            {
                continue;
            }
            tracer.emit(EventKind::ExchangeOpened { p: p.0, q: q.0 });
            self.exchange(dc, net, p, q, tracer);
        }
    }

    /// Serializes every piece of mutable policy state: the table store,
    /// the overlay views, ablation switches, re-training bookkeeping, an
    /// open learning window if any, and the crash/rack caches. `cfg` is
    /// *not* serialized — a resumed run reconstructs the policy from the
    /// scenario's configuration, and the overlay parameters are
    /// cross-checked during restore.
    fn save_state(&self, w: &mut Writer) {
        w.put_usize(self.overlay.len());
        match &self.store {
            TableStore::Shared(t) => {
                w.put_u8(0);
                t.save(w);
            }
            TableStore::PerPm(tables) => {
                w.put_u8(1);
                w.put_usize(tables.len());
                for t in tables {
                    t.save(w);
                }
            }
        }
        self.overlay.save(w);
        w.put_bool(self.disable_in_veto);
        w.put_bool(self.current_state_only);
        w.put_u64(self.vetoes);
        match &self.retrain {
            None => w.put_bool(false),
            Some(rt) => {
                w.put_bool(true);
                w.put_usize(rt.churn_threshold);
                match rt.interval {
                    None => w.put_bool(false),
                    Some(iv) => {
                        w.put_bool(true);
                        w.put_u64(iv);
                    }
                }
                w.put_usize(rt.learning_window);
            }
        }
        w.put_usize(self.churn_since_training);
        w.put_u64(self.rounds_since_training);
        w.put_u64(self.retrainings);
        match &self.online {
            None => w.put_bool(false),
            Some(ol) => {
                w.put_bool(true);
                w.put_usize(ol.tables.len());
                for t in ol.tables.slots() {
                    t.save(w);
                }
                w.put_usize(ol.rounds_left);
            }
        }
        w.put_bool(self.rack_aware);
        w.put_usize(self.rack_occupancy.len());
        for &c in &self.rack_occupancy {
            w.put_usize(c);
        }
        w.put_bool_slice(&self.crashed);
    }

    /// Restores into a freshly constructed policy (same `GlapConfig`).
    /// Replaces [`ConsolidationPolicy::init`]: the overlay is rebuilt at
    /// the checkpointed size and then overwritten with the saved views.
    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let n = r.get_len()?;
        // A per-PM store or learning window: one table per overlay PM.
        fn read_tables<T: Checkpointable + Default>(
            r: &mut Reader<'_>,
            n: usize,
            what: &str,
        ) -> Result<Vec<T>, SnapshotError> {
            let k = r.get_len()?;
            if k != n {
                return Err(SnapshotError::Corrupt(format!(
                    "{what} holds {k} tables, overlay has {n} PMs"
                )));
            }
            let mut tables = Vec::with_capacity(k);
            for _ in 0..k {
                let mut t = T::default();
                t.restore(r)?;
                tables.push(t);
            }
            Ok(tables)
        }
        let store = match r.get_u8()? {
            0 => {
                let mut t = QTablePair::default();
                t.restore(r)?;
                TableStore::Shared(Box::new(t))
            }
            1 => TableStore::PerPm(read_tables(r, n, "per-PM store")?),
            tag => {
                return Err(SnapshotError::Corrupt(format!(
                    "unknown table-store tag {tag}"
                )))
            }
        };
        let mut overlay = CyclonOverlay::new(n, self.cfg.cyclon_cache, self.cfg.cyclon_shuffle);
        overlay.restore(r)?;
        let disable_in_veto = r.get_bool()?;
        let current_state_only = r.get_bool()?;
        let vetoes = r.get_u64()?;
        let retrain = if r.get_bool()? {
            let churn_threshold = r.get_usize()?;
            let interval = if r.get_bool()? {
                Some(r.get_u64()?)
            } else {
                None
            };
            let learning_window = r.get_usize()?;
            Some(RetrainConfig {
                churn_threshold,
                interval,
                learning_window,
            })
        } else {
            None
        };
        let churn_since_training = r.get_usize()?;
        let rounds_since_training = r.get_u64()?;
        let retrainings = r.get_u64()?;
        let online = if r.get_bool()? {
            Some(OnlineLearning {
                tables: QArena::from_slots(read_tables(r, n, "learning window")?),
                rounds_left: r.get_usize()?,
            })
        } else {
            None
        };
        let rack_aware = r.get_bool()?;
        let k = r.get_len()?;
        let mut rack_occupancy = Vec::with_capacity(k);
        for _ in 0..k {
            rack_occupancy.push(r.get_usize()?);
        }
        let crashed = r.get_bool_slice()?;
        if crashed.len() != n {
            return Err(SnapshotError::Corrupt(format!(
                "crash map covers {} PMs, overlay has {n}",
                crashed.len()
            )));
        }
        self.store = store;
        self.overlay = overlay;
        self.disable_in_veto = disable_in_veto;
        self.current_state_only = current_state_only;
        self.vetoes = vetoes;
        self.retrain = retrain;
        self.churn_since_training = churn_since_training;
        self.rounds_since_training = rounds_since_training;
        self.retrainings = retrainings;
        self.online = online;
        self.rack_aware = rack_aware;
        self.rack_occupancy = rack_occupancy;
        self.crashed = crashed;
        Ok(())
    }
}

/// Builds a fully random dummy-trained table for tests/examples that need
/// *some* plausible knowledge without running the trainer: every
/// (state, action) pair gets out-values preferring big evictions and
/// in-values that are negative whenever the combined load would overload.
pub fn synthetic_table(rng: &mut impl Rng) -> QTablePair {
    let mut q = QTablePair::new(Default::default());
    for s in PmState::all() {
        for a in VmAction::all() {
            let s_u = (s.cpu.representative() + s.mem.representative()) / 2.0;
            let a_u = (a.cpu.representative() + a.mem.representative()) / 2.0;
            // Evicting bigger VMs from fuller PMs is better.
            q.out.set(s, a, 100.0 * a_u + 10.0 * s_u + rng.gen::<f64>());
            // Accepting overflows is bad.
            let combined_cpu = s.cpu.representative() + a.cpu.representative();
            let combined_mem = s.mem.representative() + a.mem.representative();
            let v = if combined_cpu >= 1.0 || combined_mem >= 1.0 {
                -500.0
            } else {
                50.0 * (combined_cpu + combined_mem) + rng.gen::<f64>()
            };
            q.r#in.set(s, a, v);
        }
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use glap_cluster::{DataCenterConfig, VmSpec};
    use glap_dcsim::{run_simulation, stream_rng, Stream};

    fn setup(n_pms: usize, ratio: usize, seed: u64) -> DataCenter {
        let mut dc = DataCenter::new(DataCenterConfig::paper(n_pms));
        for _ in 0..n_pms * ratio {
            dc.add_vm(VmSpec::EC2_MICRO);
        }
        let mut rng = stream_rng(seed, Stream::Placement);
        dc.random_placement(&mut rng);
        dc
    }

    fn trained_policy(seed: u64) -> GlapPolicy {
        let mut rng = stream_rng(seed, Stream::Custom(99));
        GlapPolicy::with_shared_table(GlapConfig::default(), synthetic_table(&mut rng))
    }

    #[test]
    fn consolidation_reduces_active_pms_under_light_load() {
        let mut dc = setup(20, 2, 1);
        let mut trace = |_: VmId, _: u64| Resources::splat(0.3);
        let mut policy = trained_policy(1);
        run_simulation(&mut dc, &mut trace, &mut policy, &mut [], 30, 1);
        // 40 VMs at 30% of nominal ≈ 0.056 CPU each → a PM fits many.
        assert!(
            dc.active_pm_count() < 20,
            "no consolidation happened: {} PMs active",
            dc.active_pm_count()
        );
        dc.check_invariants().unwrap();
    }

    #[test]
    fn sleeping_pms_leave_overlay() {
        let mut dc = setup(12, 2, 3);
        let mut trace = |_: VmId, _: u64| Resources::splat(0.2);
        let mut policy = trained_policy(3);
        run_simulation(&mut dc, &mut trace, &mut policy, &mut [], 25, 3);
        for pm in dc.pms() {
            if !pm.is_active() {
                assert!(!policy.overlay.is_alive(pm.id().0));
            }
        }
    }

    #[test]
    fn in_veto_prevents_overload_migrations() {
        // Two PMs, one nearly full: the veto must stop cramming.
        let mut dc = setup(6, 4, 5);
        let mut trace = |_: VmId, _: u64| Resources::splat(0.85);
        let mut policy = trained_policy(5);
        run_simulation(&mut dc, &mut trace, &mut policy, &mut [], 20, 5);
        // High demand: consolidation must be cautious. Overloads can still
        // happen from load *growth*, but the veto count must be active.
        dc.check_invariants().unwrap();
        // The synthetic in-table rejects overload-bound transitions, so at
        // high demand some vetoes should have fired.
        assert!(policy.vetoes > 0, "no vetoes at high load");
    }

    #[test]
    fn ablation_without_veto_overloads_more() {
        let run = |disable_veto: bool| {
            let mut dc = setup(16, 4, 7);
            let mut trace = |vm: VmId, r: u64| {
                // Varying loads: average ~0.5, swings to ~0.9.
                let x = 0.5 + 0.4 * ((r as f64 / 5.0) + f64::from(vm.0)).sin();
                Resources::splat(x.clamp(0.0, 1.0))
            };
            let mut policy = trained_policy(7);
            policy.disable_in_veto = disable_veto;
            let mut overloads = 0usize;
            struct Counter<'a>(&'a mut usize);
            impl glap_dcsim::Observer for Counter<'_> {
                fn on_round_end(&mut self, _r: u64, dc: &mut DataCenter) {
                    *self.0 += dc.overloaded_pm_count();
                }
            }
            let mut obs = Counter(&mut overloads);
            run_simulation(&mut dc, &mut trace, &mut policy, &mut [&mut obs], 40, 7);
            overloads
        };
        let with_veto = run(false);
        let without_veto = run(true);
        assert!(
            without_veto >= with_veto,
            "veto should not increase overloads: with {with_veto}, without {without_veto}"
        );
    }

    #[test]
    fn overloaded_pm_attempts_relief() {
        let mut dc = setup(4, 8, 9);
        // Saturate everything, then drop: overloaded PMs must evict.
        let mut trace = |_: VmId, r: u64| {
            if r < 2 {
                Resources::splat(1.0)
            } else {
                Resources::splat(0.2)
            }
        };
        let mut policy = trained_policy(9);
        run_simulation(&mut dc, &mut trace, &mut policy, &mut [], 10, 9);
        dc.check_invariants().unwrap();
        // After load drops, overloads should clear.
        assert_eq!(dc.overloaded_pm_count(), 0);
    }

    #[test]
    fn untrained_tables_never_migrate() {
        let mut dc = setup(10, 2, 11);
        let before: Vec<_> = dc.vms().map(|v| v.host).collect();
        let mut trace = |_: VmId, _: u64| Resources::splat(0.3);
        let mut policy =
            GlapPolicy::with_shared_table(GlapConfig::default(), QTablePair::default());
        run_simulation(&mut dc, &mut trace, &mut policy, &mut [], 10, 11);
        let after: Vec<_> = dc.vms().map(|v| v.host).collect();
        assert_eq!(before, after, "π_out with no knowledge must do nothing");
    }

    #[test]
    fn per_pm_store_routes_to_own_table() {
        let mut rng = stream_rng(13, Stream::Custom(1));
        let tables = vec![QTablePair::default(), synthetic_table(&mut rng)];
        let store = TableStore::PerPm(tables);
        assert_eq!(store.for_pm(PmId(0)).trained_pairs(), 0);
        assert!(store.for_pm(PmId(1)).trained_pairs() > 0);
    }

    /// A table that proposes every eviction and accepts every admission:
    /// all out-values and in-values visited and positive.
    fn accept_all_table() -> QTablePair {
        let mut q = QTablePair::new(Default::default());
        for s in PmState::all() {
            for a in VmAction::all() {
                q.out.set(s, a, 1.0);
                q.r#in.set(s, a, 1.0);
            }
        }
        q
    }

    #[test]
    fn scripted_two_pm_exchange_emits_exact_event_sequence() {
        use glap_telemetry::Tracer;

        // PM0 holds the lighter VM, PM1 the heavier: consolidation picks
        // PM0 as sender, moves its only VM over, and switches PM0 off.
        let mut dc = DataCenter::new(DataCenterConfig::paper(2));
        let vm0 = dc.add_vm(VmSpec::EC2_MICRO);
        let vm1 = dc.add_vm(VmSpec::EC2_MICRO);
        dc.place(vm0, PmId(0));
        dc.place(vm1, PmId(1));
        let mut trace = |vm: VmId, _: u64| {
            if vm == VmId(0) {
                Resources::splat(0.2)
            } else {
                Resources::splat(0.4)
            }
        };
        dc.step(&mut trace);

        let (tracer, sink) = Tracer::memory();
        dc.set_tracer(tracer.clone());
        let mut net = NetworkModel::ideal(2);
        net.set_tracer(tracer.clone());
        let mut policy = GlapPolicy::with_shared_table(GlapConfig::default(), accept_all_table());
        policy.init(&mut dc, &mut stream_rng(1, Stream::Policy));
        policy.exchange(&mut dc, &mut net, PmId(0), PmId(1), &tracer);

        let events = sink.events();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind.clone()).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::MigrationProposed {
                    vm: 0,
                    from: 0,
                    to: 1
                },
                // The per-VM transfer handshake is one request message.
                EventKind::MsgSent {
                    from: 0,
                    to: 1,
                    op: glap_telemetry::MsgOp::Request
                },
                EventKind::MigrationCommitted {
                    vm: 0,
                    from: 0,
                    to: 1
                },
                EventKind::PmSlept { pm: 0 },
            ]
        );
        // Sequence numbers are globally monotone across emitters.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert_eq!(dc.vm(VmId(0)).host, Some(PmId(1)));
        assert!(!dc.pm(PmId(0)).is_active());
    }

    #[test]
    fn sharded_sweep_is_thread_count_invariant() {
        // The full policy round over an ideal network (per-PM partner
        // streams) must be byte-identical at any worker-pool width.
        let run = |threads: usize| {
            glap_par::set_default_threads(threads);
            let mut dc = setup(24, 3, 11);
            let mut trace = |vm: VmId, _: u64| Resources::splat(0.08 + 0.1 * ((vm.0 % 3) as f64));
            let mut policy = trained_policy(11);
            run_simulation(&mut dc, &mut trace, &mut policy, &mut [], 20, 11);
            glap_par::set_default_threads(0);
            let placements: Vec<Option<u32>> = (0..dc.n_vms())
                .map(|v| dc.vm(VmId(v as u32)).host.map(|p| p.0))
                .collect();
            let active: Vec<bool> = (0..dc.n_pms())
                .map(|i| dc.pm(PmId(i as u32)).is_active())
                .collect();
            (placements, active, dc.total_migrations(), policy.vetoes)
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one, four);
        assert!(one.2 > 0, "no migrations in 20 rounds");
    }

    #[test]
    fn veto_emits_migration_vetoed_event() {
        use glap_telemetry::Tracer;

        // In-table rejects everything: the proposal must be vetoed.
        let mut table = accept_all_table();
        for s in PmState::all() {
            for a in VmAction::all() {
                table.r#in.set(s, a, -1.0);
            }
        }
        let mut dc = DataCenter::new(DataCenterConfig::paper(2));
        let vm0 = dc.add_vm(VmSpec::EC2_MICRO);
        let vm1 = dc.add_vm(VmSpec::EC2_MICRO);
        dc.place(vm0, PmId(0));
        dc.place(vm1, PmId(1));
        let mut trace = |_: VmId, _: u64| Resources::splat(0.3);
        dc.step(&mut trace);

        let (tracer, sink) = Tracer::memory();
        dc.set_tracer(tracer.clone());
        let mut net = NetworkModel::ideal(2);
        let mut policy = GlapPolicy::with_shared_table(GlapConfig::default(), table);
        policy.init(&mut dc, &mut stream_rng(2, Stream::Policy));
        let err = policy
            .try_migrate(&mut dc, &mut net, PmId(0), PmId(1), &tracer)
            .unwrap_err();
        assert_eq!(err, StopReason::InVeto);
        assert_eq!(policy.vetoes, 1);
        let kinds: Vec<EventKind> = sink.events().iter().map(|e| e.kind.clone()).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::MigrationProposed {
                    vm: 0,
                    from: 0,
                    to: 1
                },
                EventKind::MigrationVetoed {
                    vm: 0,
                    from: 0,
                    to: 1
                },
            ]
        );
    }

    #[test]
    fn checkpointed_policy_resumes_byte_identically() {
        use glap_dcsim::{run_simulation_resumable, SimRng};
        use glap_profile::Profiler;

        let trace = |vm: VmId, r: u64| {
            Resources::splat((0.2 + 0.1 * ((vm.0 + r as u32) % 5) as f64).min(1.0))
        };
        // interval 8, window 3: a learning window is open at round 9, so
        // the snapshot exercises the in-flight OnlineLearning state too.
        let retrain = RetrainConfig {
            churn_threshold: 10_000,
            interval: Some(8),
            learning_window: 3,
        };
        let run_rounds =
            |policy: &mut GlapPolicy, dc: &mut DataCenter, rng: &mut SimRng, rounds, call_init| {
                let mut net = NetworkModel::ideal(dc.n_pms());
                let mut t = trace;
                run_simulation_resumable(
                    dc,
                    &mut t,
                    policy,
                    &mut [],
                    rounds,
                    &mut net,
                    &Tracer::off(),
                    &Profiler::off(),
                    rng,
                    call_init,
                    0,
                    &mut |_| Ok(()),
                )
                .unwrap();
            };

        // Uninterrupted reference: 20 rounds.
        let mut dc_a = setup(15, 3, 21);
        let mut pol_a = trained_policy(21);
        pol_a.retrain = Some(retrain);
        let mut rng_a = stream_rng(21, Stream::Policy);
        run_rounds(&mut pol_a, &mut dc_a, &mut rng_a, 20, true);

        // Interrupted at round 9 (learning window open), policy state
        // carried across the gap as bytes only.
        let mut dc_b = setup(15, 3, 21);
        let mut pol_b = trained_policy(21);
        pol_b.retrain = Some(retrain);
        let mut rng_b = stream_rng(21, Stream::Policy);
        run_rounds(&mut pol_b, &mut dc_b, &mut rng_b, 9, true);

        let mut w = Writer::new();
        pol_b.save_state(&mut w);
        let bytes = w.into_bytes();

        // Fresh policy with a *different* synthetic table: every piece of
        // state must come from the snapshot.
        let mut pol_c = trained_policy(999);
        pol_c
            .restore_state(&mut glap_snapshot::Reader::new(&bytes))
            .unwrap();
        assert!(pol_c.online.is_some(), "learning window survives");

        // Immediate re-save is byte-identical.
        let mut w2 = Writer::new();
        pol_c.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes());

        // Resume without init for the remaining 11 rounds.
        run_rounds(&mut pol_c, &mut dc_b, &mut rng_b, 11, false);
        assert_eq!(
            dc_a.vms().map(|v| v.host).collect::<Vec<_>>(),
            dc_b.vms().map(|v| v.host).collect::<Vec<_>>()
        );
        assert_eq!(dc_a.active_pm_count(), dc_b.active_pm_count());
        assert_eq!(pol_a.vetoes, pol_c.vetoes);
        assert_eq!(pol_a.retrainings, pol_c.retrainings);
    }

    /// Pins the bytes the §IV-B re-training window produces, on an ideal
    /// net and on a faulty one with drops and crashes, both through the
    /// one aggregation round: the CRC32 of a snapshot taken mid-window, and
    /// of the shared table's `save` bytes after a run that resumed from
    /// that snapshot and completed the window — which must equal the
    /// uninterrupted run's.
    #[test]
    fn retrain_window_bytes_are_pinned() {
        use glap_dcsim::{run_simulation_resumable, FaultProfile, SimRng};
        use glap_profile::Profiler;
        use glap_snapshot::crc32;

        let retrain = RetrainConfig {
            churn_threshold: 10_000,
            interval: Some(8),
            learning_window: 3,
        };
        let trace = |vm: VmId, r: u64| {
            Resources::splat((0.15 + 0.1 * ((vm.0 * 7 + r as u32) % 6) as f64).min(1.0))
        };
        let run_rounds = |policy: &mut GlapPolicy,
                          dc: &mut DataCenter,
                          net: &mut NetworkModel,
                          rng: &mut SimRng,
                          rounds,
                          call_init| {
            let mut t = trace;
            run_simulation_resumable(
                dc,
                &mut t,
                policy,
                &mut [],
                rounds,
                net,
                &Tracer::off(),
                &Profiler::off(),
                rng,
                call_init,
                0,
                &mut |_| Ok(()),
            )
            .unwrap();
        };
        let shared_bytes = |policy: &GlapPolicy| {
            let TableStore::Shared(table) = &policy.store else {
                panic!("the window ends in a shared table");
            };
            let mut w = Writer::new();
            table.save(&mut w);
            w.into_bytes()
        };
        let policy = || {
            let mut p = trained_policy(31);
            p.retrain = Some(retrain);
            p
        };
        let net = |faulty: bool, n: usize| {
            if faulty {
                NetworkModel::new(n, FaultProfile::faulty(0.1, 0.03, 0.3), 31)
            } else {
                NetworkModel::ideal(n)
            }
        };
        for (faulty, want_mid, want_final) in [
            (false, 0xa556_358eu32, 0x7ff3_eab0u32),
            (true, 0x0e0e_6754, 0x1829_339e),
        ] {
            // Uninterrupted: the first window opens at round 8.
            let mut dc_a = setup(20, 3, 31);
            let mut net_a = net(faulty, 20);
            let mut pol_a = policy();
            let mut rng_a = stream_rng(31, Stream::Policy);
            run_rounds(&mut pol_a, &mut dc_a, &mut net_a, &mut rng_a, 20, true);
            assert!(pol_a.retrainings >= 1, "faulty={faulty}");
            if faulty {
                assert!(net_a.stats.dropped > 0 && net_a.stats.crashes > 0);
            }

            // Interrupted mid-window, resumed from the snapshot's bytes.
            let mut dc_b = setup(20, 3, 31);
            let mut net_b = net(faulty, 20);
            let mut pol_b = policy();
            let mut rng_b = stream_rng(31, Stream::Policy);
            run_rounds(&mut pol_b, &mut dc_b, &mut net_b, &mut rng_b, 9, true);
            assert!(pol_b.online.is_some(), "faulty={faulty}: window open");
            let mut w = Writer::new();
            pol_b.save_state(&mut w);
            let mid = w.into_bytes();
            let mut pol_c = policy();
            pol_c
                .restore_state(&mut glap_snapshot::Reader::new(&mid))
                .unwrap();
            run_rounds(&mut pol_c, &mut dc_b, &mut net_b, &mut rng_b, 11, false);
            assert_eq!(
                shared_bytes(&pol_c),
                shared_bytes(&pol_a),
                "faulty={faulty}"
            );

            let got = (crc32(&mid), crc32(&shared_bytes(&pol_c)));
            assert_eq!(got, (want_mid, want_final), "faulty={faulty}: {got:#010x?}");
        }
    }

    #[test]
    fn restore_rejects_unknown_table_store_tag() {
        let mut w = Writer::new();
        w.put_usize(4);
        w.put_u8(7); // no such store
        w.put_raw(&[0; 64]); // enough bytes to back the 4 PMs
        let mut pol = trained_policy(1);
        assert!(matches!(
            pol.restore_state(&mut glap_snapshot::Reader::new(w.bytes())),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn policy_runs_are_deterministic() {
        let run = || {
            let mut dc = setup(15, 3, 17);
            let mut trace = |vm: VmId, r: u64| {
                Resources::splat((0.2 + 0.1 * ((vm.0 + r as u32) % 5) as f64).min(1.0))
            };
            let mut policy = trained_policy(17);
            run_simulation(&mut dc, &mut trace, &mut policy, &mut [], 20, 17);
            (
                dc.active_pm_count(),
                dc.total_migrations(),
                dc.vms().map(|v| v.host).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    /// A fresh 4-PM policy's saved state, cut before its learning-window
    /// flag (18 bytes follow it: the flag, `rack_aware` and two empty
    /// lists), then whatever `rest` writes.
    fn state_bytes(rest: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut live = trained_policy(1);
        live.overlay = CyclonOverlay::new(4, live.cfg.cyclon_cache, live.cfg.cyclon_shuffle);
        let mut w = Writer::new();
        live.save_state(&mut w);
        let mut bytes = w.into_bytes();
        bytes.truncate(bytes.len() - 18);
        let mut w = Writer::from_vec(bytes);
        rest(&mut w);
        w.into_bytes()
    }

    /// Counts the snapshot cannot back are errors before anything is
    /// sized from them (the table and rack counts lie past where
    /// `Vec::with_capacity` overflows), and a per-PM store or learning
    /// window must hold one table per overlay PM.
    #[test]
    fn restore_rejects_hostile_and_mismatched_counts() {
        let restore =
            |bytes: &[u8]| trained_policy(1).restore_state(&mut glap_snapshot::Reader::new(bytes));
        restore(&state_bytes(|w| {
            w.put_bool(false); // no learning window
            w.put_bool(false); // rack_aware
            w.put_usize(0); // rack occupancy
            w.put_bool_slice(&[false; 4]); // crash map
        }))
        .unwrap();
        let store = |k: usize| {
            let mut w = Writer::new();
            w.put_usize(4);
            w.put_u8(1); // per-PM store
            w.put_usize(k);
            w.put_raw(&[0; 64]);
            w.into_bytes()
        };
        let window = |k: usize| {
            state_bytes(|w| {
                w.put_bool(true);
                w.put_usize(k);
                w.put_raw(&[0; 64]);
            })
        };
        let racks = state_bytes(|w| {
            w.put_bool(false); // no learning window
            w.put_bool(false); // rack_aware
            w.put_usize(isize::MAX as usize / std::mem::size_of::<usize>() + 1);
        });
        let mut overlay = Writer::new();
        overlay.put_usize(1 << 40);
        overlay.put_u8(0);
        QTablePair::default().save(&mut overlay);
        let tables = isize::MAX as usize / std::mem::size_of::<QTablePair>() + 1;
        for bytes in [store(tables), window(tables), racks, overlay.into_bytes()] {
            assert!(matches!(restore(&bytes), Err(SnapshotError::Truncated)));
        }
        for k in [3, 5] {
            for bytes in [store(k), window(k)] {
                assert!(matches!(restore(&bytes), Err(SnapshotError::Corrupt(_))));
            }
        }
    }
}

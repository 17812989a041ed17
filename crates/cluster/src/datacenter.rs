//! The data-center state: PM and VM tables, demand stepping, placement and
//! live migration.
//!
//! `DataCenter` is the single mutable world-state that every consolidation
//! policy (GLAP and the baselines) operates on through the same interface,
//! which guarantees the comparison uses identical mechanics: demands come
//! from a [`DemandSource`] (a workload trace), migrations are accounted with
//! the same duration/energy/degradation model, and SLA counters advance the
//! same way for all policies.
//!
//! PM state is stored struct-of-arrays (see [`PmStore`](crate::pm)) with a
//! CSR-style placement arena and a sorted active-set index: `pm(id)` hands
//! out a [`PmRef`] read handle, `active_pm_count` is O(1), and the
//! per-round scans (`step`'s SLA tick, `overloaded_pm_count`) visit only
//! active machines — sleeping PMs cost nothing per round.

use crate::ids::{PmId, VmId};
use crate::pm::{PmRef, PmSpec, PmStore, PowerState};
use crate::power::{MigrationModel, PowerModel};
use crate::resources::Resources;
use crate::topology::Topology;
use crate::vm::{Vm, VmProfile, VmSpec};
use glap_snapshot::{Checkpointable, Reader, SnapshotError, Writer};
use glap_telemetry::{EventKind, Tracer};
use rand::seq::SliceRandom;
use rand::Rng;

/// Supplies per-VM utilization observations, one per simulated round.
///
/// Values are the fraction of the VM's *nominal* allocation in use per
/// resource, each component in `[0, 1]`. Implemented by the trace types in
/// the `glap-workload` crate.
pub trait DemandSource {
    /// Utilization-of-nominal for `vm` at `round`.
    fn demand(&mut self, vm: VmId, round: u64) -> Resources;

    /// One whole round: `out[i]` becomes the demand of `vms[i]` at
    /// `round` for every placed VM; other entries are unspecified.
    /// `vms` is indexed by id (`vms[i].id == VmId(i)`), as
    /// [`DataCenter`]'s VM list is, so a source may read VM `i`'s cell
    /// by position. The
    /// default asks [`DemandSource::demand`] once per placed VM, in VM
    /// order, so a source with state sees the calls a per-VM loop would
    /// make. A source whose cells are pure may fill every entry, in any
    /// order and on any thread.
    fn fill_round(&mut self, round: u64, vms: &[Vm], out: &mut [Resources]) {
        for (vm, cell) in vms.iter().zip(out) {
            if vm.host.is_some() {
                *cell = self.demand(vm.id, round);
            }
        }
    }
}

/// Blanket impl so closures can act as demand sources in tests.
impl<F> DemandSource for F
where
    F: FnMut(VmId, u64) -> Resources,
{
    fn demand(&mut self, vm: VmId, round: u64) -> Resources {
        self(vm, round)
    }
}

/// Static configuration of a simulated data center.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataCenterConfig {
    /// Number of physical machines.
    pub n_pms: usize,
    /// Hardware model of every (homogeneous) PM.
    pub pm_spec: PmSpec,
    /// Wall-clock seconds one simulated round represents (the paper: 120 s).
    pub round_seconds: f64,
    /// Live-migration cost model.
    pub migration: MigrationModel,
    /// Optional rack topology. When present, inter-rack migrations get a
    /// reduced bandwidth share (longer, costlier transfers) and switch
    /// power can be accounted per rack.
    pub topology: Option<Topology>,
}

impl DataCenterConfig {
    /// The paper's configuration for a given cluster size: ML110 G5
    /// servers, 2-minute rounds.
    pub fn paper(n_pms: usize) -> Self {
        DataCenterConfig {
            n_pms,
            pm_spec: PmSpec::HP_PROLIANT_ML110_G5,
            round_seconds: 120.0,
            migration: MigrationModel::default(),
            topology: None,
        }
    }

    /// Same, with a rack topology (the future-work extension).
    pub fn paper_with_topology(n_pms: usize, topology: Topology) -> Self {
        DataCenterConfig {
            topology: Some(topology),
            ..Self::paper(n_pms)
        }
    }
}

/// One completed live migration, with its full cost accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationRecord {
    /// Round in which the migration happened.
    pub round: u64,
    /// The migrated VM.
    pub vm: VmId,
    /// Source PM.
    pub from: PmId,
    /// Destination PM.
    pub to: PmId,
    /// Transfer duration in seconds.
    pub tau_s: f64,
    /// Energy overhead in joules (paper Eq. 3).
    pub energy_j: f64,
}

/// Why a migration was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationError {
    /// The VM is not currently placed on any PM.
    VmNotPlaced,
    /// Source and destination are the same PM.
    SamePm,
    /// The destination PM is sleeping.
    DestinationSleeping,
}

/// The full mutable simulation state.
#[derive(Debug, Clone)]
pub struct DataCenter {
    cfg: DataCenterConfig,
    power: PowerModel,
    pms: PmStore,
    vms: Vec<Vm>,
    round: u64,
    /// Migrations performed since the last [`DataCenter::take_migrations`].
    pending_migrations: Vec<MigrationRecord>,
    /// Lifetime migration counter.
    total_migrations: u64,
    /// Lifetime migration energy in joules.
    total_migration_energy_j: f64,
    /// Sleeping→active transitions since the last
    /// [`DataCenter::take_wake_ups`].
    pending_wake_ups: usize,
    /// Event tracer; the migrate/sleep/wake funnels below give every
    /// policy the same event vocabulary (off by default).
    tracer: Tracer,
    /// [`DataCenter::step`]'s round of demands, indexed like `vms`:
    /// scratch, neither snapshotted nor part of the world's state.
    round_demand: Vec<Resources>,
}

impl DataCenter {
    /// Creates a data center with `cfg.n_pms` active, empty PMs and no VMs.
    pub fn new(cfg: DataCenterConfig) -> Self {
        DataCenter {
            power: PowerModel::from_spec(&cfg.pm_spec),
            pms: PmStore::new(cfg.n_pms),
            cfg,
            vms: Vec::new(),
            round: 0,
            pending_migrations: Vec::new(),
            total_migrations: 0,
            total_migration_energy_j: 0.0,
            pending_wake_ups: 0,
            tracer: Tracer::off(),
            round_demand: Vec::new(),
        }
    }

    /// Attaches an event tracer. All migrations, sleeps and wake-ups —
    /// regardless of which policy decided them — are emitted through
    /// this single funnel.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The static configuration.
    #[inline]
    pub fn config(&self) -> &DataCenterConfig {
        &self.cfg
    }

    /// The power model of the (homogeneous) PMs.
    #[inline]
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    /// Current round number (count of completed [`DataCenter::step`]s).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Makes room for `additional` more VMs in one allocation, so that
    /// registering a known population does not grow the VM list by
    /// doubling. The list then takes one block of its final size, not a
    /// chain of reallocations that keeps whatever heap its first small
    /// block came from (after a pool run, a block freed by a worker
    /// thread): which heap that is varies with timing, and with it the
    /// process's peak RSS.
    pub fn reserve_vms(&mut self, additional: usize) {
        self.vms.reserve_exact(additional);
    }

    /// Registers a new, unplaced VM and returns its id.
    pub fn add_vm(&mut self, spec: VmSpec) -> VmId {
        let id = VmId(self.vms.len() as u32);
        self.vms
            .push(Vm::new(id, spec, self.cfg.pm_spec.capacity()));
        id
    }

    /// Number of PMs.
    #[inline]
    pub fn n_pms(&self) -> usize {
        self.pms.len()
    }

    /// Number of VMs.
    #[inline]
    pub fn n_vms(&self) -> usize {
        self.vms.len()
    }

    /// Immutable PM access: a `Copy` handle over the SoA store.
    #[inline]
    pub fn pm(&self, id: PmId) -> PmRef<'_> {
        self.pms.pm(id)
    }

    /// Immutable VM access.
    #[inline]
    pub fn vm(&self, id: VmId) -> &Vm {
        &self.vms[id.index()]
    }

    /// Iterates over all PMs.
    pub fn pms(&self) -> impl Iterator<Item = PmRef<'_>> {
        (0..self.pms.len()).map(|i| self.pms.pm(PmId(i as u32)))
    }

    /// Collects the demand profiles of every VM hosted on `pm` into
    /// `buf` (cleared first). This is the demand-feed boundary for
    /// distributed protocol runtimes: a per-node driver calls it once
    /// per round and ships the result to the node, which otherwise
    /// never touches the data-center model.
    pub fn pm_profiles_into(&self, pm: PmId, buf: &mut Vec<VmProfile>) {
        buf.clear();
        for &vm in self.pm(pm).vms() {
            buf.push(self.vm(vm).profile());
        }
    }

    /// Iterates over all VMs.
    pub fn vms(&self) -> impl Iterator<Item = &Vm> {
        self.vms.iter()
    }

    /// Ids of all active PMs, ascending — served from the maintained
    /// active-set index, so the cost is O(active), not O(n).
    pub fn active_pm_ids(&self) -> impl Iterator<Item = PmId> + '_ {
        self.pms.active_ids().iter().copied()
    }

    /// Count of active PMs — O(1) from the active-set index.
    #[inline]
    pub fn active_pm_count(&self) -> usize {
        self.pms.active_ids().len()
    }

    /// Count of overloaded PMs (aggregate demand at/over capacity in at
    /// least one resource). Scans only the active set: sleeping PMs host
    /// nothing and cannot be overloaded.
    pub fn overloaded_pm_count(&self) -> usize {
        self.pms
            .active_ids()
            .iter()
            .filter(|&&p| self.pms.pm(p).is_overloaded())
            .count()
    }

    /// Removes a VM from the system (departure). Its slot is retained for
    /// stable ids and final SLA accounting. Returns `false` if the VM had
    /// already departed.
    pub fn remove_vm(&mut self, vm_id: VmId) -> bool {
        if self.vms[vm_id.index()].departed {
            return false;
        }
        if let Some(host) = self.vms[vm_id.index()].host {
            let (current, avg) = {
                let vm = &self.vms[vm_id.index()];
                (vm.current, vm.avg.value())
            };
            self.pms.detach(host, vm_id, current, avg);
        }
        let vm = &mut self.vms[vm_id.index()];
        vm.host = None;
        vm.departed = true;
        vm.current = Resources::ZERO;
        true
    }

    /// Places an unplaced VM on an active PM (initial allocation). Panics
    /// if the VM is already placed, departed, or the PM is sleeping —
    /// placement bugs should fail loudly.
    pub fn place(&mut self, vm_id: VmId, pm_id: PmId) {
        assert!(!self.vms[vm_id.index()].departed, "placing a departed VM");
        assert!(self.vms[vm_id.index()].host.is_none(), "VM already placed");
        assert!(self.pms.is_active(pm_id.index()), "placing on sleeping PM");
        let (current, avg) = {
            let vm = &self.vms[vm_id.index()];
            (vm.current, vm.avg.value())
        };
        self.pms.attach(pm_id, vm_id, current, avg);
        self.vms[vm_id.index()].host = Some(pm_id);
    }

    /// Uniform-random initial placement of all unplaced VMs over all PMs —
    /// the paper's starting condition ("at the beginning, the VMs are
    /// randomly allocated to the PMs"). The same RNG seed reproduces the
    /// same mapping, which the paper requires to be identical across the
    /// compared algorithms.
    pub fn random_placement<R: Rng>(&mut self, rng: &mut R) {
        let unplaced: Vec<VmId> = self
            .vms
            .iter()
            .filter(|v| v.host.is_none() && !v.departed)
            .map(|v| v.id)
            .collect();
        let active: Vec<PmId> = self.active_pm_ids().collect();
        assert!(!active.is_empty(), "no active PM to place on");
        for vm in unplaced {
            let pm = *active.choose(rng).expect("non-empty");
            self.place(vm, pm);
        }
    }

    /// Advances one simulated round: pulls a fresh demand observation for
    /// every placed VM (one [`DemandSource::fill_round`] per round), folds
    /// each VM's demand change, in VM order, into its host's
    /// cached aggregates in O(1), and advances SLA accounting over the
    /// active set only (sleeping PMs tick nothing, so skipping them is
    /// exact). No allocation once the round buffer has grown to the VM
    /// count, and no rescan of the VM lists —
    /// `check_invariants` cross-checks the caches against a full
    /// recomputation, and the store's zero-on-empty detach keeps
    /// floating-point drift from ever accumulating past a PM's lifetime.
    pub fn step<D: DemandSource + ?Sized>(&mut self, source: &mut D) {
        let round = self.round;
        let secs = self.cfg.round_seconds;
        self.round_demand.resize(self.vms.len(), Resources::ZERO);
        source.fill_round(round, &self.vms, &mut self.round_demand);
        let pms = &mut self.pms;
        for (vm, &u) in self.vms.iter_mut().zip(&self.round_demand) {
            if let Some(host) = vm.host {
                let old_current = vm.current;
                let old_avg = vm.avg.value();
                vm.observe(u, secs);
                pms.apply_demand_delta(host, vm.current - old_current, vm.avg.value() - old_avg);
            }
        }
        pms.tick_sla_active();
        self.round += 1;
    }

    /// Live-migrates `vm` to `to`, accounting duration, energy (Eq. 3) and
    /// the 10% CPU degradation on the VM (SLALM). Capacity is *not*
    /// enforced here — admission control is the consolidation policy's
    /// decision (GLAP's `in`-table veto, GRMP's threshold, …), and letting
    /// a policy overload a PM is exactly what the paper measures.
    pub fn migrate(&mut self, vm_id: VmId, to: PmId) -> Result<MigrationRecord, MigrationError> {
        let from = self.vms[vm_id.index()]
            .host
            .ok_or(MigrationError::VmNotPlaced)?;
        if from == to {
            return Err(MigrationError::SamePm);
        }
        if !self.pms.is_active(to.index()) {
            return Err(MigrationError::DestinationSleeping);
        }

        let (current, avg_v, mem_mb, cpu_util_of_nominal) = {
            let vm = &self.vms[vm_id.index()];
            let cpu_of_nominal = if vm.nominal_frac.cpu() > 0.0 {
                vm.current.cpu() / vm.nominal_frac.cpu()
            } else {
                0.0
            };
            (
                vm.current,
                vm.avg.value(),
                vm.mem_demand_mb(),
                cpu_of_nominal,
            )
        };

        // Inter-rack transfers cross the oversubscribed aggregation layer.
        let bw_factor = self
            .cfg
            .topology
            .map_or(1.0, |t| t.bandwidth_factor(from, to));
        let tau_s = self
            .cfg
            .migration
            .duration_s(mem_mb, self.cfg.pm_spec.net_mbps * bw_factor);
        let src_util = self.pm(from).utilization().cpu();
        let dst_util = self.pm(to).utilization().cpu();
        let energy_j = self
            .cfg
            .migration
            .energy_j(&self.power, src_util, dst_util, tau_s);

        self.pms.detach(from, vm_id, current, avg_v);
        self.pms.attach(to, vm_id, current, avg_v);
        self.vms[vm_id.index()].host = Some(to);
        self.vms[vm_id.index()].record_migration(cpu_util_of_nominal, tau_s);

        let rec = MigrationRecord {
            round: self.round,
            vm: vm_id,
            from,
            to,
            tau_s,
            energy_j,
        };
        self.pending_migrations.push(rec);
        self.total_migrations += 1;
        self.total_migration_energy_j += energy_j;
        self.tracer.emit(EventKind::MigrationCommitted {
            vm: vm_id.0,
            from: from.0,
            to: to.0,
        });
        Ok(rec)
    }

    /// Switches an *empty* PM to sleep. Returns `false` (and does nothing)
    /// if the PM still hosts VMs or is already sleeping.
    pub fn sleep_if_empty(&mut self, pm: PmId) -> bool {
        if self.pms.is_active(pm.index()) && self.pm(pm).is_empty() {
            self.pms.sleep(pm);
            self.tracer.emit(EventKind::PmSlept { pm: pm.0 });
            true
        } else {
            false
        }
    }

    /// Wakes a sleeping PM. Returns `false` if it was already active.
    pub fn wake(&mut self, pm: PmId) -> bool {
        if self.pms.is_active(pm.index()) {
            false
        } else {
            self.pms.wake(pm);
            self.pending_wake_ups += 1;
            self.tracer.emit(EventKind::PmWoke { pm: pm.0 });
            true
        }
    }

    /// Drains the migrations performed since the previous call, in the
    /// order they happened (used by per-round metric collectors). The
    /// list keeps its buffer, so a busy round's records do not regrow it
    /// from empty every round.
    pub fn take_migrations(&mut self) -> std::vec::Drain<'_, MigrationRecord> {
        self.pending_migrations.drain(..)
    }

    /// Drains the count of sleeping→active transitions since the
    /// previous call (used by per-round metric collectors; exact even
    /// when a PM wakes and re-sleeps within one round).
    pub fn take_wake_ups(&mut self) -> usize {
        std::mem::take(&mut self.pending_wake_ups)
    }

    /// Lifetime migration count.
    #[inline]
    pub fn total_migrations(&self) -> u64 {
        self.total_migrations
    }

    /// Lifetime migration energy overhead in joules.
    #[inline]
    pub fn total_migration_energy_j(&self) -> f64 {
        self.total_migration_energy_j
    }

    /// Debug-time invariant check: every placed VM appears on exactly its
    /// host's list, the SoA demand aggregates match a from-scratch
    /// recompute over the VM table, sleeping PMs are empty, the sorted
    /// active-set index mirrors the power array, and the placement arena
    /// fully accounts for its slab. Used by tests, checkpoint restore,
    /// and `debug_assert!`s in the round-driving harness.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.pms.check()?;
        for pm in self.pms() {
            if !pm.is_active() && !pm.is_empty() {
                return Err(format!(
                    "{} sleeps but hosts {} VMs",
                    pm.id(),
                    pm.vm_count()
                ));
            }
            let mut sum = Resources::ZERO;
            let mut sum_avg = Resources::ZERO;
            for &vm in pm.vms() {
                let v = &self.vms[vm.index()];
                if v.host != Some(pm.id()) {
                    return Err(format!(
                        "{vm} listed on {} but hosted on {:?}",
                        pm.id(),
                        v.host
                    ));
                }
                sum += v.current;
                sum_avg += v.avg.value();
            }
            if (sum.cpu() - pm.demand().cpu()).abs() > 1e-6
                || (sum.mem() - pm.demand().mem()).abs() > 1e-6
            {
                return Err(format!("{} aggregate drift", pm.id()));
            }
            if (sum_avg.cpu() - pm.avg_demand().cpu()).abs() > 1e-6
                || (sum_avg.mem() - pm.avg_demand().mem()).abs() > 1e-6
            {
                return Err(format!("{} average-aggregate drift", pm.id()));
            }
        }
        for vm in &self.vms {
            if let Some(host) = vm.host {
                if self.pms.pm(host).vms().iter().all(|&v| v != vm.id) {
                    return Err(format!(
                        "{} claims host {host} which does not list it",
                        vm.id
                    ));
                }
            }
        }
        Ok(())
    }

    /// A read-only, `Sync` view of the world for worker threads.
    ///
    /// `&DataCenter` itself is not `Sync` (it holds a single-threaded
    /// [`Tracer`] handle); the view borrows only the PM store and VM
    /// table — all the learning phase reads — so the trainer can fan
    /// per-PM training out over a pool while the tracer stays on the
    /// coordinating thread.
    #[inline]
    pub fn view(&self) -> DcView<'_> {
        DcView {
            pms: &self.pms,
            vms: &self.vms,
        }
    }
}

/// Immutable snapshot borrow of the PM store and VM table (see
/// [`DataCenter::view`]). `Copy`, `Send` and `Sync`: plain shared
/// references to plain data.
#[derive(Clone, Copy)]
pub struct DcView<'a> {
    pms: &'a PmStore,
    vms: &'a [Vm],
}

impl<'a> DcView<'a> {
    /// Immutable PM access.
    #[inline]
    pub fn pm(&self, id: PmId) -> PmRef<'a> {
        self.pms.pm(id)
    }

    /// Immutable VM access.
    #[inline]
    pub fn vm(&self, id: VmId) -> &'a Vm {
        &self.vms[id.index()]
    }

    /// Number of PMs.
    #[inline]
    pub fn n_pms(&self) -> usize {
        self.pms.len()
    }
}

/// Checkpointing captures only the *dynamic* state: round counter,
/// migration accounting, per-PM power/SLA/placement state *and cached
/// demand aggregates*, and per-VM demand bookkeeping. Static structure
/// (configuration, PM/VM count, specs, nominal fractions) is rebuilt
/// deterministically by the caller before restoring, and `restore`
/// validates that the topology matches. The aggregates travel in the
/// snapshot because [`DataCenter::step`] maintains them incrementally:
/// a recomputation on restore could differ from the accumulated values
/// in the last floating-point bits, and resume must continue the exact
/// byte stream of the uninterrupted run.
///
/// The byte layout is the v1 format from before the struct-of-arrays
/// refactor, unchanged: per-PM state is written in id order exactly as
/// the per-PM heap objects used to serialize, so pre-refactor snapshots
/// (`tests/fixtures/format_v1.snap` pins this) restore green and
/// post-refactor snapshots are byte-identical to what the old layout
/// would have produced.
impl Checkpointable for DataCenter {
    fn save(&self, w: &mut Writer) {
        w.put_u64(self.round);
        w.put_u64(self.total_migrations);
        w.put_f64(self.total_migration_energy_j);
        w.put_usize(self.pending_wake_ups);
        w.put_usize(self.pending_migrations.len());
        for m in &self.pending_migrations {
            w.put_u64(m.round);
            w.put_u32(m.vm.0);
            w.put_u32(m.from.0);
            w.put_u32(m.to.0);
            w.put_f64(m.tau_s);
            w.put_f64(m.energy_j);
        }
        w.put_usize(self.pms.len());
        for pm in self.pms() {
            w.put_bool(pm.is_active());
            w.put_u64(pm.active_rounds());
            w.put_u64(pm.saturated_rounds());
            w.put_f64(pm.demand().cpu());
            w.put_f64(pm.demand().mem());
            w.put_f64(pm.avg_demand().cpu());
            w.put_f64(pm.avg_demand().mem());
            w.put_usize(pm.vms().len());
            for vm in pm.vms() {
                w.put_u32(vm.0);
            }
        }
        w.put_usize(self.vms.len());
        for vm in &self.vms {
            w.put_f64(vm.current.cpu());
            w.put_f64(vm.current.mem());
            w.put_u64(vm.avg.count());
            w.put_f64(vm.avg.value().cpu());
            w.put_f64(vm.avg.value().mem());
            match vm.host {
                None => w.put_bool(false),
                Some(h) => {
                    w.put_bool(true);
                    w.put_u32(h.0);
                }
            }
            w.put_f64(vm.cpu_requested_mips_s);
            w.put_f64(vm.cpu_degraded_mips_s);
            w.put_u32(vm.migrations);
            w.put_bool(vm.departed);
        }
    }

    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let round = r.get_u64()?;
        let total_migrations = r.get_u64()?;
        let total_migration_energy_j = r.get_f64()?;
        let pending_wake_ups = r.get_usize()?;
        let n_pending = r.get_usize()?;
        let mut pending_migrations = Vec::with_capacity(n_pending.min(1 << 20));
        for _ in 0..n_pending {
            pending_migrations.push(MigrationRecord {
                round: r.get_u64()?,
                vm: VmId(r.get_u32()?),
                from: PmId(r.get_u32()?),
                to: PmId(r.get_u32()?),
                tau_s: r.get_f64()?,
                energy_j: r.get_f64()?,
            });
        }

        let n_pms = r.get_usize()?;
        if n_pms != self.pms.len() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot has {n_pms} PMs, world has {}",
                self.pms.len()
            )));
        }
        let n_vms_total = self.vms.len();
        // Repopulate the SoA arrays in snapshot (= id) order; placement
        // lists are rebuilt into a pristine arena so the element order in
        // every list is exactly the serialized order.
        self.pms.reset_placements();
        for i in 0..n_pms {
            let pm = PmId(i as u32);
            self.pms.set_power_raw(
                pm,
                if r.get_bool()? {
                    PowerState::Active
                } else {
                    PowerState::Sleeping
                },
            );
            let active_rounds = r.get_u64()?;
            let saturated_rounds = r.get_u64()?;
            self.pms
                .set_sla_counters(pm, active_rounds, saturated_rounds);
            let current = Resources::new(r.get_f64()?, r.get_f64()?);
            let avg = Resources::new(r.get_f64()?, r.get_f64()?);
            self.pms.set_aggregates(pm, current, avg);
            let n = r.get_usize()?;
            for _ in 0..n {
                let id = r.get_u32()?;
                if id as usize >= n_vms_total {
                    return Err(SnapshotError::Corrupt(format!(
                        "snapshot references VM {id} beyond world size {n_vms_total}"
                    )));
                }
                self.pms.push_placement_raw(pm, VmId(id));
            }
        }
        self.pms.rebuild_active();

        let n_vms = r.get_usize()?;
        if n_vms != n_vms_total {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot has {n_vms} VMs, world has {n_vms_total}"
            )));
        }
        let n_pms_total = self.pms.len();
        for vm in &mut self.vms {
            vm.current = Resources::new(r.get_f64()?, r.get_f64()?);
            let count = r.get_u64()?;
            vm.avg = crate::resources::RunningAvg::from_parts(
                count,
                Resources::new(r.get_f64()?, r.get_f64()?),
            );
            vm.host = if r.get_bool()? {
                let id = r.get_u32()?;
                if id as usize >= n_pms_total {
                    return Err(SnapshotError::Corrupt(format!(
                        "snapshot references PM {id} beyond world size {n_pms_total}"
                    )));
                }
                Some(PmId(id))
            } else {
                None
            };
            vm.cpu_requested_mips_s = r.get_f64()?;
            vm.cpu_degraded_mips_s = r.get_f64()?;
            vm.migrations = r.get_u32()?;
            vm.departed = r.get_bool()?;
        }

        self.round = round;
        self.total_migrations = total_migrations;
        self.total_migration_energy_j = total_migration_energy_j;
        self.pending_wake_ups = pending_wake_ups;
        self.pending_migrations = pending_migrations;

        // The snapshot carried the exact cached aggregates; the
        // invariant check cross-validates them against the VM sums.
        self.check_invariants().map_err(SnapshotError::Corrupt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_dc(n_pms: usize, n_vms: usize) -> DataCenter {
        let mut dc = DataCenter::new(DataCenterConfig::paper(n_pms));
        for _ in 0..n_vms {
            dc.add_vm(VmSpec::EC2_MICRO);
        }
        dc
    }

    #[test]
    fn construction_counts() {
        let dc = small_dc(4, 8);
        assert_eq!(dc.n_pms(), 4);
        assert_eq!(dc.n_vms(), 8);
        assert_eq!(dc.active_pm_count(), 4);
        assert_eq!(dc.overloaded_pm_count(), 0);
    }

    #[test]
    fn random_placement_places_everything() {
        let mut dc = small_dc(4, 8);
        let mut rng = SmallRng::seed_from_u64(1);
        dc.random_placement(&mut rng);
        assert!(dc.vms().all(|v| v.host.is_some()));
        assert_eq!(dc.pms().map(|p| p.vm_count()).sum::<usize>(), 8);
        dc.check_invariants().unwrap();
    }

    #[test]
    fn random_placement_is_seed_deterministic() {
        let mut a = small_dc(8, 16);
        let mut b = small_dc(8, 16);
        a.random_placement(&mut SmallRng::seed_from_u64(7));
        b.random_placement(&mut SmallRng::seed_from_u64(7));
        for (va, vb) in a.vms().zip(b.vms()) {
            assert_eq!(va.host, vb.host);
        }
    }

    #[test]
    fn step_updates_demands_and_round() {
        let mut dc = small_dc(2, 2);
        dc.place(VmId(0), PmId(0));
        dc.place(VmId(1), PmId(0));
        let mut src = |_vm: VmId, _round: u64| Resources::new(1.0, 1.0);
        dc.step(&mut src);
        assert_eq!(dc.round(), 1);
        let expect = dc.vm(VmId(0)).nominal_frac * 2.0;
        assert!((dc.pm(PmId(0)).demand().cpu() - expect.cpu()).abs() < 1e-12);
        dc.check_invariants().unwrap();
    }

    #[test]
    fn migrate_moves_vm_and_records_costs() {
        let mut dc = small_dc(2, 1);
        dc.place(VmId(0), PmId(0));
        let mut src = |_: VmId, _: u64| Resources::new(0.5, 0.5);
        dc.step(&mut src);
        let rec = dc.migrate(VmId(0), PmId(1)).unwrap();
        assert_eq!(rec.from, PmId(0));
        assert_eq!(rec.to, PmId(1));
        assert!(rec.tau_s > 0.0);
        assert!(rec.energy_j > 0.0);
        assert_eq!(dc.vm(VmId(0)).host, Some(PmId(1)));
        assert_eq!(dc.pm(PmId(0)).vm_count(), 0);
        assert_eq!(dc.pm(PmId(1)).vm_count(), 1);
        assert_eq!(dc.total_migrations(), 1);
        dc.check_invariants().unwrap();
    }

    #[test]
    fn migrate_rejects_unplaced_same_pm_and_sleeping() {
        let mut dc = small_dc(2, 2);
        assert_eq!(
            dc.migrate(VmId(0), PmId(1)),
            Err(MigrationError::VmNotPlaced)
        );
        dc.place(VmId(0), PmId(0));
        assert_eq!(dc.migrate(VmId(0), PmId(0)), Err(MigrationError::SamePm));
        assert!(dc.sleep_if_empty(PmId(1)));
        assert_eq!(
            dc.migrate(VmId(0), PmId(1)),
            Err(MigrationError::DestinationSleeping)
        );
    }

    #[test]
    fn sleep_only_when_empty_wake_roundtrip() {
        let mut dc = small_dc(2, 1);
        dc.place(VmId(0), PmId(0));
        assert!(!dc.sleep_if_empty(PmId(0)));
        assert!(dc.sleep_if_empty(PmId(1)));
        assert!(!dc.sleep_if_empty(PmId(1)));
        assert_eq!(dc.active_pm_count(), 1);
        assert!(dc.wake(PmId(1)));
        assert!(!dc.wake(PmId(1)));
        assert_eq!(dc.active_pm_count(), 2);
    }

    #[test]
    fn active_index_tracks_sleep_wake_in_order() {
        let mut dc = small_dc(5, 0);
        dc.sleep_if_empty(PmId(3));
        dc.sleep_if_empty(PmId(0));
        let active: Vec<PmId> = dc.active_pm_ids().collect();
        assert_eq!(active, vec![PmId(1), PmId(2), PmId(4)]);
        dc.wake(PmId(0));
        let active: Vec<PmId> = dc.active_pm_ids().collect();
        assert_eq!(active, vec![PmId(0), PmId(1), PmId(2), PmId(4)]);
        dc.check_invariants().unwrap();
    }

    #[test]
    fn take_migrations_drains() {
        let mut dc = small_dc(2, 1);
        dc.place(VmId(0), PmId(0));
        let mut src = |_: VmId, _: u64| Resources::new(0.5, 0.5);
        dc.step(&mut src);
        dc.migrate(VmId(0), PmId(1)).unwrap();
        assert_eq!(dc.take_migrations().len(), 1);
        assert_eq!(dc.take_migrations().len(), 0);
        assert_eq!(dc.total_migrations(), 1);
        // A drain keeps the list's buffer for the next round's records.
        let cap = dc.pending_migrations.capacity();
        assert!(cap >= 1);
        dc.migrate(VmId(0), PmId(0)).unwrap();
        assert_eq!(
            dc.take_migrations().map(|m| m.to).collect::<Vec<_>>(),
            [PmId(0)]
        );
        assert_eq!(dc.pending_migrations.capacity(), cap);
    }

    #[test]
    fn overload_detection_via_step() {
        let mut dc = small_dc(1, 8);
        for i in 0..8 {
            dc.place(VmId(i), PmId(0));
        }
        // 8 VMs at full demand: CPU 8*500/2660 > 1 → overloaded.
        let mut src = |_: VmId, _: u64| Resources::new(1.0, 1.0);
        dc.step(&mut src);
        assert_eq!(dc.overloaded_pm_count(), 1);
        assert_eq!(dc.pm(PmId(0)).saturated_rounds(), 1);
    }

    #[test]
    fn inter_rack_migration_is_slower_and_costlier() {
        use crate::topology::Topology;
        let topo = Topology {
            pms_per_rack: 2,
            inter_rack_bw_factor: 0.25,
            switch_watts: 150.0,
        };
        let mut dc = DataCenter::new(DataCenterConfig::paper_with_topology(4, topo));
        dc.add_vm(VmSpec::EC2_MICRO);
        dc.place(VmId(0), PmId(0));
        let mut src = |_: VmId, _: u64| Resources::splat(0.5);
        dc.step(&mut src);
        let intra = dc.migrate(VmId(0), PmId(1)).unwrap(); // same rack
        let inter = dc.migrate(VmId(0), PmId(2)).unwrap(); // crosses racks
        assert!((inter.tau_s - 4.0 * intra.tau_s).abs() < 1e-9);
        assert!(inter.energy_j > intra.energy_j);
    }

    #[test]
    fn remove_vm_detaches_and_marks_departed() {
        let mut dc = small_dc(2, 2);
        dc.place(VmId(0), PmId(0));
        let mut src = |_: VmId, _: u64| Resources::splat(0.5);
        dc.step(&mut src);
        assert!(dc.remove_vm(VmId(0)));
        assert!(!dc.remove_vm(VmId(0)), "double removal must be a no-op");
        assert_eq!(dc.pm(PmId(0)).vm_count(), 0);
        assert!(dc.vm(VmId(0)).departed);
        assert_eq!(dc.vm(VmId(0)).host, None);
        dc.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "placing a departed VM")]
    fn departed_vm_cannot_be_placed() {
        let mut dc = small_dc(2, 1);
        dc.remove_vm(VmId(0));
        dc.place(VmId(0), PmId(0));
    }

    #[test]
    fn random_placement_skips_departed() {
        let mut dc = small_dc(2, 4);
        dc.remove_vm(VmId(3));
        let mut rng = SmallRng::seed_from_u64(2);
        dc.random_placement(&mut rng);
        assert_eq!(dc.pms().map(|p| p.vm_count()).sum::<usize>(), 3);
    }

    #[test]
    fn invariant_checker_catches_drift() {
        let mut dc = small_dc(2, 1);
        dc.place(VmId(0), PmId(0));
        assert!(dc.check_invariants().is_ok());
    }

    fn demand(vm: VmId, round: u64) -> Resources {
        let x = (f64::from(vm.0) + 1.0) * (round as f64 + 1.0) * 0.37 % 1.0;
        Resources::new(x, x * 0.5)
    }

    #[test]
    fn default_fill_round_asks_placed_vms_in_order() {
        let mut dc = small_dc(2, 6);
        dc.place(VmId(4), PmId(0));
        dc.place(VmId(0), PmId(1));
        dc.place(VmId(2), PmId(0));
        dc.place(VmId(5), PmId(1));
        dc.remove_vm(VmId(5));
        let mut calls = Vec::new();
        let mut src = |vm: VmId, round: u64| {
            calls.push((vm.0, round));
            Resources::splat(0.5)
        };
        dc.step(&mut src);
        dc.step(&mut src);
        assert_eq!(calls, [(0, 0), (2, 0), (4, 0), (0, 1), (2, 1), (4, 1)]);
    }

    /// The per-VM reference for `step`: one `demand` per placed VM,
    /// folded as it arrives.
    fn step_per_vm(dc: &mut DataCenter, source: &mut impl DemandSource) {
        let round = dc.round;
        let secs = dc.cfg.round_seconds;
        for vm in &mut dc.vms {
            if let Some(host) = vm.host {
                let old_current = vm.current;
                let old_avg = vm.avg.value();
                vm.observe(source.demand(vm.id, round), secs);
                dc.pms
                    .apply_demand_delta(host, vm.current - old_current, vm.avg.value() - old_avg);
            }
        }
        dc.pms.tick_sla_active();
        dc.round += 1;
    }

    #[test]
    fn round_fill_leaves_the_per_vm_loops_state() {
        let world = || {
            let mut dc = small_dc(3, 9);
            for i in 0..8 {
                dc.place(VmId(i), PmId(i % 3));
            }
            dc.remove_vm(VmId(6));
            dc
        };
        let (mut a, mut b) = (world(), world());
        for _ in 0..6 {
            a.step(&mut demand);
            step_per_vm(&mut b, &mut demand);
        }
        let (mut wa, mut wb) = (Writer::new(), Writer::new());
        a.save(&mut wa);
        b.save(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
        a.check_invariants().unwrap();
    }

    #[test]
    fn checkpoint_restore_resumes_byte_identically() {
        let mut a = small_dc(4, 10);
        a.random_placement(&mut SmallRng::seed_from_u64(3));
        for _ in 0..5 {
            a.step(&mut demand);
        }
        let from = a.vm(VmId(0)).host.unwrap();
        let to = PmId((from.0 + 1) % 4);
        a.migrate(VmId(0), to).unwrap();
        a.remove_vm(VmId(9));
        let empty = a.pms().find(|p| p.is_empty()).map(|p| p.id());
        if let Some(empty) = empty {
            a.sleep_if_empty(empty);
        }

        let mut w = Writer::new();
        a.save(&mut w);
        let bytes = w.into_bytes();

        // Restore into a freshly built (same-topology) world.
        let mut b = small_dc(4, 10);
        b.restore(&mut Reader::new(&bytes)).unwrap();
        let mut w2 = Writer::new();
        b.save(&mut w2);
        assert_eq!(
            w2.into_bytes(),
            bytes,
            "save→restore→save must be identical"
        );
        assert_eq!(b.round(), a.round());
        assert_eq!(b.total_migrations(), a.total_migrations());

        // Both worlds evolve identically from here.
        for _ in 0..5 {
            a.step(&mut demand);
            b.step(&mut demand);
        }
        let (mut wa, mut wb) = (Writer::new(), Writer::new());
        a.save(&mut wa);
        b.save(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
    }

    #[test]
    fn restore_rejects_topology_mismatch() {
        let mut a = small_dc(4, 10);
        a.random_placement(&mut SmallRng::seed_from_u64(3));
        let mut w = Writer::new();
        a.save(&mut w);
        let bytes = w.into_bytes();
        let mut wrong = small_dc(8, 10);
        assert!(matches!(
            wrong.restore(&mut Reader::new(&bytes)).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
        let mut wrong_vms = small_dc(4, 11);
        assert!(wrong_vms.restore(&mut Reader::new(&bytes)).is_err());
    }
}

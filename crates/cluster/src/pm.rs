//! Physical machine model, stored struct-of-arrays.
//!
//! PMs are homogeneous HP ProLiant ML110 G5 servers in the paper's
//! evaluation (2660 MIPS CPU, 4 GB memory, 10 Gb/s network). A PM is either
//! `Active` or `Sleeping`; sleeping PMs host no VMs and leave the gossip
//! overlay. Per-PM aggregates of current and average VM demand are cached
//! and maintained incrementally so the per-round hot path never rescans VM
//! lists.
//!
//! At 100k+ PMs, one heap object per machine dominates both memory and
//! cache traffic, so PM state lives in [`PmStore`]: parallel flat arrays
//! for power state, demand aggregates and SLAVO counters, a CSR-style
//! [arena](crate::arena::PlacementArena) holding every hosted-VM list in
//! one shared slab, and a sorted active-set index that makes "iterate the
//! active PMs" cost O(active), not O(n). Consumers never see the layout:
//! they hold a [`PmRef`] handle with the same accessor vocabulary the old
//! per-PM struct had.

use crate::arena::PlacementArena;
use crate::ids::{PmId, VmId};
use crate::resources::Resources;

/// Static description of a PM model in absolute units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmSpec {
    /// CPU capacity in MIPS.
    pub cpu_mips: f64,
    /// Memory capacity in MB.
    pub mem_mb: f64,
    /// Network bandwidth in Mbit/s.
    pub net_mbps: f64,
    /// Idle power draw in watts.
    pub idle_watts: f64,
    /// Full-load power draw in watts.
    pub max_watts: f64,
}

impl PmSpec {
    /// HP ProLiant ML110 G5 as configured in §V-A, with SPECpower-derived
    /// power figures (idle 93.7 W, full load 135 W) as used by the paper's
    /// reference \[10\].
    pub const HP_PROLIANT_ML110_G5: PmSpec = PmSpec {
        cpu_mips: 2660.0,
        mem_mb: 4096.0,
        net_mbps: 10_000.0,
        idle_watts: 93.7,
        max_watts: 135.0,
    };

    /// Capacity as a resource vector in absolute units.
    #[inline]
    pub fn capacity(&self) -> Resources {
        Resources::new(self.cpu_mips, self.mem_mb)
    }
}

/// Power state of a PM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerState {
    /// Serving VMs (or idling while switched on).
    Active,
    /// Switched off / suspended; consumes no power and hosts no VMs.
    Sleeping,
}

/// Flat struct-of-arrays storage for every PM's dynamic state.
///
/// Index `i` across all arrays is `PmId(i)`. The placement arena holds
/// the hosted-VM lists; `active` is the sorted event-driven index of
/// switched-on PMs, maintained on every sleep/wake transition so scans
/// and SLA ticks touch only machines that can do work.
#[derive(Debug, Clone)]
pub(crate) struct PmStore {
    power: Vec<PowerState>,
    /// Sum of hosted VMs' *current* demand (fraction of capacity).
    used_current: Vec<Resources>,
    /// Sum of hosted VMs' *average* demand (fraction of capacity).
    used_avg: Vec<Resources>,
    /// Rounds spent active (denominator `T_a` of SLAVO).
    active_rounds: Vec<u64>,
    /// Rounds spent with CPU at 100% while active (numerator `T_s`).
    saturated_rounds: Vec<u64>,
    /// Every PM's hosted-VM list, in one flat slab.
    placement: PlacementArena,
    /// Ids of active PMs, sorted ascending — the same order the old
    /// full-population filter produced, so shuffles seeded from this
    /// list draw identically.
    active: Vec<PmId>,
}

impl PmStore {
    /// `n` active, empty PMs.
    pub(crate) fn new(n: usize) -> Self {
        PmStore {
            power: vec![PowerState::Active; n],
            used_current: vec![Resources::ZERO; n],
            used_avg: vec![Resources::ZERO; n],
            active_rounds: vec![0; n],
            saturated_rounds: vec![0; n],
            placement: PlacementArena::new(n),
            active: (0..n).map(|i| PmId(i as u32)).collect(),
        }
    }

    /// Number of PMs.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.power.len()
    }

    /// Read handle for PM `id`.
    #[inline]
    pub(crate) fn pm(&self, id: PmId) -> PmRef<'_> {
        PmRef { store: self, id }
    }

    /// The sorted active-set index.
    #[inline]
    pub(crate) fn active_ids(&self) -> &[PmId] {
        &self.active
    }

    #[inline]
    pub(crate) fn is_active(&self, i: usize) -> bool {
        self.power[i] == PowerState::Active
    }

    /// Registers a VM with the given demand aggregates (placement or
    /// migration in).
    pub(crate) fn attach(&mut self, pm: PmId, vm: VmId, current: Resources, avg: Resources) {
        let i = pm.index();
        debug_assert!(self.is_active(i), "cannot attach a VM to a sleeping PM");
        debug_assert!(self.placement.position(i, vm).is_none());
        self.placement.push(i, vm);
        self.used_current[i] += current;
        self.used_avg[i] += avg;
    }

    /// Removes a VM with the given demand aggregates (migration out).
    pub(crate) fn detach(&mut self, pm: PmId, vm: VmId, current: Resources, avg: Resources) {
        let i = pm.index();
        let pos = self
            .placement
            .position(i, vm)
            .expect("detach of non-hosted VM");
        self.placement.swap_remove(i, pos);
        self.used_current[i] -= current;
        self.used_avg[i] -= avg;
        if self.placement.len(i) == 0 {
            // Kill accumulated floating-point drift when the PM empties.
            self.used_current[i] = Resources::ZERO;
            self.used_avg[i] = Resources::ZERO;
        }
    }

    /// Replaces the cached aggregates (checkpoint restore, which carries
    /// the exact accumulated values so a resumed run continues
    /// byte-identically).
    pub(crate) fn set_aggregates(&mut self, pm: PmId, current: Resources, avg: Resources) {
        self.used_current[pm.index()] = current;
        self.used_avg[pm.index()] = avg;
    }

    /// Applies one hosted VM's demand change to the cached aggregates —
    /// the O(1) per-VM update [`DataCenter::step`](crate::DataCenter)
    /// uses instead of rescanning every VM list each round. Drift from
    /// repeated addition stays far below the invariant checker's 1e-6
    /// tolerance, and [`PmStore::detach`] zeroes the caches whenever the
    /// PM empties.
    pub(crate) fn apply_demand_delta(&mut self, pm: PmId, d_current: Resources, d_avg: Resources) {
        self.used_current[pm.index()] += d_current;
        self.used_avg[pm.index()] += d_avg;
    }

    /// Advances the SLAVO accounting by one round. Sleeping PMs tick
    /// nothing, so only the active set is visited — the event-driven
    /// idle path that keeps a mostly-consolidated 100k-PM fleet cheap.
    pub(crate) fn tick_sla_active(&mut self) {
        for k in 0..self.active.len() {
            let i = self.active[k].index();
            self.active_rounds[i] += 1;
            if self.used_current[i].cpu() >= 1.0 - 1e-9 {
                self.saturated_rounds[i] += 1;
            }
        }
    }

    /// Transitions an active PM to sleep, maintaining the active index.
    pub(crate) fn sleep(&mut self, pm: PmId) {
        debug_assert!(self.is_active(pm.index()));
        self.power[pm.index()] = PowerState::Sleeping;
        if let Ok(pos) = self.active.binary_search(&pm) {
            self.active.remove(pos);
        }
    }

    /// Transitions a sleeping PM to active, maintaining the active index.
    pub(crate) fn wake(&mut self, pm: PmId) {
        debug_assert!(!self.is_active(pm.index()));
        self.power[pm.index()] = PowerState::Active;
        if let Err(pos) = self.active.binary_search(&pm) {
            self.active.insert(pos, pm);
        }
    }

    /// Overwrites a PM's power state without index maintenance; callers
    /// must finish with [`PmStore::rebuild_active`] (checkpoint restore).
    pub(crate) fn set_power_raw(&mut self, pm: PmId, power: PowerState) {
        self.power[pm.index()] = power;
    }

    /// Sets the SLAVO counters directly (checkpoint restore).
    pub(crate) fn set_sla_counters(&mut self, pm: PmId, active_rounds: u64, saturated_rounds: u64) {
        self.active_rounds[pm.index()] = active_rounds;
        self.saturated_rounds[pm.index()] = saturated_rounds;
    }

    /// Rebuilds the sorted active index from the power array.
    pub(crate) fn rebuild_active(&mut self) {
        self.active = (0..self.len())
            .filter(|&i| self.is_active(i))
            .map(|i| PmId(i as u32))
            .collect();
    }

    /// Empties every placement list (checkpoint restore repopulates them
    /// in snapshot order).
    pub(crate) fn reset_placements(&mut self) {
        self.placement.reset();
    }

    /// Appends a VM to a placement list *without* touching the demand
    /// aggregates (checkpoint restore, which sets the aggregates from the
    /// snapshot's exact accumulated values instead of re-summing).
    pub(crate) fn push_placement_raw(&mut self, pm: PmId, vm: VmId) {
        self.placement.push(pm.index(), vm);
    }

    /// Structural self-check of the SoA layout: the active index must
    /// mirror the power array exactly (sorted, no extras, no omissions)
    /// and the placement arena must account for its whole slab.
    pub(crate) fn check(&self) -> Result<(), String> {
        let mut expect = 0usize;
        for (k, &pm) in self.active.iter().enumerate() {
            if k > 0 && self.active[k - 1] >= pm {
                return Err(format!("active index not sorted at position {k}"));
            }
            if !self.is_active(pm.index()) {
                return Err(format!("active index lists sleeping {pm}"));
            }
        }
        for i in 0..self.len() {
            if self.is_active(i) {
                expect += 1;
            }
        }
        if expect != self.active.len() {
            return Err(format!(
                "active index has {} entries, power array says {expect}",
                self.active.len()
            ));
        }
        self.placement.check()
    }
}

/// A borrowed, `Copy` read handle onto one PM's slice of the
/// struct-of-arrays store — the accessor API policies compile against.
///
/// Everything the old per-PM struct exposed is a method here;
/// [`PmRef::vms`] returns the hosted-VM list as a slice into the shared
/// placement slab, living as long as the underlying borrow (not the
/// handle), so `dc.pm(p).vms()` composes like a field access did.
#[derive(Clone, Copy)]
pub struct PmRef<'a> {
    store: &'a PmStore,
    id: PmId,
}

impl<'a> PmRef<'a> {
    /// This PM's identifier.
    #[inline]
    pub fn id(self) -> PmId {
        self.id
    }

    /// Power state.
    #[inline]
    pub fn power(self) -> PowerState {
        self.store.power[self.id.index()]
    }

    /// `true` when the PM is switched on.
    #[inline]
    pub fn is_active(self) -> bool {
        self.power() == PowerState::Active
    }

    /// Hosted VMs. Order is not meaningful.
    #[inline]
    pub fn vms(self) -> &'a [VmId] {
        self.store.placement.slice(self.id.index())
    }

    /// Current utilization per resource, as a fraction of capacity, capped
    /// at 1.0 (a PM cannot deliver more than its capacity; excess demand is
    /// what SLA violations measure).
    #[inline]
    pub fn utilization(self) -> Resources {
        self.demand().clamp(0.0, 1.0)
    }

    /// Raw aggregate of current VM demand; may exceed 1.0 when overloaded.
    #[inline]
    pub fn demand(self) -> Resources {
        self.store.used_current[self.id.index()]
    }

    /// Aggregate of hosted VMs' running-average demand, capped at 1.0 —
    /// this is the PM-state input of the paper's calibration ("the state of
    /// a PM before performing an action \[is\] calculated according to the
    /// average VMs demand").
    #[inline]
    pub fn avg_utilization(self) -> Resources {
        self.avg_demand().clamp(0.0, 1.0)
    }

    /// Raw aggregate of average demand (may exceed 1.0).
    #[inline]
    pub fn avg_demand(self) -> Resources {
        self.store.used_avg[self.id.index()]
    }

    /// `true` when aggregate current demand reaches capacity in at least
    /// one resource — the paper's overload condition (`x = 1`).
    #[inline]
    pub fn is_overloaded(self) -> bool {
        self.demand().any_reaches(Resources::FULL)
    }

    /// Number of hosted VMs.
    #[inline]
    pub fn vm_count(self) -> usize {
        self.store.placement.len(self.id.index())
    }

    /// `true` when the PM hosts no VMs.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.vm_count() == 0
    }

    /// Rounds spent active (denominator `T_a` of SLAVO).
    #[inline]
    pub fn active_rounds(self) -> u64 {
        self.store.active_rounds[self.id.index()]
    }

    /// Rounds spent with CPU at 100% while active (numerator `T_s`).
    #[inline]
    pub fn saturated_rounds(self) -> u64 {
        self.store.saturated_rounds[self.id.index()]
    }
}

impl std::fmt::Debug for PmRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmRef")
            .field("id", &self.id)
            .field("power", &self.power())
            .field("vms", &self.vms())
            .field("demand", &self.demand())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pm0(store: &PmStore) -> PmRef<'_> {
        store.pm(PmId(0))
    }

    #[test]
    fn new_pm_is_active_and_empty() {
        let store = PmStore::new(1);
        let pm = pm0(&store);
        assert!(pm.is_active());
        assert!(pm.is_empty());
        assert_eq!(pm.utilization(), Resources::ZERO);
        assert!(!pm.is_overloaded());
    }

    #[test]
    fn attach_detach_maintain_aggregates() {
        let mut store = PmStore::new(1);
        store.attach(
            PmId(0),
            VmId(1),
            Resources::new(0.3, 0.2),
            Resources::new(0.25, 0.15),
        );
        store.attach(
            PmId(0),
            VmId(2),
            Resources::new(0.4, 0.1),
            Resources::new(0.35, 0.05),
        );
        assert_eq!(pm0(&store).vm_count(), 2);
        assert!((pm0(&store).demand().cpu() - 0.7).abs() < 1e-12);
        assert!((pm0(&store).avg_demand().cpu() - 0.6).abs() < 1e-12);
        store.detach(
            PmId(0),
            VmId(1),
            Resources::new(0.3, 0.2),
            Resources::new(0.25, 0.15),
        );
        assert_eq!(pm0(&store).vm_count(), 1);
        assert!((pm0(&store).demand().cpu() - 0.4).abs() < 1e-12);
        store.check().unwrap();
    }

    #[test]
    fn detach_last_vm_zeroes_aggregates() {
        let mut store = PmStore::new(1);
        store.attach(
            PmId(0),
            VmId(1),
            Resources::new(0.1, 0.1),
            Resources::new(0.1, 0.1),
        );
        store.detach(
            PmId(0),
            VmId(1),
            Resources::new(0.1, 0.1),
            Resources::new(0.1, 0.1),
        );
        assert_eq!(pm0(&store).demand(), Resources::ZERO);
        assert_eq!(pm0(&store).avg_demand(), Resources::ZERO);
    }

    #[test]
    fn overload_on_any_resource() {
        let mut store = PmStore::new(1);
        store.attach(PmId(0), VmId(1), Resources::new(0.5, 1.0), Resources::ZERO);
        assert!(pm0(&store).is_overloaded());
    }

    #[test]
    fn utilization_is_capped_but_demand_is_not() {
        let mut store = PmStore::new(1);
        store.attach(PmId(0), VmId(1), Resources::new(1.4, 0.5), Resources::ZERO);
        assert_eq!(pm0(&store).utilization().cpu(), 1.0);
        assert!((pm0(&store).demand().cpu() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn sla_ticks_count_saturation_only_when_active() {
        let mut store = PmStore::new(2);
        store.attach(PmId(0), VmId(1), Resources::new(1.0, 0.2), Resources::ZERO);
        store.tick_sla_active();
        assert_eq!(pm0(&store).active_rounds(), 1);
        assert_eq!(pm0(&store).saturated_rounds(), 1);
        // An emptied, slept PM stops ticking entirely.
        store.sleep(PmId(1));
        store.tick_sla_active();
        assert_eq!(store.pm(PmId(1)).active_rounds(), 1);
        assert_eq!(pm0(&store).active_rounds(), 2);
    }

    #[test]
    fn sleep_wake_maintain_sorted_active_index() {
        let mut store = PmStore::new(5);
        store.sleep(PmId(3));
        store.sleep(PmId(1));
        assert_eq!(
            store.active_ids(),
            &[PmId(0), PmId(2), PmId(4)],
            "active index stays sorted ascending"
        );
        store.wake(PmId(3));
        assert_eq!(store.active_ids(), &[PmId(0), PmId(2), PmId(3), PmId(4)]);
        store.check().unwrap();
    }

    #[test]
    #[should_panic(expected = "detach of non-hosted VM")]
    fn detach_unknown_vm_panics() {
        let mut store = PmStore::new(1);
        store.detach(PmId(0), VmId(5), Resources::ZERO, Resources::ZERO);
    }

    #[test]
    fn spec_capacity_vector() {
        let cap = PmSpec::HP_PROLIANT_ML110_G5.capacity();
        assert_eq!(cap, Resources::new(2660.0, 4096.0));
    }
}

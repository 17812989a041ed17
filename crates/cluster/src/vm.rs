//! Virtual machine model.
//!
//! A VM has a nominal size (its allocation at creation — the paper models
//! EC2 micro instances: 500 MIPS, 613 MB) and a time-varying demand driven
//! by a workload trace. Demands are stored as fractions of the hosting PM's
//! capacity, which is the unit the calibrated Q-learning states operate on.

use crate::ids::{PmId, VmId};
use crate::resources::{Resources, RunningAvg};

/// Static sizing of a VM in absolute units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmSpec {
    /// Nominal CPU allocation in MIPS.
    pub cpu_mips: f64,
    /// Nominal memory allocation in MB.
    pub mem_mb: f64,
}

impl VmSpec {
    /// Amazon EC2 micro instance, the VM type used in the paper's
    /// evaluation (§V-A).
    pub const EC2_MICRO: VmSpec = VmSpec {
        cpu_mips: 500.0,
        mem_mb: 613.0,
    };

    /// EC2 m1.small — extension beyond the paper's micro-only fleet; a
    /// heterogeneous mix exercises the full calibrated action space (the
    /// paper's own worked examples use VM actions like (4xHigh, xHigh),
    /// which only large VMs can produce).
    pub const M1_SMALL: VmSpec = VmSpec {
        cpu_mips: 1000.0,
        mem_mb: 1740.0,
    };

    /// EC2 m1.medium (see [`VmSpec::M1_SMALL`] on why mixes matter).
    pub const M1_MEDIUM: VmSpec = VmSpec {
        cpu_mips: 2000.0,
        mem_mb: 3480.0,
    };

    /// Nominal size as a resource vector in absolute units.
    #[inline]
    pub fn nominal(&self) -> Resources {
        Resources::new(self.cpu_mips, self.mem_mb)
    }
}

/// A virtual machine and its demand bookkeeping.
#[derive(Debug, Clone)]
pub struct Vm {
    /// This VM's identifier.
    pub id: VmId,
    /// Static sizing.
    pub spec: VmSpec,
    /// Nominal size expressed as a fraction of (homogeneous) PM capacity.
    pub nominal_frac: Resources,
    /// Current demand as a fraction of PM capacity.
    pub current: Resources,
    /// Running average demand — the `{c, v}` piggyback of §IV-B.
    pub avg: RunningAvg,
    /// Hosting PM, if placed.
    pub host: Option<PmId>,
    /// Total CPU requested over the VM's lifetime, in MIPS·seconds
    /// (denominator `C_r` of the paper's SLALM metric).
    pub cpu_requested_mips_s: f64,
    /// Total CPU degradation caused by this VM's live migrations, in
    /// MIPS·seconds (numerator `C_d` of SLALM: 10% of CPU utilization
    /// during each migration).
    pub cpu_degraded_mips_s: f64,
    /// Number of live migrations this VM has undergone.
    pub migrations: u32,
    /// `true` once the VM has left the system (its slot is retained for
    /// stable ids and final SLA accounting, but it no longer consumes
    /// resources and cannot be placed again).
    pub departed: bool,
}

impl Vm {
    /// Creates an unplaced VM with zero demand.
    pub fn new(id: VmId, spec: VmSpec, pm_capacity: Resources) -> Self {
        let nominal_frac = spec.nominal().div_elem(pm_capacity);
        Vm {
            id,
            spec,
            nominal_frac,
            current: Resources::ZERO,
            avg: RunningAvg::new(),
            host: None,
            cpu_requested_mips_s: 0.0,
            cpu_degraded_mips_s: 0.0,
            migrations: 0,
            departed: false,
        }
    }

    /// Applies a new utilization observation.
    ///
    /// `util_of_nominal` is the trace value: the fraction of the VM's own
    /// nominal allocation in use per resource (each component in `[0, 1]`).
    /// Demand relative to PM capacity is derived from it, the running
    /// average is advanced and the lifetime CPU request accumulator grows
    /// by `demand · round_seconds`.
    pub fn observe(&mut self, util_of_nominal: Resources, round_seconds: f64) {
        debug_assert!(util_of_nominal.is_valid());
        let clamped = util_of_nominal.clamp(0.0, 1.0);
        self.current = clamped.mul_elem(self.nominal_frac);
        self.avg.observe(self.current);
        self.cpu_requested_mips_s += self.spec.cpu_mips * clamped.cpu() * round_seconds;
    }

    /// Records the SLALM degradation of one live migration: 10% of the
    /// VM's CPU utilization over the migration duration `tau_s` seconds
    /// (the estimator of Beloglazov & Buyya the paper adopts).
    pub fn record_migration(&mut self, util_cpu_of_nominal: f64, tau_s: f64) {
        self.cpu_degraded_mips_s += 0.1 * self.spec.cpu_mips * util_cpu_of_nominal * tau_s;
        self.migrations += 1;
    }

    /// Current memory demand in MB (drives migration duration).
    #[inline]
    pub fn mem_demand_mb(&self) -> f64 {
        // Live migration transfers the VM's active memory footprint; we use
        // the current demand, never less than a small floor so an idle VM
        // still costs something to move.
        (self.current.mem() * self.spec.mem_mb / self.nominal_frac.mem()).max(64.0)
    }

    /// A compact profile of this VM as shipped around by the learning
    /// phase: current demand plus the running-average piggyback.
    #[inline]
    pub fn profile(&self) -> VmProfile {
        VmProfile {
            current: self.current,
            avg: self.avg,
        }
    }
}

/// The demand profile of a VM as exchanged between PMs in the learning
/// phase (Algorithm 1): current demand and the `{c, v}` average tuple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmProfile {
    /// Demand right now, as a fraction of PM capacity.
    pub current: Resources,
    /// Running average demand.
    pub avg: RunningAvg,
}

impl VmProfile {
    /// Builds a profile directly from fractions (used by tests and the
    /// learning phase's profile duplication).
    pub fn from_fractions(current: Resources, avg: Resources) -> Self {
        VmProfile {
            current,
            avg: RunningAvg::from_parts(1, avg),
        }
    }

    /// Average demand vector.
    #[inline]
    pub fn avg_value(&self) -> Resources {
        self.avg.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pm_cap() -> Resources {
        // HP ProLiant ML110 G5 capacity from the paper.
        Resources::new(2660.0, 4096.0)
    }

    #[test]
    fn nominal_fraction_matches_paper_hardware() {
        let vm = Vm::new(VmId(0), VmSpec::EC2_MICRO, pm_cap());
        assert!((vm.nominal_frac.cpu() - 500.0 / 2660.0).abs() < 1e-12);
        assert!((vm.nominal_frac.mem() - 613.0 / 4096.0).abs() < 1e-12);
    }

    #[test]
    fn observe_scales_demand_by_nominal_fraction() {
        let mut vm = Vm::new(VmId(0), VmSpec::EC2_MICRO, pm_cap());
        vm.observe(Resources::new(1.0, 0.5), 120.0);
        assert!((vm.current.cpu() - 500.0 / 2660.0).abs() < 1e-12);
        assert!((vm.current.mem() - 0.5 * 613.0 / 4096.0).abs() < 1e-12);
    }

    #[test]
    fn observe_clamps_trace_values() {
        let mut vm = Vm::new(VmId(0), VmSpec::EC2_MICRO, pm_cap());
        vm.observe(Resources::new(1.5, 0.0), 120.0);
        assert!(vm.current.cpu() <= vm.nominal_frac.cpu() + 1e-12);
    }

    #[test]
    fn observe_accumulates_requested_cpu() {
        let mut vm = Vm::new(VmId(0), VmSpec::EC2_MICRO, pm_cap());
        vm.observe(Resources::new(0.5, 0.5), 120.0);
        vm.observe(Resources::new(0.5, 0.5), 120.0);
        // 2 rounds * 500 MIPS * 0.5 * 120 s
        assert!((vm.cpu_requested_mips_s - 2.0 * 500.0 * 0.5 * 120.0).abs() < 1e-9);
    }

    #[test]
    fn running_average_tracks_observations() {
        let mut vm = Vm::new(VmId(0), VmSpec::EC2_MICRO, pm_cap());
        vm.observe(Resources::new(0.2, 0.2), 120.0);
        vm.observe(Resources::new(0.6, 0.6), 120.0);
        let expect = Resources::new(0.4, 0.4).mul_elem(vm.nominal_frac);
        assert!((vm.avg.value().cpu() - expect.cpu()).abs() < 1e-12);
        assert!((vm.avg.value().mem() - expect.mem()).abs() < 1e-12);
    }

    #[test]
    fn migration_degradation_is_ten_percent_of_cpu() {
        let mut vm = Vm::new(VmId(0), VmSpec::EC2_MICRO, pm_cap());
        vm.record_migration(0.8, 10.0);
        assert!((vm.cpu_degraded_mips_s - 0.1 * 500.0 * 0.8 * 10.0).abs() < 1e-9);
        assert_eq!(vm.migrations, 1);
    }

    #[test]
    fn mem_demand_has_floor() {
        let vm = Vm::new(VmId(0), VmSpec::EC2_MICRO, pm_cap());
        assert!(vm.mem_demand_mb() >= 64.0);
    }

    #[test]
    fn mem_demand_tracks_current_usage() {
        let mut vm = Vm::new(VmId(0), VmSpec::EC2_MICRO, pm_cap());
        vm.observe(Resources::new(0.0, 1.0), 120.0);
        assert!((vm.mem_demand_mb() - 613.0).abs() < 1e-9);
    }

    #[test]
    fn profile_reflects_state() {
        let mut vm = Vm::new(VmId(0), VmSpec::EC2_MICRO, pm_cap());
        vm.observe(Resources::new(0.4, 0.4), 120.0);
        let p = vm.profile();
        assert_eq!(p.current, vm.current);
        assert_eq!(p.avg_value(), vm.avg.value());
    }
}

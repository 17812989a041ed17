//! Power and migration-energy model.
//!
//! The paper (§V-B) measures the cost of a live migration as the energy
//! overhead it imposes (Eq. 3, after Strunk & Dargie \[2\]):
//!
//! ```text
//! E_{i→j} = ((P_i^lm − P_i^idle) + (P_j^lm − P_j^idle)) · τ_{i→j}
//! ```
//!
//! where `P^lm` is the power drawn during the migration (a linear function
//! of CPU utilization including the migration's own CPU overhead) and `τ`
//! the migration duration, which "strongly varies with VM's memory size and
//! available transmission bandwidth".

use crate::pm::PmSpec;

/// Linear server power model: `P(u) = P_idle + (P_max − P_idle) · u_cpu`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Idle power draw in watts.
    pub idle_watts: f64,
    /// Full-load power draw in watts.
    pub max_watts: f64,
}

impl PowerModel {
    /// Builds the model from a PM spec.
    pub fn from_spec(spec: &PmSpec) -> Self {
        PowerModel {
            idle_watts: spec.idle_watts,
            max_watts: spec.max_watts,
        }
    }

    /// Instantaneous power at the given CPU utilization fraction.
    #[inline]
    pub fn watts(&self, cpu_util: f64) -> f64 {
        self.idle_watts + (self.max_watts - self.idle_watts) * cpu_util.clamp(0.0, 1.0)
    }

    /// Dynamic (above-idle) power at the given CPU utilization.
    #[inline]
    pub fn dynamic_watts(&self, cpu_util: f64) -> f64 {
        (self.max_watts - self.idle_watts) * cpu_util.clamp(0.0, 1.0)
    }
}

/// Parameters of the live-migration cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationModel {
    /// Fraction of the link bandwidth actually available to a migration
    /// stream (the rest carries tenant traffic).
    pub bandwidth_share: f64,
    /// Extra CPU load (fraction of capacity) the migration daemon imposes
    /// on source and destination while the transfer runs.
    pub cpu_overhead: f64,
}

impl Default for MigrationModel {
    fn default() -> Self {
        // Half the 10 Gb/s link usable, 10% CPU overhead on both ends —
        // consistent with the measurements in the paper's reference [2].
        MigrationModel {
            bandwidth_share: 0.5,
            cpu_overhead: 0.1,
        }
    }
}

impl MigrationModel {
    /// Duration of migrating `mem_mb` megabytes of VM memory over a link of
    /// `net_mbps` megabit/s, in seconds.
    #[inline]
    pub fn duration_s(&self, mem_mb: f64, net_mbps: f64) -> f64 {
        let usable_mbps = net_mbps * self.bandwidth_share;
        debug_assert!(usable_mbps > 0.0);
        mem_mb * 8.0 / usable_mbps
    }

    /// Energy overhead in joules of one migration (Eq. 3).
    ///
    /// `src_cpu_util` / `dst_cpu_util` are the CPU utilizations of the two
    /// PMs while the migration runs, *excluding* the migration's own
    /// overhead (which this function adds).
    pub fn energy_j(
        &self,
        power: &PowerModel,
        src_cpu_util: f64,
        dst_cpu_util: f64,
        tau_s: f64,
    ) -> f64 {
        let p_src = power.dynamic_watts(src_cpu_util + self.cpu_overhead);
        let p_dst = power.dynamic_watts(dst_cpu_util + self.cpu_overhead);
        (p_src + p_dst) * tau_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel::from_spec(&PmSpec::HP_PROLIANT_ML110_G5)
    }

    #[test]
    fn idle_and_full_load_power() {
        let m = model();
        assert!((m.watts(0.0) - 93.7).abs() < 1e-9);
        assert!((m.watts(1.0) - 135.0).abs() < 1e-9);
    }

    #[test]
    fn power_is_linear_in_utilization() {
        let m = model();
        let mid = m.watts(0.5);
        assert!((mid - (93.7 + 0.5 * (135.0 - 93.7))).abs() < 1e-9);
    }

    #[test]
    fn power_clamps_utilization() {
        let m = model();
        assert_eq!(m.watts(1.5), m.watts(1.0));
        assert_eq!(m.watts(-0.5), m.watts(0.0));
    }

    #[test]
    fn dynamic_power_excludes_idle() {
        let m = model();
        assert!((m.dynamic_watts(1.0) - (135.0 - 93.7)).abs() < 1e-9);
        assert_eq!(m.dynamic_watts(0.0), 0.0);
    }

    #[test]
    fn migration_duration_scales_with_memory() {
        let mm = MigrationModel::default();
        // 613 MB over half of 10 Gb/s = 613*8/5000 s
        let tau = mm.duration_s(613.0, 10_000.0);
        assert!((tau - 613.0 * 8.0 / 5000.0).abs() < 1e-9);
        assert!(mm.duration_s(1226.0, 10_000.0) > tau);
    }

    #[test]
    fn migration_energy_positive_and_monotonic_in_load() {
        let mm = MigrationModel::default();
        let pw = model();
        let e_light = mm.energy_j(&pw, 0.1, 0.1, 1.0);
        let e_heavy = mm.energy_j(&pw, 0.8, 0.8, 1.0);
        assert!(e_light > 0.0);
        assert!(e_heavy > e_light);
    }

    #[test]
    fn migration_energy_scales_with_duration() {
        let mm = MigrationModel::default();
        let pw = model();
        let e1 = mm.energy_j(&pw, 0.5, 0.5, 1.0);
        let e2 = mm.energy_j(&pw, 0.5, 0.5, 2.0);
        assert!((e2 - 2.0 * e1).abs() < 1e-9);
    }
}

//! The paper's SLA metrics (§V-B, after Beloglazov & Buyya):
//!
//! ```text
//! SLAVO = (1/N) Σ_i  T_s_i / T_a_i      — fraction of active time at 100% CPU
//! SLALM = (1/M) Σ_j  C_d_j / C_r_j      — migration-induced degradation share
//! SLAV  = SLAVO · SLALM
//! ```
//!
//! `T_s` and `T_a` are accumulated per PM by the substrate's SLA ticks;
//! `C_d` (10% of CPU utilization during each migration) and `C_r` (total
//! requested CPU) are accumulated per VM by the migration model.

use glap_cluster::DataCenter;

/// The three SLA figures of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SlaMetrics {
    /// SLA violation from host overload (time at 100% CPU).
    pub slavo: f64,
    /// SLA violation from live-migration degradation.
    pub slalm: f64,
    /// Combined metric `SLAVO × SLALM`.
    pub slav: f64,
}

/// Computes the SLA metrics over the current accumulated counters of a
/// data center. PMs that were never active and VMs that never requested
/// CPU contribute zero terms.
pub fn sla_metrics(dc: &DataCenter) -> SlaMetrics {
    let mut slavo_sum = 0.0;
    let mut n = 0usize;
    for pm in dc.pms() {
        if pm.active_rounds() > 0 {
            slavo_sum += pm.saturated_rounds() as f64 / pm.active_rounds() as f64;
            n += 1;
        }
    }
    let slavo = if n == 0 { 0.0 } else { slavo_sum / n as f64 };

    let mut slalm_sum = 0.0;
    let mut m = 0usize;
    for vm in dc.vms() {
        if vm.cpu_requested_mips_s > 0.0 {
            slalm_sum += vm.cpu_degraded_mips_s / vm.cpu_requested_mips_s;
            m += 1;
        }
    }
    let slalm = if m == 0 { 0.0 } else { slalm_sum / m as f64 };

    SlaMetrics {
        slavo,
        slalm,
        slav: slavo * slalm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glap_cluster::{DataCenterConfig, PmId, Resources, VmId, VmSpec};

    fn dc(n_pms: usize, n_vms: usize) -> DataCenter {
        let mut dc = DataCenter::new(DataCenterConfig::paper(n_pms));
        for _ in 0..n_vms {
            dc.add_vm(VmSpec::EC2_MICRO);
        }
        dc
    }

    #[test]
    fn no_history_means_zero_sla() {
        let d = dc(2, 2);
        let m = sla_metrics(&d);
        assert_eq!(m, SlaMetrics::default());
    }

    #[test]
    fn saturation_produces_slavo() {
        let mut d = dc(1, 8);
        for i in 0..8 {
            d.place(VmId(i), PmId(0));
        }
        // 8 VMs fully loaded: CPU = 8·500/2660 ≈ 1.5 → saturated.
        let mut hot = |_: VmId, _: u64| Resources::new(1.0, 0.2);
        d.step(&mut hot);
        let mut cold = |_: VmId, _: u64| Resources::new(0.1, 0.1);
        d.step(&mut cold);
        let m = sla_metrics(&d);
        // 1 of 2 active rounds saturated → SLAVO = 0.5, no migrations →
        // SLALM = 0 → SLAV = 0.
        assert!((m.slavo - 0.5).abs() < 1e-12);
        assert_eq!(m.slalm, 0.0);
        assert_eq!(m.slav, 0.0);
    }

    #[test]
    fn migrations_produce_slalm() {
        let mut d = dc(2, 1);
        d.place(VmId(0), PmId(0));
        let mut src = |_: VmId, _: u64| Resources::splat(0.5);
        d.step(&mut src);
        d.migrate(VmId(0), PmId(1)).unwrap();
        let m = sla_metrics(&d);
        assert!(m.slalm > 0.0);
        // SLAVO is zero (never saturated) → combined SLAV zero.
        assert_eq!(m.slav, 0.0);
    }

    #[test]
    fn combined_slav_requires_both() {
        let mut d = dc(1, 8);
        for i in 0..8 {
            d.place(VmId(i), PmId(0));
        }
        let mut hot = |_: VmId, _: u64| Resources::new(1.0, 0.2);
        d.step(&mut hot);
        // Can't migrate to self with 1 PM; extend: rebuild with 2 PMs.
        let mut d = dc(2, 8);
        for i in 0..8 {
            d.place(VmId(i), PmId(0));
        }
        let mut hot = |_: VmId, _: u64| Resources::new(1.0, 0.2);
        d.step(&mut hot);
        d.migrate(VmId(0), PmId(1)).unwrap();
        let m = sla_metrics(&d);
        assert!(m.slavo > 0.0);
        assert!(m.slalm > 0.0);
        assert!((m.slav - m.slavo * m.slalm).abs() < 1e-15);
    }

    #[test]
    fn more_migrations_increase_slalm() {
        let migrations_to_slalm = |k: u32| {
            let mut d = dc(2, 1);
            d.place(VmId(0), PmId(0));
            let mut src = |_: VmId, _: u64| Resources::splat(0.5);
            d.step(&mut src);
            for i in 0..k {
                let to = if i % 2 == 0 { PmId(1) } else { PmId(0) };
                d.migrate(VmId(0), to).unwrap();
            }
            sla_metrics(&d).slalm
        };
        assert!(migrations_to_slalm(4) > migrations_to_slalm(1));
    }
}

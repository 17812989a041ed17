//! Rack-level network topology.
//!
//! The GLAP paper's future work: "we plan to extend the algorithm to be
//! aware of the network topology such that it will switch off network
//! switches, an important factor of energy consumption in cloud data
//! centers". This module supplies the substrate: a two-level tree (PMs
//! grouped into racks behind top-of-rack switches) with
//!
//! * a rack map (`rack_of`),
//! * a bandwidth model where *inter*-rack migrations traverse the
//!   oversubscribed aggregation layer and get a reduced share,
//! * switch power accounting: a ToR switch can power down only when its
//!   whole rack is asleep.

use crate::datacenter::DataCenter;
use crate::ids::PmId;

/// Identifier of a rack (index of its ToR switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RackId(pub u32);

/// A two-level rack topology over a homogeneous PM population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Topology {
    /// PMs per rack (the last rack may be partially filled).
    pub pms_per_rack: usize,
    /// Bandwidth factor for migrations crossing racks (aggregation-layer
    /// oversubscription): `0 < factor ≤ 1`.
    pub inter_rack_bw_factor: f64,
    /// Power draw of one top-of-rack switch, watts.
    pub switch_watts: f64,
}

impl Default for Topology {
    fn default() -> Self {
        // 40 servers behind a ToR switch, 4:1 oversubscription to the
        // aggregation layer, ~150 W per switch — typical published
        // figures for the era's data centers.
        Topology {
            pms_per_rack: 40,
            inter_rack_bw_factor: 0.25,
            switch_watts: 150.0,
        }
    }
}

impl Topology {
    /// The rack hosting `pm`.
    #[inline]
    pub fn rack_of(&self, pm: PmId) -> RackId {
        RackId((pm.index() / self.pms_per_rack) as u32)
    }

    /// Whether two PMs share a rack.
    #[inline]
    pub fn same_rack(&self, a: PmId, b: PmId) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    /// Number of racks needed for `n_pms` machines.
    pub fn rack_count(&self, n_pms: usize) -> usize {
        n_pms.div_ceil(self.pms_per_rack)
    }

    /// Bandwidth factor for a migration from `a` to `b`.
    #[inline]
    pub fn bandwidth_factor(&self, a: PmId, b: PmId) -> f64 {
        if self.same_rack(a, b) {
            1.0
        } else {
            self.inter_rack_bw_factor
        }
    }

    /// Number of racks with at least one active PM — each needs its ToR
    /// switch powered ("switch off network switches" is only possible for
    /// fully asleep racks).
    pub fn active_racks(&self, dc: &DataCenter) -> usize {
        let racks = self.rack_count(dc.n_pms());
        let mut active = vec![false; racks];
        for pm in dc.pms() {
            if pm.is_active() {
                active[self.rack_of(pm.id()).0 as usize] = true;
            }
        }
        active.iter().filter(|&&a| a).count()
    }

    /// Instantaneous switch power in watts (active racks × per-switch
    /// draw).
    pub fn switch_power_w(&self, dc: &DataCenter) -> f64 {
        self.active_racks(dc) as f64 * self.switch_watts
    }

    /// Active PMs per rack.
    pub fn rack_occupancy(&self, dc: &DataCenter) -> Vec<usize> {
        let racks = self.rack_count(dc.n_pms());
        let mut occ = vec![0usize; racks];
        for pm in dc.pms() {
            if pm.is_active() {
                occ[self.rack_of(pm.id()).0 as usize] += 1;
            }
        }
        occ
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datacenter::DataCenterConfig;
    use crate::ids::VmId;
    use crate::resources::Resources;
    use crate::vm::VmSpec;

    fn topo() -> Topology {
        Topology {
            pms_per_rack: 4,
            inter_rack_bw_factor: 0.25,
            switch_watts: 150.0,
        }
    }

    #[test]
    fn rack_mapping_is_contiguous() {
        let t = topo();
        assert_eq!(t.rack_of(PmId(0)), RackId(0));
        assert_eq!(t.rack_of(PmId(3)), RackId(0));
        assert_eq!(t.rack_of(PmId(4)), RackId(1));
        assert!(t.same_rack(PmId(0), PmId(3)));
        assert!(!t.same_rack(PmId(3), PmId(4)));
    }

    #[test]
    fn rack_count_rounds_up() {
        let t = topo();
        assert_eq!(t.rack_count(8), 2);
        assert_eq!(t.rack_count(9), 3);
        assert_eq!(t.rack_count(1), 1);
    }

    #[test]
    fn bandwidth_penalty_applies_across_racks() {
        let t = topo();
        assert_eq!(t.bandwidth_factor(PmId(0), PmId(1)), 1.0);
        assert_eq!(t.bandwidth_factor(PmId(0), PmId(5)), 0.25);
    }

    #[test]
    fn active_racks_and_switch_power() {
        let t = topo();
        let mut dc = DataCenter::new(DataCenterConfig::paper(8));
        // Keep one VM on PM0 (rack 0); empty the rest and sleep rack 1.
        dc.add_vm(VmSpec::EC2_MICRO);
        dc.place(VmId(0), PmId(0));
        let mut src = |_: VmId, _: u64| Resources::splat(0.5);
        dc.step(&mut src);
        for i in 1..8 {
            dc.sleep_if_empty(PmId(i));
        }
        assert_eq!(t.active_racks(&dc), 1);
        assert_eq!(t.switch_power_w(&dc), 150.0);
        assert_eq!(t.rack_occupancy(&dc), vec![1, 0]);
    }
}

//! Q-learning states and actions.
//!
//! A **state** is a PM's calibrated load (one [`Level`] per resource); an
//! **action** is a VM's calibrated load — "moving out/migrating any
//! specific VM" in a certain load state (§IV-A). With 2 resources and 9
//! levels there are at most 81 states and 81 actions.

use crate::level::{Level, NUM_LEVELS};
use glap_cluster::Resources;
use std::fmt;

/// Number of distinct states (and actions): `9²`.
pub const NUM_STATES: usize = NUM_LEVELS * NUM_LEVELS;

/// A PM load state: per-resource calibrated levels (CPU, MEM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PmState {
    /// CPU level.
    pub cpu: Level,
    /// Memory level.
    pub mem: Level,
}

/// A VM action: the VM's per-resource calibrated demand levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmAction {
    /// CPU level.
    pub cpu: Level,
    /// Memory level.
    pub mem: Level,
}

impl PmState {
    /// Calibrates a PM utilization vector.
    #[inline]
    pub fn from_utilization(u: Resources) -> PmState {
        PmState {
            cpu: Level::from_utilization(u.cpu()),
            mem: Level::from_utilization(u.mem()),
        }
    }

    /// Dense index in `0..NUM_STATES`.
    #[inline]
    pub fn index(self) -> usize {
        self.cpu.rank() * NUM_LEVELS + self.mem.rank()
    }

    /// Inverse of [`PmState::index`].
    #[inline]
    pub fn from_index(i: usize) -> PmState {
        PmState {
            cpu: Level::from_rank(i / NUM_LEVELS),
            mem: Level::from_rank(i % NUM_LEVELS),
        }
    }

    /// `true` when either resource is at the overload level.
    #[inline]
    pub fn is_overloaded(self) -> bool {
        self.cpu == Level::Overload || self.mem == Level::Overload
    }

    /// All states, in index order.
    pub fn all() -> impl Iterator<Item = PmState> {
        (0..NUM_STATES).map(PmState::from_index)
    }
}

impl VmAction {
    /// Calibrates a VM demand vector.
    #[inline]
    pub fn from_demand(d: Resources) -> VmAction {
        VmAction {
            cpu: Level::from_utilization(d.cpu()),
            mem: Level::from_utilization(d.mem()),
        }
    }

    /// Dense index in `0..NUM_STATES`.
    #[inline]
    pub fn index(self) -> usize {
        self.cpu.rank() * NUM_LEVELS + self.mem.rank()
    }

    /// Inverse of [`VmAction::index`].
    #[inline]
    pub fn from_index(i: usize) -> VmAction {
        VmAction {
            cpu: Level::from_rank(i / NUM_LEVELS),
            mem: Level::from_rank(i % NUM_LEVELS),
        }
    }

    /// All actions, in index order.
    pub fn all() -> impl Iterator<Item = VmAction> {
        (0..NUM_STATES).map(VmAction::from_index)
    }
}

impl fmt::Display for PmState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?},{:?})", self.cpu, self.mem)
    }
}

impl fmt::Display for VmAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?},{:?})", self.cpu, self.mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_state() {
        // Aggregate (0.95, 0.76) → (5xHigh, 3xHigh).
        let s = PmState::from_utilization(Resources::new(0.95, 0.76));
        assert_eq!(s.cpu, Level::X5High);
        assert_eq!(s.mem, Level::X3High);
    }

    #[test]
    fn paper_example_action() {
        // VM (0.85, 0.56) → (4xHigh, xHigh).
        let a = VmAction::from_demand(Resources::new(0.85, 0.56));
        assert_eq!(a.cpu, Level::X4High);
        assert_eq!(a.mem, Level::XHigh);
    }

    #[test]
    fn state_index_roundtrips() {
        for s in PmState::all() {
            assert_eq!(PmState::from_index(s.index()), s);
            assert!(s.index() < NUM_STATES);
        }
    }

    #[test]
    fn action_index_roundtrips() {
        for a in VmAction::all() {
            assert_eq!(VmAction::from_index(a.index()), a);
        }
    }

    #[test]
    fn index_space_is_exactly_81() {
        assert_eq!(NUM_STATES, 81);
        assert_eq!(PmState::all().count(), 81);
        let mut seen = [false; NUM_STATES];
        for s in PmState::all() {
            assert!(!seen[s.index()], "duplicate index");
            seen[s.index()] = true;
        }
    }

    #[test]
    fn overload_detection() {
        assert!(PmState::from_utilization(Resources::new(1.0, 0.1)).is_overloaded());
        assert!(PmState::from_utilization(Resources::new(0.1, 1.0)).is_overloaded());
        assert!(!PmState::from_utilization(Resources::new(0.95, 0.95)).is_overloaded());
    }

    #[test]
    fn display_is_informative() {
        let s = PmState::from_utilization(Resources::new(0.1, 0.5));
        assert_eq!(format!("{s}"), "(Low,High)");
    }
}

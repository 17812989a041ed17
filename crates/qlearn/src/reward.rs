//! The paper's two incentive systems (§IV-A, "Reward (R)").
//!
//! * **Reward out** (sender mode): strictly decreasing in the load of the
//!   state the PM transitions *to* — `r_L > r_M > … > r_O`, all positive —
//!   so emptying aggressively (reaching lighter states) pays more, pushing
//!   PMs toward sleep with few migrations.
//! * **Reward in** (recipient mode): positive and increasing for
//!   transitions *toward* overload (be "avaricious", fill up), but a large
//!   negative `r_O ≪ 0` for transitions *into* overload, so the learned
//!   `in` Q-values become negative exactly for the (state, action) pairs
//!   whose acceptance tends to end in SLA violation now or later.
//!
//! For both systems "the total reward of any transition … is \[the\]
//! aggregation \[of\] rewards of each resource": we sum the per-resource
//! level rewards of the destination state.

use crate::level::{Level, NUM_LEVELS};
use crate::state::PmState;

/// Sender-mode rewards, indexed by destination-state level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardOut {
    /// Per-level reward, `values[level.rank()]`.
    pub values: [f64; NUM_LEVELS],
}

impl Default for RewardOut {
    fn default() -> Self {
        // Strictly decreasing, all positive: r_L > r_M > … > r_O > 0.
        RewardOut {
            values: [100.0, 80.0, 65.0, 52.0, 41.0, 31.0, 22.0, 14.0, 1.0],
        }
    }
}

impl RewardOut {
    /// Reward of one resource reaching `level`.
    #[inline]
    pub fn of_level(&self, level: Level) -> f64 {
        self.values[level.rank()]
    }

    /// Total reward of transitioning into `next` (per-resource sum).
    #[inline]
    pub fn of_transition(&self, next: PmState) -> f64 {
        self.of_level(next.cpu) + self.of_level(next.mem)
    }

    /// Validates the paper's ordering constraint.
    pub fn is_valid(&self) -> bool {
        self.values.windows(2).all(|w| w[0] > w[1]) && self.values.iter().all(|&v| v > 0.0)
    }
}

/// Recipient-mode rewards, indexed by destination-state level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardIn {
    /// Per-level reward, `values[level.rank()]`.
    pub values: [f64; NUM_LEVELS],
}

impl Default for RewardIn {
    fn default() -> Self {
        // Positive and increasing toward (but not into) overload; the
        // overload level itself is r_O ≪ 0.
        RewardIn {
            values: [5.0, 12.0, 20.0, 28.0, 36.0, 44.0, 52.0, 60.0, -3000.0],
        }
    }
}

impl RewardIn {
    /// Reward of one resource reaching `level`.
    #[inline]
    pub fn of_level(&self, level: Level) -> f64 {
        self.values[level.rank()]
    }

    /// Total reward of transitioning into `next` (per-resource sum).
    #[inline]
    pub fn of_transition(&self, next: PmState) -> f64 {
        self.of_level(next.cpu) + self.of_level(next.mem)
    }

    /// Validates the paper's constraints: positive and increasing below
    /// overload, strongly negative at overload.
    pub fn is_valid(&self) -> bool {
        let below = &self.values[..NUM_LEVELS - 1];
        below.iter().all(|&v| v > 0.0)
            && below.windows(2).all(|w| w[0] < w[1])
            && self.values[NUM_LEVELS - 1] < -below.iter().cloned().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glap_cluster::Resources;

    #[test]
    fn default_out_rewards_satisfy_paper_ordering() {
        assert!(RewardOut::default().is_valid());
    }

    #[test]
    fn default_in_rewards_satisfy_paper_ordering() {
        assert!(RewardIn::default().is_valid());
    }

    #[test]
    fn out_reward_prefers_lighter_destination() {
        let r = RewardOut::default();
        let light = PmState::from_utilization(Resources::new(0.1, 0.1));
        let heavy = PmState::from_utilization(Resources::new(0.85, 0.85));
        assert!(r.of_transition(light) > r.of_transition(heavy));
    }

    #[test]
    fn in_reward_prefers_fuller_destination_but_not_overload() {
        let r = RewardIn::default();
        let mid = PmState::from_utilization(Resources::new(0.5, 0.5));
        let full = PmState::from_utilization(Resources::new(0.95, 0.95));
        let over = PmState::from_utilization(Resources::new(1.0, 0.95));
        assert!(r.of_transition(full) > r.of_transition(mid));
        assert!(r.of_transition(over) < 0.0);
    }

    #[test]
    fn rewards_aggregate_per_resource() {
        let r = RewardIn::default();
        let s = PmState::from_utilization(Resources::new(0.1, 0.95));
        assert_eq!(
            r.of_transition(s),
            r.of_level(Level::Low) + r.of_level(Level::X5High)
        );
    }

    #[test]
    fn overload_in_one_resource_dominates() {
        let r = RewardIn::default();
        let s = PmState::from_utilization(Resources::new(1.0, 0.1));
        assert!(r.of_transition(s) < -900.0);
    }

    #[test]
    fn invalid_orderings_are_rejected() {
        let mut out = RewardOut::default();
        out.values[0] = 0.5; // no longer strictly decreasing from the top
        assert!(!out.is_valid());
        let mut rin = RewardIn::default();
        rin.values[NUM_LEVELS - 1] = 10.0; // overload must be negative
        assert!(!rin.is_valid());
    }
}

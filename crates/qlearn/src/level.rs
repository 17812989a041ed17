//! The paper's 9-level calibration of resource utilization.
//!
//! §IV-A discretizes utilization into nine levels per resource so the
//! Q-learning state/action spaces stay finite:
//!
//! ```text
//! Low      x ≤ 0.2        xHigh   0.5 < x ≤ 0.6    4xHigh  0.8 < x ≤ 0.9
//! Medium   0.2 < x ≤ 0.4  2xHigh  0.6 < x ≤ 0.7    5xHigh  0.9 < x < 1
//! High     0.4 < x ≤ 0.5  3xHigh  0.7 < x ≤ 0.8    Overload x = 1
//! ```

/// Number of utilization levels.
pub const NUM_LEVELS: usize = 9;

/// One calibrated utilization level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Level {
    /// `x ≤ 0.2`
    Low = 0,
    /// `0.2 < x ≤ 0.4`
    Medium = 1,
    /// `0.4 < x ≤ 0.5`
    High = 2,
    /// `0.5 < x ≤ 0.6`
    XHigh = 3,
    /// `0.6 < x ≤ 0.7`
    X2High = 4,
    /// `0.7 < x ≤ 0.8`
    X3High = 5,
    /// `0.8 < x ≤ 0.9`
    X4High = 6,
    /// `0.9 < x < 1 − 1e-9`, and NaN
    X5High = 7,
    /// `x ≥ 1 − 1e-9` (saturated)
    Overload = 8,
}

impl Level {
    /// All levels, lightest first.
    pub const ALL: [Level; NUM_LEVELS] = [
        Level::Low,
        Level::Medium,
        Level::High,
        Level::XHigh,
        Level::X2High,
        Level::X3High,
        Level::X4High,
        Level::X5High,
        Level::Overload,
    ];

    /// Calibrates a utilization fraction. Nothing is clamped: `Overload`
    /// starts at `1 − 1e-9` (so it takes anything above 1 and `+∞`), a
    /// negative value or `−∞` is `Low`, and NaN, failing every
    /// comparison, is `X5High`.
    #[inline]
    pub fn from_utilization(x: f64) -> Level {
        if x >= 1.0 - 1e-9 {
            Level::Overload
        } else if x <= 0.2 {
            Level::Low
        } else if x <= 0.4 {
            Level::Medium
        } else if x <= 0.5 {
            Level::High
        } else if x <= 0.6 {
            Level::XHigh
        } else if x <= 0.7 {
            Level::X2High
        } else if x <= 0.8 {
            Level::X3High
        } else if x <= 0.9 {
            Level::X4High
        } else {
            Level::X5High
        }
    }

    /// The level's rank (0 = `Low` … 8 = `Overload`).
    #[inline]
    pub const fn rank(self) -> usize {
        self as usize
    }

    /// Rank → level.
    #[inline]
    pub fn from_rank(rank: usize) -> Level {
        Level::ALL[rank]
    }

    /// A representative utilization value inside this level's bin (used by
    /// the learning phase when synthesizing profiles for rare states).
    pub fn representative(self) -> f64 {
        match self {
            Level::Low => 0.1,
            Level::Medium => 0.3,
            Level::High => 0.45,
            Level::XHigh => 0.55,
            Level::X2High => 0.65,
            Level::X3High => 0.75,
            Level::X4High => 0.85,
            Level::X5High => 0.95,
            Level::Overload => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matches_paper_thresholds() {
        assert_eq!(Level::from_utilization(0.0), Level::Low);
        assert_eq!(Level::from_utilization(0.2), Level::Low);
        assert_eq!(Level::from_utilization(0.21), Level::Medium);
        assert_eq!(Level::from_utilization(0.4), Level::Medium);
        assert_eq!(Level::from_utilization(0.45), Level::High);
        assert_eq!(Level::from_utilization(0.5), Level::High);
        assert_eq!(Level::from_utilization(0.56), Level::XHigh);
        assert_eq!(Level::from_utilization(0.6), Level::XHigh);
        assert_eq!(Level::from_utilization(0.7), Level::X2High);
        assert_eq!(Level::from_utilization(0.79), Level::X3High);
        assert_eq!(Level::from_utilization(0.85), Level::X4High);
        assert_eq!(Level::from_utilization(0.9), Level::X4High);
        assert_eq!(Level::from_utilization(0.95), Level::X5High);
        assert_eq!(Level::from_utilization(0.999999999), Level::Overload);
        assert_eq!(Level::from_utilization(1.0), Level::Overload);
        assert_eq!(Level::from_utilization(1.5), Level::Overload);
    }

    #[test]
    fn out_of_range_inputs_land_where_the_comparisons_put_them() {
        assert_eq!(Level::from_utilization(-0.3), Level::Low);
        assert_eq!(Level::from_utilization(f64::NEG_INFINITY), Level::Low);
        assert_eq!(Level::from_utilization(f64::NAN), Level::X5High);
        assert_eq!(Level::from_utilization(1.0 - 1e-9), Level::Overload);
        assert_eq!(Level::from_utilization(1.0 - 2e-9), Level::X5High);
        assert_eq!(Level::from_utilization(f64::INFINITY), Level::Overload);
    }

    #[test]
    fn paper_figure3_examples() {
        // VM with average CPU 0.85, MEM 0.56 → action (4xHigh, xHigh).
        assert_eq!(Level::from_utilization(0.85), Level::X4High);
        assert_eq!(Level::from_utilization(0.56), Level::XHigh);
        // PM aggregate (0.95, 0.76) → (5xHigh, 3xHigh).
        assert_eq!(Level::from_utilization(0.95), Level::X5High);
        assert_eq!(Level::from_utilization(0.76), Level::X3High);
        // Figure 3: average demand 41% → High; 79% → 3xHigh; 50% → High.
        assert_eq!(Level::from_utilization(0.41), Level::High);
        assert_eq!(Level::from_utilization(0.79), Level::X3High);
        assert_eq!(Level::from_utilization(0.50), Level::High);
    }

    #[test]
    fn ranks_roundtrip() {
        for (i, l) in Level::ALL.iter().enumerate() {
            assert_eq!(l.rank(), i);
            assert_eq!(Level::from_rank(i), *l);
        }
    }

    #[test]
    fn levels_order_by_load() {
        assert!(Level::Low < Level::Medium);
        assert!(Level::X5High < Level::Overload);
    }

    #[test]
    fn representative_lands_in_own_bin() {
        for l in Level::ALL {
            assert_eq!(Level::from_utilization(l.representative()), l);
        }
    }
}

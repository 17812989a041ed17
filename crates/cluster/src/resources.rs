//! Two-dimensional (CPU, memory) resource vectors.
//!
//! The GLAP paper (§IV-A) models workloads over a set of resources
//! `M = {CPU, Memory}`. All demand bookkeeping in this crate is expressed as
//! *fractions of a physical machine's capacity* in each dimension, which is
//! what the paper's calibration of states/actions operates on. Absolute
//! units (MIPS / MB) only appear in [`crate::pm::PmSpec`] and
//! [`crate::vm::VmSpec`] and in the power/migration models.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Index, Mul, Sub, SubAssign};

/// Number of resource dimensions considered by the model.
pub const NUM_RESOURCES: usize = 2;

/// Identifies one resource dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Processing capacity (MIPS in absolute units).
    Cpu,
    /// Main memory (MB in absolute units).
    Mem,
}

impl Resource {
    /// All resource dimensions, in index order.
    pub const ALL: [Resource; NUM_RESOURCES] = [Resource::Cpu, Resource::Mem];

    /// The array index backing this dimension.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            Resource::Cpu => 0,
            Resource::Mem => 1,
        }
    }
}

/// A non-negative quantity per resource dimension.
///
/// Depending on context this is either a capacity fraction in `[0, 1]`
/// (demands, utilizations) or an absolute quantity (MIPS, MB). The type is
/// deliberately `Copy` and allocation-free: it sits on every hot path of the
/// simulator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Resources {
    values: [f64; NUM_RESOURCES],
}

impl Resources {
    /// Zero in every dimension.
    pub const ZERO: Resources = Resources {
        values: [0.0; NUM_RESOURCES],
    };

    /// One (full capacity) in every dimension.
    pub const FULL: Resources = Resources {
        values: [1.0; NUM_RESOURCES],
    };

    /// Builds a vector from explicit CPU and memory components.
    #[inline]
    pub const fn new(cpu: f64, mem: f64) -> Self {
        Resources { values: [cpu, mem] }
    }

    /// Builds a vector with the same value in every dimension.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Resources {
            values: [v; NUM_RESOURCES],
        }
    }

    /// CPU component.
    #[inline]
    pub const fn cpu(&self) -> f64 {
        self.values[0]
    }

    /// Memory component.
    #[inline]
    pub const fn mem(&self) -> f64 {
        self.values[1]
    }

    /// The raw component array.
    #[inline]
    pub const fn as_array(&self) -> [f64; NUM_RESOURCES] {
        self.values
    }

    /// Component for dimension `r`.
    #[inline]
    pub fn get(&self, r: Resource) -> f64 {
        self.values[r.index()]
    }

    /// Sets the component for dimension `r`.
    #[inline]
    pub fn set(&mut self, r: Resource, v: f64) {
        self.values[r.index()] = v;
    }

    /// Element-wise minimum.
    #[inline]
    pub fn min(&self, other: Resources) -> Resources {
        Resources {
            values: [
                self.values[0].min(other.values[0]),
                self.values[1].min(other.values[1]),
            ],
        }
    }

    /// Element-wise maximum.
    #[inline]
    pub fn max(&self, other: Resources) -> Resources {
        Resources {
            values: [
                self.values[0].max(other.values[0]),
                self.values[1].max(other.values[1]),
            ],
        }
    }

    /// Clamps every component to `[lo, hi]`.
    #[inline]
    pub fn clamp(&self, lo: f64, hi: f64) -> Resources {
        Resources {
            values: [self.values[0].clamp(lo, hi), self.values[1].clamp(lo, hi)],
        }
    }

    /// Sum of the components — the paper's "total utilization" used to pick
    /// the sender PM in Algorithm 3 (`arg min` over total current
    /// utilization).
    #[inline]
    pub fn total(&self) -> f64 {
        self.values[0] + self.values[1]
    }

    /// Arithmetic mean of the components — the "average resource utilization
    /// degree" used by the paper's calibration examples.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.total() / NUM_RESOURCES as f64
    }

    /// Element-wise multiplication.
    #[inline]
    pub fn mul_elem(&self, other: Resources) -> Resources {
        Resources {
            values: [
                self.values[0] * other.values[0],
                self.values[1] * other.values[1],
            ],
        }
    }

    /// Element-wise division. Caller must ensure `other` has no zero
    /// component.
    #[inline]
    pub fn div_elem(&self, other: Resources) -> Resources {
        debug_assert!(other.values.iter().all(|&v| v != 0.0));
        Resources {
            values: [
                self.values[0] / other.values[0],
                self.values[1] / other.values[1],
            ],
        }
    }

    /// `true` when every component of `self` is `<=` the matching component
    /// of `other` plus a small epsilon (capacity-fit check).
    #[inline]
    pub fn fits_within(&self, other: Resources) -> bool {
        const EPS: f64 = 1e-9;
        self.values[0] <= other.values[0] + EPS && self.values[1] <= other.values[1] + EPS
    }

    /// `true` when any component is `>=` the matching component of `other`
    /// minus epsilon (overload check against a capacity vector).
    #[inline]
    pub fn any_reaches(&self, other: Resources) -> bool {
        const EPS: f64 = 1e-9;
        self.values[0] >= other.values[0] - EPS || self.values[1] >= other.values[1] - EPS
    }

    /// `true` when every component is finite and non-negative.
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.values.iter().all(|v| v.is_finite() && *v >= 0.0)
    }
}

impl Index<Resource> for Resources {
    type Output = f64;

    #[inline]
    fn index(&self, r: Resource) -> &f64 {
        &self.values[r.index()]
    }
}

impl Add for Resources {
    type Output = Resources;

    #[inline]
    fn add(self, rhs: Resources) -> Resources {
        Resources {
            values: [
                self.values[0] + rhs.values[0],
                self.values[1] + rhs.values[1],
            ],
        }
    }
}

impl AddAssign for Resources {
    #[inline]
    fn add_assign(&mut self, rhs: Resources) {
        self.values[0] += rhs.values[0];
        self.values[1] += rhs.values[1];
    }
}

impl Sub for Resources {
    type Output = Resources;

    #[inline]
    fn sub(self, rhs: Resources) -> Resources {
        Resources {
            values: [
                self.values[0] - rhs.values[0],
                self.values[1] - rhs.values[1],
            ],
        }
    }
}

impl SubAssign for Resources {
    #[inline]
    fn sub_assign(&mut self, rhs: Resources) {
        self.values[0] -= rhs.values[0];
        self.values[1] -= rhs.values[1];
    }
}

impl Mul<f64> for Resources {
    type Output = Resources;

    #[inline]
    fn mul(self, rhs: f64) -> Resources {
        Resources {
            values: [self.values[0] * rhs, self.values[1] * rhs],
        }
    }
}

impl Div<f64> for Resources {
    type Output = Resources;

    #[inline]
    fn div(self, rhs: f64) -> Resources {
        Resources {
            values: [self.values[0] / rhs, self.values[1] / rhs],
        }
    }
}

impl Sum for Resources {
    fn sum<I: Iterator<Item = Resources>>(iter: I) -> Resources {
        iter.fold(Resources::ZERO, |acc, r| acc + r)
    }
}

/// Incrementally maintained running average of a resource vector.
///
/// This is the `{c, v}` tuple each VM piggybacks in §IV-B of the paper: `c`
/// is the number of observations so far and `v` the running average, updated
/// as `((c * v) + d(t)) / (c + 1)`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningAvg {
    count: u64,
    value: Resources,
}

impl RunningAvg {
    /// A fresh average with no observations.
    pub const fn new() -> Self {
        RunningAvg {
            count: 0,
            value: Resources::ZERO,
        }
    }

    /// Starts from a known prior observation count and value (used when
    /// profiles are shipped between PMs during the learning phase).
    pub const fn from_parts(count: u64, value: Resources) -> Self {
        RunningAvg { count, value }
    }

    /// Records one demand observation.
    #[inline]
    pub fn observe(&mut self, demand: Resources) {
        let c = self.count as f64;
        self.value = (self.value * c + demand) / (c + 1.0);
        self.count += 1;
    }

    /// Number of observations recorded so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Current average; zero before any observation.
    #[inline]
    pub fn value(&self) -> Resources {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_accessors() {
        let r = Resources::new(0.25, 0.5);
        assert_eq!(r.cpu(), 0.25);
        assert_eq!(r.mem(), 0.5);
        assert_eq!(r.get(Resource::Cpu), 0.25);
        assert_eq!(r.get(Resource::Mem), 0.5);
        assert_eq!(r[Resource::Mem], 0.5);
    }

    #[test]
    fn set_updates_single_dimension() {
        let mut r = Resources::ZERO;
        r.set(Resource::Mem, 0.7);
        assert_eq!(r, Resources::new(0.0, 0.7));
    }

    #[test]
    fn arithmetic_ops() {
        let a = Resources::new(0.2, 0.3);
        let b = Resources::new(0.1, 0.1);
        assert_eq!(a + b, Resources::new(0.30000000000000004, 0.4));
        assert_eq!(a - b, Resources::new(0.1, 0.19999999999999998));
        assert_eq!(a * 2.0, Resources::new(0.4, 0.6));
        assert_eq!(a / 2.0, Resources::new(0.1, 0.15));
    }

    #[test]
    fn add_sub_assign() {
        let mut r = Resources::new(0.5, 0.5);
        r += Resources::new(0.25, 0.0);
        assert_eq!(r, Resources::new(0.75, 0.5));
        r -= Resources::new(0.75, 0.5);
        assert!(r.cpu().abs() < 1e-12 && r.mem().abs() < 1e-12);
    }

    #[test]
    fn total_and_mean() {
        let r = Resources::new(0.4, 0.6);
        assert!((r.total() - 1.0).abs() < 1e-12);
        assert!((r.mean() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fits_within_checks_every_dimension() {
        let cap = Resources::FULL;
        assert!(Resources::new(1.0, 0.5).fits_within(cap));
        assert!(!Resources::new(1.1, 0.5).fits_within(cap));
        assert!(!Resources::new(0.5, 1.2).fits_within(cap));
    }

    #[test]
    fn any_reaches_triggers_on_single_dimension() {
        let cap = Resources::FULL;
        assert!(Resources::new(1.0, 0.2).any_reaches(cap));
        assert!(Resources::new(0.2, 1.0).any_reaches(cap));
        assert!(!Resources::new(0.99, 0.99).any_reaches(cap));
    }

    #[test]
    fn sum_over_iterator() {
        let total: Resources = [Resources::new(0.1, 0.2), Resources::new(0.3, 0.4)]
            .into_iter()
            .sum();
        assert!((total.cpu() - 0.4).abs() < 1e-12);
        assert!((total.mem() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn clamp_bounds_components() {
        let r = Resources::new(-0.5, 1.5);
        assert_eq!(r.clamp(0.0, 1.0), Resources::new(0.0, 1.0));
    }

    #[test]
    fn element_wise_mul_div() {
        let a = Resources::new(0.5, 0.8);
        let b = Resources::new(2.0, 4.0);
        assert_eq!(a.mul_elem(b), Resources::new(1.0, 3.2));
        assert_eq!(a.div_elem(b), Resources::new(0.25, 0.2));
    }

    #[test]
    fn validity() {
        assert!(Resources::new(0.0, 1.0).is_valid());
        assert!(!Resources::new(-0.1, 1.0).is_valid());
        assert!(!Resources::new(f64::NAN, 1.0).is_valid());
    }

    #[test]
    fn running_avg_matches_paper_update_rule() {
        let mut avg = RunningAvg::new();
        avg.observe(Resources::new(0.2, 0.4));
        avg.observe(Resources::new(0.4, 0.0));
        // ((1 * 0.2) + 0.4) / 2 = 0.3 ; ((1 * 0.4) + 0.0) / 2 = 0.2
        assert!((avg.value().cpu() - 0.3).abs() < 1e-12);
        assert!((avg.value().mem() - 0.2).abs() < 1e-12);
        assert_eq!(avg.count(), 2);
    }

    #[test]
    fn running_avg_from_parts_continues_correctly() {
        let mut avg = RunningAvg::from_parts(3, Resources::new(0.3, 0.3));
        avg.observe(Resources::new(0.7, 0.7));
        // ((3 * 0.3) + 0.7) / 4 = 0.4
        assert!((avg.value().cpu() - 0.4).abs() < 1e-12);
        assert_eq!(avg.count(), 4);
    }

    #[test]
    fn running_avg_empty_is_zero() {
        let avg = RunningAvg::new();
        assert_eq!(avg.value(), Resources::ZERO);
        assert_eq!(avg.count(), 0);
    }
}

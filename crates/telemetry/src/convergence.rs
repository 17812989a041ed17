//! Convergence monitor: Theorem 1's claim as a live-tracked series.
//!
//! Per sampling point (one training cycle) the monitor records the
//! *population diameter* — the maximum pairwise L∞ (Chebyshev) distance
//! between any two alive Q-tables — plus the mean cosine similarity to a
//! reference (converged/unified) table and basic overlay health.
//!
//! The diameter is the key series: a gossip merge replaces a pair of
//! entries with values inside the pair's `[min, max]` interval, so the
//! per-coordinate population range — and therefore the diameter, its
//! maximum over coordinates — can never increase during aggregation.
//! That turns Theorem 1's qualitative claim into a per-run machine-
//! checkable invariant (see [`ConvergenceMonitor::diameter_is_nonincreasing`]).
//!
//! The L∞ pairwise maximum equals the maximum over coordinates of
//! `(max_i v_i - min_i v_i)`, so it is computed in `O(n·d)` rather than
//! `O(n²·d)`.

use crate::event::Phase;

/// Overlay health at a sampling point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlayHealth {
    /// Alive overlay nodes.
    pub alive: usize,
    /// Whether alive nodes form one connected component.
    pub connected: bool,
    /// Smallest in-degree among alive nodes.
    pub min_in_degree: usize,
    /// Largest in-degree among alive nodes.
    pub max_in_degree: usize,
    /// Mean in-degree among alive nodes.
    pub mean_in_degree: f64,
}

impl OverlayHealth {
    /// Health derived from an in-degree distribution and a partition
    /// check (both provided by the overlay).
    pub fn from_in_degrees(in_degrees: &[usize], alive: &[bool], connected: bool) -> Self {
        let mut min = usize::MAX;
        let mut max = 0usize;
        let mut sum = 0usize;
        let mut n = 0usize;
        for (i, &d) in in_degrees.iter().enumerate() {
            if alive.get(i).copied().unwrap_or(true) {
                min = min.min(d);
                max = max.max(d);
                sum += d;
                n += 1;
            }
        }
        if n == 0 {
            min = 0;
        }
        OverlayHealth {
            alive: n,
            connected,
            min_in_degree: min,
            max_in_degree: max,
            mean_in_degree: if n == 0 { 0.0 } else { sum as f64 / n as f64 },
        }
    }
}

/// One sampling point of the monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceSample {
    /// Phase the cycle belongs to.
    pub phase: Phase,
    /// Cycle index within the phase.
    pub cycle: u64,
    /// Max pairwise L∞ distance across alive tables.
    pub diameter: f64,
    /// Mean cosine similarity of alive tables vs. the reference table.
    pub mean_cosine_to_ref: f64,
    /// Overlay health at sampling time.
    pub health: OverlayHealth,
}

/// Collects [`ConvergenceSample`]s over a training run.
#[derive(Debug, Clone, Default)]
pub struct ConvergenceMonitor {
    /// All samples, in sampling order.
    pub samples: Vec<ConvergenceSample>,
}

/// Max pairwise L∞ distance over a population of equal-length vectors,
/// computed per-coordinate in one pass (`O(n·d)`).
pub fn population_diameter<'a, I>(tables: I) -> f64
where
    I: IntoIterator<Item = &'a [f64]>,
{
    let mut lo: Vec<f64> = Vec::new();
    let mut hi: Vec<f64> = Vec::new();
    for t in tables {
        if lo.is_empty() {
            lo = t.to_vec();
            hi = t.to_vec();
            continue;
        }
        debug_assert_eq!(lo.len(), t.len());
        for (i, &v) in t.iter().enumerate() {
            if v < lo[i] {
                lo[i] = v;
            }
            if v > hi[i] {
                hi[i] = v;
            }
        }
    }
    lo.iter()
        .zip(&hi)
        .map(|(l, h)| h - l)
        .fold(0.0f64, f64::max)
}

/// Cosine similarity between two equal-length vectors (1 when either is
/// all-zero, matching the Q-table convention used by the trainer).
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        1.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

impl ConvergenceMonitor {
    /// An empty monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes and stores one sample from the alive tables (flattened
    /// Q-value vectors) and a reference table, returning it.
    pub fn record<'a, I>(
        &mut self,
        phase: Phase,
        cycle: u64,
        tables: I,
        reference: &[f64],
        health: OverlayHealth,
    ) -> &ConvergenceSample
    where
        I: IntoIterator<Item = &'a [f64]> + Clone,
    {
        let diameter = population_diameter(tables.clone());
        let mut cos_sum = 0.0;
        let mut n = 0usize;
        for t in tables {
            cos_sum += cosine(t, reference);
            n += 1;
        }
        let sample = ConvergenceSample {
            phase,
            cycle,
            diameter,
            mean_cosine_to_ref: if n == 0 { 1.0 } else { cos_sum / n as f64 },
            health,
        };
        self.samples.push(sample);
        self.samples.last().unwrap()
    }

    /// The diameter series restricted to one phase.
    pub fn diameters(&self, phase: Phase) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.diameter)
            .collect()
    }

    /// Whether the diameter series of `phase` never increases — the
    /// machine-checkable form of Theorem 1's convergence claim for the
    /// aggregation phase.
    pub fn diameter_is_nonincreasing(&self, phase: Phase) -> bool {
        let d = self.diameters(phase);
        d.windows(2).all(|w| w[1] <= w[0] + 1e-12)
    }

    /// The final sample, if any.
    pub fn last(&self) -> Option<&ConvergenceSample> {
        self.samples.last()
    }

    /// CSV export: `phase,cycle,diameter,mean_cosine,alive,connected,`
    /// `min_in_degree,max_in_degree,mean_in_degree`.
    pub fn csv(&self) -> String {
        let mut out = String::from(
            "phase,cycle,diameter,mean_cosine,alive,connected,min_in_degree,max_in_degree,mean_in_degree\n",
        );
        for s in &self.samples {
            out.push_str(&format!(
                "{},{},{:.9},{:.9},{},{},{},{},{:.3}\n",
                s.phase.tag(),
                s.cycle,
                s.diameter,
                s.mean_cosine_to_ref,
                s.health.alive,
                s.health.connected,
                s.health.min_in_degree,
                s.health.max_in_degree,
                s.health.mean_in_degree,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diameter_is_max_coordinate_range() {
        let a = [0.0, 1.0, 5.0];
        let b = [1.0, 1.0, 2.0];
        let c = [0.5, -1.0, 3.0];
        let d = population_diameter([a.as_slice(), b.as_slice(), c.as_slice()]);
        // ranges: 1.0, 2.0, 3.0 -> 3.0
        assert!((d - 3.0).abs() < 1e-12);
    }

    #[test]
    fn diameter_of_identical_tables_is_zero() {
        let a = [0.3, 0.7];
        assert_eq!(population_diameter([a.as_slice(), a.as_slice()]), 0.0);
        assert_eq!(population_diameter(std::iter::empty::<&[f64]>()), 0.0);
    }

    #[test]
    fn averaging_merge_never_increases_diameter() {
        // Simulate random pairwise averaging and check the invariant the
        // monitor is designed to certify.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let mut tables: Vec<Vec<f64>> = (0..8)
            .map(|_| (0..16).map(|_| rng.gen_range(-5.0..5.0)).collect())
            .collect();
        let mut prev = population_diameter(tables.iter().map(Vec::as_slice));
        for _ in 0..50 {
            let i = rng.gen_range(0..tables.len());
            let j = rng.gen_range(0..tables.len());
            if i == j {
                continue;
            }
            for k in 0..tables[i].len() {
                let m = 0.5 * (tables[i][k] + tables[j][k]);
                tables[i][k] = m;
                tables[j][k] = m;
            }
            let d = population_diameter(tables.iter().map(Vec::as_slice));
            assert!(d <= prev + 1e-12);
            prev = d;
        }
    }

    #[test]
    fn cosine_handles_zero_vectors() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 2.0]), 1.0);
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-12);
    }

    #[test]
    fn monitor_records_and_checks_monotonicity() {
        let mut m = ConvergenceMonitor::new();
        let health = OverlayHealth::from_in_degrees(&[2, 2], &[true, true], true);
        let a0 = [0.0, 4.0];
        let b0 = [2.0, 0.0];
        let reference = [1.0, 2.0];
        m.record(
            Phase::Aggregation,
            0,
            [a0.as_slice(), b0.as_slice()],
            &reference,
            health,
        );
        let a1 = [1.0, 2.0];
        m.record(
            Phase::Aggregation,
            1,
            [a1.as_slice(), a1.as_slice()],
            &reference,
            health,
        );
        assert!(m.diameter_is_nonincreasing(Phase::Aggregation));
        assert_eq!(m.diameters(Phase::Aggregation), vec![4.0, 0.0]);
        assert!((m.last().unwrap().mean_cosine_to_ref - 1.0).abs() < 1e-12);
        let csv = m.csv();
        assert!(csv.starts_with("phase,cycle,diameter"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn overlay_health_ignores_dead_nodes() {
        let h = OverlayHealth::from_in_degrees(&[5, 0, 3], &[true, false, true], true);
        assert_eq!(h.alive, 2);
        assert_eq!(h.min_in_degree, 3);
        assert_eq!(h.max_in_degree, 5);
        assert!((h.mean_in_degree - 4.0).abs() < 1e-12);
    }
}

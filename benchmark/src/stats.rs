//! Order statistics over small sample sets.

/// Sorted copy of `xs` (total order; the benchmark never produces NaN
/// samples, and a NaN would sort last rather than panic).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) by linear interpolation between the
/// closest ranks; 0 for an empty set.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// The median; 0 for an empty set.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default *exclusive* method)
/// gives them — the definition the driver uses for run-to-run spread.
/// `None` below two samples, as in Python.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Median, extremes, sample count and inter-quartile range of one
/// metric over the repeats of a set. No percentile is claimed from a
/// handful of repeats; the IQR is there for [`crate::compare`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
    pub iqr: f64,
}

impl Stat {
    pub fn of(xs: &[f64]) -> Stat {
        Stat {
            median: median(xs),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: xs.len(),
            iqr: quartiles(xs).map_or(0.0, |(q1, q3)| q3 - q1),
        }
    }

    /// Inter-quartile range as a share of the median (max − min below
    /// four samples, where quartiles say little).
    pub fn spread(&self) -> f64 {
        let width = if self.n >= 4 {
            self.iqr
        } else {
            self.max - self.min
        };
        if self.median == 0.0 {
            0.0
        } else {
            width / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_and_percentile_interpolate() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.95), 4.8);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spread_uses_iqr_from_four_samples() {
        let s = Stat::of(&[10.0, 10.0, 10.0, 10.0, 20.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (10.0, 10.0, 20.0, 5));
        assert_eq!(s.spread(), 0.5);
        assert_eq!(Stat::of(&[9.0, 10.0, 11.0]).spread(), 0.2);
    }
}

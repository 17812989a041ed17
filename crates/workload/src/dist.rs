//! Small, self-contained samplers for the distributions the trace
//! generator needs. Implemented in-repo (rather than pulling `rand_distr`)
//! to keep the dependency set to the approved list; each sampler is exact
//! or a standard textbook method.

use rand::Rng;

/// Samples a standard normal via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid u1 == 0 exactly (ln(0)).
    let u1: f64 = loop {
        let u = rng.gen::<f64>();
        if u > f64::MIN_POSITIVE {
            break u;
        }
    };
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples a Kumaraswamy(a, b) variate on `[0, 1]` by inverse transform:
/// `x = (1 − (1 − u)^{1/b})^{1/a}`.
///
/// Kumaraswamy closely mimics the Beta distribution with the same shape
/// parameters and has a closed-form inverse CDF, making it ideal for
/// drawing per-VM long-run utilization means (low-mean heavy-tailed for
/// CPU, higher and tighter for memory).
pub fn kumaraswamy<R: Rng + ?Sized>(rng: &mut R, a: f64, b: f64) -> f64 {
    debug_assert!(a > 0.0 && b > 0.0);
    let u: f64 = rng.gen();
    (1.0 - (1.0 - u).powf(1.0 / b)).powf(1.0 / a)
}

/// Mean of Kumaraswamy(a, b): `b · B(1 + 1/a, b)` where `B` is the Beta
/// function — used by tests to pin generator statistics.
pub fn kumaraswamy_mean(a: f64, b: f64) -> f64 {
    b * beta_fn(1.0 + 1.0 / a, b)
}

/// The Beta function via `ln Γ`.
fn beta_fn(x: f64, y: f64) -> f64 {
    (ln_gamma(x) + ln_gamma(y) - ln_gamma(x + y)).exp()
}

/// Lanczos approximation of `ln Γ(x)` (g = 7, n = 9 coefficients).
pub fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (std::f64::consts::TAU).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Samples a geometric duration with success probability `p` (support
/// `1, 2, …`) — burst lengths.
pub fn geometric<R: Rng + ?Sized>(rng: &mut R, p: f64) -> u64 {
    debug_assert!(p > 0.0 && p <= 1.0);
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    (u.ln() / (1.0 - p).max(f64::MIN_POSITIVE).ln())
        .ceil()
        .max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(12345)
    }

    #[test]
    fn normal_has_zero_mean_unit_variance() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn kumaraswamy_stays_in_unit_interval() {
        let mut r = rng();
        for _ in 0..1000 {
            let x = kumaraswamy(&mut r, 2.0, 5.0);
            assert!((0.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn kumaraswamy_empirical_mean_matches_formula() {
        let mut r = rng();
        let (a, b) = (2.0, 5.0);
        let n = 30_000;
        let mean = (0..n).map(|_| kumaraswamy(&mut r, a, b)).sum::<f64>() / n as f64;
        let expect = kumaraswamy_mean(a, b);
        assert!((mean - expect).abs() < 0.01, "mean {mean} expect {expect}");
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24
        assert!(ln_gamma(1.0).abs() < 1e-9);
        assert!(ln_gamma(2.0).abs() < 1e-9);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-9);
        // Γ(1/2) = √π
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-9);
    }

    #[test]
    fn geometric_mean_is_one_over_p() {
        let mut r = rng();
        let p = 0.25;
        let n = 20_000;
        let mean = (0..n).map(|_| geometric(&mut r, p) as f64).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / p).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn geometric_minimum_is_one() {
        let mut r = rng();
        for _ in 0..500 {
            assert!(geometric(&mut r, 0.9) >= 1);
        }
    }
}

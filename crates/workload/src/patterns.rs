//! Parametric per-VM workload patterns.
//!
//! These are the building blocks of the Google-like generator and are also
//! exposed directly so examples and ablations can stress specific dynamics
//! (the paper's future work calls out bursty patterns explicitly).

use crate::dist::{geometric, standard_normal};
use glap_cluster::Resources;
use rand::Rng;

/// A stateful generator of one VM's utilization series.
#[derive(Debug, Clone)]
pub enum Pattern {
    /// Constant demand with small white noise.
    Stable {
        /// Baseline utilization per resource.
        level: Resources,
        /// White-noise standard deviation.
        noise: f64,
    },
    /// Mean-reverting AR(1) process: `u' = m + φ(u − m) + σ ε`.
    MeanReverting {
        /// Long-run mean per resource.
        mean: Resources,
        /// Autocorrelation φ ∈ [0, 1).
        phi: f64,
        /// Innovation standard deviation σ.
        sigma: f64,
        /// Current value (state).
        state: Resources,
    },
    /// Diurnal sinusoid plus AR(1) noise: models the day/night cycle of
    /// interactive services.
    Diurnal {
        /// Mid-line utilization per resource.
        base: Resources,
        /// Peak-to-midline amplitude.
        amplitude: f64,
        /// Rounds per full day.
        period: u64,
        /// Phase offset in rounds.
        phase: u64,
        /// Additional white-noise σ.
        noise: f64,
    },
    /// Alternates between a low baseline and geometric-length bursts at a
    /// high level — the adversarial case for threshold-based consolidation.
    Bursty {
        /// Baseline utilization.
        low: Resources,
        /// Burst utilization.
        high: Resources,
        /// Per-round probability of entering a burst.
        burst_prob: f64,
        /// Expected burst length in rounds (geometric parameter 1/len).
        mean_burst_len: f64,
        /// Rounds left in the current burst (state).
        remaining_burst: u64,
    },
    /// On/off square wave (batch jobs).
    OnOff {
        /// Utilization while on.
        on: Resources,
        /// Utilization while off.
        off: Resources,
        /// Rounds on per cycle.
        on_rounds: u64,
        /// Rounds off per cycle.
        off_rounds: u64,
    },
}

impl Pattern {
    /// Produces the utilization at `round`, advancing internal state.
    /// Values are clamped to `[0, 1]` per resource.
    pub fn sample<R: Rng + ?Sized>(&mut self, round: u64, rng: &mut R) -> Resources {
        let v = match self {
            Pattern::Stable { level, noise } => {
                let e = standard_normal(rng) * *noise;
                *level + Resources::splat(e)
            }
            Pattern::MeanReverting {
                mean,
                phi,
                sigma,
                state,
            } => {
                *state = mean_reverting_step(*mean, *phi, *sigma, *state, rng);
                *state
            }
            Pattern::Diurnal {
                base,
                amplitude,
                period,
                phase,
                noise,
            } => {
                let angle =
                    std::f64::consts::TAU * ((round + *phase) % *period) as f64 / *period as f64;
                let wave = *amplitude * angle.sin();
                let e = standard_normal(rng) * *noise;
                Resources::new(base.cpu() + wave + e, base.mem() + 0.3 * wave + 0.3 * e)
            }
            Pattern::Bursty {
                low,
                high,
                burst_prob,
                mean_burst_len,
                remaining_burst,
            } => {
                let p = 1.0 / mean_burst_len.max(1.0);
                if burst_step(remaining_burst, *burst_prob, p, rng) {
                    *high
                } else {
                    *low
                }
            }
            Pattern::OnOff {
                on,
                off,
                on_rounds,
                off_rounds,
            } => {
                let cycle = *on_rounds + *off_rounds;
                if cycle == 0 || round % cycle < *on_rounds {
                    *on
                } else {
                    *off
                }
            }
        };
        v.clamp(0.0, 1.0)
    }
}

/// One AR(1) step of [`Pattern::MeanReverting`] from `state`.
pub(crate) fn mean_reverting_step<R: Rng + ?Sized>(
    mean: Resources,
    phi: f64,
    sigma: f64,
    state: Resources,
    rng: &mut R,
) -> Resources {
    let e_cpu = standard_normal(rng) * sigma;
    let e_mem = standard_normal(rng) * sigma * 0.4; // memory is steadier
    Resources::new(
        mean.cpu() + phi * (state.cpu() - mean.cpu()) + e_cpu,
        mean.mem() + phi * (state.mem() - mean.mem()) + e_mem,
    )
    .clamp(0.0, 1.0)
}

/// One round of [`Pattern::Bursty`]'s state machine, with burst lengths
/// geometric in `p`; true while bursting.
pub(crate) fn burst_step<R: Rng + ?Sized>(
    remaining_burst: &mut u64,
    burst_prob: f64,
    p: f64,
    rng: &mut R,
) -> bool {
    if *remaining_burst > 0 {
        *remaining_burst -= 1;
        true
    } else if rng.gen::<f64>() < burst_prob {
        *remaining_burst = geometric(rng, p);
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(77)
    }

    #[test]
    fn stable_stays_near_level() {
        let mut p = Pattern::Stable {
            level: Resources::splat(0.5),
            noise: 0.02,
        };
        let mut r = rng();
        let mean = (0..500).map(|t| p.sample(t, &mut r).cpu()).sum::<f64>() / 500.0;
        assert!((mean - 0.5).abs() < 0.02);
    }

    #[test]
    fn samples_always_clamped() {
        let mut p = Pattern::Stable {
            level: Resources::splat(0.95),
            noise: 0.5,
        };
        let mut r = rng();
        for t in 0..500 {
            let v = p.sample(t, &mut r);
            assert!(v.cpu() >= 0.0 && v.cpu() <= 1.0);
            assert!(v.mem() >= 0.0 && v.mem() <= 1.0);
        }
    }

    #[test]
    fn mean_reverting_tracks_mean_and_autocorrelates() {
        let mut p = Pattern::MeanReverting {
            mean: Resources::splat(0.3),
            phi: 0.9,
            sigma: 0.05,
            state: Resources::splat(0.3),
        };
        let mut r = rng();
        let xs: Vec<f64> = (0..3000).map(|t| p.sample(t, &mut r).cpu()).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.3).abs() < 0.05, "mean {mean}");
        // Empirical lag-1 autocorrelation should approximate φ.
        let var: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum();
        let cov: f64 = xs.windows(2).map(|w| (w[0] - mean) * (w[1] - mean)).sum();
        let rho = cov / var;
        assert!(rho > 0.7, "lag-1 autocorr {rho}");
    }

    #[test]
    fn diurnal_peaks_once_per_period() {
        let mut p = Pattern::Diurnal {
            base: Resources::splat(0.4),
            amplitude: 0.3,
            period: 720,
            phase: 0,
            noise: 0.0,
        };
        let mut r = rng();
        let xs: Vec<f64> = (0..720).map(|t| p.sample(t, &mut r).cpu()).collect();
        let max = xs.iter().cloned().fold(f64::MIN, f64::max);
        let min = xs.iter().cloned().fold(f64::MAX, f64::min);
        assert!((max - 0.7).abs() < 1e-6);
        assert!((min - 0.1).abs() < 1e-6);
    }

    #[test]
    fn bursty_spends_most_time_low() {
        let mut p = Pattern::Bursty {
            low: Resources::splat(0.1),
            high: Resources::splat(0.9),
            burst_prob: 0.02,
            mean_burst_len: 5.0,
            remaining_burst: 0,
        };
        let mut r = rng();
        let n = 5000;
        let high = (0..n).filter(|&t| p.sample(t, &mut r).cpu() > 0.5).count();
        let frac = high as f64 / n as f64;
        // Expected occupancy ≈ p·len / (1 + p·len) ≈ 0.09
        assert!(frac > 0.02 && frac < 0.25, "burst occupancy {frac}");
    }

    #[test]
    fn on_off_alternates_exactly() {
        let mut p = Pattern::OnOff {
            on: Resources::splat(0.8),
            off: Resources::splat(0.1),
            on_rounds: 3,
            off_rounds: 2,
        };
        let mut r = rng();
        let xs: Vec<f64> = (0..10).map(|t| p.sample(t, &mut r).cpu()).collect();
        assert_eq!(xs, vec![0.8, 0.8, 0.8, 0.1, 0.1, 0.8, 0.8, 0.8, 0.1, 0.1]);
    }
}

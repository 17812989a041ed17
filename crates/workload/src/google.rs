//! Synthetic Google-cluster-like trace generation.
//!
//! The paper drives its simulation with the 2011 Google cluster usage
//! traces \[12\]. That dataset is an external multi-gigabyte download, so this
//! module synthesizes traces with the statistical properties reported for
//! it in the literature (Reiss et al., "Heterogeneity and dynamicity of
//! clouds at scale", SoCC 2012):
//!
//! * **CPU**: per-task mean usage is *low* relative to request — most tasks
//!   use well under 50% of their allocation — with a heavy low-mean tail.
//!   Modelled as a Kumaraswamy(2, 5) draw of each VM's long-run mean
//!   (≈ 0.29 average), scaled into `[floor, ceil]`.
//! * **Memory**: much steadier than CPU, with a lower mean relative to
//!   request (memory requests are padded defensively); modelled with
//!   Kumaraswamy(4, 3) means in a narrower range and a 2.5× smaller
//!   innovation σ. CPU is the binding, fluctuating resource — which is
//!   why the paper's SLAVO metric is defined on CPU saturation.
//! * **Temporal structure**: strong positive autocorrelation at the
//!   5-minute granularity → mean-reverting AR(1) with φ ≈ 0.9 at 2-minute
//!   rounds.
//! * **Diurnality and bursts**: a fraction of tasks follow a day cycle and
//!   exhibit short high-utilization bursts.
//!
//! The consolidation algorithms only ever observe per-round utilization
//! fractions, so matching these marginal/temporal statistics preserves the
//! behaviour the paper's evaluation exercises: fluctuating VM load that
//! punishes static thresholds and rewards prediction.

use crate::dist::{kumaraswamy, skip_standard_normal, standard_normal};
use crate::patterns::{burst_step, mean_reverting_step};
use crate::trace::MaterializedTrace;
use glap_cluster::Resources;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Tunables of the Google-like generator. `Default` reproduces the
/// documented statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoogleTraceConfig {
    /// Kumaraswamy shape `a` for the per-VM CPU mean.
    pub cpu_mean_a: f64,
    /// Kumaraswamy shape `b` for the per-VM CPU mean.
    pub cpu_mean_b: f64,
    /// CPU mean is scaled into `[cpu_floor, cpu_ceil]`.
    pub cpu_floor: f64,
    /// Upper end of the CPU mean range.
    pub cpu_ceil: f64,
    /// Kumaraswamy shape `a` for the per-VM memory mean.
    pub mem_mean_a: f64,
    /// Kumaraswamy shape `b` for the per-VM memory mean.
    pub mem_mean_b: f64,
    /// Memory mean is scaled into `[mem_floor, mem_ceil]`.
    pub mem_floor: f64,
    /// Upper end of the memory mean range.
    pub mem_ceil: f64,
    /// AR(1) autocorrelation of the utilization process.
    pub phi: f64,
    /// AR(1) innovation standard deviation (CPU; memory uses 0.4×).
    pub sigma: f64,
    /// Fraction of VMs with a diurnal component.
    pub diurnal_fraction: f64,
    /// Number of distinct diurnal phase clusters. Real cluster workloads
    /// peak *together* (shared day/night cycles), so phases are drawn from
    /// a few clusters with small jitter rather than uniformly — this is
    /// what creates the correlated aggregate swings that stress
    /// threshold-based consolidation.
    pub phase_clusters: usize,
    /// Diurnal amplitude (utilization units).
    pub diurnal_amplitude: f64,
    /// Rounds per simulated day (720 × 2 min = 24 h).
    pub rounds_per_day: u64,
    /// Fraction of VMs that exhibit bursts.
    pub bursty_fraction: f64,
    /// Per-round probability a bursty VM starts a burst.
    pub burst_prob: f64,
    /// Mean burst length in rounds.
    pub mean_burst_len: f64,
    /// Burst CPU level added on top of the mean.
    pub burst_boost: f64,
}

impl Default for GoogleTraceConfig {
    fn default() -> Self {
        GoogleTraceConfig {
            cpu_mean_a: 2.0,
            cpu_mean_b: 5.0,
            cpu_floor: 0.05,
            cpu_ceil: 0.95,
            mem_mean_a: 4.0,
            mem_mean_b: 3.0,
            mem_floor: 0.10,
            mem_ceil: 0.60,
            phi: 0.9,
            sigma: 0.10,
            diurnal_fraction: 0.6,
            phase_clusters: 4,
            diurnal_amplitude: 0.30,
            rounds_per_day: 720,
            bursty_fraction: 0.3,
            burst_prob: 0.015,
            mean_burst_len: 6.0,
            burst_boost: 0.6,
        }
    }
}

/// Generates Google-like traces.
#[derive(Debug, Clone)]
pub struct GoogleLikeTraceGen {
    cfg: GoogleTraceConfig,
}

impl GoogleLikeTraceGen {
    /// Creates a generator with the given configuration.
    pub fn new(cfg: GoogleTraceConfig) -> Self {
        GoogleLikeTraceGen { cfg }
    }

    /// Creates a generator with the default (documented) statistics.
    pub fn default_stats() -> Self {
        GoogleLikeTraceGen {
            cfg: GoogleTraceConfig::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GoogleTraceConfig {
        &self.cfg
    }

    /// Generates a trace of `rounds` rounds for `n_vms` VMs, drawn VM
    /// after VM from `rng`.
    ///
    /// Cells are not stored: the trace keeps, per VM, the `rng` state
    /// where that VM's draws start and makes cells on demand from it.
    /// Finding those points consumes exactly the words making every
    /// cell would, so `rng` ends where a cell-by-cell generation leaves
    /// it.
    ///
    /// # Panics
    ///
    /// If `rounds` is 0, as [`MaterializedTrace::zeroed`].
    pub fn generate(&self, n_vms: usize, rounds: usize, rng: &mut ChaCha8Rng) -> MaterializedTrace {
        let model = Model::new(self.cfg);
        let starts = (0..n_vms)
            .map(|_| {
                let start = rng.export_state();
                let mut vm = VmGen::new(&model, rng);
                for _ in 0..rounds {
                    vm.skip(&model, rng);
                }
                start
            })
            .collect();
        MaterializedTrace::generated(model, starts, rounds)
    }
}

/// The generator configuration with its diurnal wave tabulated: what
/// every VM of one [`GoogleLikeTraceGen::generate`] call shares.
#[derive(Debug, Clone)]
pub(crate) struct Model {
    cfg: GoogleTraceConfig,
    /// The diurnal wave at each position of the day.
    waves: Vec<f64>,
    /// A burst's utilization.
    burst_high: Resources,
    /// The geometric parameter of burst lengths.
    burst_p: f64,
}

impl Model {
    pub(crate) fn new(cfg: GoogleTraceConfig) -> Self {
        let day = cfg.rounds_per_day;
        let waves = (0..day)
            .map(|pos| {
                cfg.diurnal_amplitude * (std::f64::consts::TAU * pos as f64 / day as f64).sin()
            })
            .collect();
        Model {
            cfg,
            waves,
            burst_high: Resources::new(cfg.burst_boost, 0.25 * cfg.burst_boost).clamp(0.0, 1.0),
            burst_p: 1.0 / cfg.mean_burst_len.max(1.0),
        }
    }
}

/// One VM's generator: the parameters it draws first, then its AR(1)
/// and burst states. [`VmGen::next`] makes the next cell;
/// [`VmGen::skip`] consumes exactly the same random words without the
/// float math, so a replay point can be found cheaply and replayed
/// later to the same bits.
#[derive(Debug, Clone)]
pub(crate) struct VmGen {
    mean: Resources,
    diurnal_phase: Option<u64>,
    bursty: bool,
    /// The AR(1) state.
    state: Resources,
    /// Rounds left in the current burst.
    remaining_burst: u64,
    /// The round of the next cell.
    round: u64,
}

impl VmGen {
    /// Draws the VM's hidden parameters: the first draws of its segment
    /// of the trace stream.
    pub(crate) fn new<R: Rng + ?Sized>(model: &Model, rng: &mut R) -> Self {
        let c = &model.cfg;
        let cpu_mean =
            c.cpu_floor + kumaraswamy(rng, c.cpu_mean_a, c.cpu_mean_b) * (c.cpu_ceil - c.cpu_floor);
        let mem_mean =
            c.mem_floor + kumaraswamy(rng, c.mem_mean_a, c.mem_mean_b) * (c.mem_ceil - c.mem_floor);
        let diurnal_phase = if rng.gen::<f64>() < c.diurnal_fraction {
            // Pick a phase cluster, then jitter within ±5% of the day.
            // The first cluster is dominant (half the diurnal VMs): data
            // centers have one primary day/night cycle, and it is this
            // shared peak that makes aggregate demand swing.
            let clusters = c.phase_clusters.max(1) as u64;
            let cluster = if rng.gen::<f64>() < 0.5 {
                0
            } else {
                rng.gen_range(0..clusters)
            };
            let base = cluster * c.rounds_per_day / clusters;
            let jitter = rng.gen_range(0..=(c.rounds_per_day / 20).max(1));
            Some((base + jitter) % c.rounds_per_day)
        } else {
            None
        };
        let bursty = rng.gen::<f64>() < c.bursty_fraction;
        let mean = Resources::new(cpu_mean, mem_mean);
        VmGen {
            mean,
            diurnal_phase,
            bursty,
            state: mean,
            remaining_burst: 0,
            round: 0,
        }
    }

    /// The VM's next cell: AR(1) step, diurnal wave, burst, measurement
    /// noise.
    pub(crate) fn next<R: Rng + ?Sized>(&mut self, model: &Model, rng: &mut R) -> Resources {
        let c = &model.cfg;
        self.state = mean_reverting_step(self.mean, c.phi, c.sigma, self.state, rng);
        let mut u = self.state;
        if let Some(phase) = self.diurnal_phase {
            let wave = model.waves[((self.round + phase) % c.rounds_per_day) as usize];
            u = Resources::new(u.cpu() + wave, u.mem() + 0.3 * wave);
        }
        if self.bursty {
            let bursting = burst_step(&mut self.remaining_burst, c.burst_prob, model.burst_p, rng);
            u += if bursting {
                model.burst_high
            } else {
                Resources::ZERO
            };
        }
        // A final touch of measurement noise.
        let e = standard_normal(rng) * 0.01;
        self.round += 1;
        Resources::new(u.cpu() + e, u.mem() + 0.5 * e).clamp(0.0, 1.0)
    }

    /// Consumes the words of one [`VmGen::next`], keeping only the burst
    /// state, the one thing that steers later draws. Always inlined into
    /// [`GoogleLikeTraceGen::generate`]'s loop.
    #[inline(always)]
    pub(crate) fn skip<R: Rng + ?Sized>(&mut self, model: &Model, rng: &mut R) {
        skip_standard_normal(rng);
        skip_standard_normal(rng);
        if self.bursty {
            burst_step(
                &mut self.remaining_burst,
                model.cfg.burst_prob,
                model.burst_p,
                rng,
            );
        }
        skip_standard_normal(rng);
        self.round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn generate(n_vms: usize, rounds: usize, seed: u64) -> MaterializedTrace {
        let gen = GoogleLikeTraceGen::default_stats();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        gen.generate(n_vms, rounds, &mut rng)
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn a_generated_trace_needs_a_round() {
        generate(3, 0, 1);
    }

    #[test]
    fn trace_dimensions_match_request() {
        let t = generate(10, 100, 1);
        assert_eq!(t.n_vms(), 10);
        assert_eq!(t.rounds(), 100);
    }

    #[test]
    fn all_values_in_unit_interval() {
        let t = generate(20, 200, 2);
        for vm in 0..20 {
            for r in t.series(vm) {
                assert!(r.cpu() >= 0.0 && r.cpu() <= 1.0);
                assert!(r.mem() >= 0.0 && r.mem() <= 1.0);
            }
        }
    }

    #[test]
    fn cpu_mean_is_low_like_google_traces() {
        let t = generate(300, 400, 3);
        let mean = t.mean_cpu();
        // Kumaraswamy(2,5) mean ≈ 0.345 scaled into [0.05, 0.95] ≈ 0.36;
        // bursts push it up slightly.
        assert!(mean > 0.2 && mean < 0.5, "CPU mean {mean}");
    }

    #[test]
    fn mem_mean_sits_in_configured_band() {
        let t = generate(300, 400, 4);
        let m = t.mean_mem();
        // Kumaraswamy(4,3) mean ≈ 0.57 scaled into [0.10, 0.60] ≈ 0.38.
        assert!(m > 0.25 && m < 0.5, "mem mean {m}");
    }

    #[test]
    fn series_are_strongly_autocorrelated() {
        let t = generate(50, 500, 5);
        let mean_rho: f64 = (0..50).map(|vm| t.cpu_lag1_autocorr(vm)).sum::<f64>() / 50.0;
        assert!(mean_rho > 0.5, "mean lag-1 autocorrelation {mean_rho}");
    }

    #[test]
    fn memory_is_steadier_than_cpu() {
        let t = generate(100, 400, 6);
        let var = |sel: fn(&Resources) -> f64| -> f64 {
            let mut total = 0.0;
            for vm in 0..100 {
                let s: Vec<Resources> = t.series(vm).collect();
                let m = s.iter().map(&sel).sum::<f64>() / s.len() as f64;
                total += s.iter().map(|r| (sel(r) - m).powi(2)).sum::<f64>() / s.len() as f64;
            }
            total / 100.0
        };
        let cpu_var = var(|r| r.cpu());
        let mem_var = var(|r| r.mem());
        assert!(mem_var < cpu_var, "mem var {mem_var} vs cpu var {cpu_var}");
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let a = generate(5, 50, 9);
        let b = generate(5, 50, 9);
        assert_eq!(a, b);
        let c = generate(5, 50, 10);
        assert_ne!(a, c);
    }

    /// CRC32 of every cell's `cpu` and `mem` bits, VM-major.
    fn trace_crc(cfg: GoogleTraceConfig, n_vms: usize, rounds: usize) -> u32 {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        rng.set_stream(2);
        let t = GoogleLikeTraceGen::new(cfg).generate(n_vms, rounds, &mut rng);
        let bytes: Vec<u8> = (0..n_vms)
            .flat_map(|vm| t.series(vm))
            .flat_map(|r| {
                r.cpu()
                    .to_le_bytes()
                    .into_iter()
                    .chain(r.mem().to_le_bytes())
            })
            .collect();
        glap_snapshot::crc32(&bytes)
    }

    #[test]
    fn generated_bytes_are_pinned() {
        let short_day = GoogleTraceConfig {
            rounds_per_day: 100,
            ..GoogleTraceConfig::default()
        };
        let a = trace_crc(GoogleTraceConfig::default(), 300, 800);
        let b = trace_crc(short_day, 120, 750);
        assert_eq!(a, 0x25ce_158a);
        assert_eq!(b, 0x7aab_37b4);
    }

    #[test]
    fn vms_are_heterogeneous() {
        let t = generate(50, 200, 11);
        let means: Vec<f64> = (0..50)
            .map(|vm| t.series(vm).map(|r| r.cpu()).sum::<f64>() / 200.0)
            .collect();
        let lo = means.iter().cloned().fold(f64::MAX, f64::min);
        let hi = means.iter().cloned().fold(f64::MIN, f64::max);
        assert!(hi - lo > 0.15, "per-VM mean spread {lo}..{hi} too narrow");
    }
}

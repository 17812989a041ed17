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

use crate::dist::{kumaraswamy, standard_normal};
use crate::patterns::{burst_step, mean_reverting_step};
use crate::trace::{assert_rounds, MaterializedTrace};
use glap_cluster::Resources;
use rand::{Rng, RngCore};
use rand_chacha::{ChaCha8Rng, ChaCha8Window, WINDOW_WORDS};

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
    /// Each VM draws its parameters through a [`ChaCha8Rng`], then scans
    /// its rounds through one [`ChaCha8Window`] shared by all VMs,
    /// reading exactly the words making every cell would, so `rng` ends
    /// where a cell-by-cell generation leaves it.
    ///
    /// # Panics
    ///
    /// If `rounds` is 0, as [`MaterializedTrace::zeroed`].
    pub fn generate(&self, n_vms: usize, rounds: usize, rng: &mut ChaCha8Rng) -> MaterializedTrace {
        assert_rounds(rounds);
        let model = Model::new(self.cfg);
        let mut window = ChaCha8Window::new(rng);
        let mut next = rng.export_state();
        let starts = (0..n_vms)
            .map(|_| {
                let start = next;
                let mut draws = ChaCha8Rng::from_state(start);
                let mut vm = VmGen::new(&model, &mut draws);
                let mut pos = draws.get_word_pos();
                vm.scan(&model, rounds, &mut window, &mut pos);
                next = window.state_at(pos);
                start
            })
            .collect();
        *rng = ChaCha8Rng::from_state(next);
        MaterializedTrace::generated(model, starts, rounds)
    }
}

/// The words [`VmGen::scan`] reads: a window of [`WINDOW_WORDS`]
/// consecutive words of one stream, starting at a 16-word block and
/// moved on demand. [`ChaCha8Window`] is the real one; tests inject
/// words.
pub(crate) trait Keystream {
    /// Makes the window start at the 16-word block holding word `pos`.
    fn seek(&mut self, pos: u128);
    /// Where word `pos` lies in the window, if it is held.
    fn offset(&self, pos: u128) -> Option<usize>;
    /// Word `i` of the window: the word whose `offset` is `i`.
    fn at(&self, i: usize) -> u32;
    /// Whether any word the window holds is zero.
    fn has_zero(&self) -> bool;
}

impl Keystream for ChaCha8Window {
    fn seek(&mut self, pos: u128) {
        ChaCha8Window::seek(self, pos)
    }
    #[inline]
    fn offset(&self, pos: u128) -> Option<usize> {
        ChaCha8Window::offset(self, pos)
    }
    #[inline]
    fn at(&self, i: usize) -> u32 {
        ChaCha8Window::at(self, i)
    }
    #[inline]
    fn has_zero(&self) -> bool {
        ChaCha8Window::has_zero(self)
    }
}

/// A [`Keystream`] read word by word from `pos`, moving the window when
/// it runs out: how [`VmGen::next`] draws during a scan.
struct Cursor<'a, K> {
    keystream: &'a mut K,
    pos: u128,
}

impl<K: Keystream> RngCore for Cursor<'_, K> {
    fn next_u32(&mut self) -> u32 {
        if self.keystream.offset(self.pos).is_none() {
            self.keystream.seek(self.pos);
        }
        let i = self
            .keystream
            .offset(self.pos)
            .expect("the window was moved to the word");
        self.pos += 1;
        self.keystream.at(i)
    }

    fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        (u64::from(self.next_u32()) << 32) | lo
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
    /// A burst word `w` starts a burst iff `w >> 11 < burst_below`: the
    /// `gen::<f64>() < burst_prob` test of [`burst_step`] without the
    /// float, since `gen` maps `w` to `(w >> 11) · 2⁻⁵³` exactly.
    burst_below: u64,
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
            // `k · 2⁻⁵³ < p` iff `k < ⌈p · 2⁵³⌉` for an integer `k`; the
            // cast saturates a negative or NaN `p` to 0 (no burst ever
            // starts) and a `p` above 1 to a bound above every `k`.
            burst_below: (cfg.burst_prob * (1u64 << 53) as f64).ceil() as u64,
        }
    }
}

/// One VM's generator: the parameters it draws first, then its AR(1)
/// and burst states. [`VmGen::next`] makes the next cell;
/// [`VmGen::scan`] passes over the same random words without the float
/// math, so a replay point can be found cheaply and replayed later to
/// the same bits.
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

    /// Passes over `rounds` cells without making them: moves `pos` past
    /// exactly the words `rounds` calls of [`VmGen::next`] read from it,
    /// keeping the round and the burst state (the one thing that steers
    /// later draws) as those calls would; the AR(1) state, which steers
    /// no draw, is not kept.
    ///
    /// A round draws three normals of four words (`u1`'s low and high
    /// word, then `u2`'s), and a bursty VM outside a burst draws its
    /// burst word before the third. `u1` is redrawn iff `u1 >> 11 == 0`,
    /// which needs a zero high word, so a round whose `u1` high words are
    /// not zero reads 12 words, or 14 with a burst word. A plain VM reads
    /// only those high words, and none at all in a window holding no
    /// zero word: it passes every round that fits in O(1). A bursty VM
    /// reads its burst word each round. A round with a zero `u1` high
    /// word, or a burst start (which draws one more word for the burst's
    /// length), is made by [`VmGen::next`], word by word.
    pub(crate) fn scan<K: Keystream>(
        &mut self,
        model: &Model,
        rounds: usize,
        keystream: &mut K,
        pos: &mut u128,
    ) {
        let mut left = rounds as u64;
        while left > 0 {
            let Some(start) = keystream.offset(*pos) else {
                keystream.seek(*pos);
                continue;
            };
            let has_zero = keystream.has_zero();
            // Whether no `u1` high word of the round at window word `i`
            // is zero.
            let clean = |i: usize, highs: [usize; 3]| {
                !has_zero || highs.iter().all(|&h| keystream.at(i + h) != 0)
            };
            let mut i = start;
            let mut care = false;
            if !self.bursty && !has_zero {
                let passed = left.min(((WINDOW_WORDS - i) / 12) as u64);
                i += 12 * passed as usize;
                self.round += passed;
                left -= passed;
            } else {
                while left > 0 {
                    let burst_word = self.bursty && self.remaining_burst == 0;
                    let words = if burst_word { 14 } else { 12 };
                    if i + words > WINDOW_WORDS {
                        break;
                    }
                    let pass = if burst_word {
                        let w =
                            (u64::from(keystream.at(i + 9)) << 32) | u64::from(keystream.at(i + 8));
                        w >> 11 >= model.burst_below && clean(i, [1, 5, 11])
                    } else {
                        clean(i, [1, 5, 9])
                    };
                    if !pass {
                        care = true;
                        break;
                    }
                    if self.bursty && !burst_word {
                        self.remaining_burst -= 1;
                    }
                    i += words;
                    self.round += 1;
                    left -= 1;
                }
            }
            *pos += (i - start) as u128;
            if care {
                let mut cursor = Cursor {
                    keystream,
                    pos: *pos,
                };
                self.next(model, &mut cursor);
                *pos = cursor.pos;
                left -= 1;
            } else if left > 0 {
                // The next round runs past the window.
                keystream.seek(*pos);
            }
        }
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

    /// Scans over injected words, as a [`ChaCha8Window`] would hold
    /// them: the window `start .. start + WINDOW_WORDS` of `words`,
    /// moved to the 16-word block of the position sought.
    struct Injected {
        words: Vec<u32>,
        start: usize,
    }

    impl Keystream for Injected {
        fn seek(&mut self, pos: u128) {
            self.start = pos as usize / 16 * 16;
        }
        fn offset(&self, pos: u128) -> Option<usize> {
            (pos as usize)
                .checked_sub(self.start)
                .filter(|&i| i < WINDOW_WORDS)
        }
        fn at(&self, i: usize) -> u32 {
            assert!(i < WINDOW_WORDS, "word {i} is past the window");
            self.words[self.start + i]
        }
        fn has_zero(&self) -> bool {
            self.words[self.start..self.start + WINDOW_WORDS].contains(&0)
        }
    }

    /// `words` read one at a time from `pos`: what [`VmGen::next`]
    /// draws from in the reference.
    struct Drawn<'a> {
        words: &'a [u32],
        pos: usize,
    }

    impl RngCore for Drawn<'_> {
        fn next_u32(&mut self) -> u32 {
            self.pos += 1;
            self.words[self.pos - 1]
        }
        fn next_u64(&mut self) -> u64 {
            let lo = u64::from(self.next_u32());
            (u64::from(self.next_u32()) << 32) | lo
        }
    }

    /// Words with no zero and every high word at or above 2³¹, so no
    /// `u1` is redrawn and no burst starts unless a test says so.
    fn filler(n: usize) -> Vec<u32> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5CA7);
        (0..n).map(|_| rng.next_u32() | 1 << 31).collect()
    }

    /// A VM at round 0 outside any burst.
    fn vm(bursty: bool) -> VmGen {
        let mean = Resources::new(0.3, 0.2);
        VmGen {
            mean,
            diurnal_phase: Some(5),
            bursty,
            state: mean,
            remaining_burst: 0,
            round: 0,
        }
    }

    /// Scans `rounds` rounds of `vm` over `words` from `p0` and checks
    /// that the scan reads exactly the words `rounds` calls of
    /// [`VmGen::next`] draw, leaving the same round and burst state.
    /// Returns the reference: how many words it drew, and the VM.
    fn scan_matches_next(vm: &VmGen, words: &[u32], p0: usize, rounds: usize) -> (usize, VmGen) {
        let model = Model::new(GoogleTraceConfig::default());
        let mut reference = vm.clone();
        let mut drawn = Drawn { words, pos: p0 };
        for _ in 0..rounds {
            reference.next(&model, &mut drawn);
        }
        let mut scanned = vm.clone();
        let mut keystream = Injected {
            words: words.to_vec(),
            start: 0,
        };
        let mut pos = p0 as u128;
        scanned.scan(&model, rounds, &mut keystream, &mut pos);
        assert_eq!(pos, drawn.pos as u128, "words read from {p0}");
        assert_eq!(scanned.round, reference.round);
        assert_eq!(scanned.remaining_burst, reference.remaining_burst);
        (drawn.pos - p0, reference)
    }

    /// A `u1` whose high word is 0 and low word below 2¹¹ is redrawn:
    /// the round reads two more words.
    #[test]
    fn a_rejected_u1_costs_the_scan_two_words() {
        for bursty in [false, true] {
            let mut words = filler(2_000);
            // Round 3's second normal, from word 5 on; a bursty VM
            // outside a burst reads 14 words a round.
            let u1 = 5 + 3 * if bursty { 14 } else { 12 } + 4;
            words[u1] = (1 << 11) - 1;
            words[u1 + 1] = 0;
            let (read, _) = scan_matches_next(&vm(bursty), &words, 5, 40);
            assert_eq!(read, 40 * 12 + 2 + if bursty { 2 * 40 } else { 0 });
        }
    }

    /// A `u1` whose high word is 0 but low word is at least 2¹¹ stands:
    /// the round takes the word-by-word path and reads its usual words.
    #[test]
    fn a_zero_high_word_alone_does_not_reject() {
        for bursty in [false, true] {
            let mut words = filler(2_000);
            let u1 = 5 + 3 * if bursty { 14 } else { 12 } + 4;
            words[u1] = 1 << 11;
            words[u1 + 1] = 0;
            let (read, _) = scan_matches_next(&vm(bursty), &words, 5, 40);
            assert_eq!(read, 40 * 12 + if bursty { 2 * 40 } else { 0 });
        }
    }

    /// Both kinds of zero `u1` at a window's last words. From word 2 a
    /// plain VM's round 21 starts at word 254, so its first `u1` takes
    /// the window's last two words and the round is read in the next
    /// window. From word 4, round 20 ends at the window's last word, and
    /// its third `u1` sits at words 252 and 253.
    #[test]
    fn a_zero_u1_at_the_end_of_a_window() {
        for (p0, u1) in [(2, 254), (4, 252)] {
            for (low, redrawn) in [((1 << 11) - 1, 2), (1 << 11, 0)] {
                let mut words = filler(2_000);
                words[u1] = low;
                words[u1 + 1] = 0;
                let (read, _) = scan_matches_next(&vm(false), &words, p0, 40);
                assert_eq!(read, 40 * 12 + redrawn, "from {p0}, low word {low:#x}");
            }
        }
    }

    /// A burst that starts on the last round a window holds. From word 0
    /// a bursty VM's round 17 (words 238–251) is the window's last; from
    /// word 4 round 17 ends at the window's last word, and the burst's
    /// length word lies past it.
    #[test]
    fn a_burst_starting_on_a_windows_last_round() {
        for p0 in [0, 4] {
            let mut words = filler(2_000);
            let round = p0 + 17 * 14;
            // The burst word's high word: far below the burst probability.
            words[round + 9] = 1;
            // The burst starts in round 17, which reads its length word.
            let (read, reference) = scan_matches_next(&vm(true), &words, p0, 18);
            assert_eq!(read, 17 * 14 + 16, "from {p0}");
            assert!(reference.remaining_burst > 0, "from {p0}");
            scan_matches_next(&vm(true), &words, p0, 40);
        }
    }

    /// Every case above at every word of a few windows: a zero high word
    /// (redrawn or not) or a burst word far below the burst probability
    /// at each position in turn, for a plain and a bursty VM, from three
    /// offsets into a block.
    #[test]
    fn every_injected_word_is_read_as_next_reads_it() {
        let clean = filler(1_200);
        for p0 in [0, 5, 11] {
            for q in p0 + 1..p0 + 760 {
                for (low, high) in [((1 << 11) - 1, 0), (1 << 11, 0), (clean[q - 1], 1)] {
                    let mut words = clean.clone();
                    words[q - 1] = low;
                    words[q] = high;
                    for bursty in [false, true] {
                        scan_matches_next(&vm(bursty), &words, p0, 50);
                    }
                }
            }
        }
    }

    /// Prints ms per [`GoogleLikeTraceGen::generate`] (best of seven) at
    /// `day_pair`'s world (4 500 VMs × 725 rounds) and the fleets'
    /// (360 × 340). Meaningful in a release build: `cargo test --release
    /// -p glap-workload generate_timing -- --ignored --show-output`.
    #[test]
    #[ignore = "timing, not a check"]
    fn generate_timing() {
        let gen = GoogleLikeTraceGen::default_stats();
        for (n_vms, rounds) in [(4_500, 725), (360, 340)] {
            let ms = (0..7)
                .map(|seed| {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    let t = std::time::Instant::now();
                    std::hint::black_box(gen.generate(n_vms, rounds, &mut rng));
                    t.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::INFINITY, f64::min);
            println!("generate_timing: {n_vms} VMs x {rounds} rounds: {ms:.2} ms");
        }
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

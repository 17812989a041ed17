//! PABFD — the centralized consolidation of Beloglazov & Buyya (CCPE
//! 2012): "a centralized dynamic threshold based heuristic consolidation
//! algorithm in which a centralized server periodically monitors resources
//! usage of PMs and using global information makes consolidation
//! decisions" (GLAP §V-A). The dynamic upper threshold uses the Median
//! Absolute Deviation of each host's recent CPU history:
//!
//! ```text
//! T_u = 1 − s · MAD(history),   s = 2.5
//! ```
//!
//! Per round the controller (1) evicts VMs from hosts above their `T_u`
//! via the Minimum-Migration-Time policy until they drop below it,
//! (2) tentatively evacuates hosts below the static lower threshold, and
//! (3) re-places all evicted VMs with Power-Aware Best-Fit-Decreasing:
//! VMs sorted by CPU demand decreasing, each placed on the feasible active
//! host with the least power increase (ties → tightest fit), waking
//! sleeping hosts only when nothing fits.
//!
//! Beloglazov & Buyya compare several estimators of the dynamic threshold
//! — Median Absolute Deviation, Inter-Quartile Range and (robust) Local
//! Regression; the GLAP paper's §II recounts exactly that comparison. All
//! three are implemented ([`ThresholdMethod`]); the GLAP evaluation uses
//! MAD ("The Median Absolute Deviation (MAD) is used as an estimator of
//! upper threshold value"), which is the default here.

use glap_cluster::{DataCenter, PmId, Resources, VmId};
use glap_dcsim::{ConsolidationPolicy, NetworkModel, RoundCtx, SimRng};

/// How the dynamic upper threshold is estimated from the CPU history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThresholdMethod {
    /// `T_u = 1 − s · MAD(history)` — the estimator the GLAP evaluation
    /// configures (s = 2.5).
    #[default]
    Mad,
    /// `T_u = 1 − s · IQR(history)` with s = 1.5 (Beloglazov & Buyya's
    /// IQR variant).
    Iqr,
    /// Robust local regression: fit a trend line to the recent history
    /// and project one round ahead; `T_u = 1 − s · max(0, predicted
    /// growth)` — overload is anticipated when utilization trends upward.
    LocalRegression,
}

/// Configuration of the PABFD baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PabfdConfig {
    /// Dynamic-threshold estimator.
    pub method: ThresholdMethod,
    /// MAD safety multiplier `s` (Beloglazov & Buyya use 2.5).
    pub mad_scale: f64,
    /// Static fallback upper threshold while history is short.
    pub fallback_upper: f64,
    /// Static lower threshold for evacuation.
    pub lower: f64,
    /// CPU-history window length in rounds.
    pub history: usize,
    /// Upper threshold floor (prevents degenerate `T_u ≤ lower`).
    pub upper_floor: f64,
}

impl Default for PabfdConfig {
    fn default() -> Self {
        PabfdConfig {
            method: ThresholdMethod::default(),
            mad_scale: 2.5,
            fallback_upper: 0.8,
            lower: 0.3,
            history: 30,
            upper_floor: 0.4,
        }
    }
}

/// The PABFD centralized policy.
#[derive(Debug, Clone)]
pub struct PabfdPolicy {
    cfg: PabfdConfig,
    /// Ring buffers of per-host CPU utilization history.
    history: Vec<Vec<f64>>,
}

/// Median of a slice (copied and sorted internally).
fn median(xs: &[f64]) -> f64 {
    debug_assert!(!xs.is_empty());
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median absolute deviation.
fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// Inter-quartile range (linear-interpolated quartiles).
fn iqr(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let q = |p: f64| -> f64 {
        let pos = p * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            v[lo]
        } else {
            v[lo] * (hi as f64 - pos) + v[hi] * (pos - lo as f64)
        }
    };
    q(0.75) - q(0.25)
}

/// Least-squares slope of the history (utilization per round); the local
/// regression estimator projects this trend forward.
fn trend_slope(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return 0.0;
    }
    let mean_t = (n - 1.0) / 2.0;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (t, &x) in xs.iter().enumerate() {
        let dt = t as f64 - mean_t;
        num += dt * (x - mean_x);
        den += dt * dt;
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl PabfdPolicy {
    /// Builds the policy.
    pub fn new(cfg: PabfdConfig) -> Self {
        PabfdPolicy {
            cfg,
            history: Vec::new(),
        }
    }

    /// The dynamic upper threshold of one host.
    fn upper_threshold(&self, pm: PmId) -> f64 {
        let h = &self.history[pm.index()];
        if h.len() < 10 {
            return self.cfg.fallback_upper;
        }
        let spread = match self.cfg.method {
            ThresholdMethod::Mad => self.cfg.mad_scale * mad(h),
            ThresholdMethod::Iqr => 1.5 * iqr(h),
            ThresholdMethod::LocalRegression => {
                // Project the trend over a migration-decision horizon of
                // ~10 rounds; only upward trends reduce the threshold.
                self.cfg.mad_scale * (trend_slope(h) * 10.0).max(0.0)
            }
        };
        (1.0 - spread).clamp(self.cfg.upper_floor, 1.0)
    }

    /// Power-aware best-fit-decreasing placement of `vms`. Returns VMs that
    /// could not be placed (after considering waking sleeping hosts).
    /// Hosts the central controller cannot reach (`net` says down) are
    /// invisible: neither placement candidates nor wake targets.
    fn place_all(
        &self,
        dc: &mut DataCenter,
        net: &NetworkModel,
        mut vms: Vec<VmId>,
        exclude: &[PmId],
    ) -> Vec<VmId> {
        // Sort by CPU demand decreasing (the "BFD" part).
        vms.sort_by(|&a, &b| {
            dc.vm(b)
                .current
                .cpu()
                .partial_cmp(&dc.vm(a).current.cpu())
                .expect("finite")
        });
        let mut unplaced = Vec::new();
        for vm in vms {
            let demand = dc.vm(vm).current;
            let src = dc.vm(vm).host;
            let mut best: Option<(PmId, f64, f64)> = None; // (pm, power_inc, free_after)
            for pm in dc.active_pm_ids().collect::<Vec<_>>() {
                if Some(pm) == src || exclude.contains(&pm) || !net.is_up(pm.0) {
                    continue;
                }
                let after = dc.pm(pm).demand() + demand;
                let t_u = self.upper_threshold(pm);
                if !after.fits_within(Resources::new(t_u, 1.0)) {
                    continue;
                }
                let u = dc.pm(pm).utilization().cpu();
                let power_inc =
                    dc.power_model().watts((u + demand.cpu()).min(1.0)) - dc.power_model().watts(u);
                let free_after = (Resources::FULL - after).total();
                let better = match best {
                    None => true,
                    Some((_, bp, bf)) => {
                        power_inc < bp - 1e-12
                            || ((power_inc - bp).abs() <= 1e-12 && free_after < bf)
                    }
                };
                if better {
                    best = Some((pm, power_inc, free_after));
                }
            }
            match best {
                Some((pm, _, _)) => {
                    dc.migrate(vm, pm).expect("chosen host is active");
                }
                None => {
                    // Wake a sleeping (and reachable) host if any.
                    let sleeping = dc
                        .pms()
                        .find(|p| !p.is_active() && net.is_up(p.id().0))
                        .map(|p| p.id());
                    if let Some(pm) = sleeping {
                        dc.wake(pm);
                        dc.migrate(vm, pm).expect("woken host is active");
                    } else {
                        unplaced.push(vm);
                    }
                }
            }
        }
        unplaced
    }
}

impl ConsolidationPolicy for PabfdPolicy {
    fn name(&self) -> &'static str {
        "pabfd"
    }

    fn init(&mut self, dc: &mut DataCenter, _rng: &mut SimRng) {
        self.history = vec![Vec::with_capacity(self.cfg.history); dc.n_pms()];
    }

    fn round(&mut self, ctx: &mut RoundCtx<'_>) {
        let dc = &mut *ctx.dc;
        let net = &*ctx.net;
        // 1. Record CPU history of active hosts (the central monitor;
        //    unreachable hosts report nothing this round).
        for pm in dc.pms() {
            if pm.is_active() && net.is_up(pm.id().0) {
                let h = &mut self.history[pm.id().index()];
                if h.len() == self.cfg.history {
                    h.remove(0);
                }
                h.push(pm.utilization().cpu());
            }
        }

        // 2. Over-threshold hosts: evict by Minimum Migration Time (least
        //    memory) until below the dynamic threshold.
        let mut to_place: Vec<VmId> = Vec::new();
        for pm in dc.active_pm_ids().collect::<Vec<_>>() {
            if !net.is_up(pm.0) {
                continue; // the controller cannot command a crashed host
            }
            let t_u = self.upper_threshold(pm);
            let mut projected = dc.pm(pm).demand().cpu();
            if projected <= t_u {
                continue;
            }
            let mut vms: Vec<VmId> = dc.pm(pm).vms().to_vec();
            // MMT: smallest memory footprint first (fastest migration).
            vms.sort_by(|&a, &b| {
                dc.vm(a)
                    .mem_demand_mb()
                    .partial_cmp(&dc.vm(b).mem_demand_mb())
                    .expect("finite")
            });
            for vm in vms {
                if projected <= t_u {
                    break;
                }
                projected -= dc.vm(vm).current.cpu();
                to_place.push(vm);
            }
        }
        let unplaced = self.place_all(dc, net, to_place, &[]);
        debug_assert!(unplaced.iter().all(|vm| dc.vm(*vm).host.is_some()));

        // 3. Under-utilized hosts: try to evacuate entirely. Hosts are
        //    processed least-loaded first; their VMs may not land on other
        //    evacuation sources.
        let mut under: Vec<PmId> = dc
            .active_pm_ids()
            .filter(|&pm| {
                net.is_up(pm.0)
                    && !dc.pm(pm).is_empty()
                    && dc.pm(pm).utilization().cpu() < self.cfg.lower
            })
            .collect();
        under.sort_by(|&a, &b| {
            dc.pm(a)
                .utilization()
                .cpu()
                .partial_cmp(&dc.pm(b).utilization().cpu())
                .expect("finite")
        });
        for pm in under.clone() {
            let vms: Vec<VmId> = dc.pm(pm).vms().to_vec();
            let failed = self.place_all(dc, net, vms, &under);
            // If anything failed, those VMs stayed put (place_all does not
            // move what it cannot place) and the host stays on.
            let _ = failed;
            dc.sleep_if_empty(pm);
        }

        // 4. Switch off emptied (and reachable) hosts.
        let empties: Vec<PmId> = dc
            .pms()
            .filter(|p| p.is_active() && p.is_empty() && net.is_up(p.id().0))
            .map(|p| p.id())
            .collect();
        for pm in empties {
            dc.sleep_if_empty(pm);
        }
    }

    /// PABFD's only mutable state is the per-host CPU history the dynamic
    /// thresholds are estimated from; sample order matters (local
    /// regression fits a trend line), so the windows are saved verbatim.
    fn save_state(&self, w: &mut glap_snapshot::Writer) {
        w.put_usize(self.history.len());
        for h in &self.history {
            w.put_f64_slice(h);
        }
    }

    /// Restores into a freshly built policy (same `PabfdConfig`),
    /// replacing [`ConsolidationPolicy::init`] on resume.
    fn restore_state(
        &mut self,
        r: &mut glap_snapshot::Reader<'_>,
    ) -> Result<(), glap_snapshot::SnapshotError> {
        let n = r.get_len()?;
        let mut history = Vec::with_capacity(n);
        for _ in 0..n {
            let h = r.get_f64_slice()?;
            if h.len() > self.cfg.history {
                return Err(glap_snapshot::SnapshotError::Corrupt(format!(
                    "history window of {} samples exceeds the configured {}",
                    h.len(),
                    self.cfg.history
                )));
            }
            history.push(h);
        }
        self.history = history;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glap_cluster::{DataCenterConfig, VmSpec};
    use glap_dcsim::{run_simulation, stream_rng, Stream};

    fn setup(n_pms: usize, ratio: usize, seed: u64) -> DataCenter {
        let mut dc = DataCenter::new(DataCenterConfig::paper(n_pms));
        for _ in 0..n_pms * ratio {
            dc.add_vm(VmSpec::EC2_MICRO);
        }
        dc.random_placement(&mut stream_rng(seed, Stream::Placement));
        dc
    }

    #[test]
    fn median_and_mad_are_correct() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // MAD of [1,2,3,4,100]: median 3, deviations [2,1,0,1,97] → 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
    }

    #[test]
    fn iqr_matches_hand_computation() {
        // [1..8]: Q1 = 2.75, Q3 = 6.25 → IQR = 3.5
        let xs: Vec<f64> = (1..=8).map(f64::from).collect();
        assert!((iqr(&xs) - 3.5).abs() < 1e-9);
        assert_eq!(iqr(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn trend_slope_detects_growth() {
        let rising: Vec<f64> = (0..20).map(|i| 0.3 + 0.01 * i as f64).collect();
        assert!((trend_slope(&rising) - 0.01).abs() < 1e-9);
        let flat = vec![0.5; 20];
        assert_eq!(trend_slope(&flat), 0.0);
        let falling: Vec<f64> = (0..20).map(|i| 0.8 - 0.01 * i as f64).collect();
        assert!(trend_slope(&falling) < 0.0);
    }

    #[test]
    fn estimators_rank_thresholds_sensibly() {
        let noisy: Vec<f64> = (0..30)
            .map(|i| if i % 2 == 0 { 0.2 } else { 0.8 })
            .collect();
        let rising: Vec<f64> = (0..30).map(|i| 0.2 + 0.02 * i as f64).collect();
        let build = |method: ThresholdMethod, hist: &[f64]| {
            let mut p = PabfdPolicy::new(PabfdConfig {
                method,
                ..PabfdConfig::default()
            });
            p.history = vec![hist.to_vec()];
            p.upper_threshold(PmId(0))
        };
        // Noisy history → MAD and IQR both cut the threshold hard.
        assert!(build(ThresholdMethod::Mad, &noisy) < 0.5);
        assert!(build(ThresholdMethod::Iqr, &noisy) < 0.5);
        // Local regression ignores symmetric noise (no trend)…
        assert!(build(ThresholdMethod::LocalRegression, &noisy) > 0.9);
        // …but reacts to a rising trend.
        assert!(build(ThresholdMethod::LocalRegression, &rising) < 0.9);
    }

    #[test]
    fn threshold_uses_fallback_with_short_history() {
        let mut p = PabfdPolicy::new(PabfdConfig::default());
        p.history = vec![vec![0.5; 3]];
        assert_eq!(p.upper_threshold(PmId(0)), 0.8);
    }

    #[test]
    fn stable_history_gives_high_threshold_noisy_gives_low() {
        let mut p = PabfdPolicy::new(PabfdConfig::default());
        let stable: Vec<f64> = (0..30).map(|_| 0.5).collect();
        let noisy: Vec<f64> = (0..30)
            .map(|i| if i % 2 == 0 { 0.2 } else { 0.8 })
            .collect();
        p.history = vec![stable, noisy];
        let t_stable = p.upper_threshold(PmId(0));
        let t_noisy = p.upper_threshold(PmId(1));
        assert!(t_stable > t_noisy, "{t_stable} vs {t_noisy}");
        assert!((t_stable - 1.0).abs() < 1e-9); // zero MAD → 1.0
    }

    #[test]
    fn consolidates_under_light_load() {
        let mut dc = setup(20, 2, 1);
        let mut trace = |_: VmId, _: u64| Resources::splat(0.3);
        let mut policy = PabfdPolicy::new(PabfdConfig::default());
        run_simulation(&mut dc, &mut trace, &mut policy, &mut [], 40, 1);
        assert!(dc.active_pm_count() < 20);
        dc.check_invariants().unwrap();
    }

    #[test]
    fn relieves_overload_via_replacement() {
        let mut dc = setup(6, 6, 2);
        let mut trace = |_: VmId, r: u64| {
            if r == 0 {
                Resources::splat(1.0)
            } else {
                Resources::splat(0.15)
            }
        };
        let mut policy = PabfdPolicy::new(PabfdConfig::default());
        run_simulation(&mut dc, &mut trace, &mut policy, &mut [], 10, 2);
        assert_eq!(dc.overloaded_pm_count(), 0);
    }

    #[test]
    fn migrates_continuously_unlike_gossip_protocols() {
        // The paper observes PABFD's cumulative migrations grow almost
        // linearly; at minimum it must keep migrating after the initial
        // consolidation settles.
        let mut dc = setup(12, 3, 3);
        let mut trace = |vm: VmId, r: u64| {
            let x = 0.35 + 0.3 * ((r as f64 / 6.0) + f64::from(vm.0)).sin();
            Resources::splat(x.clamp(0.05, 0.95))
        };
        let mut policy = PabfdPolicy::new(PabfdConfig::default());
        struct Tail(u64);
        impl glap_dcsim::Observer for Tail {
            fn on_round_end(&mut self, round: u64, dc: &mut DataCenter) {
                if round >= 30 {
                    self.0 += dc.take_migrations().len() as u64;
                }
            }
        }
        let mut tail = Tail(0);
        run_simulation(&mut dc, &mut trace, &mut policy, &mut [&mut tail], 60, 3);
        assert!(tail.0 > 0, "PABFD stopped migrating after warm-up");
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let mut dc = setup(10, 3, 5);
            let mut trace =
                |vm: VmId, r: u64| Resources::splat(0.2 + 0.05 * ((vm.0 + r as u32) % 4) as f64);
            let mut policy = PabfdPolicy::new(PabfdConfig::default());
            run_simulation(&mut dc, &mut trace, &mut policy, &mut [], 20, 5);
            (dc.active_pm_count(), dc.total_migrations())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn checkpoint_round_trips_history_and_rejects_oversized_windows() {
        use glap_snapshot::{Reader, SnapshotError, Writer};
        let mut dc = setup(10, 3, 5);
        let mut trace =
            |vm: VmId, r: u64| Resources::splat(0.2 + 0.05 * ((vm.0 + r as u32) % 4) as f64);
        let mut policy = PabfdPolicy::new(PabfdConfig::default());
        run_simulation(&mut dc, &mut trace, &mut policy, &mut [], 12, 5);

        let mut w = Writer::new();
        policy.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut twin = PabfdPolicy::new(PabfdConfig::default());
        twin.restore_state(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(policy.history, twin.history);
        let mut w2 = Writer::new();
        twin.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes());

        // A snapshot whose window exceeds the configured length is
        // rejected, not silently truncated.
        let mut small = PabfdPolicy::new(PabfdConfig {
            history: 5,
            ..PabfdConfig::default()
        });
        assert!(matches!(
            small.restore_state(&mut Reader::new(&bytes)),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    /// A history count larger than any allocation can hold is a snapshot
    /// error, not a capacity-overflow panic.
    #[test]
    fn restore_rejects_a_hostile_history_count() {
        use glap_snapshot::{Reader, SnapshotError, Writer};
        let mut w = Writer::new();
        w.put_usize(isize::MAX as usize / std::mem::size_of::<Vec<f64>>() + 1);
        let mut policy = PabfdPolicy::new(PabfdConfig::default());
        assert!(matches!(
            policy.restore_state(&mut Reader::new(w.bytes())),
            Err(SnapshotError::Truncated)
        ));
    }
}

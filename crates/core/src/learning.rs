//! The learning phase (Algorithm 1).
//!
//! Each eligible PM — resource utilization at or below the threshold —
//! pulls the VM profiles of one overlay neighbour, merges them with its
//! own, optionally duplicates the list to cover highly loaded states, and
//! then *locally simulates* the consolidation process: it splits the
//! profiles into a simulated sender PM and a simulated target PM, migrates
//! a random VM between them and applies the Bellman update of Eq. (1) to
//! both the `out` and the `in` table.
//!
//! The state of a simulated PM **before** the action, and the action label
//! itself, are computed from the VMs' *average* demands, while the state
//! **after** the action uses *current* demands — exactly the scheme of
//! Figure 3, which is what lets the learned values anticipate load
//! variation rather than just its instantaneous snapshot.

use crate::config::GlapConfig;
use glap_cluster::{DataCenter, DcView, PmId, Resources, VmProfile};
use glap_qlearn::{PmState, TrainTarget, VmAction};
use rand::seq::SliceRandom;
use rand::Rng;

/// Sum of average demands of a profile set.
fn sum_avg(profiles: &[VmProfile], idxs: &[usize]) -> Resources {
    idxs.iter().map(|&i| profiles[i].avg_value()).sum()
}

/// Sum of current demands of a profile set.
fn sum_current(profiles: &[VmProfile], idxs: &[usize]) -> Resources {
    idxs.iter().map(|&i| profiles[i].current).sum()
}

/// A learner's reusable buffers: the profile list it trains on and the
/// shuffle indices, kept across rounds so the loop never re-allocates.
#[derive(Debug, Clone, Default)]
pub(crate) struct LearnScratch {
    pub(crate) profiles: Vec<VmProfile>,
    pub(crate) idxs: Vec<usize>,
}

/// Runs `iterations` simulated migration steps over `profiles`, updating
/// `tables` in place. This is the inner loop of Algorithm 1 (lines 7–13).
///
/// Generic over the [`TrainTarget`] storage — a boxed
/// [`QTablePair`](glap_qlearn::QTablePair) or an arena slot view — so
/// every learner monomorphizes the *same* loop and draws the *same* RNG
/// sequence. `idxs` is caller-owned scratch, refilled with `0..len`
/// before the first shuffle, so its previous contents never matter.
pub fn local_train_with<T: TrainTarget, R: Rng + ?Sized>(
    tables: &mut T,
    profiles: &[VmProfile],
    iterations: usize,
    rng: &mut R,
    idxs: &mut Vec<usize>,
) {
    if profiles.len() < 2 {
        return;
    }
    idxs.clear();
    idxs.extend(0..profiles.len());
    for _ in 0..iterations {
        // Split the profiles into a simulated sender and a simulated
        // target (disjoint random subsets; sender non-empty).
        idxs.shuffle(rng);
        let split = rng.gen_range(1..profiles.len());
        let (vmss, vmst) = idxs.split_at(split);

        // Pick the VM to migrate from the sender subset.
        let pick = rng.gen_range(0..vmss.len());
        let vm = vmss[pick];
        let action = VmAction::from_demand(profiles[vm].avg_value());

        // --- updateOUT: sender's perspective -------------------------
        // Before: average demands of the whole sender set.
        let s_before = PmState::from_utilization(sum_avg(profiles, vmss).clamp(0.0, 1.0));
        // After: current demands of the remaining VMs.
        let mut remaining = sum_current(profiles, vmss);
        remaining -= profiles[vm].current;
        let s_after = PmState::from_utilization(remaining.clamp(0.0, 1.0));
        tables.train_out(s_before, action, s_after);

        // --- updateIN: target's perspective ---------------------------
        let t_before = PmState::from_utilization(sum_avg(profiles, vmst).clamp(0.0, 1.0));
        let t_after_raw = sum_current(profiles, vmst) + profiles[vm].current;
        let t_after = PmState::from_utilization(t_after_raw.clamp(0.0, 1.0));
        tables.train_in(t_before, action, t_after);
    }
}

/// Assembles the profile list a PM trains on into a caller-owned buffer
/// (cleared first): its own VMs' profiles plus one neighbour's, repeated
/// `duplication` times (Algorithm 1 lines 4–6). Reads a shared
/// [`DcView`], so concurrent per-PM workers can all read the data center
/// while each fills its own scratch.
pub fn gather_profiles_into(
    dc: DcView<'_>,
    pm: PmId,
    neighbor: Option<PmId>,
    duplication: usize,
    profiles: &mut Vec<VmProfile>,
) {
    profiles.clear();
    for &vm in dc.pm(pm).vms() {
        profiles.push(dc.vm(vm).profile());
    }
    if let Some(nb) = neighbor {
        for &vm in dc.pm(nb).vms() {
            profiles.push(dc.vm(vm).profile());
        }
    }
    repeat_profiles(profiles, duplication);
}

/// Repeats the profile list `factor` times in place (Algorithm 1 line
/// 6), copying from within the buffer — no temporary list. A factor of
/// 0 or 1 leaves it as it is.
pub fn repeat_profiles(profiles: &mut Vec<VmProfile>, factor: usize) {
    let base = profiles.len();
    for _ in 1..factor {
        profiles.extend_from_within(..base);
    }
}

/// Duplication factor that lets random subsets of `profiles` reach
/// overload-level sums — Algorithm 1's "duplicate vms *if required*".
/// Without this, training on an already-consolidated cluster (where only
/// lightly loaded PMs are eligible) never visits high-load states and the
/// learned admission control turns dangerously optimistic.
pub fn required_duplication(profiles: &[VmProfile], minimum: usize) -> usize {
    let sum_cpu: f64 = profiles.iter().map(|p| p.avg_value().cpu()).sum();
    if sum_cpu <= 0.0 {
        return minimum.max(1);
    }
    // Total available CPU mass of ≈ 2.2 capacities lets sender+target
    // subsets individually cross 1.0.
    let needed = (2.2 / sum_cpu).ceil() as usize;
    needed.clamp(minimum.max(1), 16)
}

/// Whether a PM is eligible to run the learning phase this round
/// (Algorithm 1 line 3): active and with CPU utilization at or below the
/// threshold.
pub fn is_eligible(dc: &DataCenter, pm: PmId, cfg: &GlapConfig) -> bool {
    let p = dc.pm(pm);
    p.is_active() && p.utilization().cpu() <= cfg.learning_threshold
}

#[cfg(test)]
mod tests {
    use super::*;
    use glap_cluster::{DataCenterConfig, VmId, VmSpec};
    use glap_qlearn::{QParams, QTablePair};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn profile(cur: f64, avg: f64) -> VmProfile {
        VmProfile::from_fractions(Resources::splat(cur), Resources::splat(avg))
    }

    #[test]
    fn training_visits_states_and_actions() {
        let mut q = QTablePair::new(QParams::default());
        let profiles: Vec<VmProfile> = (0..8)
            .map(|i| profile(0.05 + 0.02 * i as f64, 0.06 + 0.02 * i as f64))
            .collect();
        let mut rng = SmallRng::seed_from_u64(3);
        local_train_with(&mut q, &profiles, 200, &mut rng, &mut Vec::new());
        assert!(q.out.visited_count() > 0);
        assert!(q.r#in.visited_count() > 0);
    }

    #[test]
    fn training_with_too_few_profiles_is_noop() {
        let mut q = QTablePair::new(QParams::default());
        let mut rng = SmallRng::seed_from_u64(3);
        local_train_with(&mut q, &[profile(0.5, 0.5)], 50, &mut rng, &mut Vec::new());
        assert_eq!(q.trained_pairs(), 0);
    }

    #[test]
    fn overloading_acceptances_learn_negative_values() {
        let mut q = QTablePair::new(QParams::default());
        // Heavy profiles: any subset of 3+ overloads a simulated target.
        let profiles: Vec<VmProfile> = (0..10).map(|_| profile(0.4, 0.4)).collect();
        let mut rng = SmallRng::seed_from_u64(5);
        local_train_with(&mut q, &profiles, 2000, &mut rng, &mut Vec::new());
        // Some in-table entry must have learned a negative value.
        let any_negative = q.r#in.iter_visited().any(|(_, _, v)| v < 0.0);
        assert!(any_negative, "no negative in-values learned");
    }

    #[test]
    fn light_profiles_learn_positive_in_values() {
        let mut q = QTablePair::new(QParams::default());
        let profiles: Vec<VmProfile> = (0..6).map(|_| profile(0.05, 0.05)).collect();
        let mut rng = SmallRng::seed_from_u64(7);
        local_train_with(&mut q, &profiles, 500, &mut rng, &mut Vec::new());
        // Sums stay ≤ 0.35, far from overload: everything positive.
        assert!(q.r#in.iter_visited().all(|(_, _, v)| v >= 0.0));
    }

    fn dc_two_pms() -> DataCenter {
        let mut dc = DataCenter::new(DataCenterConfig::paper(2));
        for _ in 0..6 {
            dc.add_vm(VmSpec::EC2_MICRO);
        }
        for i in 0..3 {
            dc.place(VmId(i), PmId(0));
        }
        for i in 3..6 {
            dc.place(VmId(i), PmId(1));
        }
        let mut src = |_: VmId, _: u64| Resources::splat(0.5);
        dc.step(&mut src);
        dc
    }

    /// Gathers into a freshly allocated list.
    fn gathered(
        dc: &DataCenter,
        pm: PmId,
        neighbor: Option<PmId>,
        duplication: usize,
    ) -> Vec<VmProfile> {
        let mut profiles = Vec::new();
        gather_profiles_into(dc.view(), pm, neighbor, duplication, &mut profiles);
        profiles
    }

    #[test]
    fn gather_profiles_combines_both_pms() {
        let dc = dc_two_pms();
        let p = gathered(&dc, PmId(0), Some(PmId(1)), 1);
        assert_eq!(p.len(), 6);
        let p2 = gathered(&dc, PmId(0), None, 1);
        assert_eq!(p2.len(), 3);
    }

    #[test]
    fn gather_profiles_duplicates() {
        let dc = dc_two_pms();
        let p = gathered(&dc, PmId(0), Some(PmId(1)), 3);
        assert_eq!(p.len(), 18);
    }

    #[test]
    fn gather_into_reused_buffer_matches_allocating_path() {
        let dc = dc_two_pms();
        let mut buf = vec![profile(0.9, 0.9); 3]; // stale contents must be cleared
        for dup in [1usize, 2, 3] {
            gather_profiles_into(dc.view(), PmId(0), Some(PmId(1)), dup, &mut buf);
            assert_eq!(buf, gathered(&dc, PmId(0), Some(PmId(1)), dup));
        }
    }

    /// Gathering once and repeating in place — the re-training window's
    /// order of steps — is gathering repeated.
    #[test]
    fn repeating_in_place_matches_gathering_repeated() {
        let dc = dc_two_pms();
        for dup in [0usize, 1, 2, 3] {
            let mut once = gathered(&dc, PmId(0), Some(PmId(1)), 1);
            repeat_profiles(&mut once, dup);
            assert_eq!(once, gathered(&dc, PmId(0), Some(PmId(1)), dup));
        }
    }

    #[test]
    fn eligibility_respects_threshold() {
        let dc = dc_two_pms();
        // 3 VMs at 50% of nominal: cpu = 3*0.5*500/2660 ≈ 0.28 ≤ 0.5.
        let cfg = GlapConfig::default();
        assert!(is_eligible(&dc, PmId(0), &cfg));
        let strict = GlapConfig {
            learning_threshold: 0.1,
            ..cfg
        };
        assert!(!is_eligible(&dc, PmId(0), &strict));
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let profiles: Vec<VmProfile> = (0..8)
            .map(|i| profile(0.1 + 0.03 * i as f64, 0.1))
            .collect();
        let run = |seed: u64| {
            let mut q = QTablePair::new(QParams::default());
            let mut rng = SmallRng::seed_from_u64(seed);
            local_train_with(&mut q, &profiles, 100, &mut rng, &mut Vec::new());
            q
        };
        assert_eq!(run(11), run(11));
    }
}

//! Experiment scenarios: the paper's evaluation grid.
//!
//! §V-A: cluster sizes 500/1000/2000 PMs, VM:PM ratios 2/3/4, 720 rounds
//! of 2 minutes (24 h), 20 repetitions, identical initial VM→PM mapping
//! across algorithms within a repetition, and 700 extra pre-rounds for
//! GLAP's Q-value training.

use glap::GlapConfig;
use glap_cluster::VmSpec;
use glap_dcsim::{splitmix64, FaultProfile};
use glap_workload::GoogleTraceConfig;

/// Which consolidation algorithm a run uses (including GLAP's ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// GLAP with the full two-phase trained, unified Q-tables.
    Glap,
    /// GLAP without the `φ_in` admission veto (ablation).
    GlapNoVeto,
    /// GLAP with current-demand-only states (ablation: no averages).
    GlapCurrentOnly,
    /// GLAP without the aggregation phase: per-PM local tables (ablation).
    GlapNoAggregation,
    /// GRMP (Wuhib et al.), static 0.8 threshold gossip.
    Grmp,
    /// EcoCloud (Mastroianni et al.), probabilistic thresholds.
    EcoCloud,
    /// PABFD (Beloglazov & Buyya), centralized MAD + best-fit-decreasing.
    Pabfd,
}

impl Algorithm {
    /// The paper's four compared algorithms.
    pub const PAPER_SET: [Algorithm; 4] = [
        Algorithm::Glap,
        Algorithm::EcoCloud,
        Algorithm::Grmp,
        Algorithm::Pabfd,
    ];

    /// All GLAP ablation variants (plus the full protocol for reference).
    pub const ABLATION_SET: [Algorithm; 4] = [
        Algorithm::Glap,
        Algorithm::GlapNoVeto,
        Algorithm::GlapCurrentOnly,
        Algorithm::GlapNoAggregation,
    ];

    /// Stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Glap => "GLAP",
            Algorithm::GlapNoVeto => "GLAP-noveto",
            Algorithm::GlapCurrentOnly => "GLAP-current",
            Algorithm::GlapNoAggregation => "GLAP-noagg",
            Algorithm::Grmp => "GRMP",
            Algorithm::EcoCloud => "EcoCloud",
            Algorithm::Pabfd => "PABFD",
        }
    }

    /// A stable tag mixed into policy seeds.
    pub fn tag(self) -> u64 {
        match self {
            Algorithm::Glap => 1,
            Algorithm::GlapNoVeto => 2,
            Algorithm::GlapCurrentOnly => 3,
            Algorithm::GlapNoAggregation => 4,
            Algorithm::Grmp => 5,
            Algorithm::EcoCloud => 6,
            Algorithm::Pabfd => 7,
        }
    }
}

/// The VM fleet composition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VmMix {
    /// The paper's setup: every VM is an EC2 micro.
    #[default]
    MicroOnly,
    /// Extension: 60% micro / 30% m1.small / 10% m1.medium — exercises
    /// the full calibrated action space.
    Mixed,
}

impl VmMix {
    /// The spec of the `i`-th VM under this mix (deterministic in `i`, so
    /// the composition is identical across algorithms and repetitions).
    pub fn spec(self, i: usize) -> VmSpec {
        match self {
            VmMix::MicroOnly => VmSpec::EC2_MICRO,
            VmMix::Mixed => match i % 10 {
                0..=5 => VmSpec::EC2_MICRO,
                6..=8 => VmSpec::M1_SMALL,
                _ => VmSpec::M1_MEDIUM,
            },
        }
    }
}

/// One fully specified simulation run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Number of PMs.
    pub n_pms: usize,
    /// VM:PM ratio (the paper uses 2, 3, 4).
    pub ratio: usize,
    /// Repetition index (drives seeds).
    pub rep: usize,
    /// Algorithm under test.
    pub algorithm: Algorithm,
    /// Measured rounds (the paper: 720 = 24 h of 2-minute rounds).
    pub rounds: u64,
    /// GLAP configuration (training lengths, thresholds, Q-params).
    pub glap: GlapConfig,
    /// Workload generator configuration (defaults to the documented
    /// Google-cluster-like statistics; the bursty-workload evaluation of
    /// the paper's future work overrides this).
    pub trace_cfg: GoogleTraceConfig,
    /// VM fleet composition (the paper: micro-only).
    pub vm_mix: VmMix,
    /// Network fault injection. [`FaultProfile::none()`] (the default)
    /// keeps every run byte-identical to the pre-network-model code path.
    pub fault: FaultProfile,
}

impl Scenario {
    /// Builds a paper-defaults scenario.
    pub fn paper(n_pms: usize, ratio: usize, rep: usize, algorithm: Algorithm) -> Self {
        Scenario {
            n_pms,
            ratio,
            rep,
            algorithm,
            rounds: 720,
            glap: GlapConfig::default(),
            trace_cfg: GoogleTraceConfig::default(),
            vm_mix: VmMix::default(),
            fault: FaultProfile::none(),
        }
    }

    /// Number of VMs.
    pub fn n_vms(&self) -> usize {
        self.n_pms * self.ratio
    }

    /// The *workload* master seed: depends only on (size, ratio, rep) so
    /// every algorithm in a repetition sees the identical trace and
    /// initial placement — the paper's fairness requirement.
    pub fn world_seed(&self) -> u64 {
        splitmix64(
            splitmix64(self.n_pms as u64)
                ^ splitmix64(0x1000 + self.ratio as u64)
                ^ splitmix64(0x2000 + self.rep as u64),
        )
    }

    /// The *policy* seed: differs per algorithm so protocol randomness is
    /// independent across algorithms.
    pub fn policy_seed(&self) -> u64 {
        splitmix64(self.world_seed() ^ splitmix64(0x3000 + self.algorithm.tag()))
    }

    /// Short id used in file names and logs.
    pub fn id(&self) -> String {
        format!(
            "{}-{}x{}-r{}",
            self.algorithm.label(),
            self.n_pms,
            self.ratio,
            self.rep
        )
    }
}

/// The experiment grid shared by the figure regenerators.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Cluster sizes to sweep.
    pub sizes: Vec<usize>,
    /// VM:PM ratios to sweep.
    pub ratios: Vec<usize>,
    /// Repetitions per cell.
    pub reps: usize,
    /// Measured rounds per run.
    pub rounds: u64,
    /// GLAP configuration.
    pub glap: GlapConfig,
    /// Workload generator configuration.
    pub trace_cfg: GoogleTraceConfig,
}

impl Grid {
    /// The paper's full grid: 500/1000/2000 × 2/3/4 × 20 reps × 720
    /// rounds. Heavy — hours of CPU.
    pub fn paper() -> Self {
        Grid {
            sizes: vec![500, 1000, 2000],
            ratios: vec![2, 3, 4],
            reps: 20,
            rounds: 720,
            glap: GlapConfig::default(),
            trace_cfg: GoogleTraceConfig::default(),
        }
    }

    /// A reduced grid with the paper's shape (all ratios, one mid size,
    /// fewer reps) that runs in minutes on one core.
    pub fn reduced() -> Self {
        Grid {
            sizes: vec![500],
            ratios: vec![2, 3, 4],
            reps: 5,
            rounds: 720,
            glap: GlapConfig::default(),
            trace_cfg: GoogleTraceConfig::default(),
        }
    }

    /// A smoke-test grid for CI and benches.
    pub fn quick() -> Self {
        Grid {
            sizes: vec![100],
            ratios: vec![2, 3],
            reps: 2,
            rounds: 120,
            glap: GlapConfig {
                learning_rounds: 30,
                aggregation_rounds: 15,
                ..GlapConfig::default()
            },
            trace_cfg: GoogleTraceConfig::default(),
        }
    }

    /// Enumerates all scenarios of this grid for the given algorithms.
    pub fn scenarios(&self, algorithms: &[Algorithm]) -> Vec<Scenario> {
        let mut out = Vec::new();
        for &n_pms in &self.sizes {
            for &ratio in &self.ratios {
                for rep in 0..self.reps {
                    for &algorithm in algorithms {
                        out.push(Scenario {
                            n_pms,
                            ratio,
                            rep,
                            algorithm,
                            rounds: self.rounds,
                            glap: self.glap,
                            trace_cfg: self.trace_cfg,
                            vm_mix: VmMix::default(),
                            fault: FaultProfile::none(),
                        });
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_seed_is_algorithm_independent() {
        let a = Scenario::paper(500, 2, 0, Algorithm::Glap);
        let b = Scenario::paper(500, 2, 0, Algorithm::Grmp);
        assert_eq!(a.world_seed(), b.world_seed());
        assert_ne!(a.policy_seed(), b.policy_seed());
    }

    #[test]
    fn world_seed_varies_with_cell() {
        let a = Scenario::paper(500, 2, 0, Algorithm::Glap);
        let b = Scenario::paper(500, 3, 0, Algorithm::Glap);
        let c = Scenario::paper(500, 2, 1, Algorithm::Glap);
        let d = Scenario::paper(1000, 2, 0, Algorithm::Glap);
        let seeds = [
            a.world_seed(),
            b.world_seed(),
            c.world_seed(),
            d.world_seed(),
        ];
        for i in 0..4 {
            for j in i + 1..4 {
                assert_ne!(seeds[i], seeds[j]);
            }
        }
    }

    #[test]
    fn grid_enumerates_fully() {
        let g = Grid {
            sizes: vec![100, 200],
            ratios: vec![2, 3],
            reps: 3,
            rounds: 10,
            glap: GlapConfig::default(),
            trace_cfg: GoogleTraceConfig::default(),
        };
        let s = g.scenarios(&Algorithm::PAPER_SET);
        assert_eq!(s.len(), 2 * 2 * 3 * 4);
    }

    #[test]
    fn paper_grid_matches_section_va() {
        let g = Grid::paper();
        assert_eq!(g.sizes, vec![500, 1000, 2000]);
        assert_eq!(g.ratios, vec![2, 3, 4]);
        assert_eq!(g.reps, 20);
        assert_eq!(g.rounds, 720);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = Algorithm::PAPER_SET
            .iter()
            .chain(Algorithm::ABLATION_SET.iter())
            .map(|a| a.label())
            .collect();
        labels.sort_unstable();
        labels.dedup();
        assert!(labels.len() >= 7);
    }

    #[test]
    fn n_vms_multiplies() {
        assert_eq!(Scenario::paper(500, 4, 0, Algorithm::Glap).n_vms(), 2000);
    }
}

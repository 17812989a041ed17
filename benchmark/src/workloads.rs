//! The five workloads: what they run, at which size, and why.
//!
//! Sizes are chosen so one call of the entry point takes 1.5–3 s on a
//! 2-core box: the driver measures each run for a fixed number of
//! seconds, and a run needs several calls to report a steady median.
//! `--smoke` keeps the code paths and metric names at toy sizes.

use glap_codec::CodecKind;
use glap_dcsim::FaultProfile;
use glap_experiments::{Algorithm, Scenario};

/// Which harness entry point a workload calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `run_scenario`, once per algorithm, on the identical world.
    Sim,
    /// `run_node_scenario` over `TransportKind::Sim`.
    Fleet,
}

#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub n_pms: usize,
    pub ratio: usize,
    pub learning_rounds: usize,
    pub aggregation_rounds: usize,
    pub rounds: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub entry: Entry,
    /// The entry point runs once per algorithm.
    pub algorithms: &'static [Algorithm],
    pub full: Size,
    pub smoke: Size,
    pub codec: CodecKind,
    /// `FaultProfile::faulty(0.05, 0.01, 0.3)` in place of the ideal net.
    pub faulty: bool,
    /// The traced run also prices `Tracer::counting()` on the sim path
    /// (which swaps in the two-pass training engine).
    pub counting_probe: bool,
    /// The traced run also compares the mpsc `ChannelTransport` with
    /// `SimTransport` on a short training of the same fleet.
    pub channel_probe: bool,
}

const FLEET_FULL: Size = Size {
    n_pms: 120,
    ratio: 3,
    learning_rounds: 300,
    aggregation_rounds: 40,
    rounds: 60,
};
const FLEET_SMOKE: Size = Size {
    n_pms: 40,
    ratio: 3,
    learning_rounds: 30,
    aggregation_rounds: 10,
    rounds: 20,
};

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "paper_cell",
        why: "one cell of the paper's grid (1000 PMs x ratio 3, 100+30 training rounds, 720-round day): training, day and set-up all contribute",
        entry: Entry::Sim,
        algorithms: &[Algorithm::Glap],
        full: Size {
            n_pms: 1000,
            ratio: 3,
            learning_rounds: 100,
            aggregation_rounds: 30,
            rounds: 720,
        },
        smoke: Size {
            n_pms: 200,
            ratio: 3,
            learning_rounds: 30,
            aggregation_rounds: 10,
            rounds: 120,
        },
        codec: CodecKind::Identity,
        faulty: false,
        counting_probe: true,
        channel_probe: false,
    },
    Workload {
        name: "scale_train",
        why: "2000 PMs x ratio 2, 60+20 training rounds, 120-round day: 240 MB of dense Q-tables, far beyond cache, so arena, page faults and worker pool do the work",
        entry: Entry::Sim,
        algorithms: &[Algorithm::Glap],
        full: Size {
            n_pms: 2000,
            ratio: 2,
            learning_rounds: 60,
            aggregation_rounds: 20,
            rounds: 120,
        },
        smoke: Size {
            n_pms: 300,
            ratio: 2,
            learning_rounds: 20,
            aggregation_rounds: 8,
            rounds: 20,
        },
        codec: CodecKind::Identity,
        faulty: false,
        counting_probe: false,
        channel_probe: false,
    },
    Workload {
        name: "day_pair",
        why: "GLAP (5+3 training rounds) then GRMP on the identical 1500 PMs x ratio 3 world, 720-round day each: policy, engine, cluster and trace playback do the work, under two policies",
        entry: Entry::Sim,
        algorithms: &[Algorithm::Glap, Algorithm::Grmp],
        full: Size {
            n_pms: 1500,
            ratio: 3,
            learning_rounds: 5,
            aggregation_rounds: 3,
            rounds: 720,
        },
        smoke: Size {
            n_pms: 200,
            ratio: 4,
            learning_rounds: 5,
            aggregation_rounds: 3,
            rounds: 120,
        },
        codec: CodecKind::Identity,
        faulty: false,
        counting_probe: false,
        channel_probe: false,
    },
    Workload {
        name: "fleet_identity",
        why: "120-node fleet x ratio 3, 300+40 training rounds over SimTransport, identity codec, ideal net: NodeCore, dense 105 KB WireMsg encode/decode and NodeRuntime scheduling, no codec compute",
        entry: Entry::Fleet,
        algorithms: &[Algorithm::Glap],
        full: FLEET_FULL,
        smoke: FLEET_SMOKE,
        codec: CodecKind::Identity,
        faulty: false,
        counting_probe: false,
        channel_probe: true,
    },
    Workload {
        name: "fleet_delta_faulty",
        why: "the same fleet with the delta codec on a faulty net (5% drops, crashes, recoveries): per-peer codec state, diffs, retries and resyncs for a sixtieth of the wire bytes",
        entry: Entry::Fleet,
        algorithms: &[Algorithm::Glap],
        full: FLEET_FULL,
        smoke: FLEET_SMOKE,
        codec: CodecKind::Delta,
        faulty: true,
        counting_probe: false,
        channel_probe: false,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn size(&self, smoke: bool) -> Size {
        if smoke {
            self.smoke
        } else {
            self.full
        }
    }

    /// The scenario of one entry-point call. `seed` becomes
    /// `Scenario.rep`, the repo's seed root: world and policy seeds
    /// derive from it, and the program sees nothing else of the seed.
    pub fn scenario(&self, algorithm: Algorithm, seed: u64, smoke: bool) -> Scenario {
        let size = self.size(smoke);
        let mut sc = Scenario::paper(size.n_pms, size.ratio, seed as usize, algorithm);
        sc.rounds = size.rounds;
        sc.glap.learning_rounds = size.learning_rounds;
        sc.glap.aggregation_rounds = size.aggregation_rounds;
        sc.glap.codec = self.codec;
        if self.faulty {
            sc.fault = FaultProfile::faulty(0.05, 0.01, 0.3);
        }
        sc
    }

    /// One scenario per entry-point call, in call order.
    pub fn scenarios(&self, seed: u64, smoke: bool) -> Vec<Scenario> {
        self.algorithms
            .iter()
            .map(|&a| self.scenario(a, seed, smoke))
            .collect()
    }

    /// Simulated PM-rounds of one run: `n_pms` times the learning,
    /// aggregation and measured rounds, summed over the algorithms
    /// (only GLAP trains).
    pub fn pm_rounds(&self, smoke: bool) -> f64 {
        let s = self.size(smoke);
        let rounds: u64 = self
            .algorithms
            .iter()
            .map(|&a| {
                let training = if a == Algorithm::Glap {
                    (s.learning_rounds + s.aggregation_rounds) as u64
                } else {
                    0
                };
                training + s.rounds
            })
            .sum();
        (s.n_pms as u64 * rounds) as f64
    }
}

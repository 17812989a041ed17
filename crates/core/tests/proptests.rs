//! Property-based tests of the GLAP protocol layers: the learning phase
//! never poisons safe states, the aggregation phase conserves knowledge,
//! and the consolidation policy never breaks world invariants.

use glap::prelude::*;
use glap::{synthetic_table, train_two_pass_reference};
use glap_cluster::{DataCenter, DataCenterConfig, Resources, VmId, VmProfile, VmSpec};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Exact encoded bytes of a table pair — the strictest equality there
/// is (distinguishes even -0.0 from 0.0).
fn pair_bytes(t: &QTablePair) -> Vec<u8> {
    let mut w = Writer::new();
    t.save(&mut w);
    w.into_bytes()
}

/// One world + schedule to train on, observed or not.
struct ParityWorld {
    seed: u64,
    n_pms: usize,
    ratio: usize,
    sleep_empties: bool,
    cfg: GlapConfig,
    /// Attach a memory-sink tracer and record the similarity series.
    observed: bool,
}

/// Everything a training run yields, each part in its strictest
/// comparable form: encoded table bytes, similarity bit patterns, and
/// the `Debug` rendering of events and monitor samples (shortest
/// round-trip floats, so a single flipped sign bit fails).
#[derive(Debug, PartialEq)]
struct RunOutput {
    tables: Vec<Vec<u8>>,
    pms_trained: usize,
    updates: u64,
    similarity: Vec<(TrainPhase, usize, u64)>,
    events: String,
    counters: String,
    monitor: String,
}

impl ParityWorld {
    /// Runs the engine at `threads` workers, or the two-pass reference
    /// oracle (single-threaded) for `None`.
    fn run(&self, threads: Option<usize>) -> RunOutput {
        use glap_cluster::PmId;
        let mut dc = DataCenter::new(DataCenterConfig::paper(self.n_pms));
        for _ in 0..self.n_pms * self.ratio {
            dc.add_vm(VmSpec::EC2_MICRO);
        }
        dc.random_placement(&mut stream_rng(self.seed, Stream::Placement));
        if self.sleep_empties {
            let empty: Vec<PmId> = dc.pms().filter(|p| p.is_empty()).map(|p| p.id()).collect();
            for pm in empty {
                dc.sleep_if_empty(pm);
            }
        }
        let seed = self.seed;
        let mut trace = move |vm: VmId, r: u64| {
            let x = 0.3 + 0.25 * ((r as f64 / 7.0) + f64::from(vm.0) + seed as f64).sin();
            Resources::splat(x)
        };
        let (tracer, sink) = if self.observed {
            let (tracer, sink) = Tracer::memory();
            (tracer, Some(sink))
        } else {
            (Tracer::off(), None)
        };
        let (cfg, seed, observed) = (&self.cfg, self.seed, self.observed);
        let (tables, report, monitor) = match threads {
            Some(_) => {
                let (arena, report, monitor) = train_instrumented(
                    &mut dc,
                    &mut trace,
                    cfg,
                    seed,
                    observed,
                    &tracer,
                    threads,
                    &Profiler::off(),
                );
                (arena.export(), report, monitor)
            }
            None => train_two_pass_reference(
                &mut dc,
                &mut trace,
                cfg,
                seed,
                observed,
                &tracer,
                Some(1),
                &Profiler::off(),
            ),
        };
        RunOutput {
            tables: tables.iter().map(pair_bytes).collect(),
            pms_trained: report.pms_trained,
            updates: report.updates,
            similarity: report
                .similarity
                .iter()
                .map(|&(phase, round, sim)| (phase, round, sim.to_bits()))
                .collect(),
            events: format!("{:?}", sink.map(|s| s.events())),
            counters: tracer.counters_csv(),
            monitor: format!("{:?}", monitor.samples),
        }
    }
}

/// The engine — entry-sparse Q-table arena, column-compressed
/// convergence samples — reproduces the dense two-pass reference oracle
/// bit for bit: tables and report always, and under observation also the
/// event stream, the per-round counters, the Figure 5 similarity series
/// and the convergence monitor. Covers both worker counts, sleeping PMs
/// and the aggregation-round edge cases.
#[test]
fn engine_matches_two_pass_reference() {
    for observed in [true, false] {
        for aggregation_rounds in [0, 1, 10] {
            for sleep_empties in [false, true] {
                let world = ParityWorld {
                    seed: 77,
                    n_pms: 25,
                    ratio: 2,
                    sleep_empties,
                    cfg: GlapConfig {
                        learning_rounds: 10,
                        aggregation_rounds,
                        learning_iterations: 10,
                        ..GlapConfig::default()
                    },
                    observed,
                };
                let reference = world.run(None);
                if observed {
                    let samples = world.cfg.learning_rounds + aggregation_rounds;
                    assert_eq!(reference.similarity.len(), samples);
                    assert_eq!(
                        reference.monitor.matches("ConvergenceSample").count(),
                        samples
                    );
                }
                for threads in [1, 4] {
                    assert_eq!(
                        world.run(Some(threads)),
                        reference,
                        "observed={observed} agg_rounds={aggregation_rounds} \
                         sleep={sleep_empties} threads={threads}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Training over arbitrary light profiles (no subset can overload)
    /// never produces a veto entry.
    #[test]
    fn light_profiles_never_learn_vetoes(
        profiles in proptest::collection::vec((0.0f64..0.05, 0.0f64..0.05), 2..12),
        iterations in 10usize..200,
        seed in 0u64..500,
    ) {
        let mut q = QTablePair::new(QParams::default());
        let profs: Vec<VmProfile> = profiles
            .iter()
            .map(|&(c, m)| VmProfile::from_fractions(Resources::new(c, m), Resources::new(c, m)))
            .collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        local_train_with(&mut q, &profs, iterations, &mut rng, &mut Vec::new());
        for (_, _, v) in q.r#in.iter_visited() {
            prop_assert!(v >= 0.0, "light-profile training produced veto value {v}");
        }
    }

    /// Aggregation never loses knowledge: the union of visited pairs
    /// across all PMs is invariant under gossip rounds — over an ideal or
    /// a faulty net (drops, crashes, recoveries).
    #[test]
    fn aggregation_conserves_knowledge(
        seeds in proptest::collection::vec(0u64..1000, 4..12),
        rounds in 1usize..10,
        faulty in any::<bool>(),
        net_seed in 0u64..1000,
    ) {
        let n = seeds.len();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut tables: Vec<QTablePair> = seeds
            .iter()
            .map(|&s| {
                let mut r = SmallRng::seed_from_u64(s);
                // A few random entries per PM.
                let mut t = QTablePair::new(QParams::default());
                let profs: Vec<VmProfile> = (0..6)
                    .map(|i| {
                        let c = 0.05 + 0.03 * i as f64;
                        VmProfile::from_fractions(Resources::splat(c), Resources::splat(c))
                    })
                    .collect();
                local_train_with(&mut t, &profs, 30, &mut r, &mut Vec::new());
                t
            })
            .collect();
        let union_before = unified_table(&tables).trained_pairs();
        let mut overlay = CyclonOverlay::new(n, 4, 2);
        overlay.bootstrap_random(&mut rng);
        let mut net = if faulty {
            NetworkModel::new(n, FaultProfile::faulty(0.2, 0.1, 0.3), net_seed)
        } else {
            NetworkModel::ideal(n)
        };
        let tracer = Tracer::off();
        for round in 0..rounds {
            net.begin_round(round as u64);
            overlay.run_round(&mut rng, RoundIo::default());
            let io = AggIo::full(&mut net, &tracer);
            aggregation_round(&mut tables, &mut overlay, &mut rng, None, io);
        }
        let union_after = unified_table(&tables).trained_pairs();
        prop_assert_eq!(union_before, union_after);
        // And no individual PM knows more than the union.
        for t in &tables {
            prop_assert!(t.trained_pairs() <= union_after);
        }
    }

    /// The consolidation policy preserves world invariants and VM
    /// conservation for arbitrary (seeded) worlds and demand levels.
    #[test]
    fn policy_preserves_world_invariants(
        seed in 0u64..300,
        level_centi in 5u32..95,
        n_pms in 5usize..20,
        ratio in 1usize..5,
    ) {
        let level = f64::from(level_centi) / 100.0;
        let mut dc = DataCenter::new(DataCenterConfig::paper(n_pms));
        let n_vms = n_pms * ratio;
        for _ in 0..n_vms {
            dc.add_vm(VmSpec::EC2_MICRO);
        }
        dc.random_placement(&mut stream_rng(seed, Stream::Placement));
        let mut trace = move |vm: VmId, r: u64| {
            let x = level + 0.2 * ((r as f64 / 5.0) + f64::from(vm.0)).sin();
            Resources::splat(x.clamp(0.0, 1.0))
        };
        let mut policy = GlapPolicy::with_shared_table(
            GlapConfig::default(),
            synthetic_table(&mut stream_rng(seed, Stream::Custom(5))),
        );
        run_simulation(&mut dc, &mut trace, &mut policy, &mut [], 25, seed);
        prop_assert!(dc.check_invariants().is_ok(), "{:?}", dc.check_invariants());
        let hosted: usize = dc.pms().map(|p| p.vm_count()).sum();
        prop_assert_eq!(hosted, n_vms);
        prop_assert!(dc.active_pm_count() >= 1);
    }

    /// The in-place symmetric merge used by `merge_pair` is bit-for-bit
    /// the old clone-then-average formulation (`a.merge(&b)` followed by
    /// `b.clone_from(&a)`) for arbitrary trained table pairs — compared
    /// down to the encoded snapshot bytes, so even a `-0.0`/`0.0` flip
    /// would fail.
    #[test]
    fn in_place_merge_matches_clone_then_average_bitwise(
        seed_a in 0u64..1000,
        seed_b in 0u64..1000,
        iters_a in 0usize..50,
        iters_b in 0usize..50,
    ) {
        let mk = |seed: u64, iters: usize| {
            let mut t = QTablePair::new(QParams::default());
            let mut r = SmallRng::seed_from_u64(seed);
            let profs: Vec<VmProfile> = (0..7)
                .map(|i| {
                    let c = 0.05 + 0.09 * ((seed as usize + i) % 9) as f64;
                    VmProfile::from_fractions(Resources::splat(c), Resources::splat(c))
                })
                .collect();
            local_train_with(&mut t, &profs, iters, &mut r, &mut Vec::new());
            t
        };
        let a0 = mk(seed_a, iters_a);
        let b0 = mk(seed_b, iters_b);

        // Old formulation.
        let mut a_old = a0.clone();
        let mut b_old = b0.clone();
        a_old.merge(&b_old);
        b_old.clone_from(&a_old);

        // New in-place formulation, exactly as the aggregation phase
        // invokes it.
        let mut tables = vec![a0, b0];
        merge_pair(&mut tables, 0, 1);

        prop_assert_eq!(pair_bytes(&tables[0]), pair_bytes(&a_old));
        prop_assert_eq!(pair_bytes(&tables[1]), pair_bytes(&b_old));
    }

    /// Property form of [`engine_matches_two_pass_reference`]: random
    /// worlds, round schedules, sleeping fleets, worker counts, observed or
    /// not.
    #[test]
    fn engine_matches_two_pass_reference_property(
        seed in 0u64..1000,
        n_pms in 8usize..32,
        ratio in 1usize..4,
        learning_rounds in 1usize..5,
        aggregation_rounds in 0usize..5,
        sleep_empties in any::<bool>(),
        observed in any::<bool>(),
        threads_idx in 0usize..2,
    ) {
        let world = ParityWorld {
            seed,
            n_pms,
            ratio,
            sleep_empties,
            cfg: GlapConfig {
                learning_rounds,
                aggregation_rounds,
                learning_iterations: 6,
                ..GlapConfig::default()
            },
            observed,
        };
        let reference = world.run(None);
        assert_eq!(world.run(Some([1usize, 4][threads_idx])), reference);
    }

    /// Disabling the veto can only consolidate at least as aggressively
    /// (monotonicity of the ablation) on identical worlds.
    #[test]
    fn veto_ablation_is_monotone_in_packing(seed in 0u64..100) {
        let run = |disable: bool| {
            let mut dc = DataCenter::new(DataCenterConfig::paper(12));
            for _ in 0..36 {
                dc.add_vm(VmSpec::EC2_MICRO);
            }
            dc.random_placement(&mut stream_rng(seed, Stream::Placement));
            let mut trace = |_: VmId, _: u64| Resources::splat(0.55);
            let mut policy = GlapPolicy::with_shared_table(
                GlapConfig::default(),
                synthetic_table(&mut stream_rng(seed, Stream::Custom(6))),
            );
            policy.disable_in_veto = disable;
            run_simulation(&mut dc, &mut trace, &mut policy, &mut [], 20, seed);
            dc.active_pm_count()
        };
        prop_assert!(run(true) <= run(false));
    }
}

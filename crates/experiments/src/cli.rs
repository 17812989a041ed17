//! A small argument parser shared by the experiment binaries (kept
//! in-repo — the approved dependency list has no CLI crate).

use crate::noderun::TransportKind;
use crate::runner::CheckpointOpts;
use crate::scenario::{Algorithm, Grid, Scenario};
use glap_dcsim::FaultProfile;
use glap_profile::Profiler;
use glap_telemetry::{JsonlSink, Tracer};
use std::path::PathBuf;

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Cli {
    /// The experiment grid to run.
    pub grid: Grid,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
    /// Worker threads (None = available parallelism).
    pub threads: Option<usize>,
    /// Per-scenario progress logging.
    pub verbose: bool,
    /// Write a JSONL event trace of the first scenario here.
    pub trace_out: Option<PathBuf>,
    /// Write per-round counter/histogram CSVs of the first scenario here
    /// (`<stem>.csv` for counters, `<stem>_hist.csv` for histograms).
    pub counters_out: Option<PathBuf>,
    /// Replay a JSONL trace (diagnose mode) instead of running scenarios.
    pub replay: Option<PathBuf>,
    /// Write a snapshot every this many measured rounds (0 = off).
    pub checkpoint_every: u64,
    /// Directory for per-scenario checkpoint/`.done` files; sweeps with
    /// this set skip finished cells and resume interrupted ones.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume a single-scenario run from this snapshot file.
    pub resume: Option<PathBuf>,
    /// Interrupt a single-scenario run after this many measured rounds.
    pub stop_at_round: Option<u64>,
    /// Algorithm override for single-scenario binaries.
    pub algo: Option<Algorithm>,
    /// Transport hosting the node fleet (`node_runtime` binary).
    pub transport: TransportKind,
    /// Per-message drop probability for fault injection.
    pub drop_prob: f64,
    /// Per-round crash probability for fault injection.
    pub crash_rate: f64,
    /// Per-round recovery probability for crashed PMs.
    pub recovery_rate: f64,
    /// Write the serialized post-training Q-tables here
    /// (`node_runtime`: the CI byte-identity artifact).
    pub dump_tables: Option<PathBuf>,
    /// Wall-clock profiling: print the per-phase breakdown and write a
    /// `profile_*.json` artifact.
    pub profile: bool,
    /// Override path for the profile JSON artifact.
    pub profile_out: Option<PathBuf>,
    /// Live stderr heartbeat (round rate, ETA, sweep cell).
    pub progress: bool,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            grid: Grid::reduced(),
            out_dir: PathBuf::from("results"),
            threads: None,
            verbose: false,
            trace_out: None,
            counters_out: None,
            replay: None,
            checkpoint_every: 0,
            checkpoint_dir: None,
            resume: None,
            stop_at_round: None,
            algo: None,
            transport: TransportKind::Sim,
            drop_prob: 0.0,
            crash_rate: 0.0,
            recovery_rate: 0.0,
            dump_tables: None,
            profile: false,
            profile_out: None,
            progress: false,
        }
    }
}

impl Cli {
    /// Builds the tracer requested by the telemetry flags: a JSONL sink
    /// when `--trace` is given, counting-only when just `--counters`, and
    /// [`Tracer::off`] (zero overhead, byte-identical results) otherwise.
    pub fn tracer(&self) -> Tracer {
        if let Some(path) = &self.trace_out {
            match JsonlSink::create(path) {
                Ok(sink) => Tracer::new(Box::new(sink)),
                Err(e) => {
                    eprintln!("cannot create trace file {}: {e}", path.display());
                    std::process::exit(2);
                }
            }
        } else if self.counters_out.is_some() {
            Tracer::counting()
        } else {
            Tracer::off()
        }
    }

    /// Writes the counter snapshots (`<path>`) and latency histograms
    /// (`<stem>_hist.csv`) accumulated by `tracer`, if `--counters` was
    /// given.
    pub fn write_counters(&self, tracer: &Tracer) -> std::io::Result<()> {
        let Some(path) = &self.counters_out else {
            return Ok(());
        };
        std::fs::write(path, tracer.counters_csv())?;
        let mut hist = path.clone();
        let stem = hist
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "counters".into());
        hist.set_file_name(format!("{stem}_hist.csv"));
        std::fs::write(hist, tracer.histograms_csv())
    }

    /// The fault profile requested by the `--drop`/`--crash`/`--recover`
    /// flags ([`FaultProfile::none`]-equivalent when none were given, so
    /// default runs stay byte-identical to the ideal-network path).
    pub fn fault(&self) -> FaultProfile {
        FaultProfile::faulty(self.drop_prob, self.crash_rate, self.recovery_rate)
    }

    /// Builds the profiler requested by `--profile`: enabled (span tree
    /// rooted now) or [`Profiler::off`] (zero overhead). Profiling is
    /// strictly observational — results are byte-identical either way.
    pub fn profiler(&self) -> Profiler {
        if self.profile {
            Profiler::enabled()
        } else {
            Profiler::off()
        }
    }

    /// Finishes a profiled run: prints the per-phase breakdown to stdout
    /// and writes the JSON artifact (`--profile-out`, defaulting to
    /// `<out_dir>/profile_<stem>.json`). No-op when `--profile` was not
    /// given. Returns the artifact path when one was written.
    pub fn finish_profile(&self, stem: &str, profiler: &Profiler) -> Option<PathBuf> {
        if !profiler.is_on() {
            return None;
        }
        let report = profiler.snapshot();
        print!("{}", report.render());
        let path = self
            .profile_out
            .clone()
            .unwrap_or_else(|| self.out_dir.join(format!("profile_{stem}.json")));
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&path, report.to_json()) {
            Ok(()) => {
                eprintln!("profile written to {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("cannot write profile {}: {e}", path.display());
                None
            }
        }
    }

    /// The one scenario `single_run` and `node_runtime` run: the grid's
    /// first size and ratio, repetition 0, `--algo` (GLAP by default)
    /// and the fault profile of `--drop`/`--crash`/`--recover`.
    pub fn scenario(&self) -> Scenario {
        Scenario {
            n_pms: self.grid.sizes[0],
            ratio: self.grid.ratios[0],
            rep: 0,
            algorithm: self.algo.unwrap_or(Algorithm::Glap),
            rounds: self.grid.rounds,
            glap: self.grid.glap,
            trace_cfg: self.grid.trace_cfg,
            vm_mix: Default::default(),
            fault: self.fault(),
        }
    }

    /// The checkpoint/resume options requested by the snapshot flags.
    pub fn checkpoint_opts(&self) -> CheckpointOpts {
        CheckpointOpts {
            every: self.checkpoint_every,
            dir: self.checkpoint_dir.clone(),
            resume: self.resume.clone(),
            stop_at_round: self.stop_at_round,
        }
    }
}

/// Parses an algorithm label (as printed by [`Algorithm::label`],
/// case-insensitive) for `--algo`.
fn parse_algorithm(s: &str) -> Result<Algorithm, String> {
    Algorithm::PAPER_SET
        .iter()
        .chain(Algorithm::ABLATION_SET.iter())
        .copied()
        .find(|a| a.label().eq_ignore_ascii_case(s))
        .ok_or_else(|| {
            format!(
                "unknown algorithm {s} (expected one of GLAP, GLAP-noveto, GLAP-current, \
                 GLAP-noagg, GRMP, EcoCloud, PABFD)"
            )
        })
}

/// Usage text shared by all binaries.
pub const USAGE: &str = "options:
  --quick             smoke-test grid (100 PMs, 120 rounds, 2 reps)
  --full              the paper's full grid (500/1000/2000 PMs, 20 reps) — hours of CPU
  --sizes a,b,c       cluster sizes                      (default 500)
  --ratios a,b,c      VM:PM ratios                       (default 2,3,4)
  --reps n            repetitions per cell               (default 5)
  --rounds n          measured rounds                    (default 720)
  --train n           GLAP learning rounds               (default 100)
  --agg n             GLAP aggregation rounds            (default 30)
  --codec kind        aggregation payload codec: identity (bit-exact legacy
                      wire, default) or delta
  --threads n         worker threads for the scenario grid and the in-training
                      per-PM pool (default: GLAP_THREADS env var, else all
                      cores; results are byte-identical at any thread count)
  --out dir           CSV output directory               (default results/)
  --verbose           log each finished scenario
  --trace file        write a JSONL event trace of the first scenario
  --counters file     write per-round counter CSVs of the first scenario
  --replay file       replay a JSONL trace and print a per-round digest
  --checkpoint-every n  write a snapshot every n measured rounds (0 = off)
  --checkpoint-dir dir  checkpoint directory; sweeps skip finished cells
                        and resume interrupted ones from it
  --resume file       resume a single-scenario run from a snapshot
  --stop-at-round n   interrupt a single-scenario run after n rounds
  --algo name         algorithm for single-scenario binaries (GLAP, GRMP,
                      EcoCloud, PABFD, GLAP-noveto, GLAP-current, GLAP-noagg)
  --transport kind    node_runtime: host the node fleet in-process (sim) or
                      on real mpsc channel workers (channel); byte-identical
                      either way (default sim)
  --drop p            per-message drop probability          (default 0)
  --crash p           per-round PM crash probability        (default 0)
  --recover p         per-round crashed-PM recovery probability (default 0)
  --dump-tables file  node_runtime: write the serialized post-training
                      Q-tables (the sim-vs-channel comparison artifact)
  --profile           print a per-phase wall-clock breakdown after the run
                      and write a profile_*.json artifact (observational:
                      results stay byte-identical)
  --profile-out file  override the profile artifact path
  --progress          live stderr heartbeat: round rate, ETA, sweep cell
";

/// A comma-separated list of positive integers. Zero is rejected here:
/// a 0-PM cluster or a 0-VM ratio has no world to build (placement
/// would panic on "no active PM to place on").
fn parse_list(flag: &str, s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|p| match p.trim().parse::<usize>() {
            Ok(0) => Err(format!("{flag}: values must be at least 1, got 0")),
            Ok(n) => Ok(n),
            Err(_) => Err(format!("{flag}: bad number: {p}")),
        })
        .collect()
}

/// A probability in `[0, 1]`. Anything else — `1.5`, `-1`, `NaN`, which
/// `f64::from_str` all accept — would run to completion on a silently
/// disconnected (or never-faulting) fleet.
fn parse_probability(flag: &str, s: &str) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(p) if (0.0..=1.0).contains(&p) => Ok(p),
        Ok(p) => Err(format!(
            "{flag}: probability must be within [0, 1], got {p}"
        )),
        Err(e) => Err(format!("{flag}: {e}")),
    }
}

/// Parses options from an iterator of arguments (without the program
/// name). Unknown options produce an error string suitable for printing
/// with [`USAGE`].
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.into_iter();
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => cli.grid = Grid::quick(),
            "--full" => cli.grid = Grid::paper(),
            "--sizes" => cli.grid.sizes = parse_list("--sizes", &need(&mut it, "--sizes")?)?,
            "--ratios" => cli.grid.ratios = parse_list("--ratios", &need(&mut it, "--ratios")?)?,
            "--reps" => {
                cli.grid.reps = need(&mut it, "--reps")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
            }
            "--rounds" => {
                cli.grid.rounds = match need(&mut it, "--rounds")?.parse() {
                    // A measured day with no rounds has no final state to
                    // report: the run would print an empty cluster.
                    Ok(0) => return Err("--rounds: must be at least 1, got 0".into()),
                    Ok(n) => n,
                    Err(e) => return Err(format!("--rounds: {e}")),
                };
            }
            "--train" => {
                cli.grid.glap.learning_rounds = match need(&mut it, "--train")?.parse() {
                    // No learning round leaves every table untrained: GLAP
                    // would run its day without a policy to apply.
                    Ok(0) => return Err("--train: must be at least 1, got 0".into()),
                    Ok(n) => n,
                    Err(e) => return Err(format!("--train: {e}")),
                };
            }
            "--agg" => {
                cli.grid.glap.aggregation_rounds = need(&mut it, "--agg")?
                    .parse()
                    .map_err(|e| format!("--agg: {e}"))?;
            }
            "--codec" => cli.grid.glap.codec = need(&mut it, "--codec")?.parse()?,
            "--threads" => {
                cli.threads = Some(
                    need(&mut it, "--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                );
            }
            "--out" => cli.out_dir = PathBuf::from(need(&mut it, "--out")?),
            "--verbose" => cli.verbose = true,
            "--trace" => cli.trace_out = Some(PathBuf::from(need(&mut it, "--trace")?)),
            "--counters" => cli.counters_out = Some(PathBuf::from(need(&mut it, "--counters")?)),
            "--replay" => cli.replay = Some(PathBuf::from(need(&mut it, "--replay")?)),
            "--checkpoint-every" => {
                cli.checkpoint_every = need(&mut it, "--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?;
            }
            "--checkpoint-dir" => {
                cli.checkpoint_dir = Some(PathBuf::from(need(&mut it, "--checkpoint-dir")?));
            }
            "--resume" => cli.resume = Some(PathBuf::from(need(&mut it, "--resume")?)),
            "--stop-at-round" => {
                cli.stop_at_round = Some(
                    need(&mut it, "--stop-at-round")?
                        .parse()
                        .map_err(|e| format!("--stop-at-round: {e}"))?,
                );
            }
            "--algo" => cli.algo = Some(parse_algorithm(&need(&mut it, "--algo")?)?),
            "--transport" => cli.transport = need(&mut it, "--transport")?.parse()?,
            "--drop" => cli.drop_prob = parse_probability("--drop", &need(&mut it, "--drop")?)?,
            "--crash" => cli.crash_rate = parse_probability("--crash", &need(&mut it, "--crash")?)?,
            "--recover" => {
                cli.recovery_rate = parse_probability("--recover", &need(&mut it, "--recover")?)?
            }
            "--dump-tables" => {
                cli.dump_tables = Some(PathBuf::from(need(&mut it, "--dump-tables")?));
            }
            "--profile" => cli.profile = true,
            "--profile-out" => {
                cli.profile = true;
                cli.profile_out = Some(PathBuf::from(need(&mut it, "--profile-out")?));
            }
            "--progress" => cli.progress = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown option {other}\n{USAGE}")),
        }
    }
    Ok(cli)
}

/// Parses from the process arguments, exiting with usage on error.
///
/// A parsed `--threads` is installed as the process-wide worker-count
/// default ([`glap_par::set_default_threads`]), so *every* pool in the
/// binary — the scenario grid fan-out and the per-PM learning-phase
/// pool inside `glap::train` — honors the flag, including binaries that
/// never look at `cli.threads` themselves. Without the flag the pools
/// fall back to `GLAP_THREADS`, then to all cores.
pub fn parse_or_exit() -> Cli {
    match parse(std::env::args().skip(1)) {
        Ok(cli) => {
            if let Some(n) = cli.threads {
                glap_par::set_default_threads(n);
            }
            cli
        }
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_are_reduced_grid() {
        let cli = parse(args("")).unwrap();
        assert_eq!(cli.grid.sizes, vec![500]);
        assert_eq!(cli.grid.reps, 5);
    }

    #[test]
    fn full_and_quick_presets() {
        assert_eq!(parse(args("--full")).unwrap().grid.reps, 20);
        assert_eq!(parse(args("--quick")).unwrap().grid.rounds, 120);
    }

    #[test]
    fn lists_and_values() {
        let cli = parse(args(
            "--sizes 100,200 --ratios 2 --reps 7 --rounds 99 --threads 3",
        ))
        .unwrap();
        assert_eq!(cli.grid.sizes, vec![100, 200]);
        assert_eq!(cli.grid.ratios, vec![2]);
        assert_eq!(cli.grid.reps, 7);
        assert_eq!(cli.grid.rounds, 99);
        assert_eq!(cli.threads, Some(3));
    }

    #[test]
    fn glap_training_knobs() {
        let cli = parse(args("--train 42 --agg 17")).unwrap();
        assert_eq!(cli.grid.glap.learning_rounds, 42);
        assert_eq!(cli.grid.glap.aggregation_rounds, 17);
    }

    #[test]
    fn codec_flag_parses_all_kinds() {
        use glap::prelude::CodecKind;
        assert_eq!(
            parse(args("")).unwrap().grid.glap.codec,
            CodecKind::Identity
        );
        for (s, kind) in [
            ("identity", CodecKind::Identity),
            ("delta", CodecKind::Delta),
        ] {
            let cli = parse(args(&format!("--codec {s}"))).unwrap();
            assert_eq!(cli.grid.glap.codec, kind);
        }
        for gone in ["quantized", "priority"] {
            let err = parse(args(&format!("--codec {gone}"))).unwrap_err();
            assert!(err.contains("identity|delta"), "{err}");
        }
        assert!(parse(args("--codec morse")).is_err());
        assert!(parse(args("--codec")).is_err());
    }

    #[test]
    fn telemetry_flags() {
        let cli = parse(args("--trace t.jsonl --counters c.csv --replay old.jsonl")).unwrap();
        assert_eq!(cli.trace_out, Some(PathBuf::from("t.jsonl")));
        assert_eq!(cli.counters_out, Some(PathBuf::from("c.csv")));
        assert_eq!(cli.replay, Some(PathBuf::from("old.jsonl")));
        assert_eq!(parse(args("")).unwrap().trace_out, None);
    }

    #[test]
    fn unknown_flag_errors() {
        assert!(parse(args("--nope")).is_err());
        assert!(parse(args("--sizes")).is_err());
        assert!(parse(args("--sizes abc")).is_err());
    }

    #[test]
    fn zero_sizes_and_ratios_are_rejected() {
        for bad in [
            "--sizes 0",
            "--sizes 100,0",
            "--ratios 0",
            "--ratios 2,0,4",
            "--rounds 0",
            "--train 0",
        ] {
            let err = parse(args(bad)).unwrap_err();
            assert!(err.contains("at least 1"), "{bad}: {err}");
        }
        let cli = parse(args("--sizes 1 --ratios 1 --rounds 1 --train 1")).unwrap();
        assert_eq!(cli.grid.sizes, [1]);
        assert_eq!(cli.grid.rounds, 1);
        assert_eq!(cli.grid.glap.learning_rounds, 1);
        let err = parse(args("--tolerance 1.0")).unwrap_err();
        assert!(err.starts_with("unknown option --tolerance"), "{err}");
    }

    #[test]
    fn checkpoint_flags() {
        let cli = parse(args(
            "--checkpoint-every 50 --checkpoint-dir ckpts --resume c.ckpt --stop-at-round 100",
        ))
        .unwrap();
        assert_eq!(cli.checkpoint_every, 50);
        assert_eq!(cli.checkpoint_dir, Some(PathBuf::from("ckpts")));
        assert_eq!(cli.resume, Some(PathBuf::from("c.ckpt")));
        assert_eq!(cli.stop_at_round, Some(100));
        let opts = cli.checkpoint_opts();
        assert_eq!(opts.every, 50);
        assert_eq!(opts.stop_at_round, Some(100));
        let off = parse(args("")).unwrap();
        assert_eq!(off.checkpoint_every, 0);
        assert!(off.checkpoint_dir.is_none());
    }

    #[test]
    fn transport_and_fault_flags() {
        let cli = parse(args(
            "--transport channel --drop 0.05 --crash 0.01 --recover 0.3 --dump-tables t.bin",
        ))
        .unwrap();
        assert_eq!(cli.transport, TransportKind::Channel);
        assert_eq!(cli.drop_prob, 0.05);
        assert_eq!(cli.crash_rate, 0.01);
        assert_eq!(cli.recovery_rate, 0.3);
        assert_eq!(cli.dump_tables, Some(PathBuf::from("t.bin")));
        assert!(!cli.fault().is_ideal());
        let off = parse(args("")).unwrap();
        assert_eq!(off.transport, TransportKind::Sim);
        assert!(off.fault().is_ideal());
        assert!(parse(args("--transport carrier-pigeon")).is_err());
    }

    #[test]
    fn single_run_scenario_carries_the_fault_profile() {
        let flags = "--algo GRMP --sizes 40,80 --rounds 40 --drop 0.05 --crash 0.01 --recover 0.3";
        let sc = parse(args(flags)).unwrap().scenario();
        assert_eq!(sc.fault, FaultProfile::faulty(0.05, 0.01, 0.3));
        assert_eq!((sc.n_pms, sc.rep, sc.rounds), (40, 0, 40));
        assert_eq!(sc.algorithm, Algorithm::Grmp);
        assert!(parse(args("")).unwrap().scenario().fault.is_ideal());
    }

    #[test]
    fn fault_probabilities_outside_the_unit_interval_are_rejected() {
        for flag in ["--drop", "--crash", "--recover"] {
            for bad in ["1.5", "-1", "NaN", "inf", "-0.01"] {
                let err = parse(args(&format!("{flag} {bad}"))).unwrap_err();
                assert!(err.contains("within [0, 1]"), "{flag} {bad}: {err}");
            }
            for ok in ["0", "1", "0.5", "1e-3"] {
                assert!(parse(args(&format!("{flag} {ok}"))).is_ok(), "{flag} {ok}");
            }
            assert!(parse(args(&format!("{flag} lots"))).is_err());
        }
    }

    #[test]
    fn profile_and_progress_flags() {
        let cli = parse(args("--profile --progress")).unwrap();
        assert!(cli.profile);
        assert!(cli.progress);
        assert!(cli.profiler().is_on());
        let cli = parse(args("--profile-out p.json")).unwrap();
        assert!(cli.profile, "--profile-out implies --profile");
        assert_eq!(cli.profile_out, Some(PathBuf::from("p.json")));
        let off = parse(args("")).unwrap();
        assert!(!off.profile && !off.progress);
        assert!(!off.profiler().is_on());
        assert!(off.finish_profile("x", &off.profiler()).is_none());
    }

    #[test]
    fn algo_flag_parses_labels_case_insensitively() {
        assert_eq!(
            parse(args("--algo grmp")).unwrap().algo,
            Some(Algorithm::Grmp)
        );
        assert_eq!(
            parse(args("--algo GLAP-noagg")).unwrap().algo,
            Some(Algorithm::GlapNoAggregation)
        );
        assert_eq!(
            parse(args("--algo EcoCloud")).unwrap().algo,
            Some(Algorithm::EcoCloud)
        );
        assert!(parse(args("--algo nope")).is_err());
    }
}

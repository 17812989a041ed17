//! Command line of the benchmark. See `README.md`.

use glap_benchmark::alloc::SwitchedCounter;
use glap_benchmark::child::{out_dir, run_traced_child, run_untraced};
use glap_benchmark::compare;
use glap_benchmark::names;
use glap_benchmark::parent::{self, default_threads, Opts};
use glap_benchmark::workloads::{self, Workload};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: SwitchedCounter = SwitchedCounter;

const USAGE: &str = "\
usage: benchmark/run.sh [SUBCOMMAND] [FLAGS]      (no subcommand: all)

  --workload W --seed S --seconds N --trace 0|1
                     one driver run of workload W: children for about N
                     seconds; the last line of output is the JSON result
  all [--repeats R]  every workload R times (default 5; 2 with --smoke)
                     plus one traced and one single-thread run each;
                     prints every metric, writes benchmark/out/all_*.json,
                     exits non-zero on any failed check
  compare A B        is results file B worse than A on any end-to-end
                     metric? exits non-zero if so
  spread [--runs N] [--seconds S]
                     N driver runs per workload at seeds 1..N; prints each
                     end-to-end metric's inter-quartile spread against a
                     third of its bound
  expected           prints expected/seed0.json for the current code
  manifest           prints BENCHMARK.json from the metric tables

flags: --seed S (default 0)  --threads T (default min(nproc, 4))
       --smoke (toy sizes, same code paths)  --out FILE (all)
       --lint is handled by run.sh (cargo fmt --check, cargo clippy)
";

/// `--key value` pairs, bare `--smoke`, and positionals.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    smoke: bool,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            flags: Vec::new(),
            smoke: false,
        };
        let mut raw = raw;
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some("smoke") => args.smoke = true,
                Some(key) => {
                    let value = raw.next().ok_or(format!("--{key} needs a value"))?;
                    args.flags.push((key.to_string(), value));
                }
                None => args.positional.push(a),
            }
        }
        Ok(args)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.iter().find(|(k, _)| k == key) {
            Some((_, v)) => v.parse().map_err(|_| format!("bad value for --{key}: {v}")),
            None => Ok(default),
        }
    }

    fn workload(&self) -> Result<&'static Workload, String> {
        let name: String = self.get("workload", String::new())?;
        workloads::find(&name).ok_or(format!("unknown workload {name:?}"))
    }

    fn opts(&self) -> Result<Opts, String> {
        Ok(Opts {
            seed: self.get("seed", 0)?,
            threads: self.get("threads", default_threads())?.max(1),
            smoke: self.smoke,
        })
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let opts = args.opts()?;
    match args.positional.first().map(String::as_str) {
        // A child: one run in this process, reported on the last line.
        Some("run-one") => {
            let w = args.workload()?;
            glap_par::set_default_threads(opts.threads);
            let report = if args.get("traced", 0)? == 1 {
                run_traced_child(w, opts.seed, opts.smoke)
            } else {
                run_untraced(w, opts.seed, opts.smoke)
            };
            println!("{}", report.to_json());
            Ok(true)
        }
        // The driver's protocol.
        None if args.flags.iter().any(|(k, _)| k == "workload") => {
            let w = args.workload()?;
            let seconds = args.get("seconds", names::RUN_SECONDS as f64)?;
            let traced = args.get("trace", 0)? == 1;
            let set = parent::measure(w, &opts, seconds, traced);
            let summary = parent::summarise(w, &set, &opts);
            let rows = if traced {
                &summary.per_layer
            } else {
                &summary.end_to_end
            };
            if rows.is_empty() {
                return Err(format!("no run succeeded: {:?}", summary.problems));
            }
            for p in &summary.problems {
                eprintln!("problem: {p}");
            }
            println!("{}", summary.driver_line(traced));
            Ok(true)
        }
        Some("all") | None => {
            let repeats = args.get("repeats", if opts.smoke { 2 } else { 5 })?;
            let summaries = parent::all(&opts, repeats);
            summaries.iter().for_each(parent::Summary::print);
            let default_out = out_dir().join(format!(
                "all_seed{}{}.json",
                opts.seed,
                if opts.smoke { "_smoke" } else { "" }
            ));
            let out: std::path::PathBuf = args.get("out", default_out)?;
            if let Some(dir) = out.parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(&out, parent::results_json(&opts, &summaries))
                .map_err(|e| format!("{}: {e}", out.display()))?;
            println!("wrote {}", out.display());
            Ok(summaries.iter().all(|s| s.correct))
        }
        Some("compare") => {
            let [_, a, b] = args.positional.as_slice() else {
                return Err("compare takes two results files".into());
            };
            let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            compare::compare(&read(a)?, &read(b)?)
        }
        Some("spread") => {
            let seconds = args.get("seconds", names::RUN_SECONDS as f64)?;
            parent::spread(&opts, args.get("runs", 10)?, seconds)
        }
        Some("expected") => {
            println!("{}", parent::expected_json(&opts)?);
            Ok(true)
        }
        Some("manifest") => {
            print!("{}", names::manifest());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match Args::parse(std::env::args().skip(1)).and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

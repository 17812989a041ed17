//! The parent side: spawns one child per run, one at a time, collects
//! their reports, checks outputs against each other and against the
//! committed seed-0 digests, and reduces repeats to medians.

use crate::child::Report;
use crate::json::{fields, JsonObj};
use crate::names::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, Stat};
use crate::workloads::{Workload, WORKLOADS};
use glap_profile::json::Json;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Settings shared by every run of a set.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// Worker threads of the runs under test.
    pub threads: usize,
    pub smoke: bool,
}

/// `min(nproc, 4)`: never more threads than cores.
pub fn default_threads() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A child that has not reported by then counts as a failed operation.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

/// The digests every run at seed 0 must reproduce.
const EXPECTED_SEED0: &str = include_str!("../expected/seed0.json");

pub fn expected_digest(workload: &str, smoke: bool) -> Option<String> {
    let v = Json::parse(EXPECTED_SEED0).ok()?;
    v.get(if smoke { "smoke" } else { "full" })?
        .get(workload)?
        .as_str()
        .map(str::to_string)
}

/// Runs one child to completion and parses the report on its last
/// line. `Err` when it panicked, timed out or reported nonsense.
fn spawn_child(w: &Workload, opts: &Opts, threads: usize, traced: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run-one", "--workload", w.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--threads", &threads.to_string()])
        .args(["--traced", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let started = Instant::now();
    // A report is a few kilobytes, far below the pipe's capacity, so
    // the child never blocks on a parent that reads only after exit.
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break status,
            None if started.elapsed() > CHILD_TIMEOUT => {
                child.kill().ok();
                child.wait().ok();
                return Err(format!("timed out after {CHILD_TIMEOUT:?}"));
            }
            None => std::thread::sleep(Duration::from_millis(2)),
        }
    };
    let out = child
        .wait_with_output()
        .map_err(|e| format!("reading child output: {e}"))?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().ok_or("child printed nothing")?;
    Report::from_json(last)
}

/// Which run a child makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The entry point, untraced, at the set's thread count.
    Untraced,
    /// The composed traced run.
    Traced,
    /// The entry point, untraced, on one thread.
    SingleThread,
}

/// The reports of one workload's runs. An operation is one child; it
/// fails on panic, timeout or any output check, and a failed
/// operation's numbers are not used.
#[derive(Debug, Default)]
pub struct Set {
    pub untraced: Vec<Report>,
    pub traced: Vec<Report>,
    pub single_thread: Vec<Report>,
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
}

impl Set {
    pub fn run(&mut self, w: &Workload, opts: &Opts, kind: Kind) {
        let threads = if kind == Kind::SingleThread {
            1
        } else {
            opts.threads
        };
        self.attempted += 1;
        match spawn_child(w, opts, threads, kind == Kind::Traced) {
            Ok(report) if report.failures.is_empty() => match kind {
                Kind::Untraced => self.untraced.push(report),
                Kind::Traced => self.traced.push(report),
                Kind::SingleThread => self.single_thread.push(report),
            },
            Ok(report) => {
                self.failed += 1;
                self.problems.extend(report.failures);
            }
            Err(e) => {
                self.failed += 1;
                self.problems.push(format!("{kind:?} child: {e}"));
            }
        }
    }

    fn reports(&self) -> impl Iterator<Item = &Report> {
        self.untraced
            .iter()
            .chain(&self.traced)
            .chain(&self.single_thread)
    }
}

/// Fewest untraced repeats a driver run reports a median from.
const MIN_REPEATS: usize = 3;

/// One driver run: children of workload `w`, one at a time, for about
/// `seconds` seconds. Untraced mode repeats the entry point; traced
/// mode repeats the lap (traced, untraced, single-thread).
pub fn measure(w: &Workload, opts: &Opts, seconds: f64, traced: bool) -> Set {
    let mut set = Set::default();
    let started = Instant::now();
    let mut laps = 0;
    loop {
        let lap = Instant::now();
        if traced {
            set.run(w, opts, Kind::Traced);
            set.run(w, opts, Kind::Untraced);
            set.run(w, opts, Kind::SingleThread);
        } else {
            set.run(w, opts, Kind::Untraced);
        }
        laps += 1;
        let enough = if traced { 1 } else { MIN_REPEATS };
        // Stop when another lap as long as this one would overrun.
        if laps >= enough && (started.elapsed() + lap.elapsed()).as_secs_f64() > seconds {
            return set;
        }
    }
}

/// A set reduced to one line per metric.
#[derive(Debug)]
pub struct Summary {
    pub workload: &'static str,
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
    pub digest: String,
    pub problems: Vec<String>,
    /// Empty when the set holds no untraced run.
    pub end_to_end: Vec<(&'static Metric, Stat)>,
    /// Empty when the set holds no traced run.
    pub per_layer: Vec<(&'static Metric, Stat)>,
}

fn samples(reports: &[Report], name: &str) -> Vec<f64> {
    reports
        .iter()
        .map(|r| r.values.get(name).copied().unwrap_or(0.0))
        .collect()
}

pub fn summarise(w: &Workload, set: &Set, opts: &Opts) -> Summary {
    let mut problems = set.problems.clone();

    // Output checks across runs: one digest whatever the repeat, the
    // thread count or the tracing; at seed 0 the committed one.
    let digest = set
        .reports()
        .next()
        .map_or(String::new(), |r| r.digest.clone());
    if set.reports().any(|r| r.digest != digest) {
        let all: Vec<&str> = set.reports().map(|r| r.digest.as_str()).collect();
        problems.push(format!("digests differ between runs: {all:?}"));
    }
    if opts.seed == 0 && !digest.is_empty() {
        match expected_digest(w.name, opts.smoke) {
            Some(expected) if expected == digest => {}
            expected => problems.push(format!(
                "seed-0 digest {digest} is not the committed {expected:?}"
            )),
        }
    }

    let wall = median(&samples(&set.untraced, "wall_s"));
    let pm_rounds = w.pm_rounds(opts.smoke);
    let end_to_end = if set.untraced.is_empty() {
        Vec::new()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let xs = match m.name {
                    "pm_rounds_per_s" => samples(&set.untraced, "wall_s")
                        .iter()
                        .map(|wall| pm_rounds / wall)
                        .collect(),
                    name => samples(&set.untraced, name),
                };
                (m, Stat::of(&xs))
            })
            .collect()
    };

    let per_layer = if set.traced.is_empty() || set.untraced.is_empty() {
        Vec::new()
    } else {
        // Ratios against the untraced runs of the same set.
        let over_wall = |reports: &[Report], name: &str| {
            let xs: Vec<f64> = reports
                .iter()
                .filter_map(|r| r.values.get(name).copied())
                .collect();
            if xs.is_empty() {
                Vec::new()
            } else {
                vec![median(&xs) / wall]
            }
        };
        PER_LAYER
            .iter()
            .map(|m| {
                let xs = match m.name {
                    "process.cpu_sys_s" | "process.minor_faults" => samples(&set.untraced, m.name),
                    "par.wall_speedup" => over_wall(&set.single_thread, "wall_s"),
                    "par.cpu_over_wall" => set
                        .untraced
                        .iter()
                        .map(|r| {
                            let v = |name: &str| r.values.get(name).copied().unwrap_or(0.0);
                            (v("cpu_user_s") + v("process.cpu_sys_s")) / v("wall_s")
                        })
                        .collect(),
                    "bench.trace_overhead_ratio" => over_wall(&set.traced, "traced_wall_s"),
                    name => samples(&set.traced, name),
                };
                let xs = if xs.is_empty() { vec![0.0] } else { xs };
                (m, Stat::of(&xs))
            })
            .collect()
    };

    Summary {
        workload: w.name,
        attempted: set.attempted,
        failed: set.failed,
        correct: set.failed == 0 && problems.is_empty(),
        digest,
        problems,
        end_to_end,
        per_layer,
    }
}

impl Summary {
    /// The one JSON object a driver run prints last: medians of the
    /// end-to-end metrics, or of the per-layer ones for a traced run.
    pub fn driver_line(&self, traced: bool) -> String {
        let rows = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut metrics = JsonObj::new();
        for (m, stat) in rows {
            let mut o = JsonObj::new();
            o.num("value", stat.median).str("unit", m.unit);
            metrics.raw(m.name, &o.finish());
        }
        let mut o = JsonObj::new();
        o.bool("correct", self.correct)
            .num("attempted", self.attempted as f64)
            .num("failed", self.failed as f64)
            .raw("metrics", &metrics.finish());
        o.finish()
    }

    fn rows_json(rows: &[(&Metric, Stat)]) -> String {
        let mut out = JsonObj::new();
        for (m, s) in rows {
            let mut o = JsonObj::new();
            o.num("median", s.median)
                .num("min", s.min)
                .num("max", s.max)
                .num("n", s.n as f64)
                .num("iqr", s.iqr)
                .str("unit", m.unit);
            out.raw(m.name, &o.finish());
        }
        out.finish()
    }

    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.num("attempted", self.attempted as f64)
            .num("failed", self.failed as f64)
            .bool("correct", self.correct)
            .str("digest", &self.digest)
            .raw("end_to_end", &Summary::rows_json(&self.end_to_end))
            .raw("per_layer", &Summary::rows_json(&self.per_layer));
        o.finish()
    }

    /// Every metric by name with its unit, for people.
    pub fn print(&self) {
        println!(
            "== {}: {} ops, {} failed, digest {}{}",
            self.workload,
            self.attempted,
            self.failed,
            self.digest,
            if self.correct {
                ""
            } else {
                "  ** INCORRECT **"
            }
        );
        for p in &self.problems {
            println!("   problem: {p}");
        }
        for (m, s) in self.end_to_end.iter().chain(&self.per_layer) {
            println!(
                "   {:<34} {:>14.6} {:<5} (min {:.6}, max {:.6}, n {})",
                m.name, s.median, m.unit, s.min, s.max, s.n
            );
        }
    }
}

/// The `all` subcommand's sets: `repeats` untraced runs per workload,
/// round-robin over the workloads so machine drift spreads evenly,
/// then one traced and one single-thread run each.
pub fn all(opts: &Opts, repeats: usize) -> Vec<Summary> {
    let mut sets: Vec<Set> = WORKLOADS.iter().map(|_| Set::default()).collect();
    for _ in 0..repeats {
        for (w, set) in WORKLOADS.iter().zip(&mut sets) {
            set.run(w, opts, Kind::Untraced);
        }
    }
    for (w, set) in WORKLOADS.iter().zip(&mut sets) {
        set.run(w, opts, Kind::Traced);
        set.run(w, opts, Kind::SingleThread);
    }
    WORKLOADS
        .iter()
        .zip(&sets)
        .map(|(w, set)| summarise(w, set, opts))
        .collect()
}

/// The `spread` subcommand: `runs` driver runs per workload at seeds
/// `1..=runs`, and for each end-to-end metric the inter-quartile range
/// of the runs' values as a share of their median — what the driver
/// computes before it accepts the benchmark. `Ok(false)` when a spread
/// (other than set-up's) reaches a third of its bound.
pub fn spread(opts: &Opts, runs: u64, seconds: f64) -> Result<bool, String> {
    let mut steady = true;
    for w in &WORKLOADS {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for seed in 1..=runs {
            let opts = Opts { seed, ..*opts };
            let summary = summarise(w, &measure(w, &opts, seconds, false), &opts);
            if !summary.correct {
                return Err(format!("{} seed {seed}: {:?}", w.name, summary.problems));
            }
            for (column, (_, stat)) in values.iter_mut().zip(&summary.end_to_end) {
                column.push(stat.median);
            }
        }
        for (m, xs) in END_TO_END.iter().zip(&values) {
            let s = Stat::of(xs);
            let ok = m.name == "setup_s" || s.spread() < m.bound / 3.0;
            steady &= ok;
            println!(
                "{:<20} {:<16} median {:>14.6} {:<4} spread {:.4}  bound/3 {:.4}  {}",
                w.name,
                m.name,
                s.median,
                m.unit,
                s.spread(),
                m.bound / 3.0,
                if ok { "ok" } else { "TOO WIDE" }
            );
        }
    }
    Ok(steady)
}

/// The text of `expected/seed0.json` for the current code: the digest
/// of one untraced run per workload at seed 0, full and smoke size.
pub fn expected_json(opts: &Opts) -> Result<String, String> {
    let mut o = JsonObj::new();
    for (key, smoke) in [("full", false), ("smoke", true)] {
        let opts = Opts {
            seed: 0,
            smoke,
            ..*opts
        };
        let mut digests = JsonObj::new();
        for w in &WORKLOADS {
            let mut set = Set::default();
            set.run(w, &opts, Kind::Untraced);
            let report = set
                .untraced
                .first()
                .ok_or(format!("{}: {:?}", w.name, set.problems))?;
            digests.str(w.name, &report.digest);
        }
        o.raw(key, &digests.finish());
    }
    Ok(o.finish())
}

/// The results file `all` writes and `compare` reads.
pub fn results_json(opts: &Opts, summaries: &[Summary]) -> String {
    let mut workloads = JsonObj::new();
    for s in summaries {
        workloads.raw(s.workload, &s.to_json());
    }
    let mut o = JsonObj::new();
    o.str("schema", "glap-benchmark-v1")
        .num("seed", opts.seed as f64)
        .num("threads", opts.threads as f64)
        .num("nproc", nproc() as f64)
        .bool("smoke", opts.smoke)
        .raw("workloads", &workloads.finish());
    format!("{}\n", o.finish())
}

/// One end-to-end metric of one workload, read back from a results file.
pub fn read_stats(results: &Json, workload: &str) -> Vec<(String, Stat)> {
    let Some(rows) = results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
    else {
        return Vec::new();
    };
    fields(rows)
        .iter()
        .filter_map(|(name, v)| {
            let f = |key: &str| v.get(key).and_then(Json::as_f64);
            Some((
                name.clone(),
                Stat {
                    median: f("median")?,
                    min: f("min")?,
                    max: f("max")?,
                    n: f("n")? as usize,
                    iqr: f("iqr")?,
                },
            ))
        })
        .collect()
}

//! Regenerates every committed `BENCH_*.json` baseline in one run, all
//! in the uniform `glap-bench-v1` schema (suite, git rev, per-benchmark
//! name/scenario/median ns/iterations):
//!
//! * `BENCH_profile.json`  — the perf-gate suite (what `perf_gate` reads);
//! * `BENCH_hotpath.json`  — the four hot loops at 1024/4096 PMs;
//! * `BENCH_snapshot.json` — checkpoint encode/decode/restore/CRC;
//! * `BENCH_codec.json`    — gossip payload codec encode/exchange costs;
//! * `BENCH_scale.json`    — the 1k→250k PM scale trajectory (per-round
//!   phase costs, including the learn+aggregate round pair; `perf_gate`
//!   prints a 100k/4k advisory from it). The 100k/250k rows take
//!   minutes: `GLAP_BENCH_SKIP_SCALE=1` skips the suite for a quick
//!   refresh of the others.
//!
//! ```text
//! bench_refresh                       # all suites, 300ms budget each
//! GLAP_BENCH_BUDGET_MS=1500 bench_refresh   # steadier medians
//! bench_refresh --out .               # where to write (default repo root)
//! ```
//!
//! Baselines are machine-relative: refresh and commit them from the same
//! class of machine CI runs on, and re-refresh after intentional
//! performance changes so the gate tracks the new normal.

use glap_experiments::{
    codec_records, git_rev, hotpath_records, parse_or_exit, run_suite, scale_records,
    snapshot_records,
};
use glap_profile::Baseline;
use std::path::Path;

/// Per-case sampling budget: `GLAP_BENCH_BUDGET_MS`, else 300ms.
fn budget_ms() -> u64 {
    std::env::var("GLAP_BENCH_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

fn write_suite(dir: &Path, suite: &str, baseline: &Baseline) {
    let path = dir.join(format!("BENCH_{suite}.json"));
    std::fs::write(&path, baseline.to_json()).expect("write baseline");
    eprintln!(
        "wrote {} ({} benchmarks)",
        path.display(),
        baseline.benchmarks.len()
    );
}

fn main() {
    let cli = parse_or_exit();
    // Baselines live at the repo root (committed files), not results/ —
    // only an explicit --out moves them.
    let dir = if cli.out_dir == Path::new("results") {
        std::path::PathBuf::from(".")
    } else {
        cli.out_dir.clone()
    };
    std::fs::create_dir_all(&dir).expect("create output directory");
    let budget = budget_ms();
    let rev = git_rev();
    eprintln!("refreshing baselines at rev {rev}, {budget}ms budget per case…");

    let mut suites = vec![
        ("profile", run_suite(budget)),
        ("hotpath", hotpath_records(budget)),
        ("snapshot", snapshot_records(budget)),
        ("codec", codec_records(budget)),
    ];
    if std::env::var_os("GLAP_BENCH_SKIP_SCALE").is_none() {
        eprintln!("measuring the scale trajectory (100k/250k-PM rows take minutes)…");
        suites.push(("scale", scale_records(budget)));
    } else {
        eprintln!("GLAP_BENCH_SKIP_SCALE set: leaving BENCH_scale.json untouched");
    }
    for (suite, benchmarks) in suites {
        let baseline = Baseline {
            suite: suite.to_string(),
            git_rev: rev.clone(),
            budget_ms: budget,
            benchmarks,
        };
        write_suite(&dir, suite, &baseline);
    }
}

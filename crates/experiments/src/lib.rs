//! # glap-experiments — the evaluation harness
//!
//! Regenerates every figure and table of the GLAP paper's evaluation
//! (§V): scenario grids ([`scenario`]), end-to-end single runs
//! ([`runner`]), per-figure sweeps and aggregation ([`figures`], on the
//! [`glap_par`] worker pool), and text/CSV reporting ([`report`]).
//!
//! One binary per experiment lives in `src/bin/`:
//! `fig5_convergence`, `fig6_packing`, `fig7_overloaded`,
//! `fig8_migrations`, `fig9_cumulative`, `fig10_energy`, `table1_sla`,
//! `ablations`, and `all_experiments` (runs the grid once and emits
//! everything). All accept `--quick` / `--full` / explicit grid options
//! (see [`cli::USAGE`]).

pub mod checkpoint;
pub mod churn;
pub mod cli;
pub mod figures;
pub mod noderun;
pub mod replay;
pub mod report;
pub mod runner;
pub mod scenario;

pub use checkpoint::{
    check_meta, checkpoint_path, decode_result, done_path, encode_checkpoint, encode_result,
};
pub use churn::{build_churn_world, run_churn_scenario, ChurnConfig};
pub use cli::{parse_or_exit, Cli};
pub use figures::{
    ablation_summary, fig10_energy, fig5_convergence, fig6_packing, fig7_overloaded,
    fig8_migrations, fig9_cumulative, run_grid, run_grid_with, table1_sla, FigureOutput,
};
pub use noderun::{
    encode_tables, node_checkpoint_path, run_node_scenario, run_node_scenario_instrumented,
    NodeRunOutcome, TransportKind,
};
pub use replay::{replay_digest, ReplayDigest, RoundDigest};
pub use report::{downsample, fnum, rounds_csv, sparkline, TextTable};
pub use runner::{
    build_policy, build_policy_instrumented, build_world, run_scenario, run_scenario_instrumented,
    run_scenario_traced, scenario_policy, CheckpointOpts,
};
pub use scenario::{Algorithm, Grid, Scenario, VmMix};

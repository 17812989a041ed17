//! Every metric the benchmark emits: name, unit, which way is better,
//! and for end-to-end metrics the share of the parent's median by which
//! it may worsen before a change counts as a regression.
//! `BENCHMARK.json` is generated from these tables (`manifest`
//! subcommand) and a test keeps the two equal.

use crate::json::{array, number, string, JsonObj};
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end metrics only.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees, on every workload. Bounds come from
/// the calibration record in `README.md`.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("wall_s", "s", "lower", 0.25),
    e2e("pm_rounds_per_s", "1/s", "higher", 0.25),
    e2e("cpu_user_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.05),
];

/// Single layers, from the traced run. A layer a workload does not
/// pass through reports 0.
pub const PER_LAYER: [Metric; 83] = [
    layer("workload.generate_s", "s", "lower"),
    layer("workload.clone_s", "s", "lower"),
    layer("workload.trace_mb", "MB", "lower"),
    layer("workload.demand_calls", "count", "lower"),
    layer("workload.playback_round_us", "us", "lower"),
    layer("cluster.place_s", "s", "lower"),
    layer("cluster.clone_s", "s", "lower"),
    layer("cluster.step_us", "us", "lower"),
    layer("cluster.migrations", "count", "lower"),
    layer("cluster.active_pms_final", "count", "lower"),
    layer("cyclon.bootstrap_s", "s", "lower"),
    layer("cyclon.round_us", "us", "lower"),
    layer("qlearn.merge_pair_us", "us", "lower"),
    layer("qlearn.trained_pairs_per_pm", "count", "lower"),
    layer("qlearn.dense_kb_per_pm", "KB", "lower"),
    layer("core.train_s", "s", "lower"),
    layer("core.train.head_s", "s", "lower"),
    layer("core.train.learn_round_ms_p50", "ms", "lower"),
    layer("core.train.learn_round_ms_p90", "ms", "lower"),
    layer("core.train.tail_s", "s", "lower"),
    layer("core.train.updates", "count", "lower"),
    layer("core.train.updates_per_s", "1/s", "higher"),
    layer("core.train.pms_trained", "count", "higher"),
    layer("core.unify_s", "s", "lower"),
    layer("core.final_diameter", "q", "lower"),
    layer("core.policy.init_s", "s", "lower"),
    layer("core.policy.round_us_p50", "us", "lower"),
    layer("core.policy.round_us_p95", "us", "lower"),
    layer("core.policy.total_s", "s", "lower"),
    layer("dcsim.day_s", "s", "lower"),
    layer("dcsim.round_us_p50", "us", "lower"),
    layer("dcsim.round_us_p95", "us", "lower"),
    layer("dcsim.engine_self_s", "s", "lower"),
    layer("dcsim.net.dropped", "count", "lower"),
    layer("baselines.grmp.round_us_p50", "us", "lower"),
    layer("baselines.grmp.total_s", "s", "lower"),
    layer("baselines.bfd_s", "s", "lower"),
    layer("metrics.collect_s", "s", "lower"),
    layer("metrics.finalize_s", "s", "lower"),
    layer("node.new_s", "s", "lower"),
    layer("node.learn_round_ms_p50", "ms", "lower"),
    layer("node.learn_round_ms_p90", "ms", "lower"),
    layer("node.agg_round_ms_p50", "ms", "lower"),
    layer("node.agg_round_ms_p90", "ms", "lower"),
    layer("node.dispatches", "count", "lower"),
    layer("node.dispatch_us_p50", "us", "lower"),
    layer("node.dispatch_us_p95", "us", "lower"),
    layer("node.dispatch_total_s", "s", "lower"),
    layer("node.train_all_s", "s", "lower"),
    layer("node.driver_self_s", "s", "lower"),
    layer("node.wire_msgs", "count", "lower"),
    layer("node.wire_bytes", "B", "lower"),
    layer("node.wire_kb_per_node_round", "KB", "lower"),
    layer("node.merge_retried", "count", "lower"),
    layer("node.into_tables_s", "s", "lower"),
    layer("node.channel.round_trips", "count", "lower"),
    layer("node.channel.dispatch_us_p50", "us", "lower"),
    layer("node.channel.dispatch_us_p95", "us", "lower"),
    layer("node.channel.wall_ratio", "x", "lower"),
    layer("node.channel.sys_s", "s", "lower"),
    layer("codec.encode_us_p50", "us", "lower"),
    layer("codec.exchange_us_p50", "us", "lower"),
    layer("codec.payload_bytes_mean", "B", "lower"),
    layer("codec.payloads", "count", "lower"),
    layer("codec.full_payloads", "count", "lower"),
    layer("codec.bytes_saved", "B", "higher"),
    layer("codec.fallbacks", "count", "lower"),
    layer("codec.decode_errors", "count", "lower"),
    layer("par.wall_speedup", "x", "higher"),
    layer("par.cpu_over_wall", "x", "higher"),
    layer("snapshot.encode_ms", "ms", "lower"),
    layer("snapshot.bytes", "B", "lower"),
    layer("snapshot.decode_restore_ms", "ms", "lower"),
    layer("telemetry.counting_wall_ratio", "x", "lower"),
    layer("process.cpu_sys_s", "s", "lower"),
    layer("process.minor_faults", "count", "lower"),
    layer("process.allocs_per_pm_round", "count", "lower"),
    layer("process.alloc_mb", "MB", "lower"),
    layer("experiments.build_world_s", "s", "lower"),
    layer("experiments.encode_tables_s", "s", "lower"),
    layer("experiments.teardown_s", "s", "lower"),
    layer("experiments.run.unattributed_s", "s", "lower"),
    layer("bench.trace_overhead_ratio", "x", "lower"),
];

pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u64 = 20;

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let strings = |xs: &[&str]| array(&xs.iter().map(|s| string(s)).collect::<Vec<_>>());
    let metric = |m: &Metric, with_bound: bool| {
        let mut o = JsonObj::new();
        o.str("name", m.name)
            .str("unit", m.unit)
            .str("better", m.better);
        if with_bound {
            o.num("bound", m.bound);
        }
        o.finish()
    };
    let lines = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            let mut o = JsonObj::new();
            o.str("name", w.name).str("why", w.why);
            o.finish()
        })
        .collect();
    let fields = [
        ("command", strings(&["bash", "benchmark/run.sh"])),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", number(RUN_SECONDS as f64)),
        ("workloads", lines(workloads)),
        (
            "end_to_end",
            lines(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            lines(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  {}: {v}", string(k)))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

//! One child process = one run of one workload, so that peak RSS and
//! CPU time belong to that run alone. The child reports on its last
//! line of standard output; the parent ([`crate::parent`]) reads it.

use crate::json::{array, fields, string, JsonObj};
use crate::procstat::{peak_rss_mb, ProcStat};
use crate::spans;
use crate::traced::{run_traced, Outputs};
use crate::workloads::{Entry, Workload};
use glap_experiments::{
    build_world, rounds_csv, run_node_scenario, run_scenario, CheckpointOpts, TransportKind,
};
use glap_profile::json::Json;
use glap_telemetry::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// What one child measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// CRC32 over everything the run produced, as 8 hex digits.
    pub digest: String,
    /// Output checks that failed, in words; empty when all passed.
    pub failures: Vec<String>,
    pub values: BTreeMap<String, f64>,
}

/// CRC32 of every result's `rounds_csv`, final SLA bits and BFD bins,
/// plus the fleet's serialized tables.
pub fn digest(outputs: &Outputs) -> String {
    let mut bytes = Vec::new();
    for r in &outputs.results {
        bytes.extend_from_slice(rounds_csv(r).as_bytes());
        bytes.extend_from_slice(&r.sla.slav.to_bits().to_le_bytes());
        bytes.extend_from_slice(&(r.bfd_bins as u64).to_le_bytes());
    }
    if let Some(tables) = &outputs.tables {
        bytes.extend_from_slice(tables);
    }
    format!("{:08x}", glap_snapshot::crc32(&bytes))
}

/// Checks every run can be held to whatever its seed: full-length
/// series, a plausible active-PM count, finite SLA metrics.
pub fn check_outputs(w: &Workload, outputs: &Outputs, smoke: bool) -> Vec<String> {
    let size = w.size(smoke);
    let mut failures = Vec::new();
    for r in &outputs.results {
        let who = &r.algorithm;
        if r.collector.samples.len() as u64 != size.rounds {
            failures.push(format!(
                "{who}: {} round samples, expected {}",
                r.collector.samples.len(),
                size.rounds
            ));
        }
        if let Some(s) = r.collector.samples.last() {
            if s.active_pms == 0 || s.active_pms > size.n_pms {
                failures.push(format!("{who}: {} active PMs at end of day", s.active_pms));
            }
        }
        if !(r.sla.slav.is_finite() && r.sla.slavo.is_finite() && r.sla.slalm.is_finite()) {
            failures.push(format!("{who}: SLA metrics not finite"));
        }
        if r.bfd_bins == 0 || r.bfd_bins > size.n_pms {
            failures.push(format!("{who}: BFD baseline of {} bins", r.bfd_bins));
        }
    }
    if (w.entry == Entry::Fleet) != outputs.tables.is_some() {
        failures.push("fleet tables missing or unexpected".into());
    }
    failures
}

/// Calls the entry point a user's binary calls, untraced.
pub fn entry_point(w: &Workload, seed: u64, smoke: bool) -> Result<Outputs, String> {
    let scenarios = w.scenarios(seed, smoke);
    match w.entry {
        Entry::Sim => Ok(Outputs {
            results: scenarios.iter().map(run_scenario).collect(),
            tables: None,
        }),
        Entry::Fleet => {
            let outcome = run_node_scenario(
                &scenarios[0],
                TransportKind::Sim,
                None,
                &Tracer::off(),
                &CheckpointOpts::default(),
            )
            .map_err(|e| format!("run_node_scenario: {e}"))?;
            Ok(Outputs {
                results: outcome.result.into_iter().collect(),
                tables: outcome.tables,
            })
        }
    }
}

/// The untraced run: a stand-alone timed `build_world`, then one timed
/// call of the entry point (which builds its world itself).
pub fn run_untraced(w: &Workload, seed: u64, smoke: bool) -> Report {
    let scenarios = w.scenarios(seed, smoke);
    let t = Instant::now();
    drop(std::hint::black_box(build_world(&scenarios[0])));
    let setup_s = t.elapsed().as_secs_f64();

    let before = ProcStat::read();
    let t = Instant::now();
    let outputs = entry_point(w, seed, smoke);
    let wall_s = t.elapsed().as_secs_f64();
    let used = ProcStat::read().since(&before);

    let mut report = Report::default();
    match outputs {
        Ok(outputs) => {
            report.digest = digest(&outputs);
            report.failures = check_outputs(w, &outputs, smoke);
        }
        Err(e) => report.failures.push(e),
    }
    let mut set = |name: &str, v: f64| report.values.insert(name.to_string(), v);
    set("setup_s", setup_s);
    set("wall_s", wall_s);
    set("cpu_user_s", used.user_s);
    set("peak_rss_mb", peak_rss_mb());
    set("process.cpu_sys_s", used.sys_s);
    set("process.minor_faults", used.minor_faults as f64);
    report
}

/// The traced run; also writes `benchmark/out/trace_<workload>.json`.
pub fn run_traced_child(w: &Workload, seed: u64, smoke: bool) -> Report {
    let traced = run_traced(w, seed, smoke);
    let mut failures = check_outputs(w, &traced.outputs, smoke);
    failures.extend(traced.failures);
    let dir = out_dir();
    let path = dir.join(format!("trace_{}.json", w.name));
    if let Err(e) = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::to_json(w.name, &traced.spans)))
    {
        failures.push(format!("writing {}: {e}", path.display()));
    }
    Report {
        digest: digest(&traced.outputs),
        failures,
        values: traced
            .values
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect(),
    }
}

/// Where traces and result files go (ignored by git). Relative to the
/// repo root, which `run.sh` makes the working directory, so a moved
/// checkout never writes outside itself.
pub fn out_dir() -> std::path::PathBuf {
    std::path::PathBuf::from("benchmark/out")
}

impl Report {
    pub fn to_json(&self) -> String {
        let mut values = JsonObj::new();
        for (k, v) in &self.values {
            values.num(k, *v);
        }
        let failures: Vec<String> = self.failures.iter().map(|f| string(f)).collect();
        let mut o = JsonObj::new();
        o.str("digest", &self.digest)
            .raw("failures", &array(&failures))
            .raw("values", &values.finish());
        o.finish()
    }

    pub fn from_json(text: &str) -> Result<Report, String> {
        let v = Json::parse(text)?;
        let digest = v
            .get("digest")
            .and_then(Json::as_str)
            .ok_or("child report without digest")?
            .to_string();
        let failures = v
            .get("failures")
            .and_then(Json::as_arr)
            .ok_or("child report without failures")?
            .iter()
            .filter_map(|f| f.as_str().map(str::to_string))
            .collect();
        let values = fields(v.get("values").ok_or("child report without values")?)
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
            .collect();
        Ok(Report {
            digest,
            failures,
            values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_its_json_line() {
        let mut r = Report {
            digest: "00c0ffee".into(),
            failures: vec!["a \"quoted\" failure".into()],
            ..Report::default()
        };
        r.values.insert("wall_s".into(), 1.2034);
        r.values.insert("node.dispatches".into(), 123456.0);
        assert_eq!(Report::from_json(&r.to_json()), Ok(r));
    }
}

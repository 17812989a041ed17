//! `BENCHMARK.json` lists exactly what the binary emits, within the
//! driver's limits.

use glap_benchmark::names::{manifest, END_TO_END, PER_LAYER, RUN_SECONDS};
use glap_benchmark::parent::expected_digest;
use glap_benchmark::workloads::WORKLOADS;
use glap_profile::json::Json;

fn name_ok(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn committed_manifest_is_the_generated_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        manifest(),
        "regenerate with: bash benchmark/run.sh manifest > BENCHMARK.json"
    );
    assert!(committed.len() <= 64 * 1024);

    let v = Json::parse(&committed).unwrap();
    let keys: Vec<&str> = glap_benchmark::json::fields(&v)
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        v.get("run_seconds").and_then(Json::as_u64),
        Some(RUN_SECONDS)
    );
    let names = |key: &str| -> Vec<String> {
        v.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name));
    assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name));
    assert_eq!(names("per_layer"), PER_LAYER.map(|m| m.name));
}

#[test]
fn tables_stay_within_the_drivers_limits() {
    assert_eq!(WORKLOADS.len(), 5);
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    assert!((1..=60).contains(&RUN_SECONDS));
    let mut seen = std::collections::BTreeSet::new();
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(name_ok(m.name), "{}", m.name);
        assert!(unit_ok(m.unit), "{}: unit {}", m.name, m.unit);
        assert!(["lower", "higher"].contains(&m.better), "{}", m.name);
        assert!(seen.insert(m.name), "{} is used twice", m.name);
    }
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    for w in &WORKLOADS {
        assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: {}",
            w.name,
            w.why.len()
        );
        for smoke in [false, true] {
            assert!(
                expected_digest(w.name, smoke).is_some(),
                "{} has no seed-0 digest",
                w.name
            );
        }
    }
}

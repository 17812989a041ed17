//! The composed traced path equals the entry points on toy (smoke-size)
//! scenarios, its span tree is well formed, and its layers sum to the
//! whole.

use glap_benchmark::child::{check_outputs, digest, run_untraced};
use glap_benchmark::names::PER_LAYER;
use glap_benchmark::spans::{self, PAUSE, ROOT};
use glap_benchmark::traced::run_traced;
use glap_benchmark::workloads::{Entry, WORKLOADS};

#[test]
fn traced_run_equals_the_entry_point_on_every_workload() {
    for w in &WORKLOADS {
        let traced = run_traced(w, 3, true);
        assert_eq!(traced.failures, Vec::<String>::new(), "{}", w.name);
        assert!(
            check_outputs(w, &traced.outputs, true).is_empty(),
            "{}",
            w.name
        );
        let untraced = run_untraced(w, 3, true);
        assert_eq!(untraced.failures, Vec::<String>::new(), "{}", w.name);
        assert_eq!(digest(&traced.outputs), untraced.digest, "{}", w.name);

        // Names: only declared ones (plus the raw traced wall the
        // parent turns into a ratio), each well formed.
        for name in traced.values.keys() {
            assert!(
                *name == "traced_wall_s" || PER_LAYER.iter().any(|m| m.name == *name),
                "{}: undeclared metric {name}",
                w.name
            );
        }

        // The tree: children inside parents, one root per entry-point
        // call, and children + unattributed = parent within 1%.
        let s = &traced.spans;
        spans::check_tree(s).unwrap();
        let roots: Vec<usize> = (0..s.len()).filter(|&i| s[i].name == ROOT).collect();
        assert_eq!(roots.len(), w.algorithms.len(), "{}", w.name);
        for &r in &roots {
            assert_eq!(s[r].parent, None);
            let children: f64 = s
                .iter()
                .filter(|c| c.parent == Some(r))
                .map(|c| c.secs())
                .sum();
            let whole = s[r].secs();
            assert!(
                (children + spans::self_secs(s, r) - whole).abs() <= 0.01 * whole,
                "{}: {children} + self != {whole}",
                w.name
            );
        }
        let layers: f64 = s
            .iter()
            .filter(|c| c.parent.is_some_and(|p| roots.contains(&p)) && c.name != PAUSE)
            .map(|c| c.secs())
            .sum();
        let wall = traced.values["traced_wall_s"];
        let unattributed = traced.values["experiments.run.unattributed_s"];
        assert!(
            (layers + unattributed - wall).abs() <= 0.01 * wall,
            "{}",
            w.name
        );
        assert!(
            unattributed <= 0.02 * wall,
            "{}: {unattributed} of {wall}",
            w.name
        );

        // Each workload passes through the layers it was chosen for.
        let v = |name: &str| traced.values.get(name).copied().unwrap_or(0.0);
        match w.entry {
            Entry::Sim => {
                assert!(v("core.train_s") > 0.0 && v("core.train.updates") > 0.0);
                assert_eq!(v("node.dispatches"), 0.0);
                assert!(v("cyclon.round_us") > 0.0);
            }
            Entry::Fleet => {
                assert!(v("node.dispatches") > 0.0 && v("node.wire_bytes") > 0.0);
                assert_eq!(v("core.train_s"), 0.0);
                assert!(v("codec.exchange_us_p50") > 0.0);
            }
        }
        assert!(v("dcsim.day_s") > 0.0 && v("snapshot.bytes") > 0.0);
        assert_eq!(v("baselines.grmp.total_s") > 0.0, w.name == "day_pair");
        assert_eq!(v("node.channel.round_trips") > 0.0, w.channel_probe);
        assert_eq!(v("telemetry.counting_wall_ratio") > 0.0, w.counting_probe);
        assert_eq!(v("codec.payloads") > 0.0, w.name == "fleet_delta_faulty");
    }
}

#[test]
fn delta_fleet_ships_far_fewer_bytes_and_retries_on_the_faulty_net() {
    let wire = |name: &str| {
        let w = glap_benchmark::workloads::find(name).unwrap();
        let t = run_traced(w, 3, true);
        (
            t.values["node.wire_kb_per_node_round"],
            t.values["node.merge_retried"],
        )
    };
    let (identity_kb, identity_retried) = wire("fleet_identity");
    let (delta_kb, delta_retried) = wire("fleet_delta_faulty");
    assert!(delta_kb * 4.0 <= identity_kb, "{delta_kb} vs {identity_kb}");
    assert_eq!(identity_retried, 0.0);
    assert!(delta_retried > 0.0);
}

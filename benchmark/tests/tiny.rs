//! Fast checks of the benchmark itself, on k=4 versions of its workloads.

use uno_benchmark::report::{end_to_end, per_layer, violations};
use uno_benchmark::run::{run_once, Rep};
use uno_benchmark::workloads::{Traffic, Workload, NAMES};

fn tiny(name: &str) -> Workload {
    Workload::named(name).expect("known workload").tiny()
}

/// A workload's flows at `seed` as comparable tuples.
fn flows(w: &Workload, seed: u64) -> Vec<(u8, u32, u8, u32, u64, u64)> {
    w.specs(seed)
        .iter()
        .map(|s| (s.src_dc, s.src_idx, s.dst_dc, s.dst_idx, s.size, s.start))
        .collect()
}

#[test]
fn traced_runs_reproduce_untraced_runs() {
    for name in NAMES {
        let w = tiny(name);
        let untraced = run_once(&w, 7, false);
        let traced = run_once(&w, 7, true);
        assert!(
            untraced.sim.violations.is_empty(),
            "{name}: {:?}",
            untraced.sim.violations
        );
        assert_eq!(
            untraced.sim, traced.sim,
            "{name}: the timing wrappers changed the run"
        );
        let again = run_once(&w, 7, false);
        assert!(
            violations(&[&untraced, &traced, &again]).is_empty(),
            "{name}"
        );

        let l = traced.layers.expect("traced");
        assert_eq!(l.start_calls, untraced.sim.flows as u64, "{name}");
        assert!(l.packet_calls > 0 && l.cc_calls > 0, "{name}: {l:?}");
        assert!(
            l.cc_ns <= l.transport_ns,
            "{name}: CC time lies inside transport time"
        );
        let layer_s = (l.transport_ns + l.telemetry_ns) as f64 * 1e-9;
        assert!(layer_s <= traced.run_s, "{name}: layers exceed the run");
        assert_eq!(l.telemetry_calls > 0, w.telemetry.is_some(), "{name}");
        if name == "incast_2dc" {
            // Loss recovery runs under the wrappers too.
            assert!(
                traced.sim.counters.get("rc.retransmits") > 0,
                "{name}: no losses"
            );
        }
    }
}

#[test]
fn seeds_change_the_inputs_and_both_run_clean() {
    for name in ["websearch_wan_mix", "permutation_4dc"] {
        let w = tiny(name);
        assert_ne!(flows(&w, 1), flows(&w, 2), "{name}");
        assert_eq!(flows(&w, 1), flows(&w, 1), "{name}");
        for seed in [1, 2] {
            let r = run_once(&w, seed, false);
            assert!(
                r.sim.violations.is_empty(),
                "{name} seed {seed}: {:?}",
                r.sim.violations
            );
        }
    }
}

#[test]
fn mix_sizes_are_the_same_multiset_on_every_seed() {
    let w = tiny("websearch_wan_mix");
    let Traffic::Mix { flows, .. } = w.traffic else {
        panic!("mix workload expected");
    };
    let sorted = |seed| {
        let specs = w.specs(seed);
        let inter = specs.iter().filter(|s| s.is_inter()).count();
        let mut sizes: Vec<u64> = specs.iter().map(|s| s.size).collect();
        sizes.sort_unstable();
        (inter, sizes)
    };
    let (inter, sizes) = sorted(3);
    assert_eq!(sizes.len(), flows);
    assert_eq!(inter, flows / 5, "4:1 intra:inter");
    assert_eq!(sorted(4), (inter, sizes));
}

#[test]
fn incast_finishes_no_sooner_than_its_bottleneck_allows() {
    let w = tiny("incast_2dc");
    let r = run_once(&w, 1, false);
    assert!(r.sim.violations.is_empty(), "{:?}", r.sim.violations);
    assert!(r.sim.slowdowns.iter().all(|&s| s >= 1.0));
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    let entries = doc
        .get(list)
        .and_then(|v| v.as_array())
        .expect("metric list");
    entries
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(|v| v.as_str())
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn reported(metrics: &[uno_benchmark::report::Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_metric_is_named_with_its_declared_unit() {
    let w = tiny("websearch_wan_mix");
    let reps: Vec<Rep> = (0..2).map(|i| run_once(&w, 5, i == 1)).collect();
    let untraced = [&reps[0]];
    let traced = [&reps[1]];

    let e2e = end_to_end(&reps[..1], &[reps[0].setup.total_s()]);
    assert_eq!(reported(&e2e), declared("end_to_end"));
    assert!(
        e2e.iter().all(|m| m.value > 0.0 && m.value.is_finite()),
        "{e2e:?}"
    );

    let layers = per_layer(&untraced, &traced);
    assert_eq!(reported(&layers), declared("per_layer"));
    assert!(
        layers.iter().all(|m| m.value >= 0.0 && m.value.is_finite()),
        "{layers:?}"
    );
    let sum: f64 = [
        "engine.self_s",
        "transport.self_s",
        "cc.busy_s",
        "telemetry.busy_s",
    ]
    .iter()
    .map(|n| layers.iter().find(|m| m.name == *n).expect(n).value)
    .sum();
    assert!(
        (sum - reps[1].run_s).abs() < 1e-6,
        "layers sum to {sum}, run took {}",
        reps[1].run_s
    );
}

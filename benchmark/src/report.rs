//! Turning repetitions into the reported metrics, and the result line.

use uno::metrics::percentile_of_sorted;

use crate::run::Rep;

/// A reported metric and the number of samples behind it.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Median (the mean of the middle two for an even count).
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    percentile_of_sorted(&xs, 0.5)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Every check the repetitions failed: the first one's output checks, and
/// any later repetition whose simulated outcome differs from the first.
pub fn violations(reps: &[&Rep]) -> Vec<String> {
    let first = &reps[0].sim;
    let mut v = first.violations.clone();
    for (i, r) in reps.iter().enumerate().skip(1) {
        if r.sim != *first {
            v.push(format!(
                "repetition {i} ({}) diverged from repetition 0: events {} vs {}, FCT digest {:016x} vs {:016x}, counters {}",
                if r.layers.is_some() { "traced" } else { "untraced" },
                r.sim.events,
                first.events,
                r.sim.fct_digest,
                first.fct_digest,
                if r.sim.counters == first.counters { "equal" } else { "differ" },
            ));
        }
    }
    v
}

/// End-to-end metrics of untraced repetitions and of set-up-only trials
/// (`setups`).
pub fn end_to_end(reps: &[Rep], setups: &[f64]) -> Vec<Metric> {
    let n = reps.len();
    let sim = &reps[0].sim;
    let flows = sim.slowdowns.len();
    vec![
        metric("setup_s", median(setups.to_vec()), "s", setups.len()),
        metric(
            "run_s",
            median(reps.iter().map(|r| r.run_s).collect()),
            "s",
            n,
        ),
        metric(
            "peak_rss_mib",
            median(
                reps.iter()
                    .map(|r| r.peak_rss_kib as f64 / 1024.0)
                    .collect(),
            ),
            "MiB",
            n,
        ),
        metric(
            "slowdown_p50",
            percentile_of_sorted(&sim.slowdowns, 0.5),
            "ratio",
            flows,
        ),
        metric(
            "completed_share",
            1.0 - ratio(sim.failed as f64, sim.flows as f64),
            "ratio",
            sim.flows,
        ),
    ]
}

/// Per-layer metrics. Set-up, throughput and CPU figures are medians over
/// the untraced repetitions; layer times and counts come from the traced
/// repetition with the median run time, so engine, transport, CC and
/// telemetry self times sum to that repetition's `run_s`.
pub fn per_layer(untraced: &[&Rep], traced: &[&Rep]) -> Vec<Metric> {
    let nu = untraced.len();
    let med = |f: fn(&Rep) -> f64| median(untraced.iter().map(|r| f(r)).collect());
    let mut by_time = traced.to_vec();
    by_time.sort_by(|a, b| a.run_s.total_cmp(&b.run_s));
    let m = by_time[(by_time.len() - 1) / 2];
    let l = m.layers.expect("traced repetitions carry layer totals");
    let c = &m.sim.counters;

    let run_s = med(|r| r.run_s);
    let events = m.sim.events as f64;
    let transport_self_ns = l.transport_ns.saturating_sub(l.cc_ns) as f64;
    let engine_self_s = m.run_s - (l.transport_ns + l.telemetry_ns) as f64 * 1e-9;
    let calls = (l.start_calls + l.packet_calls + l.timer_calls) as f64;
    let count = |name: &'static str| metric(name, c.get(name) as f64, "count", 1);
    let flows = m.sim.slowdowns.len();
    vec![
        metric("workloads.gen_s", med(|r| r.setup.gen_s), "s", nu),
        metric("topology.build_s", med(|r| r.setup.build_s), "s", nu),
        metric("experiment.add_spec_s", med(|r| r.setup.add_s), "s", nu),
        metric(
            "setup.rss_mib",
            med(|r| r.setup.rss_kib as f64 / 1024.0),
            "MiB",
            nu,
        ),
        metric("engine.events", events, "count", 1),
        metric("engine.self_s", engine_self_s, "s", 1),
        metric(
            "engine.self_ns_per_event",
            ratio(engine_self_s * 1e9, events),
            "ns",
            1,
        ),
        metric("engine.events_per_s", ratio(events, run_s), "1/s", nu),
        metric("transport.calls", calls, "count", 1),
        metric("transport.packet_calls", l.packet_calls as f64, "count", 1),
        metric("transport.timer_calls", l.timer_calls as f64, "count", 1),
        metric("transport.start_calls", l.start_calls as f64, "count", 1),
        metric("transport.self_s", transport_self_ns * 1e-9, "s", 1),
        metric(
            "transport.ns_per_call",
            ratio(transport_self_ns, calls),
            "ns",
            1,
        ),
        metric("cc.calls", l.cc_calls as f64, "count", 1),
        metric("cc.busy_s", l.cc_ns as f64 * 1e-9, "s", 1),
        metric(
            "cc.ns_per_call",
            ratio(l.cc_ns as f64, l.cc_calls as f64),
            "ns",
            1,
        ),
        count("cc.epochs"),
        count("cc.epoch_md"),
        count("queue.drops"),
        count("queue.ecn_marks"),
        count("queue.phantom_marks"),
        count("link.tx_packets"),
        metric(
            "queue.drop_ratio",
            ratio(c.get("queue.drops") as f64, c.get("link.tx_packets") as f64),
            "ratio",
            1,
        ),
        count("rc.nacks"),
        count("rc.retransmits"),
        count("rc.rtos"),
        metric(
            "rc.retransmit_ratio",
            ratio(c.get("rc.retransmits") as f64, m.sim.data_packets as f64),
            "ratio",
            1,
        ),
        count("lb.reroutes"),
        metric(
            "slowdown_p99",
            percentile_of_sorted(&m.sim.slowdowns, 0.99),
            "ratio",
            flows,
        ),
        metric("telemetry.calls", l.telemetry_calls as f64, "count", 1),
        metric("telemetry.busy_s", l.telemetry_ns as f64 * 1e-9, "s", 1),
        metric(
            "trace.overhead_ratio",
            ratio(median(traced.iter().map(|r| r.run_s).collect()), run_s),
            "ratio",
            traced.len(),
        ),
        metric("run_cpu_s", med(|r| r.run_cpu_s), "s", nu),
    ]
}

/// The benchmark's last output line.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                r#""{}": {{"value": {value}, "unit": "{}"}}"#,
                m.name, m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

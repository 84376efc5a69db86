//! The engine's cost table accounts for the run loop: on an incast of at
//! least 500k events, the estimated self times of all stages sum to 0.9–1.1
//! of `Simulator::wall_seconds`, and the table's own clock reads stay under
//! 2% of it. Alone in its binary, so no other test shares the cores while
//! the run is timed.

use uno::sim::SECONDS;
use uno::{Experiment, ExperimentConfig, SchemeSpec};
use uno_workloads::incast;

/// The calling thread's on-CPU time in ns (Linux `schedstat`), which
/// leaves out time the scheduler or the hypervisor gave to someone else.
fn on_cpu_ns() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

/// One timed incast.
struct Run {
    events: u64,
    stages_ns: f64,
    wall_ns: f64,
    on_cpu_ns: Option<f64>,
    overhead: f64,
}

fn incast_run() -> Run {
    let mut exp = Experiment::new(ExperimentConfig::quick(SchemeSpec::uno(), 1));
    let hosts = exp.sim.topo.params.hosts_per_dc() as u32;
    exp.add_specs(&incast(8, 8, 16 << 20, hosts));
    let cpu_before = on_cpu_ns();
    let r = exp.run(10 * SECONDS);
    let cpu_after = on_cpu_ns();
    assert!(r.all_completed);
    Run {
        events: r.manifest.events_processed,
        stages_ns: r.costs.total_ns(),
        wall_ns: r.manifest.wall_seconds * 1e9,
        on_cpu_ns: cpu_before.zip(cpu_after).map(|(a, b)| b - a),
        overhead: r.costs.overhead(),
    }
}

#[test]
fn stage_times_cover_the_run_loop() {
    // Time the host takes away between timed events is wall time that no
    // stage sees. A run that lost more than 5% of its wall time that way
    // is repeated; if the host stays that busy for three runs, the last
    // one is checked against its on-CPU time instead.
    for attempt in 1..=3 {
        let run = incast_run();
        assert!(run.events >= 500_000, "{} events", run.events);
        assert!(run.overhead <= 0.02, "clock overhead {:.4}", run.overhead);
        let on_cpu = run.on_cpu_ns.unwrap_or(run.wall_ns);
        let busy = on_cpu < 0.95 * run.wall_ns;
        eprintln!(
            "run {attempt}: {} events, stages {:.3} s, loop wall {:.3} s, on-CPU {:.3} s, \
             clock overhead {:.2}%",
            run.events,
            run.stages_ns / 1e9,
            run.wall_ns / 1e9,
            on_cpu / 1e9,
            100.0 * run.overhead
        );
        if busy && attempt < 3 {
            continue;
        }
        let base = if busy { on_cpu } else { run.wall_ns };
        let coverage = run.stages_ns / base;
        assert!(
            (0.9..=1.1).contains(&coverage),
            "stage times ÷ {} = {coverage:.3}",
            if busy { "on-CPU time" } else { "loop wall" }
        );
        return;
    }
}

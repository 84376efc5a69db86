//! Benchmark entry point. One workload per process:
//!
//! ```text
//! uno-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the untraced workload for about `--seconds` and
//! reports the end-to-end metrics; `--trace 1` alternates untraced and
//! traced repetitions and reports the per-layer metrics. The last stdout
//! line is one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! A violated output check prints that object with `"correct": false`,
//! names the violations on stderr and exits 1; bad arguments exit 2.

use std::process::ExitCode;
use std::time::Instant;

use uno_benchmark::report::{self, median, Metric};
use uno_benchmark::run::{release_free_memory, run_once, setup, Rep};
use uno_benchmark::workloads::{Workload, NAMES};

/// Repetitions every run makes, so it can check that a seed repeats (in
/// a traced run: one untraced, one traced).
const MIN_REPS: usize = 2;
/// Set-up-only trials behind `setup_s`.
const SETUPS: usize = 15;
/// Flows needed behind a p99 (ten beyond it).
const P99_FLOWS: usize = 1000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let names = NAMES.join(", ");
                workload = Some(
                    Workload::named(&value)
                        .ok_or_else(|| bad(&format!("expected one of {names}")))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Repeat `step` until the next call would likely end past `seconds`,
/// making at least `min` calls.
fn repeat<T>(seconds: f64, min: usize, mut step: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(step(out.len()));
        let elapsed = start.elapsed().as_secs_f64();
        let next = elapsed * (out.len() + 1) as f64 / out.len() as f64;
        if out.len() >= min && next > seconds {
            return out;
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: uno-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (w, seed) = (&args.workload, args.seed);
    let (reps, metrics): (Vec<Rep>, Vec<Metric>) = if args.trace {
        // Untraced first, then alternate with traced repetitions.
        let reps = repeat(args.seconds, MIN_REPS, |i| run_once(w, seed, i % 2 == 1));
        let (traced, untraced): (Vec<&Rep>, Vec<&Rep>) =
            reps.iter().partition(|r| r.layers.is_some());
        if traced.iter().any(|t| t.sim != untraced[0].sim) {
            eprintln!("!!! PER-LAYER NUMBERS INVALID: the traced run's events, counters or FCTs differ from the untraced run's !!!");
        }
        let metrics = report::per_layer(&untraced, &traced);
        (reps, metrics)
    } else {
        let reps = repeat(args.seconds, MIN_REPS, |_| run_once(w, seed, false));
        let setups: Vec<f64> = (0..SETUPS)
            .map(|_| {
                release_free_memory();
                setup(w, seed, false).2.total_s()
            })
            .collect();
        let isolated = reps.iter().filter(|r| r.rss_isolated()).count();
        println!(
            "peak RSS isolation held in {isolated} of {} repetitions (resident at reset: {:.1} MiB median)",
            reps.len(),
            median(reps.iter().map(|r| r.base_rss_kib as f64 / 1024.0).collect())
        );
        let metrics = report::end_to_end(&reps, &setups);
        (reps, metrics)
    };
    let violations = report::violations(&reps.iter().collect::<Vec<_>>());

    let sim = &reps[0].sim;
    println!(
        "workload {} seed {seed} {} repetitions {} flows {} events {} FCT digest {:016x}",
        w.name,
        if args.trace { "traced" } else { "untraced" },
        reps.len(),
        sim.flows,
        sim.events,
        sim.fct_digest
    );
    if args.trace && sim.slowdowns.len() < P99_FLOWS {
        println!(
            "slowdown_p99 rests on {} flows (< {P99_FLOWS}): it is near the maximum, not a tail estimate",
            sim.slowdowns.len()
        );
    }
    for m in &metrics {
        println!(
            "  {:<26} {:>18.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for v in &violations {
        eprintln!("check failed: {v}");
    }
    println!(
        "{}",
        report::result_line(
            violations.is_empty(),
            reps.iter().map(|r| r.sim.flows).sum(),
            reps.iter().map(|r| r.sim.failed).sum(),
            &metrics,
        )
    );
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

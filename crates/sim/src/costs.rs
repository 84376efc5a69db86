//! The engine's always-on cost table: where the run loop's wall time goes,
//! stage by stage (DESIGN §3c).
//!
//! Every stage counts its events exactly. One event in [`SAMPLE_EVERY`],
//! picked from the event count and never from the simulation RNG, is timed:
//! its pop, its handler and any flow callback inside it, the callback's
//! time taken off the handler so that every row is a self time. A stage's
//! estimate is its sampled mean times its count, net of the clock-read
//! cost the table measures once when it is built. The timed events come as
//! bursts of [`BURST`] behind [`WARM_UP`] events that are timed and thrown
//! away, because a lone timed event runs cold and overstates its cost.
//! Stages that run per flow, tick or fault ([`Stage::timed_always`]) are
//! timed on every event and are exact sums. A per-packet interval over
//! [`PREEMPTED_NS`] held a preemption and is dropped.
//!
//! The times are wall-clock data outside the determinism guarantee, so the
//! table stays out of the counter snapshot and the [`crate::RunManifest`];
//! the counts are deterministic per seed.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::event::Event;

/// One event in this many is timed.
pub const SAMPLE_EVERY: u64 = 128;
/// Consecutive events recorded per burst.
pub const BURST: u64 = 4;
/// Events timed and thrown away before each burst.
pub const WARM_UP: u64 = 2;
/// Per-packet timed intervals longer than this (in ns) are dropped as
/// preempted.
pub const PREEMPTED_NS: f64 = 1e5;

/// The stages of the table, in report order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// Peeking and popping the event queue.
    Scheduler,
    /// [`Event::Arrive`]: link loss, forwarding, enqueue and transmit.
    Arrive,
    /// [`Event::LinkFree`]: starting the next queued transmission.
    LinkFree,
    /// [`Event::FlowTimer`] outside the flow callback.
    FlowTimer,
    /// [`Event::FlowStart`] outside the flow callback.
    FlowStart,
    /// Link down/up and fault-plane transitions.
    Fault,
    /// Queue-sampler ticks.
    Sample,
    /// Telemetry-collector ticks.
    Telemetry,
    /// PFC pause and resume frames.
    Pfc,
    /// Inside [`crate::FlowLogic`] callbacks (transport, CC, UnoRC).
    Flow,
}

/// Stage names, in [`Stage`] order.
const NAMES: [&str; 10] = [
    "scheduler",
    "arrive",
    "link_free",
    "flow_timer",
    "flow_start",
    "fault",
    "sample",
    "telemetry",
    "pfc",
    "flow",
];

impl Stage {
    /// The stage that handles `ev`.
    pub fn of(ev: &Event) -> Stage {
        match ev {
            Event::Arrive(..) => Stage::Arrive,
            Event::LinkFree(_) => Stage::LinkFree,
            Event::FlowTimer { .. } => Stage::FlowTimer,
            Event::FlowStart(_) => Stage::FlowStart,
            Event::LinkDown(_)
            | Event::LinkUp(_)
            | Event::FaultStart(_)
            | Event::FaultEnd(_)
            | Event::FaultFlap(_) => Stage::Fault,
            Event::Sample(_) => Stage::Sample,
            Event::Telemetry => Stage::Telemetry,
            Event::PfcPause { .. } | Event::PfcResume { .. } => Stage::Pfc,
        }
    }

    /// Whether every event of this stage is timed: its events come per
    /// flow, per tick or per fault, not per packet.
    #[inline]
    pub fn timed_always(self) -> bool {
        matches!(
            self,
            Stage::FlowStart | Stage::Fault | Stage::Sample | Stage::Telemetry
        )
    }
}

/// One stage's row of the table.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StageCost {
    /// Stage name.
    pub stage: String,
    /// Exact number of events (or flow callbacks) in this stage.
    pub events: u64,
    /// How many of them were timed.
    pub sampled: u64,
    /// Self time summed over the timed ones, net of clock reads, in ns.
    pub sampled_ns: f64,
    /// Estimated self time over all of them: the sampled mean × `events`.
    pub self_ns: f64,
}

/// The cost table. The engine is its only writer; read it through
/// [`crate::Simulator::costs`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EngineCosts {
    /// One event in this many is timed ([`SAMPLE_EVERY`]).
    pub sample_every: u64,
    /// Measured cost of one clock read, in ns.
    pub clock_ns: f64,
    /// Clock reads the table made.
    pub clock_reads: u64,
    /// Timed intervals dropped as preempted ([`PREEMPTED_NS`]).
    pub preempted: u64,
    /// Wall time inside the run loop, in ns.
    pub loop_ns: u64,
    /// One row per stage, in [`Stage`] order.
    pub stages: Vec<StageCost>,
    /// Clock rate, measured with `clock_ns`.
    #[serde(skip)]
    ns_per_tick: f64,
    /// The event being timed, if any: whether it is part of a burst, and
    /// the time (ns) and count of the flow callbacks inside it.
    #[serde(skip)]
    open: Option<(bool, f64, u64)>,
}

impl EngineCosts {
    /// An empty table; measures the clock's rate and read cost.
    pub(crate) fn new() -> Self {
        let (ns_per_tick, clock_ns) = calibrate();
        EngineCosts {
            sample_every: SAMPLE_EVERY,
            clock_ns,
            clock_reads: 0,
            preempted: 0,
            loop_ns: 0,
            stages: NAMES
                .iter()
                .map(|name| StageCost {
                    stage: name.to_string(),
                    ..StageCost::default()
                })
                .collect(),
            ns_per_tick,
            open: None,
        }
    }

    /// Summed estimated self time of every stage, in ns.
    pub fn total_ns(&self) -> f64 {
        self.stages.iter().map(|s| s.self_ns).sum()
    }

    /// The table's own clock reads as a share of run-loop wall time.
    pub fn overhead(&self) -> f64 {
        ratio(self.clock_reads as f64 * self.clock_ns, self.loop_ns as f64)
    }

    /// Whether the event with zero-based index `events` is timed from its
    /// pop on.
    #[inline]
    pub(crate) fn due(events: u64) -> bool {
        events % (SAMPLE_EVERY * BURST) < WARM_UP + BURST
    }

    /// Count one event (or flow callback) of `stage`.
    #[inline]
    pub(crate) fn count(&mut self, stage: Stage) {
        self.stages[stage as usize].events += 1;
    }

    /// Open the timed event with index `events`: flow callbacks inside it
    /// are timed too.
    pub(crate) fn open(&mut self, events: u64) {
        let burst = Self::due(events) && events % (SAMPLE_EVERY * BURST) >= WARM_UP;
        self.open = Some((burst, 0.0, 0));
    }

    /// True while a timed event is open.
    #[inline]
    pub(crate) fn timing(&self) -> bool {
        self.open.is_some()
    }

    /// Record one timed flow callback that ran from `start` to `end`.
    pub(crate) fn flow(&mut self, start: Tick, end: Tick) {
        self.clock_reads += 2;
        let ns = self.nanos(start, end);
        let Some((burst, nested_ns, calls)) = &mut self.open else {
            return;
        };
        *nested_ns += ns;
        *calls += 1;
        if *burst {
            self.sample(Stage::Flow, ns - self.clock_ns);
        }
    }

    /// Close the timed event of `stage`: popped from `t0` (when it was
    /// timed from its pop on) to `t1`, handled from `t1` to `t2`. The
    /// handler interval holds one clock read of its own and one more per
    /// flow callback, beyond the callback's.
    pub(crate) fn close(&mut self, stage: Stage, t0: Option<Tick>, t1: Tick, t2: Tick) {
        self.clock_reads += 2 + t0.is_some() as u64;
        let Some((burst, nested_ns, calls)) = self.open.take() else {
            return;
        };
        let handler = self.nanos(t1, t2) - nested_ns - (1 + calls) as f64 * self.clock_ns;
        if stage.timed_always() {
            let s = &mut self.stages[stage as usize];
            s.sampled += 1;
            s.sampled_ns += handler;
        } else if burst {
            self.sample(stage, handler);
        }
        if let (true, Some(t0)) = (burst, t0) {
            self.sample(Stage::Scheduler, self.nanos(t0, t1) - self.clock_ns);
        }
    }

    /// Add one run-loop span of `ns` and refresh every stage's estimate.
    pub(crate) fn end_loop(&mut self, ns: u64) {
        self.loop_ns += ns;
        for s in &mut self.stages {
            s.self_ns = ratio(s.sampled_ns * s.events as f64, s.sampled as f64);
        }
    }

    /// Record one per-packet sample of `ns`, unless it held a preemption.
    fn sample(&mut self, stage: Stage, ns: f64) {
        if ns > PREEMPTED_NS {
            self.preempted += 1;
            return;
        }
        let s = &mut self.stages[stage as usize];
        s.sampled += 1;
        s.sampled_ns += ns;
    }

    fn nanos(&self, start: Tick, end: Tick) -> f64 {
        end.0.wrapping_sub(start.0) as f64 * self.ns_per_tick
    }
}

/// A timestamp: on x86-64 the time-stamp counter, read without the fence
/// `Instant::now` adds (a fence serializes work that overlaps across
/// stages when untimed, which overstated the estimate by 5–10%); ns from
/// `Instant` elsewhere.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Tick(u64);

impl Tick {
    #[inline]
    pub(crate) fn now() -> Tick {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: every x86-64 CPU has RDTSC; it only reads a counter.
        let t = unsafe { std::arch::x86_64::_rdtsc() };
        #[cfg(not(target_arch = "x86_64"))]
        let t = {
            static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
            EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
        };
        Tick(t)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The clock's rate in ns per tick, against `Instant`, and the cost of one
/// read in ns: the median of 16 batches of back-to-back reads, so neither
/// a preempted batch nor an unusually quiet one sets it.
fn calibrate() -> (f64, f64) {
    let wall = Instant::now();
    let first = Tick::now();
    let mut batches: Vec<u64> = (0..16)
        .map(|_| {
            let start = Tick::now();
            for _ in 0..127 {
                std::hint::black_box(Tick::now());
            }
            Tick::now().0.wrapping_sub(start.0)
        })
        .collect();
    let ticks = Tick::now().0.wrapping_sub(first.0);
    let ns_per_tick = ratio(wall.elapsed().as_nanos() as f64, ticks as f64);
    batches.sort_unstable();
    (ns_per_tick, batches[8] as f64 / 128.0 * ns_per_tick)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table on a 1 ns clock whose reads cost nothing.
    fn table() -> EngineCosts {
        let mut c = EngineCosts::new();
        c.ns_per_tick = 1.0;
        c.clock_ns = 0.0;
        c
    }

    fn row(c: &EngineCosts, s: Stage) -> &StageCost {
        &c.stages[s as usize]
    }

    #[test]
    fn stages_map_every_event_family() {
        assert_eq!(Stage::of(&Event::Telemetry), Stage::Telemetry);
        assert_eq!(Stage::of(&Event::FaultFlap(0)), Stage::Fault);
        assert_eq!(NAMES[Stage::LinkFree as usize], "link_free");
        assert_eq!(NAMES[Stage::Flow as usize], "flow");
    }

    #[test]
    fn nested_flow_time_is_taken_off_its_handler() {
        let mut c = table();
        c.count(Stage::Arrive);
        c.open(WARM_UP);
        assert!(c.timing());
        c.flow(Tick(100), Tick(500));
        c.close(Stage::Arrive, Some(Tick(0)), Tick(100), Tick(1_100));
        assert!(!c.timing());
        c.end_loop(1_100);
        assert_eq!(row(&c, Stage::Scheduler).sampled_ns, 100.0);
        assert_eq!(row(&c, Stage::Arrive).sampled_ns, 600.0);
        assert_eq!(row(&c, Stage::Flow).sampled_ns, 400.0);
        // Arrive was counted once; Flow was timed but never counted here,
        // so only Arrive gets a non-zero estimate from it.
        assert_eq!(row(&c, Stage::Arrive).self_ns, 600.0);
        assert_eq!(c.clock_reads, 5);
    }

    #[test]
    fn warm_up_events_are_timed_but_not_recorded() {
        let period = SAMPLE_EVERY * BURST;
        let timed: Vec<u64> = (0..2 * period).filter(|&n| EngineCosts::due(n)).collect();
        let burst: Vec<u64> = (0..WARM_UP + BURST).collect();
        let next: Vec<u64> = burst.iter().map(|n| n + period).collect();
        assert_eq!(timed, [burst, next].concat());
        let mut c = table();
        let t = Tick(0);
        c.open(period + WARM_UP - 1);
        c.flow(t, t);
        c.close(Stage::Arrive, Some(t), t, t);
        assert!(c.stages.iter().all(|s| s.sampled == 0));
        assert_eq!(c.clock_reads, 5, "a warm-up event's reads still count");
    }

    #[test]
    fn rare_stages_are_exact_and_long_packet_intervals_are_dropped() {
        let mut c = table();
        // A telemetry tick outside any burst: timed alone, recorded exactly
        // however long it ran.
        c.count(Stage::Telemetry);
        c.open(WARM_UP + BURST);
        c.close(Stage::Telemetry, None, Tick(0), Tick(5_000_000));
        // A sampled arrival preempted for 2 ms: dropped.
        c.count(Stage::Arrive);
        c.open(WARM_UP);
        c.close(Stage::Arrive, Some(Tick(0)), Tick(50), Tick(2_000_050));
        c.end_loop(7_000_000);
        assert_eq!(row(&c, Stage::Telemetry).self_ns, 5e6);
        assert_eq!(row(&c, Stage::Arrive).sampled, 0);
        assert_eq!(row(&c, Stage::Scheduler).sampled, 1);
        assert_eq!(c.preempted, 1);
        assert_eq!(c.clock_reads, 5);
    }

    #[test]
    fn clock_is_calibrated() {
        let (ns_per_tick, read_ns) = calibrate();
        assert!(ns_per_tick > 0.0 && ns_per_tick < 100.0, "{ns_per_tick}");
        assert!(read_ns > 0.0 && read_ns < 10_000.0, "{read_ns}");
    }
}

//! Timing decorators for the traced run. [`TimedFlow`] wraps a flow's
//! [`FlowLogic`] and [`TimedCc`] its congestion controller; both add their
//! call counts and wall time to a per-thread [`LayerTotals`], which
//! [`take_totals`] reads and clears. They never touch simulated state, so a
//! traced run must reproduce the untraced run exactly.
//!
//! Transport time is inclusive of the CC calls made inside it; the report
//! subtracts `cc_ns` to get transport self time. CC getters (`cwnd`,
//! `pacing_bps`, the observability counts) pass through untimed: their
//! cost stays in transport self time.

use std::cell::Cell;
use std::time::Instant;

use uno_sim::{Counters, Ctx, FlowLogic, FlowSample, Packet, Time};
use uno_transport::{AckEvent, CcAlgorithm};

/// Calls and wall time per layer, summed over every wrapped flow.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    /// `FlowLogic::on_start` calls.
    pub start_calls: u64,
    /// `FlowLogic::on_packet` calls.
    pub packet_calls: u64,
    /// `FlowLogic::on_timer` calls.
    pub timer_calls: u64,
    /// Wall time inside transport calls (including `on_terminated`), CC
    /// calls included.
    pub transport_ns: u64,
    /// `on_ack` + `on_send` + `on_loss` calls.
    pub cc_calls: u64,
    /// Wall time inside those CC calls.
    pub cc_ns: u64,
    /// `FlowLogic::telemetry_sample` calls.
    pub telemetry_calls: u64,
    /// Wall time inside them.
    pub telemetry_ns: u64,
}

thread_local! {
    static TOTALS: Cell<LayerTotals> = Cell::new(LayerTotals::default());
}

/// Return the totals gathered on this thread so far and reset them.
pub fn take_totals() -> LayerTotals {
    TOTALS.with(|t| t.replace(LayerTotals::default()))
}

fn record(f: impl FnOnce(&mut LayerTotals)) {
    TOTALS.with(|t| {
        let mut v = t.get();
        f(&mut v);
        t.set(v);
    });
}

fn since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// A congestion controller whose state-changing calls are timed.
pub struct TimedCc(pub Box<dyn CcAlgorithm>);

impl TimedCc {
    fn timed(&mut self, f: impl FnOnce(&mut dyn CcAlgorithm)) {
        let t0 = Instant::now();
        f(self.0.as_mut());
        let ns = since(t0);
        record(|v| {
            v.cc_calls += 1;
            v.cc_ns += ns;
        });
    }
}

impl CcAlgorithm for TimedCc {
    fn on_ack(&mut self, ev: &AckEvent) {
        self.timed(|cc| cc.on_ack(ev));
    }
    fn on_send(&mut self, bytes: u64, now: Time) {
        self.timed(|cc| cc.on_send(bytes, now));
    }
    fn on_loss(&mut self, now: Time) {
        self.timed(|cc| cc.on_loss(now));
    }
    fn cwnd(&self) -> f64 {
        self.0.cwnd()
    }
    fn pacing_bps(&self) -> Option<f64> {
        self.0.pacing_bps()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn md_count(&self) -> u64 {
        self.0.md_count()
    }
    fn qa_count(&self) -> u64 {
        self.0.qa_count()
    }
    fn epoch_count(&self) -> u64 {
        self.0.epoch_count()
    }
    fn ecn_fraction(&self) -> f64 {
        self.0.ecn_fraction()
    }
}

/// A flow whose engine-facing calls are timed.
pub struct TimedFlow<F>(pub F);

impl<F: FlowLogic> TimedFlow<F> {
    fn timed(&mut self, count: impl FnOnce(&mut LayerTotals), f: impl FnOnce(&mut F)) {
        let t0 = Instant::now();
        f(&mut self.0);
        let ns = since(t0);
        record(|v| {
            count(v);
            v.transport_ns += ns;
        });
    }
}

impl<F: FlowLogic> FlowLogic for TimedFlow<F> {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.timed(|v| v.start_calls += 1, |f| f.on_start(ctx));
    }
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        self.timed(|v| v.packet_calls += 1, |f| f.on_packet(pkt, ctx));
    }
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        self.timed(|v| v.timer_calls += 1, |f| f.on_timer(token, ctx));
    }
    fn on_terminated(&mut self) {
        self.timed(|_| {}, |f| f.on_terminated());
    }
    fn report_counters(&self, counters: &mut Counters) {
        self.0.report_counters(counters);
    }
    fn telemetry_sample(&self) -> Option<FlowSample> {
        let t0 = Instant::now();
        let sample = self.0.telemetry_sample();
        let ns = since(t0);
        record(|v| {
            v.telemetry_calls += 1;
            v.telemetry_ns += ns;
        });
        sample
    }
}

//! One repetition of a workload, untraced or traced, and the checks on its
//! simulated outputs.

use std::time::Instant;

use uno::{dup_thresh_for, ideal_fct, CcKind, Experiment, ExperimentResults};
use uno_perfkit::{cpu_time_nanos, peak_rss_kib, reset_peak_rss};
use uno_sim::{
    time::as_secs_f64, Counters, FctRecord, FlowClass, FlowId, FlowLogic, FlowMeta, GilbertElliott,
    NodeId, Packet, Time, Topology, MILLIS,
};
use uno_transport::{Bbr, CcAlgorithm, CcConfig, FlowConfig, Gemini, MessageFlow, Mprdma, UnoCc};
use uno_workloads::FlowSpec;

use crate::layers::{take_totals, LayerTotals, TimedCc, TimedFlow};
use crate::workloads::{Traffic, Workload, HORIZON};

/// Host time of each set-up step, and the memory set-up reached.
#[derive(Clone, Copy, Debug)]
pub struct Setup {
    /// Generating the flow specs.
    pub gen_s: f64,
    /// `Experiment::new`: topology and simulator construction.
    pub build_s: f64,
    /// Registering the flows (and the border loss processes).
    pub add_s: f64,
    /// Peak resident memory at the end of set-up, in KiB.
    pub rss_kib: u64,
}

impl Setup {
    /// Total set-up time.
    pub fn total_s(&self) -> f64 {
        self.gen_s + self.build_s + self.add_s
    }
}

/// The simulated outcome of one repetition: what must repeat exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOutcome {
    /// Flows offered.
    pub flows: usize,
    /// Flows that did not complete (stalled, aborted or censored).
    pub failed: usize,
    /// Events the engine processed.
    pub events: u64,
    /// Final counter snapshot.
    pub counters: Counters,
    /// FNV-1a digest of every FCT record.
    pub fct_digest: u64,
    /// FCT / ideal FCT of every completed flow, ascending.
    pub slowdowns: Vec<f64>,
    /// Sum over flows of ⌈size / MTU⌉: the data packets a loss-free run
    /// sends.
    pub data_packets: u64,
    /// Violated output checks (empty when the outputs are correct).
    pub violations: Vec<String>,
}

/// One timed repetition.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Set-up timings.
    pub setup: Setup,
    /// Host wall time inside `Experiment::run`.
    pub run_s: f64,
    /// Process CPU time over the same interval (jiffy resolution).
    pub run_cpu_s: f64,
    /// Peak resident memory of this repetition, in KiB.
    pub peak_rss_kib: u64,
    /// Resident memory when the peak was reset, in KiB.
    pub base_rss_kib: u64,
    /// Whether the kernel accepted the peak reset.
    pub reset_ok: bool,
    /// Per-layer totals (traced repetitions only).
    pub layers: Option<LayerTotals>,
    /// Simulated results.
    pub sim: SimOutcome,
}

impl Rep {
    /// Whether the peak belongs to this repetition alone: the reset took,
    /// and the peak rose above what was resident when it was reset.
    pub fn rss_isolated(&self) -> bool {
        self.reset_ok && self.peak_rss_kib > self.base_rss_kib
    }
}

/// Generate the flows for `seed` and register them with a fresh
/// experiment, timing each step; `traced` wraps every flow and controller
/// in the timing decorators of [`crate::layers`].
pub fn setup(w: &Workload, seed: u64, traced: bool) -> (Experiment, Vec<FlowSpec>, Setup) {
    let t0 = Instant::now();
    let specs = w.specs(seed);
    let t1 = Instant::now();
    let mut exp = Experiment::new(w.config(seed));
    let t2 = Instant::now();
    for spec in &specs {
        if traced {
            let (meta, logic) = timed_flow(&exp, spec);
            exp.sim.add_flow(meta, logic);
        } else {
            exp.add_spec(spec);
        }
    }
    if w.border_loss > 0.0 {
        let topo = &exp.sim.topo;
        let border: Vec<_> = topo
            .border_forward
            .iter()
            .chain(&topo.border_reverse)
            .copied()
            .collect();
        for l in border {
            exp.sim
                .set_link_loss(l, GilbertElliott::uniform(w.border_loss));
        }
    }
    let t3 = Instant::now();
    let setup = Setup {
        gen_s: (t1 - t0).as_secs_f64(),
        build_s: (t2 - t1).as_secs_f64(),
        add_s: (t3 - t2).as_secs_f64(),
        rss_kib: peak_rss_kib(),
    };
    (exp, specs, setup)
}

/// Hand the allocator's free pages back to the kernel, so the next set-up
/// and peak-RSS reading do not depend on what earlier work left behind.
pub fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes a byte count and only returns
    // free heap pages to the kernel; live allocations are untouched. It has
    // no other precondition, and this Linux-only benchmark links glibc.
    unsafe {
        malloc_trim(0);
    }
}

/// Set up and run `w` once at `seed` (see [`setup`] for `traced`), from a
/// trimmed heap and a freshly reset peak-RSS mark.
pub fn run_once(w: &Workload, seed: u64, traced: bool) -> Rep {
    release_free_memory();
    let reset_ok = reset_peak_rss();
    let base_rss_kib = peak_rss_kib();
    let (exp, specs, setup) = setup(w, seed, traced);
    let rtts: Vec<Time> = specs.iter().map(|s| path_rtt(&exp.sim.topo, s)).collect();

    take_totals();
    let cpu0 = cpu_time_nanos().unwrap_or(0);
    let t0 = Instant::now();
    let results = exp.run(HORIZON);
    let run_s = t0.elapsed().as_secs_f64();
    let cpu1 = cpu_time_nanos().unwrap_or(0);
    let layers = traced.then(take_totals);
    let peak = peak_rss_kib();

    Rep {
        setup,
        run_s,
        run_cpu_s: cpu1.saturating_sub(cpu0) as f64 * 1e-9,
        peak_rss_kib: peak,
        base_rss_kib,
        reset_ok,
        layers,
        sim: outcome(w, &specs, &rtts, &results),
    }
}

/// Build one flow through the public transport constructors, wrapped in the
/// timing decorators. Mirrors `Experiment::add_spec_recorded` for the
/// configuration [`Workload::config`] produces (no fault injection, no
/// degradation, no progress recording).
fn timed_flow(exp: &Experiment, spec: &FlowSpec) -> (FlowMeta, Box<dyn FlowLogic>) {
    let topo = &exp.sim.topo;
    let scheme = exp.scheme();
    let src = topo.host(spec.src_dc, spec.src_idx);
    let dst = topo.host(spec.dst_dc, spec.dst_idx);
    let inter = topo.is_inter_dc(src, dst);
    let p = &topo.params;

    let (base_rtt, bdp) = if inter {
        (p.inter_rtt, p.inter_bdp() as f64)
    } else {
        (p.intra_rtt, p.intra_bdp() as f64)
    };
    let cc_cfg = CcConfig {
        mtu: p.mtu,
        ..CcConfig::paper_defaults(bdp, base_rtt, p.intra_bdp() as f64, p.intra_rtt)
    };
    let cc: Box<dyn CcAlgorithm> = match scheme.cc {
        CcKind::UnoCc => Box::new(UnoCc::new(cc_cfg)),
        CcKind::Gemini => Box::new(Gemini::new(cc_cfg, inter)),
        CcKind::MprdmaBbr if inter => Box::new(Bbr::new(cc_cfg)),
        CcKind::MprdmaBbr => Box::new(Mprdma::new(cc_cfg)),
    };
    let lb = scheme.lb_for(inter);
    let mut fc = FlowConfig::basic(src, dst, spec.size, base_rtt);
    fc.mtu = p.mtu;
    fc.ec = scheme.ec_for(inter);
    fc.lb = lb;
    fc.dup_thresh = dup_thresh_for(lb);
    fc.min_rto = if inter {
        2 * base_rtt
    } else {
        MILLIS.max(4 * base_rtt)
    };
    fc.block_timeout = base_rtt;

    let flow = MessageFlow::new(fc, Box::new(TimedCc(cc)));
    let meta = FlowMeta {
        src,
        dst,
        size: spec.size,
        start: spec.start,
        class: if inter {
            FlowClass::Inter
        } else {
            FlowClass::Intra
        },
    };
    (meta, Box::new(TimedFlow(flow)))
}

/// Propagation RTT of the path between a flow's hosts, there and back.
/// Every shortest path between two hosts has the same delay, and hosts
/// under one edge switch or in one pod sit closer than the network's
/// nominal `intra_rtt`, which is the cross-pod RTT.
fn path_rtt(topo: &Topology, spec: &FlowSpec) -> Time {
    let a = topo.host(spec.src_dc, spec.src_idx);
    let b = topo.host(spec.dst_dc, spec.dst_idx);
    let one_way = |src: NodeId, dst: NodeId| {
        let pkt = Packet::data(FlowId(0), 0, 0, src, dst);
        let (mut at, mut t) = (src, 0);
        for _ in 0..64 {
            if at == dst {
                return t;
            }
            let link = topo.route(at, &pkt).expect("every host pair is routable");
            t += topo.links.delay(link);
            at = topo.links.to(link);
        }
        panic!("no loop-free route from {src} to {dst}");
    };
    one_way(a, b) + one_way(b, a)
}

/// Summarise and check a finished run. `rtts` holds each flow's
/// [`path_rtt`]; a flow's ideal FCT is that RTT plus serialisation at the
/// host line rate.
fn outcome(w: &Workload, specs: &[FlowSpec], rtts: &[Time], r: &ExperimentResults) -> SimOutcome {
    let p = &w.topo;
    let mut violations = Vec::new();
    let failed = r.flows - r.fcts.len();
    if failed > 0 || !r.all_completed {
        violations.push(format!(
            "{failed} of {} flows did not complete ({} failed, {} censored)",
            r.flows,
            r.failures.len(),
            r.censored.len()
        ));
    }

    let mut slowdowns = Vec::with_capacity(r.fcts.len());
    let mut too_fast = Vec::new();
    for f in &r.fcts {
        let best = ideal_fct(f.size, rtts[f.flow.index()], p.link_bps);
        if f.fct() < best {
            too_fast.push((f.flow.0, f.fct(), best));
        }
        slowdowns.push(as_secs_f64(f.fct()) / as_secs_f64(best));
    }
    slowdowns.sort_by(f64::total_cmp);
    if let Some((flow, fct, best)) = too_fast.first() {
        violations.push(format!(
            "{} flows finished below their ideal FCT, e.g. flow {flow} in {fct} ns against {best} ns",
            too_fast.len()
        ));
    }

    if let Traffic::Incast { .. } = w.traffic {
        // Every byte crosses the receiver's one downlink.
        let bytes: u64 = specs.iter().map(|s| s.size).sum();
        let floor = uno_sim::time::serialization_time(bytes, p.link_bps);
        let first = r.fcts.iter().map(|f| f.start).min().unwrap_or(0);
        let last = r.fcts.iter().map(|f| f.end).max().unwrap_or(0);
        if last - first < floor {
            violations.push(format!(
                "incast completed in {} ns, below the bottleneck floor {floor} ns",
                last - first
            ));
        }
    }

    let mtu = p.mtu as u64;
    SimOutcome {
        flows: r.flows,
        failed,
        events: r.manifest.events_processed,
        counters: r.manifest.counters.clone(),
        fct_digest: fct_digest(&r.fcts),
        slowdowns,
        data_packets: specs.iter().map(|s| s.size.div_ceil(mtu)).sum(),
        violations,
    }
}

/// FNV-1a over every record's flow, size, start, end and class.
fn fct_digest(fcts: &[FctRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in fcts {
        let class = matches!(f.class, FlowClass::Inter) as u64;
        for word in [f.flow.0 as u64, f.size, f.start, f.end, class] {
            for b in word.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

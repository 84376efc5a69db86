//! Trace digestion: JSONL → per-flow and per-queue summaries (the library
//! behind `uno-inspect trace`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::Serialize;

use crate::event::{Time, TraceEvent};

/// Per-flow view of a trace: ack/rate aggregates plus the cwnd timeline.
#[derive(Clone, Debug, Default, Serialize)]
pub struct FlowSummary {
    /// Flow id.
    pub flow: u32,
    /// ACKs processed.
    pub acks: u64,
    /// Total acknowledged bytes.
    pub acked_bytes: u64,
    /// ACKs carrying an ECN echo.
    pub ecn_acks: u64,
    /// Time of the first event for this flow (ns).
    pub first_t: Time,
    /// Time of the last event for this flow (ns).
    pub last_t: Time,
    /// Mean goodput over `[first_t, last_t]` in Gbps (0 for point traces).
    pub rate_gbps: f64,
    /// `(t, cwnd_bytes)` timeline from cwnd-change and Quick Adapt events.
    pub cwnd: Vec<(Time, f64)>,
    /// Retransmission timeouts observed.
    pub timeouts: u64,
    /// NACKs sent by the receiver.
    pub nacks: u64,
    /// Load-balancer reroutes.
    pub reroutes: u64,
    /// Quick Adapt activations.
    pub quick_adapts: u64,
    /// Epoch boundaries that applied a multiplicative decrease.
    pub md_epochs: u64,
    /// Whether a flow-done event was observed.
    pub completed: bool,
    /// Whether a flow-fail event (watchdog stall or retry-budget abort) was
    /// observed.
    pub failed: bool,
}

/// Per-link (egress queue) view of a trace.
#[derive(Clone, Debug, Default, Serialize)]
pub struct QueueSummary {
    /// Link id.
    pub link: u32,
    /// Packets accepted.
    pub enqueues: u64,
    /// Packets transmitted.
    pub dequeues: u64,
    /// Packets drop-tailed.
    pub drops: u64,
    /// Packets ECN-marked (phantom + physical).
    pub marks: u64,
    /// Marks driven by the phantom queue.
    pub phantom_marks: u64,
    /// Packets lost on the link itself.
    pub losses: u64,
    /// Packets purged from the queue by link failures.
    pub cleared: u64,
    /// Fault-plane transitions (fault onset or healing) on this link.
    pub fault_transitions: u64,
    /// High-water mark of physical occupancy seen at enqueue (bytes).
    pub max_qlen: u64,
}

/// Whole-trace digest.
#[derive(Clone, Debug, Default, Serialize)]
pub struct TraceSummary {
    /// Events digested.
    pub events: u64,
    /// Per-flow summaries, by flow id.
    pub flows: Vec<FlowSummary>,
    /// Per-queue summaries, by link id.
    pub queues: Vec<QueueSummary>,
    /// Malformed JSONL lines skipped during digestion (0 for in-memory
    /// digests). Non-zero means the trace was truncated or corrupted;
    /// the per-flow/per-queue tables cover only the parseable prefix.
    pub skipped_lines: u64,
}

impl TraceSummary {
    /// Digest a stream of events.
    pub fn from_events(events: impl IntoIterator<Item = TraceEvent>) -> Self {
        let mut flows: BTreeMap<u32, FlowSummary> = BTreeMap::new();
        let mut queues: BTreeMap<u32, QueueSummary> = BTreeMap::new();
        let mut n = 0u64;
        for ev in events {
            n += 1;
            if let Some(link) = ev.link() {
                let q = queues.entry(link).or_insert_with(|| QueueSummary {
                    link,
                    ..QueueSummary::default()
                });
                match ev {
                    TraceEvent::Enqueue { size: _, qlen, .. } => {
                        q.enqueues += 1;
                        q.max_qlen = q.max_qlen.max(qlen);
                    }
                    TraceEvent::Dequeue { .. } => q.dequeues += 1,
                    TraceEvent::Drop { qlen, .. } => {
                        q.drops += 1;
                        q.max_qlen = q.max_qlen.max(qlen);
                    }
                    TraceEvent::Mark { phantom, .. } => {
                        q.marks += 1;
                        if phantom {
                            q.phantom_marks += 1;
                        }
                    }
                    TraceEvent::LinkLoss { .. } => q.losses += 1,
                    TraceEvent::QueueClear { pkts, .. } => q.cleared += pkts,
                    TraceEvent::FaultTransition { .. } => q.fault_transitions += 1,
                    _ => {}
                }
            }
            let Some(flow) = ev.flow() else {
                continue;
            };
            let f = flows.entry(flow).or_insert_with(|| FlowSummary {
                flow,
                first_t: ev.t(),
                ..FlowSummary::default()
            });
            f.first_t = f.first_t.min(ev.t());
            f.last_t = f.last_t.max(ev.t());
            match ev {
                TraceEvent::Ack { bytes, ecn, .. } => {
                    f.acks += 1;
                    f.acked_bytes += bytes;
                    if ecn {
                        f.ecn_acks += 1;
                    }
                }
                TraceEvent::Timeout { .. } => f.timeouts += 1,
                TraceEvent::Nack { .. } => f.nacks += 1,
                TraceEvent::Reroute { .. } => f.reroutes += 1,
                TraceEvent::CwndChange { t, cwnd, .. } => f.cwnd.push((t, cwnd)),
                TraceEvent::QuickAdapt { t, cwnd, .. } => {
                    f.quick_adapts += 1;
                    f.cwnd.push((t, cwnd));
                }
                TraceEvent::EpochBoundary { md, .. } if md => {
                    f.md_epochs += 1;
                }
                TraceEvent::FlowDone { .. } => f.completed = true,
                TraceEvent::FlowFail { .. } => f.failed = true,
                _ => {}
            }
        }
        for f in flows.values_mut() {
            let span = f.last_t.saturating_sub(f.first_t);
            if span > 0 {
                f.rate_gbps = f.acked_bytes as f64 * 8.0 / span as f64;
            }
        }
        TraceSummary {
            events: n,
            flows: flows.into_values().collect(),
            queues: queues.into_values().collect(),
            skipped_lines: 0,
        }
    }

    /// Digest a JSONL trace. Malformed or truncated lines (a killed run
    /// often leaves a partial final line) are skipped and counted in
    /// [`TraceSummary::skipped_lines`] rather than aborting the digest; an
    /// error is returned only when the input contains lines but not a
    /// single parseable event — i.e. it is not a trace at all.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut events = Vec::new();
        let mut skipped = 0u64;
        let mut first_err: Option<String> = None;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match TraceEvent::from_json_line(line) {
                Ok(ev) => events.push(ev),
                Err(e) => {
                    skipped += 1;
                    first_err.get_or_insert_with(|| format!("line {}: {e}", i + 1));
                }
            }
        }
        if events.is_empty() {
            if let Some(e) = first_err {
                return Err(format!(
                    "no parseable events ({skipped} bad lines; first: {e})"
                ));
            }
        }
        let mut summary = TraceSummary::from_events(events);
        summary.skipped_lines = skipped;
        Ok(summary)
    }

    /// Human-readable tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{} events", self.events);
        if self.skipped_lines > 0 {
            let _ = writeln!(
                out,
                "WARNING: {} malformed line(s) skipped (truncated or corrupted trace)",
                self.skipped_lines
            );
        }
        let _ = writeln!(
            out,
            "\nper-flow ({}):\n{:>6} {:>10} {:>14} {:>10} {:>8} {:>6} {:>6} {:>8} {:>4} {:>6}",
            self.flows.len(),
            "flow",
            "acks",
            "acked_bytes",
            "rate_gbps",
            "ecn_acks",
            "rtos",
            "nacks",
            "reroutes",
            "qa",
            "md"
        );
        for f in &self.flows {
            let _ = writeln!(
                out,
                "{:>6} {:>10} {:>14} {:>10.3} {:>8} {:>6} {:>6} {:>8} {:>4} {:>6}",
                f.flow,
                f.acks,
                f.acked_bytes,
                f.rate_gbps,
                f.ecn_acks,
                f.timeouts,
                f.nacks,
                f.reroutes,
                f.quick_adapts,
                f.md_epochs
            );
        }
        let _ = writeln!(
            out,
            "\nper-queue ({}):\n{:>6} {:>10} {:>10} {:>8} {:>8} {:>10} {:>8} {:>12}",
            self.queues.len(),
            "link",
            "enqueues",
            "dequeues",
            "drops",
            "marks",
            "ph_marks",
            "losses",
            "max_qlen"
        );
        for q in &self.queues {
            let _ = writeln!(
                out,
                "{:>6} {:>10} {:>10} {:>8} {:>8} {:>10} {:>8} {:>12}",
                q.link,
                q.enqueues,
                q.dequeues,
                q.drops,
                q.marks,
                q.phantom_marks,
                q.losses,
                q.max_qlen
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_counts_and_rates() {
        let events = vec![
            TraceEvent::Enqueue {
                t: 0,
                link: 1,
                flow: 0,
                seq: 0,
                size: 4096,
                qlen: 4096,
            },
            TraceEvent::Mark {
                t: 0,
                link: 1,
                flow: 0,
                seq: 0,
                phantom: true,
            },
            TraceEvent::Dequeue {
                t: 5,
                link: 1,
                flow: 0,
                seq: 0,
            },
            TraceEvent::Ack {
                t: 8_000,
                flow: 0,
                seq: 0,
                bytes: 8_000,
                ecn: true,
                rtt: 14_000,
                done: false,
            },
            TraceEvent::CwndChange {
                t: 8_000,
                flow: 0,
                cwnd: 100_000.0,
            },
            TraceEvent::Drop {
                t: 9,
                link: 2,
                flow: 1,
                seq: 3,
                qlen: 1 << 20,
            },
        ];
        let s = TraceSummary::from_events(events);
        assert_eq!(s.events, 6);
        assert_eq!(s.flows.len(), 2);
        let f0 = &s.flows[0];
        assert_eq!((f0.acks, f0.acked_bytes, f0.ecn_acks), (1, 8_000, 1));
        // 8000 bytes over 8000 ns = 8 Gbps.
        assert!((f0.rate_gbps - 8.0).abs() < 1e-9, "{}", f0.rate_gbps);
        assert_eq!(f0.cwnd, vec![(8_000, 100_000.0)]);
        let q1 = &s.queues[0];
        assert_eq!((q1.enqueues, q1.marks, q1.phantom_marks), (1, 1, 1));
        let q2 = &s.queues[1];
        assert_eq!(q2.drops, 1);
        assert_eq!(q2.max_qlen, 1 << 20);
    }

    #[test]
    fn jsonl_round_trip_digest() {
        let mut text = String::new();
        for ev in [
            TraceEvent::Nack {
                t: 1,
                flow: 3,
                block: 0,
            },
            TraceEvent::Timeout {
                t: 2,
                flow: 3,
                rtos: 1,
            },
            TraceEvent::Reroute {
                t: 3,
                flow: 3,
                reroutes: 1,
            },
        ] {
            text.push_str(&ev.to_json());
            text.push('\n');
        }
        let s = TraceSummary::from_jsonl(&text).unwrap();
        assert_eq!(s.events, 3);
        assert_eq!(s.skipped_lines, 0);
        let f = &s.flows[0];
        assert_eq!((f.nacks, f.timeouts, f.reroutes), (1, 1, 1));
        // Pure garbage is still an error — it isn't a trace at all.
        assert!(TraceSummary::from_jsonl("not json\n").is_err());
        // Render shouldn't panic and mentions the flow.
        assert!(s.render().contains("per-flow"));
    }

    #[test]
    fn corrupted_trace_is_digested_with_skips_counted() {
        // A trace whose writer died mid-line: valid events interleaved
        // with garbage and a truncated final record.
        let good = TraceEvent::Ack {
            t: 8_000,
            flow: 0,
            seq: 0,
            bytes: 8_000,
            ecn: false,
            rtt: 14_000,
            done: false,
        };
        let mut text = String::new();
        text.push_str(&good.to_json());
        text.push('\n');
        text.push_str("garbage not json\n");
        text.push('\n'); // blank lines are fine, not counted as skips
        text.push_str(&good.to_json());
        text.push('\n');
        let full = good.to_json();
        text.push_str(&full[..full.len() / 2]); // truncated final line
        let s = TraceSummary::from_jsonl(&text).unwrap();
        assert_eq!(s.events, 2);
        assert_eq!(s.skipped_lines, 2);
        assert_eq!(s.flows.len(), 1);
        assert_eq!(s.flows[0].acks, 2);
        // The skip count surfaces in both renderings.
        assert!(s.render().contains("2 malformed line(s) skipped"));
        assert!(serde_json::to_string(&s)
            .unwrap()
            .contains("\"skipped_lines\":2"));
    }
}

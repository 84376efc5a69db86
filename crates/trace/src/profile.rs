//! Lightweight hierarchical span self-profiler.
//!
//! Attributes wall-clock time to engine subsystems (scheduler, transport
//! step, erasure accounting, fault transitions, trace/telemetry emission)
//! via explicitly nested spans. Like [`crate::Tracer`], the disabled path
//! is a single branch: [`Profiler::enter`]/[`Profiler::exit`] return
//! immediately unless profiling was switched on, so instrumentation sites
//! cost nothing in normal runs.
//!
//! Spans aggregate into a call tree keyed by `(parent, name)` — no
//! per-call allocation after a path is first seen. [`Profiler::report`]
//! folds the tree into an inclusive/exclusive time table
//! ([`ProfileReport`]) that renders as text, serializes into run
//! artifacts, and exports in collapsed-stack format for flamegraph
//! tooling.
//!
//! All numbers here come from the monotonic wall clock and therefore sit
//! *outside* the determinism guarantee — like a manifest's `wall_seconds`,
//! never like a counter snapshot or the `telemetry` section.

use std::time::Instant;

use serde::{Serialize, Value};

/// One aggregated node of the span call tree.
#[derive(Clone, Debug)]
struct SpanNode {
    name: &'static str,
    children: Vec<u32>,
    calls: u64,
    inclusive_ns: u64,
}

/// Hierarchical span profiler with a one-branch disabled path.
#[derive(Clone, Debug)]
pub struct Profiler {
    on: bool,
    base: Instant,
    nodes: Vec<SpanNode>,
    /// Open spans: (node index, entry timestamp in ns since `base`).
    stack: Vec<(u32, u64)>,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::disabled()
    }
}

impl Profiler {
    /// A profiler that records nothing; `enter`/`exit` are one branch.
    pub fn disabled() -> Self {
        Profiler {
            on: false,
            base: Instant::now(),
            nodes: vec![SpanNode {
                name: "run",
                children: Vec::new(),
                calls: 0,
                inclusive_ns: 0,
            }],
            stack: Vec::new(),
        }
    }

    /// A profiler that records spans.
    pub fn enabled() -> Self {
        let mut p = Profiler::disabled();
        p.on = true;
        p
    }

    /// Switch recording on or off (spans already open stay open).
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// True when spans are being recorded — callers with non-trivial span
    /// setup can branch on this exactly like [`crate::Tracer::enabled`].
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// Open a span named `name` nested under the innermost open span (or
    /// the implicit `run` root). No-op unless enabled.
    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        self.enter_slow(name);
    }

    /// Close the innermost open span. No-op unless enabled; ignores
    /// unbalanced exits rather than panicking.
    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        self.exit_slow();
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn enter_slow(&mut self, name: &'static str) {
        let parent = self.stack.last().map_or(0, |&(n, _)| n);
        // Linear child scan: span taxonomies are a handful of names wide.
        let idx = self.nodes[parent as usize]
            .children
            .iter()
            .copied()
            .find(|&c| self.nodes[c as usize].name == name)
            .unwrap_or_else(|| {
                let idx = self.nodes.len() as u32;
                self.nodes.push(SpanNode {
                    name,
                    children: Vec::new(),
                    calls: 0,
                    inclusive_ns: 0,
                });
                self.nodes[parent as usize].children.push(idx);
                idx
            });
        let t = self.now_ns();
        self.stack.push((idx, t));
    }

    fn exit_slow(&mut self) {
        let Some((idx, t0)) = self.stack.pop() else {
            return;
        };
        let node = &mut self.nodes[idx as usize];
        node.calls += 1;
        node.inclusive_ns += self.base.elapsed().as_nanos() as u64 - t0;
    }

    /// Fold the call tree into an inclusive/exclusive time table. Rows are
    /// in depth-first order; the synthetic `run` root aggregates total
    /// profiled time.
    pub fn report(&self) -> ProfileReport {
        let mut rows = Vec::new();
        self.walk(0, 0, "", &mut rows);
        let total_ns = self.nodes[0]
            .children
            .iter()
            .map(|&c| self.nodes[c as usize].inclusive_ns)
            .sum();
        ProfileReport { total_ns, rows }
    }

    fn walk(&self, idx: u32, depth: usize, prefix: &str, rows: &mut Vec<ProfileRow>) {
        let n = &self.nodes[idx as usize];
        let path = if idx == 0 || prefix.is_empty() {
            n.name.to_string()
        } else {
            format!("{prefix};{}", n.name)
        };
        let child_ns: u64 = n
            .children
            .iter()
            .map(|&c| self.nodes[c as usize].inclusive_ns)
            .sum();
        if idx != 0 {
            rows.push(ProfileRow {
                depth,
                path: path.clone(),
                name: n.name.to_string(),
                calls: n.calls,
                inclusive_ns: n.inclusive_ns,
                exclusive_ns: n.inclusive_ns.saturating_sub(child_ns),
            });
        }
        for &c in &n.children {
            self.walk(
                c,
                if idx == 0 { 0 } else { depth + 1 },
                if idx == 0 { "" } else { &path },
                rows,
            );
        }
    }
}

/// One row of a [`ProfileReport`]: an aggregated span path.
#[derive(Clone, Debug)]
pub struct ProfileRow {
    /// Nesting depth (0 for top-level spans).
    pub depth: usize,
    /// Semicolon-joined span path, e.g. `transport;rc_block_rx`.
    pub path: String,
    /// Leaf span name.
    pub name: String,
    /// Number of times the span was entered and exited.
    pub calls: u64,
    /// Wall nanoseconds inside the span, children included.
    pub inclusive_ns: u64,
    /// Wall nanoseconds inside the span, children excluded.
    pub exclusive_ns: u64,
}

/// Aggregated inclusive/exclusive span-time table.
#[derive(Clone, Debug, Default)]
pub struct ProfileReport {
    /// Total profiled wall nanoseconds (sum of top-level spans).
    pub total_ns: u64,
    /// Span rows in depth-first (call-tree) order.
    pub rows: Vec<ProfileRow>,
}

impl ProfileReport {
    /// Render the table as aligned text (depth-indented span names with
    /// call counts, inclusive/exclusive milliseconds and % of total).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<32} {:>10} {:>12} {:>12} {:>6}\n",
            "span", "calls", "incl ms", "excl ms", "incl%"
        ));
        for r in &self.rows {
            let label = format!("{}{}", "  ".repeat(r.depth), r.name);
            let pct = if self.total_ns == 0 {
                0.0
            } else {
                r.inclusive_ns as f64 * 100.0 / self.total_ns as f64
            };
            out.push_str(&format!(
                "{:<32} {:>10} {:>12.3} {:>12.3} {:>5.1}%\n",
                label,
                r.calls,
                r.inclusive_ns as f64 / 1e6,
                r.exclusive_ns as f64 / 1e6,
                pct
            ));
        }
        out
    }

    /// Export in collapsed-stack format (`a;b;c <exclusive_ns>` per line)
    /// for `flamegraph.pl`-style tooling.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            if r.exclusive_ns > 0 {
                out.push_str(&format!("{} {}\n", r.path, r.exclusive_ns));
            }
        }
        out
    }

    /// Serialize as the `profile` section of a run artifact.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("total_ns".into(), Value::U64(self.total_ns)),
            (
                "spans".into(),
                Value::Array(
                    self.rows
                        .iter()
                        .map(|r| {
                            Value::Object(vec![
                                ("path".into(), Value::Str(r.path.clone())),
                                ("depth".into(), Value::U64(r.depth as u64)),
                                ("calls".into(), Value::U64(r.calls)),
                                ("inclusive_ns".into(), Value::U64(r.inclusive_ns)),
                                ("exclusive_ns".into(), Value::U64(r.exclusive_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse a `profile` section back (for `uno-inspect diff`). Returns
    /// `None` when the value does not look like a profile section.
    pub fn from_value(v: &Value) -> Option<Self> {
        let total_ns = v.get("total_ns")?.as_f64()? as u64;
        let spans = v.get("spans")?.as_array()?;
        let mut rows = Vec::with_capacity(spans.len());
        for s in spans {
            let path = s.get("path")?.as_str()?.to_string();
            let name = path.rsplit(';').next().unwrap_or(&path).to_string();
            rows.push(ProfileRow {
                depth: s.get("depth")?.as_f64()? as usize,
                path,
                name,
                calls: s.get("calls")?.as_f64()? as u64,
                inclusive_ns: s.get("inclusive_ns")?.as_f64()? as u64,
                exclusive_ns: s.get("exclusive_ns")?.as_f64()? as u64,
            });
        }
        Some(ProfileReport { total_ns, rows })
    }
}

impl Serialize for ProfileReport {
    fn serialize_value(&self) -> Value {
        self.to_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::disabled();
        p.enter("a");
        p.enter("b");
        p.exit();
        p.exit();
        assert!(p.report().rows.is_empty());
        assert_eq!(p.report().total_ns, 0);
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let mut p = Profiler::enabled();
        for _ in 0..3 {
            p.enter("outer");
            p.enter("inner");
            p.exit();
            p.exit();
        }
        p.enter("other");
        p.exit();
        let r = p.report();
        let paths: Vec<&str> = r.rows.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, ["outer", "outer;inner", "other"]);
        let outer = &r.rows[0];
        let inner = &r.rows[1];
        assert_eq!(outer.calls, 3);
        assert_eq!(inner.calls, 3);
        assert_eq!(inner.depth, 1);
        assert!(outer.inclusive_ns >= inner.inclusive_ns);
        assert_eq!(outer.exclusive_ns, outer.inclusive_ns - inner.inclusive_ns);
    }

    #[test]
    fn unbalanced_exit_is_ignored() {
        let mut p = Profiler::enabled();
        p.exit(); // nothing open
        p.enter("a");
        p.exit();
        p.exit();
        assert_eq!(p.report().rows.len(), 1);
    }

    #[test]
    fn collapsed_stack_format() {
        let mut p = Profiler::enabled();
        p.enter("transport");
        p.enter("rc_block_rx");
        std::thread::sleep(std::time::Duration::from_millis(1));
        p.exit();
        p.exit();
        let collapsed = p.report().to_collapsed();
        assert!(collapsed.contains("transport;rc_block_rx "));
        for line in collapsed.lines() {
            let (path, count) = line.rsplit_once(' ').unwrap();
            assert!(!path.is_empty());
            count.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn report_value_round_trip() {
        let mut p = Profiler::enabled();
        p.enter("a");
        p.enter("b");
        p.exit();
        p.exit();
        let r = p.report();
        let back = ProfileReport::from_value(&r.to_value()).unwrap();
        assert_eq!(back.rows.len(), r.rows.len());
        assert_eq!(back.total_ns, r.total_ns);
        assert_eq!(back.rows[1].path, "a;b");
        assert_eq!(back.rows[1].name, "b");
    }
}

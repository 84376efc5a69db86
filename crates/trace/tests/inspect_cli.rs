//! Drives the `uno-inspect` binary end to end: the `trace` subcommand's
//! three outputs and the exit-code contract (bad arguments exit 2 with the
//! usage line; bad input or a failed check exits 1 without it).

use std::path::PathBuf;
use std::process::{Command, Output};

use uno_trace::TraceEvent;

/// Write `contents` to a file named `name` under the test scratch dir.
fn scratch(name: &str, contents: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, contents).unwrap();
    path.to_string_lossy().into_owned()
}

fn inspect(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_uno-inspect"))
        .args(args)
        .output()
        .expect("spawn uno-inspect")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).unwrap()
}

/// A small trace: flow 0 crosses link 3 and changes cwnd twice.
fn trace_jsonl() -> String {
    let events = [
        TraceEvent::Enqueue {
            t: 100,
            link: 3,
            flow: 0,
            seq: 0,
            size: 4096,
            qlen: 4096,
        },
        TraceEvent::Dequeue {
            t: 400,
            link: 3,
            flow: 0,
            seq: 0,
        },
        TraceEvent::CwndChange {
            t: 1_000,
            flow: 0,
            cwnd: 8192.0,
        },
        TraceEvent::Ack {
            t: 2_000,
            flow: 0,
            seq: 0,
            bytes: 4096,
            ecn: false,
            rtt: 1_900,
            done: false,
        },
        TraceEvent::CwndChange {
            t: 2_000,
            flow: 0,
            cwnd: 12288.0,
        },
    ];
    events.iter().map(|e| e.to_json() + "\n").collect()
}

#[test]
fn trace_renders_tables() {
    let path = scratch("cli_tables.jsonl", &trace_jsonl());
    let out = inspect(&["trace", &path]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.starts_with("5 events\n"), "{text}");
    assert!(text.contains("per-flow (1):"), "{text}");
    assert!(text.contains("per-queue (1):"), "{text}");
}

#[test]
fn trace_json_parses() {
    let path = scratch("cli_json.jsonl", &trace_jsonl());
    let out = inspect(&["trace", &path, "--json"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let v = serde_json::parse_value(&stdout(&out)).expect("stdout is JSON");
    assert_eq!(v.get("events").and_then(|n| n.as_f64()), Some(5.0));
}

#[test]
fn trace_cwnd_prints_the_timeline() {
    let path = scratch("cli_cwnd.jsonl", &trace_jsonl());
    let out = inspect(&["trace", &path, "--cwnd", "0"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(stdout(&out), "t_ns cwnd_bytes\n1000 8192\n2000 12288\n");
}

#[test]
fn absent_cwnd_flow_exits_1() {
    let path = scratch("cli_absent.jsonl", &trace_jsonl());
    let out = inspect(&["trace", &path, "--cwnd", "7"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("flow 7 not present"));
    assert!(!stderr(&out).contains("usage:"));
}

#[test]
fn unknown_flag_exits_2_with_usage() {
    for args in [
        &["trace", "x.jsonl", "--bogus"][..],
        &["run.json", "--bogus"],
    ] {
        let out = inspect(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("usage:"), "{args:?}");
    }
}

#[test]
fn malformed_lines_warn_and_exit_0() {
    let path = scratch(
        "cli_malformed.jsonl",
        &format!("{}not json\n{{\"t\":5}}\n", trace_jsonl()),
    );
    let out = inspect(&["trace", &path]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stderr(&out).contains("skipped 2 malformed line(s)"));
    assert!(stdout(&out).contains("2 malformed line(s) skipped"));
}

#[test]
fn unreadable_input_exits_1() {
    let path = scratch("cli_garbage.jsonl", "not json\n");
    for args in [&["trace", &path][..], &["trace", "/nonexistent.jsonl"]] {
        let out = inspect(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(!stderr(&out).contains("usage:"), "{args:?}");
    }
}

#[test]
fn strict_on_missing_sections_exits_1() {
    let path = scratch(
        "cli_run.json",
        r#"{"scheme": "Uno", "manifest": {"counters": {"queue.drops": 0}}}"#,
    );
    let out = inspect(&[&path, "--strict"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("telemetry, costs"), "{err}");
    assert!(!err.contains("usage:"), "{err}");
    assert!(
        stdout(&out).is_empty(),
        "strict fails before the report prints"
    );
}

/// The head of a run object with counters and telemetry (left open, so
/// `--strict` then turns on `costs`).
const RUN_HEAD: &str = r#"{"scheme": "Uno",
  "manifest": {"counters": {"queue.drops": 0}},
  "telemetry": {"interval_ns": 1000, "ticks": 1,
                "links": {"1": {"queue": [[0, 10]]}}, "flows": {}}"#;

fn with_costs(arrive_ns: f64) -> String {
    format!(
        r#"{},
  "costs": {{"sample_every": 128, "clock_ns": 20.0, "clock_reads": 3, "loop_ns": 1000,
    "stages": [{{"stage": "scheduler", "events": 2, "sampled": 1,
                 "sampled_ns": 100.0, "self_ns": 200.0}},
               {{"stage": "arrive", "events": 2, "sampled": 1,
                 "sampled_ns": 300.0, "self_ns": {arrive_ns}}}]}}}}"#,
        RUN_HEAD
    )
}

#[test]
fn strict_without_costs_exits_1() {
    let path = scratch("cli_no_costs.json", &format!("{RUN_HEAD}}}"));
    let out = inspect(&[&path, "--strict"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.ends_with("missing section(s): costs\n"), "{err}");
    let path = scratch("cli_costs.json", &with_costs(600.0));
    let out = inspect(&[&path, "--strict"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("coverage 0.800"));
}

#[test]
fn diff_prints_the_stage_rows() {
    let a = scratch("cli_costs_a.json", &with_costs(600.0));
    let b = scratch("cli_costs_b.json", &with_costs(300.0));
    let out = inspect(&["diff", &a, &b]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    let row = |name: &str| {
        text.lines()
            .find(|l| l.trim_start().starts_with(name))
            .unwrap_or_else(|| panic!("no {name} row in:\n{text}"))
            .split_whitespace()
            .collect::<Vec<_>>()
    };
    assert_eq!(row("scheduler")[1..], ["2", "2", "0.000", "0.000", "1.00x"]);
    assert_eq!(row("arrive")[1..], ["2", "2", "0.001", "0.000", "0.50x"]);
}

//! The wire formats, pinned to bytes: a `--trace` file holding every
//! telemetry event, and a regression-gate report holding every verdict.
//! Each committed fixture must read back and re-serialize to the same
//! bytes, so a change to how a type is (de)serialized cannot move a byte
//! of what earlier versions wrote or what later versions read.
//!
//! Regenerate the fixtures after a *deliberate* format change with:
//! `BLESS=1 cargo test -p integration-tests --test wire_format`.

use std::fs;
use std::path::PathBuf;

use rigor::measurement::{BenchmarkMeasurement, InvocationRecord, IterationCounters};
use rigor::{
    check_regressions, parse_trace, ExperimentEvent, ExperimentObserver, GatePolicy, GateStatus,
    JsonlTraceObserver, SteadyStateDetector,
};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn bless() -> bool {
    std::env::var_os("BLESS").is_some()
}

/// One event of every variant, plus the second form of each optional
/// field, with values the printer must escape or spell out in full.
fn every_event() -> Vec<ExperimentEvent> {
    vec![
        ExperimentEvent::ExperimentStarted {
            benchmark: "sieve".into(),
            engine: "interp".into(),
            invocations: 4,
            iterations: 20,
        },
        ExperimentEvent::InvocationStarted {
            benchmark: "sieve".into(),
            invocation: 0,
            seed: u64::MAX,
        },
        ExperimentEvent::IterationFinished {
            benchmark: "sieve".into(),
            invocation: 0,
            iteration: 3,
            virtual_ns: 1250.5,
            counters: IterationCounters {
                gc_cycles: 1,
                jit_compiles: 2,
                deopts: 3,
            },
        },
        ExperimentEvent::InvocationFinished {
            benchmark: "sieve".into(),
            invocation: 0,
            startup_ns: 1e21,
            iterations: 20,
            error: None,
        },
        ExperimentEvent::InvocationFinished {
            benchmark: "sieve".into(),
            invocation: 1,
            startup_ns: 0.0,
            iterations: 0,
            error: Some("TypeError: \"x\"\n\tat line 3".into()),
        },
        ExperimentEvent::InvocationRetried {
            benchmark: "sieve".into(),
            invocation: 1,
            attempt: 1,
            error: "TimeoutError: deadline passed".into(),
        },
        ExperimentEvent::InvocationTimedOut {
            benchmark: "sieve".into(),
            invocation: 1,
            attempt: 0,
            kind: "fuel_exhausted".into(),
        },
        ExperimentEvent::BenchmarkQuarantined {
            benchmark: "sieve".into(),
            censored: 3,
            invocations: 4,
        },
        ExperimentEvent::CheckpointWritten {
            benchmark: "sieve".into(),
            invocation: 0,
            records: 1,
        },
        ExperimentEvent::ExperimentFinished {
            benchmark: "sieve".into(),
            engine: "interp".into(),
            failed_invocations: 1,
        },
        ExperimentEvent::RunArchived {
            store: ".rigor-store".into(),
            run_id: "ab12cd34ef56ab12cd34ef56ab12cd34".into(),
            seq: 3,
            benchmarks: 2,
        },
        ExperimentEvent::RegressionChecked {
            store: "127.0.0.1:7878".into(),
            baseline: "last-3".into(),
            checked: 2,
            regressed: 1,
            passed: false,
        },
        ExperimentEvent::TrendAnalyzed {
            store: ".rigor-store".into(),
            benchmarks: 2,
            runs: 9,
            changepoints: 1,
            alerts: 1,
        },
        ExperimentEvent::ChangepointDetected {
            benchmark: "sieve".into(),
            run_id: "ab12cd34ef56ab12cd34ef56ab12cd34".into(),
            seq: 7,
            direction: "slower".into(),
            magnitude: 1.31,
            p_adjusted: 5e-324,
            at_head: true,
        },
        ExperimentEvent::CampaignStarted {
            campaign: "c0ffee12".into(),
            cells: 8,
            workers: 2,
            arrival: "poisson:1000".into(),
        },
        ExperimentEvent::CampaignResumed {
            campaign: "c0ffee12".into(),
            completed: 3,
            cells: 8,
        },
        ExperimentEvent::CellCompleted {
            cell: "sieve/interp/10x30/42".into(),
            index: 4,
            worker: 1,
            run_id: "ab12cd34ef56ab12cd34ef56ab12cd34".into(),
            completed: 5,
            cells: 8,
        },
        ExperimentEvent::CellStolen {
            cell: "sieve/jit/10x30/42".into(),
            index: 6,
            from_worker: 0,
            to_worker: 1,
        },
        ExperimentEvent::UploadRetried {
            label: "sieve/jit/10x30/42".into(),
            attempt: 2,
            backoff_ms: 75,
            error: "127.0.0.1:7878: connect: connection refused".into(),
        },
        ExperimentEvent::CircuitOpened {
            failures: 3,
            url: "127.0.0.1:7878".into(),
        },
        ExperimentEvent::ServerDegraded {
            label: "sieve/jit/10x30/42".into(),
            spooled: 2,
        },
        ExperimentEvent::SpoolReplayed {
            replayed: 2,
            remaining: 0,
            url: "127.0.0.1:7878".into(),
        },
        ExperimentEvent::PlanComputed {
            campaign: "c0ffee12".into(),
            round: 0,
            unmet: 8,
            tasks: 8,
            planned: 24,
            spent: 24,
            budget_remaining: None,
        },
        ExperimentEvent::PlanComputed {
            campaign: "c0ffee12".into(),
            round: 1,
            unmet: 3,
            tasks: 2,
            planned: 24,
            spent: 40,
            budget_remaining: Some(160),
        },
        ExperimentEvent::CellRefined {
            cell: "sieve/interp/10x30/42".into(),
            index: 4,
            round: 1,
            invocations: 12,
            rel_half_width: None,
            target_met: false,
        },
        ExperimentEvent::CellRefined {
            cell: "sieve/interp/10x30/42".into(),
            index: 4,
            round: 2,
            invocations: 18,
            rel_half_width: Some(0.018),
            target_met: true,
        },
        ExperimentEvent::BudgetExhausted {
            campaign: "c0ffee12".into(),
            round: 3,
            spent: 200,
            budget: 200,
            unmet: 1,
        },
    ]
}

/// The `"event"` field of a committed line, read without the codec under
/// test.
fn committed_tag(line: &str) -> &str {
    let rest = line
        .strip_prefix("{\"event\":\"")
        .expect("the tag leads the line");
    &rest[..rest.find('"').expect("a closed tag")]
}

#[test]
fn every_event_keeps_its_committed_trace_line() {
    let path = fixture("every_event_trace.jsonl");
    if bless() {
        let observer = JsonlTraceObserver::create(&path).expect("create fixture");
        for event in every_event() {
            observer.on_event(&event);
        }
        observer.flush().expect("flush fixture");
    }
    let text = fs::read_to_string(&path).expect("fixture missing — regenerate with BLESS=1");
    let parsed = parse_trace(&text).expect("the committed trace parses");
    assert!(parsed.warning.is_none());
    assert_eq!(parsed.events, every_event());

    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), parsed.events.len());
    for (line, event) in lines.iter().zip(&parsed.events) {
        assert_eq!(
            serde_json::to_string(event).unwrap(),
            *line,
            "re-serializing moved a byte"
        );
        assert_eq!(event.name(), committed_tag(line));
    }

    // Every variant is present: the tags cover all 24 wire names.
    let mut tags: Vec<&str> = lines.iter().map(|l| committed_tag(l)).collect();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags.len(), 24, "{tags:?}");
}

/// A flat series at `level` with small per-invocation offsets, so the
/// statistics have variance to work with.
fn flat(name: &str, engine: &str, level: f64) -> BenchmarkMeasurement {
    let invocations = (0..8)
        .map(|i| {
            let offset = 1.0 + (i as f64 - 4.0) * 0.004;
            InvocationRecord {
                invocation: i,
                seed: u64::from(i),
                startup_ns: 0.0,
                iteration_ns: (0..20)
                    .map(|j| level * offset * (1.0 + (j % 3) as f64 * 0.001))
                    .collect(),
                gc_cycles: 0,
                jit_compiles: 0,
                deopts: 0,
                checksum: String::new(),
                iteration_counters: None,
                attempts: 1,
            }
        })
        .collect();
    BenchmarkMeasurement {
        benchmark: name.into(),
        engine: engine.into(),
        invocations,
        censored: Vec::new(),
        quarantined: false,
    }
}

/// Every invocation identical: the Welch test degenerates to a NaN p-value,
/// which the report prints as `null`.
fn constant(name: &str, level: f64) -> BenchmarkMeasurement {
    let mut m = flat(name, "interp", level);
    for r in &mut m.invocations {
        r.iteration_ns.iter_mut().for_each(|t| *t = level);
    }
    m
}

/// A gate report with every verdict: pass, a pass with a tolerance note,
/// improved, regressed, and indeterminate for a missing baseline and for a
/// quarantined measurement.
fn every_verdict_report() -> rigor::GateReport {
    let mut quarantined = flat("quarantined", "interp", 40.0);
    quarantined.quarantined = true;
    let baseline = vec![
        flat("unchanged", "interp", 100.0),
        flat("tolerated", "interp", 100.0),
        flat("faster", "interp", 100.0),
        flat("slower", "interp", 100.0),
        constant("identical", 70.0),
        flat("quarantined", "interp", 40.0),
    ];
    let current = vec![
        flat("unchanged", "interp", 100.0),
        flat("tolerated", "interp", 102.0),
        flat("faster", "jit", 60.0),
        flat("slower", "interp", 130.0),
        constant("identical", 70.0),
        quarantined,
        flat("new", "interp", 10.0),
    ];
    check_regressions(
        &baseline,
        &current,
        &SteadyStateDetector::default(),
        &GatePolicy::default().with_max_regression(0.05),
    )
}

#[test]
fn a_gate_report_with_every_verdict_keeps_its_committed_bytes() {
    let report = every_verdict_report();
    let statuses: Vec<GateStatus> = report.benchmarks.iter().map(|g| g.status).collect();
    for status in [
        GateStatus::Pass,
        GateStatus::Improved,
        GateStatus::Regressed,
        GateStatus::Indeterminate,
    ] {
        assert!(statuses.contains(&status), "{statuses:?}");
    }
    assert!(report.benchmarks.iter().any(|g| g.note.is_some()));

    let path = fixture("gate_report.json");
    let actual = serde_json::to_string_pretty(&report).unwrap();
    if bless() {
        fs::write(&path, &actual).expect("bless fixture");
    }
    let expected = fs::read_to_string(&path).expect("fixture missing — regenerate with BLESS=1");
    assert_eq!(actual, expected, "the gate report moved a byte");

    // What a client decodes, it re-encodes to the same bytes.
    let decoded: rigor::GateReport = serde_json::from_str(&expected).expect("the fixture decodes");
    assert_eq!(serde_json::to_string_pretty(&decoded).unwrap(), expected);
}

#[test]
fn the_golden_trend_report_decodes_and_reencodes_to_its_bytes() {
    let text = fs::read_to_string(fixture("trend_history/report.json")).expect("golden report");
    let decoded: rigor::TrendReport = serde_json::from_str(&text).expect("the fixture decodes");
    assert_eq!(serde_json::to_string_pretty(&decoded).unwrap(), text);
    assert_eq!(decoded.alerts().len(), 0);
    assert!(decoded.significant_count() > 0);
}

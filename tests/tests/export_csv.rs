//! Golden-file test of the CSV export format: `to_csv` must keep writing
//! byte-identical output for a fixed measurement set — the golden fixture
//! is what downstream tooling parses, including the attempts and status
//! columns added with fault tolerance.
//!
//! Regenerate the fixture after a *deliberate* format change with:
//! `BLESS=1 cargo test -p integration-tests --test export_csv`.

use std::fs;
use std::path::PathBuf;

use rigor::measurement::{
    BenchmarkMeasurement, CensoredInvocation, FailureKind, InvocationRecord, IterationCounters,
};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/golden_export.csv")
}

/// A fixed measurement set exercising every CSV feature: per-iteration
/// counters, a retried invocation, censored invocations, and a benchmark
/// recorded without counters (the pre-counter format).
fn fixture() -> Vec<BenchmarkMeasurement> {
    let counters = |gc, jit, deopts| IterationCounters {
        gc_cycles: gc,
        jit_compiles: jit,
        deopts,
    };
    vec![
        BenchmarkMeasurement {
            benchmark: "sieve".into(),
            engine: "jit".into(),
            invocations: vec![
                InvocationRecord {
                    invocation: 0,
                    seed: 101,
                    startup_ns: 1500.0,
                    iteration_ns: vec![220.5, 210.0, 209.75],
                    gc_cycles: 3,
                    jit_compiles: 2,
                    deopts: 1,
                    checksum: "1028".into(),
                    iteration_counters: Some(vec![
                        counters(2, 2, 1),
                        counters(1, 0, 0),
                        counters(0, 0, 0),
                    ]),
                    attempts: 1,
                },
                InvocationRecord {
                    invocation: 2,
                    seed: 103,
                    startup_ns: 1480.0,
                    iteration_ns: vec![219.0, 211.25, 208.5],
                    gc_cycles: 2,
                    jit_compiles: 1,
                    deopts: 0,
                    checksum: "1028".into(),
                    iteration_counters: Some(vec![
                        counters(1, 1, 0),
                        counters(1, 0, 0),
                        counters(0, 0, 0),
                    ]),
                    attempts: 3,
                },
            ],
            censored: vec![CensoredInvocation {
                invocation: 1,
                attempts: 2,
                failure: FailureKind::Timeout,
                error: "deadline exceeded".into(),
            }],
            quarantined: false,
        },
        BenchmarkMeasurement {
            benchmark: "nbody".into(),
            engine: "interp".into(),
            invocations: vec![InvocationRecord {
                invocation: 0,
                seed: 7,
                startup_ns: 900.0,
                iteration_ns: vec![5000.0, 4999.5],
                gc_cycles: 0,
                jit_compiles: 0,
                deopts: 0,
                checksum: "-3".into(),
                iteration_counters: None,
                attempts: 1,
            }],
            censored: Vec::new(),
            quarantined: false,
        },
    ]
}

#[test]
fn csv_export_matches_the_golden_file() {
    let actual = rigor::to_csv(&fixture());
    if std::env::var_os("BLESS").is_some() {
        fs::write(golden_path(), &actual).expect("bless golden fixture");
    }
    let expected = fs::read_to_string(golden_path())
        .expect("golden fixture missing — regenerate with BLESS=1");
    assert_eq!(
        actual, expected,
        "to_csv output drifted from the golden fixture; if the format \
         change is deliberate, regenerate with BLESS=1"
    );
}

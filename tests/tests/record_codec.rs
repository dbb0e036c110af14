//! The archive's record codec, pinned to bytes: a record line that uses
//! every field and every awkward value the canonical printer handles must
//! keep the exact bytes and content id it had when the fixture was
//! written. Struct equality would not notice a printer change that moves
//! a byte; the committed line does.

use rigor::campaign::CellPrecision;
use rigor::measurement::{
    BenchmarkMeasurement, CensoredInvocation, FailureKind, InvocationRecord, IterationCounters,
};
use rigor_store::{
    parse_record_line, record_line, ConfigFingerprint, HostMeta, RunRecord, RECORD_SCHEMA_VERSION,
};

/// One record line per entry of [`precisions`], in order.
const FIXTURE: &str = include_str!("../fixtures/every_field_records.jsonl");

/// The two shapes of precision record: without and with a CI.
fn precisions() -> [CellPrecision; 2] {
    [
        CellPrecision {
            invocations_used: 6,
            rel_half_width: None,
            target_rel_half_width: 0.02,
            target_met: false,
        },
        CellPrecision {
            invocations_used: 6,
            rel_half_width: Some(0.0125),
            target_rel_half_width: 0.02,
            target_met: true,
        },
    ]
}

/// A run with a label that needs escaping, iteration counters, a retried
/// invocation, a censored invocation of every failure kind, extreme seeds
/// and floats whose shortest form is long or signed.
fn every_field_record(precision: CellPrecision) -> RunRecord {
    let failures = [
        FailureKind::Timeout,
        FailureKind::FuelExhausted,
        FailureKind::Panic,
        FailureKind::VmError,
    ];
    let measurement = BenchmarkMeasurement {
        benchmark: "every_field".into(),
        engine: "jit".into(),
        invocations: vec![
            InvocationRecord {
                invocation: 0,
                seed: 0,
                startup_ns: 12.5,
                iteration_ns: vec![-0.0, 0.1, 1e21, 5e-324],
                gc_cycles: 3,
                jit_compiles: 1,
                deopts: 2,
                checksum: "-17".into(),
                iteration_counters: Some(
                    (0..4)
                        .map(|i| IterationCounters {
                            gc_cycles: i,
                            jit_compiles: i % 2,
                            deopts: i / 2,
                        })
                        .collect(),
                ),
                attempts: 2,
            },
            InvocationRecord {
                invocation: 1,
                seed: u64::MAX,
                startup_ns: 7.0,
                iteration_ns: vec![100.0, 99.75, 1.0e-7, 123456789.125],
                gc_cycles: 0,
                jit_compiles: 0,
                deopts: 0,
                checksum: "[1, 'two']".into(),
                iteration_counters: None,
                attempts: 1,
            },
        ],
        censored: failures
            .iter()
            .enumerate()
            .map(|(i, &failure)| CensoredInvocation {
                invocation: 2 + i as u32,
                attempts: 3,
                failure,
                error: format!("{failure}: \"boom\"\n\tat line {i}"),
            })
            .collect(),
        quarantined: true,
    };
    RunRecord {
        id: String::new(),
        seq: 7,
        label: Some("nightly \"rc\" \\ tab\t bell\u{7} \u{1f} é 日本 😀".into()),
        schema_version: RECORD_SCHEMA_VERSION,
        fingerprint: ConfigFingerprint {
            engine: "jit".into(),
            invocations: 6,
            iterations: 4,
            size: "small".into(),
            seed: u64::MAX,
            confidence: 0.95,
        },
        // Fixed, not `HostMeta::current()`, so the bytes hold on any host.
        host: HostMeta {
            os: "linux".into(),
            arch: "x86_64".into(),
            family: "unix".into(),
        },
        measurements: vec![measurement],
        precision: None,
    }
    .with_precision(precision)
}

/// The `hash` field of a committed line, read without the codec under test.
fn committed_hash(line: &str) -> &str {
    let start = line.find("\"hash\":\"").expect("a hash field") + "\"hash\":\"".len();
    &line[start..start + 32]
}

#[test]
fn a_record_using_every_field_keeps_its_committed_bytes_and_id() {
    let lines: Vec<&str> = FIXTURE.lines().collect();
    assert_eq!(lines.len(), precisions().len());
    for (line, precision) in lines.into_iter().zip(precisions()) {
        let record = every_field_record(precision);
        assert_eq!(record_line(&record), line, "the printer moved a byte");
        assert_eq!(record.id, committed_hash(line));

        let parsed = parse_record_line(line).expect("the committed line verifies");
        assert_eq!(parsed.id, committed_hash(line));
        assert_eq!(record_line(&parsed), line, "parse and re-print differ");
    }
}

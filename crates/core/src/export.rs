//! Measurement export: CSV (long format) and JSON, both machine-readable
//! in round trip — [`from_json`] / [`from_csv`] parse what [`to_json`] /
//! [`to_csv`] write, and JSON carries a `schema_version` so archived
//! records stay readable as the format evolves.

use serde::json::{get_field, DeError, JsonValue};
use serde::{Deserialize, Serialize};

use crate::measurement::{
    BenchmarkMeasurement, CensoredInvocation, FailureKind, InvocationRecord, IterationCounters,
};

/// Version of the measurement export schema written by [`to_json`].
///
/// History:
/// * **v0** — a bare JSON array of measurements, no envelope (what the
///   repo wrote before the results archive existed). [`from_json`] still
///   reads it.
/// * **v1** — `{"schema_version": 1, "measurements": [...]}`.
pub const SCHEMA_VERSION: u32 = 1;

/// The CSV header [`to_csv`] writes and [`from_csv`] requires.
pub const CSV_HEADER: &str =
    "benchmark,engine,invocation,seed,iteration,virtual_ns,gc_cycles,jit_compiles,deopts,attempts,status";

/// Serializes measurements to a long-format CSV: one row per iteration,
/// plus one row per censored invocation.
///
/// Columns:
/// `benchmark,engine,invocation,seed,iteration,virtual_ns,gc_cycles,jit_compiles,deopts,attempts,status`.
/// The three counter columns are empty for records without per-iteration
/// counters (e.g. measurements exported before they were recorded).
///
/// `status` carries the error taxonomy: `measured` for first-try successes,
/// `retried` for invocations that succeeded after retries, and
/// `censored:<kind>` (e.g. `censored:timeout`) for invocations that
/// exhausted their retries — censored rows have empty seed, iteration,
/// timing and counter columns, so downstream analysis sees the gap instead
/// of a silently missing sample.
pub fn to_csv(measurements: &[BenchmarkMeasurement]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for m in measurements {
        for r in &m.invocations {
            let status = if r.attempts > 1 {
                "retried"
            } else {
                "measured"
            };
            for (i, t) in r.iteration_ns.iter().enumerate() {
                let counters = r
                    .iteration_counters
                    .as_ref()
                    .and_then(|c| c.get(i))
                    .map(|c| format!("{},{},{}", c.gc_cycles, c.jit_compiles, c.deopts))
                    .unwrap_or_else(|| ",,".into());
                out.push_str(&format!(
                    "{},{},{},{},{},{},{},{},{}\n",
                    m.benchmark, m.engine, r.invocation, r.seed, i, t, counters, r.attempts, status
                ));
            }
        }
        for c in &m.censored {
            out.push_str(&format!(
                "{},{},{},,,,,,,{},censored:{}\n",
                m.benchmark,
                m.engine,
                c.invocation,
                c.attempts,
                c.failure.name()
            ));
        }
    }
    out
}

/// A CSV line that could not be parsed back into measurements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    /// 1-based line number (0 for file-level problems).
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl CsvError {
    fn new(line: usize, message: impl Into<String>) -> CsvError {
        CsvError {
            line,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "bad measurement CSV: {}", self.message)
        } else {
            write!(
                f,
                "bad measurement CSV (line {}): {}",
                self.line, self.message
            )
        }
    }
}

impl std::error::Error for CsvError {}

fn parse_col<T: std::str::FromStr>(line: usize, field: &str, name: &str) -> Result<T, CsvError> {
    field
        .parse()
        .map_err(|_| CsvError::new(line, format!("bad {name} value `{field}`")))
}

/// Parses measurements back from the long-format CSV [`to_csv`] writes.
///
/// The CSV is the *iteration-level* view, so fields that only exist in
/// JSON are reconstructed conservatively: `startup_ns` is 0, checksums are
/// empty, per-invocation counter totals are summed from the per-iteration
/// columns (0 when those are empty), censored rows keep their failure kind
/// but lose the original error message, and no benchmark is marked
/// quarantined. Timings, seeds, attempts and the censoring structure —
/// everything the statistics consume — survive exactly, and
/// `to_csv(&from_csv(csv)?)` reproduces `csv` byte-for-byte.
///
/// # Errors
///
/// A wrong header, a wrong column count, an unparsable field, or
/// non-contiguous iteration indices within an invocation.
pub fn from_csv(csv: &str) -> Result<Vec<BenchmarkMeasurement>, CsvError> {
    let mut lines = csv.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| CsvError::new(0, "empty input"))?;
    if header.trim_end() != CSV_HEADER {
        return Err(CsvError::new(1, format!("unexpected header `{header}`")));
    }
    let n_cols = CSV_HEADER.split(',').count();

    let mut out: Vec<BenchmarkMeasurement> = Vec::new();
    for (idx, line) in lines {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() != n_cols {
            return Err(CsvError::new(
                lineno,
                format!("expected {n_cols} columns, found {}", cols.len()),
            ));
        }
        let (benchmark, engine) = (cols[0], cols[1]);
        let m = match out
            .iter_mut()
            .find(|m| m.benchmark == benchmark && m.engine == engine)
        {
            Some(m) => m,
            None => {
                out.push(BenchmarkMeasurement {
                    benchmark: benchmark.to_string(),
                    engine: engine.to_string(),
                    invocations: Vec::new(),
                    censored: Vec::new(),
                    quarantined: false,
                });
                out.last_mut().expect("just pushed")
            }
        };
        let invocation: u32 = parse_col(lineno, cols[2], "invocation")?;
        let attempts: u32 = parse_col(lineno, cols[9], "attempts")?;
        let status = cols[10];

        if let Some(kind) = status.strip_prefix("censored:") {
            let failure = FailureKind::from_name(kind)
                .ok_or_else(|| CsvError::new(lineno, format!("unknown failure kind `{kind}`")))?;
            m.censored.push(CensoredInvocation {
                invocation,
                attempts,
                failure,
                error: String::new(),
            });
            continue;
        }
        if status != "measured" && status != "retried" {
            return Err(CsvError::new(lineno, format!("unknown status `{status}`")));
        }

        let seed: u64 = parse_col(lineno, cols[3], "seed")?;
        let iteration: usize = parse_col(lineno, cols[4], "iteration")?;
        let virtual_ns: f64 = parse_col(lineno, cols[5], "virtual_ns")?;
        let counters = match (cols[6], cols[7], cols[8]) {
            ("", "", "") => None,
            (gc, jit, de) => Some(IterationCounters {
                gc_cycles: parse_col(lineno, gc, "gc_cycles")?,
                jit_compiles: parse_col(lineno, jit, "jit_compiles")?,
                deopts: parse_col(lineno, de, "deopts")?,
            }),
        };

        let r = match m
            .invocations
            .iter_mut()
            .find(|r| r.invocation == invocation)
        {
            Some(r) => r,
            None => {
                m.invocations.push(InvocationRecord {
                    invocation,
                    seed,
                    startup_ns: 0.0,
                    iteration_ns: Vec::new(),
                    gc_cycles: 0,
                    jit_compiles: 0,
                    deopts: 0,
                    checksum: String::new(),
                    iteration_counters: Some(Vec::new()),
                    attempts,
                });
                m.invocations.last_mut().expect("just pushed")
            }
        };
        if iteration != r.iteration_ns.len() {
            return Err(CsvError::new(
                lineno,
                format!(
                    "invocation {invocation} iteration {iteration} out of order \
                     (expected {})",
                    r.iteration_ns.len()
                ),
            ));
        }
        r.iteration_ns.push(virtual_ns);
        let mixed = || {
            CsvError::new(
                lineno,
                format!("invocation {invocation} mixes empty and non-empty counter columns"),
            )
        };
        match counters {
            Some(c) => match &mut r.iteration_counters {
                Some(have) => {
                    have.push(c);
                    r.gc_cycles += c.gc_cycles;
                    r.jit_compiles += c.jit_compiles;
                    r.deopts += c.deopts;
                }
                None => return Err(mixed()),
            },
            // A counter-less iteration means the whole invocation was
            // recorded without counters (to_csv never mixes within one).
            None => {
                if r.iteration_counters.as_ref().is_some_and(|v| !v.is_empty()) {
                    return Err(mixed());
                }
                r.iteration_counters = None;
            }
        }
    }
    Ok(out)
}

// `schema_version` envelope, serialized manually so field order is fixed.
struct Envelope<'a>(&'a [BenchmarkMeasurement]);

impl Serialize for Envelope<'_> {
    fn to_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("schema_version".into(), SCHEMA_VERSION.to_value()),
            ("measurements".into(), self.0.to_value()),
        ])
    }
}

/// Serializes measurements to pretty JSON under a `schema_version`
/// envelope (see [`SCHEMA_VERSION`]).
///
/// # Errors
///
/// Never in practice (the types are plain data); surfaces serde errors.
pub fn to_json(measurements: &[BenchmarkMeasurement]) -> serde_json::Result<String> {
    serde_json::to_string_pretty(&Envelope(measurements))
}

/// Parses measurements back from JSON.
///
/// Accepts the current envelope, and — for compatibility with exports
/// written before versioning existed (v0) — a bare array of measurements
/// or an envelope without a `schema_version` field.
///
/// # Errors
///
/// Malformed JSON, or a `schema_version` newer than this build understands.
pub fn from_json(json: &str) -> serde_json::Result<Vec<BenchmarkMeasurement>> {
    from_json_value(&serde_json::from_str(json)?)
}

/// [`from_json`] over an already-parsed document, such as a field of a
/// larger request body: the same envelope and bare-array handling.
///
/// # Errors
///
/// A shape mismatch, or a `schema_version` newer than this build
/// understands.
pub fn from_json_value(v: &JsonValue) -> serde_json::Result<Vec<BenchmarkMeasurement>> {
    if let JsonValue::Array(_) = v {
        // v0: a bare array, no envelope.
        return Deserialize::from_value(v).map_err(serde_json::Error::from);
    }
    let version = get_field::<Option<u32>>(v, "schema_version")
        .map_err(serde_json::Error::from)?
        .unwrap_or(0);
    if version > SCHEMA_VERSION {
        return Err(serde_json::Error::from(DeError::new(format!(
            "measurement export has schema_version {version}, but this build \
             only understands versions up to {SCHEMA_VERSION}"
        ))));
    }
    get_field(v, "measurements").map_err(serde_json::Error::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::{
        CensoredInvocation, FailureKind, InvocationRecord, IterationCounters,
    };

    fn sample() -> BenchmarkMeasurement {
        BenchmarkMeasurement {
            benchmark: "sieve".into(),
            engine: "interp".into(),
            invocations: vec![InvocationRecord {
                invocation: 0,
                seed: 42,
                startup_ns: 10.0,
                iteration_ns: vec![1.5, 2.5],
                gc_cycles: 1,
                jit_compiles: 0,
                deopts: 0,
                checksum: "95".into(),
                iteration_counters: Some(vec![
                    IterationCounters {
                        gc_cycles: 1,
                        jit_compiles: 0,
                        deopts: 0,
                    },
                    IterationCounters::default(),
                ]),
                attempts: 1,
            }],
            censored: Vec::new(),
            quarantined: false,
        }
    }

    #[test]
    fn csv_has_one_row_per_iteration() {
        let csv = to_csv(&[sample()]);
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 iterations
        assert_eq!(
            lines[0],
            "benchmark,engine,invocation,seed,iteration,virtual_ns,gc_cycles,jit_compiles,deopts,attempts,status"
        );
        assert_eq!(lines[1], "sieve,interp,0,42,0,1.5,1,0,0,1,measured");
        assert_eq!(lines[2], "sieve,interp,0,42,1,2.5,0,0,0,1,measured");
    }

    #[test]
    fn csv_leaves_counter_columns_empty_without_them() {
        let mut m = sample();
        m.invocations[0].iteration_counters = None;
        let csv = to_csv(&[m]);
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines[1], "sieve,interp,0,42,0,1.5,,,,1,measured");
    }

    #[test]
    fn csv_marks_retried_and_censored_invocations() {
        let mut m = sample();
        m.invocations[0].attempts = 2;
        m.censored.push(CensoredInvocation {
            invocation: 1,
            attempts: 3,
            failure: FailureKind::Timeout,
            error: "TimeoutError: deadline passed".into(),
        });
        let csv = to_csv(&[m]);
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 4); // header + 2 iterations + 1 censored
        assert_eq!(lines[1], "sieve,interp,0,42,0,1.5,1,0,0,2,retried");
        assert_eq!(lines[3], "sieve,interp,1,,,,,,,3,censored:timeout");
        // Every row has the same column count as the header.
        let cols = lines[0].split(',').count();
        assert!(lines.iter().all(|l| l.split(',').count() == cols));
    }

    #[test]
    fn csv_roundtrips_byte_for_byte() {
        let mut with_faults = sample();
        with_faults.invocations[0].attempts = 2;
        with_faults.censored.push(CensoredInvocation {
            invocation: 1,
            attempts: 3,
            failure: FailureKind::FuelExhausted,
            error: "fuel gone".into(),
        });
        let mut no_counters = sample();
        no_counters.benchmark = "nbody".into();
        no_counters.invocations[0].iteration_counters = None;
        let csv = to_csv(&[with_faults, no_counters]);
        let parsed = from_csv(&csv).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(to_csv(&parsed), csv);
    }

    #[test]
    fn from_csv_reconstructs_structure() {
        let mut m = sample();
        m.censored.push(CensoredInvocation {
            invocation: 1,
            attempts: 2,
            failure: FailureKind::Panic,
            error: "boom".into(),
        });
        let parsed = from_csv(&to_csv(&[m])).unwrap();
        assert_eq!(parsed.len(), 1);
        let p = &parsed[0];
        assert_eq!(p.benchmark, "sieve");
        assert_eq!(p.invocations.len(), 1);
        assert_eq!(p.invocations[0].iteration_ns, vec![1.5, 2.5]);
        assert_eq!(p.invocations[0].seed, 42);
        assert_eq!(p.invocations[0].gc_cycles, 1); // summed from counters
        assert_eq!(p.censored.len(), 1);
        assert_eq!(p.censored[0].failure, FailureKind::Panic);
        assert_eq!(p.censored[0].error, ""); // lossy: message lives in JSON
        assert_eq!(p.n_requested(), 2);
    }

    #[test]
    fn from_csv_rejects_malformed_input() {
        assert!(from_csv("").is_err());
        assert!(from_csv("wrong,header\n").is_err());
        let short_row = format!("{CSV_HEADER}\nsieve,interp,0\n");
        assert!(from_csv(&short_row).is_err());
        let bad_time = format!("{CSV_HEADER}\nsieve,interp,0,42,0,fast,,,,1,measured\n");
        assert!(from_csv(&bad_time).is_err());
        let bad_status = format!("{CSV_HEADER}\nsieve,interp,0,42,0,1.5,,,,1,wat\n");
        assert!(from_csv(&bad_status).is_err());
        let bad_kind = format!("{CSV_HEADER}\nsieve,interp,0,,,,,,,1,censored:gremlins\n");
        assert!(from_csv(&bad_kind).is_err());
        // Iterations must be contiguous within an invocation.
        let gap = format!("{CSV_HEADER}\nsieve,interp,0,42,1,1.5,,,,1,measured\n");
        assert!(from_csv(&gap).is_err());
    }

    #[test]
    fn json_roundtrips_iteration_counters() {
        let ms = vec![sample()];
        let json = to_json(&ms).unwrap();
        let back = from_json(&json).unwrap();
        let counters = back[0].invocations[0].iteration_counters.as_ref().unwrap();
        assert_eq!(counters.len(), 2);
        assert_eq!(counters[0].gc_cycles, 1);
        assert_eq!(counters[1], IterationCounters::default());
    }

    #[test]
    fn json_without_counters_field_still_parses() {
        // Simulates JSON exported before `iteration_counters` existed.
        let mut ms = vec![sample()];
        ms[0].invocations[0].iteration_counters = None;
        let json = to_json(&ms).unwrap();
        assert!(!json.contains("iteration_counters"));
        let back = from_json(&json).unwrap();
        assert!(back[0].invocations[0].iteration_counters.is_none());
    }

    #[test]
    fn json_roundtrip() {
        let ms = vec![sample()];
        let json = to_json(&ms).unwrap();
        let back = from_json(&json).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].benchmark, "sieve");
        assert_eq!(back[0].invocations[0].iteration_ns, vec![1.5, 2.5]);
    }

    #[test]
    fn json_carries_the_schema_version() {
        let json = to_json(&[sample()]).unwrap();
        assert!(json.starts_with("{"));
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"measurements\""));
    }

    #[test]
    fn v0_exports_still_parse() {
        // A bare array — what `to_json` wrote before the envelope existed.
        let v0 = serde_json::to_string_pretty(&vec![sample()]).unwrap();
        assert!(v0.starts_with("["));
        let back = from_json(&v0).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].benchmark, "sieve");
        // An envelope without the field is treated as v0 too.
        let unversioned = "{\"measurements\":[]}";
        assert!(from_json(unversioned).unwrap().is_empty());
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let json = "{\"schema_version\":99,\"measurements\":[]}";
        let err = from_json(json).unwrap_err();
        assert!(err.to_string().contains("schema_version 99"), "{err}");
    }

    #[test]
    fn json_roundtrips_censoring_metadata() {
        let mut ms = vec![sample()];
        ms[0].quarantined = true;
        ms[0].censored.push(CensoredInvocation {
            invocation: 1,
            attempts: 2,
            failure: FailureKind::Panic,
            error: "worker panicked".into(),
        });
        let json = to_json(&ms).unwrap();
        let back = from_json(&json).unwrap();
        assert!(back[0].quarantined);
        assert_eq!(back[0].censored, ms[0].censored);
    }
}

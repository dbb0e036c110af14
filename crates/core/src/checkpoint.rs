//! Checkpoint journal: completed invocations streamed to JSONL so a killed
//! experiment resumes where it stopped instead of restarting.
//!
//! Format: one JSON object per line. The first line is a *meta* line
//! identifying the experiment (benchmark, engine, seed, shape, size); every
//! subsequent line is either a completed [`InvocationRecord`] or a
//! [`CensoredInvocation`]:
//!
//! ```text
//! {"journal":"rigor-checkpoint","version":1,"benchmark":"sieve",...}
//! {"record":{"invocation":0,...}}
//! {"censored":{"invocation":3,...}}
//! ```
//!
//! Lines are flushed as they are written, so after a crash the file holds
//! every finished invocation plus at most one unterminated line, which
//! [`Journal::load`] drops and flags; a complete line that fails to parse
//! is an error naming its line (the rule of every [`crate::jsonl`] reader).
//! Because invocation seeds are pure functions of the experiment seed,
//! replaying journaled records and running only the missing invocations
//! reproduces the uninterrupted experiment bit-for-bit.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;

use rigor_workloads::verify::size_label;
use serde::json::{get_field, DeError, JsonValue};
use serde::{Deserialize, Serialize};

use crate::config::ExperimentConfig;
use crate::jsonl::{journal_lines, Header};
use crate::measurement::{CensoredInvocation, InvocationRecord};

/// The header of the meta line.
const HEADER: Header = Header {
    tag: "journal",
    magic: "rigor-checkpoint",
    version: 1,
};

/// Identity of the experiment a journal belongs to. Resume refuses to mix
/// journals across experiments: replaying records measured under a different
/// seed or shape would silently corrupt the statistics.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalMeta {
    /// Benchmark name.
    pub benchmark: String,
    /// Engine name (`"interp"` / `"jit"`).
    pub engine: String,
    /// Master experiment seed.
    pub experiment_seed: u64,
    /// Requested invocation count.
    pub invocations: u32,
    /// Requested iterations per invocation.
    pub iterations: u32,
    /// Workload size preset label (`"small"` / `"default"` / `"large"`).
    /// A journal written before the field cannot prove its size: it does
    /// not load.
    pub size: String,
}

impl JournalMeta {
    /// The meta for one benchmark under `config`.
    pub fn for_experiment(config: &ExperimentConfig, benchmark: &str) -> JournalMeta {
        JournalMeta {
            benchmark: benchmark.to_string(),
            engine: config.engine.name().to_string(),
            experiment_seed: config.experiment_seed,
            invocations: config.invocations,
            iterations: config.iterations,
            size: size_label(config.size).to_string(),
        }
    }
}

/// Appends completed invocations to a journal file, one flushed line each.
#[derive(Debug)]
pub struct JournalWriter {
    file: std::fs::File,
    written: u32,
}

impl JournalWriter {
    /// Creates (truncating) a journal at `path` and writes the meta line.
    ///
    /// # Errors
    ///
    /// When the file cannot be created or written.
    pub fn create(path: &Path, meta: &JournalMeta) -> io::Result<JournalWriter> {
        let mut file = std::fs::File::create(path)?;
        writeln!(file, "{}", HEADER.line(meta))?;
        file.flush()?;
        Ok(JournalWriter { file, written: 0 })
    }

    fn append(&mut self, tag: &str, value: JsonValue) -> io::Result<u32> {
        let line = JsonValue::Object(vec![(tag.to_string(), value)]);
        let text = serde_json::to_string(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        writeln!(self.file, "{text}")?;
        // Flush per line: the whole point is surviving a kill mid-run.
        self.file.flush()?;
        self.written += 1;
        Ok(self.written)
    }

    /// Appends a measured invocation; returns the journaled-line count.
    ///
    /// # Errors
    ///
    /// When the write fails.
    pub fn append_record(&mut self, record: &InvocationRecord) -> io::Result<u32> {
        self.append("record", record.to_value())
    }

    /// Appends a censored invocation; returns the journaled-line count.
    ///
    /// # Errors
    ///
    /// When the write fails.
    pub fn append_censored(&mut self, censored: &CensoredInvocation) -> io::Result<u32> {
        self.append("censored", censored.to_value())
    }

    /// Invocations journaled so far (meta line excluded).
    pub fn len(&self) -> u32 {
        self.written
    }

    /// True when no invocation has been journaled yet.
    pub fn is_empty(&self) -> bool {
        self.written == 0
    }
}

/// A loaded journal: the experiment identity plus every completed
/// invocation, keyed by invocation index.
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    /// Identity of the journaled experiment.
    pub meta: JournalMeta,
    /// Measured invocations, by index.
    pub records: BTreeMap<u32, InvocationRecord>,
    /// Censored invocations, by index.
    pub censored: BTreeMap<u32, CensoredInvocation>,
    /// True when the file ended in an unterminated line (crash
    /// mid-write), which was dropped unparsed; the complete lines above are
    /// still usable.
    pub truncated: bool,
}

fn parse_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Journal {
    /// Parses journal text.
    ///
    /// # Errors
    ///
    /// A missing/invalid meta line, or a complete line that is not a
    /// `record` or `censored` line (named by its 1-based number).
    pub fn parse(text: &str) -> io::Result<Journal> {
        let (lines, truncated) = journal_lines(text.as_bytes());
        let &(_, head) = lines
            .first()
            .ok_or_else(|| parse_err("no complete meta line"))?;
        let head = HEADER
            .check(head)
            .map_err(|e| parse_err(format!("not a checkpoint journal: {e}")))?;
        let meta = JournalMeta::from_value(&head)
            .map_err(|e| parse_err(format!("journal meta line: {e}")))?;

        let mut journal = Journal {
            meta,
            records: BTreeMap::new(),
            censored: BTreeMap::new(),
            truncated,
        };
        for (idx, &(offset, line)) in lines.iter().enumerate().skip(1) {
            let line = &text[offset..offset + line.len()];
            if line.trim().is_empty() {
                continue;
            }
            match Journal::parse_line(line)
                .map_err(|e| parse_err(format!("journal line {}: {e}", idx + 1)))?
            {
                ParsedLine::Record(r) => {
                    journal.records.insert(r.invocation, r);
                }
                ParsedLine::Censored(c) => {
                    journal.censored.insert(c.invocation, c);
                }
            }
        }
        Ok(journal)
    }

    fn parse_line(line: &str) -> Result<ParsedLine, DeError> {
        let v: JsonValue = serde_json::from_str(line).map_err(|e| DeError::new(e.to_string()))?;
        if v.get("record").is_some() {
            Ok(ParsedLine::Record(get_field(&v, "record")?))
        } else if v.get("censored").is_some() {
            Ok(ParsedLine::Censored(get_field(&v, "censored")?))
        } else {
            Err(DeError::new("expected a `record` or `censored` line"))
        }
    }

    /// Loads and parses a journal file.
    ///
    /// # Errors
    ///
    /// I/O errors, plus everything [`Journal::parse`] rejects.
    pub fn load(path: &Path) -> io::Result<Journal> {
        Journal::parse(&std::fs::read_to_string(path)?)
    }

    /// Completed invocations (measured + censored).
    pub fn completed(&self) -> usize {
        self.records.len() + self.censored.len()
    }

    /// True when invocation `inv` already has a journaled outcome.
    pub fn contains(&self, inv: u32) -> bool {
        self.records.contains_key(&inv) || self.censored.contains_key(&inv)
    }

    /// Checks that this journal belongs to the experiment described by
    /// `config` + `benchmark`.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first mismatch.
    pub fn check_matches(&self, config: &ExperimentConfig, benchmark: &str) -> Result<(), String> {
        let expected = JournalMeta::for_experiment(config, benchmark);
        if self.meta != expected {
            return Err(format!(
                "journal was written by a different experiment: journal has \
                 {:?}, this run is {:?}",
                self.meta, expected
            ));
        }
        Ok(())
    }
}

enum ParsedLine {
    Record(InvocationRecord),
    Censored(CensoredInvocation),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::FailureKind;

    fn meta() -> JournalMeta {
        JournalMeta {
            benchmark: "sieve".into(),
            engine: "interp".into(),
            experiment_seed: 7,
            invocations: 4,
            iterations: 3,
            size: "default".into(),
        }
    }

    fn record(inv: u32) -> InvocationRecord {
        InvocationRecord {
            invocation: inv,
            seed: 100 + u64::from(inv),
            startup_ns: 10.5,
            iteration_ns: vec![1.0, 2.0, 3.0],
            gc_cycles: 1,
            jit_compiles: 0,
            deopts: 0,
            checksum: "9".into(),
            iteration_counters: None,
            attempts: 1,
        }
    }

    fn censored(inv: u32) -> CensoredInvocation {
        CensoredInvocation {
            invocation: inv,
            attempts: 2,
            failure: FailureKind::Timeout,
            error: "TimeoutError: too slow".into(),
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "rigor-checkpoint-test-{}-{name}",
            std::process::id()
        ));
        p
    }

    #[test]
    fn roundtrip_through_a_file() {
        let path = temp_path("roundtrip.jsonl");
        let mut w = JournalWriter::create(&path, &meta()).unwrap();
        assert!(w.is_empty());
        assert_eq!(w.append_record(&record(0)).unwrap(), 1);
        assert_eq!(w.append_censored(&censored(1)).unwrap(), 2);
        assert_eq!(w.append_record(&record(2)).unwrap(), 3);
        assert_eq!(w.len(), 3);
        drop(w);

        let j = Journal::load(&path).unwrap();
        assert_eq!(j.meta, meta());
        assert_eq!(j.completed(), 3);
        assert!(!j.truncated);
        assert_eq!(j.records.get(&0), Some(&record(0)));
        assert_eq!(j.records.get(&2), Some(&record(2)));
        assert_eq!(j.censored.get(&1), Some(&censored(1)));
        assert!(j.contains(1));
        assert!(!j.contains(3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_final_line_is_tolerated() {
        let path = temp_path("truncated.jsonl");
        let mut w = JournalWriter::create(&path, &meta()).unwrap();
        w.append_record(&record(0)).unwrap();
        w.append_record(&record(1)).unwrap();
        drop(w);
        // Chop the tail mid-line, as a kill -9 mid-write would.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.trim_end().len() - 15;
        std::fs::write(&path, &text[..cut]).unwrap();

        let j = Journal::load(&path).unwrap();
        assert!(j.truncated);
        assert_eq!(j.completed(), 1);
        assert_eq!(j.records.get(&0), Some(&record(0)));
        std::fs::remove_file(&path).ok();
    }

    /// A complete `record` line, newline included.
    fn record_line(inv: u32) -> String {
        let line = JsonValue::Object(vec![("record".into(), record(inv).to_value())]);
        format!("{}\n", serde_json::to_string(&line).unwrap())
    }

    #[test]
    fn a_corrupt_complete_last_line_is_an_error_naming_its_line() {
        let text = format!(
            "{}\n{}{}\n",
            HEADER.line(&meta()),
            record_line(0),
            &record_line(1)[..40]
        );
        let err = Journal::parse(&text).unwrap_err().to_string();
        assert!(err.contains("journal line 3"), "{err}");
    }

    #[test]
    fn an_unterminated_tail_is_dropped_and_flagged_even_when_it_parses() {
        let text = format!(
            "{}\n{}{}",
            HEADER.line(&meta()),
            record_line(0),
            record_line(1)
        );
        let j = Journal::parse(text.trim_end()).unwrap();
        assert!(j.truncated);
        assert_eq!(j.completed(), 1, "the unterminated record is not replayed");
        let j = Journal::parse(&text).unwrap();
        assert!(!j.truncated);
        assert_eq!(j.completed(), 2);
    }

    #[test]
    fn garbage_in_the_middle_is_an_error() {
        let mut text = HEADER.line(&meta());
        text.push('\n');
        text.push_str("not json\n");
        text.push_str(
            &serde_json::to_string(&JsonValue::Object(vec![(
                "record".into(),
                record(0).to_value(),
            )]))
            .unwrap(),
        );
        text.push('\n');
        assert!(Journal::parse(&text).is_err());
    }

    #[test]
    fn rejects_non_journals() {
        assert!(Journal::parse("").is_err());
        assert!(Journal::parse("{\"foo\":1}\n").is_err());
        let wrong_version = "{\"journal\":\"rigor-checkpoint\",\"version\":99,\"benchmark\":\"x\",\
             \"engine\":\"interp\",\"experiment_seed\":1,\"invocations\":1,\"iterations\":1}\n";
        let err = Journal::parse(wrong_version).unwrap_err().to_string();
        assert!(err.contains("unsupported version 99"), "{err}");
    }

    #[test]
    fn a_meta_line_without_a_size_is_refused_by_name() {
        // Written before the meta line recorded the size: nothing proves
        // which size its records were measured at.
        let text = "{\"journal\":\"rigor-checkpoint\",\"version\":1,\"benchmark\":\"sieve\",\
                    \"engine\":\"interp\",\"experiment_seed\":7,\"invocations\":4,\
                    \"iterations\":3}\n";
        let err = Journal::parse(text).unwrap_err().to_string();
        assert!(err.contains("`size`"), "{err}");
    }

    #[test]
    fn meta_mismatch_is_detected() {
        let j = Journal {
            meta: meta(),
            records: BTreeMap::new(),
            censored: BTreeMap::new(),
            truncated: false,
        };
        let config = crate::ExperimentConfig::interp()
            .with_invocations(4)
            .with_iterations(3)
            .with_seed(7);
        assert!(j.check_matches(&config, "sieve").is_ok());
        assert!(j.check_matches(&config, "other").is_err());
        assert!(j
            .check_matches(&config.clone().with_seed(8), "sieve")
            .is_err());
        assert!(j
            .check_matches(&config.with_invocations(5), "sieve")
            .is_err());
    }
}

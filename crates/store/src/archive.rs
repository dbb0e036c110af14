//! The append-only archive journal: one fsynced, length- and
//! hash-protected JSONL line per run.
//!
//! ```text
//! {"store":"rigor-archive","version":1}
//! {"len":1234,"hash":"<32 hex>","run":{...canonical payload...}}
//! {"len":987,"hash":"<32 hex>","run":{...}}
//! ```
//!
//! Crash semantics are those of every `rigor::jsonl` file: every append
//! writes one complete line and fsyncs, so after a kill the file holds
//! every archived run plus at most one torn (unterminated) final line.
//! [`Store::open`] keeps the valid prefix and remembers where it ends; the
//! next append truncates the torn tail before writing, so the file never
//! accumulates garbage. A *complete* line that fails its length/hash check
//! is corruption, not truncation, and is a hard error.

use std::fmt;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use rigor::jsonl::{journal_lines, Header};
use rigor::measurement::BenchmarkMeasurement;
use rigor::ExperimentConfig;
use serde::json::{get_field, DeError, JsonValue};

use crate::record::RunRecord;

/// File name of the archive journal inside the store directory.
pub const ARCHIVE_FILE: &str = "archive.jsonl";
/// The header of the meta line, which carries no other field.
const HEADER: Header = Header {
    tag: "store",
    magic: "rigor-archive",
    version: 1,
};

/// Any failure of the results archive.
#[derive(Debug)]
pub enum StoreError {
    /// Reading or writing the store failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error.
        source: io::Error,
    },
    /// The archive file exists but is not a rigor archive (bad meta line or
    /// unsupported version).
    NotAnArchive {
        /// The archive path.
        path: String,
        /// What was wrong.
        message: String,
    },
    /// A complete (newline-terminated) line failed to parse or failed its
    /// length/hash integrity check — corruption, not a torn write.
    Corrupt {
        /// 1-based line number in the archive file.
        line: usize,
        /// Byte offset of the start of the corrupt line.
        offset: u64,
        /// What was wrong.
        message: String,
    },
    /// A baseline reference matched no archived run.
    UnknownRun {
        /// The reference as given.
        reference: String,
    },
    /// A run-id prefix matched more than one archived run.
    AmbiguousRun {
        /// The reference as given.
        reference: String,
        /// The ids it matched.
        matches: Vec<String>,
    },
    /// The archive holds no runs yet.
    Empty,
    /// A record's seq is held by a run with other content ([`Store::put`]).
    Conflict {
        /// The contested seq.
        seq: u64,
        /// The short id of the run that holds it.
        held_by: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => write!(f, "{path}: {source}"),
            StoreError::NotAnArchive { path, message } => {
                write!(f, "{path}: not a rigor archive: {message}")
            }
            StoreError::Corrupt {
                line,
                offset,
                message,
            } => {
                write!(
                    f,
                    "archive line {line} (byte offset {offset}): corrupt: {message}"
                )
            }
            StoreError::UnknownRun { reference } => {
                write!(f, "no archived run matches `{reference}`")
            }
            StoreError::AmbiguousRun { reference, matches } => write!(
                f,
                "run reference `{reference}` is ambiguous: matches {}",
                matches.join(", ")
            ),
            StoreError::Empty => write!(
                f,
                "the archive holds no runs yet (run `rigor archive` first)"
            ),
            StoreError::Conflict { seq, held_by } => write!(
                f,
                "seq {seq} is already held by run {held_by} with different content"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(path: &Path) -> impl Fn(io::Error) -> StoreError + '_ {
    move |source| StoreError::Io {
        path: path.display().to_string(),
        source,
    }
}

fn meta_line_text() -> String {
    HEADER.line(&JsonValue::Object(Vec::new()))
}

/// Formats one record line — `{"len":N,"hash":"…","run":{…}}` — the unit of
/// both the on-disk journal and the `rigor serve` wire protocol. The payload
/// text is spliced in verbatim so the stored bytes are exactly the bytes the
/// hash was computed over.
pub fn record_line(record: &RunRecord) -> String {
    let payload = record.payload_json();
    format!(
        "{{\"len\":{},\"hash\":\"{}\",\"run\":{}}}",
        payload.len(),
        record.id,
        payload
    )
}

/// Parses and integrity-checks one record line (see [`record_line`]).
///
/// # Errors
///
/// Malformed JSON, a missing field, or a length/content-hash mismatch
/// between the header and the re-serialized payload.
pub fn parse_record_line(line: &str) -> Result<RunRecord, DeError> {
    let v: JsonValue = serde_json::from_str(line).map_err(|e| DeError::new(e.to_string()))?;
    let len: u64 = get_field(&v, "len")?;
    let hash: String = get_field(&v, "hash")?;
    let run = v
        .get("run")
        .ok_or_else(|| DeError::new("missing `run` field"))?;
    // The id is the hash of the canonical re-serialization of the parsed
    // payload, so comparing it (and that text's length) against the header
    // verifies every byte that matters survived.
    let (record, payload) = RunRecord::from_payload_canonical(run)?;
    if payload.len() as u64 != len {
        return Err(DeError::new(format!(
            "length mismatch: header says {len}, payload re-serializes to {}",
            payload.len()
        )));
    }
    if record.id != hash {
        return Err(DeError::new(format!(
            "content hash mismatch: header says {hash}, payload hashes to {}",
            record.id
        )));
    }
    Ok(record)
}

/// Decodes and integrity-checks one complete record line; `Ok(None)` is a
/// blank line. Bytes that are not UTF-8, as bit rot leaves them, are
/// corruption like any other, so the caller can say where they are.
fn parse_journal_line(line: &[u8]) -> Result<Option<RunRecord>, String> {
    let text = std::str::from_utf8(line).map_err(|e| format!("not valid UTF-8: {e}"))?;
    if text.trim().is_empty() {
        return Ok(None);
    }
    parse_record_line(text).map(Some).map_err(|e| e.to_string())
}

/// One complete line that failed parsing or its integrity check, located
/// precisely so the damage can be inspected with a hex editor or `dd`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptLine {
    /// 1-based line number in the archive file.
    pub line: usize,
    /// Byte offset of the start of the line.
    pub offset: u64,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for CorruptLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {} (byte offset {}): {}",
            self.line, self.offset, self.message
        )
    }
}

/// Result of a [`Store::verify`] integrity scan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyReport {
    /// Runs whose length and content hash checked out.
    pub intact: usize,
    /// Complete lines that failed parsing or integrity, each located by
    /// line number and byte offset.
    pub corrupt: Vec<CorruptLine>,
    /// True when the file ends in an unterminated (torn) line.
    pub torn_tail: bool,
}

impl VerifyReport {
    /// True when every line checked out and the file ends cleanly.
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty() && !self.torn_tail
    }
}

/// Result of a [`Store::compact`] rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionReport {
    /// Runs kept.
    pub kept: usize,
    /// Runs dropped (when a retention limit was given).
    pub dropped: usize,
    /// Journal size before, bytes.
    pub bytes_before: u64,
    /// Journal size after, bytes.
    pub bytes_after: u64,
}

/// The `n` runs with the highest seqs, in ascending seq order (runs that
/// share a seq keep their archive order): what `last` and `last-N` select,
/// whatever order the runs were appended in.
pub(crate) fn newest(runs: &[RunRecord], n: usize) -> Vec<&RunRecord> {
    let mut by_seq: Vec<&RunRecord> = runs.iter().collect();
    by_seq.sort_by_key(|r| r.seq);
    by_seq.split_off(by_seq.len().saturating_sub(n))
}

/// [`Store::get`] over any run slice.
pub(crate) fn find_run<'r>(
    runs: &'r [RunRecord],
    reference: &str,
) -> Result<&'r RunRecord, StoreError> {
    if let Some(run) = runs.iter().find(|r| r.label.as_deref() == Some(reference)) {
        return Ok(run);
    }
    let matches: Vec<&RunRecord> = runs
        .iter()
        .filter(|r| r.id.starts_with(reference))
        .collect();
    match matches.as_slice() {
        [] => Err(StoreError::UnknownRun {
            reference: reference.to_string(),
        }),
        [one] => Ok(one),
        many => Err(StoreError::AmbiguousRun {
            reference: reference.to_string(),
            matches: many.iter().map(|r| r.short_id().to_string()).collect(),
        }),
    }
}

/// An open results archive: the parsed journal plus its on-disk location.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    runs: Vec<RunRecord>,
    /// Byte length of the valid journal prefix (meta line + every intact
    /// record line). Anything past this is a torn tail, dropped on the next
    /// append.
    valid_len: u64,
    torn: bool,
    /// One past the highest seq in `runs` (0 when empty).
    next_seq: u64,
}

impl Store {
    /// Opens (creating if needed) the archive in directory `dir`.
    ///
    /// A torn final line — the signature of a kill mid-append — is
    /// tolerated: the valid prefix loads and the tail is dropped on the
    /// next append. Corruption anywhere else is a hard error. Opening an
    /// existing archive writes nothing.
    ///
    /// # Errors
    ///
    /// I/O failures, a non-archive file at the journal path, or a corrupt
    /// complete line.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(io_err(&dir))?;
        let path = dir.join(ARCHIVE_FILE);
        if !path.exists() {
            let mut f = std::fs::File::create(&path).map_err(io_err(&path))?;
            writeln!(f, "{}", meta_line_text()).map_err(io_err(&path))?;
            f.sync_all().map_err(io_err(&path))?;
        }
        let bytes = std::fs::read(&path).map_err(io_err(&path))?;
        let mut store = Store {
            dir,
            runs: Vec::new(),
            valid_len: 0,
            torn: false,
            next_seq: 0,
        };
        store.parse_journal(&path, &bytes)?;
        Ok(store)
    }

    fn parse_journal(&mut self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let (complete, torn) = journal_lines(bytes);
        self.torn = torn;
        let Some(&(_, first)) = complete.first() else {
            // Nothing complete on disk (fresh kill before the meta line
            // finished): treat as an empty archive; the torn tail — if any
            // — is dropped on the next append.
            self.valid_len = 0;
            return Ok(());
        };
        HEADER
            .check(first)
            .map_err(|message| StoreError::NotAnArchive {
                path: path.display().to_string(),
                message,
            })?;

        for (idx, &(offset, line)) in complete.iter().enumerate().skip(1) {
            let corrupt = |message| StoreError::Corrupt {
                line: idx + 1,
                offset: offset as u64,
                message,
            };
            if let Some(record) = parse_journal_line(line).map_err(corrupt)? {
                self.push(record);
            }
        }
        // Every complete line checked out, so the valid prefix is all of them.
        let (offset, line) = complete[complete.len() - 1];
        self.valid_len = (offset + line.len() + 1) as u64;
        Ok(())
    }

    /// Adds a run to the in-memory state, keeping `next_seq` past it.
    fn push(&mut self, record: RunRecord) {
        self.next_seq = self.next_seq.max(record.seq.saturating_add(1));
        self.runs.push(record);
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the archive journal.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join(ARCHIVE_FILE)
    }

    /// True when the journal ended in a torn line at open time.
    pub fn recovered_torn_tail(&self) -> bool {
        self.torn
    }

    /// Number of archived runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True when no run is archived.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// All archived runs, in append order.
    pub fn runs(&self) -> impl Iterator<Item = &RunRecord> {
        self.runs.iter()
    }

    /// The most recently archived run.
    pub fn latest(&self) -> Option<&RunRecord> {
        self.runs.last()
    }

    /// The seq [`Store::append`] assigns next: one past the highest
    /// archived seq. Campaign cells arrive out of grid order, so this is
    /// not always one past the latest run's.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The `n` newest archived runs by seq (at least one; fewer when the
    /// archive is shorter), oldest first. A campaign's workers append cells
    /// in the order they finish, so these need not be the last lines.
    pub fn last_n(&self, n: usize) -> Vec<&RunRecord> {
        newest(&self.runs, n.max(1))
    }

    /// Finds a run by id prefix (at least one hex character) or exact
    /// label.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownRun`] when nothing matches,
    /// [`StoreError::AmbiguousRun`] when an id prefix matches several runs.
    pub fn get(&self, reference: &str) -> Result<&RunRecord, StoreError> {
        find_run(&self.runs, reference)
    }

    /// All archived runs, in append order, as a slice.
    pub fn records(&self) -> &[RunRecord] {
        &self.runs
    }

    /// Archives one run under [`Store::next_seq`]: builds the
    /// content-addressed record, appends its line (dropping any torn tail
    /// first) and fsyncs. Returns the stored record.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn append(
        &mut self,
        label: Option<String>,
        config: &ExperimentConfig,
        measurements: Vec<BenchmarkMeasurement>,
    ) -> Result<&RunRecord, StoreError> {
        self.append_record(RunRecord::new(self.next_seq, label, config, measurements))
    }

    /// Archives a fully-formed record verbatim, under its own seq, checking
    /// nothing ([`Store::put`] is the checked form): a campaign cell's
    /// ([`RunRecord::for_cell`], at the campaign's seq base plus the cell's
    /// grid index, so its line is byte-identical whatever order concurrent
    /// workers finish in), or a run that arrived over the wire (`rigor
    /// serve`), whose id was recomputed from its canonical payload when it
    /// was parsed ([`RunRecord::from_payload`]), so the line written here
    /// is byte-identical to the one the originating client would have
    /// written locally. One line write plus one fsync, whatever the
    /// archive's length.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn append_record(&mut self, record: RunRecord) -> Result<&RunRecord, StoreError> {
        let line = record_line(&record);
        let path = self.journal_path();

        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(io_err(&path))?;
        let disk_len = file.metadata().map_err(io_err(&path))?.len();
        if self.valid_len == 0 {
            // Recovering from a kill before the meta line landed: rewrite
            // the header from scratch.
            file.set_len(0).map_err(io_err(&path))?;
            file.seek(SeekFrom::Start(0)).map_err(io_err(&path))?;
            writeln!(file, "{}", meta_line_text()).map_err(io_err(&path))?;
            self.valid_len = (meta_line_text().len() + 1) as u64;
        } else if disk_len > self.valid_len {
            // Drop the torn tail so the journal never holds mid-file garbage.
            file.set_len(self.valid_len).map_err(io_err(&path))?;
        }
        file.seek(SeekFrom::Start(self.valid_len))
            .map_err(io_err(&path))?;
        writeln!(file, "{line}").map_err(io_err(&path))?;
        // fsync per append: the whole point is surviving a kill.
        file.sync_all().map_err(io_err(&path))?;

        self.valid_len += (line.len() + 1) as u64;
        self.torn = false;
        self.push(record);
        Ok(self.runs.last().expect("just pushed"))
    }

    /// Archives `record` unless the archive holds it: the one
    /// check-then-append of every writer of whole records (campaign cells,
    /// `PUT /runs`, the client's spool). Held content returns the held run
    /// with `true`; a seq held by other content is
    /// [`StoreError::Conflict`], first writer wins; anything else is
    /// appended ([`Store::append_record`]) and returned with `false`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Conflict`] and I/O failures.
    pub fn put(&mut self, record: RunRecord) -> Result<(&RunRecord, bool), StoreError> {
        if let Some(held) = self.runs.iter().position(|r| r.id == record.id) {
            return Ok((&self.runs[held], true));
        }
        if let Some(held) = self.runs.iter().find(|r| r.seq == record.seq) {
            let held_by = held.short_id().to_string();
            return Err(StoreError::Conflict {
                seq: record.seq,
                held_by,
            });
        }
        self.append_record(record).map(|run| (run, false))
    }

    /// Re-reads the journal from disk and integrity-checks every line
    /// (length + content hash) without touching the in-memory state.
    ///
    /// # Errors
    ///
    /// Only on I/O failure — integrity problems are *reported*, not thrown.
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        Store::verify_path(&self.journal_path())
    }

    /// Integrity-checks the archive in `dir` without opening it — usable
    /// on archives so corrupt that [`Store::open`] refuses them, which is
    /// exactly when a located damage report matters most.
    ///
    /// # Errors
    ///
    /// Only on I/O failure — integrity problems are *reported*, not thrown.
    pub fn verify_dir(dir: impl Into<PathBuf>) -> Result<VerifyReport, StoreError> {
        Store::verify_path(&dir.into().join(ARCHIVE_FILE))
    }

    fn verify_path(path: &Path) -> Result<VerifyReport, StoreError> {
        let bytes = std::fs::read(path).map_err(io_err(path))?;
        let (lines, torn_tail) = journal_lines(&bytes);
        let mut report = VerifyReport {
            torn_tail,
            ..VerifyReport::default()
        };
        // The meta line's shape (line 1) is checked at open.
        for (idx, &(offset, line)) in lines.iter().enumerate().skip(1) {
            match parse_journal_line(line) {
                Ok(Some(_)) => report.intact += 1,
                Ok(None) => {}
                Err(message) => report.corrupt.push(CorruptLine {
                    line: idx + 1,
                    offset: offset as u64,
                    message,
                }),
            }
        }
        Ok(report)
    }

    /// Rewrites the journal from the in-memory runs — dropping any torn
    /// tail and, when `keep_last` is given, all but the newest N runs.
    /// Atomic: written to a temp file, fsynced, renamed over the journal.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn compact(&mut self, keep_last: Option<usize>) -> Result<CompactionReport, StoreError> {
        let path = self.journal_path();
        let bytes_before = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let dropped = keep_last
            .map(|n| self.runs.len().saturating_sub(n))
            .unwrap_or(0);

        let tmp = self.dir.join(format!("{ARCHIVE_FILE}.tmp"));
        let mut valid_len = (meta_line_text().len() + 1) as u64;
        {
            let mut f = std::fs::File::create(&tmp).map_err(io_err(&tmp))?;
            writeln!(f, "{}", meta_line_text()).map_err(io_err(&tmp))?;
            for record in &self.runs[dropped..] {
                let line = record_line(record);
                writeln!(f, "{line}").map_err(io_err(&tmp))?;
                valid_len += (line.len() + 1) as u64;
            }
            f.sync_all().map_err(io_err(&tmp))?;
        }
        std::fs::rename(&tmp, &path).map_err(io_err(&path))?;

        self.runs.drain(..dropped);
        self.next_seq = self
            .runs
            .iter()
            .map(|r| r.seq.saturating_add(1))
            .max()
            .unwrap_or(0);
        self.valid_len = valid_len;
        self.torn = false;
        Ok(CompactionReport {
            kept: self.runs.len(),
            dropped,
            bytes_before,
            bytes_after: valid_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigor::measurement::InvocationRecord;

    fn measurement(benchmark: &str, level: f64) -> BenchmarkMeasurement {
        BenchmarkMeasurement {
            benchmark: benchmark.into(),
            engine: "interp".into(),
            invocations: (0..3)
                .map(|i| InvocationRecord {
                    invocation: i,
                    seed: u64::from(i),
                    startup_ns: 5.0,
                    iteration_ns: vec![level, level * 1.01, level * 0.99],
                    gc_cycles: 0,
                    jit_compiles: 0,
                    deopts: 0,
                    checksum: "7".into(),
                    iteration_counters: None,
                    attempts: 1,
                })
                .collect(),
            censored: Vec::new(),
            quarantined: false,
        }
    }

    fn config() -> ExperimentConfig {
        ExperimentConfig::interp()
            .with_invocations(3)
            .with_iterations(3)
            .with_seed(11)
    }

    fn temp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rigor-store-archive-test-{}-{name}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn append_load_roundtrip() {
        let dir = temp_store("roundtrip");
        let mut store = Store::open(&dir).unwrap();
        assert!(store.is_empty());
        let id0 = store
            .append(None, &config(), vec![measurement("sieve", 100.0)])
            .unwrap()
            .id
            .clone();
        let id1 = store
            .append(
                Some("second".into()),
                &config(),
                vec![measurement("sieve", 100.0), measurement("nbody", 50.0)],
            )
            .unwrap()
            .id
            .clone();
        assert_ne!(id0, id1);

        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        assert!(!reopened.recovered_torn_tail());
        let runs: Vec<&RunRecord> = reopened.runs().collect();
        assert_eq!(runs[0].id, id0);
        assert_eq!(runs[0].seq, 0);
        assert_eq!(runs[1].id, id1);
        assert_eq!(runs[1].seq, 1);
        assert_eq!(runs[1].label.as_deref(), Some("second"));
        assert_eq!(runs[1].benchmark_names(), vec!["sieve", "nbody"]);
        assert_eq!(reopened.latest().unwrap().id, id1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lookup_by_prefix_and_label() {
        let dir = temp_store("lookup");
        let mut store = Store::open(&dir).unwrap();
        let id = store
            .append(
                Some("tagged".into()),
                &config(),
                vec![measurement("a", 1.0)],
            )
            .unwrap()
            .id
            .clone();
        store
            .append(None, &config(), vec![measurement("a", 2.0)])
            .unwrap();
        assert_eq!(store.get(&id[..8]).unwrap().id, id);
        assert_eq!(store.get("tagged").unwrap().id, id);
        assert!(matches!(
            store.get("zzzz"),
            Err(StoreError::UnknownRun { .. })
        ));
        // The empty prefix matches everything → ambiguous.
        assert!(matches!(
            store.get(""),
            Err(StoreError::AmbiguousRun { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_recovered_and_truncated_on_append() {
        let dir = temp_store("torn");
        let mut store = Store::open(&dir).unwrap();
        store
            .append(None, &config(), vec![measurement("a", 1.0)])
            .unwrap();
        store
            .append(None, &config(), vec![measurement("a", 2.0)])
            .unwrap();
        let clean = std::fs::read(dir.join(ARCHIVE_FILE)).unwrap();

        // Chop the final line mid-way, as a kill mid-append would.
        std::fs::write(dir.join(ARCHIVE_FILE), &clean[..clean.len() - 20]).unwrap();
        let mut recovered = Store::open(&dir).unwrap();
        assert!(recovered.recovered_torn_tail());
        assert_eq!(recovered.len(), 1);

        // Re-appending the lost run reproduces the uninterrupted file
        // byte-for-byte (determinism makes the payload identical).
        recovered
            .append(None, &config(), vec![measurement("a", 2.0)])
            .unwrap();
        assert_eq!(std::fs::read(dir.join(ARCHIVE_FILE)).unwrap(), clean);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn complete_corrupt_line_is_a_hard_error() {
        let dir = temp_store("corrupt");
        let mut store = Store::open(&dir).unwrap();
        store
            .append(None, &config(), vec![measurement("a", 1.0)])
            .unwrap();
        let path = dir.join(ARCHIVE_FILE);
        let mut text = std::fs::read_to_string(&path).unwrap();
        // Flip a digit inside the record line (keeping it complete).
        let flipped = text.replace("\"len\":", "\"len\":9");
        assert_ne!(flipped, text);
        std::fs::write(&path, &flipped).unwrap();
        // The error locates the damage: line number AND byte offset (the
        // record line starts right after the meta line + newline).
        let meta_len = (meta_line_text().len() + 1) as u64;
        match Store::open(&dir) {
            Err(StoreError::Corrupt { line, offset, .. }) => {
                assert_eq!(line, 2);
                assert_eq!(offset, meta_len);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Same for a bit flipped in the payload itself.
        text = text.replace("\"startup_ns\":5.0", "\"startup_ns\":6.0");
        assert!(text.contains("\"startup_ns\":6.0"));
        std::fs::write(&path, &text).unwrap();
        assert!(matches!(Store::open(&dir), Err(StoreError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_locates_corrupt_lines_by_offset() {
        let dir = temp_store("verifyoffset");
        let mut store = Store::open(&dir).unwrap();
        store
            .append(None, &config(), vec![measurement("a", 1.0)])
            .unwrap();
        store
            .append(None, &config(), vec![measurement("b", 2.0)])
            .unwrap();
        let path = dir.join(ARCHIVE_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        // Corrupt the second record line (line 3) only.
        let mut lines: Vec<String> = text.split_inclusive('\n').map(str::to_string).collect();
        let expected_offset = (lines[0].len() + lines[1].len()) as u64;
        lines[2] = lines[2].replacen("\"startup_ns\":5.0", "\"startup_ns\":6.0", 1);
        let sabotaged = lines.concat();
        assert_ne!(sabotaged, text);
        std::fs::write(&path, &sabotaged).unwrap();
        let report = store.verify().unwrap();
        assert_eq!(report.intact, 1);
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.corrupt[0].line, 3);
        assert_eq!(report.corrupt[0].offset, expected_offset);
        assert!(report.corrupt[0].message.contains("hash mismatch"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_record_reproduces_the_local_line() {
        let dir_a = temp_store("wirelocal");
        let dir_b = temp_store("wireremote");
        let mut local = Store::open(&dir_a).unwrap();
        local
            .append(Some("wire".into()), &config(), vec![measurement("a", 1.0)])
            .unwrap();
        // Ship the record as its wire payload and ingest it verbatim.
        let payload: JsonValue =
            serde_json::from_str(&local.latest().unwrap().payload_json()).unwrap();
        let parsed = RunRecord::from_payload(&payload).unwrap();
        let mut remote = Store::open(&dir_b).unwrap();
        remote.append_record(parsed).unwrap();
        assert_eq!(
            std::fs::read(dir_a.join(ARCHIVE_FILE)).unwrap(),
            std::fs::read(dir_b.join(ARCHIVE_FILE)).unwrap()
        );
        assert!(remote.verify().unwrap().is_clean());
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn rejects_non_archives() {
        let dir = temp_store("nonarchive");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(ARCHIVE_FILE), "{\"foo\":1}\n").unwrap();
        assert!(matches!(
            Store::open(&dir),
            Err(StoreError::NotAnArchive { .. })
        ));
        std::fs::write(
            dir.join(ARCHIVE_FILE),
            "{\"store\":\"rigor-archive\",\"version\":99}\n",
        )
        .unwrap();
        assert!(matches!(
            Store::open(&dir),
            Err(StoreError::NotAnArchive { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_reports_integrity() {
        let dir = temp_store("verify");
        let mut store = Store::open(&dir).unwrap();
        store
            .append(None, &config(), vec![measurement("a", 1.0)])
            .unwrap();
        store
            .append(None, &config(), vec![measurement("b", 2.0)])
            .unwrap();
        let report = store.verify().unwrap();
        assert!(report.is_clean());
        assert_eq!(report.intact, 2);

        // Torn tail shows up in the report.
        let path = dir.join(ARCHIVE_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let report = Store::open(&dir).unwrap().verify().unwrap();
        assert!(report.torn_tail);
        assert!(!report.is_clean());
        assert_eq!(report.intact, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_drops_old_runs_and_keeps_seqs() {
        let dir = temp_store("compact");
        let mut store = Store::open(&dir).unwrap();
        for i in 0..5 {
            store
                .append(None, &config(), vec![measurement("a", 1.0 + f64::from(i))])
                .unwrap();
        }
        let report = store.compact(Some(2)).unwrap();
        assert_eq!(report.kept, 2);
        assert_eq!(report.dropped, 3);
        assert!(report.bytes_after < report.bytes_before);
        assert_eq!(store.len(), 2);
        // Sequence numbers survive compaction (they are part of identity).
        let seqs: Vec<u64> = store.runs().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        // New appends continue the sequence.
        store
            .append(None, &config(), vec![measurement("a", 9.0)])
            .unwrap();
        assert_eq!(store.latest().unwrap().seq, 5);

        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.len(), 3);
        assert!(reopened.verify().unwrap().is_clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Names of the entries in a store directory, sorted.
    fn dir_entries(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn the_journal_is_the_only_file_and_open_writes_nothing() {
        let dir = temp_store("onlyjournal");
        let mut store = Store::open(&dir).unwrap();
        for i in 0..3 {
            store
                .append(None, &config(), vec![measurement("a", 1.0 + f64::from(i))])
                .unwrap();
            assert_eq!(dir_entries(&dir), vec![ARCHIVE_FILE]);
        }
        store.compact(Some(2)).unwrap();
        assert_eq!(dir_entries(&dir), vec![ARCHIVE_FILE]);

        // Opening an existing store, clean or with a torn tail, leaves the
        // directory exactly as it was.
        let path = dir.join(ARCHIVE_FILE);
        let clean = std::fs::read(&path).unwrap();
        for bytes in [&clean[..], &clean[..clean.len() - 7]] {
            std::fs::write(&path, bytes).unwrap();
            let modified = std::fs::metadata(&path).unwrap().modified().unwrap();
            Store::open(&dir).unwrap();
            assert_eq!(dir_entries(&dir), vec![ARCHIVE_FILE]);
            assert_eq!(std::fs::read(&path).unwrap(), bytes);
            let after = std::fs::metadata(&path).unwrap().modified().unwrap();
            assert_eq!(after, modified);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn put_holds_each_content_once_and_each_seq_for_its_first_writer() {
        let dir = temp_store("put");
        let mut store = Store::open(&dir).unwrap();
        let cell = |seq, label: &str| {
            let label = Some(label.to_string());
            RunRecord::new(seq, label, &config(), vec![measurement("a", 1.0)])
        };
        let (run, held) = store.put(cell(0, "a/interp/3x3/1")).unwrap();
        assert_eq!((run.seq, held), (0, false));
        let id = run.id.clone();
        // The same record again is the held run.
        let (run, held) = store.put(cell(0, "a/interp/3x3/1")).unwrap();
        assert_eq!((run.id.as_str(), held), (id.as_str(), true));
        // The same label at a new seq (a repeated campaign) is a new run.
        let (run, held) = store.put(cell(1, "a/interp/3x3/1")).unwrap();
        assert_eq!((run.seq, held), (1, false));
        assert_ne!(run.id, id);
        // Other content at a held seq is refused, naming the holder.
        let err = store.put(cell(0, "b/interp/3x3/1")).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "seq 0 is already held by run {} with different content",
                &id[..12]
            )
        );
        assert!(matches!(err, StoreError::Conflict { seq: 0, .. }));
        assert_eq!(store.len(), 2);
        assert_eq!(Store::open(&dir).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_after_out_of_order_cells_takes_a_fresh_seq() {
        let dir = temp_store("nextseq");
        let mut store = Store::open(&dir).unwrap();
        let at_seq =
            |seq, level| RunRecord::new(seq, None, &config(), vec![measurement("a", level)]);
        // Campaign cells land in completion order, not grid order.
        store.append_record(at_seq(1, 1.0)).unwrap();
        store.append_record(at_seq(0, 2.0)).unwrap();
        assert_eq!(store.next_seq(), 2);
        let seq = store
            .append(None, &config(), vec![measurement("a", 3.0)])
            .unwrap()
            .seq;
        assert_eq!(seq, 2);
        let seqs: Vec<u64> = store.runs().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 0, 2]);

        // Reopening recovers the same next seq from the journal...
        assert_eq!(Store::open(&dir).unwrap().next_seq(), 3);
        // ...and compaction recomputes it from the runs it keeps.
        store.compact(Some(2)).unwrap();
        assert_eq!(store.next_seq(), 3);
        store.compact(Some(1)).unwrap();
        assert_eq!(store.next_seq(), 3);
        store.append_record(at_seq(7, 4.0)).unwrap();
        store.compact(Some(1)).unwrap();
        assert_eq!(store.next_seq(), 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_flipped_bit_outside_utf8_is_located() {
        let dir = temp_store("bitrot");
        let mut store = Store::open(&dir).unwrap();
        for level in [1.0, 2.0] {
            store
                .append(None, &config(), vec![measurement("a", level)])
                .unwrap();
        }
        let path = dir.join(ARCHIVE_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // Set the high bit of one byte inside line 2, the first record:
        // the line stays complete but is no longer UTF-8.
        let meta_len = meta_line_text().len() + 1;
        bytes[meta_len + 40] |= 0x80;
        std::fs::write(&path, &bytes).unwrap();

        match Store::open(&dir) {
            Err(StoreError::Corrupt {
                line,
                offset,
                message,
            }) => {
                assert_eq!(line, 2);
                assert_eq!(offset, meta_len as u64);
                assert!(message.contains("UTF-8"), "{message}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let report = Store::verify_dir(&dir).unwrap();
        assert_eq!(report.intact, 1);
        assert!(!report.torn_tail);
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.corrupt[0].line, 2);
        assert_eq!(report.corrupt[0].offset, meta_len as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn last_n_clamps() {
        let dir = temp_store("lastn");
        let mut store = Store::open(&dir).unwrap();
        for i in 0..3 {
            store
                .append(None, &config(), vec![measurement("a", 1.0 + f64::from(i))])
                .unwrap();
        }
        assert_eq!(store.last_n(2).len(), 2);
        assert_eq!(store.last_n(10).len(), 3);
        assert_eq!(store.last_n(0).len(), 1); // 0 is clamped to 1
        assert_eq!(store.last_n(2)[1].seq, 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}

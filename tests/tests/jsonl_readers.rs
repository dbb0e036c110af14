//! Hostile input at the JSONL readers: the checkpoint journal, the
//! campaign journal, the trace and the results archive. Real files of each
//! kind are mangled — truncated, bit-flipped, spliced with arbitrary bytes
//! — and read back: each reader must return its value or its typed error,
//! never panic, and forgive a torn tail only when the input ends in an
//! unterminated line. A cut file must read back exactly its complete
//! lines, and the archive must never accept a run it did not hold.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use integration_tests::mangle;
use proptest::prelude::*;
use rigor::{
    parse_trace, Campaign, CampaignJournal, CampaignSpec, ExperimentConfig, Journal,
    JsonlTraceObserver, Runner,
};
use rigor_store::{parse_record_line, SharedStore, Store, StoreError, ARCHIVE_FILE};
use rigor_workloads::{find, Size};

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rigor-jsonl-readers-{}-{name}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// One real file of each kind, and the ids of the archive's runs.
struct Sources {
    checkpoint: Vec<u8>,
    campaign: Vec<u8>,
    trace: Vec<u8>,
    archive: Vec<u8>,
    run_ids: BTreeSet<String>,
}

/// Written once: a measurement's checkpoint journal and trace, and a
/// campaign's journal and archive.
fn sources() -> &'static Sources {
    static SOURCES: OnceLock<Sources> = OnceLock::new();
    SOURCES.get_or_init(|| {
        let dir = temp_dir("sources");
        let config = ExperimentConfig::interp()
            .with_invocations(3)
            .with_iterations(2)
            .with_size(Size::Small)
            .with_seed(3);
        let trace = dir.join("trace.jsonl");
        Runner::new(config.clone())
            .expect("valid config")
            .observer(Arc::new(
                JsonlTraceObserver::create(&trace).expect("create trace"),
            ))
            .journal(dir.join("checkpoint.jsonl"))
            .measure(&find("sieve").expect("sieve in suite"))
            .expect("measure");
        let spec = CampaignSpec::new(config)
            .with_benchmarks(["sieve", "leibniz"])
            .with_seeds(vec![3]);
        let store_dir = dir.join("store");
        let sink = SharedStore::open(&store_dir).expect("open store");
        Campaign::new(spec)
            .workers(1)
            .journal(dir.join("campaign.jsonl"))
            .run(&sink)
            .expect("campaign");
        let read = |path: PathBuf| fs::read(path).expect("read source");
        let sources = Sources {
            checkpoint: read(dir.join("checkpoint.jsonl")),
            campaign: read(dir.join("campaign.jsonl")),
            trace: read(trace),
            archive: read(store_dir.join(ARCHIVE_FILE)),
            run_ids: run_ids(&Store::open(&store_dir).expect("reopen store")),
        };
        fs::remove_dir_all(&dir).ok();
        for bytes in [
            &sources.checkpoint,
            &sources.campaign,
            &sources.trace,
            &sources.archive,
        ] {
            // ASCII, so a cut anywhere leaves valid UTF-8.
            assert!(bytes.is_ascii() && bytes.ends_with(b"\n"));
        }
        sources
    })
}

/// Newline-terminated lines in `bytes`.
fn complete_lines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// True when `bytes` ends in an unterminated line.
fn torn(bytes: &[u8]) -> bool {
    bytes.last().is_some_and(|&b| b != b'\n')
}

/// The ids of the runs `store` holds.
fn run_ids(store: &Store) -> BTreeSet<String> {
    store.runs().map(|r| r.id.clone()).collect()
}

/// Writes `bytes` as the file at `path`.
fn put(path: &Path, bytes: &[u8]) {
    fs::write(path, bytes).expect("write input");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_cut_file_reads_back_its_complete_lines(at in any::<usize>()) {
        let src = sources();

        let cut = &src.checkpoint[..at % (src.checkpoint.len() + 1)];
        let lines = complete_lines(cut);
        match Journal::parse(std::str::from_utf8(cut).unwrap()) {
            Ok(journal) => {
                prop_assert!(lines >= 1);
                prop_assert_eq!(journal.completed(), lines - 1);
                prop_assert_eq!(journal.truncated, torn(cut));
            }
            Err(e) => {
                prop_assert_eq!(lines, 0, "{}", e);
                prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            }
        }

        let cut = &src.campaign[..at % (src.campaign.len() + 1)];
        let journal = CampaignJournal::parse(std::str::from_utf8(cut).unwrap()).unwrap();
        prop_assert_eq!(journal.is_some(), cut == src.campaign.as_slice());

        let cut = &src.trace[..at % (src.trace.len() + 1)];
        let trace = parse_trace(std::str::from_utf8(cut).unwrap()).unwrap();
        prop_assert_eq!(trace.events.len(), complete_lines(cut));
        prop_assert_eq!(trace.warning.is_some(), torn(cut));

        let cut = &src.archive[..at % (src.archive.len() + 1)];
        let dir = temp_dir("cut-archive");
        put(&dir.join(ARCHIVE_FILE), cut);
        let runs = complete_lines(cut).saturating_sub(1);
        let store = Store::open(&dir).unwrap();
        prop_assert_eq!(store.len(), runs);
        prop_assert_eq!(store.recovered_torn_tail(), torn(cut));
        let report = Store::verify_dir(&dir).unwrap();
        prop_assert_eq!(report.intact, runs);
        prop_assert!(report.corrupt.is_empty());
        prop_assert_eq!(report.torn_tail, torn(cut));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mangled_files_read_or_fail_typed(
        mangling in (0u8..3, any::<usize>(), 0u8..8),
        junk in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let src = sources();
        let (how, at, bit) = mangling;
        let dir = temp_dir("mangled");

        // The journals are read as files, so bytes that are not UTF-8 meet
        // the same reader a resume does.
        let bytes = mangle(src.checkpoint.clone(), how, at, bit, junk.clone());
        let path = dir.join("checkpoint.jsonl");
        put(&path, &bytes);
        match Journal::load(&path) {
            Ok(journal) => {
                prop_assert_eq!(journal.truncated, torn(&bytes));
                prop_assert!(journal.completed() < complete_lines(&bytes));
            }
            Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{}", e),
        }

        let bytes = mangle(src.campaign.clone(), how, at, bit, junk.clone());
        let path = dir.join("campaign.jsonl");
        put(&path, &bytes);
        if let Err(e) = CampaignJournal::load(&path) {
            prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{}", e);
        }

        // A parse error is the trace reader's typed error by construction;
        // what must hold is that it returns.
        let bytes = mangle(src.trace.clone(), how, at, bit, junk.clone());
        if let Ok(trace) = parse_trace(&String::from_utf8_lossy(&bytes)) {
            prop_assert_eq!(trace.warning.is_some(), torn(&bytes));
            prop_assert!(trace.events.len() <= complete_lines(&bytes));
        }

        let bytes = mangle(src.archive.clone(), how, at, bit, junk);
        put(&dir.join(ARCHIVE_FILE), &bytes);
        for line in String::from_utf8_lossy(&bytes).split('\n').skip(1) {
            let _ = parse_record_line(line);
        }
        let report = Store::verify_dir(&dir).unwrap();
        prop_assert_eq!(report.torn_tail, torn(&bytes));
        match Store::open(&dir) {
            Ok(store) => {
                // The length and content hash let no damaged line through
                // as a run the archive never held.
                prop_assert!(run_ids(&store).is_subset(&src.run_ids));
                prop_assert_eq!(store.recovered_torn_tail(), torn(&bytes));
                prop_assert!(report.corrupt.is_empty());
                prop_assert_eq!(report.intact, store.len());
            }
            Err(StoreError::NotAnArchive { .. } | StoreError::Corrupt { .. }) => {}
            Err(e) => prop_assert!(false, "untyped archive error: {}", e),
        }
        fs::remove_dir_all(&dir).ok();
    }
}

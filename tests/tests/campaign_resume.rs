//! Crash-safety of campaign orchestration: killing a campaign at any point
//! and resuming must yield an archive byte-identical to the uninterrupted
//! run's (single worker), and a content-id set identical to it under
//! concurrent workers — the campaign analogue of `store_archive.rs`.
//!
//! The journal is one identity line, written before the first cell runs;
//! the archive, appended cell by cell, is the only record of what is done.
//! So a kill leaves either a prefix of the identity line and an archive
//! without the campaign's cells, or the whole line and an archive holding
//! the first J cells.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use rigor::{Campaign, CampaignSpec, ExperimentConfig};
use rigor_store::{SharedStore, Store, ARCHIVE_FILE};
use rigor_workloads::Size;

/// The grid under test: 2 benchmarks x 1 engine x 1 variant x 2 seeds.
fn spec() -> CampaignSpec {
    let base = ExperimentConfig::interp()
        .with_invocations(1)
        .with_iterations(2)
        .with_size(Size::Small)
        .with_seed(3);
    CampaignSpec::new(base)
        .with_benchmarks(["sieve", "leibniz"])
        .with_seeds(vec![3, 4])
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rigor-campaign-resume-{}-{name}",
        std::process::id()
    ));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// Runs the campaign uninterrupted on one worker (deterministic append
/// order: grid order) and returns its (archive bytes, journal bytes).
fn clean_run(dir: &PathBuf) -> (Vec<u8>, Vec<u8>) {
    let sink = SharedStore::open(dir).expect("open store");
    let journal = dir.join("campaign.jsonl");
    let report = Campaign::new(spec())
        .workers(1)
        .journal(&journal)
        .run(&sink)
        .expect("clean campaign");
    assert!(report.is_complete());
    assert_eq!(report.executed, 4);
    (
        fs::read(dir.join(ARCHIVE_FILE)).expect("read archive"),
        fs::read(&journal).expect("read journal"),
    )
}

/// The content-id set of every archived run, with its seq.
fn id_set(dir: &PathBuf) -> BTreeSet<(u64, String)> {
    let store = Store::open(dir).expect("open");
    store.runs().map(|r| (r.seq, r.id.clone())).collect()
}

#[test]
fn every_journal_byte_prefix_resumes_to_a_byte_identical_archive() {
    let clean_dir = temp_dir("clean");
    let (clean_archive, clean_journal) = clean_run(&clean_dir);
    assert_eq!(
        clean_journal.iter().filter(|&&b| b == b'\n').count(),
        1,
        "the journal is its identity line"
    );

    // Archive line boundaries: meta line, then one line per cell in grid
    // order (workers=1). Slicing at these boundaries reconstructs the
    // archive state after any number of completed cells.
    let archive_line_ends = line_ends(&clean_archive);

    // (journal bytes, archived cells): every prefix of the identity line
    // with no cell archived, then the whole line with every count.
    let kills = (0..=clean_journal.len())
        .map(|cut| (cut, 0))
        .chain((0..archive_line_ends.len()).map(|cells| (clean_journal.len(), cells)));
    let work_dir = temp_dir("work");
    for (cut, archived) in kills {
        fs::remove_dir_all(&work_dir).ok();
        fs::create_dir_all(&work_dir).expect("work dir");
        fs::write(work_dir.join("campaign.jsonl"), &clean_journal[..cut]).expect("journal prefix");
        fs::write(
            work_dir.join(ARCHIVE_FILE),
            &clean_archive[..archive_line_ends[archived]],
        )
        .expect("archive prefix");

        let sink = SharedStore::open(&work_dir).expect("open work store");
        let report = Campaign::new(spec())
            .workers(1)
            .journal(work_dir.join("campaign.jsonl"))
            .resume(true)
            .run(&sink)
            .unwrap_or_else(|e| panic!("resume after journal cut {cut} failed: {e}"));
        assert!(report.is_complete(), "cut {cut} left the campaign torn");
        assert_eq!(
            report.skipped, archived,
            "cut {cut} must skip exactly the archived cells"
        );

        let resumed = fs::read(work_dir.join(ARCHIVE_FILE)).expect("read resumed archive");
        assert_eq!(
            resumed, clean_archive,
            "archive differs from uninterrupted run after journal cut {cut}, {archived} cells"
        );
    }
    fs::remove_dir_all(&clean_dir).ok();
    fs::remove_dir_all(&work_dir).ok();
}

/// Byte offsets just past each newline.
fn line_ends(bytes: &[u8]) -> Vec<usize> {
    bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .collect()
}

/// Earlier versions appended a `{"cell":…}` line per archived cell after
/// the identity line. Such a journal, torn mid-line, still resumes — to the
/// same archive — and is rewritten as its identity line.
#[test]
fn a_journal_with_cell_lines_resumes_to_the_same_archive() {
    let clean_dir = temp_dir("cells-clean");
    let (clean_archive, clean_journal) = clean_run(&clean_dir);
    let work_dir = temp_dir("cells-work");
    fs::create_dir_all(&work_dir).expect("work dir");
    fs::write(
        work_dir.join(ARCHIVE_FILE),
        &clean_archive[..line_ends(&clean_archive)[2]],
    )
    .expect("archive prefix");
    let mut journal = String::from_utf8(clean_journal.clone()).expect("utf-8 journal");
    for (index, run) in Store::open(&work_dir).expect("open").runs().enumerate() {
        let id = run.label.as_deref().expect("campaign cells are labeled");
        journal.push_str(&format!(
            "{{\"cell\":{{\"index\":{index},\"id\":\"{id}\",\"run_id\":\"{}\"}}}}\n",
            run.id
        ));
    }
    journal.push_str("{\"cell\":{\"index\":2,\"id\":\"leib");
    let path = work_dir.join("campaign.jsonl");
    fs::write(&path, journal).expect("journal");

    let sink = SharedStore::open(&work_dir).expect("open work store");
    let report = Campaign::new(spec())
        .workers(1)
        .journal(&path)
        .resume(true)
        .run(&sink)
        .expect("resume from a journal with cell lines");
    assert_eq!((report.skipped, report.executed), (2, 2));
    assert_eq!(
        fs::read(work_dir.join(ARCHIVE_FILE)).expect("read archive"),
        clean_archive
    );
    assert_eq!(fs::read(&path).expect("read journal"), clean_journal);
    fs::remove_dir_all(&clean_dir).ok();
    fs::remove_dir_all(&work_dir).ok();
}

#[test]
fn interrupted_concurrent_campaign_resumes_to_the_same_content_id_set() {
    let clean_dir = temp_dir("set-clean");
    let (clean_archive, _) = clean_run(&clean_dir);

    // Interrupt a 4-worker run after at most 2 cells, then resume it.
    let work_dir = temp_dir("set-work");
    let journal = work_dir.join("campaign.jsonl");
    let sink = SharedStore::open(&work_dir).expect("open store");
    let partial = Campaign::new(spec())
        .workers(4)
        .journal(&journal)
        .max_cells(2)
        .run(&sink)
        .expect("interrupted campaign");
    assert!(!partial.is_complete());
    assert_eq!(partial.executed, 2);
    drop(sink);

    let sink = SharedStore::open(&work_dir).expect("reopen store");
    let resumed = Campaign::new(spec())
        .workers(4)
        .journal(&journal)
        .resume(true)
        .run(&sink)
        .expect("resumed campaign");
    assert!(resumed.is_complete());
    assert_eq!(resumed.skipped, 2);

    // Same content-id set as the uninterrupted run, and — because each
    // cell's line carries its seq and is byte-identical under
    // any completion order — the same archive lines up to ordering.
    assert_eq!(id_set(&work_dir), id_set(&clean_dir));
    let mut clean_lines: Vec<&[u8]> = clean_archive.split(|&b| b == b'\n').collect();
    let work_archive = fs::read(work_dir.join(ARCHIVE_FILE)).expect("read archive");
    let mut work_lines: Vec<&[u8]> = work_archive.split(|&b| b == b'\n').collect();
    clean_lines.sort();
    work_lines.sort();
    assert_eq!(clean_lines, work_lines);

    fs::remove_dir_all(&clean_dir).ok();
    fs::remove_dir_all(&work_dir).ok();
}

/// A campaign into an archive that already holds runs numbers its cells
/// past them, so the newest seq is its last grid cell, and a killed run
/// resumes to the seqs, and bytes, of an uninterrupted one.
#[test]
fn a_campaign_after_earlier_runs_takes_the_seqs_after_them() {
    let earlier_runs = |dir: &PathBuf| {
        let mut store = Store::open(dir).expect("open store");
        for label in ["nightly-1", "nightly-2", "nightly-3"] {
            store
                .append(Some(label.to_string()), &ExperimentConfig::interp(), vec![])
                .expect("append");
        }
    };
    let clean_dir = temp_dir("after-clean");
    earlier_runs(&clean_dir);
    let (clean_archive, clean_journal) = clean_run(&clean_dir);
    let seqs: Vec<u64> = Store::open(&clean_dir)
        .expect("open")
        .runs()
        .map(|r| r.seq)
        .collect();
    assert_eq!(seqs, [0, 1, 2, 3, 4, 5, 6]);
    let meta = String::from_utf8(clean_journal).expect("utf-8 journal");
    assert!(meta.contains("\"seq_base\":3"), "{meta}");

    // Killed after two cells, then resumed: the archive now holds five
    // runs, but the journal keeps the campaign's base.
    let work_dir = temp_dir("after-work");
    earlier_runs(&work_dir);
    let journal = work_dir.join("campaign.jsonl");
    let sink = SharedStore::open(&work_dir).expect("open store");
    let partial = Campaign::new(spec())
        .workers(1)
        .journal(&journal)
        .max_cells(2)
        .run(&sink)
        .expect("interrupted campaign");
    assert_eq!(partial.executed, 2);
    drop(sink);
    let sink = SharedStore::open(&work_dir).expect("reopen store");
    let resumed = Campaign::new(spec())
        .workers(1)
        .journal(&journal)
        .resume(true)
        .run(&sink)
        .expect("resumed campaign");
    assert!(resumed.is_complete());
    assert_eq!(
        fs::read(work_dir.join(ARCHIVE_FILE)).expect("read archive"),
        clean_archive
    );
    fs::remove_dir_all(&clean_dir).ok();
    fs::remove_dir_all(&work_dir).ok();
}

#[test]
fn resume_rejects_a_journal_from_a_different_grid() {
    let dir = temp_dir("mismatch");
    let journal = dir.join("campaign.jsonl");
    let sink = SharedStore::open(&dir).expect("open store");
    Campaign::new(spec())
        .workers(1)
        .journal(&journal)
        .run(&sink)
        .expect("clean campaign");

    // Same store, different seed axis: the journal no longer describes
    // this grid and resuming must fail loudly instead of mixing cells.
    let other = spec().with_seeds(vec![5]);
    let err = Campaign::new(other)
        .workers(1)
        .journal(&journal)
        .resume(true)
        .run(&sink)
        .expect_err("grid mismatch must be rejected");
    assert!(
        err.to_string().contains("journal"),
        "unexpected error: {err}"
    );
    fs::remove_dir_all(&dir).ok();
}

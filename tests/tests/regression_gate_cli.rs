//! End-to-end tests of `rigor archive` / `rigor history` / `rigor check`
//! through the library entry point, covering the exit-code contract the
//! docs promise: an unchanged engine gates clean (exit 0), a deliberately
//! slowed engine regresses (exit 1) and the regressed benchmark is named.

use std::fs;
use std::path::PathBuf;

use rigor::campaign::CellSink;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

fn tmp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rigor-gate-cli-{}-{name}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// Small, fast experiment shape shared by the scenarios.
const SHAPE: &str = "-n 4 -i 20 --size small --quiet";

#[test]
fn unchanged_engine_gates_clean() {
    let store = tmp_store("clean");
    let store = store.display();
    assert_eq!(
        rigor_cli::run(&argv(&format!("archive leibniz {SHAPE} --store {store}"))),
        0
    );
    // Determinism makes the re-measurement identical; the gate must pass.
    assert_eq!(
        rigor_cli::run(&argv(&format!(
            "check leibniz {SHAPE} --store {store} --baseline last"
        ))),
        0
    );
    // Default baseline is `last`, so omitting the flag behaves the same.
    assert_eq!(
        rigor_cli::run(&argv(&format!("check leibniz {SHAPE} --store {store}"))),
        0
    );
}

#[test]
fn slowed_engine_regresses_with_exit_one() {
    let store = tmp_store("slow");
    let dir = store.clone();
    let store = store.display();
    // Baseline on the JIT; the current run on the interpreter is the
    // "deliberate slowdown" (JIT disabled via the existing engine flag).
    assert_eq!(
        rigor_cli::run(&argv(&format!(
            "archive leibniz {SHAPE} --engine jit --store {store}"
        ))),
        0
    );
    let json = dir.join("gate.json");
    assert_eq!(
        rigor_cli::run(&argv(&format!(
            "check leibniz {SHAPE} --engine interp --store {store} --json {}",
            json.display()
        ))),
        1
    );
    // The gate report names the regressed benchmark with a corrected p.
    let report = fs::read_to_string(&json).expect("gate report written");
    assert!(report.contains("\"benchmark\": \"leibniz\""), "{report}");
    assert!(report.contains("\"status\": \"regressed\""), "{report}");
    assert!(report.contains("\"p_adjusted\""), "{report}");
    assert!(report.contains("\"speedup\""), "{report}");
}

#[test]
fn tolerance_and_correction_flags_are_honored() {
    let store = tmp_store("tolerance");
    let store = store.display();
    assert_eq!(
        rigor_cli::run(&argv(&format!("archive leibniz {SHAPE} --store {store}"))),
        0
    );
    // A huge tolerance cannot turn a clean pass into anything else, and the
    // Holm correction must also run end to end.
    assert_eq!(
        rigor_cli::run(&argv(&format!(
            "check leibniz {SHAPE} --store {store} --max-regression 50 \
             --fdr 0.01 --correction holm"
        ))),
        0
    );
}

/// A `last-N` baseline over a campaign that measured both engines pools
/// each engine apart: the JIT is gated against JIT invocations only, never
/// against a pool that mixes in the interpreter's (which reads as a ~6x
/// "improvement" on unchanged code).
#[test]
fn last_n_baseline_over_both_engines_gates_like_with_like() {
    let store = tmp_store("pool-engines");
    let dir = store.clone();
    let store = store.display();
    // One worker keeps the archive in grid order: the last four runs are
    // leibniz's two interpreter cells, then its two JIT cells.
    assert_eq!(
        rigor_cli::run(&argv(&format!(
            "campaign --benchmarks sieve,leibniz --seeds 1,2 -n 2 -i 8 --size small \
             --workers 1 --quiet --store {store}"
        ))),
        0
    );
    for window in ["last-2", "last-4"] {
        let json = dir.join(format!("{window}.json"));
        assert_eq!(
            rigor_cli::run(&argv(&format!(
                "check leibniz --engine jit --seed 2 -n 2 -i 8 --size small --quiet \
                 --store {store} --baseline {window} --json {}",
                json.display()
            ))),
            0
        );
        let report = fs::read_to_string(&json).expect("gate report written");
        assert!(
            report.contains("\"status\": \"pass\""),
            "{window}: {report}"
        );
    }
}

#[test]
fn history_renders_archived_runs_and_check_needs_a_baseline() {
    let store = tmp_store("history");
    let store = store.display();
    // Checking an empty store is a runtime error, not a pass.
    assert_eq!(
        rigor_cli::run(&argv(&format!("check leibniz {SHAPE} --store {store}"))),
        1
    );
    assert_eq!(
        rigor_cli::run(&argv(&format!(
            "archive leibniz {SHAPE} --store {store} --label nightly"
        ))),
        0
    );
    assert_eq!(
        rigor_cli::run(&argv(&format!("history leibniz --store {store}"))),
        0
    );
    // A benchmark with no archived runs still exits 0 (empty history is
    // not an error).
    assert_eq!(
        rigor_cli::run(&argv(&format!("history sieve --store {store}"))),
        0
    );
    // Unknown baseline references are runtime errors.
    assert_eq!(
        rigor_cli::run(&argv(&format!(
            "check leibniz {SHAPE} --store {store} --baseline deadbeef"
        ))),
        1
    );
}

#[test]
fn archive_emits_run_archived_to_the_trace() {
    let store = tmp_store("trace");
    let dir = store.clone();
    let store = store.display();
    fs::create_dir_all(&dir).expect("store dir");
    let trace = dir.join("trace.jsonl");
    assert_eq!(
        rigor_cli::run(&argv(&format!(
            "archive leibniz {SHAPE} --store {store} --trace {}",
            trace.display()
        ))),
        0
    );
    let text = fs::read_to_string(&trace).expect("trace written");
    assert!(text.contains("\"run_archived\""), "{text}");
    // And check emits its own closing event.
    let trace2 = dir.join("trace2.jsonl");
    assert_eq!(
        rigor_cli::run(&argv(&format!(
            "check leibniz {SHAPE} --store {store} --trace {}",
            trace2.display()
        ))),
        0
    );
    let text = fs::read_to_string(&trace2).expect("trace2 written");
    assert!(text.contains("\"regression_checked\""), "{text}");
    // trace-summary must digest a trace containing run-level events.
    assert_eq!(
        rigor_cli::run(&argv(&format!("trace-summary {}", trace2.display()))),
        0
    );
}

// ---------------------------------------------------------------------------
// `rigor trend`: the exit-code contract of the changepoint alert command
// ---------------------------------------------------------------------------

#[test]
fn trend_usage_errors_exit_two() {
    // Bad flag values are usage errors (exit 2), not runtime failures —
    // they must be rejected before any store is touched.
    assert_eq!(rigor_cli::run(&argv("trend --penalty bogus")), 2);
    assert_eq!(rigor_cli::run(&argv("trend --penalty -1")), 2);
    assert_eq!(rigor_cli::run(&argv("trend --min-segment 0")), 2);
    assert_eq!(rigor_cli::run(&argv("trend --min-segment x")), 2);
    assert_eq!(rigor_cli::run(&argv("trend leibniz extra")), 2);
}

#[test]
fn trend_on_stable_history_exits_zero() {
    let store = tmp_store("trend-stable");
    let store = store.display();
    // An empty archive has no trends to alert on.
    assert_eq!(rigor_cli::run(&argv(&format!("trend --store {store}"))), 0);
    for _ in 0..2 {
        assert_eq!(
            rigor_cli::run(&argv(&format!("archive leibniz {SHAPE} --store {store}"))),
            0
        );
    }
    // Two identical deterministic runs: no level shift, exit 0 — both at
    // the default minimum segment length (insufficient history) and at the
    // permissive one (sufficient history, but nothing shifted).
    assert_eq!(rigor_cli::run(&argv(&format!("trend --store {store}"))), 0);
    assert_eq!(
        rigor_cli::run(&argv(&format!("trend --store {store} --min-segment 1"))),
        0
    );
    // `history --alerts` renders the same analysis inline and stays
    // informational (exit 0) either way.
    assert_eq!(
        rigor_cli::run(&argv(&format!("history leibniz --store {store} --alerts"))),
        0
    );
    // Pooling the trend segment as the gate baseline must also gate clean.
    assert_eq!(
        rigor_cli::run(&argv(&format!(
            "check leibniz {SHAPE} --store {store} --baseline segment"
        ))),
        0
    );
}

#[test]
fn trend_alerts_on_a_shift_at_head_with_exit_one() {
    let store = tmp_store("trend-shift");
    let dir = store.clone();
    let store = store.display();
    fs::create_dir_all(&dir).expect("store dir");
    // Three interpreter runs establish the old level (three, so the
    // robust noise estimate has a clean majority of no-change diffs); a
    // JIT run at HEAD is the injected shift.
    for _ in 0..3 {
        assert_eq!(
            rigor_cli::run(&argv(&format!("archive leibniz {SHAPE} --store {store}"))),
            0
        );
    }
    assert_eq!(
        rigor_cli::run(&argv(&format!(
            "archive leibniz {SHAPE} --engine jit --store {store}"
        ))),
        0
    );
    let json = dir.join("trend.json");
    let trace = dir.join("trend-trace.jsonl");
    assert_eq!(
        rigor_cli::run(&argv(&format!(
            "trend --store {store} --min-segment 1 --json {} --trace {}",
            json.display(),
            trace.display()
        ))),
        1,
        "a shift at HEAD must exit 1"
    );
    // The JSON report names the shifted benchmark and flags the head run.
    let report = fs::read_to_string(&json).expect("trend report written");
    assert!(report.contains("\"benchmark\": \"leibniz\""), "{report}");
    assert!(report.contains("\"status\": \"shifted\""), "{report}");
    assert!(report.contains("\"at_head\": true"), "{report}");
    assert!(report.contains("\"p_adjusted\""), "{report}");
    // The telemetry trace carries both trend events.
    let text = fs::read_to_string(&trace).expect("trace written");
    assert!(text.contains("\"changepoint_detected\""), "{text}");
    assert!(text.contains("\"trend_analyzed\""), "{text}");
    // `history --alerts` narrates the shift but remains informational.
    assert_eq!(
        rigor_cli::run(&argv(&format!("history leibniz --store {store} --alerts"))),
        0
    );
}

// ---------------------------------------------------------------------------
// `--store-url`: the remote forms agree with the local ones
// ---------------------------------------------------------------------------

/// The events of a `--trace` file as sorted lines, with the `store` field
/// (the only one naming the archive's location) blanked. Invocations run
/// in parallel, so their events interleave in no fixed order.
fn trace_events(path: &std::path::Path) -> Vec<String> {
    let text = fs::read_to_string(path).expect("trace written");
    let mut lines: Vec<String> = text
        .lines()
        .map(|line| match line.find("\"store\":\"") {
            Some(at) => {
                let value = at + "\"store\":\"".len();
                let end = value + line[value..].find('"').expect("a closed store");
                format!("{}{}", &line[..value], &line[end..])
            }
            None => line.to_string(),
        })
        .collect();
    lines.sort();
    lines
}

/// Runs one command against the local store and then against the server
/// over the same directory; asserts equal exit codes, byte-identical
/// `--json` files and the same events (so the same benchmarks measured).
/// Returns the shared exit code.
fn same_local_and_remote(dir: &std::path::Path, url: &str, tag: &str, command: &str) -> i32 {
    let mut codes = Vec::new();
    let mut outputs = Vec::new();
    for (side, source) in [
        ("local", format!("--store {}", dir.display())),
        ("remote", format!("--store-url {url}")),
    ] {
        let json = dir.join(format!("{tag}-{side}.json"));
        let trace = dir.join(format!("{tag}-{side}.jsonl"));
        codes.push(rigor_cli::run(&argv(&format!(
            "{command} {source} --json {} --trace {}",
            json.display(),
            trace.display()
        ))));
        outputs.push((
            fs::read_to_string(&json).expect("report written"),
            trace_events(&trace),
        ));
    }
    assert_eq!(codes[0], codes[1], "{command}: exit codes differ");
    assert_eq!(outputs[0].0, outputs[1].0, "{command}: --json differs");
    assert_eq!(outputs[0].1, outputs[1].1, "{command}: events differ");
    codes[0]
}

#[test]
fn remote_check_and_trend_match_their_local_forms() {
    let store = tmp_store("parity");
    let dir = store.clone();
    let store = store.display();
    // A benchmark the last run does not hold, then a sieve history that
    // shifts at HEAD (three interpreter runs, then the JIT).
    for args in ["leibniz", "sieve", "sieve", "sieve", "sieve --engine jit"] {
        assert_eq!(
            rigor_cli::run(&argv(&format!("archive {args} {SHAPE} --store {store}"))),
            0
        );
    }
    // Opening an existing store writes nothing, so the local commands can
    // read the directory the server holds.
    let server = rigor_serve::ArchiveServer::bind("127.0.0.1:0", &dir).expect("bind");
    let handle = server.handle();
    let url = handle.addr().to_string();
    let join = std::thread::spawn(move || server.serve().expect("serve"));

    // No benchmark named: both gate only what the `last` baseline holds.
    let clean = same_local_and_remote(
        &dir,
        &url,
        "check-last",
        &format!("check --baseline last --engine jit {SHAPE}"),
    );
    let text = fs::read_to_string(dir.join("check-last-remote.json")).unwrap();
    assert!(!text.contains("leibniz"), "{text}");
    let regressed = same_local_and_remote(
        &dir,
        &url,
        "check-last-interp",
        &format!("check --baseline last {SHAPE}"),
    );
    same_local_and_remote(
        &dir,
        &url,
        "check-segment",
        &format!("check sieve --baseline segment {SHAPE}"),
    );
    let shifted = same_local_and_remote(&dir, &url, "trend", "trend --min-segment 1");
    assert_eq!((clean, regressed, shifted), (0, 1, 1));

    handle.stop();
    join.join().expect("server thread");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn last_baselines_take_the_highest_seqs_on_both_forms() {
    let store = tmp_store("seq-order");
    let dir = store.clone();
    let store = store.display();
    assert_eq!(
        rigor_cli::run(&argv(&format!(
            "campaign --benchmarks sieve,leibniz --seeds 1,2 -n 2 -i 8 --size small \
             --workers 1 --quiet --store {store}"
        ))),
        0
    );
    // Reorder the cells as two workers may finish them: seq 4, leibniz's
    // first interpreter cell, lands on the last line.
    let journal = dir.join(rigor_store::ARCHIVE_FILE);
    let text = fs::read_to_string(&journal).expect("campaign archive");
    let lines: Vec<&str> = text.lines().collect();
    let reordered: Vec<&str> = [0, 1, 2, 3, 4, 6, 7, 8, 5]
        .iter()
        .map(|&i| lines[i])
        .collect();
    fs::write(&journal, reordered.join("\n") + "\n").expect("reordered archive");

    let server = rigor_serve::ArchiveServer::bind("127.0.0.1:0", &dir).expect("bind");
    let handle = server.handle();
    let url = handle.addr().to_string();
    let join = std::thread::spawn(move || server.serve().expect("serve"));
    // `last` is seq 7 (leibniz/jit, seed 2) and `last-2` seqs 6 and 7, so
    // re-measuring that cell passes; the last line would gate it against
    // the interpreter.
    for window in ["last", "last-2"] {
        let code = same_local_and_remote(
            &dir,
            &url,
            &format!("seq-{window}"),
            &format!(
                "check leibniz --engine jit --seed 2 -n 2 -i 8 --size small --quiet \
                 --baseline {window}"
            ),
        );
        assert_eq!(code, 0, "{window}");
        let report = fs::read_to_string(dir.join(format!("seq-{window}-local.json"))).unwrap();
        assert!(
            report.contains("\"status\": \"pass\""),
            "{window}: {report}"
        );
    }
    handle.stop();
    join.join().expect("server thread");
    fs::remove_dir_all(&dir).ok();
}

/// Seqs go up from command to command: a campaign archived after other
/// runs, a smaller one after a larger one included, numbers its cells past
/// them, locally and through `rigor serve`, so `last` and `last-N` gate
/// against its cells on both forms.
#[test]
fn last_baselines_select_the_newest_campaign_on_both_forms() {
    let local = tmp_store("newest-local");
    let served = tmp_store("newest-served");
    let work = tmp_store("newest-work");
    fs::create_dir_all(&served).expect("served store dir");
    let server = rigor_serve::ArchiveServer::bind("127.0.0.1:0", &served).expect("bind");
    let handle = server.handle();
    let url = handle.addr().to_string();
    let join = std::thread::spawn(move || server.serve().expect("serve"));
    let shape = "-n 2 -i 8 --size small --quiet --workers 1";
    for command in [
        "archive leibniz",
        "archive leibniz",
        "archive leibniz",
        "campaign --benchmarks sieve,leibniz --engines interp,jit --seeds 1",
        "campaign --benchmarks sieve --engines interp,jit --seeds 2",
    ] {
        for target in [
            format!("--store {}", local.display()),
            format!("--store-url {url} --store {}", work.display()),
        ] {
            assert_eq!(
                rigor_cli::run(&argv(&format!("{command} {shape} {target}"))),
                0,
                "{command} {target}"
            );
        }
    }
    let seqs = |dir: &std::path::Path| -> Vec<(u64, String)> {
        let store = rigor_store::Store::open(dir).expect("open store");
        let mut seqs: Vec<(u64, String)> = store.runs().map(|r| (r.seq, r.id.clone())).collect();
        seqs.sort();
        seqs
    };
    let archived = seqs(&local);
    assert_eq!(
        archived.iter().map(|(seq, _)| *seq).collect::<Vec<_>>(),
        (0..9).collect::<Vec<u64>>()
    );
    assert_eq!(archived, seqs(&served));

    // `last` is seq 8 (sieve/jit, seed 2) and `last-2` seqs 7 and 8.
    for (window, engine) in [("last", "jit"), ("last-2", "interp")] {
        let code = same_local_and_remote(
            &served,
            &url,
            &format!("newest-{window}"),
            &format!(
                "check sieve --engine {engine} --seed 2 -n 2 -i 8 --size small --quiet \
                 --baseline {window}"
            ),
        );
        assert_eq!(code, 0, "{window}");
        let report =
            fs::read_to_string(served.join(format!("newest-{window}-local.json"))).unwrap();
        assert!(
            report.contains("\"status\": \"pass\""),
            "{window}: {report}"
        );
    }
    handle.stop();
    join.join().expect("server thread");
    for dir in [&local, &served, &work] {
        fs::remove_dir_all(dir).ok();
    }
}

/// An archive's lines, sorted: two archives of the same runs compare equal
/// whatever order their cells landed in.
fn sorted_lines(dir: &std::path::Path) -> Vec<String> {
    let text = fs::read_to_string(dir.join(rigor_store::ARCHIVE_FILE)).expect("archive");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines.sort();
    lines
}

/// A `rigor serve` over `dir` on a free port: its URL, stop handle and
/// thread.
fn serve(
    dir: &std::path::Path,
) -> (
    String,
    rigor_serve::ServerHandle,
    std::thread::JoinHandle<()>,
) {
    fs::create_dir_all(dir).expect("served store dir");
    let server = rigor_serve::ArchiveServer::bind("127.0.0.1:0", dir).expect("bind");
    let handle = server.handle();
    let url = handle.addr().to_string();
    (
        url,
        handle,
        std::thread::spawn(move || server.serve().expect("serve")),
    )
}

/// The grid of the repeat and conflict scenarios: four interpreter cells.
const GRID: &str = "campaign --benchmarks sieve,leibniz --engines interp --seeds 1,2 -n 2 -i 5 \
                    --size small --workers 1 --quiet";

/// Two campaigns that differ only in `--size` are two sets of runs: both
/// land in the archive, locally and through `rigor serve`, and each
/// `--json` exports its own measurements, as a campaign into a fresh store
/// does.
#[test]
fn a_re_sized_campaign_archives_and_exports_its_own_runs_on_both_forms() {
    let local = tmp_store("sized-local");
    let served = tmp_store("sized-served");
    let work = tmp_store("sized-work");
    let fresh = tmp_store("sized-fresh");
    fs::create_dir_all(&fresh).expect("fresh dir");
    let (url, handle, join) = serve(&served);
    let grid =
        "campaign --benchmarks sieve --engines interp --seeds 1 -n 2 -i 5 --workers 1 --quiet";
    for size in ["small", "default"] {
        let mut exports = Vec::new();
        for (side, target) in [
            ("fresh", format!("--store {}", fresh.join(size).display())),
            ("local", format!("--store {}", local.display())),
            (
                "served",
                format!("--store-url {url} --store {}", work.display()),
            ),
        ] {
            let json = fresh.join(format!("{size}-{side}.json"));
            let command = format!("{grid} --size {size} {target} --json {}", json.display());
            assert_eq!(rigor_cli::run(&argv(&command)), 0, "{command}");
            exports.push(fs::read_to_string(&json).expect("export written"));
        }
        assert_eq!(exports[1], exports[0], "{size}: the local export");
        assert_eq!(exports[2], exports[0], "{size}: the served export");
    }
    assert_eq!(rigor_store::Store::open(&local).expect("store").len(), 2);
    assert_eq!(sorted_lines(&local), sorted_lines(&served));
    handle.stop();
    join.join().expect("server thread");
    for dir in [&local, &served, &work, &fresh] {
        fs::remove_dir_all(dir).ok();
    }
}

/// A finished grid run again is a new campaign at new seqs: cut after its
/// first cell and resumed with its own journal, it skips that cell and
/// executes the other three, locally and through `rigor serve`, instead of
/// taking the first campaign's cells for its own.
#[test]
fn a_repeated_campaign_resumes_its_own_cells_on_both_forms() {
    let local = tmp_store("repeat-local");
    let served = tmp_store("repeat-served");
    let work = tmp_store("repeat-work");
    let traces = tmp_store("repeat-traces");
    fs::create_dir_all(&traces).expect("trace dir");
    let (url, handle, join) = serve(&served);
    for (side, target, dir) in [
        ("local", format!("--store {}", local.display()), &local),
        (
            "served",
            format!("--store-url {url} --store {}", work.display()),
            &work,
        ),
    ] {
        let journal = dir.join("campaign.jsonl");
        let trace = traces.join(format!("{side}.jsonl"));
        for run in [
            String::new(),
            "--max-cells 1".to_string(),
            format!("--resume {} --trace {}", journal.display(), trace.display()),
        ] {
            let command = format!("{GRID} {target} {run}");
            assert_eq!(rigor_cli::run(&argv(&command)), 0, "{command}");
        }
        let events = trace_events(&trace);
        let resumed: Vec<&String> = events
            .iter()
            .filter(|e| e.contains("\"campaign_resumed\""))
            .collect();
        assert_eq!(resumed.len(), 1, "{side}");
        assert!(
            resumed[0].contains("\"completed\":1,"),
            "{side}: {}",
            resumed[0]
        );
        let executed = events
            .iter()
            .filter(|e| e.contains("\"cell_completed\""))
            .count();
        assert_eq!(executed, 3, "{side}");
    }
    assert_eq!(rigor_store::Store::open(&local).expect("store").len(), 8);
    assert_eq!(sorted_lines(&local), sorted_lines(&served));
    handle.stop();
    join.join().expect("server thread");
    for dir in [&local, &served, &work, &traces] {
        fs::remove_dir_all(dir).ok();
    }
}

/// A run archived between a campaign's cut and its resume takes the next
/// seq, the one the campaign reserved for its second cell. The resume
/// refuses that cell with the conflict `rigor serve` answers and exits 1,
/// on both forms, and archives the other cells at their own seqs.
#[test]
fn a_seq_taken_before_the_resume_is_a_conflict_on_both_forms() {
    let local = tmp_store("taken-local");
    let served = tmp_store("taken-served");
    let work = tmp_store("taken-work");
    let (url, handle, join) = serve(&served);
    for (target, archive, dir) in [
        (
            format!("--store {}", local.display()),
            format!("--store {}", local.display()),
            &local,
        ),
        (
            format!("--store-url {url} --store {}", work.display()),
            format!("--store-url {url}"),
            &work,
        ),
    ] {
        let journal = dir.join("campaign.jsonl");
        for (command, code) in [
            (format!("{GRID} {target} --max-cells 1"), 0),
            (
                format!("archive sieve -n 2 -i 5 --size small --quiet {archive}"),
                0,
            ),
            (format!("{GRID} {target} --resume {}", journal.display()), 1),
        ] {
            assert_eq!(rigor_cli::run(&argv(&command)), code, "{command}");
        }
    }
    assert_eq!(sorted_lines(&local), sorted_lines(&served));
    let store = rigor_store::Store::open(&local).expect("store");
    let mut seqs: Vec<(u64, Option<&str>)> =
        store.runs().map(|r| (r.seq, r.label.as_deref())).collect();
    seqs.sort();
    assert_eq!(
        seqs,
        vec![
            (0, Some("sieve/interp/2x5/1")),
            (1, None),
            (2, Some("leibniz/interp/2x5/1")),
            (3, Some("leibniz/interp/2x5/2")),
        ]
    );

    // What the resume met at seq 1, from either sink.
    let held = store.runs().find(|r| r.seq == 1).expect("seq 1").short_id();
    let conflict = format!("seq 1 is already held by run {held} with different content");
    let base = rigor::ExperimentConfig::interp()
        .with_invocations(2)
        .with_iterations(5)
        .with_size(rigor_workloads::Size::Small);
    let cells = rigor::CampaignSpec::new(base)
        .with_benchmarks(["sieve", "leibniz"])
        .with_seeds(vec![1, 2])
        .cells()
        .expect("grid");
    let measurement = store.latest().expect("a run").measurements[0].clone();
    let local_sink = rigor_store::SharedStore::open(&local).expect("store");
    let remote_sink = rigor_serve::RemoteStore::connect(&url);
    for sink in [&local_sink as &dyn CellSink, &remote_sink] {
        let err = sink.archive_cell(&cells[1], &measurement).unwrap_err();
        assert!(err.ends_with(&conflict), "{err}");
    }
    handle.stop();
    join.join().expect("server thread");
    for dir in [&local, &served, &work] {
        fs::remove_dir_all(dir).ok();
    }
}

/// An adaptive campaign under a binding budget, cut after six measurement
/// jobs and resumed, archives the same lines locally and through `rigor
/// serve`: every cell with its precision, so the resume charges archived
/// cells what they spent and stays within the budget on both forms.
#[test]
fn a_resumed_adaptive_campaign_archives_the_same_precision_on_both_forms() {
    let local = tmp_store("adaptive-local");
    let served = tmp_store("adaptive-served");
    let work = tmp_store("adaptive-work");
    fs::create_dir_all(&served).expect("served store dir");
    let server = rigor_serve::ArchiveServer::bind("127.0.0.1:0", &served).expect("bind");
    let handle = server.handle();
    let url = handle.addr().to_string();
    let join = std::thread::spawn(move || server.serve().expect("serve"));
    let flags = "campaign --benchmarks sieve,nbody_lite --engines interp,jit -n 2 -i 8 \
                 --size small --workers 1 --precision 0.01 --budget 50 --quiet";
    for (target, dir) in [
        (format!("--store {}", local.display()), &local),
        (
            format!("--store-url {url} --store {}", work.display()),
            &work,
        ),
    ] {
        let journal = dir.join("campaign.jsonl");
        for run in [
            "--max-cells 6".to_string(),
            format!("--resume {}", journal.display()),
        ] {
            assert_eq!(
                rigor_cli::run(&argv(&format!("{flags} {target} {run}"))),
                0,
                "{target} {run}"
            );
        }
    }
    assert_eq!(sorted_lines(&local), sorted_lines(&served));
    let store = rigor_store::Store::open(&served).expect("open served store");
    assert_eq!(store.len(), 4);
    let spent: u32 = store
        .runs()
        .map(|r| {
            let p = r.precision.as_ref().expect("every cell carries precision");
            p.invocations_used
        })
        .sum();
    assert!(
        spent <= 50,
        "{spent} invocations archived against a budget of 50"
    );
    handle.stop();
    join.join().expect("server thread");
    for dir in [&local, &served, &work] {
        fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn archive_history_and_an_unknown_baseline_agree_on_both_forms() {
    let local = tmp_store("one-path-local");
    let served = tmp_store("one-path-served");
    let traces = tmp_store("one-path-traces");
    fs::create_dir_all(&traces).expect("trace dir");
    let server = rigor_serve::ArchiveServer::bind("127.0.0.1:0", &served).expect("bind");
    let handle = server.handle();
    let url = handle.addr().to_string();
    let join = std::thread::spawn(move || server.serve().expect("serve"));
    let sides = [
        ("local", format!("--store {}", local.display())),
        ("remote", format!("--store-url {url}")),
    ];
    let run = |tag: &str, command: &str| -> Vec<(i32, Vec<String>)> {
        sides
            .iter()
            .map(|(side, source)| {
                let trace = traces.join(format!("{tag}-{side}.jsonl"));
                let code = rigor_cli::run(&argv(&format!(
                    "{command} {source} --trace {}",
                    trace.display()
                )));
                // A command that fails before it measures may leave no trace.
                let events = if trace.exists() {
                    trace_events(&trace)
                } else {
                    Vec::new()
                };
                (code, events)
            })
            .collect()
    };

    // One run archived into each empty archive: the same line, the same
    // events.
    let archived = run("archive", &format!("archive sieve {SHAPE}"));
    assert_eq!(archived[0].0, 0);
    assert_eq!(archived[0], archived[1]);
    assert!(archived[0].1.iter().any(|e| e.contains("\"run_archived\"")));
    assert_eq!(
        fs::read(local.join(rigor_store::ARCHIVE_FILE)).expect("local archive"),
        fs::read(served.join(rigor_store::ARCHIVE_FILE)).expect("served archive"),
    );

    // An unknown baseline fails on both forms before anything is measured.
    let failed = run("nope", &format!("check sieve --baseline nope {SHAPE}"));
    for ((side, _), (code, events)) in sides.iter().zip(failed) {
        assert_eq!(code, 1, "{side}");
        assert!(
            !events.iter().any(|e| e.contains("\"invocation_started\"")),
            "{side}: measured before failing on the unknown baseline"
        );
    }

    // `history --alerts` works against the service too.
    let history = run("history", "history sieve --alerts");
    assert_eq!((history[0].0, history[1].0), (0, 0));

    handle.stop();
    join.join().expect("server thread");
    for dir in [local, served, traces] {
        fs::remove_dir_all(dir).ok();
    }
}

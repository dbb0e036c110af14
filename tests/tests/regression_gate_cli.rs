//! End-to-end tests of `rigor archive` / `rigor history` / `rigor check`
//! through the library entry point, covering the exit-code contract the
//! docs promise: an unchanged engine gates clean (exit 0), a deliberately
//! slowed engine regresses (exit 1) and the regressed benchmark is named.

use std::fs;
use std::path::PathBuf;

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

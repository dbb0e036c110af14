//! `POST /check` and `POST /trend`, pinned to bytes. The golden cases in
//! `fixtures/serve_replay/` are request bodies that clients in the field
//! send (perfbench's two, and the CLI's with every gate and trend flag
//! set) with the responses a server over `fixtures/trend_history/`
//! answered before the request type was derived; replaying them must
//! give the same bytes. The error cases pin each route's status codes.

use std::fs;
use std::net::TcpStream;
use std::path::{Path, PathBuf};

use rigor::{Correction, Penalty};
use rigor_serve::http::{read_response, write_request};
use rigor_serve::server::ErrorBody;
use rigor_serve::{ArchiveServer, Query, ServerHandle};
use rigor_store::{Store, ARCHIVE_FILE};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

/// A temporary store directory holding a copy of the `trend_history`
/// archive (or nothing, when `archive` is false).
fn store_dir(name: &str, archive: bool) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rigor-serve-routes-{}-{name}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("store dir");
    if archive {
        fs::copy(
            fixture("trend_history").join(ARCHIVE_FILE),
            dir.join(ARCHIVE_FILE),
        )
        .expect("copy fixture archive");
    }
    dir
}

fn start_server(dir: &Path) -> (String, ServerHandle, std::thread::JoinHandle<()>) {
    let server = ArchiveServer::bind("127.0.0.1:0", dir).expect("bind server");
    let handle = server.handle();
    let url = handle.addr().to_string();
    let join = std::thread::spawn(move || server.serve().expect("serve"));
    (url, handle, join)
}

/// One raw exchange: the status and the exact response body bytes.
fn post(url: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(url).expect("connect");
    write_request(&mut stream, "POST", path, body).expect("write request");
    read_response(&mut stream).expect("read response")
}

#[test]
fn golden_requests_get_their_committed_responses() {
    let dir = store_dir("golden", true);
    let (url, handle, join) = start_server(&dir);
    for (name, path) in [
        ("perfbench_check", "/check"),
        ("perfbench_trend", "/trend"),
        ("cli_check_all_flags", "/check"),
        ("cli_trend_all", "/trend"),
        ("cli_trend_one", "/trend"),
        ("envelope_check", "/check"),
    ] {
        let replay = fixture("serve_replay");
        let request = fs::read_to_string(replay.join(format!("{name}.request.json")))
            .expect("golden request");
        let want = fs::read_to_string(replay.join(format!("{name}.response.json")))
            .expect("golden response");
        let (status, body) = post(&url, path, &request);
        assert_eq!(status, 200, "{name}: {body}");
        assert_eq!(body, want, "{name}: response bytes moved");
    }
    handle.stop();
    join.join().expect("server thread");
    fs::remove_dir_all(&dir).ok();
}

/// The server answers what the compute functions return over the same
/// store, for a body the CLI serializes from its typed flags.
#[test]
fn the_routes_answer_what_the_compute_functions_return() {
    let dir = store_dir("same", true);
    let store = Store::open(&dir).expect("open");
    let current = store.latest().expect("a run").measurements.clone();
    let query = Query {
        baseline: Some("segment".into()),
        measurements: Some(rigor_serve::Measurements(current)),
        confidence: Some(0.9),
        correction: Some(Correction::HolmBonferroni),
        min_segment: Some(1),
        penalty: Some(Penalty::Factor(2.5)),
        ..Query::default()
    };
    let local_check =
        serde_json::to_string(&rigor_serve::check(&store, &query).expect("check")).expect("encode");
    let local_trend = serde_json::to_string(&rigor_serve::trend(&store, &query)).expect("encode");
    drop(store);

    let (url, handle, join) = start_server(&dir);
    let body = serde_json::to_string(&query).expect("encode");
    assert_eq!(post(&url, "/check", &body), (200, local_check));
    assert_eq!(post(&url, "/trend", &body), (200, local_trend));
    handle.stop();
    join.join().expect("server thread");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_and_trend_refuse_what_they_cannot_answer() {
    let empty = store_dir("empty", false);
    let full = store_dir("full", true);
    let (empty_url, empty_handle, empty_join) = start_server(&empty);
    let (url, handle, join) = start_server(&full);
    for (url, path, body, want) in [
        (&empty_url, "/check", r#"{"measurements":[]}"#, 404),
        (
            &url,
            "/check",
            r#"{"measurements":[],"baseline":"nope"}"#,
            404,
        ),
        (&url, "/check", r#"{"confidence":0.95}"#, 400),
        (
            &url,
            "/check",
            r#"{"measurements":[],"correction":"bogus"}"#,
            400,
        ),
        (&url, "/check", r#"{"measurements":[],"penalty":"-1"}"#, 400),
        (&url, "/check", r#"{"measurements":[],"penalty":0}"#, 400),
        (&url, "/trend", r#"{"penalty":"bogus"}"#, 400),
        (&url, "/trend", r#"{"correction":"bogus"}"#, 400),
        (&url, "/trend", "{", 400),
    ] {
        let (status, text) = post(url, path, body);
        assert_eq!(status, want, "{path} {body}: {text}");
        let error: ErrorBody = serde_json::from_str(&text).expect("an ErrorBody");
        assert!(!error.error.is_empty(), "{path} {body}");
    }
    // The CLI's spellings of a correction and a penalty are accepted.
    let (status, text) = post(&url, "/trend", r#"{"correction":"FWER","penalty":"BIC"}"#);
    assert_eq!(status, 200, "{text}");
    assert!(text.contains(r#""penalty":"bic""#), "{text}");
    assert!(text.contains(r#""correction":"holm""#), "{text}");
    for (handle, join) in [(empty_handle, empty_join), (handle, join)] {
        handle.stop();
        join.join().expect("server thread");
    }
    fs::remove_dir_all(&empty).ok();
    fs::remove_dir_all(&full).ok();
}

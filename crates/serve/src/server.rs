//! The shared archive service: one authoritative [`Store`] behind a writer
//! lock, served over the minimal HTTP codec in [`crate::http`].
//!
//! Endpoints:
//!
//! | method & path     | semantics                                              |
//! |-------------------|--------------------------------------------------------|
//! | `GET /health`     | liveness + run count                                   |
//! | `GET /seq`        | next free sequence number                              |
//! | `GET /completed`  | `?label=` → the run's receipt, with precision, or 404  |
//! | `PUT /runs`       | idempotent upload of one record line                   |
//! | `GET /history`    | the archive as integrity-checked record lines (JSONL); |
//! |                   | `?last=N`: the N runs with the highest seqs            |
//! | `POST /check`     | regression gate vs. a server-side baseline             |
//! | `POST /trend`     | changepoint analysis of the server-side history        |
//!
//! `POST /check` and `POST /trend` decode a [`Query`] and answer what
//! [`check`] and [`trend`] compute; the CLI calls the same two functions
//! over a local store.
//!
//! `PUT /runs` is idempotent by the 128-bit content id: replaying an upload
//! (a client that never saw its ack, a spool replayed after reconnect)
//! dedups server-side, so the archive converges to the same line set as an
//! uninterrupted local run. A `seq` already held by *different* content is
//! a 409 — first writer wins, the loser re-fetches `/seq`.
//!
//! For offline resilience testing, the accept loop can run under a seeded
//! [`NetFaultPlan`]: each accepted connection consults the plan and may be
//! refused, dropped after the request (side effects applied, ack withheld —
//! the nastiest case for the client), stalled past the client timeout,
//! answered with a 500, or answered with non-HTTP garbage.

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use rigor::{
    check_regressions, BenchmarkMeasurement, Correction, GatePolicy, GateReport, NetFault,
    NetFaultPlan, Penalty, SteadyStateDetector, TrendConfig, TrendReport,
};
use rigor_store::{benchmark_names, record_line, trend_report, BaselineRef, Store, StoreError};
use serde::json::{DeError, JsonValue};
use serde::{Deserialize, Serialize};

use crate::http::{read_request, write_response, Request};

// ------------------------------------------------------------ request body

/// The body of `POST /check` and `POST /trend`: the gate and trend
/// settings, each optional (an absent or `null` field keeps the library
/// default), plus what the route needs besides. The CLI builds one from
/// its flags for either archive; the server decodes one per request.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Query {
    /// `trend`: analyze only this benchmark (default: every archived one).
    pub benchmark: Option<String>,
    /// `check`: the baseline reference (`last`, `last-N`, `segment`, an id
    /// prefix or a label; default `last`).
    pub baseline: Option<String>,
    /// `check`: the current measurements to gate; required there.
    pub measurements: Option<Measurements>,
    /// Confidence level of the gate's and the trend's intervals.
    pub confidence: Option<f64>,
    /// FDR level q applied to corrected p-values.
    pub fdr: Option<f64>,
    /// `check`: tolerated slowdown in percent.
    pub max_regression_pct: Option<f64>,
    /// Multiple-comparison correction, in any spelling
    /// [`Correction::parse`] takes.
    pub correction: Option<Correction>,
    /// Minimum runs per trend segment.
    pub min_segment: Option<usize>,
    /// Segmentation penalty, in any spelling [`Penalty::parse`] takes.
    pub penalty: Option<Penalty>,
}

impl Query {
    /// The regression-gate policy the fields ask for.
    pub fn policy(&self) -> GatePolicy {
        let mut policy = GatePolicy::default();
        if let Some(c) = self.confidence {
            policy = policy.with_confidence(c);
        }
        if let Some(q) = self.fdr {
            policy = policy.with_fdr_q(q);
        }
        if let Some(pct) = self.max_regression_pct {
            policy = policy.with_max_regression(pct / 100.0);
        }
        if let Some(c) = self.correction {
            policy = policy.with_correction(c);
        }
        policy
    }

    /// The trend configuration the fields ask for. The bootstrap seed
    /// stays at its fixed default, so the same archive always yields
    /// byte-identical trend reports.
    pub fn trend_config(&self) -> TrendConfig {
        let mut cfg = TrendConfig::default();
        if let Some(c) = self.confidence {
            cfg = cfg.with_confidence(c);
        }
        if let Some(m) = self.min_segment {
            cfg = cfg.with_min_segment(m);
        }
        if let Some(p) = self.penalty {
            cfg = cfg.with_penalty(p);
        }
        if let Some(q) = self.fdr {
            cfg = cfg.with_fdr_q(q);
        }
        if let Some(c) = self.correction {
            cfg = cfg.with_correction(c);
        }
        cfg
    }
}

/// Measurements in a request body: written as a bare array, read from a
/// bare array or a `--json` export envelope ([`rigor::from_json_value`]).
#[derive(Debug, Clone, Default)]
pub struct Measurements(pub Vec<BenchmarkMeasurement>);

impl Serialize for Measurements {
    fn to_value(&self) -> JsonValue {
        self.0.to_value()
    }
}

impl Deserialize for Measurements {
    fn from_value(v: &JsonValue) -> Result<Measurements, DeError> {
        rigor::from_json_value(v)
            .map(Measurements)
            .map_err(|e| DeError::new(e.to_string()))
    }
}

// ------------------------------------------------------------ response bodies
//
// One type per response body: the server serializes it and the client
// decodes it. `GET /completed` answers with a `rigor::CellReceipt`, the
// cell's precision included when the run carries one.

/// `GET /health`.
#[derive(Debug, Serialize, Deserialize)]
pub struct Health {
    /// Always `"rigor-serve"`.
    pub service: String,
    /// Runs in the archive.
    pub runs: u64,
}

/// `GET /seq`.
#[derive(Debug, Serialize, Deserialize)]
pub struct NextSeq {
    /// The next free sequence number.
    pub next_seq: u64,
}

/// `PUT /runs`: the receipt of the stored (or already held) run.
#[derive(Debug, Serialize, Deserialize)]
pub struct Uploaded {
    /// Content-addressed id of the run.
    pub run_id: String,
    /// Its sequence number in the archive.
    pub seq: u64,
    /// True when the archive already held this content.
    pub deduped: bool,
}

/// `POST /check`: the gate report and its summary.
#[derive(Debug, Serialize, Deserialize)]
pub struct CheckResponse {
    /// True when no benchmark regressed.
    pub passed: bool,
    /// Benchmarks gated.
    pub checked: usize,
    /// Benchmarks that regressed.
    pub regressed: Vec<String>,
    /// The baseline reference that was resolved.
    pub baseline: String,
    /// Archived runs the baseline was selected from.
    pub baseline_runs: usize,
    /// The full gate report.
    pub report: GateReport,
}

/// `POST /trend`: the trend report and its summary.
#[derive(Debug, Serialize, Deserialize)]
pub struct TrendResponse {
    /// Benchmarks with a significant shift at HEAD.
    pub alerts: Vec<String>,
    /// Benchmarks analyzed.
    pub benchmarks: usize,
    /// Runs in the archive.
    pub runs: usize,
    /// Detected changepoints, significant or not.
    pub changepoints: usize,
    /// Significant changepoints.
    pub significant: usize,
    /// The full trend report.
    pub report: TrendReport,
}

/// Any failed request; a 409 also names the contested `seq`.
#[derive(Debug, Serialize, Deserialize)]
pub struct ErrorBody {
    /// What went wrong.
    pub error: String,
    /// The sequence number already held by different content (409 only).
    pub seq: Option<u64>,
}

/// A service failure at bind or accept time.
#[derive(Debug)]
pub enum ServeError {
    /// Binding or accepting on the listen address failed.
    Io {
        /// The listen address involved.
        addr: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The backing store could not be opened.
    Store(StoreError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io { addr, source } => write!(f, "{addr}: {source}"),
            ServeError::Store(e) => write!(f, "archive: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io { source, .. } => Some(source),
            ServeError::Store(e) => Some(e),
        }
    }
}

/// A handle that stops a running [`ArchiveServer`] from another thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Asks the accept loop to exit; it notices within its poll interval.
    /// In-flight connections finish on their own threads.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// How long a `Stall` fault delays the response; it trips a client whose
/// read timeout is at most this, as the fault-injection clients' are.
const STALL: Duration = Duration::from_millis(500);

/// The archive service: a listener plus the one authoritative store.
pub struct ArchiveServer {
    listener: TcpListener,
    store: Arc<Mutex<Store>>,
    faults: Option<NetFaultPlan>,
    stop: Arc<AtomicBool>,
    exchanges: Arc<AtomicU64>,
}

impl ArchiveServer {
    /// Opens (creating if needed) the archive in `store_dir` and binds the
    /// listener. Use port 0 to let the OS pick (see
    /// [`ArchiveServer::handle`] for the resulting address).
    ///
    /// # Errors
    ///
    /// Store-open failures (including corruption — a corrupt archive must
    /// not be served) and bind failures.
    pub fn bind(addr: &str, store_dir: impl Into<PathBuf>) -> Result<ArchiveServer, ServeError> {
        let store = Store::open(store_dir).map_err(ServeError::Store)?;
        let listener = TcpListener::bind(addr).map_err(|source| ServeError::Io {
            addr: addr.to_string(),
            source,
        })?;
        Ok(ArchiveServer {
            listener,
            store: Arc::new(Mutex::new(store)),
            faults: None,
            stop: Arc::new(AtomicBool::new(false)),
            exchanges: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Injects the seeded network-fault plan into the accept loop (builder
    /// style) — the offline test double of a flaky production server.
    pub fn with_fault_plan(mut self, plan: NetFaultPlan) -> ArchiveServer {
        self.faults = Some(plan);
        self
    }

    /// A stop handle carrying the bound address.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            stop: Arc::clone(&self.stop),
            addr: self.listener.local_addr().expect("bound listener"),
        }
    }

    /// Serves until the [`ServerHandle`] asks it to stop. Each connection
    /// is handled on its own thread; the store lock serializes writers.
    ///
    /// # Errors
    ///
    /// Listener failures other than the polling `WouldBlock`.
    pub fn serve(self) -> Result<(), ServeError> {
        self.listener
            .set_nonblocking(true)
            .map_err(|source| ServeError::Io {
                addr: "listener".into(),
                source,
            })?;
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let n = self.exchanges.fetch_add(1, Ordering::SeqCst);
                    let fault = self
                        .faults
                        .as_ref()
                        .map(|p| p.decide(n))
                        .unwrap_or(NetFault::None);
                    let store = Arc::clone(&self.store);
                    thread::spawn(move || handle_connection(stream, fault, &store));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(2));
                }
                Err(source) => {
                    return Err(ServeError::Io {
                        addr: "listener".into(),
                        source,
                    })
                }
            }
        }
    }
}

fn handle_connection(mut stream: TcpStream, fault: NetFault, store: &Mutex<Store>) {
    // Accepted sockets inherit the listener's non-blocking mode on some
    // platforms; request handling wants plain blocking reads with caps.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));

    if fault == NetFault::Refuse {
        // Close before reading anything — to the client this is
        // indistinguishable from a connection reset.
        return;
    }
    let req = match read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            let (status, content_type, body) = error(400, &e.to_string());
            let _ = write_response(&mut stream, status, content_type, &body);
            return;
        }
    };
    match fault {
        NetFault::Stall => thread::sleep(STALL),
        NetFault::ServerError => {
            let (status, content_type, body) = error(500, "injected server error");
            let _ = write_response(&mut stream, status, content_type, &body);
            return;
        }
        NetFault::Garbage => {
            let _ = stream.write_all(b"\x00\x17** definitely not http **\r\n\r\n");
            return;
        }
        _ => {}
    }
    let (status, content_type, body) = route(&req, store);
    if fault == NetFault::Drop {
        // The write (if any) has been applied and fsynced; the ack is
        // withheld. The client must treat this as unknown-outcome and
        // retry idempotently.
        return;
    }
    let _ = write_response(&mut stream, status, content_type, &body);
}

type Response = (u16, &'static str, String);

fn json_response(status: u16, body: &impl Serialize) -> Response {
    let text = serde_json::to_string(body).expect("plain data");
    (status, "application/json", text)
}

fn ok_json(body: &impl Serialize) -> Response {
    json_response(200, body)
}

fn error(status: u16, message: &str) -> Response {
    json_response(
        status,
        &ErrorBody {
            error: message.to_string(),
            seq: None,
        },
    )
}

fn bad_request(message: &str) -> Response {
    error(400, message)
}

fn route(req: &Request, store: &Mutex<Store>) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => {
            let store = store.lock().expect("store lock");
            ok_json(&Health {
                service: "rigor-serve".to_string(),
                runs: store.len() as u64,
            })
        }
        ("GET", "/seq") => {
            let store = store.lock().expect("store lock");
            ok_json(&NextSeq {
                next_seq: store.next_seq(),
            })
        }
        ("GET", "/completed") => {
            let Some(label) = req.query_param("label") else {
                return bad_request("missing `label` query parameter");
            };
            let store = store.lock().expect("store lock");
            match store.find_label(label) {
                Some(r) => ok_json(&r.receipt()),
                None => error(404, "no run with that label"),
            }
        }
        ("PUT", "/runs") => put_run(req, store),
        ("GET", "/history") => {
            let last: Option<usize> = req.query_param("last").and_then(|v| v.parse().ok());
            let store = store.lock().expect("store lock");
            let runs = match last {
                Some(n) => store.last_n(n),
                None => store.runs().collect(),
            };
            let mut lines = String::new();
            for r in runs {
                lines.push_str(&record_line(r));
                lines.push('\n');
            }
            (200, "application/x-ndjson", lines)
        }
        ("POST", "/check") => post_check(req, store),
        ("POST", "/trend") => post_trend(req, store),
        ("GET" | "PUT" | "POST", _) => error(404, "no such endpoint"),
        _ => error(405, "method not allowed"),
    }
}

/// Idempotent upload of one record line. Dedup key: the content id.
fn put_run(req: &Request, store: &Mutex<Store>) -> Response {
    let record = match rigor_store::parse_record_line(&req.body) {
        Ok(r) => r,
        Err(e) => return bad_request(&format!("rejected upload: {e}")),
    };
    // Check-then-append under the one writer lock, the same discipline as
    // `SharedStore::archive_cell`.
    let mut store = store.lock().expect("store lock");
    if let Some(existing) = store.runs().find(|r| r.id == record.id) {
        return ok_json(&Uploaded {
            run_id: existing.id.clone(),
            seq: existing.seq,
            deduped: true,
        });
    }
    if let Some(clash) = store.runs().find(|r| r.seq == record.seq) {
        return json_response(
            409,
            &ErrorBody {
                error: format!(
                    "seq {} is already held by run {} with different content",
                    record.seq,
                    clash.short_id()
                ),
                seq: Some(record.seq),
            },
        );
    }
    match store.append_record(record) {
        Ok(r) => ok_json(&Uploaded {
            run_id: r.id.clone(),
            seq: r.seq,
            deduped: false,
        }),
        Err(e) => error(500, &e.to_string()),
    }
}

/// The regression gate over `store`: selects the baseline `query` names,
/// pools it, and gates `query.measurements` against it. What `POST
/// /check` answers, and what `rigor check` computes over a local store.
///
/// # Errors
///
/// The selection errors of [`BaselineRef::pooled_measurements`]:
/// [`StoreError::Empty`] and [`StoreError::UnknownRun`] among them.
pub fn check(store: &Store, query: &Query) -> Result<CheckResponse, StoreError> {
    let base_ref = BaselineRef::parse(query.baseline.as_deref().unwrap_or("last"));
    let det = SteadyStateDetector::default();
    let baseline_runs = base_ref.select(store)?.len();
    let pooled = base_ref.pooled_measurements(store, &det, &query.trend_config())?;
    let current = query.measurements.as_ref().map_or(&[][..], |m| &m.0);
    let report = check_regressions(&pooled, current, &det, &query.policy());
    let regressed: Vec<String> = report
        .regressed()
        .iter()
        .map(|g| g.benchmark.clone())
        .collect();
    Ok(CheckResponse {
        passed: regressed.is_empty(),
        checked: report.benchmarks.len(),
        regressed,
        baseline: base_ref.to_string(),
        baseline_runs,
        report,
    })
}

/// Changepoint analysis of `store`: of `query.benchmark`, or of every
/// archived benchmark. What `POST /trend` answers, and what `rigor trend`
/// computes over a local store.
pub fn trend(store: &Store, query: &Query) -> TrendResponse {
    // The archive, not the current suite, defines what can be analyzed:
    // benchmarks that left the suite still have histories worth watching.
    let names: Vec<String> = match &query.benchmark {
        Some(b) => vec![b.clone()],
        None => benchmark_names(store),
    };
    let report = trend_report(
        store,
        &names,
        &SteadyStateDetector::default(),
        &query.trend_config(),
    );
    TrendResponse {
        alerts: report
            .alerts()
            .iter()
            .map(|b| b.benchmark.clone())
            .collect(),
        benchmarks: report.benchmarks.len(),
        runs: store.len(),
        changepoints: report.changepoint_count(),
        significant: report.significant_count(),
        report,
    }
}

/// `POST /check`: gate client-measured benchmarks against a baseline
/// selected from the *server's* archive — the authoritative history.
fn post_check(req: &Request, store: &Mutex<Store>) -> Response {
    let query = match serde_json::from_str::<Query>(&req.body) {
        Ok(q) if q.measurements.is_some() => q,
        Ok(_) => return bad_request("missing `measurements`"),
        Err(e) => return bad_request(&format!("bad check request: {e}")),
    };
    match check(&store.lock().expect("store lock"), &query) {
        Ok(response) => ok_json(&response),
        Err(e @ (StoreError::Empty | StoreError::UnknownRun { .. })) => error(404, &e.to_string()),
        Err(e) => error(500, &e.to_string()),
    }
}

/// `POST /trend`: changepoint analysis over the server's archive.
fn post_trend(req: &Request, store: &Mutex<Store>) -> Response {
    match serde_json::from_str::<Query>(&req.body) {
        Ok(query) => ok_json(&trend(&store.lock().expect("store lock"), &query)),
        Err(e) => bad_request(&format!("bad trend request: {e}")),
    }
}

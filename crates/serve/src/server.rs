//! The shared archive service: one authoritative [`Store`] behind a writer
//! lock, served over the minimal HTTP codec in [`crate::http`].
//!
//! Endpoints:
//!
//! | method & path     | semantics                                              |
//! |-------------------|--------------------------------------------------------|
//! | `GET /health`     | liveness + run count                                   |
//! | `GET /seq`        | next free sequence number                              |
//! | `GET /completed`  | `?label=` → receipt of the run with that label, or 404 |
//! | `PUT /runs`       | idempotent upload of one record line                   |
//! | `GET /history`    | the archive as integrity-checked record lines (JSONL)  |
//! | `POST /check`     | regression gate vs. a server-side baseline             |
//! | `POST /trend`     | changepoint analysis of the server-side history        |
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

use rigor::{check_regressions, NetFault, NetFaultPlan, SteadyStateDetector};
use rigor_store::{record_line, BaselineRef, Store, StoreError};
use serde::json::{DeError, JsonValue};
use serde::{Deserialize, Serialize};

use crate::http::{read_request, write_response, Request};

/// Reads an optional body field, treating `null` and absence alike.
fn opt_field<T: Deserialize>(v: &JsonValue, name: &str) -> Result<Option<T>, DeError> {
    match v.get(name) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(x) => T::from_value(x)
            .map(Some)
            .map_err(|e| DeError::new(format!("field `{name}`: {e}"))),
    }
}

fn json_str(fields: Vec<(String, JsonValue)>) -> String {
    serde_json::to_string(&JsonValue::Object(fields)).expect("plain data")
}

fn error_body(message: &str) -> String {
    json_str(vec![("error".into(), message.to_value())])
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

/// The archive service: a listener plus the one authoritative store.
pub struct ArchiveServer {
    listener: TcpListener,
    store: Arc<Mutex<Store>>,
    faults: Option<NetFaultPlan>,
    stall: Duration,
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
            stall: Duration::from_millis(500),
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

    /// Sets how long a `Stall` fault delays the response (builder style).
    /// Must exceed the client's read timeout to actually trip it.
    pub fn with_stall(mut self, stall: Duration) -> ArchiveServer {
        self.stall = stall;
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
                    let stall = self.stall;
                    thread::spawn(move || handle_connection(stream, fault, stall, &store));
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

fn handle_connection(
    mut stream: TcpStream,
    fault: NetFault,
    stall: Duration,
    store: &Mutex<Store>,
) {
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
            let _ = write_response(
                &mut stream,
                400,
                "application/json",
                &error_body(&e.to_string()),
            );
            return;
        }
    };
    match fault {
        NetFault::Stall => thread::sleep(stall),
        NetFault::ServerError => {
            let _ = write_response(
                &mut stream,
                500,
                "application/json",
                &error_body("injected server error"),
            );
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

fn ok_json(fields: Vec<(String, JsonValue)>) -> Response {
    (200, "application/json", json_str(fields))
}

fn bad_request(message: &str) -> Response {
    (400, "application/json", error_body(message))
}

fn route(req: &Request, store: &Mutex<Store>) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => {
            let store = store.lock().expect("store lock");
            ok_json(vec![
                ("service".into(), "rigor-serve".to_value()),
                ("runs".into(), store.len().to_value()),
            ])
        }
        ("GET", "/seq") => {
            let store = store.lock().expect("store lock");
            ok_json(vec![("next_seq".into(), store.next_seq().to_value())])
        }
        ("GET", "/completed") => {
            let Some(label) = req.query_param("label") else {
                return bad_request("missing `label` query parameter");
            };
            let store = store.lock().expect("store lock");
            match store.find_label(label) {
                Some(r) => ok_json(vec![
                    ("run_id".into(), r.id.to_value()),
                    ("seq".into(), r.seq.to_value()),
                ]),
                None => (
                    404,
                    "application/json",
                    error_body("no run with that label"),
                ),
            }
        }
        ("PUT", "/runs") => put_run(req, store),
        ("GET", "/history") => {
            let last: Option<usize> = req.query_param("last").and_then(|v| v.parse().ok());
            let store = store.lock().expect("store lock");
            let mut lines = String::new();
            let skip = last.map(|n| store.len().saturating_sub(n)).unwrap_or(0);
            for r in store.runs().skip(skip) {
                lines.push_str(&record_line(r));
                lines.push('\n');
            }
            (200, "application/x-ndjson", lines)
        }
        ("POST", "/check") => post_check(req, store),
        ("POST", "/trend") => post_trend(req, store),
        ("GET" | "PUT" | "POST", _) => (404, "application/json", error_body("no such endpoint")),
        _ => (405, "application/json", error_body("method not allowed")),
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
        return ok_json(vec![
            ("run_id".into(), existing.id.to_value()),
            ("seq".into(), existing.seq.to_value()),
            ("deduped".into(), true.to_value()),
        ]);
    }
    if let Some(clash) = store.runs().find(|r| r.seq == record.seq) {
        return (
            409,
            "application/json",
            json_str(vec![
                (
                    "error".into(),
                    format!(
                        "seq {} is already held by run {} with different content",
                        record.seq,
                        clash.short_id()
                    )
                    .to_value(),
                ),
                ("seq".into(), record.seq.to_value()),
            ]),
        );
    }
    match store.append_record(record) {
        Ok(r) => ok_json(vec![
            ("run_id".into(), r.id.to_value()),
            ("seq".into(), r.seq.to_value()),
            ("deduped".into(), false.to_value()),
        ]),
        Err(e) => (500, "application/json", error_body(&e.to_string())),
    }
}

/// Rebuilds a [`rigor::GatePolicy`] from optional body fields.
fn policy_from(v: &JsonValue) -> Result<rigor::GatePolicy, DeError> {
    let mut policy = rigor::GatePolicy::default();
    if let Some(c) = opt_field::<f64>(v, "confidence")? {
        policy = policy.with_confidence(c);
    }
    if let Some(q) = opt_field::<f64>(v, "fdr")? {
        policy = policy.with_fdr_q(q);
    }
    if let Some(pct) = opt_field::<f64>(v, "max_regression_pct")? {
        policy = policy.with_max_regression(pct / 100.0);
    }
    if let Some(c) = opt_field::<String>(v, "correction")? {
        policy = policy.with_correction(
            rigor::Correction::parse(&c)
                .ok_or_else(|| DeError::new(format!("unknown correction `{c}`")))?,
        );
    }
    Ok(policy)
}

/// Rebuilds a [`rigor::TrendConfig`] from optional body fields.
fn trend_config_from(v: &JsonValue) -> Result<rigor::TrendConfig, DeError> {
    let mut cfg = rigor::TrendConfig::default();
    if let Some(c) = opt_field::<f64>(v, "confidence")? {
        cfg = cfg.with_confidence(c);
    }
    if let Some(m) = opt_field::<u64>(v, "min_segment")? {
        cfg = cfg.with_min_segment(m as usize);
    }
    if let Some(p) = opt_field::<String>(v, "penalty")? {
        cfg = cfg.with_penalty(
            rigor::Penalty::parse(&p)
                .ok_or_else(|| DeError::new(format!("unknown penalty `{p}`")))?,
        );
    }
    if let Some(q) = opt_field::<f64>(v, "fdr")? {
        cfg = cfg.with_fdr_q(q);
    }
    if let Some(c) = opt_field::<String>(v, "correction")? {
        cfg = cfg.with_correction(
            rigor::Correction::parse(&c)
                .ok_or_else(|| DeError::new(format!("unknown correction `{c}`")))?,
        );
    }
    Ok(cfg)
}

/// `POST /check`: gate client-measured benchmarks against a baseline
/// selected from the *server's* archive — the authoritative history.
fn post_check(req: &Request, store: &Mutex<Store>) -> Response {
    let body = match serde_json::from_str::<JsonValue>(&req.body) {
        Ok(v) => v,
        Err(e) => return bad_request(&format!("bad check request: {e}")),
    };
    let current = match body.get("measurements").map(rigor::from_json_value) {
        Some(Ok(ms)) => ms,
        Some(Err(e)) => return bad_request(&format!("bad measurements: {e}")),
        None => return bad_request("missing `measurements`"),
    };
    let policy = match policy_from(&body) {
        Ok(p) => p,
        Err(e) => return bad_request(&e.to_string()),
    };
    let trend_cfg = match trend_config_from(&body) {
        Ok(c) => c,
        Err(e) => return bad_request(&e.to_string()),
    };
    let baseline: String = opt_field::<String>(&body, "baseline")
        .unwrap_or(None)
        .unwrap_or_else(|| "last".to_string());
    let base_ref = BaselineRef::parse(&baseline);
    let det = SteadyStateDetector::default();

    let store = store.lock().expect("store lock");
    let baseline_runs = match base_ref.select(&store) {
        Ok(runs) => runs.len(),
        Err(StoreError::Empty) | Err(StoreError::UnknownRun { .. }) => 0,
        Err(e) => return (500, "application/json", error_body(&e.to_string())),
    };
    let pooled = match base_ref.pooled_measurements(&store, &det, &trend_cfg) {
        Ok(p) => p,
        Err(e @ (StoreError::Empty | StoreError::UnknownRun { .. })) => {
            return (404, "application/json", error_body(&e.to_string()))
        }
        Err(e) => return (500, "application/json", error_body(&e.to_string())),
    };
    let report = check_regressions(&pooled, &current, &det, &policy);
    let regressed: Vec<String> = report
        .regressed()
        .iter()
        .map(|g| g.benchmark.clone())
        .collect();
    ok_json(vec![
        ("passed".into(), regressed.is_empty().to_value()),
        ("checked".into(), report.benchmarks.len().to_value()),
        ("regressed".into(), regressed.to_value()),
        ("baseline".into(), base_ref.to_string().to_value()),
        ("baseline_runs".into(), baseline_runs.to_value()),
        ("report".into(), report.to_value()),
    ])
}

/// `POST /trend`: changepoint analysis over the server's archive.
fn post_trend(req: &Request, store: &Mutex<Store>) -> Response {
    let body = match serde_json::from_str::<JsonValue>(&req.body) {
        Ok(v) => v,
        Err(e) => return bad_request(&format!("bad trend request: {e}")),
    };
    let cfg = match trend_config_from(&body) {
        Ok(c) => c,
        Err(e) => return bad_request(&e.to_string()),
    };
    let benchmark = opt_field::<String>(&body, "benchmark").unwrap_or(None);
    let det = SteadyStateDetector::default();

    let store = store.lock().expect("store lock");
    let names: Vec<String> = match benchmark {
        Some(b) => vec![b],
        None => rigor_store::benchmark_names(&store),
    };
    let report = rigor_store::trend_report(&store, &names, &det, &cfg);
    let alerts: Vec<String> = report
        .alerts()
        .iter()
        .map(|b| b.benchmark.clone())
        .collect();
    ok_json(vec![
        ("alerts".into(), alerts.to_value()),
        ("benchmarks".into(), report.benchmarks.len().to_value()),
        ("runs".into(), store.len().to_value()),
        ("changepoints".into(), report.changepoint_count().to_value()),
        ("significant".into(), report.significant_count().to_value()),
        ("report".into(), report.to_value()),
    ])
}

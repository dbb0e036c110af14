//! [`RemoteStore`]: the resilient client half of the shared archive.
//!
//! Every exchange opens one connection (the server is `Connection:
//! close`), with a hard timeout on connect, read and write. Transient
//! failures — refused connections, resets, timeouts, garbage responses,
//! 5xx — are retried with seeded exponential backoff (deterministic, so a
//! failure trace replays exactly). When `breaker_threshold` consecutive
//! *operations* fail, the circuit breaker opens: further operations fail
//! fast without touching the network, except a half-open probe every
//! `probe_every`-th operation that tests whether the server is back.
//!
//! As a campaign [`CellSink`], the client never loses a measured cell:
//! when an upload cannot be delivered, the record is appended to a local
//! write-ahead spool (a regular [`Store`] directory — fsynced, content
//! addressed, torn-tail safe) and a local receipt is returned, which is
//! valid because receipts are content ids and the id is computed
//! client-side. On the next successful exchange the spool is replayed in
//! grid (`seq`) order; the server dedups by content id, so replaying
//! after a partial drain, an unacknowledged write, or a server restart
//! converges to the same archive as an uninterrupted run.

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rigor::campaign::{Cell, CellReceipt, CellSink};
use rigor::measurement::BenchmarkMeasurement;
use rigor::{ExperimentConfig, ExperimentEvent, ExperimentObserver};
use rigor_store::{parse_record_line, record_line, RunRecord, Store, StoreError};
use serde::json::JsonValue;
use serde::Deserialize;

use crate::http::{read_response, write_request};
use crate::server::{ErrorBody, Health, NextSeq, Uploaded};

/// A client-side failure talking to the archive service.
#[derive(Debug)]
pub enum RemoteError {
    /// The TCP connection could not be established.
    Connect {
        /// Server address.
        url: String,
        /// The underlying error.
        source: io::Error,
    },
    /// The connection broke or timed out mid-exchange.
    Io {
        /// Server address.
        url: String,
        /// The underlying error.
        source: io::Error,
    },
    /// The peer answered, but not with HTTP (or the payload didn't parse).
    Protocol {
        /// Server address.
        url: String,
        /// What was wrong.
        message: String,
    },
    /// The server answered with a non-success status.
    Status {
        /// Server address.
        url: String,
        /// HTTP status code.
        status: u16,
        /// The server's error message.
        message: String,
    },
    /// The requested sequence number is held by different content (409).
    Conflict {
        /// Server address.
        url: String,
        /// The server's explanation.
        message: String,
    },
    /// The circuit breaker is open; the operation failed fast.
    CircuitOpen {
        /// Server address.
        url: String,
        /// Consecutive failures that opened it.
        failures: u32,
    },
    /// The local write-ahead spool failed — measurements can no longer be
    /// guaranteed durable, so this is fatal.
    Spool(StoreError),
    /// An upload was undeliverable and no spool is configured to hold it.
    NoSpool {
        /// Server address.
        url: String,
    },
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Connect { url, source } => write!(f, "{url}: connect: {source}"),
            RemoteError::Io { url, source } => write!(f, "{url}: {source}"),
            RemoteError::Protocol { url, message } => write!(f, "{url}: {message}"),
            RemoteError::Status {
                url,
                status,
                message,
            } => write!(f, "{url}: HTTP {status}: {message}"),
            RemoteError::Conflict { url, message } => write!(f, "{url}: conflict: {message}"),
            RemoteError::CircuitOpen { url, failures } => write!(
                f,
                "{url}: circuit breaker open after {failures} consecutive failures"
            ),
            RemoteError::Spool(e) => write!(f, "spool: {e}"),
            RemoteError::NoSpool { url } => write!(
                f,
                "{url}: unreachable and no spool configured — upload would be lost"
            ),
        }
    }
}

impl std::error::Error for RemoteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RemoteError::Connect { source, .. } | RemoteError::Io { source, .. } => Some(source),
            RemoteError::Spool(e) => Some(e),
            _ => None,
        }
    }
}

impl RemoteError {
    /// Whether retrying the exchange could plausibly succeed. Client
    /// mistakes (4xx) and local spool failures are not retried.
    fn retryable(&self) -> bool {
        match self {
            RemoteError::Connect { .. } | RemoteError::Io { .. } | RemoteError::Protocol { .. } => {
                true
            }
            RemoteError::Status { status, .. } => *status >= 500,
            _ => false,
        }
    }
}

/// Mutable client state: breaker bookkeeping plus the spool.
struct ClientState {
    /// Failed operations since the last success.
    consecutive_failures: u32,
    /// Whether the breaker is open (failing fast).
    open: bool,
    /// Operations attempted since the breaker opened (drives probing).
    ops_since_open: u64,
    /// Total operations started; salts the backoff jitter stream.
    op_counter: u64,
}

/// The resilient archive-service client; a campaign [`CellSink`].
pub struct RemoteStore {
    url: String,
    timeout: Duration,
    max_retries: u32,
    backoff_base: Duration,
    seed: u64,
    breaker_threshold: u32,
    probe_every: u64,
    state: Mutex<ClientState>,
    spool: Mutex<Option<Store>>,
    observers: Vec<Arc<dyn ExperimentObserver>>,
}

impl std::fmt::Debug for RemoteStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteStore")
            .field("url", &self.url)
            .field("timeout", &self.timeout)
            .field("max_retries", &self.max_retries)
            .finish_non_exhaustive()
    }
}

/// Splitmix64 finisher: one well-mixed draw in `[0, 1)` per distinct key.
fn uniform(key: u64) -> f64 {
    let mut z = key;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

impl RemoteStore {
    /// Creates a client for the service at `url` (`host:port`, with an
    /// optional `http://` prefix). No connection is attempted — a campaign
    /// may legitimately start while the server is down and spool until it
    /// returns. Use [`RemoteStore::ping`] when reachability must be
    /// verified up front.
    pub fn connect(url: &str) -> RemoteStore {
        let url = url
            .trim()
            .trim_start_matches("http://")
            .trim_end_matches('/')
            .to_string();
        RemoteStore {
            url,
            timeout: Duration::from_secs(10),
            max_retries: 3,
            backoff_base: Duration::from_millis(50),
            seed: 0,
            breaker_threshold: 3,
            probe_every: 8,
            state: Mutex::new(ClientState {
                consecutive_failures: 0,
                open: false,
                ops_since_open: 0,
                op_counter: 0,
            }),
            spool: Mutex::new(None),
            observers: Vec::new(),
        }
    }

    /// Sets the per-exchange connect/read/write timeout (builder style).
    pub fn with_timeout(mut self, timeout: Duration) -> RemoteStore {
        self.timeout = timeout;
        self
    }

    /// Sets how many times a failed exchange is retried (builder style).
    pub fn with_retries(mut self, retries: u32) -> RemoteStore {
        self.max_retries = retries;
        self
    }

    /// Sets the base backoff delay; attempt `n` waits
    /// `base × 2^(n-1) × (0.5 + jitter)` (builder style).
    pub fn with_backoff_base(mut self, base: Duration) -> RemoteStore {
        self.backoff_base = base;
        self
    }

    /// Seeds the deterministic backoff jitter (builder style).
    pub fn with_seed(mut self, seed: u64) -> RemoteStore {
        self.seed = seed;
        self
    }

    /// Sets how many consecutive failed operations open the circuit
    /// breaker (builder style).
    pub fn with_breaker_threshold(mut self, failures: u32) -> RemoteStore {
        self.breaker_threshold = failures.max(1);
        self
    }

    /// Sets the half-open probe cadence: with the breaker open, every
    /// `n`-th operation still tries the network (builder style).
    pub fn with_probe_every(mut self, n: u64) -> RemoteStore {
        self.probe_every = n.max(1);
        self
    }

    /// Registers a telemetry observer (builder style).
    pub fn with_observer(mut self, observer: Arc<dyn ExperimentObserver>) -> RemoteStore {
        self.observers.push(observer);
        self
    }

    /// Attaches the local write-ahead spool at `dir` (builder style).
    /// Without a spool, undeliverable uploads are hard errors.
    ///
    /// # Errors
    ///
    /// As [`Store::open`] — an unreadable or corrupt spool is fatal,
    /// because it may hold unreplayed measurements.
    pub fn with_spool(self, dir: impl Into<PathBuf>) -> Result<RemoteStore, RemoteError> {
        let store = Store::open(dir).map_err(RemoteError::Spool)?;
        *self.spool.lock().expect("spool lock") = Some(store);
        Ok(self)
    }

    /// The normalized server address.
    pub fn url(&self) -> &str {
        &self.url
    }

    /// Snapshot of the runs currently waiting in the spool, in `seq`
    /// order — what an export must merge with the server history to see
    /// every measured cell while the server is down.
    pub fn spool_records(&self) -> Vec<RunRecord> {
        let mut runs: Vec<RunRecord> = self
            .spool
            .lock()
            .expect("spool lock")
            .as_ref()
            .map(|s| s.runs().cloned().collect())
            .unwrap_or_default();
        runs.sort_by_key(|r| r.seq);
        runs
    }

    /// Runs currently waiting in the spool.
    pub fn spooled(&self) -> usize {
        self.spool
            .lock()
            .expect("spool lock")
            .as_ref()
            .map(|s| s.len())
            .unwrap_or(0)
    }

    fn emit(&self, event: ExperimentEvent) {
        for obs in &self.observers {
            obs.on_event(&event);
        }
    }

    /// The jittered exponential backoff before retry `attempt` of
    /// operation `op`. Deterministic in `(seed, op, attempt)`.
    fn backoff(&self, op: u64, attempt: u32) -> Duration {
        let base = self.backoff_base.as_millis() as u64;
        let scaled = base.saturating_mul(1u64 << (attempt - 1).min(6));
        let key = self.seed
            ^ 0xBACC_0FF5_0BAC_C0FF
            ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ ((attempt as u64) << 48);
        let jitter = 0.5 + uniform(key);
        Duration::from_millis((scaled as f64 * jitter).round() as u64)
    }

    /// One raw exchange: connect, send, read the response.
    fn try_once(&self, method: &str, path: &str, body: &str) -> Result<(u16, String), RemoteError> {
        let addrs: Vec<SocketAddr> = self
            .url
            .to_socket_addrs()
            .map_err(|source| RemoteError::Connect {
                url: self.url.clone(),
                source,
            })?
            .collect();
        let addr = addrs.first().ok_or_else(|| RemoteError::Connect {
            url: self.url.clone(),
            source: io::Error::new(io::ErrorKind::NotFound, "address resolved to nothing"),
        })?;
        let mut stream = TcpStream::connect_timeout(addr, self.timeout).map_err(|source| {
            RemoteError::Connect {
                url: self.url.clone(),
                source,
            }
        })?;
        stream
            .set_read_timeout(Some(self.timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.timeout)))
            .map_err(|source| RemoteError::Io {
                url: self.url.clone(),
                source,
            })?;
        write_request(&mut stream, method, path, body).map_err(|source| RemoteError::Io {
            url: self.url.clone(),
            source,
        })?;
        match read_response(&mut stream) {
            Ok(resp) => Ok(resp),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => Err(RemoteError::Protocol {
                url: self.url.clone(),
                message: e.to_string(),
            }),
            Err(source) => Err(RemoteError::Io {
                url: self.url.clone(),
                source,
            }),
        }
    }

    /// Pulls the server's message out of an error body.
    fn error_message(body: &str) -> String {
        serde_json::from_str::<ErrorBody>(body)
            .map(|e| e.error)
            .unwrap_or_else(|_| body.trim().to_string())
    }

    /// One *operation*: breaker gate, then the exchange with retry and
    /// backoff. Success (any response with status < 500) closes the
    /// breaker; exhausting retries counts one failure toward opening it.
    fn exchange(
        &self,
        label: &str,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), RemoteError> {
        let op = {
            let mut s = self.state.lock().expect("client state lock");
            s.op_counter += 1;
            if s.open {
                s.ops_since_open += 1;
                if !s.ops_since_open.is_multiple_of(self.probe_every) {
                    return Err(RemoteError::CircuitOpen {
                        url: self.url.clone(),
                        failures: s.consecutive_failures,
                    });
                }
                // Fall through: this operation is the half-open probe.
            }
            s.op_counter
        };
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            let error = match self.try_once(method, path, body) {
                Ok((status, resp)) if status >= 500 => RemoteError::Status {
                    url: self.url.clone(),
                    status,
                    message: Self::error_message(&resp),
                },
                Ok(resp) => {
                    let mut s = self.state.lock().expect("client state lock");
                    s.consecutive_failures = 0;
                    s.open = false;
                    s.ops_since_open = 0;
                    return Ok(resp);
                }
                Err(e) => e,
            };
            if attempt > self.max_retries || !error.retryable() {
                let mut s = self.state.lock().expect("client state lock");
                s.consecutive_failures += 1;
                if !s.open && s.consecutive_failures >= self.breaker_threshold {
                    s.open = true;
                    s.ops_since_open = 0;
                    let failures = s.consecutive_failures;
                    drop(s);
                    self.emit(ExperimentEvent::CircuitOpened {
                        failures,
                        url: self.url.clone(),
                    });
                }
                return Err(error);
            }
            let wait = self.backoff(op, attempt);
            self.emit(ExperimentEvent::UploadRetried {
                label: label.to_string(),
                attempt,
                backoff_ms: wait.as_millis() as u64,
                error: error.to_string(),
            });
            std::thread::sleep(wait);
        }
    }

    /// An exchange that must come back 2xx; other statuses become typed
    /// errors.
    fn expect_ok(
        &self,
        label: &str,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<String, RemoteError> {
        let (status, resp) = self.exchange(label, method, path, body)?;
        match status {
            200..=299 => Ok(resp),
            409 => Err(RemoteError::Conflict {
                url: self.url.clone(),
                message: Self::error_message(&resp),
            }),
            _ => Err(RemoteError::Status {
                url: self.url.clone(),
                status,
                message: Self::error_message(&resp),
            }),
        }
    }

    fn parse<T: Deserialize>(&self, body: &str) -> Result<T, RemoteError> {
        serde_json::from_str::<T>(body).map_err(|e| RemoteError::Protocol {
            url: self.url.clone(),
            message: format!("bad response payload: {e}"),
        })
    }

    /// Verifies the server is reachable; returns its run count.
    ///
    /// # Errors
    ///
    /// Any transport or protocol failure after retries.
    pub fn ping(&self) -> Result<u64, RemoteError> {
        let body = self.expect_ok("health", "GET", "/health", "")?;
        self.parse::<Health>(&body).map(|a| a.runs)
    }

    /// The next free sequence number in the server archive.
    ///
    /// # Errors
    ///
    /// Any transport or protocol failure after retries.
    pub fn next_seq(&self) -> Result<u64, RemoteError> {
        let body = self.expect_ok("seq", "GET", "/seq", "")?;
        self.parse::<NextSeq>(&body).map(|a| a.next_seq)
    }

    /// Uploads one fully-formed record. Idempotent: re-uploading content
    /// the server already holds returns the original receipt.
    ///
    /// # Errors
    ///
    /// Transport failures after retries, and [`RemoteError::Conflict`]
    /// when the record's `seq` is taken by different content.
    pub fn upload(&self, record: &RunRecord) -> Result<CellReceipt, RemoteError> {
        let label = record.label.as_deref().unwrap_or("run");
        let body = self.expect_ok(label, "PUT", "/runs", record_line(record).trim_end())?;
        let ack: Uploaded = self.parse(&body)?;
        // The content id covers the precision, so the acknowledged run
        // carries the record's.
        Ok(CellReceipt {
            run_id: ack.run_id,
            seq: ack.seq,
            precision: record.precision.clone(),
        })
    }

    /// Archives a run whose `seq` the server assigns: fetch the next free
    /// seq, upload, and retry on a lost race (another writer took it).
    ///
    /// # Errors
    ///
    /// As [`RemoteStore::upload`]; a conflict that persists across many
    /// re-fetches is reported rather than looped forever.
    pub fn archive_run(
        &self,
        label: Option<String>,
        config: &ExperimentConfig,
        measurements: Vec<BenchmarkMeasurement>,
    ) -> Result<CellReceipt, RemoteError> {
        let mut last = None;
        for _ in 0..16 {
            let seq = self.next_seq()?;
            let record = RunRecord::new(seq, label.clone(), config, measurements.clone());
            match self.upload(&record) {
                Err(e @ RemoteError::Conflict { .. }) => last = Some(e),
                other => return other,
            }
        }
        Err(last.expect("conflict retry loop exits early unless a conflict was seen"))
    }

    /// Fetches the server archive (optionally only the `n` runs with the
    /// highest seqs, oldest first) as verified records — every line's
    /// length and content hash is re-checked locally, so transit
    /// corruption is detected.
    ///
    /// # Errors
    ///
    /// Transport failures after retries; a line failing verification is a
    /// [`RemoteError::Protocol`].
    pub fn history(&self, last: Option<usize>) -> Result<Vec<RunRecord>, RemoteError> {
        let path = match last {
            Some(n) => format!("/history?last={n}"),
            None => "/history".to_string(),
        };
        let body = self.expect_ok("history", "GET", &path, "")?;
        body.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|line| {
                parse_record_line(line).map_err(|e| RemoteError::Protocol {
                    url: self.url.clone(),
                    message: format!("corrupt record in transit: {e}"),
                })
            })
            .collect()
    }

    /// Runs the regression gate server-side (`POST /check`). The request,
    /// a [`Query`](crate::Query) as JSON, carries the locally-measured
    /// benchmarks; the baseline comes from the server's authoritative
    /// history.
    ///
    /// # Errors
    ///
    /// Transport failures after retries and server-reported errors (e.g.
    /// an empty server archive → 404).
    pub fn check(&self, request: &JsonValue) -> Result<JsonValue, RemoteError> {
        let body = serde_json::to_string(request).expect("plain data");
        let resp = self.expect_ok("check", "POST", "/check", &body)?;
        self.parse(&resp)
    }

    /// Runs changepoint analysis server-side (`POST /trend`); the request
    /// is a [`Query`](crate::Query) as JSON.
    ///
    /// # Errors
    ///
    /// Transport failures after retries and server-reported errors.
    pub fn trend(&self, request: &JsonValue) -> Result<JsonValue, RemoteError> {
        let body = serde_json::to_string(request).expect("plain data");
        let resp = self.expect_ok("trend", "POST", "/trend", &body)?;
        self.parse(&resp)
    }

    /// Appends `record` to the spool unless a record with the same label
    /// is already there (idempotent, like the server).
    fn spool_append(&self, record: &RunRecord) -> Result<usize, RemoteError> {
        let mut guard = self.spool.lock().expect("spool lock");
        let spool = guard.as_mut().ok_or_else(|| RemoteError::NoSpool {
            url: self.url.clone(),
        })?;
        let label = record.label.as_deref();
        if !spool.runs().any(|r| r.label.as_deref() == label) {
            spool
                .append_record(record.clone())
                .map_err(RemoteError::Spool)?;
        }
        Ok(spool.len())
    }

    /// Replays every spooled run to the server in `seq` order. The spool
    /// is only cleared after *all* records are acknowledged — re-replaying
    /// an already-delivered record is harmless (the server dedups by
    /// content id), losing one is not.
    ///
    /// # Errors
    ///
    /// Spool I/O failures. Delivery failures are not errors: the records
    /// stay spooled and the count of remaining runs is returned.
    pub fn flush(&self) -> Result<(u32, u32), RemoteError> {
        let pending: Vec<RunRecord> = {
            let guard = self.spool.lock().expect("spool lock");
            let Some(spool) = guard.as_ref() else {
                return Ok((0, 0));
            };
            let mut runs: Vec<RunRecord> = spool.runs().cloned().collect();
            runs.sort_by_key(|r| r.seq);
            runs
        };
        if pending.is_empty() {
            return Ok((0, 0));
        }
        let mut replayed: u32 = 0;
        for record in &pending {
            match self.upload(record) {
                Ok(_) => replayed += 1,
                Err(_) => break,
            }
        }
        let remaining = pending.len() as u32 - replayed;
        if remaining == 0 {
            let mut guard = self.spool.lock().expect("spool lock");
            if let Some(spool) = guard.as_mut() {
                spool.compact(Some(0)).map_err(RemoteError::Spool)?;
            }
        }
        if replayed > 0 {
            self.emit(ExperimentEvent::SpoolReplayed {
                replayed,
                remaining,
                url: self.url.clone(),
            });
        }
        Ok((replayed, remaining))
    }
}

impl CellSink for RemoteStore {
    fn archive_cell(
        &self,
        cell: &Cell,
        measurement: &BenchmarkMeasurement,
    ) -> Result<CellReceipt, String> {
        let record = RunRecord::for_cell(cell, measurement);
        match self.upload(&record) {
            Ok(receipt) => {
                // The server is reachable: opportunistically drain any
                // backlog from an earlier outage.
                if self.spooled() > 0 {
                    self.flush().map_err(|e| e.to_string())?;
                }
                Ok(receipt)
            }
            // A seq conflict is campaign misuse (two different campaigns
            // writing the same archive), not a transient fault — spooling
            // it would just fail again on replay.
            Err(e @ RemoteError::Conflict { .. }) => Err(e.to_string()),
            Err(_) => {
                let spooled = self.spool_append(&record).map_err(|e| e.to_string())?;
                self.emit(ExperimentEvent::ServerDegraded {
                    label: cell.id.canonical(),
                    spooled: spooled as u32,
                });
                Ok(record.receipt())
            }
        }
    }

    /// The server's next free seq, or past the spooled runs if those go
    /// higher. One bare attempt, outside the retry and breaker bookkeeping:
    /// a campaign may start with the server down, and then numbers its
    /// cells past the runs it knows of, the spooled ones.
    fn seq_base(&self) -> Result<u64, String> {
        let server = self
            .try_once("GET", "/seq", "")
            .ok()
            .filter(|(status, _)| *status == 200)
            .and_then(|(_, body)| self.parse::<NextSeq>(&body).ok())
            .map_or(0, |answer| answer.next_seq);
        let spool = self.spool.lock().expect("spool lock");
        Ok(server.max(spool.as_ref().map_or(0, Store::next_seq)))
    }

    fn completed_cell(&self, cell: &Cell) -> Result<Option<CellReceipt>, String> {
        let label = cell.id.canonical();
        // The spool is authoritative for anything not yet delivered.
        {
            let guard = self.spool.lock().expect("spool lock");
            if let Some(spool) = guard.as_ref() {
                if let Some(r) = spool.find_label(&label) {
                    return Ok(Some(r.receipt()));
                }
            }
        }
        match self.exchange(&label, "GET", &format!("/completed?label={label}"), "") {
            Ok((200, body)) => self.parse(&body).map(Some).map_err(|e| e.to_string()),
            Ok(_) => Ok(None),
            // Unknown is safe: cells re-execute idempotently.
            Err(_) => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ArchiveServer;
    use rigor::campaign::CampaignSpec;
    use rigor::measurement::BenchmarkMeasurement;
    use rigor::{CollectingObserver, ExperimentConfig, NetFaultPlan};
    use rigor_workloads::Size;
    use std::net::TcpListener;
    use std::thread;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rigor-serve-{tag}-{}-{:?}",
            std::process::id(),
            thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn config() -> ExperimentConfig {
        ExperimentConfig::interp()
            .with_invocations(2)
            .with_iterations(3)
            .with_size(Size::Small)
            .with_seed(5)
    }

    fn measurement(benchmark: &str) -> BenchmarkMeasurement {
        BenchmarkMeasurement {
            benchmark: benchmark.to_string(),
            engine: "interp".to_string(),
            invocations: vec![],
            censored: vec![],
            quarantined: false,
        }
    }

    fn cells() -> Vec<Cell> {
        CampaignSpec::new(config())
            .with_benchmarks(["sieve"])
            .with_seeds(vec![5, 6])
            .cells()
            .unwrap()
    }

    /// Starts a server over a fresh store; returns (url, handle, join).
    fn start_server(
        dir: &std::path::Path,
        faults: Option<NetFaultPlan>,
    ) -> (String, crate::server::ServerHandle, thread::JoinHandle<()>) {
        let mut server = ArchiveServer::bind("127.0.0.1:0", dir).unwrap();
        if let Some(plan) = faults {
            server = server.with_fault_plan(plan);
        }
        let handle = server.handle();
        let url = format!("127.0.0.1:{}", handle.addr().port());
        let join = thread::spawn(move || server.serve().unwrap());
        (url, handle, join)
    }

    fn fast_client(url: &str) -> RemoteStore {
        RemoteStore::connect(url)
            .with_timeout(Duration::from_millis(500))
            .with_retries(2)
            .with_backoff_base(Duration::from_millis(1))
            .with_seed(7)
    }

    #[test]
    fn upload_is_idempotent_and_history_verifies() {
        let store_dir = temp_dir("server-roundtrip");
        let (url, handle, join) = start_server(&store_dir, None);
        let client = fast_client(&url);

        assert_eq!(client.ping().unwrap(), 0);
        assert_eq!(client.next_seq().unwrap(), 0);

        let record = RunRecord::new(0, Some("a/b".into()), &config(), vec![measurement("sieve")]);
        let first = client.upload(&record).unwrap();
        let replay = client.upload(&record).unwrap();
        assert_eq!(first, replay, "re-upload returns the original receipt");
        assert_eq!(first.run_id, record.id);
        assert_eq!(client.next_seq().unwrap(), 1);

        // Different content at the same seq is a conflict.
        let clash = RunRecord::new(0, Some("c/d".into()), &config(), vec![measurement("fib")]);
        assert!(matches!(
            client.upload(&clash).unwrap_err(),
            RemoteError::Conflict { .. }
        ));

        let history = client.history(None).unwrap();
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].id, record.id);
        assert_eq!(history[0].label.as_deref(), Some("a/b"));

        handle.stop();
        join.join().unwrap();
        std::fs::remove_dir_all(&store_dir).ok();
    }

    #[test]
    fn a_body_nested_too_deep_is_rejected_and_the_server_keeps_serving() {
        let store_dir = temp_dir("server-deep-body");
        let (url, handle, join) = start_server(&store_dir, None);
        let hostile = "[".repeat(200_000);
        for (method, path) in [("PUT", "/runs"), ("POST", "/check"), ("POST", "/trend")] {
            let mut stream = TcpStream::connect(&url).unwrap();
            write_request(&mut stream, method, path, &hostile).unwrap();
            let (status, body) = read_response(&mut stream).unwrap();
            assert_eq!(status, 400, "{method} {path}: {body}");
            assert!(body.contains("nesting"), "{method} {path}: {body}");
        }
        assert_eq!(fast_client(&url).ping().unwrap(), 0);
        handle.stop();
        join.join().unwrap();
        std::fs::remove_dir_all(&store_dir).ok();
    }

    #[test]
    fn unreachable_server_spools_and_reconnect_replays() {
        // Grab a port that is then closed again: connection refused.
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = dead.local_addr().unwrap().port();
        drop(dead);

        let spool_dir = temp_dir("client-spool");
        let observer = Arc::new(CollectingObserver::default());
        let client = fast_client(&format!("127.0.0.1:{port}"))
            .with_retries(1)
            .with_breaker_threshold(2)
            .with_observer(observer.clone())
            .with_spool(&spool_dir)
            .unwrap();

        let cells = cells();
        let m = measurement("sieve");
        let a = client.archive_cell(&cells[0], &m).unwrap();
        let b = client.archive_cell(&cells[1], &m).unwrap();
        assert_eq!(client.spooled(), 2);
        assert_eq!(a.seq, cells[0].index as u64);
        assert_ne!(a.run_id, b.run_id);

        // Spooled cells answer the resume query locally.
        assert_eq!(client.completed_cell(&cells[0]).unwrap(), Some(a.clone()));

        // The breaker tripped after two failed operations.
        let events = observer.events();
        assert!(events
            .iter()
            .any(|e| matches!(e, ExperimentEvent::CircuitOpened { failures: 2, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, ExperimentEvent::ServerDegraded { .. })));

        // Server comes up on the same port; flush drains the spool.
        let store_dir = temp_dir("client-spool-server");
        let server = ArchiveServer::bind(&format!("127.0.0.1:{port}"), &store_dir).unwrap();
        let handle = server.handle();
        let join = thread::spawn(move || server.serve().unwrap());

        // The breaker is open; operations probe through every Nth call.
        let (replayed, remaining) = loop {
            let r = client.flush().unwrap();
            if r.0 > 0 || client.spooled() == 0 {
                break r;
            }
        };
        assert_eq!((replayed, remaining), (2, 0));
        assert_eq!(client.spooled(), 0);
        assert_eq!(client.ping().unwrap(), 2);
        assert!(observer
            .events()
            .iter()
            .any(|e| matches!(e, ExperimentEvent::SpoolReplayed { replayed: 2, .. })));

        // Receipts issued offline match what the server now holds.
        assert_eq!(client.completed_cell(&cells[0]).unwrap(), Some(a));

        handle.stop();
        join.join().unwrap();
        std::fs::remove_dir_all(&spool_dir).ok();
        std::fs::remove_dir_all(&store_dir).ok();
    }

    #[test]
    fn open_breaker_fails_fast_without_touching_the_network() {
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = dead.local_addr().unwrap().port();
        drop(dead);

        let client = fast_client(&format!("127.0.0.1:{port}"))
            .with_retries(0)
            .with_breaker_threshold(1)
            .with_probe_every(1000);
        assert!(client.ping().is_err());
        let start = std::time::Instant::now();
        for _ in 0..50 {
            assert!(matches!(
                client.ping().unwrap_err(),
                RemoteError::CircuitOpen { .. }
            ));
        }
        assert!(
            start.elapsed() < Duration::from_millis(200),
            "fail-fast ops must not hit the connect timeout"
        );
    }

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let client = RemoteStore::connect("127.0.0.1:1")
            .with_backoff_base(Duration::from_millis(10))
            .with_seed(42);
        let again = RemoteStore::connect("127.0.0.1:1")
            .with_backoff_base(Duration::from_millis(10))
            .with_seed(42);
        for attempt in 1..=4 {
            assert_eq!(client.backoff(3, attempt), again.backoff(3, attempt));
        }
        // Jitter is bounded to [0.5, 1.5]× the exponential schedule, so
        // attempt n+2 always outgrows attempt n.
        assert!(client.backoff(3, 3) > client.backoff(3, 1));
        assert!(client.backoff(3, 4) > client.backoff(3, 2));
        let other = RemoteStore::connect("127.0.0.1:1")
            .with_backoff_base(Duration::from_millis(10))
            .with_seed(43);
        assert_ne!(
            (1..=4).map(|a| client.backoff(3, a)).collect::<Vec<_>>(),
            (1..=4).map(|a| other.backoff(3, a)).collect::<Vec<_>>(),
            "different seeds give different jitter streams"
        );
    }
}

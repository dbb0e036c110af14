//! `serve_stream`: one client, one connection at a time, against an
//! in-process `ArchiveServer` on `127.0.0.1:0` whose store was
//! pre-populated in set-up and opened by `bind`.
//!
//! Each batch replays what a CI client sends after one campaign: the
//! campaign's 58 cell records, one `PUT /runs` each; a few re-uploads of
//! records already acknowledged, as a spool replay sends; then `GET /health`
//! (as `rigor check --store-url` pings first), `GET /history?last=58`,
//! `POST /check --baseline segment` with the batch's measurements, and
//! `POST /trend`. One operation is one HTTP request. Records come from the
//! seeded generator, never from the VM.
//!
//! In a traced run every request is a span. After the batch, the work the
//! server did inside the requests is replayed on a copy of its archive, each
//! replay under the request it happened in: a record's encoding, parsing and
//! append under its upload; the segment baseline and the gate under the
//! check; the trend report (and under it, the history points) under the
//! trend.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use rigor::measurement::BenchmarkMeasurement;
use rigor::{check_regressions, GatePolicy, SteadyStateDetector, TrendConfig};
use rigor_serve::{ArchiveServer, RemoteError, RemoteStore, ServeError, ServerHandle};
use rigor_store::{
    benchmark_names, parse_record_line, record_line, trend_report, BaselineRef, Store,
    ARCHIVE_FILE,
};
use serde::json::JsonValue;
use serde::Serialize;

use super::{history_points, journal_mib, remove_dir, traced, Env, EventCounter, OpLog, Workload};
use crate::gen::{CellBatch, CellStream};
use crate::trace::Tracer;

/// Campaigns in the archive before the first request.
const PRE_BATCHES: usize = 20;

/// Acknowledged records re-sent per batch.
const REPLAYS: usize = 4;

/// The set-up workload.
pub struct ServeStream {
    stream: CellStream,
    handle: ServerHandle,
    server: Option<JoinHandle<Result<(), ServeError>>>,
    client: RemoteStore,
    traced_client: Option<RemoteStore>,
    seed: u64,
    store_dir: PathBuf,
    work: PathBuf,
    /// Runs the server must hold.
    runs: u64,
    /// Traced runs only: a copy of the server's archive that receives the
    /// same appends, so store and statistics calls can be timed from here.
    shadow: Option<Store>,
}

/// The string array `field` of a server response.
fn names(response: &JsonValue, field: &str) -> Option<Vec<String>> {
    match response.get(field)? {
        JsonValue::Array(items) => items
            .iter()
            .map(|v| v.as_str().map(str::to_string))
            .collect(),
        _ => None,
    }
}

/// One request: timed, optionally in a span, and checked by `verdict`. A
/// request that fails counts as not ok. Returns the request's span.
fn request<T>(
    log: &mut OpLog,
    tracer: Option<&Tracer>,
    name: &'static str,
    op: u64,
    call: impl FnOnce() -> Result<T, RemoteError>,
    verdict: impl FnOnce(&T) -> Result<(), String>,
) -> Option<u64> {
    let started = Instant::now();
    let result = traced(tracer, name, op, call);
    let latency = started.elapsed();
    let verdict = result.map_err(|e| e.to_string()).and_then(|v| verdict(&v));
    log.op(latency, verdict.is_ok());
    if let Err(e) = verdict {
        log.fail(format!("{name}: {e}"));
    }
    tracer.and_then(|t| t.last(name))
}

/// The spans of one batch's requests that the replays split.
struct BatchSpans {
    /// The first upload of every record of the batch.
    uploads: Vec<Option<u64>>,
    check: Option<u64>,
    trend: Option<u64>,
}

impl ServeStream {
    /// Writes the pre-populated archive, starts the server on it and sends
    /// one warm-up batch.
    ///
    /// # Errors
    ///
    /// Store or bind failures, or a warm-up request that fails its oracle.
    pub fn setup(env: &Env) -> Result<ServeStream, String> {
        let store_dir = env.work.join("server-store");
        let mut stream = CellStream::new(env.seed);
        // `Store::open` writes the journal header; the pre-populated runs are
        // then appended as the record lines `rigor` itself writes.
        drop(Store::open(&store_dir).map_err(|e| e.to_string())?);
        let journal = store_dir.join(ARCHIVE_FILE);
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .map_err(|e| format!("{}: {e}", journal.display()))?;
        let mut out = std::io::BufWriter::new(&file);
        let mut runs = 0;
        for _ in 0..PRE_BATCHES {
            for record in stream.next_batch().records {
                writeln!(out, "{}", record_line(&record)).map_err(|e| e.to_string())?;
                runs += 1;
            }
        }
        out.flush().map_err(|e| e.to_string())?;
        drop(out);
        file.sync_all().map_err(|e| e.to_string())?;

        let server = ArchiveServer::bind("127.0.0.1:0", &store_dir).map_err(|e| e.to_string())?;
        let handle = server.handle();
        let serve = std::thread::spawn(move || server.serve());
        let client = RemoteStore::connect(&handle.addr().to_string()).with_seed(env.seed);
        let mut serve_stream = ServeStream {
            stream,
            handle,
            server: Some(serve),
            client,
            traced_client: None,
            seed: env.seed,
            store_dir,
            work: env.work.clone(),
            runs,
            shadow: None,
        };
        let mut log = OpLog::default();
        serve_stream.batch(&mut log, None)?;
        if log.ok != log.attempted {
            return Err(format!("warm-up batch failed: {:?}", log.failures));
        }
        Ok(serve_stream)
    }

    /// One campaign's traffic.
    fn batch(&mut self, log: &mut OpLog, tracer: Option<&Arc<Tracer>>) -> Result<(), String> {
        let t = tracer.map(|t| t.as_ref());
        if let Some(t) = tracer {
            if self.shadow.is_none() {
                self.shadow = Some(self.open_shadow(t)?);
            }
            if self.traced_client.is_none() {
                self.traced_client = Some(
                    RemoteStore::connect(&self.handle.addr().to_string())
                        .with_seed(self.seed)
                        .with_observer(Arc::new(EventCounter(Arc::clone(t)))),
                );
            }
        }
        let client = match (tracer, &self.traced_client) {
            (Some(_), Some(c)) => c,
            _ => &self.client,
        };
        let started = Instant::now();
        let batch = self.stream.next_batch();
        let replays = self.stream.pick(batch.records.len(), REPLAYS);
        let op = batch.index;

        let mut uploads = Vec::with_capacity(batch.records.len());
        for record in batch
            .records
            .iter()
            .chain(replays.iter().map(|&i| &batch.records[i]))
        {
            let span = request(
                log,
                t,
                "serve.upload",
                op,
                || client.upload(record),
                |receipt| {
                    if receipt.run_id == record.id && receipt.seq == record.seq {
                        Ok(())
                    } else {
                        Err(format!("receipt {receipt:?} for seq {}", record.seq))
                    }
                },
            );
            if uploads.len() < batch.records.len() {
                uploads.push(span);
            }
        }
        self.runs += batch.records.len() as u64;
        let runs = self.runs;
        // The run count proves every first upload appended and every
        // re-upload deduplicated.
        request(
            log,
            t,
            "serve.ping",
            op,
            || client.ping(),
            |&held| {
                if held == runs {
                    Ok(())
                } else {
                    Err(format!("server holds {held} runs, expected {runs}"))
                }
            },
        );
        request(
            log,
            t,
            "serve.history",
            op,
            || client.history(Some(batch.records.len())),
            |history| {
                let got: Vec<&str> = history.iter().map(|r| r.id.as_str()).collect();
                let want: Vec<&str> = batch.records.iter().map(|r| r.id.as_str()).collect();
                if got == want {
                    Ok(())
                } else {
                    Err("history is not the batch just uploaded".to_string())
                }
            },
        );
        let current = measurements(&batch);
        let check = JsonValue::Object(vec![
            ("confidence".into(), 0.95.to_value()),
            ("measurements".into(), current.to_value()),
            ("baseline".into(), "segment".to_value()),
        ]);
        let check_span = request(
            log,
            t,
            "serve.check",
            op,
            || client.check(&check),
            |r| {
                let regressed = names(r, "regressed");
                let checked = r.get("checked").and_then(JsonValue::as_u64);
                if regressed == Some(Vec::new()) && checked == Some(current.len() as u64) {
                    Ok(())
                } else {
                    Err(format!(
                        "check regressed {regressed:?}, checked {checked:?}"
                    ))
                }
            },
        );
        let trend = JsonValue::Object(vec![("confidence".into(), 0.95.to_value())]);
        let trend_span = request(
            log,
            t,
            "serve.trend",
            op,
            || client.trend(&trend),
            |r| {
                let alerts = names(r, "alerts");
                let changepoints = r.get("changepoints").and_then(JsonValue::as_u64);
                let want_alerts: Vec<String> = batch.shifted.iter().cloned().collect();
                if alerts.as_ref() == Some(&want_alerts)
                    && changepoints == Some(batch.shifts_so_far as u64)
                {
                    Ok(())
                } else {
                    Err(format!(
                    "trend alerts {alerts:?} / {changepoints:?} changepoints, planted {want_alerts:?} / {}",
                    batch.shifts_so_far
                ))
                }
            },
        );
        if let Some(t) = tracer {
            t.count("trace.outer_ns", started.elapsed().as_nanos() as f64);
            t.count(
                "serve.uploads",
                (batch.records.len() + replays.len()) as f64,
            );
            t.count("serve.deduped", replays.len() as f64);
            let spans = BatchSpans {
                uploads,
                check: check_span,
                trend: trend_span,
            };
            self.inner_pass(t, &batch, &spans, &current, log)?;
        }
        Ok(())
    }

    /// Copies the server's journal and opens the copy, in a span outside
    /// every request: the server opened its own store in `bind`.
    fn open_shadow(&self, tracer: &Tracer) -> Result<Store, String> {
        let dir = self.work.join("shadow-store");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        std::fs::copy(self.store_dir.join(ARCHIVE_FILE), dir.join(ARCHIVE_FILE))
            .map_err(|e| e.to_string())?;
        let store = tracer
            .outside("store.open", 0, |_| Store::open(&dir))
            .map_err(|e| e.to_string())?;
        tracer.set("store.opened_mib", journal_mib(&store.journal_path()));
        Ok(store)
    }

    /// Replays the batch on the shadow store, each replay under the request
    /// it happened in: the client's encoding, the server's parsing and its
    /// append under each record's upload, and the server's statistics
    /// under the check and trend requests.
    fn inner_pass(
        &mut self,
        tracer: &Tracer,
        batch: &CellBatch,
        spans: &BatchSpans,
        current: &[BenchmarkMeasurement],
        log: &mut OpLog,
    ) -> Result<(), String> {
        let op = batch.index;
        let shadow = self.shadow.as_mut().expect("opened before the batch");
        for (record, &upload) in batch.records.iter().zip(&spans.uploads) {
            let line = tracer.replay("record.encode", upload, op, |_| record_line(record));
            tracer.count("record.bytes", line.len() as f64);
            tracer.count("record.lines", 1.0);
            let parsed = tracer.replay("record.parse", upload, op, |_| parse_record_line(&line));
            if parsed.map(|r| r.id) != Ok(record.id.clone()) {
                log.fail(format!("record seq {} does not round-trip", record.seq));
            }
            tracer
                .replay("store.append", upload, op, |_| {
                    shadow.append_record(record.clone())
                })
                .map_err(|e| e.to_string())?;
        }
        tracer.set("store.archive_mib", journal_mib(&shadow.journal_path()));
        replay_statistics(shadow, current, tracer, op, spans)
    }
}

/// Replays what `POST /check` (segment baseline, then the gate) and
/// `POST /trend` compute on the server, under those requests' spans.
///
/// # Errors
///
/// An empty store.
fn replay_statistics(
    store: &Store,
    current: &[BenchmarkMeasurement],
    tracer: &Tracer,
    op: u64,
    spans: &BatchSpans,
) -> Result<(), String> {
    let detector = SteadyStateDetector::default();
    let config = TrendConfig::default();
    let pooled = tracer
        .replay("baseline.pool", spans.check, op, |_| {
            BaselineRef::Segment.pooled_measurements(store, &detector, &config)
        })
        .map_err(|e| e.to_string())?;
    let gate = tracer.replay("regress.check", spans.check, op, |_| {
        check_regressions(&pooled, current, &detector, &GatePolicy::default())
    });
    let names = benchmark_names(store);
    let mut trend_span = None;
    let trend = tracer.replay("trend.report", spans.trend, op, |id| {
        trend_span = Some(id);
        trend_report(store, &names, &detector, &config)
    });
    history_points(store, tracer, op, trend_span);
    tracer.count("regress.regressed", gate.regressed().len() as f64);
    tracer.count("trend.changepoints", trend.changepoint_count() as f64);
    Ok(())
}

/// The measurements of every record in the batch.
fn measurements(batch: &CellBatch) -> Vec<BenchmarkMeasurement> {
    batch
        .records
        .iter()
        .flat_map(|r| r.measurements.iter().cloned())
        .collect()
}

impl Workload for ServeStream {
    fn run(
        &mut self,
        deadline: Instant,
        log: &mut OpLog,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<(), String> {
        while Instant::now() < deadline {
            self.batch(log, tracer)?;
        }
        Ok(())
    }

    fn finish(mut self: Box<Self>) {
        self.handle.stop();
        if let Some(server) = self.server.take() {
            if let Ok(Err(e)) = server.join() {
                eprintln!("perfbench: archive server failed: {e}");
            }
        }
        remove_dir(&self.work);
    }
}

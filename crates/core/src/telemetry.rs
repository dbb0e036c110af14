//! Structured experiment telemetry: typed events emitted while an
//! experiment runs, and observers that consume them.
//!
//! The runner emits one [`ExperimentEvent`] stream per experiment:
//!
//! ```text
//! ExperimentStarted
//!   InvocationStarted   (× invocations)
//!     IterationFinished (× iterations, per successful iteration)
//!   InvocationFinished  (× invocations)
//! ExperimentFinished
//! ```
//!
//! For a fully successful experiment of `N` invocations × `M` iterations the
//! stream holds exactly `2 + 2·N + N·M` events. Fault handling adds events:
//! every retry attempt emits its own `InvocationStarted`/`InvocationFinished`
//! pair plus an `InvocationRetried` marker, budget exhaustion emits
//! `InvocationTimedOut`, checkpointing emits `CheckpointWritten` per
//! journaled invocation, and a quarantined benchmark emits one
//! `BenchmarkQuarantined` immediately before `ExperimentFinished`.
//! Invocations run in parallel,
//! so events of different invocations interleave; within one invocation the
//! order `InvocationStarted → IterationFinished… → InvocationFinished` always
//! holds, and all events of the experiment sit between `ExperimentStarted`
//! and `ExperimentFinished`.
//!
//! Campaign orchestration (see `rigor::campaign`) wraps many such streams:
//! the run-level events `CampaignStarted`, `CampaignResumed` and
//! `CellCompleted` bracket the per-cell experiment streams, all flowing to
//! the same observers.
//!
//! Observers receive events on a dedicated drain thread — never on the
//! worker threads timing iterations — so a slow observer cannot serialize
//! parallel invocations. Implementations must therefore be `Send + Sync`.

use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::json::DeError;
use serde::{Deserialize, Serialize};

use crate::measurement::IterationCounters;
use crate::report::sparkline;

/// One typed event in an experiment's telemetry stream.
///
/// Its JSON form is flat, tagged by an `"event"` field that holds
/// [`ExperimentEvent::name`]:
/// `{"event":"iteration_finished","benchmark":"sieve",...}`. An optional
/// field is omitted when `None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "event", rename_all = "snake_case")]
pub enum ExperimentEvent {
    /// The experiment began: the runner is about to launch invocations.
    ExperimentStarted {
        /// Benchmark name.
        benchmark: String,
        /// Engine name (`"interp"` / `"jit"`).
        engine: String,
        /// Planned invocation count.
        invocations: u32,
        /// Planned iterations per invocation.
        iterations: u32,
    },
    /// A fresh VM invocation began.
    InvocationStarted {
        /// Benchmark name.
        benchmark: String,
        /// Invocation index.
        invocation: u32,
        /// The derived invocation seed.
        seed: u64,
    },
    /// One timed iteration completed.
    IterationFinished {
        /// Benchmark name.
        benchmark: String,
        /// Invocation index.
        invocation: u32,
        /// Iteration index within the invocation.
        iteration: u32,
        /// The iteration's virtual time, ns.
        virtual_ns: f64,
        /// VM event deltas of this iteration.
        counters: IterationCounters,
    },
    /// A VM invocation finished (successfully or not).
    InvocationFinished {
        /// Benchmark name.
        benchmark: String,
        /// Invocation index.
        invocation: u32,
        /// Startup (compile + setup) virtual time, ns; 0 when startup failed.
        startup_ns: f64,
        /// Iterations that completed.
        iterations: u32,
        /// The error message when the invocation failed; `None` on success.
        error: Option<String>,
    },
    /// A failed invocation attempt is about to be retried with a fresh seed.
    InvocationRetried {
        /// Benchmark name.
        benchmark: String,
        /// Invocation index.
        invocation: u32,
        /// 1-based index of the retry attempt about to start.
        attempt: u32,
        /// The error that triggered the retry.
        error: String,
    },
    /// An invocation attempt exceeded its virtual-time deadline or its step
    /// (fuel) budget and was stopped by the VM.
    InvocationTimedOut {
        /// Benchmark name.
        benchmark: String,
        /// Invocation index.
        invocation: u32,
        /// 0-based attempt that timed out.
        attempt: u32,
        /// Which budget tripped: `"timeout"` or `"fuel_exhausted"`.
        kind: String,
    },
    /// The benchmark's censored-invocation rate exceeded the quarantine
    /// threshold; its statistics are untrustworthy.
    BenchmarkQuarantined {
        /// Benchmark name.
        benchmark: String,
        /// Invocations censored after exhausting retries.
        censored: u32,
        /// Total invocations requested.
        invocations: u32,
    },
    /// Completed invocation records were flushed to the checkpoint journal.
    CheckpointWritten {
        /// Benchmark name.
        benchmark: String,
        /// The invocation whose completion triggered the checkpoint.
        invocation: u32,
        /// Records in the journal after this write.
        records: u32,
    },
    /// The experiment completed; emitted exactly once, after every
    /// invocation finished.
    ExperimentFinished {
        /// Benchmark name.
        benchmark: String,
        /// Engine name.
        engine: String,
        /// How many invocations failed.
        failed_invocations: u32,
    },
    /// A completed run — every benchmark it measured — was persisted to the
    /// results archive. A *run-level* event: it belongs to no single
    /// benchmark.
    RunArchived {
        /// Archive directory.
        store: String,
        /// Content-addressed run id.
        run_id: String,
        /// The run's sequence number within the archive.
        seq: u64,
        /// How many benchmarks the archived run holds.
        benchmarks: u32,
    },
    /// The regression gate compared the current run against an archived
    /// baseline. A *run-level* event: it belongs to no single benchmark.
    RegressionChecked {
        /// Archive directory.
        store: String,
        /// The baseline reference that was resolved (`last`, `last-3`, a
        /// run-id prefix).
        baseline: String,
        /// Benchmarks checked.
        checked: u32,
        /// Benchmarks that regressed.
        regressed: u32,
        /// Whether the gate passed.
        passed: bool,
    },
    /// Trend analysis scanned the archived histories for level shifts. A
    /// *run-level* event: it spans the whole suite.
    TrendAnalyzed {
        /// Archive directory.
        store: String,
        /// Benchmarks whose histories were analyzed.
        benchmarks: u32,
        /// Archived runs in the store.
        runs: u32,
        /// Detected changepoints across the suite (significant or not).
        changepoints: u32,
        /// Benchmarks with a significant newly-detected shift at HEAD.
        alerts: u32,
    },
    /// Trend analysis found a statistically significant level shift in one
    /// benchmark's archived history.
    ChangepointDetected {
        /// Benchmark name.
        benchmark: String,
        /// Content-addressed id of the run that starts the new level.
        run_id: String,
        /// Archive sequence number of that run.
        seq: u64,
        /// Shift direction (`"slower"` / `"faster"`).
        direction: String,
        /// Magnitude point estimate, as the time ratio after/before.
        magnitude: f64,
        /// The shift's p-value after suite-wide correction.
        p_adjusted: f64,
        /// Whether the shift is newly detected at HEAD (an alert).
        at_head: bool,
    },
    /// A campaign began: the orchestrator expanded the cell grid and is
    /// about to schedule cells onto workers. A *run-level* event.
    CampaignStarted {
        /// The campaign's identity fingerprint.
        campaign: String,
        /// Cells in the grid.
        cells: u32,
        /// Worker threads executing cells.
        workers: u32,
        /// Arrival-process description (`"immediate"`, `"uniform:…"`, …).
        arrival: String,
    },
    /// A torn campaign was resumed: cells already present in the archive
    /// are skipped and only the remainder is scheduled. A *run-level* event.
    CampaignResumed {
        /// The campaign's identity fingerprint.
        campaign: String,
        /// Cells already archived by the interrupted run.
        completed: u32,
        /// Cells in the grid.
        cells: u32,
    },
    /// One campaign cell finished measuring and was streamed into the
    /// archive. A *run-level* event (the cell id names the benchmark).
    CellCompleted {
        /// Canonical cell id (`benchmark/engine/variant/seed`).
        cell: String,
        /// The cell's index in grid-expansion order.
        index: u32,
        /// The worker that executed the cell.
        worker: u32,
        /// Content-addressed id of the archived run, when archived.
        run_id: String,
        /// Cells completed so far, including this one.
        completed: u32,
        /// Cells in the grid.
        cells: u32,
    },
    /// An idle worker stole a queued cell from another worker's deque.
    /// A *run-level* event. No longer emitted: campaign workers take cells
    /// in grid order from one shared queue, so nothing is stolen. The
    /// variant stays so that `--trace` files written by earlier versions
    /// still parse.
    CellStolen {
        /// Canonical cell id of the stolen cell.
        cell: String,
        /// The cell's index in grid-expansion order.
        index: u32,
        /// The worker the cell was queued on.
        from_worker: u32,
        /// The worker that stole and will execute it.
        to_worker: u32,
    },
    /// An upload to the shared archive service failed and is being retried
    /// with backoff. A *run-level* event.
    UploadRetried {
        /// Archive label of the run being uploaded.
        label: String,
        /// 1-based retry attempt about to run.
        attempt: u32,
        /// Backoff applied before the retry, milliseconds.
        backoff_ms: u64,
        /// The transport error that triggered the retry.
        error: String,
    },
    /// The remote-store circuit breaker tripped open after consecutive
    /// transport failures; uploads now go straight to the local spool.
    /// A *run-level* event.
    CircuitOpened {
        /// Consecutive failures that tripped the breaker.
        failures: u32,
        /// The server the breaker is protecting the client from.
        url: String,
    },
    /// An upload fell back to the local write-ahead spool because the
    /// server was unreachable or the circuit was open. A *run-level* event.
    ServerDegraded {
        /// Archive label of the spooled run.
        label: String,
        /// Runs sitting in the spool after this one, awaiting replay.
        spooled: u32,
    },
    /// Spooled runs were replayed to the recovered server, in grid order,
    /// idempotently. A *run-level* event.
    SpoolReplayed {
        /// Runs replayed (deduplicated server-side as needed).
        replayed: u32,
        /// Runs still in the spool (0 unless the replay itself failed).
        remaining: u32,
        /// The server the spool drained to.
        url: String,
    },
    /// The adaptive planner computed one round's invocation allocation over
    /// the still-unmet cells. A *run-level* event.
    PlanComputed {
        /// The campaign's identity fingerprint.
        campaign: String,
        /// Re-planning round (the pilot is round 0).
        round: u32,
        /// Cells whose CI is not yet at the precision target.
        unmet: u32,
        /// Refinement tasks granted this round.
        tasks: u32,
        /// Additional invocations granted this round.
        planned: u64,
        /// Invocations committed so far across the grid.
        spent: u64,
        /// Budget left after `spent`; absent when unbounded.
        budget_remaining: Option<u64>,
    },
    /// An adaptive campaign re-measured one cell at a larger sample size.
    /// A *run-level* event (the cell id names the benchmark).
    CellRefined {
        /// Canonical cell id (`benchmark/engine/variant/seed`).
        cell: String,
        /// The cell's index in grid-expansion order.
        index: u32,
        /// Re-planning round this refinement belongs to.
        round: u32,
        /// The cell's sample size after this refinement.
        invocations: u32,
        /// Relative CI half-width achieved; absent when no CI is
        /// computable yet.
        rel_half_width: Option<f64>,
        /// Whether the cell now meets the precision target.
        target_met: bool,
    },
    /// The adaptive campaign's global invocation budget ran out with cells
    /// still short of the precision target. A *run-level* event.
    BudgetExhausted {
        /// The campaign's identity fingerprint.
        campaign: String,
        /// Round at which the budget ran dry.
        round: u32,
        /// Invocations committed across the grid.
        spent: u64,
        /// The global budget that was exhausted.
        budget: u64,
        /// Cells archived short of the target.
        unmet: u32,
    },
}

impl ExperimentEvent {
    /// The event's wire name (the `"event"` field of its JSON form).
    pub fn name(&self) -> &'static str {
        match self {
            ExperimentEvent::ExperimentStarted { .. } => "experiment_started",
            ExperimentEvent::InvocationStarted { .. } => "invocation_started",
            ExperimentEvent::IterationFinished { .. } => "iteration_finished",
            ExperimentEvent::InvocationFinished { .. } => "invocation_finished",
            ExperimentEvent::InvocationRetried { .. } => "invocation_retried",
            ExperimentEvent::InvocationTimedOut { .. } => "invocation_timed_out",
            ExperimentEvent::BenchmarkQuarantined { .. } => "benchmark_quarantined",
            ExperimentEvent::CheckpointWritten { .. } => "checkpoint_written",
            ExperimentEvent::ExperimentFinished { .. } => "experiment_finished",
            ExperimentEvent::RunArchived { .. } => "run_archived",
            ExperimentEvent::RegressionChecked { .. } => "regression_checked",
            ExperimentEvent::TrendAnalyzed { .. } => "trend_analyzed",
            ExperimentEvent::ChangepointDetected { .. } => "changepoint_detected",
            ExperimentEvent::CampaignStarted { .. } => "campaign_started",
            ExperimentEvent::CampaignResumed { .. } => "campaign_resumed",
            ExperimentEvent::CellCompleted { .. } => "cell_completed",
            ExperimentEvent::CellStolen { .. } => "cell_stolen",
            ExperimentEvent::UploadRetried { .. } => "upload_retried",
            ExperimentEvent::CircuitOpened { .. } => "circuit_opened",
            ExperimentEvent::ServerDegraded { .. } => "server_degraded",
            ExperimentEvent::SpoolReplayed { .. } => "spool_replayed",
            ExperimentEvent::PlanComputed { .. } => "plan_computed",
            ExperimentEvent::CellRefined { .. } => "cell_refined",
            ExperimentEvent::BudgetExhausted { .. } => "budget_exhausted",
        }
    }

    /// The benchmark this event belongs to — empty for run-level events
    /// ([`ExperimentEvent::RunArchived`], [`ExperimentEvent::RegressionChecked`]),
    /// which span the whole suite.
    pub fn benchmark(&self) -> &str {
        match self {
            ExperimentEvent::ExperimentStarted { benchmark, .. }
            | ExperimentEvent::InvocationStarted { benchmark, .. }
            | ExperimentEvent::IterationFinished { benchmark, .. }
            | ExperimentEvent::InvocationFinished { benchmark, .. }
            | ExperimentEvent::InvocationRetried { benchmark, .. }
            | ExperimentEvent::InvocationTimedOut { benchmark, .. }
            | ExperimentEvent::BenchmarkQuarantined { benchmark, .. }
            | ExperimentEvent::CheckpointWritten { benchmark, .. }
            | ExperimentEvent::ExperimentFinished { benchmark, .. }
            | ExperimentEvent::ChangepointDetected { benchmark, .. } => benchmark,
            ExperimentEvent::RunArchived { .. }
            | ExperimentEvent::RegressionChecked { .. }
            | ExperimentEvent::TrendAnalyzed { .. }
            | ExperimentEvent::CampaignStarted { .. }
            | ExperimentEvent::CampaignResumed { .. }
            | ExperimentEvent::CellCompleted { .. }
            | ExperimentEvent::CellStolen { .. }
            | ExperimentEvent::UploadRetried { .. }
            | ExperimentEvent::CircuitOpened { .. }
            | ExperimentEvent::ServerDegraded { .. }
            | ExperimentEvent::SpoolReplayed { .. }
            | ExperimentEvent::PlanComputed { .. }
            | ExperimentEvent::CellRefined { .. }
            | ExperimentEvent::BudgetExhausted { .. } => "",
        }
    }
}

/// Consumes experiment telemetry.
///
/// Contract: `on_event` is called from a single drain thread per experiment,
/// in stream order (see the module docs for the ordering guarantees). It
/// must not panic; a panicking observer poisons that experiment's telemetry
/// but never the measurement itself.
pub trait ExperimentObserver: Send + Sync {
    /// Handles one event.
    fn on_event(&self, event: &ExperimentEvent);
}

/// Where workers send events: a no-op without observers, so telemetry costs
/// nothing unless asked for.
pub(crate) struct EventSink(Option<Sender<ExperimentEvent>>);

impl EventSink {
    /// Queues `event` for the observers.
    pub(crate) fn send(&self, event: ExperimentEvent) {
        if let Some(tx) = &self.0 {
            // The drain outlives every sender, so a send cannot fail; the
            // measurement must proceed regardless either way.
            let _ = tx.send(event);
        }
    }
}

/// Runs `body` with an [`EventSink`] whose events a dedicated drain thread
/// fans out to `observers`, so `on_event` never runs on a timing thread, and
/// returns once the observers have seen every event. With no observers there
/// is no channel and no drain at all.
///
/// A panicking observer is caught, disabled for the rest of the `scope` (the
/// `"experiment"` or `"campaign"` its one stderr note names) and cannot kill
/// the drain, the other observers or the measurement.
pub(crate) fn with_events<T>(
    observers: &[Arc<dyn ExperimentObserver>],
    scope: &str,
    body: impl FnOnce(&EventSink) -> T,
) -> T {
    if observers.is_empty() {
        return body(&EventSink(None));
    }
    let (tx, rx) = channel::<ExperimentEvent>();
    std::thread::scope(|threads| {
        threads.spawn(move || {
            let mut disabled = vec![false; observers.len()];
            for event in rx {
                for (idx, obs) in observers.iter().enumerate() {
                    if disabled[idx] {
                        continue;
                    }
                    if catch_unwind(AssertUnwindSafe(|| obs.on_event(&event))).is_err() {
                        disabled[idx] = true;
                        eprintln!(
                            "rigor: observer #{idx} panicked on `{}`; \
                             disabling it for the rest of the {scope}",
                            event.name()
                        );
                    }
                }
            }
        });
        let events = EventSink(Some(tx));
        let out = body(&events);
        // Dropping the last sender ends the drain loop; the scope then joins
        // the drain, so the observers have seen every event by the return.
        drop(events);
        out
    })
}

/// Collects every event into memory, in arrival order. Thread-safe; the
/// backbone of telemetry tests.
#[derive(Debug, Default)]
pub struct CollectingObserver {
    events: Mutex<Vec<ExperimentEvent>>,
}

impl CollectingObserver {
    /// An empty collector.
    pub fn new() -> CollectingObserver {
        CollectingObserver::default()
    }

    /// A snapshot of all events received so far.
    pub fn events(&self) -> Vec<ExperimentEvent> {
        self.events.lock().expect("collector poisoned").clone()
    }

    /// How many events have been received.
    pub fn len(&self) -> usize {
        self.events.lock().expect("collector poisoned").len()
    }

    /// True when no event has been received.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ExperimentObserver for CollectingObserver {
    fn on_event(&self, event: &ExperimentEvent) {
        self.events
            .lock()
            .expect("collector poisoned")
            .push(event.clone());
    }
}

/// Per-experiment state of the progress display.
#[derive(Debug)]
struct ProgressState {
    started: Instant,
    benchmark: String,
    engine: String,
    total: u32,
    done: u32,
    /// Iteration times of in-flight invocations, keyed by invocation index.
    series: Vec<(u32, Vec<f64>)>,
}

/// Streams live progress to stderr: one line per finished invocation with a
/// completion count, a wall-clock ETA and a sparkline of that invocation's
/// iteration times (the warmup curve at a glance).
#[derive(Debug, Default)]
pub struct ProgressObserver {
    state: Mutex<Option<ProgressState>>,
}

impl ProgressObserver {
    /// A progress observer writing to stderr.
    pub fn new() -> ProgressObserver {
        ProgressObserver::default()
    }

    fn line(&self, text: String) {
        eprintln!("{text}");
    }
}

impl ExperimentObserver for ProgressObserver {
    fn on_event(&self, event: &ExperimentEvent) {
        let mut guard = self.state.lock().expect("progress state poisoned");
        match event {
            ExperimentEvent::ExperimentStarted {
                benchmark,
                engine,
                invocations,
                iterations,
            } => {
                *guard = Some(ProgressState {
                    started: Instant::now(),
                    benchmark: benchmark.clone(),
                    engine: engine.clone(),
                    total: *invocations,
                    done: 0,
                    series: Vec::new(),
                });
                drop(guard);
                self.line(format!(
                    "[{benchmark}/{engine}] measuring: {invocations} invocations × {iterations} iterations"
                ));
            }
            ExperimentEvent::IterationFinished {
                invocation,
                virtual_ns,
                ..
            } => {
                if let Some(state) = guard.as_mut() {
                    match state.series.iter_mut().find(|(i, _)| i == invocation) {
                        Some((_, s)) => s.push(*virtual_ns),
                        None => state.series.push((*invocation, vec![*virtual_ns])),
                    }
                }
            }
            ExperimentEvent::InvocationFinished {
                invocation, error, ..
            } => {
                let text = guard.as_mut().map(|state| {
                    state.done += 1;
                    let series = state
                        .series
                        .iter()
                        .position(|(i, _)| i == invocation)
                        .map(|idx| state.series.swap_remove(idx).1)
                        .unwrap_or_default();
                    let elapsed = state.started.elapsed().as_secs_f64();
                    let eta = if state.done > 0 && state.done < state.total {
                        let remaining =
                            elapsed / state.done as f64 * (state.total - state.done) as f64;
                        format!(", eta {remaining:.1}s")
                    } else {
                        String::new()
                    };
                    let status = match error {
                        Some(e) => format!("FAILED: {e}"),
                        None => sparkline(&series),
                    };
                    format!(
                        "[{}/{}] invocation {:>3} ({}/{}) {:.1}s{}  {}",
                        state.benchmark,
                        state.engine,
                        invocation,
                        state.done,
                        state.total,
                        elapsed,
                        eta,
                        status
                    )
                });
                drop(guard);
                if let Some(text) = text {
                    self.line(text);
                }
            }
            ExperimentEvent::ExperimentFinished {
                benchmark,
                engine,
                failed_invocations,
            } => {
                let elapsed = guard
                    .take()
                    .map(|s| s.started.elapsed().as_secs_f64())
                    .unwrap_or(0.0);
                drop(guard);
                let failures = if *failed_invocations > 0 {
                    format!(", {failed_invocations} FAILED")
                } else {
                    String::new()
                };
                self.line(format!(
                    "[{benchmark}/{engine}] done in {elapsed:.1}s{failures}"
                ));
            }
            ExperimentEvent::InvocationRetried {
                invocation,
                attempt,
                error,
                ..
            } => {
                drop(guard);
                self.line(format!(
                    "  invocation {invocation}: retry attempt {attempt} after {error}"
                ));
            }
            ExperimentEvent::BenchmarkQuarantined {
                benchmark,
                censored,
                invocations,
            } => {
                drop(guard);
                self.line(format!(
                    "[{benchmark}] QUARANTINED: {censored}/{invocations} invocations censored"
                ));
            }
            ExperimentEvent::CampaignStarted {
                cells,
                workers,
                arrival,
                ..
            } => {
                drop(guard);
                self.line(format!(
                    "[campaign] {cells} cells on {workers} workers (arrival: {arrival})"
                ));
            }
            ExperimentEvent::CampaignResumed {
                completed, cells, ..
            } => {
                drop(guard);
                self.line(format!(
                    "[campaign] resumed: {completed}/{cells} cells already archived"
                ));
            }
            ExperimentEvent::CellCompleted {
                cell,
                worker,
                completed,
                cells,
                ..
            } => {
                drop(guard);
                self.line(format!(
                    "[campaign] ({completed}/{cells}) {cell}  worker {worker}"
                ));
            }
            ExperimentEvent::UploadRetried {
                label,
                attempt,
                backoff_ms,
                ..
            } => {
                drop(guard);
                self.line(format!(
                    "[remote] {label}: upload retry {attempt} after {backoff_ms}ms backoff"
                ));
            }
            ExperimentEvent::CircuitOpened { failures, url } => {
                drop(guard);
                self.line(format!(
                    "[remote] circuit OPEN after {failures} consecutive failures ({url})"
                ));
            }
            ExperimentEvent::ServerDegraded { label, spooled } => {
                drop(guard);
                self.line(format!(
                    "[remote] {label}: server unreachable, spooled locally ({spooled} pending)"
                ));
            }
            ExperimentEvent::SpoolReplayed { replayed, url, .. } => {
                drop(guard);
                self.line(format!("[remote] spool replayed: {replayed} runs to {url}"));
            }
            ExperimentEvent::PlanComputed {
                round,
                unmet,
                tasks,
                planned,
                spent,
                budget_remaining,
                ..
            } => {
                drop(guard);
                let budget = match budget_remaining {
                    Some(b) => format!(", budget left {b}"),
                    None => String::new(),
                };
                self.line(format!(
                    "[planner] round {round}: {unmet} cells unmet, \
                     {tasks} tasks (+{planned} invocations, spent {spent}{budget})"
                ));
            }
            ExperimentEvent::BudgetExhausted {
                spent,
                budget,
                unmet,
                ..
            } => {
                drop(guard);
                self.line(format!(
                    "[planner] budget exhausted: {spent}/{budget} invocations spent, \
                     {unmet} cells short of target"
                ));
            }
            ExperimentEvent::InvocationStarted { .. }
            | ExperimentEvent::InvocationTimedOut { .. }
            | ExperimentEvent::CheckpointWritten { .. }
            | ExperimentEvent::RunArchived { .. }
            | ExperimentEvent::RegressionChecked { .. }
            | ExperimentEvent::TrendAnalyzed { .. }
            | ExperimentEvent::ChangepointDetected { .. }
            | ExperimentEvent::CellStolen { .. }
            | ExperimentEvent::CellRefined { .. } => {}
        }
    }
}

/// Streams every event as one JSON object per line (JSONL) to a writer —
/// typically a trace file consumed later by `rigor trace-summary`.
pub struct JsonlTraceObserver<W: Write + Send> {
    writer: Mutex<W>,
}

impl JsonlTraceObserver<std::io::BufWriter<std::fs::File>> {
    /// Creates (truncating) a trace file at `path`.
    ///
    /// # Errors
    ///
    /// When the file cannot be created.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlTraceObserver::new(std::io::BufWriter::new(file)))
    }
}

impl<W: Write + Send> JsonlTraceObserver<W> {
    /// Wraps an arbitrary writer.
    pub fn new(writer: W) -> Self {
        JsonlTraceObserver {
            writer: Mutex::new(writer),
        }
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// When the flush fails.
    pub fn flush(&self) -> std::io::Result<()> {
        self.writer.lock().expect("trace writer poisoned").flush()
    }
}

impl<W: Write + Send> ExperimentObserver for JsonlTraceObserver<W> {
    fn on_event(&self, event: &ExperimentEvent) {
        if let Ok(json) = serde_json::to_string(event) {
            let mut w = self.writer.lock().expect("trace writer poisoned");
            // A trace is diagnostics: losing lines on a full disk must not
            // fail the measurement, so write errors are swallowed.
            let _ = writeln!(w, "{json}");
            let _ = w.flush();
        }
    }
}

/// A parsed JSONL trace: the events, plus a warning when the trace ended in
/// a truncated line (the writer crashed mid-write).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedTrace {
    /// The parsed events of every complete line, in file order.
    pub events: Vec<ExperimentEvent>,
    /// Set when the trace ended in an unterminated line, which was dropped
    /// unparsed: the trace is usable but incomplete.
    pub warning: Option<String>,
}

/// Parses a JSONL trace back into events.
///
/// A crash mid-write leaves an unterminated final line; that is tolerated —
/// the complete lines are returned together with a warning — because a
/// trace that survived a crash is exactly the trace worth reading. A
/// complete line that is not an event is corruption, not truncation (the
/// rule of every [`crate::jsonl`] reader).
///
/// # Errors
///
/// The first complete non-blank line that is not a valid event, named by
/// its 1-based line number.
pub fn parse_trace(jsonl: &str) -> Result<ParsedTrace, serde_json::Error> {
    let (lines, torn) = crate::jsonl::journal_lines(jsonl.as_bytes());
    let mut events = Vec::with_capacity(lines.len());
    for (idx, &(offset, line)) in lines.iter().enumerate() {
        let line = &jsonl[offset..offset + line.len()];
        if line.trim().is_empty() {
            continue;
        }
        let event = serde_json::from_str(line).map_err(|e| {
            serde_json::Error::from(DeError::new(format!("trace line {}: {e}", idx + 1)))
        })?;
        events.push(event);
    }
    Ok(ParsedTrace {
        events,
        warning: torn.then(|| {
            "trace ends in a truncated line (crash mid-write?); it was dropped".to_string()
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<ExperimentEvent> {
        vec![
            ExperimentEvent::ExperimentStarted {
                benchmark: "sieve".into(),
                engine: "interp".into(),
                invocations: 1,
                iterations: 2,
            },
            ExperimentEvent::InvocationStarted {
                benchmark: "sieve".into(),
                invocation: 0,
                seed: 42,
            },
            ExperimentEvent::IterationFinished {
                benchmark: "sieve".into(),
                invocation: 0,
                iteration: 0,
                virtual_ns: 1250.5,
                counters: IterationCounters {
                    gc_cycles: 1,
                    jit_compiles: 0,
                    deopts: 0,
                },
            },
            ExperimentEvent::InvocationFinished {
                benchmark: "sieve".into(),
                invocation: 0,
                startup_ns: 10.0,
                iterations: 2,
                error: None,
            },
            ExperimentEvent::InvocationRetried {
                benchmark: "sieve".into(),
                invocation: 0,
                attempt: 1,
                error: "TimeoutError: deadline passed".into(),
            },
            ExperimentEvent::InvocationTimedOut {
                benchmark: "sieve".into(),
                invocation: 0,
                attempt: 0,
                kind: "timeout".into(),
            },
            ExperimentEvent::BenchmarkQuarantined {
                benchmark: "sieve".into(),
                censored: 3,
                invocations: 4,
            },
            ExperimentEvent::CheckpointWritten {
                benchmark: "sieve".into(),
                invocation: 0,
                records: 1,
            },
            ExperimentEvent::ExperimentFinished {
                benchmark: "sieve".into(),
                engine: "interp".into(),
                failed_invocations: 0,
            },
            ExperimentEvent::RunArchived {
                store: ".rigor-store".into(),
                run_id: "ab12cd34ef56".into(),
                seq: 3,
                benchmarks: 2,
            },
            ExperimentEvent::RegressionChecked {
                store: ".rigor-store".into(),
                baseline: "last-3".into(),
                checked: 2,
                regressed: 1,
                passed: false,
            },
            ExperimentEvent::TrendAnalyzed {
                store: ".rigor-store".into(),
                benchmarks: 2,
                runs: 9,
                changepoints: 1,
                alerts: 1,
            },
            ExperimentEvent::ChangepointDetected {
                benchmark: "sieve".into(),
                run_id: "ab12cd34ef56".into(),
                seq: 7,
                direction: "slower".into(),
                magnitude: 1.31,
                p_adjusted: 0.0004,
                at_head: true,
            },
            ExperimentEvent::CampaignStarted {
                campaign: "c0ffee12".into(),
                cells: 8,
                workers: 2,
                arrival: "poisson:1000".into(),
            },
            ExperimentEvent::CampaignResumed {
                campaign: "c0ffee12".into(),
                completed: 3,
                cells: 8,
            },
            ExperimentEvent::CellCompleted {
                cell: "sieve/interp/10x30/42".into(),
                index: 4,
                worker: 1,
                run_id: "ab12cd34ef56".into(),
                completed: 5,
                cells: 8,
            },
            ExperimentEvent::CellStolen {
                cell: "sieve/jit/10x30/42".into(),
                index: 6,
                from_worker: 0,
                to_worker: 1,
            },
            ExperimentEvent::UploadRetried {
                label: "sieve/jit/10x30/42".into(),
                attempt: 1,
                backoff_ms: 50,
                error: "connection refused".into(),
            },
            ExperimentEvent::CircuitOpened {
                failures: 3,
                url: "127.0.0.1:7878".into(),
            },
            ExperimentEvent::ServerDegraded {
                label: "sieve/jit/10x30/42".into(),
                spooled: 1,
            },
            ExperimentEvent::SpoolReplayed {
                replayed: 1,
                remaining: 0,
                url: "127.0.0.1:7878".into(),
            },
            ExperimentEvent::PlanComputed {
                campaign: "c0ffee12".into(),
                round: 1,
                unmet: 3,
                tasks: 2,
                planned: 24,
                spent: 40,
                budget_remaining: Some(160),
            },
            ExperimentEvent::CellRefined {
                cell: "sieve/interp/10x30/42".into(),
                index: 4,
                round: 1,
                invocations: 12,
                rel_half_width: Some(0.018),
                target_met: true,
            },
            ExperimentEvent::BudgetExhausted {
                campaign: "c0ffee12".into(),
                round: 3,
                spent: 200,
                budget: 200,
                unmet: 1,
            },
        ]
    }

    #[test]
    fn events_roundtrip_through_json() {
        for ev in sample_events() {
            let json = serde_json::to_string(&ev).unwrap();
            assert!(json.contains(&format!("\"event\":\"{}\"", ev.name())));
            let back: ExperimentEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn name_is_the_wire_tag() {
        for ev in sample_events() {
            let v = ev.to_value();
            assert_eq!(v.get("event").and_then(|t| t.as_str()), Some(ev.name()));
        }
    }

    #[test]
    fn error_field_is_omitted_when_none_but_roundtrips_when_set() {
        let ok = &sample_events()[3];
        assert!(!serde_json::to_string(ok).unwrap().contains("error"));
        let failed = ExperimentEvent::InvocationFinished {
            benchmark: "sieve".into(),
            invocation: 1,
            startup_ns: 0.0,
            iterations: 0,
            error: Some("boom".into()),
        };
        let json = serde_json::to_string(&failed).unwrap();
        let back: ExperimentEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, failed);
    }

    #[test]
    fn run_level_events_have_no_benchmark() {
        let events = sample_events();
        let by_name = |name: &str| {
            events
                .iter()
                .find(|e| e.name() == name)
                .unwrap_or_else(|| panic!("sample stream has {name}"))
        };
        for name in [
            "run_archived",
            "regression_checked",
            "trend_analyzed",
            "campaign_started",
            "campaign_resumed",
            "cell_completed",
            "cell_stolen",
            "upload_retried",
            "circuit_opened",
            "server_degraded",
            "spool_replayed",
            "plan_computed",
            "cell_refined",
            "budget_exhausted",
        ] {
            assert_eq!(by_name(name).benchmark(), "", "{name}");
        }
        // A detected changepoint belongs to its benchmark.
        assert_eq!(by_name("changepoint_detected").benchmark(), "sieve");
    }

    #[test]
    fn collecting_observer_keeps_order() {
        let c = CollectingObserver::new();
        assert!(c.is_empty());
        for ev in sample_events() {
            c.on_event(&ev);
        }
        assert_eq!(c.len(), sample_events().len());
        assert_eq!(c.events(), sample_events());
    }

    #[test]
    fn jsonl_observer_writes_parseable_lines() {
        let obs = JsonlTraceObserver::new(Vec::new());
        for ev in sample_events() {
            obs.on_event(&ev);
        }
        let bytes = obs.writer.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed.events, sample_events());
        assert!(parsed.warning.is_none());
    }

    #[test]
    fn parse_trace_rejects_garbage() {
        // A complete line that is not an event is corruption, not
        // truncation.
        assert!(parse_trace("{\"event\": \"nope\"}\n").is_err());
        assert!(parse_trace("not json\n").is_err());
    }

    #[test]
    fn parse_trace_tolerates_truncated_final_line() {
        let mut text = String::new();
        for ev in sample_events() {
            text.push_str(&serde_json::to_string(&ev).unwrap());
            text.push('\n');
        }
        // Simulate a crash mid-write: chop the last line in half.
        let cut = text.trim_end().len() - 10;
        let truncated = &text[..cut];
        let parsed = parse_trace(truncated).unwrap();
        assert_eq!(parsed.events.len(), sample_events().len() - 1);
        assert_eq!(parsed.events, sample_events()[..sample_events().len() - 1]);
        let warning = parsed.warning.expect("truncation must be reported");
        assert!(warning.contains("truncated"));
    }

    #[test]
    fn a_corrupt_complete_last_line_is_an_error_naming_its_line() {
        let good = serde_json::to_string(&sample_events()[0]).unwrap();
        let err = parse_trace(&format!("{good}\n{good}\n{}\n", &good[..10])).unwrap_err();
        assert!(err.to_string().contains("trace line 3"), "{err}");
    }

    #[test]
    fn an_unterminated_tail_is_dropped_and_flagged_even_when_it_parses() {
        let good = serde_json::to_string(&sample_events()[0]).unwrap();
        let parsed = parse_trace(&format!("{good}\n{good}")).unwrap();
        assert_eq!(parsed.events.len(), 1);
        assert!(parsed.warning.is_some());
        // Nothing complete at all is an empty trace, flagged, not an error.
        let parsed = parse_trace(&good).unwrap();
        assert!(parsed.events.is_empty() && parsed.warning.is_some());
    }

    #[test]
    fn parse_trace_rejects_garbage_in_the_middle() {
        let good = serde_json::to_string(&sample_events()[0]).unwrap();
        let text = format!("{good}\nnot json\n{good}\n");
        assert!(parse_trace(&text).is_err());
    }

    #[test]
    fn progress_observer_survives_a_full_stream() {
        let p = ProgressObserver::new();
        for ev in sample_events() {
            p.on_event(&ev);
        }
        // State is reset after ExperimentFinished.
        assert!(p.state.lock().unwrap().is_none());
    }
}

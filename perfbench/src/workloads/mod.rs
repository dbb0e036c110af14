//! The four closed-loop workloads. Each puts one likely-to-be-optimised
//! layer under heavy load and leaves another out entirely:
//!
//! | workload        | one operation                               | heavy layers                       |
//! |-----------------|---------------------------------------------|------------------------------------|
//! | `campaign_grid` | one campaign cell measured and archived     | session (warm), runner, orchestrator |
//! | `verify_grid`   | one `run_grid` over CI's 116-cell grid      | compiler, session (cold), verify   |
//! | `serve_stream`  | one HTTP request to an in-process server    | serve, store append, record codec  |
//! | `gate_history`  | one gate decision over a generated archive  | store open, baseline, regress, trend |

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use minipy::{CompiledProgram, Session, VmConfig};
use rigor::measurement::BenchmarkMeasurement;
use rigor::{
    check_regressions, ExperimentEvent, ExperimentObserver, GatePolicy, SteadyStateDetector,
    TrendConfig,
};
use rigor_store::{benchmark_history, benchmark_names, trend_report, BaselineRef, Store};
use rigor_workloads::verify::Manifest;

use crate::trace::Tracer;

pub mod campaign_grid;
pub mod gate_history;
pub mod serve_stream;
pub mod verify_grid;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = [
    "campaign_grid",
    "verify_grid",
    "serve_stream",
    "gate_history",
];

/// The committed golden checksum manifest, relative to the checkout root.
pub const MANIFEST_PATH: &str = "tests/fixtures/suite_checksums.json";

/// What every workload is set up with.
#[derive(Debug, Clone)]
pub struct Env {
    /// The workload seed: every generated input derives from it.
    pub seed: u64,
    /// Worker threads for the workloads that fan out: the smaller of 2 and
    /// `nproc`.
    pub workers: usize,
    /// The checkout root (read-only inputs live below it).
    pub root: PathBuf,
    /// A scratch directory this set-up owns; removed by `finish`.
    pub work: PathBuf,
}

impl Env {
    /// The golden manifest, read-only.
    ///
    /// # Errors
    ///
    /// A missing or malformed manifest.
    pub fn manifest(&self) -> Result<Manifest, String> {
        let path = self.root.join(MANIFEST_PATH);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Manifest::from_json(&text).map_err(|e| format!("bad manifest {}: {e}", path.display()))
    }
}

/// `count` VM seeds derived from the workload seed.
pub fn vm_seeds(seed: u64, count: u64) -> Vec<u64> {
    (0..count).map(|i| seed.wrapping_mul(16) + 1 + i).collect()
}

/// Per-operation results of one timed phase.
#[derive(Debug, Default, Clone)]
pub struct OpLog {
    /// Latency of every completed operation, ms.
    pub latencies_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output matched its oracle.
    pub ok: u64,
    /// The first few oracle failures, for the report.
    pub failures: Vec<String>,
}

impl OpLog {
    /// Logs one completed operation.
    pub fn op(&mut self, latency: Duration, ok: bool) {
        self.latencies_ms.push(latency.as_secs_f64() * 1e3);
        self.attempted += 1;
        self.ok += u64::from(ok);
    }

    /// Logs an operation that never completed (it has no latency).
    pub fn lost(&mut self) {
        self.attempted += 1;
    }

    /// Keeps an oracle-failure message (the first five).
    pub fn fail(&mut self, message: String) {
        if self.failures.len() < 5 {
            self.failures.push(message);
        }
    }
}

/// A set-up workload, ready to run timed phases.
pub trait Workload {
    /// Runs closed-loop operations, logging each, until the first unit of
    /// work that ends after `deadline`. With a tracer, every unit also
    /// records spans and then replays the same inputs through the inner
    /// public functions (see [`crate::trace::Kind`]), and the time of the
    /// outer operations is counted under `trace.outer_ns`.
    ///
    /// # Errors
    ///
    /// Failures that leave no operation to count (I/O on the work
    /// directory, a dead server thread).
    fn run(
        &mut self,
        deadline: Instant,
        log: &mut OpLog,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<(), String>;

    /// Stops servers and removes the work directory.
    fn finish(self: Box<Self>);
}

/// Threads a workload keeps busy at once with `workers` workers.
pub fn threads(name: &str, workers: usize) -> usize {
    match name {
        // Each cell runs with `ExperimentConfig::threads` = 1.
        "campaign_grid" | "verify_grid" => workers,
        // One client and the one connection handler it waits on; the accept
        // loop sleeps between polls.
        "serve_stream" => 2,
        _ => 1,
    }
}

/// Generates inputs, opens stores, starts servers and runs the warm-up
/// operations of workload `name`.
///
/// # Errors
///
/// An unknown workload, or a set-up or warm-up failure.
pub fn setup(name: &str, env: &Env) -> Result<Box<dyn Workload>, String> {
    std::fs::create_dir_all(&env.work)
        .map_err(|e| format!("cannot create {}: {e}", env.work.display()))?;
    Ok(match name {
        "campaign_grid" => Box::new(campaign_grid::CampaignGrid::setup(env)?),
        "verify_grid" => Box::new(verify_grid::VerifyGrid::setup(env)?),
        "serve_stream" => Box::new(serve_stream::ServeStream::setup(env)?),
        "gate_history" => Box::new(gate_history::GateHistory::setup(env)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Removes a work directory, ignoring one that is already gone.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Size of an archive journal, MiB (0 when it does not exist).
pub fn journal_mib(journal: &Path) -> f64 {
    std::fs::metadata(journal).map_or(0.0, |m| m.len() as f64 / (1024.0 * 1024.0))
}

/// Counts the events of the traced run: cell steals, invocation retries and
/// upload retries.
pub struct EventCounter(pub Arc<Tracer>);

impl ExperimentObserver for EventCounter {
    fn on_event(&self, event: &ExperimentEvent) {
        match event {
            ExperimentEvent::CellStolen { .. } => self.0.count("orchestrator.steals", 1.0),
            ExperimentEvent::InvocationRetried { .. } => self.0.count("runner.retries", 1.0),
            ExperimentEvent::UploadRetried { .. } => self.0.count("serve.retries", 1.0),
            _ => {}
        }
    }
}

/// Drives one cell through the VM's public functions the way the runner and
/// the verifier do: compile once, then for each `(seed, config)` start a
/// session and run `iterations` iterations, every call in a replay span
/// under `parent`. Returns the checksum each session's first iteration
/// rendered.
///
/// # Errors
///
/// Compile or VM errors.
pub fn vm_replay(
    tracer: &Tracer,
    parent: Option<u64>,
    op: u64,
    source: &str,
    sessions: &[(u64, VmConfig)],
    iterations: u32,
) -> Result<Vec<String>, String> {
    let program = tracer
        .replay("compiler.compile", parent, op, |_| {
            CompiledProgram::compile(source)
        })
        .map_err(|e| e.to_string())?;
    let mut checksums = Vec::with_capacity(sessions.len());
    for (seed, config) in sessions {
        let iteration = match config.engine {
            minipy::EngineKind::Interp => "session.iter_interp",
            minipy::EngineKind::Jit(_) => "session.iter_jit",
        };
        let mut session = tracer
            .replay("session.start", parent, op, |_| {
                Session::start_from(&program, *seed, config.clone())
            })
            .map_err(|e| e.to_string())?;
        for i in 0..iterations {
            let r = tracer
                .replay(iteration, parent, op, |_| session.run_iteration())
                .map_err(|e| e.to_string())?;
            let events = r.vm_deltas();
            tracer.count("session.gc_cycles", events.gc_cycles as f64);
            tracer.count("session.jit_compiles", events.jit_compiles as f64);
            tracer.count("session.deopts", events.deopts as f64);
            if i == 0 {
                checksums.push(session.render(r.value));
            }
        }
    }
    Ok(checksums)
}

/// Runs `f`, inside a [`crate::trace::Kind::Call`] span when traced.
pub fn traced<R>(tracer: Option<&Tracer>, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, None, op, |_| f()),
        None => f(),
    }
}

/// What one gate decision found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Benchmarks the gate reported regressed, sorted.
    pub regressed: Vec<String>,
    /// Benchmarks the trend analysis alerted on, sorted.
    pub alerts: Vec<String>,
    /// Changepoints the trend analysis found.
    pub changepoints: usize,
}

/// Builds every benchmark's history points on their own, in one replay span
/// under `parent`: the `trend.report` span, because `trend_report` builds
/// the same points before it analyses them.
pub fn history_points(store: &Store, tracer: &Tracer, op: u64, parent: Option<u64>) {
    let detector = SteadyStateDetector::default();
    tracer.replay("history.points", parent, op, |_| {
        for name in benchmark_names(store) {
            std::hint::black_box(benchmark_history(store, &name, &detector));
        }
    });
}

/// The decision `rigor check --baseline segment` and `rigor trend` make over
/// `store`, without measuring: the segment baseline, the gate of `current`
/// against it, and the trend report over every benchmark, each call in its
/// own span when traced.
///
/// # Errors
///
/// An empty store.
pub fn gate_decision(
    store: &Store,
    current: &[BenchmarkMeasurement],
    tracer: Option<&Tracer>,
    op: u64,
) -> Result<Decision, String> {
    let detector = SteadyStateDetector::default();
    let config = TrendConfig::default();
    let pooled = traced(tracer, "baseline.pool", op, || {
        BaselineRef::Segment.pooled_measurements(store, &detector, &config)
    })
    .map_err(|e| e.to_string())?;
    let gate = traced(tracer, "regress.check", op, || {
        check_regressions(&pooled, current, &detector, &GatePolicy::default())
    });
    let names = benchmark_names(store);
    let trend = traced(tracer, "trend.report", op, || {
        trend_report(store, &names, &detector, &config)
    });
    let mut regressed: Vec<String> = gate
        .regressed()
        .iter()
        .map(|g| g.benchmark.clone())
        .collect();
    regressed.sort();
    regressed.dedup();
    let mut alerts: Vec<String> = trend.alerts().iter().map(|b| b.benchmark.clone()).collect();
    alerts.sort();
    let changepoints = trend.changepoint_count();
    if let Some(t) = tracer {
        t.count("regress.regressed", regressed.len() as f64);
        t.count("trend.changepoints", changepoints as f64);
    }
    Ok(Decision {
        regressed,
        alerts,
        changepoints,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gate_input, CellStream};
    use rigor_store::record_line;

    fn scratch(name: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn planted_gate_verdicts_hold_for_many_seeds() {
        let dir = scratch("gate-verdicts");
        for seed in 0..24 {
            remove_dir(&dir);
            let input = gate_input(seed, 12);
            let mut store = Store::open(&dir).unwrap();
            for run in &input.runs {
                store.append_record(run.clone()).unwrap();
            }
            let decision = gate_decision(&store, &input.current, None, 0).unwrap();
            assert_eq!(decision.regressed, input.regressed, "seed {seed}");
            assert_eq!(decision.alerts, input.alerts, "seed {seed}");
            assert_eq!(decision.changepoints, input.changepoints, "seed {seed}");
        }
        remove_dir(&dir);
    }

    #[test]
    fn planted_stream_verdicts_hold_for_many_seeds() {
        let dir = scratch("stream-verdicts");
        for seed in 0..12 {
            remove_dir(&dir);
            let mut stream = CellStream::new(seed);
            drop(Store::open(&dir).unwrap());
            let mut journal = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join(rigor_store::ARCHIVE_FILE))
                .unwrap();
            for _ in 0..20 {
                for record in stream.next_batch().records {
                    writeln_line(&mut journal, &record_line(&record));
                }
            }
            let mut store = Store::open(&dir).unwrap();
            for _ in 0..4 {
                let batch = stream.next_batch();
                let current: Vec<BenchmarkMeasurement> = batch
                    .records
                    .iter()
                    .flat_map(|r| r.measurements.clone())
                    .collect();
                for record in &batch.records {
                    store.append_record(record.clone()).unwrap();
                }
                let decision = gate_decision(&store, &current, None, 0).unwrap();
                let shifted: Vec<String> = batch.shifted.iter().cloned().collect();
                assert!(decision.regressed.is_empty(), "seed {seed}: {decision:?}");
                assert_eq!(decision.alerts, shifted, "seed {seed}");
                assert_eq!(decision.changepoints, batch.shifts_so_far, "seed {seed}");
            }
        }
        remove_dir(&dir);
    }

    fn writeln_line(file: &mut std::fs::File, line: &str) {
        use std::io::Write as _;
        writeln!(file, "{line}").unwrap();
    }
}

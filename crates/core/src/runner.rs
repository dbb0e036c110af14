//! The experiment runner: drives VM invocations, collects measurements and
//! emits structured telemetry.
//!
//! [`Runner`] is the primary API:
//!
//! ```rust
//! use std::sync::Arc;
//! use rigor::{CollectingObserver, ExperimentConfig, Runner};
//! use rigor_workloads::{find, Size};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sieve = find("sieve").expect("in the suite");
//! let observer = Arc::new(CollectingObserver::new());
//! let m = Runner::new(ExperimentConfig::interp().with_invocations(2).with_iterations(3))?
//!     .observer(observer.clone())
//!     .measure(&sieve)?;
//! assert_eq!(m.n_invocations(), 2);
//! assert_eq!(observer.len(), 2 + 2 * 2 + 2 * 3);
//! # Ok(())
//! # }
//! ```
//!
//! `Runner::measure` is the cell-execution primitive of the campaign
//! orchestrator (`rigor::campaign`): it makes no top-of-stack assumptions,
//! so any number of runners can execute concurrently on library threads.
//!
//! # Fault tolerance
//!
//! Invocations that fail at runtime (panic, budget exhaustion, VM error)
//! are retried up to `max_retries` times with fresh derived seeds; an
//! invocation whose every attempt fails is *censored* — recorded in
//! [`BenchmarkMeasurement::censored`] with its error taxonomy — instead of
//! aborting the experiment. Only compile-class errors (the workload source
//! itself is broken, so no retry can help) still fail the whole
//! measurement. When the censored fraction exceeds
//! `quarantine_threshold`, the measurement is flagged quarantined.
//! Completed invocations can be streamed to a checkpoint journal
//! ([`Runner::journal`]) and replayed with [`Runner::resume`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex};

use minipy::{invocation_seed, CompiledProgram, MpError, MpResult, RuntimeErrorKind, Session};
use rigor_workloads::Workload;

use crate::checkpoint::{Journal, JournalMeta, JournalWriter};
use crate::config::{ConfigError, ExperimentConfig};
use crate::fault::FaultPlan;
use crate::measurement::{BenchmarkMeasurement, CensoredInvocation, FailureKind, InvocationRecord};
use crate::pool;
use crate::telemetry::{with_events, EventSink, ExperimentEvent, ExperimentObserver};

/// The seed for one attempt of one invocation. Attempt 0 is the canonical
/// per-invocation seed (identical to pre-retry behavior, so existing
/// experiments replay bit-for-bit); retries fold the attempt number into
/// the derivation so every attempt samples fresh nondeterminism.
fn attempt_seed(experiment_seed: u64, benchmark: &str, invocation: u32, attempt: u32) -> u64 {
    if attempt == 0 {
        invocation_seed(experiment_seed, benchmark, invocation)
    } else {
        invocation_seed(
            experiment_seed,
            &format!("{benchmark}#retry{attempt}"),
            invocation,
        )
    }
}

/// Runs one invocation attempt: fresh session from the frozen program,
/// setup, `iterations` timed runs; `fault` injects a panic first.
fn run_invocation(
    program: &CompiledProgram,
    benchmark: &str,
    invocation: u32,
    attempt: u32,
    config: &ExperimentConfig,
    sink: &EventSink,
    fault: bool,
) -> MpResult<InvocationRecord> {
    let seed = attempt_seed(config.experiment_seed, benchmark, invocation, attempt);
    sink.send(ExperimentEvent::InvocationStarted {
        benchmark: benchmark.to_string(),
        invocation,
        seed,
    });
    if fault {
        panic!("injected fault: panic (invocation {invocation}, attempt {attempt})");
    }
    let mut session = Session::start_from(program, seed, config.vm_config())?;
    let startup_ns = session.startup_ns();
    let before = session.vm().counters();
    let mut iteration_ns = Vec::with_capacity(config.iterations as usize);
    let mut iteration_counters = Vec::with_capacity(config.iterations as usize);
    let mut checksum = String::new();
    for i in 0..config.iterations {
        let r = session.run_iteration()?;
        let counters = r.vm_deltas().into();
        iteration_ns.push(r.virtual_ns);
        iteration_counters.push(counters);
        if i == 0 {
            checksum = session.render(r.value);
        }
        sink.send(ExperimentEvent::IterationFinished {
            benchmark: benchmark.to_string(),
            invocation,
            iteration: i,
            virtual_ns: r.virtual_ns,
            counters,
        });
    }
    let delta = session.vm().counters().delta_since(&before);
    Ok(InvocationRecord {
        invocation,
        seed,
        startup_ns,
        iteration_ns,
        gc_cycles: delta.gc_cycles,
        jit_compiles: delta.jit_compiles,
        deopts: delta.deopts,
        checksum,
        iteration_counters: Some(iteration_counters),
        attempts: attempt + 1,
    })
}

/// Runs `run_invocation`, converting a panic in the VM into a classified
/// internal error so one broken invocation cannot abort the whole process.
#[allow(clippy::too_many_arguments)]
fn run_invocation_guarded(
    program: &CompiledProgram,
    benchmark: &str,
    invocation: u32,
    attempt: u32,
    config: &ExperimentConfig,
    sink: &EventSink,
    fault: bool,
) -> MpResult<InvocationRecord> {
    catch_unwind(AssertUnwindSafe(|| {
        run_invocation(program, benchmark, invocation, attempt, config, sink, fault)
    }))
    .unwrap_or_else(|payload| {
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            s.to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "unknown panic payload".to_string()
        };
        Err(MpError::runtime(
            RuntimeErrorKind::Internal,
            format!("invocation {invocation} panicked: {msg}"),
        ))
    })
}

/// Outcome of one invocation slot after retries.
enum Outcome {
    /// A measurement was produced (possibly after retries).
    Measured(InvocationRecord),
    /// Every attempt failed at runtime; the slot is censored.
    Censored(CensoredInvocation),
    /// A compile-class error: retrying cannot help, the experiment fails.
    Fatal(MpError),
}

/// Drives one invocation through the retry loop.
fn run_with_retries(
    program: &CompiledProgram,
    benchmark: &str,
    invocation: u32,
    config: &ExperimentConfig,
    sink: &EventSink,
    faults: Option<&FaultPlan>,
) -> Outcome {
    let attempts_allowed = config.max_retries.saturating_add(1);
    let mut attempt = 0;
    loop {
        let fault = faults.is_some_and(|p| p.panics(benchmark, invocation, attempt));
        let result =
            run_invocation_guarded(program, benchmark, invocation, attempt, config, sink, fault);
        sink.send(ExperimentEvent::InvocationFinished {
            benchmark: benchmark.to_string(),
            invocation,
            startup_ns: result.as_ref().map(|r| r.startup_ns).unwrap_or(0.0),
            iterations: result
                .as_ref()
                .map(|r| r.iteration_ns.len() as u32)
                .unwrap_or(0),
            error: result.as_ref().err().map(|e| e.to_string()),
        });
        let err = match result {
            Ok(record) => return Outcome::Measured(record),
            Err(e) => e,
        };
        if err.runtime_kind().is_none() {
            // Lex/parse/compile errors: the source is broken for every
            // invocation; fail fast instead of retrying noise.
            return Outcome::Fatal(err);
        }
        let kind = FailureKind::classify(&err);
        if kind.is_budget_exhaustion() {
            sink.send(ExperimentEvent::InvocationTimedOut {
                benchmark: benchmark.to_string(),
                invocation,
                attempt,
                kind: kind.name().to_string(),
            });
        }
        attempt += 1;
        if attempt < attempts_allowed {
            sink.send(ExperimentEvent::InvocationRetried {
                benchmark: benchmark.to_string(),
                invocation,
                attempt,
                error: err.to_string(),
            });
        } else {
            return Outcome::Censored(CensoredInvocation {
                invocation,
                attempts: attempt,
                failure: kind,
                error: err.to_string(),
            });
        }
    }
}

/// Drives one experiment: `config.invocations` fresh sessions in parallel,
/// each timed for `config.iterations` iterations, with telemetry delivered
/// to any number of attached [`ExperimentObserver`]s.
///
/// Observers receive events via a channel drained on a dedicated thread, so
/// a slow observer never serializes the parallel invocations. A panicking
/// observer is caught, disabled for the rest of the experiment, and
/// reported once to stderr — it cannot kill the drain or the measurement.
pub struct Runner {
    config: ExperimentConfig,
    observers: Vec<Arc<dyn ExperimentObserver>>,
    fault_plan: Option<FaultPlan>,
    journal_path: Option<PathBuf>,
    resume_from: Option<Journal>,
}

// Manual: observers are opaque trait objects.
impl std::fmt::Debug for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("config", &self.config)
            .field("observers", &self.observers.len())
            .field("journal_path", &self.journal_path)
            .finish_non_exhaustive()
    }
}

impl Runner {
    /// A runner with no observers.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when the config violates a structural invariant
    /// (zero invocations/iterations/threads, confidence outside (0, 1),
    /// quarantine threshold outside [0, 1]) — caught here, before any VM
    /// runs.
    pub fn new(config: ExperimentConfig) -> Result<Runner, ConfigError> {
        config.validate()?;
        Ok(Runner {
            config,
            observers: Vec::new(),
            fault_plan: None,
            journal_path: None,
            resume_from: None,
        })
    }

    /// Attaches an observer (builder style); call repeatedly to fan out.
    pub fn observer(mut self, observer: Arc<dyn ExperimentObserver>) -> Runner {
        self.observers.push(observer);
        self
    }

    /// Injects faults from a deterministic plan (builder style) — used by
    /// tests and the CLI `self-test` to exercise the fault-tolerance paths.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Runner {
        self.fault_plan = Some(plan);
        self
    }

    /// Streams completed invocations to a checkpoint journal at `path`
    /// (builder style). The file is created fresh; when combined with
    /// [`Runner::resume`], replayed outcomes are re-journaled too, so the
    /// file always ends up complete.
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Runner {
        self.journal_path = Some(path.into());
        self
    }

    /// Replays a loaded checkpoint journal (builder style): journaled
    /// invocations are taken as-is and only the missing ones run.
    pub fn resume(mut self, journal: Journal) -> Runner {
        self.resume_from = Some(journal);
        self
    }

    /// The runner's configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Measures a suite workload at the configured size preset.
    ///
    /// # Errors
    ///
    /// As [`Runner::measure_source`].
    pub fn measure(&self, workload: &Workload) -> MpResult<BenchmarkMeasurement> {
        self.measure_source(&workload.source(self.config.size), workload.name)
    }

    /// Measures a workload source: `invocations` fresh sessions (in
    /// parallel — they model independent OS processes), each timed for
    /// `iterations` iterations.
    ///
    /// # Errors
    ///
    /// Compile-class errors in the source (fail fast — no retry can fix a
    /// parse error), a resume journal that does not match this experiment,
    /// or a journal file that cannot be created. Runtime failures —
    /// panics, budget exhaustion, VM errors — do **not** error: they are
    /// retried and ultimately censored into the returned measurement.
    pub fn measure_source(&self, source: &str, benchmark: &str) -> MpResult<BenchmarkMeasurement> {
        let config = &self.config;
        let n = config.invocations as usize;

        // Parse once, evaluate many: the workload is compiled a single time
        // and every invocation (and retry) instantiates a cheap VM over the
        // frozen program. Compile-class errors surface here — fail fast, a
        // retry cannot fix a parse error.
        let program = CompiledProgram::compile(source)?;

        let mut slots: Vec<Option<Outcome>> = (0..n).map(|_| None).collect();
        if let Some(journal) = &self.resume_from {
            journal
                .check_matches(config, benchmark)
                .map_err(|msg| MpError::runtime(RuntimeErrorKind::Value, msg))?;
            for (&inv, record) in &journal.records {
                if (inv as usize) < n {
                    slots[inv as usize] = Some(Outcome::Measured(record.clone()));
                }
            }
            for (&inv, censored) in &journal.censored {
                if (inv as usize) < n {
                    slots[inv as usize] = Some(Outcome::Censored(censored.clone()));
                }
            }
        }

        let writer = match &self.journal_path {
            Some(path) => Some(Mutex::new(open_journal(path, config, benchmark)?)),
            None => None,
        };

        let quarantined = with_events(&self.observers, "experiment", |sink| {
            sink.send(ExperimentEvent::ExperimentStarted {
                benchmark: benchmark.to_string(),
                engine: config.engine.name().to_string(),
                invocations: config.invocations,
                iterations: config.iterations,
            });

            // Re-journal replayed outcomes first so a journaled resume ends
            // with a complete, self-contained file.
            if let Some(writer) = &writer {
                for (i, slot) in slots.iter().enumerate() {
                    if let Some(outcome) = slot {
                        journal_outcome(writer, outcome, benchmark, i as u32, sink);
                    }
                }
            }

            let pending: Vec<u32> = (0..config.invocations)
                .filter(|&i| slots[i as usize].is_none())
                .collect();
            let faults = self.fault_plan.as_ref();
            let outcomes = pool::run(
                &pending,
                config.threads,
                &AtomicUsize::new(usize::MAX),
                |_, &i| {
                    let outcome = run_with_retries(&program, benchmark, i, config, sink, faults);
                    if let Some(writer) = &writer {
                        journal_outcome(writer, &outcome, benchmark, i, sink);
                    }
                    outcome
                },
            );
            for (i, outcome) in pending.into_iter().zip(outcomes) {
                slots[i as usize] = outcome;
            }

            let failed = slots
                .iter()
                .filter(|s| matches!(s, Some(Outcome::Censored(_)) | Some(Outcome::Fatal(_))))
                .count() as u32;
            let censored = slots
                .iter()
                .filter(|s| matches!(s, Some(Outcome::Censored(_))))
                .count() as u32;
            let quarantined = n > 0 && f64::from(censored) / n as f64 > config.quarantine_threshold;
            if quarantined {
                sink.send(ExperimentEvent::BenchmarkQuarantined {
                    benchmark: benchmark.to_string(),
                    censored,
                    invocations: config.invocations,
                });
            }
            sink.send(ExperimentEvent::ExperimentFinished {
                benchmark: benchmark.to_string(),
                engine: config.engine.name().to_string(),
                failed_invocations: failed,
            });
            quarantined
        });

        let mut invocations = Vec::new();
        let mut censored = Vec::new();
        for slot in slots {
            match slot.expect("an unlimited budget runs every invocation") {
                Outcome::Measured(record) => invocations.push(record),
                Outcome::Censored(c) => censored.push(c),
                Outcome::Fatal(e) => return Err(e),
            }
        }
        Ok(BenchmarkMeasurement {
            benchmark: benchmark.to_string(),
            engine: config.engine.name().to_string(),
            invocations,
            censored,
            quarantined,
        })
    }
}

/// Creates the checkpoint journal writer, mapping I/O errors into the
/// crate's error type.
fn open_journal(
    path: &Path,
    config: &ExperimentConfig,
    benchmark: &str,
) -> MpResult<JournalWriter> {
    let meta = JournalMeta::for_experiment(config, benchmark);
    JournalWriter::create(path, &meta).map_err(|e| {
        MpError::runtime(
            RuntimeErrorKind::Value,
            format!("cannot create checkpoint journal {}: {e}", path.display()),
        )
    })
}

/// Journals one finished outcome; write failures are reported, not fatal —
/// losing a checkpoint must not lose the measurement.
fn journal_outcome(
    writer: &Mutex<JournalWriter>,
    outcome: &Outcome,
    benchmark: &str,
    invocation: u32,
    sink: &EventSink,
) {
    let mut writer = writer.lock().expect("journal writer poisoned");
    let written = match outcome {
        Outcome::Measured(record) => writer.append_record(record),
        Outcome::Censored(c) => writer.append_censored(c),
        Outcome::Fatal(_) => return,
    };
    match written {
        Ok(records) => sink.send(ExperimentEvent::CheckpointWritten {
            benchmark: benchmark.to_string(),
            invocation,
            records,
        }),
        Err(e) => eprintln!("rigor: checkpoint write failed (invocation {invocation}): {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::CollectingObserver;
    use minipy::EngineKind;
    use rigor_workloads::{find, Size};

    const DIVERGENT_SRC: &str = "def run():\n    while True:\n        pass\n";

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig::interp()
            .with_invocations(4)
            .with_iterations(5)
            .with_size(Size::Small)
            .with_seed(7)
    }

    /// A runner over a config the test knows is valid.
    fn runner(cfg: ExperimentConfig) -> Runner {
        Runner::new(cfg).expect("valid config")
    }

    fn measure(w: &rigor_workloads::Workload, cfg: &ExperimentConfig) -> BenchmarkMeasurement {
        runner(cfg.clone()).measure(w).expect("measure")
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let err = Runner::new(quick_config().with_invocations(0)).unwrap_err();
        assert_eq!(err, ConfigError::ZeroInvocations);
        assert!(Runner::new(quick_config().with_confidence(1.5)).is_err());
        assert!(Runner::new(quick_config().with_quarantine_threshold(-0.5)).is_err());
    }

    #[test]
    fn measurement_has_requested_shape() {
        let w = find("sieve").unwrap();
        let m = measure(&w, &quick_config());
        assert_eq!(m.n_invocations(), 4);
        assert_eq!(m.n_iterations(), 5);
        assert_eq!(m.benchmark, "sieve");
        assert_eq!(m.engine, "interp");
        assert!(m.invocations.iter().all(|r| r.startup_ns > 0.0));
        assert!(m.invocations.iter().all(|r| r.attempts == 1));
        assert!(m.checksums_consistent());
        assert!(m.censored.is_empty());
        assert!(!m.quarantined);
    }

    #[test]
    fn measurement_is_reproducible() {
        let w = find("str_keys").unwrap();
        let a = measure(&w, &quick_config());
        let b = measure(&w, &quick_config());
        for (ra, rb) in a.invocations.iter().zip(&b.invocations) {
            assert_eq!(ra.iteration_ns, rb.iteration_ns);
            assert_eq!(ra.seed, rb.seed);
        }
    }

    #[test]
    fn different_master_seed_changes_times() {
        let w = find("str_keys").unwrap();
        let a = measure(&w, &quick_config());
        let b = measure(&w, &quick_config().with_seed(8));
        assert_ne!(a.invocations[0].iteration_ns, b.invocations[0].iteration_ns);
    }

    #[test]
    fn parallel_matches_serial() {
        let w = find("leibniz").unwrap();
        let serial = measure(&w, &quick_config().with_threads(1));
        let parallel = measure(&w, &quick_config().with_threads(4));
        for (rs, rp) in serial.invocations.iter().zip(&parallel.invocations) {
            assert_eq!(rs.iteration_ns, rp.iteration_ns);
        }
    }

    #[test]
    fn jit_engine_records_compiles() {
        let w = find("leibniz").unwrap();
        let cfg = quick_config()
            .with_iterations(15)
            .with_engine(EngineKind::Jit(minipy::JitConfig::default()));
        let m = measure(&w, &cfg);
        assert_eq!(m.engine, "jit");
        assert!(
            m.invocations.iter().any(|r| r.jit_compiles > 0),
            "hot loop should have compiled"
        );
    }

    #[test]
    fn bad_source_propagates_error() {
        // Compile-class errors fail fast: no retry can fix a parse error.
        let cfg = quick_config();
        assert!(runner(cfg.clone())
            .measure_source("def broken(:\n", "broken")
            .is_err());
    }

    #[test]
    fn retry_seeds_differ_per_attempt() {
        let s0 = attempt_seed(7, "sieve", 3, 0);
        let s1 = attempt_seed(7, "sieve", 3, 1);
        let s2 = attempt_seed(7, "sieve", 3, 2);
        assert_eq!(s0, invocation_seed(7, "sieve", 3), "attempt 0 is canonical");
        assert_ne!(s0, s1);
        assert_ne!(s1, s2);
    }

    #[test]
    fn records_carry_per_iteration_counters() {
        let w = find("leibniz").unwrap();
        let cfg = quick_config()
            .with_iterations(15)
            .with_engine(EngineKind::Jit(minipy::JitConfig::default()));
        let m = measure(&w, &cfg);
        for r in &m.invocations {
            let counters = r.iteration_counters.as_ref().expect("runner records them");
            assert_eq!(counters.len(), r.iteration_ns.len());
            // Per-iteration counters sum to the invocation totals.
            assert_eq!(
                counters.iter().map(|c| c.jit_compiles).sum::<u64>(),
                r.jit_compiles
            );
            assert_eq!(
                counters.iter().map(|c| c.gc_cycles).sum::<u64>(),
                r.gc_cycles
            );
        }
    }

    #[test]
    fn observers_see_a_complete_stream() {
        let w = find("sieve").unwrap();
        let obs = Arc::new(CollectingObserver::new());
        let m = runner(quick_config())
            .observer(obs.clone())
            .measure(&w)
            .unwrap();
        assert_eq!(m.n_invocations(), 4);
        // 2 + 2N + N*M for a fully successful experiment.
        assert_eq!(obs.len(), 2 + 2 * 4 + 4 * 5);
    }

    #[test]
    fn runtime_failures_are_retried_then_censored() {
        let obs = Arc::new(CollectingObserver::new());
        let runner = runner(quick_config()).observer(obs.clone());
        // Runtime NameError during module setup: retried, then censored.
        let m = runner.measure_source("x = undefined\n", "broken").unwrap();
        assert!(m.invocations.is_empty());
        assert_eq!(m.censored.len(), 4);
        assert!(m.quarantined, "4/4 censored is past any sane threshold");
        for c in &m.censored {
            assert_eq!(c.attempts, 2, "default max_retries=1 means 2 attempts");
            assert_eq!(c.failure, FailureKind::VmError);
            assert!(c.error.contains("NameError"));
        }

        let events = obs.events();
        let finishes = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    ExperimentEvent::InvocationFinished { error: Some(_), .. }
                )
            })
            .count();
        assert_eq!(finishes, 8, "4 invocations × 2 attempts, all failed");
        let retries = events
            .iter()
            .filter(|e| matches!(e, ExperimentEvent::InvocationRetried { .. }))
            .count();
        assert_eq!(retries, 4);
        assert!(events
            .iter()
            .any(|e| matches!(e, ExperimentEvent::BenchmarkQuarantined { censored: 4, .. })));
        match events.last().unwrap() {
            ExperimentEvent::ExperimentFinished {
                failed_invocations, ..
            } => assert_eq!(*failed_invocations, 4),
            other => panic!("stream must end with ExperimentFinished, got {other:?}"),
        }
    }

    #[test]
    fn divergent_workload_is_censored_not_hung() {
        let obs = Arc::new(CollectingObserver::new());
        let cfg = quick_config()
            .with_invocations(2)
            .with_deadline_ns(5.0e7)
            .with_max_retries(1);
        let m = runner(cfg)
            .observer(obs.clone())
            .measure_source(DIVERGENT_SRC, "divergent")
            .unwrap();
        assert!(m.invocations.is_empty());
        assert_eq!(m.censored.len(), 2);
        assert!(m.quarantined);
        for c in &m.censored {
            assert_eq!(c.failure, FailureKind::Timeout);
            assert_eq!(c.attempts, 2);
        }
        let timeouts = obs
            .events()
            .iter()
            .filter(|e| matches!(e, ExperimentEvent::InvocationTimedOut { .. }))
            .count();
        assert_eq!(timeouts, 4, "each of the 2×2 attempts trips the deadline");
    }

    #[test]
    fn fuel_budget_censors_with_fuel_taxonomy() {
        let cfg = quick_config()
            .with_invocations(1)
            .with_step_budget(50_000)
            .with_max_retries(0);
        let m = runner(cfg.clone())
            .measure_source(DIVERGENT_SRC, "divergent")
            .unwrap();
        assert_eq!(m.censored.len(), 1);
        assert_eq!(m.censored[0].failure, FailureKind::FuelExhausted);
        assert_eq!(m.censored[0].attempts, 1);
    }

    #[test]
    fn quarantine_threshold_is_respected() {
        // All invocations censored, but threshold 1.0 never quarantines.
        let cfg = quick_config()
            .with_invocations(2)
            .with_deadline_ns(5.0e7)
            .with_quarantine_threshold(1.0);
        let m = runner(cfg.clone())
            .measure_source(DIVERGENT_SRC, "divergent")
            .unwrap();
        assert_eq!(m.censored.len(), 2);
        assert!(!m.quarantined);
    }

    #[test]
    fn injected_panics_are_retried_and_censored() {
        let cfg = quick_config().with_max_retries(0);
        let w = find("sieve").unwrap();
        let m = runner(cfg)
            .fault_plan(FaultPlan::new(11).with_panic_rate(1.0))
            .measure(&w)
            .unwrap();
        assert!(m.invocations.is_empty());
        assert_eq!(m.censored.len(), 4);
        assert!(m.censored.iter().all(|c| c.failure == FailureKind::Panic));
    }

    #[test]
    fn retries_recover_from_transient_injected_faults() {
        // With a 50% panic rate and plenty of retries, every invocation
        // should eventually land a clean attempt (the plan's decisions are
        // independent across attempts).
        let cfg = quick_config().with_invocations(8).with_max_retries(6);
        let w = find("sieve").unwrap();
        let m = runner(cfg)
            .fault_plan(FaultPlan::new(13).with_panic_rate(0.5))
            .measure(&w)
            .unwrap();
        assert_eq!(m.n_invocations() + m.censored.len(), 8);
        assert!(
            m.invocations.iter().any(|r| r.attempts > 1),
            "a 50% fault rate over 8 invocations should force some retries"
        );
        // First-try successes must be bit-identical to an injection-free run.
        let clean = measure(&w, &quick_config().with_invocations(8));
        for r in m.invocations.iter().filter(|r| r.attempts == 1) {
            let reference = &clean.invocations[r.invocation as usize];
            assert_eq!(r.iteration_ns, reference.iteration_ns);
        }
    }

    #[test]
    fn panicking_observer_is_isolated_and_stream_survives() {
        struct Grenade;
        impl ExperimentObserver for Grenade {
            fn on_event(&self, _event: &ExperimentEvent) {
                panic!("observer bug");
            }
        }
        let collector = Arc::new(CollectingObserver::new());
        let w = find("sieve").unwrap();
        let m = runner(quick_config())
            .observer(Arc::new(Grenade))
            .observer(collector.clone())
            .measure(&w)
            .unwrap();
        assert_eq!(m.n_invocations(), 4, "measurement must survive the panic");
        // The healthy observer still saw the complete stream.
        assert_eq!(collector.len(), 2 + 2 * 4 + 4 * 5);
    }

    #[test]
    fn journal_replays_skip_completed_invocations() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rigor-runner-journal-{}.jsonl", std::process::id()));
        let w = find("sieve").unwrap();
        let cfg = quick_config();
        let full = runner(cfg.clone()).journal(&path).measure(&w).unwrap();

        // Truncate the journal to 2 completed invocations (meta + 2 lines),
        // as if the process died mid-experiment.
        let text = std::fs::read_to_string(&path).unwrap();
        let prefix: Vec<&str> = text.lines().take(3).collect();
        std::fs::write(&path, format!("{}\n", prefix.join("\n"))).unwrap();

        let journal = Journal::load(&path).unwrap();
        assert_eq!(journal.completed(), 2);
        let resumed = runner(cfg).resume(journal).measure(&w).unwrap();
        assert_eq!(resumed.n_invocations(), 4);
        for (a, b) in full.invocations.iter().zip(&resumed.invocations) {
            assert_eq!(a.iteration_ns, b.iteration_ns);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.checksum, b.checksum);
        }
        // Byte-identical exports: the resume acceptance criterion.
        assert_eq!(
            crate::export::to_json(&[full]).unwrap(),
            crate::export::to_json(&[resumed]).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_journal_is_rejected() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "rigor-runner-mismatch-{}.jsonl",
            std::process::id()
        ));
        let w = find("sieve").unwrap();
        runner(quick_config()).journal(&path).measure(&w).unwrap();
        let journal = Journal::load(&path).unwrap();
        // Different seed → the journaled records are not replayable.
        let r = runner(quick_config().with_seed(999))
            .resume(journal)
            .measure(&w);
        assert!(r.is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_journal_of_another_size_is_rejected() {
        let path = std::env::temp_dir().join(format!(
            "rigor-runner-other-size-{}.jsonl",
            std::process::id()
        ));
        let w = find("sieve").unwrap();
        runner(quick_config()).journal(&path).measure(&w).unwrap();
        // Another size runs another program: the journaled records are not
        // invocations of this experiment.
        let journal = Journal::load(&path).unwrap();
        let err = runner(quick_config().with_size(Size::Default))
            .resume(journal)
            .measure(&w)
            .unwrap_err();
        assert!(err.to_string().contains("size: \"small\""), "{err}");
        std::fs::remove_file(&path).ok();
    }
}

//! The campaign orchestrator: executes a cell grid on the crate's in-order
//! worker pool, streaming each completed cell into a [`CellSink`] as it
//! finishes.
//!
//! Scheduling model: workers take pending cells in grid order from one
//! shared index, each after claiming one of the run's execution tickets
//! ([`Campaign::max_cells`], unlimited by default), so a capped run
//! executes exactly the first N pending cells whatever the worker count or
//! timing. A cell takes milliseconds, so a shared counter never contends
//! and per-worker deques with stealing would buy nothing.
//!
//! Each cell runs through [`crate::Runner::measure`] — the cell-execution
//! primitive — under the cell's own validated config, with the campaign's
//! observers attached, so per-cell experiment streams arrive alongside the
//! campaign-level events (`campaign_started`, `campaign_resumed`,
//! `cell_completed`).
//!
//! Resume: the **archive is authoritative** — on [`Campaign::resume`] every
//! cell the sink already holds is skipped, so a torn run picks up exactly
//! at its first incomplete cell. The campaign journal is one identity line
//! (fingerprint, cell count, seq base), written once per run: it verifies
//! the grid and keeps the seq base the campaign started from.
//!
//! Adaptive mode: when the spec carries a [`PlannerConfig`], the fixed grid
//! walk becomes a feedback-driven scheduler. A pilot round measures every
//! cell at the planner's floor; [`compute_plan`] then grants more
//! invocations where the predicted CI is still too wide, the worker pool
//! runs the round's [`crate::planner::RefineTask`]s (widest CI first, on
//! the same pool and tickets), and the loop re-plans until every cell meets
//! its target relative half-width or nothing more can be granted. Rounds
//! are barriers, so the estimate set each plan sees — and therefore the
//! whole refinement trajectory — is independent of the worker count. Only
//! **final** measurements are archived (target met, ceiling reached, or the
//! budget-exhausted sweep), each cell carrying its [`CellPrecision`]; a
//! resume charges archived cells at their recorded size and re-pilots the
//! rest. Without a binding budget, grants are need-based and per cell, so
//! a killed-and-resumed campaign converges to the uninterrupted archive.
//! Under a binding `--budget` the squeeze splits what is left over the
//! cells still live, and a resume sees another live set: it can move
//! invocations between cells, and still spends within the budget.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::campaign::{
    CampaignError, CampaignJournal, CampaignSpec, Cell, CellPrecision, CellSink,
};
use crate::measurement::BenchmarkMeasurement;
use crate::planner::{compute_plan, CellEstimate, PlannerConfig};
use crate::pool;
use crate::runner::Runner;
use crate::steady::SteadyStateDetector;
use crate::telemetry::{with_events, EventSink, ExperimentEvent, ExperimentObserver};

/// What a finished campaign run did, cell by cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignReport {
    /// The campaign's identity fingerprint.
    pub fingerprint: String,
    /// Cells in the grid.
    pub total: usize,
    /// Cells skipped because a previous (interrupted) run had already
    /// archived them.
    pub skipped: usize,
    /// Cells executed and archived by this run.
    pub executed: usize,
    /// Canonical ids of executed cells whose measurement was quarantined.
    pub quarantined: Vec<String>,
    /// Cells that failed (canonical id, error) — compile-class measurement
    /// errors or sink failures; not archived, so a rerun retries them.
    pub failures: Vec<(String, String)>,
    /// Cells left unscheduled (a [`Campaign::max_cells`] budget ran out).
    pub remaining: usize,
    /// Planning rounds computed (adaptive runs only; the pilot is round 0,
    /// so this is the number of [`compute_plan`] calls).
    pub rounds: u32,
    /// Invocations committed across all archived cells, resumed cells
    /// included (adaptive runs only).
    pub invocations: u64,
    /// Canonical ids of archived cells that ended short of the precision
    /// target — ceiling-capped or budget-starved (adaptive runs only).
    pub unmet: Vec<String>,
}

impl CampaignReport {
    /// Cells present in the archive after this run.
    pub fn completed(&self) -> usize {
        self.skipped + self.executed
    }

    /// True when every cell of the grid is archived.
    pub fn is_complete(&self) -> bool {
        self.completed() == self.total
    }
}

/// Executes a [`CampaignSpec`] on a worker pool in grid order. Builder
/// style: configure, then [`Campaign::run`].
pub struct Campaign {
    spec: CampaignSpec,
    workers: usize,
    observers: Vec<Arc<dyn ExperimentObserver>>,
    journal_path: Option<PathBuf>,
    resume: bool,
    max_cells: Option<usize>,
}

impl Campaign {
    /// A campaign over `spec` with 4 workers, no observers, no journal.
    pub fn new(spec: CampaignSpec) -> Campaign {
        Campaign {
            spec,
            workers: 4,
            observers: Vec::new(),
            journal_path: None,
            resume: false,
            max_cells: None,
        }
    }

    /// Sets the worker-thread count (builder style). Zero is rejected by
    /// [`Campaign::run`] with [`CampaignError::ZeroWorkers`].
    pub fn workers(mut self, workers: usize) -> Campaign {
        self.workers = workers;
        self
    }

    /// Attaches an observer (builder style); it receives the campaign-level
    /// events *and* every cell's experiment stream. Call repeatedly to fan
    /// out.
    pub fn observer(mut self, observer: Arc<dyn ExperimentObserver>) -> Campaign {
        self.observers.push(observer);
        self
    }

    /// Writes the campaign's identity line to `path` when a run starts
    /// (builder style), for a later [`Campaign::resume`] to check.
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Campaign {
        self.journal_path = Some(path.into());
        self
    }

    /// Resumes a torn campaign (builder style): cells the sink already
    /// holds are skipped, and a journal at the configured path (if one
    /// exists) must identify this same grid.
    pub fn resume(mut self, resume: bool) -> Campaign {
        self.resume = resume;
        self
    }

    /// Caps how many cells this run may execute (builder style): the run
    /// executes exactly the first `max_cells` pending cells in grid order,
    /// whatever the worker count, and the rest stay pending for a later
    /// `--resume`. On the adaptive path the cap counts measurement jobs
    /// across all rounds. Used to interrupt deterministically in tests and
    /// CI smoke runs.
    pub fn max_cells(mut self, max_cells: usize) -> Campaign {
        self.max_cells = Some(max_cells);
        self
    }

    /// The campaign's spec.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Expands the grid and executes it, streaming completed cells into
    /// `sink`.
    ///
    /// # Errors
    ///
    /// Grid-expansion errors ([`CampaignError::EmptyAxis`] /
    /// [`CampaignError::UnknownBenchmark`] / [`CampaignError::Config`]), a
    /// resume journal for a different grid
    /// ([`CampaignError::JournalMismatch`]), journal I/O errors, and sink
    /// failures while probing for already-completed cells. A zero worker
    /// count is [`CampaignError::ZeroWorkers`]; an unusable planner config
    /// is [`CampaignError::Planner`]. Per-cell measurement and archival
    /// failures do **not** abort the run — they are collected in
    /// [`CampaignReport::failures`].
    pub fn run(&self, sink: &dyn CellSink) -> Result<CampaignReport, CampaignError> {
        if self.workers == 0 {
            return Err(CampaignError::ZeroWorkers);
        }
        if let Some(planner) = &self.spec.planner {
            planner.validate().map_err(CampaignError::Planner)?;
        }
        let mut cells = self.spec.cells()?;
        let fingerprint = self.spec.fingerprint();
        let total = cells.len();

        // Resume: the archive is authoritative for *what* is done; the
        // journal proves the path belongs to this grid and keeps the seq
        // base the campaign started from.
        let mut journaled_base = None;
        if self.resume {
            if let Some(path) = &self.journal_path {
                if let Some(journal) = CampaignJournal::load(path)
                    .map_err(|e| CampaignError::Journal(e.to_string()))?
                {
                    journal
                        .check_matches(&fingerprint, total as u32)
                        .map_err(CampaignError::JournalMismatch)?;
                    journaled_base = Some(journal.seq_base);
                }
            }
        }
        let seq_base = match journaled_base {
            Some(base) => base,
            None => sink.seq_base().map_err(CampaignError::Sink)?,
        };
        for cell in &mut cells {
            cell.seq = seq_base + cell.index as u64;
        }

        // Skip what the archive holds, and start the adaptive ledger at
        // what those cells spent and which of them are short of target.
        let mut pending: Vec<Cell> = Vec::new();
        let mut skipped = 0;
        let (mut spent, mut unmet) = (0, Vec::new());
        for cell in cells {
            let archived = if self.resume {
                sink.completed_cell(&cell).map_err(CampaignError::Sink)?
            } else {
                None
            };
            let Some(receipt) = archived else {
                pending.push(cell);
                continue;
            };
            skipped += 1;
            match receipt.precision {
                Some(p) => {
                    spent += u64::from(p.invocations_used);
                    if !p.target_met {
                        unmet.push(cell.id.canonical());
                    }
                }
                // Archived without a precision record, by a fixed-grid run
                // of the same cell: charge its configured size.
                None => spent += u64::from(cell.config.invocations),
            }
        }

        if let Some(path) = &self.journal_path {
            let journal = CampaignJournal {
                fingerprint: fingerprint.clone(),
                cells: total as u32,
                seq_base,
            };
            journal
                .write(path)
                .map_err(|e| CampaignError::Journal(e.to_string()))?;
        }

        let report = with_events(&self.observers, "campaign", |events| {
            events.send(ExperimentEvent::CampaignStarted {
                campaign: fingerprint.clone(),
                cells: total as u32,
                workers: self.workers.min(pending.len()) as u32,
                arrival: self.spec.arrival.to_string(),
            });
            if self.resume {
                events.send(ExperimentEvent::CampaignResumed {
                    campaign: fingerprint.clone(),
                    completed: skipped as u32,
                    cells: total as u32,
                });
            }
            let run = CampaignRun {
                sink,
                events,
                total,
                tickets: AtomicUsize::new(self.max_cells.unwrap_or(usize::MAX)),
                completed: AtomicU32::new(skipped as u32),
                quarantined: Mutex::new(Vec::new()),
                failures: Mutex::new(Vec::new()),
            };
            let report = match self.spec.planner {
                Some(planner) => self.run_adaptive(&run, planner, pending, (spent, unmet)),
                None => self.run_fixed(&run, &pending),
            };
            CampaignReport {
                executed: run.completed.into_inner() as usize - skipped,
                quarantined: run
                    .quarantined
                    .into_inner()
                    .expect("quarantine list poisoned"),
                failures: run.failures.into_inner().expect("failure list poisoned"),
                ..report
            }
        });
        Ok(CampaignReport {
            fingerprint,
            total,
            skipped,
            ..report
        })
    }

    /// The fixed-grid path: every pending cell is measured once and archived
    /// from the worker that measured it.
    fn run_fixed(&self, run: &CampaignRun, pending: &[Cell]) -> CampaignReport {
        let slots = pool::run(
            pending,
            self.workers,
            &run.tickets,
            |worker, cell| match self.measure(cell, cell.config.invocations) {
                Ok(m) => run.archive(cell, &m, worker),
                Err(e) => run.fail(cell, e),
            },
        );
        CampaignReport {
            remaining: slots.iter().filter(|slot| slot.is_none()).count(),
            ..CampaignReport::default()
        }
    }

    /// The adaptive-precision path: pilot every pending cell, then re-plan
    /// and refine round by round until every cell meets the target relative
    /// half-width or nothing more can be granted. The ledger starts at what
    /// resumed cells already spent and which of them are short of target.
    /// See the module docs for the scheduling and determinism argument.
    fn run_adaptive(
        &self,
        run: &CampaignRun,
        cfg: PlannerConfig,
        pending: Vec<Cell>,
        (mut spent, mut unmet): (u64, Vec<String>),
    ) -> CampaignReport {
        let fingerprint = self.spec.fingerprint();
        let target = cfg.target_rel_half_width;
        let detector = SteadyStateDetector::default();
        let confidence = self.spec.base.confidence;
        // Archives a cell nothing more will be granted to, under the config
        // it actually ran at (its final sample size, so the archive
        // describes the measurement bytes exactly), with its precision.
        let finalize =
            |spent: &mut u64,
             unmet: &mut Vec<String>,
             (mut cell, m, est): (Cell, BenchmarkMeasurement, CellEstimate)| {
                *spent += u64::from(est.invocations);
                if !est.target_met(target) {
                    unmet.push(cell.id.canonical());
                }
                cell.config = cell.config.with_invocations(est.invocations);
                cell.precision = Some(CellPrecision {
                    invocations_used: est.invocations,
                    rel_half_width: est.rel_half_width,
                    target_rel_half_width: target,
                    target_met: est.target_met(target),
                });
                run.archive(&cell, &m, 0);
            };

        // Live cells: latest measurement + estimate, keyed by grid index.
        // The pilot is round 0; every later round's jobs come from the plan.
        let mut estimates: BTreeMap<usize, (Cell, BenchmarkMeasurement, CellEstimate)> =
            BTreeMap::new();
        let mut jobs: Vec<(Cell, u32)> = pending.into_iter().map(|c| (c, cfg.pilot())).collect();
        let mut round: u32 = 0;
        let remaining = loop {
            let slots = pool::run(&jobs, self.workers, &run.tickets, |_, (cell, n)| {
                self.measure(cell, *n)
            });
            let mut measured = Vec::new();
            let mut leftover = Vec::new();
            for ((cell, _), slot) in jobs.into_iter().zip(slots) {
                match slot {
                    None => leftover.push(cell.index),
                    Some(Err(e)) => {
                        // A failed re-measurement drops the cell from the
                        // campaign (recorded in `failures`); a rerun
                        // retries it.
                        run.fail(&cell, e);
                        estimates.remove(&cell.index);
                    }
                    Some(Ok(m)) => measured.push((cell, m)),
                }
            }
            measured.sort_by_key(|(cell, _)| cell.index);
            for (cell, m) in measured {
                let est = CellEstimate::from_measurement(cell.index, &m, &detector, confidence);
                run.events.send(ExperimentEvent::CellRefined {
                    cell: cell.id.canonical(),
                    index: cell.index as u32,
                    round,
                    invocations: est.invocations,
                    rel_half_width: est.rel_half_width,
                    target_met: est.target_met(target),
                });
                estimates.insert(cell.index, (cell, m, est));
            }

            // Finalize what is done: target met, or ceiling reached.
            let done: Vec<usize> = estimates
                .iter()
                .filter(|(_, (_, _, e))| {
                    e.target_met(target) || e.invocations >= cfg.max_invocations
                })
                .map(|(&i, _)| i)
                .collect();
            for idx in done {
                let entry = estimates.remove(&idx).expect("just listed");
                finalize(&mut spent, &mut unmet, entry);
            }

            if !leftover.is_empty() {
                // The ticket budget ran out mid-round: stop re-planning.
                // Cells not yet final stay unarchived for a resume. A
                // leftover refinement job's cell is usually already in
                // `estimates` (measured by the pilot) — count each
                // unfinished cell once.
                break estimates.len()
                    + leftover
                        .iter()
                        .filter(|i| !estimates.contains_key(i))
                        .count();
            }

            round += 1;
            let ests: Vec<CellEstimate> = estimates.values().map(|(_, _, e)| *e).collect();
            let plan = compute_plan(&ests, spent, &cfg, round);
            run.events.send(ExperimentEvent::PlanComputed {
                campaign: fingerprint.clone(),
                round,
                unmet: plan.unmet as u32,
                tasks: plan.tasks.len() as u32,
                planned: plan.planned,
                spent: plan.spent,
                budget_remaining: plan.budget_remaining,
            });
            if plan.tasks.is_empty() {
                if plan.exhausted {
                    run.events.send(ExperimentEvent::BudgetExhausted {
                        campaign: fingerprint.clone(),
                        round,
                        spent: plan.spent,
                        budget: cfg.budget.unwrap_or(0),
                        unmet: plan.unmet as u32,
                    });
                }
                // Final sweep: cells nothing more can be granted to are
                // archived at their current size, short of target.
                for (_, entry) in std::mem::take(&mut estimates) {
                    finalize(&mut spent, &mut unmet, entry);
                }
                break 0;
            }
            // The plan orders tasks widest CI first, and the pool takes
            // jobs in order, so that priority holds across the workers.
            jobs = plan
                .tasks
                .iter()
                .filter_map(|t| {
                    estimates
                        .get(&t.index)
                        .map(|(c, _, _)| (c.clone(), t.invocations))
                })
                .collect();
        };
        CampaignReport {
            remaining,
            rounds: round,
            invocations: spent,
            unmet,
            ..CampaignReport::default()
        }
    }

    /// Paces `cell` by its seeded arrival delay, then measures it at
    /// `invocations` with the campaign's observers attached.
    fn measure(&self, cell: &Cell, invocations: u32) -> Result<BenchmarkMeasurement, String> {
        // Seeded arrival pacing: a pure function of (campaign seed, cell
        // index), so the pattern replays under the same seed whatever the
        // worker count.
        let delay = self
            .spec
            .arrival
            .delay(self.spec.base.experiment_seed, cell.index as u64);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        // The config was validated at grid expansion; a rejection here would
        // be a logic error, but record it rather than panicking a worker.
        let config = cell.config.clone().with_invocations(invocations);
        let mut runner = Runner::new(config).map_err(|e| format!("invalid config: {e}"))?;
        for obs in &self.observers {
            runner = runner.observer(obs.clone());
        }
        runner.measure(&cell.workload).map_err(|e| e.to_string())
    }
}

/// The state one campaign run shares between its workers and its report.
struct CampaignRun<'a> {
    sink: &'a dyn CellSink,
    events: &'a EventSink,
    /// Cells in the grid.
    total: usize,
    /// Measurement jobs this run may still start, across adaptive rounds.
    tickets: AtomicUsize,
    /// Cells archived so far, resumed ones included.
    completed: AtomicU32,
    quarantined: Mutex<Vec<String>>,
    failures: Mutex<Vec<(String, String)>>,
}

impl CampaignRun<'_> {
    /// Streams a measured cell to the sink, then emits `cell_completed`.
    /// Never panics the worker: every failure becomes a `failures` entry.
    fn archive(&self, cell: &Cell, measurement: &BenchmarkMeasurement, worker: usize) {
        let id = cell.id.canonical();
        if measurement.quarantined {
            self.quarantined
                .lock()
                .expect("quarantine list poisoned")
                .push(id.clone());
        }
        let receipt = match self.sink.archive_cell(cell, measurement) {
            Ok(r) => r,
            Err(e) => return self.fail(cell, format!("sink: {e}")),
        };
        let completed = self.completed.fetch_add(1, Ordering::Relaxed) + 1;
        self.events.send(ExperimentEvent::CellCompleted {
            cell: id,
            index: cell.index as u32,
            worker: worker as u32,
            run_id: receipt.run_id,
            completed,
            cells: self.total as u32,
        });
    }

    fn fail(&self, cell: &Cell, error: String) {
        self.failures
            .lock()
            .expect("failure list poisoned")
            .push((cell.id.canonical(), error));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{ArrivalProcess, CellReceipt, ConfigVariant, MemorySink};
    use crate::config::ExperimentConfig;
    use crate::telemetry::CollectingObserver;
    use minipy::EngineKind;
    use rigor_workloads::Size;

    fn small_spec() -> CampaignSpec {
        let base = ExperimentConfig::interp()
            .with_invocations(2)
            .with_iterations(3)
            .with_size(Size::Small)
            .with_seed(11);
        CampaignSpec::new(base)
            .with_benchmarks(["sieve", "leibniz"])
            .with_engines(vec![EngineKind::Interp])
            .with_variants(vec![ConfigVariant::parse("2x3").unwrap()])
            .with_seeds(vec![11, 12])
    }

    fn journal_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "rigor-orchestrator-{tag}-{}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn campaign_executes_every_cell_exactly_once() {
        let sink = MemorySink::new();
        let report = Campaign::new(small_spec()).workers(3).run(&sink).unwrap();
        assert_eq!(report.total, 4);
        assert_eq!(report.executed, 4);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.remaining, 0);
        assert!(report.failures.is_empty());
        assert!(report.is_complete());
        let ids: Vec<String> = sink.cells().into_iter().map(|(_, id, _)| id).collect();
        assert_eq!(
            ids,
            vec![
                "sieve/interp/2x3/11",
                "sieve/interp/2x3/12",
                "leibniz/interp/2x3/11",
                "leibniz/interp/2x3/12",
            ]
        );
    }

    #[test]
    fn worker_count_does_not_change_the_measurements() {
        let one = MemorySink::new();
        Campaign::new(small_spec()).workers(1).run(&one).unwrap();
        let four = MemorySink::new();
        Campaign::new(small_spec()).workers(4).run(&four).unwrap();
        let a = one.cells();
        let b = four.cells();
        assert_eq!(a.len(), b.len());
        for ((ia, ida, ma), (ib, idb, mb)) in a.iter().zip(&b) {
            assert_eq!(ia, ib);
            assert_eq!(ida, idb);
            assert_eq!(
                crate::export::to_json(std::slice::from_ref(ma)).unwrap(),
                crate::export::to_json(std::slice::from_ref(mb)).unwrap(),
                "cell {ida} must measure identically under any worker count"
            );
        }
    }

    #[test]
    fn max_cells_interrupts_and_resume_completes() {
        let path = journal_path("budget");
        let sink = MemorySink::new();
        let first = Campaign::new(small_spec())
            .workers(1)
            .journal(&path)
            .max_cells(2)
            .run(&sink)
            .unwrap();
        assert_eq!(first.executed, 2);
        assert_eq!(first.remaining, 2);
        assert!(!first.is_complete());
        assert_eq!(sink.len(), 2);

        let second = Campaign::new(small_spec())
            .workers(1)
            .journal(&path)
            .resume(true)
            .run(&sink)
            .unwrap();
        assert_eq!(second.skipped, 2);
        assert_eq!(second.executed, 2);
        assert!(second.is_complete());
        assert_eq!(sink.len(), 4);

        // The resumed archive matches an uninterrupted run cell for cell.
        let clean = MemorySink::new();
        Campaign::new(small_spec()).workers(1).run(&clean).unwrap();
        for ((ia, ida, ma), (ib, idb, mb)) in sink.cells().iter().zip(&clean.cells()) {
            assert_eq!((ia, ida), (ib, idb));
            assert_eq!(
                crate::export::to_json(std::slice::from_ref(ma)).unwrap(),
                crate::export::to_json(std::slice::from_ref(mb)).unwrap()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_a_journal_from_another_grid() {
        let path = journal_path("mismatch");
        let sink = MemorySink::new();
        Campaign::new(small_spec())
            .journal(&path)
            .run(&sink)
            .unwrap();
        let other = small_spec().with_seeds(vec![99]);
        let err = Campaign::new(other)
            .journal(&path)
            .resume(true)
            .run(&MemorySink::new())
            .unwrap_err();
        assert!(matches!(err, CampaignError::JournalMismatch(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn campaign_events_flow_to_observers() {
        let obs = Arc::new(CollectingObserver::new());
        let sink = MemorySink::new();
        Campaign::new(small_spec())
            .workers(2)
            .observer(obs.clone())
            .run(&sink)
            .unwrap();
        let events = obs.events();
        let starts = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    ExperimentEvent::CampaignStarted {
                        cells: 4,
                        workers: 2,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(starts, 1);
        let cells_done: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                ExperimentEvent::CellCompleted { completed, .. } => Some(*completed),
                _ => None,
            })
            .collect();
        assert_eq!(cells_done.len(), 4);
        assert_eq!(*cells_done.iter().max().unwrap(), 4);
        // Per-cell experiment streams ride along with campaign events.
        let experiments = events
            .iter()
            .filter(|e| matches!(e, ExperimentEvent::ExperimentFinished { .. }))
            .count();
        assert_eq!(experiments, 4);
        // No resume ⇒ no campaign_resumed.
        assert!(!events
            .iter()
            .any(|e| matches!(e, ExperimentEvent::CampaignResumed { .. })));
    }

    #[test]
    fn resumed_complete_campaign_executes_nothing() {
        let path = journal_path("noop");
        let sink = MemorySink::new();
        Campaign::new(small_spec())
            .journal(&path)
            .run(&sink)
            .unwrap();
        let obs = Arc::new(CollectingObserver::new());
        let report = Campaign::new(small_spec())
            .journal(&path)
            .resume(true)
            .observer(obs.clone())
            .run(&sink)
            .unwrap();
        assert_eq!(report.skipped, 4);
        assert_eq!(report.executed, 0);
        assert!(report.is_complete());
        assert!(obs
            .events()
            .iter()
            .any(|e| matches!(e, ExperimentEvent::CampaignResumed { completed: 4, .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn arrival_pacing_still_completes_the_grid() {
        let sink = MemorySink::new();
        let spec = small_spec().with_arrival(ArrivalProcess::Uniform { mean_ms: 1.0 });
        let report = Campaign::new(spec).workers(4).run(&sink).unwrap();
        assert_eq!(report.executed, 4);
        assert_eq!(sink.len(), 4);
    }

    fn adaptive_spec(cfg: PlannerConfig) -> CampaignSpec {
        small_spec().with_planner(cfg)
    }

    fn planner() -> PlannerConfig {
        PlannerConfig::default()
            .with_target(0.05)
            .with_min_invocations(2)
            .with_max_invocations(8)
    }

    #[test]
    fn zero_workers_is_rejected() {
        let err = Campaign::new(small_spec())
            .workers(0)
            .run(&MemorySink::new())
            .unwrap_err();
        assert!(matches!(err, CampaignError::ZeroWorkers), "{err}");
    }

    #[test]
    fn invalid_planner_config_is_rejected() {
        let spec = adaptive_spec(PlannerConfig::default().with_target(0.0));
        let err = Campaign::new(spec).run(&MemorySink::new()).unwrap_err();
        assert!(matches!(err, CampaignError::Planner(_)), "{err}");
    }

    #[test]
    fn adaptive_campaign_archives_every_cell_with_precision() {
        let sink = MemorySink::new();
        let report = Campaign::new(adaptive_spec(planner()))
            .workers(2)
            .run(&sink)
            .unwrap();
        assert_eq!(report.total, 4);
        assert_eq!(report.executed, 4);
        assert!(report.is_complete());
        assert!(report.rounds >= 1);
        let precisions = sink.precisions();
        assert_eq!(precisions.len(), 4);
        let mut spent = 0u64;
        for (_, p) in &precisions {
            assert!(p.invocations_used >= 2 && p.invocations_used <= 8, "{p:?}");
            assert_eq!(p.target_rel_half_width, 0.05);
            assert_eq!(
                p.target_met,
                p.rel_half_width.is_some_and(|r| r <= 0.05),
                "{p:?}"
            );
            spent += u64::from(p.invocations_used);
        }
        assert_eq!(report.invocations, spent);
        // Unmet ids are exactly the archived cells short of target.
        let short = precisions.iter().filter(|(_, p)| !p.target_met).count();
        assert_eq!(report.unmet.len(), short);
    }

    #[test]
    fn adaptive_results_do_not_depend_on_worker_count() {
        let one = MemorySink::new();
        Campaign::new(adaptive_spec(planner()))
            .workers(1)
            .run(&one)
            .unwrap();
        let four = MemorySink::new();
        Campaign::new(adaptive_spec(planner()))
            .workers(4)
            .run(&four)
            .unwrap();
        assert_eq!(one.precisions(), four.precisions());
        for ((ia, ida, ma), (ib, idb, mb)) in one.cells().iter().zip(&four.cells()) {
            assert_eq!((ia, ida), (ib, idb));
            assert_eq!(
                crate::export::to_json(std::slice::from_ref(ma)).unwrap(),
                crate::export::to_json(std::slice::from_ref(mb)).unwrap(),
                "cell {ida} must refine identically under any worker count"
            );
        }
    }

    #[test]
    fn adaptive_interrupt_and_resume_matches_a_clean_run() {
        let path = journal_path("adaptive-resume");
        let sink = MemorySink::new();
        // Two measurement tickets interrupt the run inside the pilot round.
        let first = Campaign::new(adaptive_spec(planner()))
            .workers(1)
            .journal(&path)
            .max_cells(2)
            .run(&sink)
            .unwrap();
        assert!(!first.is_complete());
        assert!(first.remaining > 0);

        let second = Campaign::new(adaptive_spec(planner()))
            .workers(1)
            .journal(&path)
            .resume(true)
            .run(&sink)
            .unwrap();
        assert!(second.is_complete());
        assert_eq!(sink.len(), 4);

        // The converged archive — measurements and precision records —
        // matches an uninterrupted adaptive run cell for cell.
        let clean = MemorySink::new();
        Campaign::new(adaptive_spec(planner()))
            .workers(1)
            .run(&clean)
            .unwrap();
        assert_eq!(sink.precisions(), clean.precisions());
        for ((ia, ida, ma), (ib, idb, mb)) in sink.cells().iter().zip(&clean.cells()) {
            assert_eq!((ia, ida), (ib, idb));
            assert_eq!(
                crate::export::to_json(std::slice::from_ref(ma)).unwrap(),
                crate::export::to_json(std::slice::from_ref(mb)).unwrap()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn adaptive_budget_exhaustion_archives_cells_short_of_target() {
        // An unreachable target under a tiny budget: the planner squeezes
        // what it can, then the final sweep archives everything unmet.
        let cfg = PlannerConfig::default()
            .with_target(0.0001)
            .with_min_invocations(2)
            .with_max_invocations(30)
            .with_budget(12);
        let obs = Arc::new(CollectingObserver::new());
        let sink = MemorySink::new();
        let report = Campaign::new(adaptive_spec(cfg))
            .workers(2)
            .observer(obs.clone())
            .run(&sink)
            .unwrap();
        assert!(report.is_complete(), "{report:?}");
        assert!(!report.unmet.is_empty(), "{report:?}");
        assert!(report.invocations <= 12, "{report:?}");
        let events = obs.events();
        assert!(events
            .iter()
            .any(|e| matches!(e, ExperimentEvent::PlanComputed { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, ExperimentEvent::BudgetExhausted { budget: 12, .. })));
        let refined = events
            .iter()
            .filter(|e| matches!(e, ExperimentEvent::CellRefined { .. }))
            .count();
        assert!(refined >= 4, "every cell refines at least once (pilot)");
    }

    #[test]
    fn twelve_cells_on_three_workers_each_run_once() {
        let spec = small_spec().with_seeds(vec![1, 2, 3, 4, 5, 6]);
        let obs = Arc::new(CollectingObserver::new());
        let sink = MemorySink::new();
        let report = Campaign::new(spec)
            .workers(3)
            .observer(obs.clone())
            .run(&sink)
            .unwrap();
        assert_eq!(report.executed, 12);
        let mut indices: Vec<u32> = obs
            .events()
            .iter()
            .filter_map(|e| match e {
                ExperimentEvent::CellCompleted { index, .. } => Some(*index),
                _ => None,
            })
            .collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..12).collect::<Vec<u32>>());
    }

    /// Holds cell 0 inside `archive_cell` until two other cells are
    /// archived, so the other worker runs on while cell 0's worker waits.
    #[derive(Default)]
    struct HoldsCellZero {
        inner: MemorySink,
        others: Mutex<usize>,
        archived: std::sync::Condvar,
    }

    impl CellSink for HoldsCellZero {
        fn archive_cell(
            &self,
            cell: &Cell,
            measurement: &BenchmarkMeasurement,
        ) -> Result<CellReceipt, String> {
            if cell.index == 0 {
                let others = self.others.lock().unwrap();
                let timeout = std::time::Duration::from_secs(30);
                drop(
                    self.archived
                        .wait_timeout_while(others, timeout, |n| *n < 2),
                );
            }
            let receipt = self.inner.archive_cell(cell, measurement);
            if cell.index != 0 {
                *self.others.lock().unwrap() += 1;
                self.archived.notify_all();
            }
            receipt
        }

        fn completed_cell(&self, cell: &Cell) -> Result<Option<CellReceipt>, String> {
            self.inner.completed_cell(cell)
        }
    }

    #[test]
    fn max_cells_runs_the_first_pending_cells_whatever_the_timing() {
        let sink = HoldsCellZero::default();
        let report = Campaign::new(small_spec())
            .workers(2)
            .max_cells(3)
            .run(&sink)
            .unwrap();
        assert_eq!((report.executed, report.remaining), (3, 1));
        let archived: Vec<usize> = sink.inner.cells().into_iter().map(|(i, _, _)| i).collect();
        assert_eq!(archived, vec![0, 1, 2]);
    }

    #[test]
    fn campaign_started_reports_the_workers_the_pool_can_use() {
        for spec in [small_spec(), adaptive_spec(planner())] {
            let adaptive = spec.planner.is_some();
            let obs = Arc::new(CollectingObserver::new());
            Campaign::new(spec)
                .workers(8)
                .observer(obs.clone())
                .run(&MemorySink::new())
                .unwrap();
            let workers: Vec<u32> = obs
                .events()
                .iter()
                .filter_map(|e| match e {
                    ExperimentEvent::CampaignStarted { workers, .. } => Some(*workers),
                    _ => None,
                })
                .collect();
            assert_eq!(
                workers,
                vec![4],
                "8 workers over 4 cells (adaptive: {adaptive})"
            );
        }
    }

    #[test]
    fn cell_refined_events_keep_grid_order_within_a_round() {
        let obs = Arc::new(CollectingObserver::new());
        Campaign::new(adaptive_spec(planner()))
            .workers(4)
            .observer(obs.clone())
            .run(&MemorySink::new())
            .unwrap();
        let refined: Vec<(u32, u32)> = obs
            .events()
            .iter()
            .filter_map(|e| match e {
                ExperimentEvent::CellRefined { round, index, .. } => Some((*round, *index)),
                _ => None,
            })
            .collect();
        assert!(refined.len() >= 4, "the pilot refines every cell");
        assert!(
            refined.windows(2).all(|w| w[0] < w[1]),
            "rounds in order, grid order within a round: {refined:?}"
        );
    }

    #[test]
    fn panicking_observer_does_not_stop_the_campaign() {
        struct Grenade;
        impl ExperimentObserver for Grenade {
            fn on_event(&self, _event: &ExperimentEvent) {
                panic!("observer bug");
            }
        }
        let collector = Arc::new(CollectingObserver::new());
        let sink = MemorySink::new();
        let report = Campaign::new(small_spec())
            .workers(2)
            .observer(Arc::new(Grenade))
            .observer(collector.clone())
            .run(&sink)
            .unwrap();
        assert!(report.is_complete(), "{report:?}");
        assert_eq!(sink.len(), 4);
        let completed = collector
            .events()
            .iter()
            .filter(|e| matches!(e, ExperimentEvent::CellCompleted { .. }))
            .count();
        assert_eq!(
            completed, 4,
            "the healthy observer sees every cell_completed"
        );
    }
}

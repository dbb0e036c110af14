//! `campaign_grid`: `Campaign::run` over the 29 suite workloads × {interp,
//! jit} × 2 VM seeds at `Size::Small`, `-n 4 -i 20` (the shape of the
//! committed campaign baseline CI gates), on the worker pool, streaming every
//! cell into a fresh local `SharedStore` that appends and fsyncs once per
//! cell.
//!
//! One operation is one cell measured and archived. Its latency is taken by
//! [`TimedSink`]: the time from the same worker's previous sink return (or
//! the campaign's start) to this one. In a traced run that interval is the
//! cell's `orchestrator.cell` span, with the `store.append` span inside it;
//! after the campaign, every cell is replayed through `Runner::measure`, and
//! that through the compiler and sessions, to split the rest of the cell's
//! time among the runner, the VM and the orchestrator (what is left over).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use minipy::{EngineKind, JitConfig};
use rigor::campaign::{CampaignSpec, Cell, CellReceipt, CellSink};
use rigor::measurement::BenchmarkMeasurement;
use rigor::{Campaign, ExperimentConfig, Runner};
use rigor_store::SharedStore;
use rigor_workloads::verify::Manifest;
use rigor_workloads::{suite, Size};

use super::{journal_mib, remove_dir, vm_replay, vm_seeds, Env, EventCounter, OpLog, Workload};
use crate::trace::{Kind, Span, Tracer};

/// VM seeds per campaign: 29 × 2 engines × 2 seeds = 116 cells.
const SEEDS: u64 = 2;

/// The set-up workload.
pub struct CampaignGrid {
    spec: CampaignSpec,
    cells: Vec<Cell>,
    manifest: Manifest,
    workers: usize,
    work: PathBuf,
    campaigns: u64,
}

/// The campaign spec over `seeds`.
fn spec(seeds: Vec<u64>) -> CampaignSpec {
    let base = ExperimentConfig::interp()
        .with_invocations(4)
        .with_iterations(20)
        .with_size(Size::Small)
        .with_threads(1);
    CampaignSpec::new(base)
        .with_benchmarks(suite().iter().map(|w| w.name))
        .with_engines(vec![
            EngineKind::Interp,
            EngineKind::Jit(JitConfig::default()),
        ])
        .with_seeds(seeds)
}

/// The `ok_frac` oracle of one cell: every invocation's checksum equals the
/// golden manifest entry for `workload/small`, and nothing was censored or
/// quarantined.
fn cell_ok(cell: &Cell, m: &BenchmarkMeasurement, manifest: &Manifest) -> Result<(), String> {
    let id = cell.id.canonical();
    let want = manifest
        .get(&format!("{}/small", cell.id.benchmark))
        .ok_or_else(|| format!("{id}: no manifest entry"))?;
    if m.quarantined || !m.censored.is_empty() {
        return Err(format!("{id}: censored or quarantined"));
    }
    if m.invocations.len() != cell.config.invocations as usize {
        return Err(format!("{id}: {} invocations", m.invocations.len()));
    }
    match m.invocations.iter().find(|r| r.checksum != want) {
        Some(r) => Err(format!("{id}: checksum {} != {want}", r.checksum)),
        None => Ok(()),
    }
}

/// One archived cell, as the sink saw it.
struct CellOp {
    index: usize,
    latency: Duration,
    verdict: Result<(), String>,
    /// The cell's `orchestrator.cell` span, in a traced run.
    span: Option<u64>,
}

/// A [`CellSink`] around the campaign's store that times every cell.
struct TimedSink<'a> {
    inner: SharedStore,
    manifest: &'a Manifest,
    tracer: Option<&'a Tracer>,
    campaign_span: u64,
    started: Instant,
    last_return: Mutex<HashMap<ThreadId, Instant>>,
    ops: Mutex<Vec<CellOp>>,
}

impl CellSink for TimedSink<'_> {
    fn archive_cell(
        &self,
        cell: &Cell,
        measurement: &BenchmarkMeasurement,
    ) -> Result<CellReceipt, String> {
        let op = cell.index as u64;
        let cell_span = self.tracer.map(Tracer::next_id);
        let result = match (self.tracer, cell_span) {
            (Some(t), Some(id)) => t.span("store.append", Some(id), op, |_| {
                self.inner.archive_cell(cell, measurement)
            }),
            _ => self.inner.archive_cell(cell, measurement),
        };
        let returned = Instant::now();
        let previous = self
            .last_return
            .lock()
            .expect("sink clock poisoned")
            .insert(std::thread::current().id(), returned)
            .unwrap_or(self.started);
        if let (Some(tracer), Some(id)) = (self.tracer, cell_span) {
            tracer.record(Span {
                id,
                parent: Some(self.campaign_span),
                name: "orchestrator.cell",
                op,
                start_ns: tracer.ns_of(previous),
                end_ns: tracer.ns_of(returned),
                kind: Kind::Call,
            });
            tracer.count("runner.censored", measurement.censored.len() as f64);
        }
        let verdict = match &result {
            Ok(receipt) if receipt.seq == cell.index as u64 => {
                cell_ok(cell, measurement, self.manifest)
            }
            Ok(receipt) => Err(format!(
                "receipt seq {} for cell {}",
                receipt.seq, cell.index
            )),
            Err(e) => Err(format!("archive failed: {e}")),
        };
        self.ops.lock().expect("sink log poisoned").push(CellOp {
            index: cell.index,
            latency: returned - previous,
            verdict,
            span: cell_span,
        });
        result
    }

    fn completed_cell(&self, cell: &Cell) -> Result<Option<CellReceipt>, String> {
        self.inner.completed_cell(cell)
    }
}

impl CampaignGrid {
    /// Builds the grid and runs one warm-up campaign over a single seed.
    ///
    /// # Errors
    ///
    /// A missing manifest, or a warm-up cell that fails its oracle.
    pub fn setup(env: &Env) -> Result<CampaignGrid, String> {
        let spec = spec(vm_seeds(env.seed, SEEDS));
        let cells = spec.cells().map_err(|e| e.to_string())?;
        let mut grid = CampaignGrid {
            spec,
            cells,
            manifest: env.manifest()?,
            workers: env.workers,
            work: env.work.clone(),
            campaigns: 0,
        };
        let warmup = spec_warmup(env.seed);
        let mut log = OpLog::default();
        grid.campaign(&warmup, &mut log, None)?;
        if log.ok != log.attempted {
            return Err(format!("warm-up campaign failed: {:?}", log.failures));
        }
        Ok(grid)
    }

    /// Runs one campaign over `spec` into a fresh store and logs its cells.
    /// Returns each archived cell's `orchestrator.cell` span by cell index
    /// (empty when untraced).
    fn campaign(
        &mut self,
        spec: &CampaignSpec,
        log: &mut OpLog,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<HashMap<usize, u64>, String> {
        let dir = self.work.join(format!("campaign-{}", self.campaigns));
        self.campaigns += 1;
        // Opening the store comes before the first cell: it is in no cell's
        // latency.
        let store = match tracer {
            Some(t) => t.outside("store.open", 0, |_| SharedStore::open(&dir)),
            None => SharedStore::open(&dir),
        }
        .map_err(|e| e.to_string())?;
        let campaign_span = tracer.map_or(0, |t| t.next_id());
        let span_start = tracer.map(|t| t.now_ns());
        let mut campaign = Campaign::new(spec.clone()).workers(self.workers);
        if let Some(t) = tracer {
            campaign = campaign.observer(Arc::new(EventCounter(Arc::clone(t))));
        }
        let sink = TimedSink {
            inner: store,
            manifest: &self.manifest,
            tracer: tracer.map(|t| t.as_ref()),
            campaign_span,
            started: Instant::now(),
            last_return: Mutex::new(HashMap::new()),
            ops: Mutex::new(Vec::new()),
        };
        let report = campaign.run(&sink).map_err(|e| e.to_string())?;
        let wall = sink.started.elapsed();
        if let (Some(t), Some(start_ns)) = (tracer, span_start) {
            // The campaign runs on several workers at once; its cells carry
            // its time.
            t.record(Span {
                id: campaign_span,
                parent: None,
                name: "orchestrator.campaign",
                op: 0,
                start_ns,
                end_ns: t.now_ns(),
                kind: Kind::Outside,
            });
            t.count(
                "orchestrator.capacity_ns",
                (wall.as_nanos() * self.workers as u128) as f64,
            );
            t.set(
                "store.archive_mib",
                journal_mib(&dir.join(rigor_store::ARCHIVE_FILE)),
            );
        }
        let mut spans = HashMap::new();
        for op in sink.ops.into_inner().expect("sink log poisoned") {
            log.op(op.latency, op.verdict.is_ok());
            if let Err(e) = op.verdict {
                log.fail(e);
            }
            if let Some(span) = op.span {
                spans.insert(op.index, span);
            }
        }
        for (cell, error) in &report.failures {
            log.lost();
            log.fail(format!("{cell}: {error}"));
        }
        remove_dir(&dir);
        Ok(spans)
    }

    /// Replays every cell of the campaign just run through `Runner::measure`
    /// under the cell's span, and that cell through the compiler and
    /// sessions under the `runner.measure` span.
    fn inner_passes(&self, tracer: &Tracer, cell_spans: &HashMap<usize, u64>, log: &mut OpLog) {
        for cell in &self.cells {
            let op = cell.index as u64;
            let mut measure_span = None;
            let measured = tracer.replay(
                "runner.measure",
                cell_spans.get(&cell.index).copied(),
                op,
                |id| {
                    measure_span = Some(id);
                    Runner::new(cell.config.clone())
                        .map_err(|e| e.to_string())
                        .and_then(|r| r.measure(&cell.workload).map_err(|e| e.to_string()))
                },
            );
            if let Err(e) = measured.and_then(|m| cell_ok(cell, &m, &self.manifest)) {
                log.fail(format!("runner pass: {e}"));
            }
            let config = &cell.config;
            let sessions: Vec<_> = (0..config.invocations)
                .map(|i| {
                    let seed =
                        minipy::invocation_seed(config.experiment_seed, cell.workload.name, i);
                    (seed, config.vm_config())
                })
                .collect();
            let source = cell.workload.source(config.size);
            let replay = vm_replay(
                tracer,
                measure_span,
                op,
                &source,
                &sessions,
                config.iterations,
            );
            if let Err(e) = replay {
                log.fail(format!("{}: vm pass: {e}", cell.id.canonical()));
            }
        }
    }
}

/// The warm-up grid: the same cells over one VM seed.
fn spec_warmup(seed: u64) -> CampaignSpec {
    spec(vec![seed.wrapping_mul(16)])
}

impl Workload for CampaignGrid {
    fn run(
        &mut self,
        deadline: Instant,
        log: &mut OpLog,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<(), String> {
        while Instant::now() < deadline {
            let started = Instant::now();
            let spec = self.spec.clone();
            let cell_spans = self.campaign(&spec, log, tracer)?;
            if let Some(t) = tracer {
                t.count("trace.outer_ns", started.elapsed().as_nanos() as f64);
                self.inner_passes(t, &cell_spans, log);
            }
        }
        Ok(())
    }

    fn finish(self: Box<Self>) {
        remove_dir(&self.work);
    }
}

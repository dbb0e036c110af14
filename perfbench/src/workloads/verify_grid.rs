//! `verify_grid`: CI's semantic gate. One operation is one
//! `rigor::run_grid` call over `Size::Small` × 29 workloads × 2 engines × 2
//! VM seeds = 116 cells on the worker pool, checked against the committed
//! golden manifest (read-only). Every cell compiles its source, starts a
//! cold session and runs 2 iterations; no store or statistics code runs.
//!
//! `run_grid` keeps every worker busy at once, so in a traced run its span
//! is outside the per-layer accounting; each cell is replayed after it
//! through `VerifyCell::execute`, and that through the compiler and a
//! session, and those replays carry the operation's thread time.

use std::sync::Arc;
use std::time::Instant;

use rigor::run_grid;
use rigor_workloads::verify::{grid, Manifest, VerifyCell, VerifyReport, CELL_ITERATIONS};
use rigor_workloads::{find, Size};

use super::{remove_dir, vm_replay, vm_seeds, Env, OpLog, Workload};
use crate::trace::Tracer;

/// Warm-up grids run in set-up.
const WARMUP_OPS: usize = 2;

/// The set-up workload.
pub struct VerifyGrid {
    cells: Vec<VerifyCell>,
    manifest: Manifest,
    workers: usize,
    work: std::path::PathBuf,
    ops: u64,
}

/// The `ok_frac` oracle: the report passed and covers every cell.
fn report_ok(report: &VerifyReport, cells: usize) -> Result<(), String> {
    if report.cells.len() != cells {
        return Err(format!(
            "report covers {} of {cells} cells",
            report.cells.len()
        ));
    }
    if !report.passed() {
        return Err(report.summary());
    }
    Ok(())
}

impl VerifyGrid {
    /// Expands the grid and runs the warm-up grids.
    ///
    /// # Errors
    ///
    /// A missing manifest, or a warm-up grid that does not pass.
    pub fn setup(env: &Env) -> Result<VerifyGrid, String> {
        let grid = VerifyGrid {
            cells: grid(&[Size::Small], &vm_seeds(env.seed, 2)),
            manifest: env.manifest()?,
            workers: env.workers,
            work: env.work.clone(),
            ops: 0,
        };
        for _ in 0..WARMUP_OPS {
            let report = run_grid(grid.cells.clone(), grid.workers, Some(&grid.manifest));
            report_ok(&report, grid.cells.len()).map_err(|e| format!("warm-up: {e}"))?;
        }
        Ok(grid)
    }

    /// Replays every cell of the grid through `VerifyCell::execute` under
    /// the `run_grid` span, and that cell through the compiler and a session
    /// under the `verify.cell` span.
    fn inner_passes(&self, tracer: &Tracer, grid_span: u64, op: u64, log: &mut OpLog) {
        for cell in &self.cells {
            let want = self.manifest.get(&cell.manifest_key());
            let mut cell_span = None;
            let executed = tracer.replay("verify.cell", Some(grid_span), op, |id| {
                cell_span = Some(id);
                cell.execute()
            });
            match executed {
                Ok(sum) if Some(sum.as_str()) == want => {}
                Ok(sum) => log.fail(format!("{}: checksum {sum}, manifest {want:?}", cell.id())),
                Err(e) => log.fail(format!("{}: {e}", cell.id())),
            }
            let Some(workload) = find(&cell.workload) else {
                log.fail(format!("{}: unknown workload", cell.id()));
                continue;
            };
            let sessions = [(cell.seed, cell.engine.vm_config())];
            let replay = vm_replay(
                tracer,
                cell_span,
                op,
                &workload.source(cell.size),
                &sessions,
                CELL_ITERATIONS,
            );
            if let Err(e) = replay {
                log.fail(format!("{}: vm pass: {e}", cell.id()));
            }
        }
    }
}

impl Workload for VerifyGrid {
    fn run(
        &mut self,
        deadline: Instant,
        log: &mut OpLog,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<(), String> {
        while Instant::now() < deadline {
            let op = self.ops;
            self.ops += 1;
            let grid = || run_grid(self.cells.clone(), self.workers, Some(&self.manifest));
            let mut grid_span = 0;
            let started = Instant::now();
            let report = match tracer {
                Some(t) => t.outside("verify.run_grid", op, |id| {
                    grid_span = id;
                    grid()
                }),
                None => grid(),
            };
            let latency = started.elapsed();
            let verdict = report_ok(&report, self.cells.len());
            log.op(latency, verdict.is_ok());
            if let Err(e) = verdict {
                log.fail(e);
            }
            if let Some(t) = tracer {
                t.count("trace.outer_ns", latency.as_nanos() as f64);
                t.count(
                    "verify.capacity_ns",
                    (latency.as_nanos() * self.workers as u128) as f64,
                );
                t.count("verify.failures", report.failures().len() as f64);
                self.inner_passes(t, grid_span, op, log);
            }
        }
        Ok(())
    }

    fn finish(self: Box<Self>) {
        remove_dir(&self.work);
    }
}

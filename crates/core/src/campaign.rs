//! Campaign data model: an explicit cell grid over benchmarks × engines ×
//! config variants × seeds.
//!
//! A [`CampaignSpec`] names the four axes plus a base [`ExperimentConfig`];
//! [`CampaignSpec::cells`] expands them — in a fixed, documented order — into
//! typed [`Cell`]s, each carrying its own fully-resolved config and workload.
//! The cell is the unit the orchestrator (`crate::orchestrator`) schedules,
//! executes via [`crate::Runner::measure`], and streams into a [`CellSink`]
//! as soon as it completes.
//!
//! Identity is explicit at every level:
//!
//! - a cell's [`CellId`] renders canonically as
//!   `benchmark/engine/variant/seed`, which doubles as the archive label of
//!   the cell's run;
//! - a campaign's [`CampaignSpec::fingerprint`] hashes the full grid
//!   description, so a resumed campaign can refuse a journal written by a
//!   different grid;
//! - the campaign journal (one meta line + one line per completed cell,
//!   flushed per line — the same crash contract as [`crate::checkpoint`])
//!   records which cells finished, in completion order.
//!
//! Inter-cell pacing comes from a seeded [`ArrivalProcess`]: delays are a
//! pure function of (campaign seed, cell index), so a campaign replays the
//! same arrival pattern under the same `--seed` regardless of worker count.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

use minipy::EngineKind;
use rigor_workloads::{find, Workload};
use serde::json::{get_field, DeError, JsonValue};
use serde::{Deserialize, Serialize};

use crate::config::{ConfigError, ExperimentConfig};
use crate::measurement::BenchmarkMeasurement;
use crate::planner::PlannerConfig;

/// Magic tag of a campaign journal's meta line.
const MAGIC: &str = "rigor-campaign";
/// Campaign-journal format version.
const VERSION: u32 = 1;

/// Why a campaign could not be expanded, started or resumed.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// An axis of the grid is empty; the grid would have no cells.
    EmptyAxis(&'static str),
    /// A benchmark name not present in the workload suite.
    UnknownBenchmark(String),
    /// A cell's resolved config failed validation.
    Config {
        /// Canonical id of the offending cell.
        cell: String,
        /// The underlying config error.
        error: ConfigError,
    },
    /// The campaign journal could not be read or written.
    Journal(String),
    /// A resume journal belongs to a different campaign.
    JournalMismatch(String),
    /// The cell sink (archive) rejected an append or lookup.
    Sink(String),
    /// The campaign was configured with zero worker threads.
    ZeroWorkers,
    /// The adaptive-precision planner config is unusable.
    Planner(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::EmptyAxis(axis) => {
                write!(f, "campaign grid has an empty `{axis}` axis")
            }
            CampaignError::UnknownBenchmark(name) => {
                write!(f, "unknown benchmark `{name}`")
            }
            CampaignError::Config { cell, error } => {
                write!(f, "cell {cell}: invalid config: {error}")
            }
            CampaignError::Journal(msg) => write!(f, "campaign journal: {msg}"),
            CampaignError::JournalMismatch(msg) => {
                write!(f, "campaign journal mismatch: {msg}")
            }
            CampaignError::Sink(msg) => write!(f, "cell sink: {msg}"),
            CampaignError::ZeroWorkers => {
                write!(f, "campaign needs at least 1 worker thread")
            }
            CampaignError::Planner(msg) => write!(f, "precision planner: {msg}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// One (invocations × iterations) shape of the config axis, named
/// `NxM` (e.g. `10x30`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigVariant {
    /// Invocations per cell.
    pub invocations: u32,
    /// Iterations per invocation.
    pub iterations: u32,
}

impl ConfigVariant {
    /// The variant matching a base config's shape.
    pub fn of(config: &ExperimentConfig) -> ConfigVariant {
        ConfigVariant {
            invocations: config.invocations,
            iterations: config.iterations,
        }
    }

    /// Parses `"NxM"` (e.g. `"4x10"`).
    ///
    /// # Errors
    ///
    /// A human-readable message when the text is not `NxM` with positive
    /// integers.
    pub fn parse(text: &str) -> Result<ConfigVariant, String> {
        let (inv, iter) = text
            .split_once('x')
            .ok_or_else(|| format!("variant `{text}` is not of the form NxM (e.g. 4x10)"))?;
        let invocations: u32 = inv
            .parse()
            .map_err(|_| format!("variant `{text}`: bad invocation count `{inv}`"))?;
        let iterations: u32 = iter
            .parse()
            .map_err(|_| format!("variant `{text}`: bad iteration count `{iter}`"))?;
        Ok(ConfigVariant {
            invocations,
            iterations,
        })
    }

    /// The variant's canonical name, `NxM`.
    pub fn name(&self) -> String {
        format!("{}x{}", self.invocations, self.iterations)
    }
}

impl fmt::Display for ConfigVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.invocations, self.iterations)
    }
}

/// When the next cell on a worker may start, relative to the previous one
/// finishing. Seeded: every delay is a pure function of (campaign seed,
/// cell index), so a campaign replays identically under the same seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// No inter-cell delay: cells start back to back.
    Immediate,
    /// Uniform delay on [0, 2·mean] milliseconds.
    Uniform {
        /// Mean delay, milliseconds.
        mean_ms: f64,
    },
    /// Poisson arrival process: exponentially distributed delay with the
    /// given mean, in milliseconds.
    Poisson {
        /// Mean delay, milliseconds.
        mean_ms: f64,
    },
}

/// splitmix64 finisher: decorrelates consecutive cell indices into
/// independent 64-bit draws (same idiom as `crate::fault::FaultPlan`).
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in [0, 1) for one (seed, cell) pair.
fn unit_draw(seed: u64, index: u64) -> f64 {
    // Domain-separate arrival draws from every other consumer of the seed.
    let z = splitmix(seed ^ 0xA221_7A1C_0DE1_CE11 ^ splitmix(index));
    (z >> 11) as f64 / (1u64 << 53) as f64
}

impl ArrivalProcess {
    /// Parses `"immediate"`, `"uniform:MEAN_MS"` or `"poisson:MEAN_MS"`.
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown kinds or bad means.
    pub fn parse(text: &str) -> Result<ArrivalProcess, String> {
        if text == "immediate" {
            return Ok(ArrivalProcess::Immediate);
        }
        let (kind, mean) = text.split_once(':').ok_or_else(|| {
            format!("arrival `{text}` is not immediate, uniform:MEAN_MS or poisson:MEAN_MS")
        })?;
        let mean_ms: f64 = mean
            .parse()
            .map_err(|_| format!("arrival `{text}`: bad mean `{mean}`"))?;
        if !(mean_ms >= 0.0 && mean_ms.is_finite()) {
            return Err(format!("arrival `{text}`: mean must be finite and >= 0"));
        }
        match kind {
            "uniform" => Ok(ArrivalProcess::Uniform { mean_ms }),
            "poisson" => Ok(ArrivalProcess::Poisson { mean_ms }),
            other => Err(format!(
                "arrival kind `{other}` is not immediate, uniform or poisson"
            )),
        }
    }

    /// The deterministic inter-cell delay before cell `index` starts.
    pub fn delay(&self, seed: u64, index: u64) -> Duration {
        let mean_ms = match self {
            ArrivalProcess::Immediate => return Duration::ZERO,
            ArrivalProcess::Uniform { mean_ms } | ArrivalProcess::Poisson { mean_ms } => *mean_ms,
        };
        if mean_ms <= 0.0 {
            return Duration::ZERO;
        }
        let u = unit_draw(seed, index);
        let ms = match self {
            ArrivalProcess::Uniform { .. } => u * 2.0 * mean_ms,
            // Inverse-CDF sample of Exp(1/mean): the inter-arrival law of a
            // Poisson process.
            ArrivalProcess::Poisson { .. } => -mean_ms * (1.0 - u).ln(),
            ArrivalProcess::Immediate => unreachable!(),
        };
        Duration::from_nanos((ms * 1.0e6) as u64)
    }
}

impl fmt::Display for ArrivalProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrivalProcess::Immediate => write!(f, "immediate"),
            ArrivalProcess::Uniform { mean_ms } => write!(f, "uniform:{mean_ms}"),
            ArrivalProcess::Poisson { mean_ms } => write!(f, "poisson:{mean_ms}"),
        }
    }
}

/// The identity of one cell: which point of the grid it measures.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellId {
    /// Benchmark name.
    pub benchmark: String,
    /// Engine name (`"interp"` / `"jit"`).
    pub engine: String,
    /// Config-variant name (`NxM`).
    pub variant: String,
    /// The cell's experiment seed.
    pub seed: u64,
}

impl CellId {
    /// The canonical rendering, `benchmark/engine/variant/seed` — unique
    /// within a campaign and used as the archive label of the cell's run.
    pub fn canonical(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.benchmark, self.engine, self.variant, self.seed
        )
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.canonical())
    }
}

/// One schedulable unit of a campaign: a fully-resolved experiment.
#[derive(Clone)]
pub struct Cell {
    /// The cell's position in grid-expansion order.
    pub index: usize,
    /// The archive sequence number of the cell's run: the campaign's seq
    /// base plus `index`. [`CampaignSpec::cells`] numbers from 0;
    /// `Campaign::run` numbers from [`CellSink::seq_base`], past every run
    /// the archive already holds, so the newest seq is the newest run.
    pub seq: u64,
    /// What the cell measures.
    pub id: CellId,
    /// The cell's fully-resolved config (`threads` forced to 1 — the
    /// campaign's workers are the unit of parallelism).
    pub config: ExperimentConfig,
    /// The workload to measure.
    pub workload: Workload,
}

// Manual: `Workload` carries source generators, not data.
impl fmt::Debug for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cell")
            .field("index", &self.index)
            .field("id", &self.id.canonical())
            .finish_non_exhaustive()
    }
}

/// How precisely a cell was measured by the adaptive planner: the final
/// sample size, the relative CI half-width it achieved (if a CI existed),
/// and whether that met the campaign's target. Archived alongside the
/// measurement so `rigor history` can show precision attainment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellPrecision {
    /// VM invocations the cell ended with.
    pub invocations_used: u32,
    /// Achieved relative CI half-width of the steady-state mean, if a
    /// confidence interval could be formed.
    pub rel_half_width: Option<f64>,
    /// The target relative half-width the planner was chasing.
    pub target_rel_half_width: f64,
    /// True when `rel_half_width` exists and is at or under the target.
    pub target_met: bool,
}

/// Proof that a cell's measurement reached durable storage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellReceipt {
    /// Content-addressed id of the archived run.
    pub run_id: String,
    /// The run's sequence number in the archive.
    pub seq: u64,
}

/// Where completed cells stream to. Implemented by `rigor-store`'s
/// `SharedStore` (the archive behind a writer lock); [`MemorySink`] is the
/// in-process stand-in for tests.
///
/// Contract: `archive_cell` must be **idempotent** — archiving a cell that
/// is already present returns the existing receipt instead of appending a
/// duplicate — and callers may invoke it from many threads at once.
pub trait CellSink: Send + Sync {
    /// Durably stores a completed cell's measurement and returns its
    /// receipt.
    ///
    /// # Errors
    ///
    /// A human-readable message when the append fails.
    fn archive_cell(
        &self,
        cell: &Cell,
        measurement: &BenchmarkMeasurement,
    ) -> Result<CellReceipt, String>;

    /// The receipt of `cell` if an earlier (possibly killed) campaign
    /// already archived it — the resume authority.
    ///
    /// # Errors
    ///
    /// A human-readable message when the lookup fails.
    fn completed_cell(&self, cell: &Cell) -> Result<Option<CellReceipt>, String>;

    /// Like [`CellSink::archive_cell`], but also records how precisely the
    /// cell was measured. Sinks without a precision side-channel fall back
    /// to plain archiving.
    ///
    /// # Errors
    ///
    /// A human-readable message when the append fails.
    fn archive_cell_precise(
        &self,
        cell: &Cell,
        measurement: &BenchmarkMeasurement,
        precision: &CellPrecision,
    ) -> Result<CellReceipt, String> {
        let _ = precision;
        self.archive_cell(cell, measurement)
    }

    /// The seq of a new campaign's first cell: the archive's next free
    /// sequence number, so the grid's runs are newer than every run
    /// archived before it. Sinks without sequence numbers keep the
    /// default, 0, and number cells by grid index.
    ///
    /// # Errors
    ///
    /// A human-readable message when the archive cannot be read.
    fn seq_base(&self) -> Result<u64, String> {
        Ok(0)
    }

    /// The precision recorded for `cell` by an earlier campaign, if any —
    /// lets a resumed adaptive campaign count invocations already spent.
    /// Sinks without a precision side-channel report `None`.
    ///
    /// # Errors
    ///
    /// A human-readable message when the lookup fails.
    fn completed_precision(&self, cell: &Cell) -> Result<Option<CellPrecision>, String> {
        let _ = cell;
        Ok(None)
    }
}

/// An in-memory [`CellSink`] keyed by cell index; the test stand-in for the
/// on-disk archive.
#[derive(Default)]
pub struct MemorySink {
    cells: Mutex<BTreeMap<usize, (String, BenchmarkMeasurement)>>,
    precisions: Mutex<BTreeMap<usize, CellPrecision>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Completed cells, as (index, canonical id, measurement), in index
    /// order.
    pub fn cells(&self) -> Vec<(usize, String, BenchmarkMeasurement)> {
        self.cells
            .lock()
            .expect("memory sink poisoned")
            .iter()
            .map(|(i, (id, m))| (*i, id.clone(), m.clone()))
            .collect()
    }

    /// How many cells have been archived.
    pub fn len(&self) -> usize {
        self.cells.lock().expect("memory sink poisoned").len()
    }

    /// True when no cell has been archived.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Precision records, as (index, precision), in index order.
    pub fn precisions(&self) -> Vec<(usize, CellPrecision)> {
        self.precisions
            .lock()
            .expect("memory sink poisoned")
            .iter()
            .map(|(i, p)| (*i, p.clone()))
            .collect()
    }
}

impl CellSink for MemorySink {
    fn archive_cell(
        &self,
        cell: &Cell,
        measurement: &BenchmarkMeasurement,
    ) -> Result<CellReceipt, String> {
        let mut cells = self.cells.lock().expect("memory sink poisoned");
        cells
            .entry(cell.index)
            .or_insert_with(|| (cell.id.canonical(), measurement.clone()));
        Ok(CellReceipt {
            run_id: format!("mem-{:016x}", fnv1a(cell.id.canonical().as_bytes())),
            seq: cell.seq,
        })
    }

    fn completed_cell(&self, cell: &Cell) -> Result<Option<CellReceipt>, String> {
        let cells = self.cells.lock().expect("memory sink poisoned");
        Ok(cells.get(&cell.index).map(|_| CellReceipt {
            run_id: format!("mem-{:016x}", fnv1a(cell.id.canonical().as_bytes())),
            seq: cell.seq,
        }))
    }

    fn archive_cell_precise(
        &self,
        cell: &Cell,
        measurement: &BenchmarkMeasurement,
        precision: &CellPrecision,
    ) -> Result<CellReceipt, String> {
        let receipt = self.archive_cell(cell, measurement)?;
        self.precisions
            .lock()
            .expect("memory sink poisoned")
            .entry(cell.index)
            .or_insert_with(|| precision.clone());
        Ok(receipt)
    }

    fn completed_precision(&self, cell: &Cell) -> Result<Option<CellPrecision>, String> {
        let precisions = self.precisions.lock().expect("memory sink poisoned");
        Ok(precisions.get(&cell.index).cloned())
    }
}

/// FNV-1a over `bytes`: a tiny, stable, dependency-free 64-bit digest for
/// campaign fingerprints.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The four axes of a campaign plus the base config every cell inherits.
#[derive(Clone)]
pub struct CampaignSpec {
    /// Benchmark names (must exist in the workload suite).
    pub benchmarks: Vec<String>,
    /// Engines to sweep.
    pub engines: Vec<EngineKind>,
    /// Experiment shapes to sweep.
    pub variants: Vec<ConfigVariant>,
    /// Experiment seeds to sweep.
    pub seeds: Vec<u64>,
    /// Everything the axes don't override: size preset, noise, budgets,
    /// retries, quarantine threshold, confidence — and the campaign seed
    /// driving the arrival process.
    pub base: ExperimentConfig,
    /// Inter-cell pacing model.
    pub arrival: ArrivalProcess,
    /// Adaptive-precision planner; `None` keeps the fixed grid walk.
    pub planner: Option<PlannerConfig>,
}

impl CampaignSpec {
    /// A spec with single-point axes taken from `base`: one benchmark would
    /// still have to be set, but engines/variants/seeds default to the
    /// base config's values.
    pub fn new(base: ExperimentConfig) -> CampaignSpec {
        CampaignSpec {
            benchmarks: Vec::new(),
            engines: vec![base.engine],
            variants: vec![ConfigVariant::of(&base)],
            seeds: vec![base.experiment_seed],
            base,
            arrival: ArrivalProcess::Immediate,
            planner: None,
        }
    }

    /// Sets the benchmark axis (builder style).
    pub fn with_benchmarks<I, S>(mut self, names: I) -> CampaignSpec
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.benchmarks = names.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the engine axis (builder style).
    pub fn with_engines(mut self, engines: Vec<EngineKind>) -> CampaignSpec {
        self.engines = engines;
        self
    }

    /// Sets the config-variant axis (builder style).
    pub fn with_variants(mut self, variants: Vec<ConfigVariant>) -> CampaignSpec {
        self.variants = variants;
        self
    }

    /// Sets the seed axis (builder style).
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> CampaignSpec {
        self.seeds = seeds;
        self
    }

    /// Sets the arrival process (builder style).
    pub fn with_arrival(mut self, arrival: ArrivalProcess) -> CampaignSpec {
        self.arrival = arrival;
        self
    }

    /// Turns on the adaptive-precision planner (builder style).
    pub fn with_planner(mut self, planner: PlannerConfig) -> CampaignSpec {
        self.planner = Some(planner);
        self
    }

    /// The grid size, before expansion.
    pub fn cell_count(&self) -> usize {
        self.benchmarks.len() * self.engines.len() * self.variants.len() * self.seeds.len()
    }

    /// The canonical description the fingerprint hashes: every axis in
    /// order, plus the base facts that change measurement bytes.
    fn canonical_description(&self) -> String {
        let engines: Vec<&str> = self.engines.iter().map(|e| e.name()).collect();
        let variants: Vec<String> = self.variants.iter().map(ConfigVariant::name).collect();
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        let mut description = format!(
            "benchmarks={};engines={};variants={};seeds={};size={:?};\
             campaign_seed={};confidence={};arrival={}",
            self.benchmarks.join(","),
            engines.join(","),
            variants.join(","),
            seeds.join(","),
            self.base.size,
            self.base.experiment_seed,
            self.base.confidence,
            self.arrival,
        );
        // Appended only when adaptive, so fixed-grid fingerprints are
        // byte-identical to those of earlier archive versions.
        if let Some(planner) = &self.planner {
            description.push_str(";planner=");
            description.push_str(&planner.describe());
        }
        description
    }

    /// A stable 16-hex-digit identity of the grid; two specs with the same
    /// axes, size, confidence, campaign seed and arrival share it.
    pub fn fingerprint(&self) -> String {
        format!("{:016x}", fnv1a(self.canonical_description().as_bytes()))
    }

    /// Expands the grid into cells, in the fixed order
    /// benchmarks → engines → variants → seeds (the innermost axis varies
    /// fastest). Every cell's config is validated; `threads` is forced to 1
    /// so the campaign's workers are the only parallelism.
    ///
    /// # Errors
    ///
    /// [`CampaignError::EmptyAxis`] for an empty axis,
    /// [`CampaignError::UnknownBenchmark`] for a name outside the suite,
    /// [`CampaignError::Config`] when a resolved cell config is invalid.
    pub fn cells(&self) -> Result<Vec<Cell>, CampaignError> {
        if self.benchmarks.is_empty() {
            return Err(CampaignError::EmptyAxis("benchmarks"));
        }
        if self.engines.is_empty() {
            return Err(CampaignError::EmptyAxis("engines"));
        }
        if self.variants.is_empty() {
            return Err(CampaignError::EmptyAxis("variants"));
        }
        if self.seeds.is_empty() {
            return Err(CampaignError::EmptyAxis("seeds"));
        }
        let mut cells = Vec::with_capacity(self.cell_count());
        for benchmark in &self.benchmarks {
            let workload = find(benchmark)
                .ok_or_else(|| CampaignError::UnknownBenchmark(benchmark.clone()))?;
            for engine in &self.engines {
                for variant in &self.variants {
                    for &seed in &self.seeds {
                        let id = CellId {
                            benchmark: benchmark.clone(),
                            engine: engine.name().to_string(),
                            variant: variant.name(),
                            seed,
                        };
                        let config = self
                            .base
                            .clone()
                            .with_engine(*engine)
                            .with_invocations(variant.invocations)
                            .with_iterations(variant.iterations)
                            .with_seed(seed)
                            .with_threads(1);
                        config.validate().map_err(|error| CampaignError::Config {
                            cell: id.canonical(),
                            error,
                        })?;
                        cells.push(Cell {
                            index: cells.len(),
                            seq: cells.len() as u64,
                            id,
                            config,
                            workload: workload.clone(),
                        });
                    }
                }
            }
        }
        Ok(cells)
    }
}

/// Identity line of a campaign journal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignJournalMeta {
    /// The campaign's grid fingerprint ([`CampaignSpec::fingerprint`]).
    pub fingerprint: String,
    /// Cells in the grid.
    pub cells: u32,
    /// The seq of grid cell 0 (absent: 0, as journals that predate it
    /// numbered cells by grid index), so a resumed campaign archives its
    /// remaining cells at the seqs an uninterrupted one would.
    #[serde(default)]
    pub seq_base: u64,
}

fn meta_line(meta: &CampaignJournalMeta) -> JsonValue {
    let mut fields = vec![
        ("campaign".to_string(), JsonValue::Str(MAGIC.to_string())),
        ("version".to_string(), VERSION.to_value()),
    ];
    if let JsonValue::Object(meta_fields) = meta.to_value() {
        fields.extend(meta_fields);
    }
    JsonValue::Object(fields)
}

/// One completed-cell line of a campaign journal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellDone {
    /// The cell's grid index.
    pub index: u32,
    /// The cell's canonical id.
    pub id: String,
    /// Content-addressed id of the archived run.
    pub run_id: String,
}

/// Appends completed cells to a campaign journal, one flushed line each —
/// the same crash contract as [`crate::checkpoint::JournalWriter`].
#[derive(Debug)]
pub struct CampaignJournalWriter {
    file: std::fs::File,
    written: u32,
}

impl CampaignJournalWriter {
    /// Creates (truncating) a campaign journal at `path` and writes the
    /// meta line.
    ///
    /// # Errors
    ///
    /// When the file cannot be created or written.
    pub fn create(path: &Path, meta: &CampaignJournalMeta) -> io::Result<CampaignJournalWriter> {
        let mut file = std::fs::File::create(path)?;
        let line = serde_json::to_string(&meta_line(meta))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        writeln!(file, "{line}")?;
        file.flush()?;
        Ok(CampaignJournalWriter { file, written: 0 })
    }

    /// Appends one completed cell; returns the journaled-cell count.
    ///
    /// # Errors
    ///
    /// When the write fails.
    pub fn append_cell(&mut self, done: &CellDone) -> io::Result<u32> {
        let line = JsonValue::Object(vec![("cell".to_string(), done.to_value())]);
        let text = serde_json::to_string(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        writeln!(self.file, "{text}")?;
        // Flush per cell: the whole point is surviving a kill mid-campaign.
        self.file.flush()?;
        self.written += 1;
        Ok(self.written)
    }

    /// Cells journaled so far (meta line excluded).
    pub fn len(&self) -> u32 {
        self.written
    }

    /// True when no cell has been journaled yet.
    pub fn is_empty(&self) -> bool {
        self.written == 0
    }
}

/// A loaded campaign journal: the campaign identity plus every completed
/// cell, keyed by grid index.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignJournal {
    /// Identity of the journaled campaign.
    pub meta: CampaignJournalMeta,
    /// Completed cells, by grid index.
    pub completed: BTreeMap<u32, CellDone>,
    /// True when the file ended in a truncated line (kill mid-write); the
    /// valid prefix above is still usable.
    pub truncated: bool,
}

fn parse_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl CampaignJournal {
    /// Parses campaign-journal text.
    ///
    /// # Errors
    ///
    /// A missing/invalid meta line, an unknown line shape, or garbage
    /// anywhere except a truncated final line.
    pub fn parse(text: &str) -> io::Result<CampaignJournal> {
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let first = lines
            .first()
            .ok_or_else(|| parse_err("empty journal: no meta line"))?;
        let head: JsonValue = serde_json::from_str(first)
            .map_err(|e| parse_err(format!("campaign meta line: {e}")))?;
        let magic: Option<String> = get_field(&head, "campaign").ok();
        if magic.as_deref() != Some(MAGIC) {
            return Err(parse_err(format!(
                "not a campaign journal (missing `\"campaign\":\"{MAGIC}\"` tag)"
            )));
        }
        let version: u32 =
            get_field(&head, "version").map_err(|e| parse_err(format!("journal version: {e}")))?;
        if version != VERSION {
            return Err(parse_err(format!(
                "unsupported campaign-journal version {version} (expected {VERSION})"
            )));
        }
        let meta = CampaignJournalMeta::from_value(&head)
            .map_err(|e| parse_err(format!("campaign meta line: {e}")))?;

        let mut journal = CampaignJournal {
            meta,
            completed: BTreeMap::new(),
            truncated: false,
        };
        for (idx, line) in lines.iter().enumerate().skip(1) {
            let last = idx + 1 == lines.len();
            match CampaignJournal::parse_line(line) {
                Ok(done) => {
                    journal.completed.insert(done.index, done);
                }
                Err(_) if last => {
                    // Kill mid-write: keep the valid prefix.
                    journal.truncated = true;
                }
                Err(e) => return Err(parse_err(format!("journal line {}: {e}", idx + 1))),
            }
        }
        Ok(journal)
    }

    fn parse_line(line: &str) -> Result<CellDone, DeError> {
        let v: JsonValue = serde_json::from_str(line).map_err(|e| DeError::new(e.to_string()))?;
        if v.get("cell").is_some() {
            get_field(&v, "cell")
        } else {
            Err(DeError::new("expected a `cell` line"))
        }
    }

    /// Loads a campaign journal, tolerating the two states a kill can leave
    /// behind besides a parseable file: no file at all, or a file without
    /// one complete meta line. Both mean "nothing was journaled" and return
    /// `Ok(None)`; anything else unparseable is real corruption.
    ///
    /// # Errors
    ///
    /// I/O errors other than not-found, and corruption past the meta line.
    pub fn load_tolerant(path: &Path) -> io::Result<Option<CampaignJournal>> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        // A journal killed before its first newline has no complete line:
        // treat it as never written.
        if !text.contains('\n') {
            return Ok(None);
        }
        CampaignJournal::parse(&text).map(Some)
    }

    /// Checks that this journal belongs to the campaign described by
    /// `fingerprint` over `cells` cells.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first mismatch.
    pub fn check_matches(&self, fingerprint: &str, cells: u32) -> Result<(), String> {
        if self.meta.fingerprint != fingerprint {
            return Err(format!(
                "journal belongs to campaign {}, this grid is {}",
                self.meta.fingerprint, fingerprint
            ));
        }
        if self.meta.cells != cells {
            return Err(format!(
                "journal expects {} cells, this grid has {}",
                self.meta.cells, cells
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigor_workloads::Size;

    fn base() -> ExperimentConfig {
        ExperimentConfig::interp()
            .with_invocations(2)
            .with_iterations(3)
            .with_size(Size::Small)
            .with_seed(7)
    }

    fn spec() -> CampaignSpec {
        CampaignSpec::new(base())
            .with_benchmarks(["sieve", "leibniz"])
            .with_engines(vec![
                EngineKind::Interp,
                EngineKind::Jit(minipy::JitConfig::default()),
            ])
            .with_variants(vec![ConfigVariant::parse("2x3").unwrap()])
            .with_seeds(vec![7, 8])
    }

    #[test]
    fn grid_expands_in_documented_order() {
        let cells = spec().cells().unwrap();
        // 2 benchmarks x 2 engines x 1 variant x 2 seeds.
        assert_eq!(cells.len(), 8);
        let ids: Vec<String> = cells.iter().map(|c| c.id.canonical()).collect();
        assert_eq!(
            ids,
            vec![
                "sieve/interp/2x3/7",
                "sieve/interp/2x3/8",
                "sieve/jit/2x3/7",
                "sieve/jit/2x3/8",
                "leibniz/interp/2x3/7",
                "leibniz/interp/2x3/8",
                "leibniz/jit/2x3/7",
                "leibniz/jit/2x3/8",
            ]
        );
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
            assert_eq!(cell.config.threads, 1, "cells are single-threaded");
            assert_eq!(cell.config.experiment_seed, cell.id.seed);
        }
    }

    #[test]
    fn empty_axes_and_unknown_benchmarks_are_rejected() {
        assert_eq!(
            CampaignSpec::new(base()).cells().unwrap_err(),
            CampaignError::EmptyAxis("benchmarks")
        );
        let s = spec().with_seeds(vec![]);
        assert_eq!(s.cells().unwrap_err(), CampaignError::EmptyAxis("seeds"));
        let s = spec().with_benchmarks(["no_such_benchmark"]);
        assert_eq!(
            s.cells().unwrap_err(),
            CampaignError::UnknownBenchmark("no_such_benchmark".into())
        );
    }

    #[test]
    fn invalid_cell_config_is_rejected_with_its_cell_id() {
        let s = spec().with_variants(vec![ConfigVariant {
            invocations: 0,
            iterations: 3,
        }]);
        match s.cells().unwrap_err() {
            CampaignError::Config { cell, error } => {
                assert_eq!(cell, "sieve/interp/0x3/7");
                assert_eq!(error, ConfigError::ZeroInvocations);
            }
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_is_stable_and_axis_sensitive() {
        assert_eq!(spec().fingerprint(), spec().fingerprint());
        assert_eq!(spec().fingerprint().len(), 16);
        assert_ne!(
            spec().fingerprint(),
            spec().with_seeds(vec![7]).fingerprint()
        );
        assert_ne!(
            spec().fingerprint(),
            spec()
                .with_arrival(ArrivalProcess::Uniform { mean_ms: 1.0 })
                .fingerprint()
        );
    }

    #[test]
    fn variant_parsing() {
        let v = ConfigVariant::parse("4x10").unwrap();
        assert_eq!(v.invocations, 4);
        assert_eq!(v.iterations, 10);
        assert_eq!(v.name(), "4x10");
        assert!(ConfigVariant::parse("4").is_err());
        assert!(ConfigVariant::parse("ax10").is_err());
        assert!(ConfigVariant::parse("4xb").is_err());
    }

    #[test]
    fn arrival_parsing_and_display_roundtrip() {
        for text in ["immediate", "uniform:5", "poisson:2.5"] {
            let a = ArrivalProcess::parse(text).unwrap();
            assert_eq!(a.to_string(), text);
        }
        assert!(ArrivalProcess::parse("gaussian:1").is_err());
        assert!(ArrivalProcess::parse("uniform:-1").is_err());
        assert!(ArrivalProcess::parse("uniform:NaN").is_err());
        assert!(ArrivalProcess::parse("poisson").is_err());
    }

    #[test]
    fn arrival_delays_are_deterministic_and_distributed() {
        let a = ArrivalProcess::Poisson { mean_ms: 2.0 };
        for i in 0..32 {
            assert_eq!(a.delay(7, i), a.delay(7, i), "pure function of inputs");
        }
        assert_ne!(a.delay(7, 0), a.delay(7, 1), "indices decorrelate");
        assert_ne!(a.delay(7, 0), a.delay(8, 0), "seeds decorrelate");
        assert_eq!(
            ArrivalProcess::Immediate.delay(7, 3),
            Duration::ZERO,
            "immediate never delays"
        );
        // A uniform mean of m ms stays under 2m ms.
        let u = ArrivalProcess::Uniform { mean_ms: 1.0 };
        for i in 0..256 {
            assert!(u.delay(7, i) < Duration::from_millis(2));
        }
    }

    #[test]
    fn journal_roundtrips_and_tolerates_torn_tail() {
        let path = std::env::temp_dir().join(format!(
            "rigor-campaign-journal-{}.jsonl",
            std::process::id()
        ));
        let meta = CampaignJournalMeta {
            fingerprint: spec().fingerprint(),
            cells: 8,
            seq_base: 5,
        };
        let mut w = CampaignJournalWriter::create(&path, &meta).unwrap();
        assert!(w.is_empty());
        for i in 0..3u32 {
            let done = CellDone {
                index: i,
                id: format!("cell-{i}"),
                run_id: format!("run-{i}"),
            };
            assert_eq!(w.append_cell(&done).unwrap(), i + 1);
        }
        assert_eq!(w.len(), 3);
        drop(w);

        let j = CampaignJournal::load_tolerant(&path).unwrap().unwrap();
        assert_eq!(j.meta, meta);
        assert_eq!(j.completed.len(), 3);
        assert!(!j.truncated);
        assert!(j.check_matches(&spec().fingerprint(), 8).is_ok());
        assert!(j.check_matches(&spec().fingerprint(), 9).is_err());
        assert!(j.check_matches("0000000000000000", 8).is_err());

        // Tear the final line: the valid prefix survives.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.trim_end().len() - 10]).unwrap();
        let j = CampaignJournal::load_tolerant(&path).unwrap().unwrap();
        assert!(j.truncated);
        assert_eq!(j.completed.len(), 2);

        // A file killed before the meta line completed is "never written".
        std::fs::write(&path, &text[..5]).unwrap();
        assert!(CampaignJournal::load_tolerant(&path).unwrap().is_none());
        std::fs::remove_file(&path).ok();
        assert!(CampaignJournal::load_tolerant(&path).unwrap().is_none());
    }

    #[test]
    fn a_journal_without_a_seq_base_numbers_from_zero() {
        let head = format!(
            "{{\"campaign\":\"{MAGIC}\",\"version\":{VERSION},\"fingerprint\":\"abcd\",\"cells\":2}}"
        );
        let journal = CampaignJournal::parse(&format!("{head}\n")).unwrap();
        assert_eq!(journal.meta.seq_base, 0);
    }

    #[test]
    fn journal_rejects_garbage_and_foreign_files() {
        assert!(CampaignJournal::parse("").is_err());
        assert!(CampaignJournal::parse("{\"foo\":1}\n").is_err());
        let meta = CampaignJournalMeta {
            fingerprint: "abcd".into(),
            cells: 2,
            seq_base: 0,
        };
        let head = serde_json::to_string(&meta_line(&meta)).unwrap();
        let text = format!("{head}\nnot json\n{head}\n");
        assert!(CampaignJournal::parse(&text).is_err());
    }

    #[test]
    fn memory_sink_is_idempotent() {
        let cells = spec().cells().unwrap();
        let sink = MemorySink::new();
        let m = BenchmarkMeasurement {
            benchmark: "sieve".into(),
            engine: "interp".into(),
            invocations: vec![],
            censored: vec![],
            quarantined: false,
        };
        assert!(sink.completed_cell(&cells[0]).unwrap().is_none());
        let a = sink.archive_cell(&cells[0], &m).unwrap();
        let b = sink.archive_cell(&cells[0], &m).unwrap();
        assert_eq!(a, b);
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.completed_cell(&cells[0]).unwrap(), Some(a));
    }
}

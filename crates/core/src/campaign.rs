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
//! - the campaign journal is one identity line (fingerprint, cell count,
//!   seq base), written once per run. Which cells are done is the
//!   archive's to say: a sink hands back what it archived, precision
//!   included, through [`CellSink::completed_cell`].
//!
//! Inter-cell pacing comes from a seeded [`ArrivalProcess`]: delays are a
//! pure function of (campaign seed, cell index), so a campaign replays the
//! same arrival pattern under the same `--seed` regardless of worker count.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

use minipy::EngineKind;
use rigor_workloads::{find, Workload};
use serde::{Deserialize, Serialize};

use crate::config::{ConfigError, ExperimentConfig};
use crate::jsonl::{journal_lines, Header};
use crate::measurement::BenchmarkMeasurement;
use crate::planner::PlannerConfig;

/// The header of a campaign journal's one line.
const HEADER: Header = Header {
    tag: "campaign",
    magic: "rigor-campaign",
    version: 1,
};

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
    /// How precisely the adaptive planner measured the cell: set with the
    /// final config when the cell is archived, `None` on the fixed grid.
    pub precision: Option<CellPrecision>,
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellReceipt {
    /// Content-addressed id of the archived run.
    pub run_id: String,
    /// The run's sequence number in the archive.
    pub seq: u64,
    /// The archived precision record, for a cell of an adaptive campaign:
    /// what a resumed campaign charges the cell at.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub precision: Option<CellPrecision>,
}

/// Where completed cells stream to. Implemented by `rigor-store`'s
/// `SharedStore` (the archive behind a writer lock) and `rigor-serve`'s
/// `RemoteStore`; [`MemorySink`] is the in-process stand-in for tests.
///
/// Contract: `archive_cell` must be **idempotent for the same record** —
/// archiving a cell whose run (same content, so same seq and label) is
/// already present returns the existing receipt instead of appending a
/// duplicate — and callers may invoke it from many threads at once. A cell
/// is its [`Cell::seq`]: a repeat of a campaign, whose cells carry the same
/// labels at new seqs, archives new runs, and a cell whose seq other
/// content holds fails. A sink archives everything the cell carries, its
/// precision included, and its receipts hand that precision back.
pub trait CellSink: Send + Sync {
    /// Durably stores a completed cell's measurement, under the cell's
    /// config and with its precision, and returns its receipt.
    ///
    /// # Errors
    ///
    /// A human-readable message when the append fails.
    fn archive_cell(
        &self,
        cell: &Cell,
        measurement: &BenchmarkMeasurement,
    ) -> Result<CellReceipt, String>;

    /// The receipt of the run at `cell`'s seq, if it carries the cell's
    /// label: the cell as an earlier (possibly killed) run of the same
    /// campaign archived it — the resume authority.
    ///
    /// # Errors
    ///
    /// A human-readable message when the lookup fails.
    fn completed_cell(&self, cell: &Cell) -> Result<Option<CellReceipt>, String>;

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
}

/// A cell as a [`MemorySink`] holds it: canonical id, measurement,
/// precision.
type MemoryCell = (String, BenchmarkMeasurement, Option<CellPrecision>);

/// An in-memory [`CellSink`] keyed by cell index; the test stand-in for the
/// on-disk archive.
#[derive(Default)]
pub struct MemorySink {
    cells: Mutex<BTreeMap<usize, MemoryCell>>,
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
            .map(|(i, (id, m, _))| (*i, id.clone(), m.clone()))
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

    /// Precision records of the cells archived with one, as (index,
    /// precision), in index order.
    pub fn precisions(&self) -> Vec<(usize, CellPrecision)> {
        self.cells
            .lock()
            .expect("memory sink poisoned")
            .iter()
            .filter_map(|(i, (_, _, p))| Some((*i, p.clone()?)))
            .collect()
    }

    /// The receipt of `cell` as held: a digest of its id stands in for a
    /// content id.
    fn receipt(cell: &Cell, (_, _, precision): &MemoryCell) -> CellReceipt {
        CellReceipt {
            run_id: format!("mem-{:016x}", fnv1a(cell.id.canonical().as_bytes())),
            seq: cell.seq,
            precision: precision.clone(),
        }
    }
}

impl CellSink for MemorySink {
    fn archive_cell(
        &self,
        cell: &Cell,
        measurement: &BenchmarkMeasurement,
    ) -> Result<CellReceipt, String> {
        let mut cells = self.cells.lock().expect("memory sink poisoned");
        let held = cells.entry(cell.index).or_insert_with(|| {
            (
                cell.id.canonical(),
                measurement.clone(),
                cell.precision.clone(),
            )
        });
        Ok(MemorySink::receipt(cell, held))
    }

    fn completed_cell(&self, cell: &Cell) -> Result<Option<CellReceipt>, String> {
        let cells = self.cells.lock().expect("memory sink poisoned");
        Ok(cells
            .get(&cell.index)
            .map(|held| MemorySink::receipt(cell, held)))
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
                            precision: None,
                        });
                    }
                }
            }
        }
        Ok(cells)
    }
}

/// A campaign journal: one identity line, written when a run starts, so a
/// resume can refuse another grid and number the remaining cells as the
/// interrupted run did. The archive, not the journal, says which cells are
/// done.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignJournal {
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

fn parse_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl CampaignJournal {
    /// Writes (truncating) the journal at `path`: its one line.
    ///
    /// # Errors
    ///
    /// When the file cannot be written.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, format!("{}\n", HEADER.line(self)))
    }

    /// Parses journal text. `None` when no line is complete: a run killed
    /// before its first newline journaled nothing. Only the first line is
    /// read, so the per-cell lines earlier versions appended are ignored.
    ///
    /// # Errors
    ///
    /// A complete first line that is not a campaign journal's.
    pub fn parse(text: &str) -> io::Result<Option<CampaignJournal>> {
        let (lines, _) = journal_lines(text.as_bytes());
        let Some(&(_, head)) = lines.first() else {
            return Ok(None);
        };
        let head = HEADER
            .check(head)
            .map_err(|e| parse_err(format!("not a campaign journal: {e}")))?;
        CampaignJournal::from_value(&head)
            .map(Some)
            .map_err(|e| parse_err(format!("campaign journal: {e}")))
    }

    /// Loads the journal at `path`; `None` when there is no file, or
    /// nothing complete in it.
    ///
    /// # Errors
    ///
    /// I/O errors other than not-found, and what [`CampaignJournal::parse`]
    /// rejects.
    pub fn load(path: &Path) -> io::Result<Option<CampaignJournal>> {
        match std::fs::read_to_string(path) {
            Ok(text) => CampaignJournal::parse(&text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Checks that this journal belongs to the campaign described by
    /// `fingerprint` over `cells` cells.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first mismatch.
    pub fn check_matches(&self, fingerprint: &str, cells: u32) -> Result<(), String> {
        if self.fingerprint != fingerprint {
            return Err(format!(
                "journal belongs to campaign {}, this grid is {}",
                self.fingerprint, fingerprint
            ));
        }
        if self.cells != cells {
            return Err(format!(
                "journal expects {} cells, this grid has {}",
                self.cells, cells
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
        let journal = CampaignJournal {
            fingerprint: spec().fingerprint(),
            cells: 8,
            seq_base: 5,
        };
        journal.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "the journal is its identity line");
        assert_eq!(CampaignJournal::load(&path).unwrap(), Some(journal.clone()));
        assert!(journal.check_matches(&spec().fingerprint(), 8).is_ok());
        assert!(journal.check_matches(&spec().fingerprint(), 9).is_err());
        assert!(journal.check_matches("0000000000000000", 8).is_err());

        // The per-cell lines earlier versions appended, a torn one among
        // them, are not read.
        let cell_lines =
            "{\"cell\":{\"index\":0,\"id\":\"sieve/interp/2x3/7\",\"run_id\":\"ab\"}}\n\
                          not json\n{\"cell\":{\"ind";
        std::fs::write(&path, format!("{text}{cell_lines}")).unwrap();
        assert_eq!(CampaignJournal::load(&path).unwrap(), Some(journal));

        // A file killed before its line completed, even one whose text
        // parses, and no file at all are "never written".
        std::fs::write(&path, text.trim_end()).unwrap();
        assert!(CampaignJournal::load(&path).unwrap().is_none());
        std::fs::remove_file(&path).ok();
        assert!(CampaignJournal::load(&path).unwrap().is_none());
    }

    #[test]
    fn a_journal_without_a_seq_base_numbers_from_zero() {
        let head = r#"{"campaign":"rigor-campaign","version":1,"fingerprint":"abcd","cells":2}"#;
        let journal = CampaignJournal::parse(&format!("{head}\n"))
            .unwrap()
            .unwrap();
        assert_eq!(journal.seq_base, 0);
    }

    #[test]
    fn journal_rejects_garbage_and_foreign_files() {
        for text in [
            "{\"foo\":1}\n",
            "not json\n",
            "{\"journal\":\"rigor-checkpoint\",\"version\":1}\n",
            "{\"campaign\":\"rigor-campaign\",\"version\":2,\"fingerprint\":\"abcd\",\"cells\":2}\n",
            "{\"campaign\":\"rigor-campaign\",\"version\":1,\"cells\":2}\n",
        ] {
            assert!(CampaignJournal::parse(text).is_err(), "{text}");
        }
        // Nothing complete is nothing journaled, not garbage.
        assert_eq!(CampaignJournal::parse("").unwrap(), None);
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

        // A cell's precision rides into the sink and back out of it.
        let mut precise = cells[1].clone();
        precise.precision = Some(CellPrecision {
            invocations_used: 6,
            rel_half_width: Some(0.01),
            target_rel_half_width: 0.02,
            target_met: true,
        });
        let a = sink.archive_cell(&precise, &m).unwrap();
        assert_eq!(a.precision, precise.precision);
        assert_eq!(sink.archive_cell(&cells[1], &m).unwrap(), a, "replay");
        assert_eq!(sink.completed_cell(&cells[1]).unwrap(), Some(a));
        assert_eq!(sink.precisions().len(), 1);
    }
}

//! # rigor — a rigorous benchmarking and performance-analysis methodology
//! # for Python-like workloads
//!
//! This crate is the primary contribution of the workspace: the methodology
//! of Crapé & Eeckhout (IISWC 2020) reconstructed as a Rust library, running
//! against the [`minipy`] simulated-Python substrate.
//!
//! The pipeline:
//!
//! 1. **Measure** — [`Runner::measure`] runs N fresh VM *invocations* ×
//!    M in-process *iterations* and records every per-iteration virtual time.
//! 2. **Detect steady state** — [`SteadyStateDetector`] excises warmup per
//!    invocation (CoV-window à la Georges et al., or changepoint à la
//!    Barrett et al.); [`WarmupClassifier`] names the series shape.
//! 3. **Analyze** — [`compare`] produces speedups with confidence intervals
//!    over per-invocation steady means; [`decompose`] splits variance into
//!    intra- vs inter-invocation components; [`run_until_precise`] samples
//!    sequentially until a precision target is met.
//! 4. **Audit the shortcuts** — [`NaiveScheme`] emulates the usual
//!    methodological shortcuts so experiments can quantify how wrong they go.
//!
//! 5. **Observe** — [`Runner`] accepts [`ExperimentObserver`]s that stream
//!    typed [`ExperimentEvent`]s (live progress, JSONL traces, collectors)
//!    while an experiment runs; see the [`telemetry`] module.
//! 6. **Survive faults** — invocations run under virtual-time deadlines and
//!    step budgets, failures are retried with fresh seeds and censored into
//!    the measurement's error taxonomy (see [`FailureKind`]), high-failure
//!    benchmarks are quarantined, and completed invocations stream to a
//!    [`checkpoint`] journal that [`Runner::resume`] replays bit-for-bit.
//!    The [`fault`] module injects deterministic faults to test all of it.
//! 7. **Gate** — [`check_regressions`] compares the current run against a
//!    baseline drawn from history (see the `rigor-store` archive crate),
//!    controlling the suite-wide false-alarm rate with the corrections in
//!    `rigor_stats::fdr`.
//! 8. **Watch trends** — [`analyze_trends`] segments each benchmark's whole
//!    archived history into level shifts ([`trend`]), with bootstrap CIs on
//!    every segment and shift magnitude and corrected significance across
//!    benchmarks × changepoints, alerting when HEAD just shifted.
//! 9. **Orchestrate fleets** — a [`CampaignSpec`] names an explicit cell
//!    grid (benchmarks × engines × config variants × seeds) that
//!    [`Campaign`] executes on a worker pool in grid order, streaming every
//!    completed [`Cell`] into a [`CellSink`] (the `rigor-store` archive)
//!    and a per-cell journal, so a killed campaign resumes exactly at its
//!    first incomplete cell; see the [`campaign`] and [`orchestrator`]
//!    modules.
//!
//! ```rust
//! use rigor::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sieve = find("sieve").expect("in the suite");
//! let small = |cfg: ExperimentConfig| {
//!     cfg.with_invocations(4).with_iterations(20).with_size(Size::Small)
//! };
//! let interp = Runner::new(small(ExperimentConfig::interp()))?.measure(&sieve)?;
//! let jit = Runner::new(small(ExperimentConfig::jit()))?.measure(&sieve)?;
//! let result = compare(&interp, &jit, &SteadyStateDetector::default(), 0.95)?;
//! println!("sieve speedup: {:.2}x", result.speedup.estimate);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod checkpoint;
pub mod compare;
pub mod config;
pub mod export;
pub mod fault;
pub mod jsonl;
pub mod measurement;
pub mod naive;
pub mod orchestrator;
pub mod planner;
mod pool;
pub mod regress;
pub mod report;
pub mod runner;
pub mod sequential;
pub mod steady;
pub mod telemetry;
pub mod trend;
pub mod variance;
pub mod verify;
pub mod warmup;

pub use campaign::{
    ArrivalProcess, CampaignError, CampaignJournal, CampaignSpec, Cell, CellId, CellPrecision,
    CellReceipt, CellSink, ConfigVariant, MemorySink,
};
pub use checkpoint::{Journal, JournalMeta, JournalWriter};
pub use compare::{compare, compare_suite, CompareError, SpeedupResult, SuiteComparison};
pub use config::{ConfigError, ExperimentConfig};
pub use export::{from_csv, from_json, from_json_value, to_csv, to_json, SCHEMA_VERSION};
pub use fault::{FaultPlan, InjectedFault, NetFault, NetFaultPlan};
pub use measurement::{
    BenchmarkMeasurement, CensoredInvocation, FailureKind, InvocationRecord, IterationCounters,
};
pub use naive::{
    all_schemes, evaluate_scheme, verdict_from_ci, verdict_from_point, NaiveEvaluation,
    NaiveScheme, Verdict,
};
pub use orchestrator::{Campaign, CampaignReport};
pub use planner::{compute_plan, CellEstimate, Plan, PlannerConfig, RefineTask};
pub use regress::{
    check_regressions, pool_measurements, BenchmarkGate, Correction, GatePolicy, GateReport,
    GateStatus,
};
pub use report::{fmt_ci, fmt_ns, fmt_pct, sparkline, Table};
pub use runner::Runner;
pub use sequential::{precision_of, run_until_precise, SequentialPlan, SequentialResult};
pub use steady::{
    common_steady_start, per_invocation_steady_means, SteadyState, SteadyStateDetector,
};
pub use telemetry::{
    parse_trace, CollectingObserver, ExperimentEvent, ExperimentObserver, JsonlTraceObserver,
    NullObserver, ParsedTrace, ProgressObserver,
};
pub use trend::{
    analyze_trend, analyze_trends, BenchmarkTrend, Changepoint, Penalty, ShiftDirection,
    TrendConfig, TrendPoint, TrendReport, TrendSegment, TrendStatus,
};
pub use variance::{decompose, VarianceDecomposition};
pub use verify::{execute_all, run_grid};
pub use warmup::{aggregate_classes, BenchmarkWarmupClass, WarmupClass, WarmupClassifier};

/// One-stop imports for the common measure → detect → compare pipeline,
/// including the workload suite: `use rigor::prelude::*;`.
pub mod prelude {
    pub use crate::campaign::{ArrivalProcess, CampaignSpec, CellSink, ConfigVariant};
    pub use crate::compare::{compare, compare_suite, SpeedupResult};
    pub use crate::config::ConfigError;
    pub use crate::config::ExperimentConfig;
    pub use crate::measurement::{BenchmarkMeasurement, InvocationRecord, IterationCounters};
    pub use crate::orchestrator::{Campaign, CampaignReport};
    pub use crate::report::Table;
    pub use crate::runner::Runner;
    pub use crate::steady::SteadyStateDetector;
    pub use crate::telemetry::{
        CollectingObserver, ExperimentEvent, ExperimentObserver, JsonlTraceObserver,
        ProgressObserver,
    };
    pub use crate::warmup::WarmupClassifier;
    pub use rigor_workloads::{find, suite, Size, Workload};
}

//! Measurement data model: per-iteration timings across invocations, plus
//! the error taxonomy that keeps partial experiments honest: every requested
//! invocation ends up either *measured* (an [`InvocationRecord`], possibly
//! after retries) or *censored* (a [`CensoredInvocation`] that exhausted its
//! retries), and a benchmark whose censoring rate passes the quarantine
//! threshold is flagged so its statistics are never silently trusted.

use serde::{Deserialize, Serialize};

/// The VM events of one timed iteration: the counters that explain an
/// anomalous timing (a GC pause, a JIT compile, a deoptimization storm).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IterationCounters {
    /// GC cycles during this iteration.
    pub gc_cycles: u64,
    /// JIT regions compiled during this iteration.
    pub jit_compiles: u64,
    /// Guard failures during this iteration.
    pub deopts: u64,
}

impl From<minipy::VmEventDeltas> for IterationCounters {
    fn from(d: minipy::VmEventDeltas) -> IterationCounters {
        IterationCounters {
            gc_cycles: d.gc_cycles,
            jit_compiles: d.jit_compiles,
            deopts: d.deopts,
        }
    }
}

/// Classification of why an invocation attempt failed — the error taxonomy
/// exports carry so downstream analysis can distinguish a workload that
/// diverged (budget exhaustion, a *censoring* event) from one that crashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FailureKind {
    /// The virtual-time deadline passed (`RuntimeErrorKind::Timeout`).
    Timeout,
    /// The opcode budget ran out (`RuntimeErrorKind::FuelExhausted`).
    FuelExhausted,
    /// The worker panicked (a VM bug, or an injected fault).
    Panic,
    /// Any other VM runtime error (type errors, overflow, ...).
    VmError,
}

impl FailureKind {
    /// Classifies a minipy error. Panics are classified by the runner before
    /// they reach an `MpError`, so `Internal` here means a VM-reported panic.
    pub fn classify(err: &minipy::MpError) -> FailureKind {
        match err.runtime_kind() {
            Some(minipy::RuntimeErrorKind::Timeout) => FailureKind::Timeout,
            Some(minipy::RuntimeErrorKind::FuelExhausted) => FailureKind::FuelExhausted,
            Some(minipy::RuntimeErrorKind::Internal) => FailureKind::Panic,
            _ => FailureKind::VmError,
        }
    }

    /// The stable wire name (`"timeout"`, `"fuel_exhausted"`, `"panic"`,
    /// `"vm_error"`), also used as the status column in CSV exports.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Timeout => "timeout",
            FailureKind::FuelExhausted => "fuel_exhausted",
            FailureKind::Panic => "panic",
            FailureKind::VmError => "vm_error",
        }
    }

    /// True when the workload was stopped by a budget rather than failing.
    pub fn is_budget_exhaustion(self) -> bool {
        matches!(self, FailureKind::Timeout | FailureKind::FuelExhausted)
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An invocation that never produced a measurement: every attempt (initial
/// plus retries) failed, so its slot in the experiment is censored rather
/// than silently dropped — Traini et al.'s requirement that partial runs
/// still yield interpretable data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CensoredInvocation {
    /// Invocation index within the experiment.
    pub invocation: u32,
    /// Total attempts made (1 initial + retries).
    pub attempts: u32,
    /// Classification of the final failure.
    pub failure: FailureKind,
    /// The final attempt's error message.
    pub error: String,
}

/// Everything recorded about one VM invocation of a benchmark.
///
/// The wire format stays stable as fault-tolerance fields are added:
/// `attempts` is omitted when 1 and defaults to 1 on read, so records
/// written before retries existed stay readable and clean-run JSON is
/// byte-identical to the pre-retry format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InvocationRecord {
    /// Invocation index within the experiment.
    pub invocation: u32,
    /// The derived invocation seed (for replay).
    pub seed: u64,
    /// Startup (compile + module setup) virtual time, ns.
    pub startup_ns: f64,
    /// Per-iteration virtual times, ns.
    pub iteration_ns: Vec<f64>,
    /// GC cycles observed during the timed iterations.
    pub gc_cycles: u64,
    /// JIT regions compiled during the timed iterations.
    pub jit_compiles: u64,
    /// Guard failures during the timed iterations.
    pub deopts: u64,
    /// The checksum `run()` returned (rendered), for cross-engine validation.
    pub checksum: String,
    /// Per-iteration VM event deltas, aligned with `iteration_ns`. `None`
    /// for measurements recorded before this field existed (old JSON stays
    /// readable) or synthesized without a VM.
    pub iteration_counters: Option<Vec<IterationCounters>>,
    /// Attempts this measurement took (1 = first try; >1 = it was retried
    /// with fresh seeds after earlier failures).
    #[serde(default = "one", skip_serializing_if = "is_one")]
    pub attempts: u32,
}

fn one() -> u32 {
    1
}

fn is_one(n: &u32) -> bool {
    *n == 1
}

/// All invocations of one benchmark on one engine, measured and censored.
///
/// Same stability contract as [`InvocationRecord`]: `censored` is omitted
/// when empty and `quarantined` when false, so clean-run JSON matches the
/// pre-fault-tolerance format and old files read back with the defaults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkMeasurement {
    /// Benchmark name.
    pub benchmark: String,
    /// Engine name (`"interp"` / `"jit"`).
    pub engine: String,
    /// One record per *measured* invocation, in invocation order.
    pub invocations: Vec<InvocationRecord>,
    /// Invocations that exhausted their retries, in invocation order.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub censored: Vec<CensoredInvocation>,
    /// True when the censored fraction exceeded the configured quarantine
    /// threshold: the statistics below are computed but untrustworthy.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub quarantined: bool,
}

impl BenchmarkMeasurement {
    /// Number of *measured* invocations.
    pub fn n_invocations(&self) -> usize {
        self.invocations.len()
    }

    /// Number of invocations requested: measured plus censored.
    pub fn n_requested(&self) -> usize {
        self.invocations.len() + self.censored.len()
    }

    /// Fraction of requested invocations that ended censored (0.0 when the
    /// experiment was empty).
    pub fn censoring_rate(&self) -> f64 {
        let total = self.n_requested();
        if total == 0 {
            0.0
        } else {
            self.censored.len() as f64 / total as f64
        }
    }

    /// Measured invocations that needed at least one retry.
    pub fn n_retried(&self) -> usize {
        self.invocations.iter().filter(|r| r.attempts > 1).count()
    }

    /// Iterations per invocation (0 when empty).
    pub fn n_iterations(&self) -> usize {
        self.invocations
            .first()
            .map(|r| r.iteration_ns.len())
            .unwrap_or(0)
    }

    /// Per-invocation iteration series.
    pub fn series(&self) -> impl Iterator<Item = &[f64]> {
        self.invocations.iter().map(|r| r.iteration_ns.as_slice())
    }

    /// Mean of iterations `start..` for each invocation — the per-invocation
    /// sample the methodology feeds into confidence intervals. `start` is
    /// typically a steady-state iteration found by a detector.
    pub fn tail_means(&self, start: usize) -> Vec<f64> {
        self.invocations
            .iter()
            .filter_map(|r| {
                let tail = r.iteration_ns.get(start..)?;
                if tail.is_empty() {
                    None
                } else {
                    Some(tail.iter().sum::<f64>() / tail.len() as f64)
                }
            })
            .collect()
    }

    /// Mean of **all** iterations per invocation (warmup included) — what a
    /// methodology that ignores warmup would use.
    pub fn all_means(&self) -> Vec<f64> {
        self.tail_means(0)
    }

    /// The `idx`-th iteration time from each invocation.
    pub fn iteration_column(&self, idx: usize) -> Vec<f64> {
        self.invocations
            .iter()
            .filter_map(|r| r.iteration_ns.get(idx).copied())
            .collect()
    }

    /// Mean per-iteration series across invocations (pointwise), useful for
    /// plotting average warmup curves.
    pub fn mean_curve(&self) -> Vec<f64> {
        let n_iter = self.n_iterations();
        (0..n_iter)
            .map(|i| {
                let col = self.iteration_column(i);
                col.iter().sum::<f64>() / col.len().max(1) as f64
            })
            .collect()
    }

    /// True if all invocations produced the same checksum (they must, for a
    /// deterministic benchmark; dict-order-dependent benchmarks that violate
    /// this are a methodology smell this accessor exposes).
    pub fn checksums_consistent(&self) -> bool {
        match self.invocations.first() {
            None => true,
            Some(first) => self
                .invocations
                .iter()
                .all(|r| r.checksum == first.checksum),
        }
    }

    /// Per-invocation startup (compile + module setup) times, ns — the
    /// "python -c pass" axis of Python benchmarking: startup is measured
    /// across invocations exactly like steady-state time, never from one run.
    pub fn startup_times(&self) -> Vec<f64> {
        self.invocations.iter().map(|r| r.startup_ns).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(invocation: u32, times: Vec<f64>) -> InvocationRecord {
        InvocationRecord {
            invocation,
            seed: invocation as u64,
            startup_ns: 100.0,
            iteration_ns: times,
            gc_cycles: 0,
            jit_compiles: 0,
            deopts: 0,
            checksum: "42".into(),
            iteration_counters: None,
            attempts: 1,
        }
    }

    fn measurement() -> BenchmarkMeasurement {
        BenchmarkMeasurement {
            benchmark: "x".into(),
            engine: "interp".into(),
            invocations: vec![
                record(0, vec![10.0, 4.0, 4.0, 4.0]),
                record(1, vec![12.0, 6.0, 6.0, 6.0]),
            ],
            censored: Vec::new(),
            quarantined: false,
        }
    }

    #[test]
    fn dimensions() {
        let m = measurement();
        assert_eq!(m.n_invocations(), 2);
        assert_eq!(m.n_iterations(), 4);
    }

    #[test]
    fn tail_means_skip_warmup() {
        let m = measurement();
        assert_eq!(m.tail_means(1), vec![4.0, 6.0]);
        assert_eq!(m.all_means(), vec![5.5, 7.5]);
        // Start beyond the series yields nothing.
        assert!(m.tail_means(10).is_empty());
    }

    #[test]
    fn iteration_column_and_mean_curve() {
        let m = measurement();
        assert_eq!(m.iteration_column(0), vec![10.0, 12.0]);
        assert_eq!(m.mean_curve(), vec![11.0, 5.0, 5.0, 5.0]);
    }

    #[test]
    fn checksum_consistency() {
        let mut m = measurement();
        assert!(m.checksums_consistent());
        m.invocations[1].checksum = "43".into();
        assert!(!m.checksums_consistent());
    }

    #[test]
    fn startup_times_are_per_invocation() {
        let m = measurement();
        assert_eq!(m.startup_times(), vec![100.0, 100.0]);
    }

    #[test]
    fn serde_roundtrip() {
        let m = measurement();
        let json = serde_json::to_string(&m).unwrap();
        let back: BenchmarkMeasurement = serde_json::from_str(&json).unwrap();
        assert_eq!(back.n_invocations(), 2);
        assert_eq!(
            back.invocations[0].iteration_ns,
            m.invocations[0].iteration_ns
        );
    }

    #[test]
    fn clean_run_json_omits_fault_fields() {
        let json = serde_json::to_string(&measurement()).unwrap();
        assert!(!json.contains("censored"));
        assert!(!json.contains("quarantined"));
        assert!(!json.contains("attempts"));
    }

    #[test]
    fn pre_fault_tolerance_json_still_deserializes() {
        // JSON written before attempts/censored/quarantined existed.
        let json = "{\"benchmark\":\"x\",\"engine\":\"interp\",\"invocations\":[\
                    {\"invocation\":0,\"seed\":1,\"startup_ns\":5.0,\
                    \"iteration_ns\":[1.0,2.0],\"gc_cycles\":0,\"jit_compiles\":0,\
                    \"deopts\":0,\"checksum\":\"9\"}]}";
        let m: BenchmarkMeasurement = serde_json::from_str(json).unwrap();
        assert_eq!(m.invocations[0].attempts, 1);
        assert!(m.censored.is_empty());
        assert!(!m.quarantined);
    }

    #[test]
    fn censored_and_retried_roundtrip() {
        let mut m = measurement();
        m.invocations[1].attempts = 3;
        m.censored.push(CensoredInvocation {
            invocation: 2,
            attempts: 2,
            failure: FailureKind::Timeout,
            error: "TimeoutError: deadline passed".into(),
        });
        m.quarantined = true;
        let json = serde_json::to_string(&m).unwrap();
        let back: BenchmarkMeasurement = serde_json::from_str(&json).unwrap();
        assert_eq!(back.invocations[1].attempts, 3);
        assert_eq!(back.censored, m.censored);
        assert!(back.quarantined);
        assert_eq!(back.n_requested(), 3);
        assert_eq!(back.n_retried(), 1);
        assert!((back.censoring_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn failure_kind_taxonomy() {
        use minipy::{MpError, RuntimeErrorKind};
        let timeout = MpError::runtime(RuntimeErrorKind::Timeout, "late");
        let fuel = MpError::runtime(RuntimeErrorKind::FuelExhausted, "dry");
        let panic = MpError::runtime(RuntimeErrorKind::Internal, "boom");
        let name = MpError::name_error("x");
        assert_eq!(FailureKind::classify(&timeout), FailureKind::Timeout);
        assert_eq!(FailureKind::classify(&fuel), FailureKind::FuelExhausted);
        assert_eq!(FailureKind::classify(&panic), FailureKind::Panic);
        assert_eq!(FailureKind::classify(&name), FailureKind::VmError);
        assert!(FailureKind::Timeout.is_budget_exhaustion());
        assert!(!FailureKind::Panic.is_budget_exhaustion());
        for kind in [
            FailureKind::Timeout,
            FailureKind::FuelExhausted,
            FailureKind::Panic,
            FailureKind::VmError,
        ] {
            let json = serde_json::to_string(&kind).unwrap();
            let back: FailureKind = serde_json::from_str(&json).unwrap();
            assert_eq!(back, kind);
        }
    }
}

//! Regression gating: compare the current run against a baseline drawn
//! from history, benchmark by benchmark, with multiple-comparison control.
//!
//! The gate reuses the rigorous machinery the rest of the crate is built
//! on — steady-state excision, per-invocation means, bootstrap speedup CIs,
//! Welch's t — and adds the one ingredient a *suite* gate needs that a
//! single comparison does not: corrected p-values ([`rigor_stats::fdr`]),
//! so a 20-benchmark suite does not false-alarm weekly. A benchmark only
//! fails the gate when it is significant **after** correction, slower, and
//! slower by more than the configured tolerance.
//!
//! Everything here is pure data-in/data-out over [`BenchmarkMeasurement`]
//! slices; selecting the baseline out of an on-disk archive lives in the
//! `rigor-store` crate, which depends on this one.

use rigor_stats::fdr;
use serde::json::{DeError, JsonValue};
use serde::{Deserialize, Serialize};

use crate::compare::{compare, SpeedupResult};
use crate::measurement::BenchmarkMeasurement;
use crate::steady::SteadyStateDetector;

/// Which multiple-comparison correction the gate applies across the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum Correction {
    /// Benjamini–Hochberg: controls the false-discovery rate. The default —
    /// its power does not collapse as the suite grows.
    #[default]
    #[serde(rename = "bh")]
    BenjaminiHochberg,
    /// Holm–Bonferroni: controls the family-wise error rate. Stricter;
    /// use when even one false rejection is unacceptable.
    #[serde(rename = "holm")]
    HolmBonferroni,
}

impl Correction {
    /// Stable wire/CLI name: `"bh"` or `"holm"`.
    pub fn name(self) -> &'static str {
        match self {
            Correction::BenjaminiHochberg => "bh",
            Correction::HolmBonferroni => "holm",
        }
    }

    /// Parses a CLI spelling (`bh`, `benjamini-hochberg`, `fdr`, `holm`,
    /// `holm-bonferroni`, `fwer`).
    pub fn parse(s: &str) -> Option<Correction> {
        match s.to_ascii_lowercase().as_str() {
            "bh" | "benjamini-hochberg" | "fdr" => Some(Correction::BenjaminiHochberg),
            "holm" | "holm-bonferroni" | "fwer" => Some(Correction::HolmBonferroni),
            _ => None,
        }
    }

    /// Adjusted p-values for this correction, in input order.
    pub fn adjust(self, ps: &[f64]) -> Vec<f64> {
        match self {
            Correction::BenjaminiHochberg => fdr::bh_adjusted(ps),
            Correction::HolmBonferroni => fdr::holm_adjusted(ps),
        }
    }
}

// Written as its name; read in any spelling `Correction::parse` takes, so
// a request body may spell it as the command line does.
impl Deserialize for Correction {
    fn from_value(v: &JsonValue) -> Result<Correction, DeError> {
        let name = String::from_value(v)?;
        Correction::parse(&name).ok_or_else(|| DeError::new(format!("unknown correction `{name}`")))
    }
}

impl std::fmt::Display for Correction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tuning of the regression gate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GatePolicy {
    /// Confidence level for the per-benchmark speedup intervals.
    pub confidence: f64,
    /// Significance level applied to *corrected* p-values (the FDR level
    /// `q` under Benjamini–Hochberg, the FWER `α` under Holm).
    pub fdr_q: f64,
    /// Which correction to apply across the suite.
    pub correction: Correction,
    /// Slowdown fraction tolerated even when statistically significant
    /// (e.g. `0.02` lets a benchmark be up to 2% slower). A significant
    /// slowdown inside the tolerance passes, with a note.
    pub max_regression: f64,
}

impl Default for GatePolicy {
    fn default() -> Self {
        GatePolicy {
            confidence: 0.95,
            fdr_q: 0.05,
            correction: Correction::default(),
            max_regression: 0.0,
        }
    }
}

impl GatePolicy {
    /// Sets the CI confidence level (builder style).
    pub fn with_confidence(mut self, confidence: f64) -> Self {
        self.confidence = confidence;
        self
    }

    /// Sets the corrected significance level (builder style).
    pub fn with_fdr_q(mut self, q: f64) -> Self {
        self.fdr_q = q;
        self
    }

    /// Sets the correction procedure (builder style).
    pub fn with_correction(mut self, correction: Correction) -> Self {
        self.correction = correction;
        self
    }

    /// Sets the tolerated slowdown fraction (builder style).
    pub fn with_max_regression(mut self, frac: f64) -> Self {
        self.max_regression = frac;
        self
    }
}

/// Per-benchmark verdict of the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum GateStatus {
    /// No significant change (or a significant slowdown inside the
    /// tolerance).
    Pass,
    /// Significantly *faster* than the baseline.
    Improved,
    /// Significantly slower than the baseline by more than the tolerance:
    /// this is what makes the gate fail.
    Regressed,
    /// No rigorous verdict was possible (missing baseline, quarantined
    /// data, no steady state, too few invocations). Deliberately does
    /// **not** fail the gate — but is always surfaced, never hidden.
    Indeterminate,
}

impl GateStatus {
    /// Stable wire name (`"pass"`, `"improved"`, `"regressed"`,
    /// `"indeterminate"`).
    pub fn name(self) -> &'static str {
        match self {
            GateStatus::Pass => "pass",
            GateStatus::Improved => "improved",
            GateStatus::Regressed => "regressed",
            GateStatus::Indeterminate => "indeterminate",
        }
    }
}

/// One benchmark's gate outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchmarkGate {
    /// Benchmark name.
    pub benchmark: String,
    /// The verdict.
    pub status: GateStatus,
    /// The underlying rigorous comparison (baseline vs. current), when one
    /// was possible. Speedup > 1 means the current run is *faster*.
    pub result: Option<SpeedupResult>,
    /// The p-value after suite-wide correction (`None` when no test was
    /// possible).
    pub p_adjusted: Option<f64>,
    /// Human-readable context: why a verdict is indeterminate, or that a
    /// significant slowdown fell inside the tolerance.
    pub note: Option<String>,
}

impl BenchmarkGate {
    /// Relative time change of the current run vs. baseline
    /// (`cand_mean / base_mean − 1`; positive = slower), when comparable.
    pub fn change_frac(&self) -> Option<f64> {
        let r = self.result.as_ref()?;
        if r.base_mean_ns > 0.0 {
            Some(r.cand_mean_ns / r.base_mean_ns - 1.0)
        } else {
            None
        }
    }

    fn indeterminate(benchmark: &str, note: impl Into<String>) -> BenchmarkGate {
        BenchmarkGate {
            benchmark: benchmark.to_string(),
            status: GateStatus::Indeterminate,
            result: None,
            p_adjusted: None,
            note: Some(note.into()),
        }
    }
}

/// The whole suite's gate outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GateReport {
    /// The policy the gate ran under.
    pub policy: GatePolicy,
    /// Per-benchmark verdicts, in input order.
    pub benchmarks: Vec<BenchmarkGate>,
}

impl GateReport {
    /// The benchmarks that regressed (what the exit code is made of).
    pub fn regressed(&self) -> Vec<&BenchmarkGate> {
        self.benchmarks
            .iter()
            .filter(|b| b.status == GateStatus::Regressed)
            .collect()
    }

    /// True when no benchmark regressed. Indeterminate verdicts do not
    /// fail the gate.
    pub fn passed(&self) -> bool {
        self.regressed().is_empty()
    }
}

/// Pools several runs' measurements into one sample per benchmark and
/// engine: for each (benchmark, engine) pair (in order of first
/// appearance), the invocations of every run are concatenated and
/// reindexed, censored invocations accumulate, and the pool is quarantined
/// if any contributing run was. This is how a `last-N` baseline widens its
/// invocation sample beyond a single run without pooling one engine's
/// invocations into another's.
pub fn pool_measurements(runs: &[&[BenchmarkMeasurement]]) -> Vec<BenchmarkMeasurement> {
    let mut pooled: Vec<BenchmarkMeasurement> = Vec::new();
    for run in runs {
        for m in *run {
            let slot = match pooled
                .iter_mut()
                .find(|p| p.benchmark == m.benchmark && p.engine == m.engine)
            {
                Some(p) => p,
                None => {
                    pooled.push(BenchmarkMeasurement {
                        benchmark: m.benchmark.clone(),
                        engine: m.engine.clone(),
                        invocations: Vec::new(),
                        censored: Vec::new(),
                        quarantined: false,
                    });
                    pooled.last_mut().expect("just pushed")
                }
            };
            for r in &m.invocations {
                let mut r = r.clone();
                r.invocation = slot.invocations.len() as u32;
                slot.invocations.push(r);
            }
            for c in &m.censored {
                let mut c = c.clone();
                c.invocation = (slot.invocations.len() + slot.censored.len()) as u32;
                slot.censored.push(c);
            }
            slot.quarantined |= m.quarantined;
        }
    }
    pooled
}

/// On bit-identical deterministic runs every invocation mean is equal, the
/// Welch test degenerates (zero variance → no t statistic → NaN), and the
/// bootstrap CI collapses to a point. Resolve the NaN from the collapsed
/// interval: a point CI at 1.0 is the strongest possible "no change"
/// (p → 1), a point CI away from 1.0 the strongest possible "changed"
/// (p → 0).
fn effective_p(r: &SpeedupResult) -> f64 {
    if r.p_value.is_nan() {
        if r.speedup.excludes(1.0) {
            0.0
        } else {
            1.0
        }
    } else {
        r.p_value
    }
}

/// Runs the regression gate: `current` vs. `baseline`, benchmark by
/// benchmark, with suite-wide multiple-comparison correction.
///
/// Each benchmark is gated against the baseline entry of the same name and
/// engine. Only when the baseline holds no entry on that engine does it
/// fall back to the first entry of the name, so a baseline measured on
/// another engine still gates (that is exactly what a "JIT accidentally
/// disabled" regression looks like), while a baseline holding both
/// engines never gates one against the other.
/// Benchmarks with no usable verdict come back [`GateStatus::Indeterminate`]
/// rather than silently vanishing, and do not fail the gate.
pub fn check_regressions(
    baseline: &[BenchmarkMeasurement],
    current: &[BenchmarkMeasurement],
    detector: &SteadyStateDetector,
    policy: &GatePolicy,
) -> GateReport {
    let mut gates: Vec<BenchmarkGate> = Vec::with_capacity(current.len());
    // Indices into `gates` that produced a testable p-value, with it.
    let mut testable: Vec<(usize, f64)> = Vec::new();

    for m in current {
        let same_name = || baseline.iter().filter(|b| b.benchmark == m.benchmark);
        let Some(base) = same_name()
            .find(|b| b.engine == m.engine)
            .or_else(|| same_name().next())
        else {
            gates.push(BenchmarkGate::indeterminate(
                &m.benchmark,
                "no baseline data for this benchmark",
            ));
            continue;
        };
        if base.quarantined || m.quarantined {
            let side = if base.quarantined {
                "baseline"
            } else {
                "current"
            };
            gates.push(BenchmarkGate::indeterminate(
                &m.benchmark,
                format!("{side} measurement is quarantined"),
            ));
            continue;
        }
        match compare(base, m, detector, policy.confidence) {
            Ok(result) => {
                testable.push((gates.len(), effective_p(&result)));
                gates.push(BenchmarkGate {
                    benchmark: m.benchmark.clone(),
                    status: GateStatus::Pass, // refined below
                    result: Some(result),
                    p_adjusted: None,
                    note: None,
                });
            }
            Err(e) => gates.push(BenchmarkGate::indeterminate(&m.benchmark, e.to_string())),
        }
    }

    let raw: Vec<f64> = testable.iter().map(|&(_, p)| p).collect();
    let adjusted = policy.correction.adjust(&raw);
    for (&(idx, _), adj) in testable.iter().zip(adjusted) {
        let gate = &mut gates[idx];
        gate.p_adjusted = Some(adj);
        let significant = adj <= policy.fdr_q;
        let change = gate.change_frac().unwrap_or(0.0);
        gate.status = if significant && change > policy.max_regression {
            GateStatus::Regressed
        } else if significant && change < 0.0 {
            GateStatus::Improved
        } else {
            if significant && change > 0.0 {
                gate.note = Some(format!(
                    "significant slowdown of {:.2}% is within the {:.2}% tolerance",
                    change * 100.0,
                    policy.max_regression * 100.0
                ));
            }
            GateStatus::Pass
        };
    }

    GateReport {
        policy: policy.clone(),
        benchmarks: gates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::InvocationRecord;

    /// Flat series at `level` with small per-invocation offsets (borrowed
    /// from the compare tests) so the statistics have variance to chew on.
    fn flat(
        name: &str,
        engine: &str,
        level: f64,
        n_inv: usize,
        n_iter: usize,
    ) -> BenchmarkMeasurement {
        let invocations = (0..n_inv)
            .map(|i| {
                let offset = 1.0 + (i as f64 - n_inv as f64 / 2.0) * 0.004;
                InvocationRecord {
                    invocation: i as u32,
                    seed: i as u64,
                    startup_ns: 0.0,
                    iteration_ns: (0..n_iter)
                        .map(|j| level * offset * (1.0 + (j % 3) as f64 * 0.001))
                        .collect(),
                    gc_cycles: 0,
                    jit_compiles: 0,
                    deopts: 0,
                    checksum: String::new(),
                    iteration_counters: None,
                    attempts: 1,
                }
            })
            .collect();
        BenchmarkMeasurement {
            benchmark: name.into(),
            engine: engine.into(),
            invocations,
            censored: Vec::new(),
            quarantined: false,
        }
    }

    fn detector() -> SteadyStateDetector {
        SteadyStateDetector::default()
    }

    #[test]
    fn unchanged_suite_passes() {
        let baseline = vec![
            flat("a", "interp", 100.0, 8, 20),
            flat("b", "interp", 50.0, 8, 20),
        ];
        let mut current = baseline.clone();
        for m in &mut current {
            for (i, r) in m.invocations.iter_mut().enumerate() {
                for t in &mut r.iteration_ns {
                    *t *= 1.0 + ((i * 7 % 5) as f64 - 2.0) * 0.002;
                }
            }
        }
        let report = check_regressions(&baseline, &current, &detector(), &GatePolicy::default());
        assert!(report.passed(), "{report:?}");
        assert!(report
            .benchmarks
            .iter()
            .all(|b| b.status == GateStatus::Pass));
        assert!(report.benchmarks.iter().all(|b| b.p_adjusted.is_some()));
    }

    #[test]
    fn clear_slowdown_regresses() {
        let baseline = vec![flat("a", "interp", 100.0, 8, 20)];
        let current = vec![flat("a", "interp", 130.0, 8, 20)];
        let report = check_regressions(&baseline, &current, &detector(), &GatePolicy::default());
        assert!(!report.passed());
        let gate = &report.benchmarks[0];
        assert_eq!(gate.status, GateStatus::Regressed);
        assert!(gate.change_frac().unwrap() > 0.25);
        assert!(gate.p_adjusted.unwrap() < 0.05);
        let r = gate.result.as_ref().unwrap();
        assert!(r.speedup.upper < 1.0, "{:?}", r.speedup);
    }

    #[test]
    fn clear_speedup_improves() {
        let baseline = vec![flat("a", "interp", 100.0, 8, 20)];
        let current = vec![flat("a", "jit", 60.0, 8, 20)];
        let report = check_regressions(&baseline, &current, &detector(), &GatePolicy::default());
        assert!(report.passed());
        assert_eq!(report.benchmarks[0].status, GateStatus::Improved);
    }

    #[test]
    fn a_baseline_on_both_engines_gates_each_engine_against_its_own() {
        // The interpreter entry comes first, as in `BENCH_vm.json`.
        let baseline = vec![
            flat("a", "interp", 100.0, 8, 20),
            flat("a", "jit", 20.0, 8, 20),
        ];
        let current = vec![flat("a", "jit", 20.0, 8, 20)];
        let report = check_regressions(&baseline, &current, &detector(), &GatePolicy::default());
        let gate = &report.benchmarks[0];
        assert_eq!(gate.status, GateStatus::Pass, "{gate:?}");
        assert_eq!(gate.change_frac(), Some(0.0));
    }

    #[test]
    fn tolerance_turns_a_small_regression_into_a_pass() {
        let baseline = vec![flat("a", "interp", 100.0, 8, 20)];
        let current = vec![flat("a", "interp", 102.0, 8, 20)];
        let strict = check_regressions(&baseline, &current, &detector(), &GatePolicy::default());
        assert_eq!(strict.benchmarks[0].status, GateStatus::Regressed);
        let tolerant = check_regressions(
            &baseline,
            &current,
            &detector(),
            &GatePolicy::default().with_max_regression(0.05),
        );
        assert_eq!(tolerant.benchmarks[0].status, GateStatus::Pass);
        assert!(tolerant.benchmarks[0]
            .note
            .as_ref()
            .unwrap()
            .contains("tolerance"));
    }

    #[test]
    fn missing_baseline_and_quarantine_are_indeterminate_not_failures() {
        let baseline = vec![flat("a", "interp", 100.0, 8, 20)];
        let mut quarantined = flat("a", "interp", 100.0, 8, 20);
        quarantined.quarantined = true;
        let current = vec![quarantined, flat("new", "interp", 10.0, 8, 20)];
        let report = check_regressions(&baseline, &current, &detector(), &GatePolicy::default());
        assert!(report.passed());
        assert_eq!(report.benchmarks.len(), 2);
        assert!(report
            .benchmarks
            .iter()
            .all(|b| b.status == GateStatus::Indeterminate));
        assert!(report.benchmarks[0]
            .note
            .as_ref()
            .unwrap()
            .contains("quarantined"));
        assert!(report.benchmarks[1]
            .note
            .as_ref()
            .unwrap()
            .contains("no baseline"));
    }

    /// All invocations literally identical (what a bit-for-bit
    /// deterministic engine produces): zero variance between invocations.
    fn constant(name: &str, level: f64) -> BenchmarkMeasurement {
        let mut m = flat(name, "interp", level, 4, 12);
        for r in &mut m.invocations {
            for t in &mut r.iteration_ns {
                *t = level;
            }
        }
        m
    }

    #[test]
    fn bit_identical_runs_pass_despite_degenerate_p() {
        // Zero variance on both sides: Welch yields NaN; the collapsed CI
        // at exactly 1.0 must read as "no change", not a rejection.
        let m = [constant("a", 100.0)];
        let report = check_regressions(&m, &m, &detector(), &GatePolicy::default());
        let gate = &report.benchmarks[0];
        assert_eq!(gate.status, GateStatus::Pass, "{gate:?}");
        assert!((gate.p_adjusted.unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bit_identical_slowdown_still_regresses() {
        // Zero variance but a real level shift: the collapsed CI excludes
        // 1.0, which must read as the strongest possible rejection.
        let report = check_regressions(
            &[constant("a", 100.0)],
            &[constant("a", 130.0)],
            &detector(),
            &GatePolicy::default(),
        );
        let gate = &report.benchmarks[0];
        assert_eq!(gate.status, GateStatus::Regressed, "{gate:?}");
        assert!(gate.p_adjusted.unwrap() < 1e-12);
    }

    #[test]
    fn correction_is_applied_across_the_suite() {
        // 12 unchanged benchmarks plus one borderline wobble: the wobble's
        // raw p may dip under 0.05, but after BH correction across 13
        // tests it must not fail the gate alone unless it is truly strong.
        let mut baseline: Vec<BenchmarkMeasurement> = (0..12)
            .map(|i| flat(&format!("b{i}"), "interp", 100.0 + i as f64, 8, 20))
            .collect();
        let mut current = baseline.clone();
        for m in &mut current {
            for (i, r) in m.invocations.iter_mut().enumerate() {
                for t in &mut r.iteration_ns {
                    *t *= 1.0 + ((i * 11 % 7) as f64 - 3.0) * 0.001;
                }
            }
        }
        // One genuinely large regression must still be caught.
        baseline.push(flat("big", "interp", 100.0, 8, 20));
        current.push(flat("big", "interp", 140.0, 8, 20));
        let report = check_regressions(&baseline, &current, &detector(), &GatePolicy::default());
        let regressed = report.regressed();
        assert_eq!(regressed.len(), 1, "{report:?}");
        assert_eq!(regressed[0].benchmark, "big");
        // Holm agrees on the big one.
        let holm = check_regressions(
            &baseline,
            &current,
            &detector(),
            &GatePolicy::default().with_correction(Correction::HolmBonferroni),
        );
        assert!(holm.regressed().iter().any(|b| b.benchmark == "big"));
    }

    #[test]
    fn pooling_concatenates_and_reindexes() {
        let r1 = vec![flat("a", "interp", 100.0, 3, 5)];
        let mut r2 = vec![flat("a", "interp", 100.0, 2, 5)];
        r2[0].quarantined = true;
        let pooled = pool_measurements(&[&r1, &r2]);
        assert_eq!(pooled.len(), 1);
        assert_eq!(pooled[0].invocations.len(), 5);
        let idx: Vec<u32> = pooled[0].invocations.iter().map(|r| r.invocation).collect();
        assert_eq!(idx, vec![0, 1, 2, 3, 4]);
        assert!(pooled[0].quarantined);
    }

    #[test]
    fn pooling_keeps_engines_apart() {
        // Two campaign-shaped runs, each holding both engines: the pool
        // must hold one sample per engine, each drawn from its own engine
        // only, so the gate compares JIT to JIT.
        let run = vec![
            flat("a", "interp", 600.0, 2, 20),
            flat("a", "jit", 100.0, 2, 20),
        ];
        let pooled = pool_measurements(&[&run, &run]);
        assert_eq!(pooled.len(), 2, "{pooled:?}");
        for (m, engine, level) in [(&pooled[0], "interp", 600.0), (&pooled[1], "jit", 100.0)] {
            assert_eq!(m.engine, engine);
            assert_eq!(m.invocations.len(), 4);
            assert!(m
                .invocations
                .iter()
                .flat_map(|r| &r.iteration_ns)
                .all(|&t| (t / level - 1.0).abs() < 0.05));
        }
        let current = vec![flat("a", "jit", 100.0, 4, 20)];
        let report = check_regressions(&pooled, &current, &detector(), &GatePolicy::default());
        assert_eq!(report.benchmarks[0].status, GateStatus::Pass, "{report:?}");
    }

    #[test]
    fn correction_parsing() {
        assert_eq!(Correction::parse("bh"), Some(Correction::BenjaminiHochberg));
        assert_eq!(
            Correction::parse("FDR"),
            Some(Correction::BenjaminiHochberg)
        );
        assert_eq!(Correction::parse("holm"), Some(Correction::HolmBonferroni));
        assert_eq!(Correction::parse("fwer"), Some(Correction::HolmBonferroni));
        assert_eq!(Correction::parse("bonferroni?"), None);
        assert_eq!(Correction::BenjaminiHochberg.name(), "bh");
    }

    #[test]
    fn report_serializes_for_json_export() {
        let baseline = vec![flat("a", "interp", 100.0, 8, 20)];
        let current = vec![flat("a", "interp", 130.0, 8, 20)];
        let report = check_regressions(&baseline, &current, &detector(), &GatePolicy::default());
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"regressed\""), "{json}");
        assert!(json.contains("\"p_adjusted\""));
        assert!(json.contains("\"correction\":\"bh\""));
    }
}

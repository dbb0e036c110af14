//! Rigorous performance comparison: speedups with confidence intervals.
//!
//! The comparison unit is the **per-invocation steady-state mean**: warmup is
//! excised per invocation via a steady-state detector, each invocation
//! contributes one number, and intervals are computed over those numbers.
//! Suite-level summaries use the geometric mean of per-benchmark speedups
//! with a bootstrap interval.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rigor_stats::bootstrap::{bootstrap_ratio_ci, percentile_ci, IndexSampler};
use rigor_stats::ci::ConfidenceInterval;
use rigor_stats::descriptive::{geomean, mean};
use rigor_stats::effect::cohens_d;
use rigor_stats::htest::welch_t_test;
use serde::{Deserialize, Serialize};

use crate::measurement::BenchmarkMeasurement;
use crate::steady::{common_steady_start, SteadyStateDetector};

/// Rigorous comparison of one benchmark across two engines/configurations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpeedupResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Speedup of the candidate over the baseline: `mean_base / mean_cand`
    /// (>1 means the candidate is faster), with its CI.
    pub speedup: ConfidenceInterval,
    /// Steady-state iteration used for the baseline (max across invocations).
    pub base_steady_start: usize,
    /// Steady-state iteration used for the candidate.
    pub cand_steady_start: usize,
    /// Mean steady-state time of the baseline, ns.
    pub base_mean_ns: f64,
    /// Mean steady-state time of the candidate, ns.
    pub cand_mean_ns: f64,
    /// Whether the speedup CI excludes 1.0 (a significant difference).
    pub significant: bool,
    /// Welch t-test p-value on the steady means.
    pub p_value: f64,
    /// Cohen's d on the steady means.
    pub effect_size: f64,
}

/// How a comparison failed to produce a rigorous verdict.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompareError {
    /// A steady-state start could not be found for every invocation.
    NoSteadyState {
        /// Which side failed ("baseline" / "candidate").
        side: String,
    },
    /// Not enough invocations for interval estimation.
    TooFewInvocations,
    /// The two measurements are for different benchmarks.
    BenchmarkMismatch,
}

impl std::fmt::Display for CompareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompareError::NoSteadyState { side } => {
                write!(f, "no steady state reached on the {side} side")
            }
            CompareError::TooFewInvocations => write!(f, "need at least 2 invocations per side"),
            CompareError::BenchmarkMismatch => {
                write!(f, "measurements are of different benchmarks")
            }
        }
    }
}

impl std::error::Error for CompareError {}

/// Compares `baseline` against `candidate` rigorously.
///
/// # Errors
///
/// [`CompareError`] when steady state is unreachable or samples are too small
/// — the honest outcome the paper insists on reporting instead of a number.
pub fn compare(
    baseline: &BenchmarkMeasurement,
    candidate: &BenchmarkMeasurement,
    detector: &SteadyStateDetector,
    confidence: f64,
) -> Result<SpeedupResult, CompareError> {
    if baseline.benchmark != candidate.benchmark {
        return Err(CompareError::BenchmarkMismatch);
    }
    let base_start =
        common_steady_start(baseline.series(), detector).ok_or(CompareError::NoSteadyState {
            side: "baseline".into(),
        })?;
    let cand_start =
        common_steady_start(candidate.series(), detector).ok_or(CompareError::NoSteadyState {
            side: "candidate".into(),
        })?;
    let base_means = baseline.tail_means(base_start);
    let cand_means = candidate.tail_means(cand_start);
    if base_means.len() < 2 || cand_means.len() < 2 {
        return Err(CompareError::TooFewInvocations);
    }
    let seed = 0x5eed ^ baseline.benchmark.len() as u64;
    let speedup = bootstrap_ratio_ci(&base_means, &cand_means, confidence, 2_000, seed)
        .ok_or(CompareError::TooFewInvocations)?;
    let t = welch_t_test(&base_means, &cand_means);
    Ok(SpeedupResult {
        benchmark: baseline.benchmark.clone(),
        significant: speedup.excludes(1.0),
        base_steady_start: base_start,
        cand_steady_start: cand_start,
        base_mean_ns: mean(&base_means),
        cand_mean_ns: mean(&cand_means),
        p_value: t.map(|r| r.p_value).unwrap_or(f64::NAN),
        effect_size: cohens_d(&base_means, &cand_means),
        speedup,
    })
}

/// Suite-level summary: per-benchmark speedups plus the geometric-mean
/// speedup with a bootstrap CI.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteComparison {
    /// Per-benchmark results (benchmarks that failed to converge are absent;
    /// see `failures`).
    pub per_benchmark: Vec<SpeedupResult>,
    /// Benchmarks excluded from the summary and why.
    pub failures: Vec<(String, CompareError)>,
    /// Geometric-mean speedup with CI (over the converged benchmarks).
    pub geomean: Option<ConfidenceInterval>,
}

/// Compares a whole suite of (baseline, candidate) measurement pairs.
pub fn compare_suite(
    pairs: &[(BenchmarkMeasurement, BenchmarkMeasurement)],
    detector: &SteadyStateDetector,
    confidence: f64,
) -> SuiteComparison {
    let mut per_benchmark = Vec::new();
    let mut failures = Vec::new();
    let mut mean_pairs: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
    for (base, cand) in pairs {
        match compare(base, cand, detector, confidence) {
            Ok(result) => {
                mean_pairs.push((
                    base.tail_means(result.base_steady_start),
                    cand.tail_means(result.cand_steady_start),
                ));
                per_benchmark.push(result);
            }
            Err(e) => failures.push((base.benchmark.clone(), e)),
        }
    }
    let geomean = geomean_speedup_ci(&mean_pairs, confidence, 0xFEED);
    SuiteComparison {
        per_benchmark,
        failures,
        geomean,
    }
}

/// Bootstrap CI on the geometric-mean speedup: resample each benchmark's
/// invocation means (both sides) with replacement, recompute every ratio and
/// their geomean.
fn geomean_speedup_ci(
    mean_pairs: &[(Vec<f64>, Vec<f64>)],
    confidence: f64,
    seed: u64,
) -> Option<ConfidenceInterval> {
    if mean_pairs.is_empty() {
        return None;
    }
    let point: Vec<f64> = mean_pairs.iter().map(|(b, c)| mean(b) / mean(c)).collect();
    let samplers: Vec<(IndexSampler, IndexSampler)> = mean_pairs
        .iter()
        .map(|(b, c)| (IndexSampler::new(b.len()), IndexSampler::new(c.len())))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    const RESAMPLES: usize = 2_000;
    let mut samples = Vec::with_capacity(RESAMPLES);
    let mut ratios = Vec::with_capacity(mean_pairs.len());
    for _ in 0..RESAMPLES {
        ratios.clear();
        for ((b, c), (sample_b, sample_c)) in mean_pairs.iter().zip(&samplers) {
            let rb = sample_b.resample_mean(b, &mut rng);
            let rc = sample_c.resample_mean(c, &mut rng);
            if rc > 0.0 {
                ratios.push(rb / rc);
            }
        }
        let g = geomean(&ratios);
        if g.is_finite() {
            samples.push(g);
        }
    }
    Some(percentile_ci(geomean(&point), samples, confidence))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::InvocationRecord;

    fn measurement(name: &str, engine: &str, series: Vec<Vec<f64>>) -> BenchmarkMeasurement {
        BenchmarkMeasurement {
            benchmark: name.into(),
            engine: engine.into(),
            invocations: series
                .into_iter()
                .enumerate()
                .map(|(i, iteration_ns)| InvocationRecord {
                    invocation: i as u32,
                    seed: i as u64,
                    startup_ns: 0.0,
                    iteration_ns,
                    gc_cycles: 0,
                    jit_compiles: 0,
                    deopts: 0,
                    checksum: String::new(),
                    iteration_counters: None,
                    attempts: 1,
                })
                .collect(),
            censored: Vec::new(),
            quarantined: false,
        }
    }

    /// Flat series at `level` with per-invocation offsets.
    fn flat(
        name: &str,
        engine: &str,
        level: f64,
        n_inv: usize,
        n_iter: usize,
    ) -> BenchmarkMeasurement {
        let series = (0..n_inv)
            .map(|i| {
                let offset = 1.0 + (i as f64 - n_inv as f64 / 2.0) * 0.004;
                (0..n_iter)
                    .map(|j| level * offset * (1.0 + (j % 3) as f64 * 0.001))
                    .collect()
            })
            .collect();
        measurement(name, engine, series)
    }

    #[test]
    fn clear_speedup_is_detected() {
        let base = flat("b", "interp", 100.0, 8, 20);
        let cand = flat("b", "jit", 20.0, 8, 20);
        let r = compare(&base, &cand, &SteadyStateDetector::default(), 0.95).unwrap();
        assert!(r.significant);
        assert!((r.speedup.estimate - 5.0).abs() < 0.2, "{:?}", r.speedup);
        assert!(r.speedup.excludes(1.0));
        assert!(r.p_value < 0.01);
        assert!(r.effect_size > 2.0);
    }

    #[test]
    fn no_difference_is_not_significant() {
        let base = flat("b", "interp", 100.0, 8, 20);
        let mut cand = flat("b", "jit", 100.0, 8, 20);
        // Re-seed the offsets so the two sides aren't literally identical.
        for (i, r) in cand.invocations.iter_mut().enumerate() {
            for t in &mut r.iteration_ns {
                *t *= 1.0 + ((i * 7 % 5) as f64 - 2.0) * 0.002;
            }
        }
        let r = compare(&base, &cand, &SteadyStateDetector::default(), 0.95).unwrap();
        assert!(!r.significant, "{:?}", r.speedup);
        assert!(r.speedup.contains(1.0));
    }

    #[test]
    fn warmup_is_excised_with_changepoint_detector() {
        // Candidate has hefty warmup; including it would understate speedup.
        let base = flat("b", "interp", 100.0, 6, 30);
        let series = (0..6)
            .map(|i| {
                let offset = 1.0 + i as f64 * 0.003;
                let mut v: Vec<f64> = (0..8).map(|_| 200.0 * offset).collect();
                v.extend((0..22).map(|j| 10.0 * offset * (1.0 + (j % 3) as f64 * 0.001)));
                v
            })
            .collect();
        let cand = measurement("b", "jit", series);
        let r = compare(&base, &cand, &SteadyStateDetector::changepoint(), 0.95).unwrap();
        assert!(
            r.cand_steady_start >= 6,
            "steady start {}",
            r.cand_steady_start
        );
        assert!((r.speedup.estimate - 10.0).abs() < 1.0, "{:?}", r.speedup);
    }

    #[test]
    fn mismatched_benchmarks_error() {
        let a = flat("a", "interp", 10.0, 4, 10);
        let b = flat("b", "jit", 10.0, 4, 10);
        assert_eq!(
            compare(&a, &b, &SteadyStateDetector::default(), 0.95).unwrap_err(),
            CompareError::BenchmarkMismatch
        );
    }

    #[test]
    fn no_steady_state_is_an_error_not_a_number() {
        let base = flat("b", "interp", 100.0, 4, 30);
        // Candidate oscillates wildly forever.
        let series = (0..4)
            .map(|i| {
                (0..30)
                    .map(|j| if (i + j) % 2 == 0 { 10.0 } else { 200.0 })
                    .collect()
            })
            .collect();
        let cand = measurement("b", "jit", series);
        let err = compare(&base, &cand, &SteadyStateDetector::cov_window(), 0.95).unwrap_err();
        assert!(matches!(err, CompareError::NoSteadyState { .. }));
    }

    #[test]
    fn suite_geomean_combines_benchmarks() {
        let pairs = vec![
            (
                flat("a", "interp", 100.0, 6, 15),
                flat("a", "jit", 25.0, 6, 15),
            ), // 4x
            (
                flat("b", "interp", 100.0, 6, 15),
                flat("b", "jit", 100.0, 6, 15),
            ), // 1x
        ];
        let s = compare_suite(&pairs, &SteadyStateDetector::default(), 0.95);
        assert_eq!(s.per_benchmark.len(), 2);
        assert!(s.failures.is_empty());
        let g = s.geomean.unwrap();
        assert!((g.estimate - 2.0).abs() < 0.1, "{g:?}"); // sqrt(4·1)
    }

    #[test]
    fn suite_reports_failures_separately() {
        let noisy = measurement(
            "c",
            "jit",
            (0..4)
                .map(|i| {
                    (0..30)
                        .map(|j| if (i + j) % 2 == 0 { 10.0 } else { 200.0 })
                        .collect()
                })
                .collect(),
        );
        let pairs = vec![
            (
                flat("a", "interp", 100.0, 6, 15),
                flat("a", "jit", 50.0, 6, 15),
            ),
            (flat("c", "interp", 100.0, 4, 30), noisy),
        ];
        let s = compare_suite(&pairs, &SteadyStateDetector::cov_window(), 0.95);
        assert_eq!(s.per_benchmark.len(), 1);
        assert_eq!(s.failures.len(), 1);
        assert_eq!(s.failures[0].0, "c");
    }

    /// The buffered definition of [`geomean_speedup_ci`]: each resample
    /// side filled with `gen_range` draws and summed, the ratios collected
    /// per resample, both tails read with `quantile` (a sorted copy).
    fn reference_geomean_ci(
        mean_pairs: &[(Vec<f64>, Vec<f64>)],
        confidence: f64,
        seed: u64,
    ) -> Option<ConfidenceInterval> {
        use rand::Rng;
        if mean_pairs.is_empty() {
            return None;
        }
        let point: Vec<f64> = mean_pairs.iter().map(|(b, c)| mean(b) / mean(c)).collect();
        let estimate = geomean(&point);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut samples = Vec::with_capacity(2_000);
        for _ in 0..2_000 {
            let mut ratios = Vec::with_capacity(mean_pairs.len());
            for (b, c) in mean_pairs {
                let rb: f64 = (0..b.len())
                    .map(|_| b[rng.gen_range(0..b.len())])
                    .sum::<f64>()
                    / b.len() as f64;
                let rc: f64 = (0..c.len())
                    .map(|_| c[rng.gen_range(0..c.len())])
                    .sum::<f64>()
                    / c.len() as f64;
                if rc > 0.0 {
                    ratios.push(rb / rc);
                }
            }
            let g = geomean(&ratios);
            if g.is_finite() {
                samples.push(g);
            }
        }
        Some(ConfidenceInterval {
            estimate,
            lower: rigor_stats::quantile(&samples, (1.0 - confidence) / 2.0),
            upper: rigor_stats::quantile(&samples, 1.0 - (1.0 - confidence) / 2.0),
            confidence,
        })
    }

    #[test]
    fn geomean_ci_matches_its_buffered_reference_bit_for_bit() {
        let bits = |ci: Option<ConfidenceInterval>| {
            ci.map(|c| [c.estimate, c.lower, c.upper, c.confidence].map(f64::to_bits))
        };
        let side = |n: usize, level: f64, step: f64| -> Vec<f64> {
            (0..n)
                .map(|i| level + step * ((i * 7) % 5) as f64)
                .collect()
        };
        let suites: Vec<Vec<(Vec<f64>, Vec<f64>)>> = vec![
            vec![],
            // Timing-like: two to twelve invocations a side.
            (2..=12)
                .map(|n| (side(n, 100.0, 1.5), side(14 - n, 25.0, 0.25)))
                .collect(),
            // Ties, a candidate that resamples to zero (its ratio is
            // skipped) and a negative side (its geomean is NaN, so the
            // resample is skipped).
            vec![
                (vec![3.0, 3.0], vec![1.0, 1.0, 1.0]),
                (vec![2.0, 4.0, 8.0], vec![0.0, 0.0, 2.0]),
                (vec![-1.0, 5.0], vec![1.0, 2.0]),
            ],
            // Signed zeros and subnormals.
            vec![
                (vec![-0.0, 0.0, -0.0], vec![1.0, 2.0]),
                (vec![5e-324, 1e-323], vec![1e-323, 5e-324, 2e-323]),
            ],
        ];
        for pairs in &suites {
            for confidence in [0.5, 0.9, 0.95, 0.99, 0.999] {
                assert_eq!(
                    bits(geomean_speedup_ci(pairs, confidence, 0xFEED)),
                    bits(reference_geomean_ci(pairs, confidence, 0xFEED)),
                    "pairs={pairs:?} confidence={confidence}"
                );
            }
        }
    }
}

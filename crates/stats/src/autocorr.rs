//! Autocorrelation of timing series.
//!
//! Consecutive benchmark iterations are rarely independent: GC cycles, JIT
//! compilation and OS scheduling induce serial correlation. The methodology
//! uses the lag-k autocorrelation to decide whether treating iterations as
//! i.i.d. samples is defensible.
//!
//! No caller yet: held for ROADMAP item 3, which may pick it.

use crate::descriptive::mean;

/// Lag-`k` sample autocorrelation of `xs`. Returns `NaN` when the series is
/// shorter than `k + 2` points or has zero variance.
pub fn autocorrelation(xs: &[f64], k: usize) -> f64 {
    let n = xs.len();
    if n < k + 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    let denom: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    if denom == 0.0 {
        return f64::NAN;
    }
    let num: f64 = (0..n - k).map(|i| (xs[i] - m) * (xs[i + k] - m)).sum();
    num / denom
}

/// First `max_lag` autocorrelations (lags 1..=max_lag).
pub fn autocorrelations(xs: &[f64], max_lag: usize) -> Vec<f64> {
    (1..=max_lag).map(|k| autocorrelation(xs, k)).collect()
}

/// The large-lag standard error 1/√n: a lag-k autocorrelation beyond roughly
/// twice this value is significant at ~95%.
pub fn autocorr_significance_bound(n: usize) -> f64 {
    if n == 0 {
        return f64::NAN;
    }
    1.96 / (n as f64).sqrt()
}

/// Effective sample size accounting for lag-1 autocorrelation ρ:
/// `n (1 − ρ) / (1 + ρ)` (AR(1) approximation), clamped to `[1, n]`.
pub fn effective_sample_size(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let rho = autocorrelation(xs, 1);
    if rho.is_nan() {
        return n;
    }
    let rho = rho.clamp(-0.99, 0.99);
    (n * (1.0 - rho) / (1.0 + rho)).clamp(1.0, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alternating_series_has_negative_lag1() {
        let xs: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!(autocorrelation(&xs, 1) < -0.9);
        assert!(autocorrelation(&xs, 2) > 0.9);
    }

    #[test]
    fn trend_has_positive_autocorrelation() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert!(autocorrelation(&xs, 1) > 0.9);
    }

    #[test]
    fn white_noise_is_near_zero() {
        // Deterministic pseudo-noise via a simple LCG.
        let mut state = 12345u64;
        let xs: Vec<f64> = (0..2000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as f64 / (1u64 << 31) as f64
            })
            .collect();
        let r = autocorrelation(&xs, 1);
        assert!(
            r.abs() < autocorr_significance_bound(xs.len()) * 1.5,
            "r = {r}"
        );
    }

    #[test]
    fn short_or_constant_series_are_nan() {
        assert!(autocorrelation(&[1.0, 2.0], 1).is_nan());
        assert!(autocorrelation(&[5.0; 10], 1).is_nan());
    }

    #[test]
    fn effective_sample_size_shrinks_under_correlation() {
        let trend: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert!(effective_sample_size(&trend) < 10.0);
        let alternating: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        // Negative correlation inflates ESS up to the clamp.
        assert!(effective_sample_size(&alternating) >= 99.0);
    }

    #[test]
    fn autocorrelations_vector_lengths() {
        let xs: Vec<f64> = (0..50).map(|i| (i % 5) as f64).collect();
        let acs = autocorrelations(&xs, 10);
        assert_eq!(acs.len(), 10);
        // Period-5 series: strong positive correlation at lag 5.
        assert!(acs[4] > 0.8);
    }
}

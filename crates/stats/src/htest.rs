//! Hypothesis test: Welch's t-test.

use crate::descriptive::{mean, variance};
use crate::dist::t_sf_two_sided;

/// Result of a two-sample t-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestResult {
    /// The t statistic.
    pub statistic: f64,
    /// Two-sided p-value.
    pub p_value: f64,
    /// Welch–Satterthwaite degrees of freedom.
    pub df: f64,
}

impl TestResult {
    /// True if the null hypothesis is rejected at level `alpha`.
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Welch's unequal-variance t-test (two-sided).
///
/// Returns `None` when either sample has fewer than 2 points or both have
/// zero variance.
///
/// ```
/// let interp = [100.0, 101.0, 99.5, 100.5, 100.2];
/// let jit = [50.0, 50.5, 49.8, 50.1, 50.3];
/// let result = rigor_stats::welch_t_test(&interp, &jit).expect("enough samples");
/// assert!(result.significant_at(0.01));
/// ```
pub fn welch_t_test(a: &[f64], b: &[f64]) -> Option<TestResult> {
    if a.len() < 2 || b.len() < 2 {
        return None;
    }
    let (ma, mb) = (mean(a), mean(b));
    let (va, vb) = (variance(a), variance(b));
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let se2 = va / na + vb / nb;
    if se2 <= 0.0 {
        return None;
    }
    let t = (ma - mb) / se2.sqrt();
    let df = se2 * se2 / ((va / na).powi(2) / (na - 1.0) + (vb / nb).powi(2) / (nb - 1.0));
    Some(TestResult {
        statistic: t,
        p_value: t_sf_two_sided(t, df).clamp(0.0, 1.0),
        df,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jittered(base: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                base + ((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5)
            })
            .collect()
    }

    #[test]
    fn welch_detects_large_shift() {
        let a = jittered(10.0, 20, 1);
        let b = jittered(12.0, 20, 2);
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.significant_at(0.01), "p = {}", r.p_value);
        assert!(r.statistic < 0.0, "a < b means negative t");
    }

    #[test]
    fn welch_same_distribution_not_significant() {
        let a = jittered(10.0, 20, 3);
        let b = jittered(10.0, 20, 4);
        let r = welch_t_test(&a, &b).unwrap();
        assert!(!r.significant_at(0.01), "p = {}", r.p_value);
    }

    #[test]
    fn welch_p_value_magnitude_sanity() {
        // Known example: equal variances, t should reduce to Student's t.
        let a = [30.02, 29.99, 30.11, 29.97, 30.01, 29.99];
        let b = [29.89, 29.93, 29.72, 29.98, 30.02, 29.98];
        let r = welch_t_test(&a, &b).unwrap();
        // t ≈ 1.959 with Welch df ≈ 7; t(0.95, 7) = 1.895 sits just below, so
        // the two-sided p must land just under 0.10.
        assert!((r.statistic - 1.959).abs() < 0.01, "t = {}", r.statistic);
        assert!(r.p_value > 0.07 && r.p_value < 0.10, "p = {}", r.p_value);
        assert!((r.df - 7.0).abs() < 1.0, "df = {}", r.df);
    }

    #[test]
    fn degenerate_inputs_are_none() {
        assert!(welch_t_test(&[1.0], &[1.0, 2.0]).is_none());
        assert!(welch_t_test(&[1.0, 1.0], &[1.0, 1.0]).is_none());
    }
}

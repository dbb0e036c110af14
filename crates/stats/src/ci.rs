//! Confidence intervals.

use serde::{Deserialize, Serialize};

use crate::descriptive::{mean, sem};
use crate::dist::t_critical;

/// A two-sided confidence interval around a point estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// The point estimate (usually a mean or a ratio of means).
    pub estimate: f64,
    /// Lower bound.
    pub lower: f64,
    /// Upper bound.
    pub upper: f64,
    /// Confidence level, e.g. 0.95.
    pub confidence: f64,
}

impl ConfidenceInterval {
    /// Half-width (margin of error).
    pub fn half_width(&self) -> f64 {
        (self.upper - self.lower) / 2.0
    }

    /// Half-width relative to the estimate (e.g. 0.02 = ±2%).
    pub fn relative_half_width(&self) -> f64 {
        if self.estimate == 0.0 {
            return f64::NAN;
        }
        self.half_width() / self.estimate.abs()
    }

    /// True if `value` lies inside the interval (inclusive).
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lower && value <= self.upper
    }

    /// True if the interval excludes `value` — the basis for "statistically
    /// significant difference from `value`" decisions.
    pub fn excludes(&self, value: f64) -> bool {
        !self.contains(value)
    }
}

/// Student-t confidence interval for the mean of `xs`.
///
/// Returns `None` when fewer than 2 observations are available.
pub fn mean_ci(xs: &[f64], confidence: f64) -> Option<ConfidenceInterval> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs);
    let se = sem(xs);
    let t = t_critical(confidence, (xs.len() - 1) as f64);
    Some(ConfidenceInterval {
        estimate: m,
        lower: m - t * se,
        upper: m + t * se,
        confidence,
    })
}

/// Welch confidence interval for the difference of means (a − b), using the
/// Welch–Satterthwaite degrees of freedom.
///
/// No caller yet: held for ROADMAP item 2, which may pick it.
pub fn welch_diff_ci(a: &[f64], b: &[f64], confidence: f64) -> Option<ConfidenceInterval> {
    if a.len() < 2 || b.len() < 2 {
        return None;
    }
    let (ma, mb) = (mean(a), mean(b));
    let (va, vb) = (
        crate::descriptive::variance(a),
        crate::descriptive::variance(b),
    );
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let se2 = va / na + vb / nb;
    let se = se2.sqrt();
    let df = se2 * se2 / ((va / na).powi(2) / (na - 1.0) + (vb / nb).powi(2) / (nb - 1.0));
    let t = t_critical(confidence, df);
    let d = ma - mb;
    Some(ConfidenceInterval {
        estimate: d,
        lower: d - t * se,
        upper: d + t * se,
        confidence,
    })
}

/// Confidence interval for the ratio of means mean(a)/mean(b) by the delta
/// method (first-order propagation of the two SEMs, assuming independence).
///
/// For speedups, `a` is the baseline and `b` the improved system, so values
/// above 1 mean "b is faster".
///
/// No caller yet: held for ROADMAP item 2, which may pick it.
pub fn ratio_ci_delta(a: &[f64], b: &[f64], confidence: f64) -> Option<ConfidenceInterval> {
    if a.len() < 2 || b.len() < 2 {
        return None;
    }
    let (ma, mb) = (mean(a), mean(b));
    if mb == 0.0 {
        return None;
    }
    let r = ma / mb;
    let rel_var = (sem(a) / ma).powi(2) + (sem(b) / mb).powi(2);
    let se = r.abs() * rel_var.sqrt();
    // Conservative df: smaller of the two samples minus one.
    let df = (a.len().min(b.len()) - 1) as f64;
    let t = t_critical(confidence, df);
    Some(ConfidenceInterval {
        estimate: r,
        lower: r - t * se,
        upper: r + t * se,
        confidence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_ci_hand_checked() {
        // xs = 1..=10: mean 5.5, sd ≈ 3.0277, sem ≈ 0.9574, t(.95, 9) ≈ 2.262
        let xs: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let ci = mean_ci(&xs, 0.95).unwrap();
        assert!((ci.estimate - 5.5).abs() < 1e-12);
        assert!((ci.half_width() - 2.262 * 0.957_427).abs() < 2e-3);
        assert!(ci.contains(5.5));
        assert!(ci.contains(4.0));
        assert!(!ci.contains(10.0));
    }

    #[test]
    fn tiny_samples_return_none() {
        assert!(mean_ci(&[1.0], 0.95).is_none());
        assert!(mean_ci(&[], 0.95).is_none());
        assert!(welch_diff_ci(&[1.0], &[1.0, 2.0], 0.95).is_none());
    }

    #[test]
    fn higher_confidence_is_wider() {
        let xs: Vec<f64> = (1..=20).map(|i| (i % 7) as f64).collect();
        let c90 = mean_ci(&xs, 0.90).unwrap();
        let c99 = mean_ci(&xs, 0.99).unwrap();
        assert!(c99.half_width() > c90.half_width());
    }

    #[test]
    fn welch_detects_clear_difference() {
        let a: Vec<f64> = (0..20).map(|i| 10.0 + (i % 3) as f64 * 0.1).collect();
        let b: Vec<f64> = (0..20).map(|i| 5.0 + (i % 3) as f64 * 0.1).collect();
        let ci = welch_diff_ci(&a, &b, 0.95).unwrap();
        assert!(ci.lower > 4.0 && ci.upper < 6.0);
        assert!(ci.excludes(0.0), "difference is clearly nonzero");
    }

    #[test]
    fn welch_overlapping_distributions_include_zero() {
        let a: Vec<f64> = (0..10).map(|i| 10.0 + ((i * 7) % 5) as f64).collect();
        let b: Vec<f64> = (0..10).map(|i| 10.3 + ((i * 3) % 5) as f64).collect();
        let ci = welch_diff_ci(&a, &b, 0.95).unwrap();
        assert!(
            ci.contains(0.0),
            "no real difference should include 0: {ci:?}"
        );
    }

    #[test]
    fn ratio_ci_centres_on_true_ratio() {
        let a: Vec<f64> = (0..30).map(|i| 20.0 + (i % 5) as f64 * 0.01).collect();
        let b: Vec<f64> = (0..30).map(|i| 10.0 + (i % 5) as f64 * 0.01).collect();
        let ci = ratio_ci_delta(&a, &b, 0.95).unwrap();
        assert!((ci.estimate - 2.0).abs() < 0.01);
        // The CI must cover the exact sample ratio and reject "no speedup".
        assert!(ci.contains(crate::descriptive::mean(&a) / crate::descriptive::mean(&b)));
        assert!(ci.excludes(1.0), "2x speedup must exclude 1.0");
    }

    #[test]
    fn interval_geometry() {
        let a = ConfidenceInterval {
            estimate: 5.0,
            lower: 4.0,
            upper: 6.0,
            confidence: 0.95,
        };
        assert!((a.half_width() - 1.0).abs() < 1e-12);
        assert!((a.relative_half_width() - 0.2).abs() < 1e-12);
    }
}

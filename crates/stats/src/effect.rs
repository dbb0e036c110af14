//! Effect size: Cohen's d.
//!
//! Statistical significance without effect size is the classic benchmarking
//! trap (with enough invocations any 0.1% difference becomes "significant");
//! the methodology reports both.

use crate::descriptive::{mean, variance};

/// Cohen's d with pooled standard deviation. Positive when `mean(a) > mean(b)`.
///
/// Returns `NaN` for degenerate inputs.
pub fn cohens_d(a: &[f64], b: &[f64]) -> f64 {
    if a.len() < 2 || b.len() < 2 {
        return f64::NAN;
    }
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let pooled_var = ((na - 1.0) * variance(a) + (nb - 1.0) * variance(b)) / (na + nb - 2.0);
    if pooled_var <= 0.0 {
        return f64::NAN;
    }
    (mean(a) - mean(b)) / pooled_var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cohens_d_unit_shift_unit_variance() {
        // Two samples one pooled-σ apart → d ≈ 1.
        let a: Vec<f64> = (0..100)
            .map(|i| 10.0 + ((i % 21) as f64 - 10.0) / 6.06)
            .collect();
        let b: Vec<f64> = a.iter().map(|x| x - 1.0).collect();
        let d = cohens_d(&a, &b);
        assert!((d - 1.0).abs() < 0.05, "d = {d}");
    }

    #[test]
    fn cohens_d_sign() {
        let a = [5.0, 6.0, 7.0];
        let b = [1.0, 2.0, 3.0];
        assert!(cohens_d(&a, &b) > 0.0);
        assert!(cohens_d(&b, &a) < 0.0);
    }

    #[test]
    fn degenerate_inputs_nan() {
        assert!(cohens_d(&[1.0], &[1.0, 2.0]).is_nan());
        assert!(cohens_d(&[1.0, 1.0], &[1.0, 1.0]).is_nan());
    }
}

//! Descriptive statistics.

/// Arithmetic mean. Returns `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (n−1 denominator). `NaN` if fewer than 2 points.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Standard error of the mean.
pub(crate) fn sem(xs: &[f64]) -> f64 {
    std_dev(xs) / (xs.len() as f64).sqrt()
}

/// Coefficient of variation (σ/μ). `NaN` if the mean is 0 or n < 2.
pub fn cov(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if m == 0.0 {
        return f64::NAN;
    }
    std_dev(xs) / m
}

/// Median (average of the two central order statistics for even n).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in data"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean. All inputs must be positive; returns `NaN` otherwise.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-10;

    #[test]
    fn mean_and_variance_hand_computed() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < EPS);
        // Sample variance with n-1: sum of squared devs = 32, / 7
        assert!((variance(&xs) - 32.0 / 7.0).abs() < EPS);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn geomean_known_value() {
        let xs = [1.0, 4.0, 16.0];
        assert!((geomean(&xs) - 4.0).abs() < EPS);
        assert!(geomean(&[1.0, -1.0]).is_nan());
    }

    #[test]
    fn cov_scale_invariance() {
        let xs = [10.0, 12.0, 14.0];
        let ys: Vec<f64> = xs.iter().map(|x| x * 100.0).collect();
        assert!((cov(&xs) - cov(&ys)).abs() < EPS);
    }

    #[test]
    fn sem_shrinks_with_n() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..1000).map(|i| (i % 10) as f64).collect();
        assert!(sem(&ys) < sem(&xs));
    }

    #[test]
    fn empty_inputs_are_nan() {
        assert!(mean(&[]).is_nan());
        assert!(variance(&[1.0]).is_nan());
        assert!(geomean(&[]).is_nan());
    }
}

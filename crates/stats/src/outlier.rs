//! Outlier handling: the median absolute deviation and MAD-based despiking.

use crate::descriptive::median;

/// Median absolute deviation, scaled by 1.4826 to be consistent with the
/// standard deviation under normality.
pub fn mad(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let m = median(xs);
    let devs: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    1.4826 * median(&devs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mad_of_known_sample() {
        // median=3, abs devs = [2,1,0,1,2] → median dev 1 → MAD = 1.4826
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((mad(&xs) - 1.4826).abs() < 1e-12);
    }
}

/// Replaces isolated timing spikes with the local level, preserving genuine
/// level shifts (warmup steps).
///
/// A point is a *spike* — not a level shift — when the medians of its left
/// and right neighbourhoods agree with each other but not with the point:
/// the series departs and returns. Warmup prefixes and step changes have
/// disagreeing neighbourhoods and are left untouched, as are the first and
/// last few points (a slow first iteration is warmup, not noise).
///
/// This is the outlier handling changepoint-based warmup analysis needs:
/// GC pauses and OS-jitter tails puncture otherwise-flat series and would
/// otherwise fragment the segmentation.
///
/// ```
/// let mut series = vec![10.0; 20];
/// series[9] = 60.0; // a GC pause
/// let cleaned = rigor_stats::despike(&series, 8.0);
/// assert_eq!(cleaned[9], 10.0);
/// ```
pub fn despike(xs: &[f64], k: f64) -> Vec<f64> {
    const WING: usize = 3;
    let n = xs.len();
    let mut out = xs.to_vec();
    if n < 2 * WING + 1 {
        return out;
    }
    for i in WING..(n - WING) {
        let left: Vec<f64> = xs[i - WING..i].to_vec();
        let right: Vec<f64> = xs[i + 1..i + 1 + WING].to_vec();
        let lm = median(&left);
        let rm = median(&right);
        let level = 0.5 * (lm + rm);
        // The two sides must sit at the same level for the excursion to be a
        // spike rather than a step.
        let level_scale = lm.abs().max(rm.abs()).max(1e-300);
        if (lm - rm).abs() > 0.05 * level_scale {
            continue;
        }
        // Local scale: MAD of the neighbours, floored relative to the level
        // so perfectly quiet series still tolerate float dust.
        let mut neigh = left;
        neigh.extend(right);
        let scale = mad(&neigh).max(2e-3 * level.abs()).max(1e-300);
        if (xs[i] - level).abs() > k * scale {
            out[i] = level;
        }
    }
    out
}

#[cfg(test)]
mod despike_tests {
    use super::*;

    fn flat_with(values: &[(usize, f64)], n: usize, level: f64) -> Vec<f64> {
        let mut xs: Vec<f64> = (0..n).map(|i| level + (i % 3) as f64 * 0.01).collect();
        for &(i, v) in values {
            xs[i] = v;
        }
        xs
    }

    #[test]
    fn isolated_spike_is_removed() {
        let xs = flat_with(&[(20, 50.0)], 40, 10.0);
        let out = despike(&xs, 8.0);
        assert!(
            (out[20] - 10.0).abs() < 0.1,
            "spike should be flattened: {}",
            out[20]
        );
        assert_eq!(out[10], xs[10]);
    }

    #[test]
    fn double_spike_is_removed() {
        let xs = flat_with(&[(15, 40.0), (16, 45.0)], 40, 10.0);
        let out = despike(&xs, 8.0);
        assert!((out[15] - 10.0).abs() < 0.2);
        assert!((out[16] - 10.0).abs() < 0.2);
    }

    #[test]
    fn warmup_step_is_preserved() {
        // 10 slow then 30 fast: a genuine level shift.
        let mut xs: Vec<f64> = (0..10).map(|i| 50.0 + (i % 3) as f64 * 0.01).collect();
        xs.extend((0..30).map(|i| 10.0 + (i % 3) as f64 * 0.01));
        let out = despike(&xs, 8.0);
        for (a, b) in xs.iter().zip(&out) {
            assert_eq!(a, b, "step series must be untouched");
        }
    }

    #[test]
    fn leading_compile_hump_is_preserved() {
        // Slow first two iterations (JIT compile) must not be "despiked".
        let mut xs = vec![100.0, 90.0];
        xs.extend((0..30).map(|i| 10.0 + (i % 3) as f64 * 0.01));
        let out = despike(&xs, 8.0);
        assert_eq!(out[0], 100.0);
        assert_eq!(out[1], 90.0);
    }

    #[test]
    fn short_series_untouched() {
        let xs = vec![1.0, 100.0, 1.0];
        assert_eq!(despike(&xs, 8.0), xs);
    }
}

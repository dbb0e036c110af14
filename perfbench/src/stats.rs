//! Order statistics over per-operation latencies, and the metric-name rule.

/// Samples beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The median of `values` (mean of the two middle values when even).
///
/// # Panics
///
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile that still has
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at that percentile.
    pub value: f64,
    /// The percentile, in `[0, 100)`.
    pub percentile: f64,
    /// Samples in the whole sample.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it:
/// with `n` samples sorted ascending, the value at rank `n − 11` (the 11th
/// largest), which is percentile `100 · (n − 10) / n`. `None` when the sample
/// has no more than [`TAIL_BEYOND`] values, so no such percentile exists.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        value: sorted[n - TAIL_BEYOND - 1],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
        beyond: TAIL_BEYOND,
    })
}

/// The [`tail`] value of `values`, or their maximum when they are too few
/// to have one (0 for none).
pub fn tail_or_max(values: &[f64]) -> f64 {
    tail(values).map_or_else(|| values.iter().copied().fold(0.0, f64::max), |t| t.value)
}

/// True for a valid metric name: it starts with a letter or digit and is at
/// most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_exactly_ten_samples_beyond() {
        // 1..=100: the 11th largest is 90, at percentile 90.
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(t.beyond, 10);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);

        // 1000 samples: percentile 99.
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!((t.value, t.percentile), (990.0, 99.0));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert!(tail(&[1.0; 10]).is_none());
        let t = tail(&[1.0; 11]).unwrap();
        assert_eq!(t.value, 1.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in [
            "setup_s",
            "op_tail_ms",
            "compiler.compile_us",
            "self_ms.orchestrator",
            "a-b.c_d",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ops/s", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}

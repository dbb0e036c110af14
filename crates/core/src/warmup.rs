//! Warmup classification (the Barrett et al. taxonomy, adapted).
//!
//! Each per-invocation iteration series is classified by where the
//! steady-state detector finds its steady state and by the shape of the
//! prefix before it; a benchmark-level classification aggregates the
//! per-invocation verdicts (an *inconsistent* benchmark warms up in some
//! invocations and not others — itself a methodology hazard).

use serde::{Deserialize, Serialize};

use crate::steady::{tail_profile, SteadyState, SteadyStateDetector};

/// The shape of one invocation's iteration series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WarmupClass {
    /// One stable level throughout (the interpreter ideal).
    Flat,
    /// Starts slow, settles at a faster stable level (the JIT ideal).
    Warmup,
    /// Ends slower than it started (leaks, cache pollution, deopt spirals).
    Slowdown,
    /// Never settles: the final level covers too little of the series or the
    /// segment means keep crossing.
    NoSteadyState,
}

impl WarmupClass {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            WarmupClass::Flat => "flat",
            WarmupClass::Warmup => "warmup",
            WarmupClass::Slowdown => "slowdown",
            WarmupClass::NoSteadyState => "no-steady-state",
        }
    }
}

/// Parameters of the classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmupClassifier {
    /// Relative tolerance for "same level" comparisons (0.01 = 1%).
    pub tolerance: f64,
    /// Detector whose steady verdict drives the classification.
    pub detector: SteadyStateDetector,
}

impl Default for WarmupClassifier {
    fn default() -> Self {
        WarmupClassifier {
            tolerance: 0.01,
            detector: SteadyStateDetector::robust_tail(),
        }
    }
}

impl WarmupClassifier {
    /// Classifies one iteration series via the configured steady-state
    /// detector plus a prefix-shape analysis:
    ///
    /// * steady not reached → [`WarmupClass::NoSteadyState`];
    /// * steady from iteration 0 → [`WarmupClass::Flat`];
    /// * a slower prefix → [`WarmupClass::Warmup`]; a faster prefix →
    ///   [`WarmupClass::Slowdown`];
    /// * a prefix that *sustained* a level better than the final one means
    ///   the series regressed from its best state →
    ///   [`WarmupClass::NoSteadyState`].
    ///
    /// ```
    /// use rigor::{WarmupClass, WarmupClassifier};
    ///
    /// let classifier = WarmupClassifier::default();
    /// let mut jit_like = vec![900.0, 450.0];
    /// jit_like.extend(vec![240.0; 30]);
    /// assert_eq!(classifier.classify(&jit_like), WarmupClass::Warmup);
    /// assert_eq!(classifier.classify(&vec![240.0; 32]), WarmupClass::Flat);
    /// ```
    pub fn classify(&self, times: &[f64]) -> WarmupClass {
        let start = match self.detector.detect(times) {
            SteadyState::NotReached => return WarmupClass::NoSteadyState,
            SteadyState::Reached { start } => start,
        };
        if start == 0 {
            return WarmupClass::Flat;
        }
        let (reference, band) = tail_profile(times, self.tolerance.max(0.01), 5.0);
        let prefix = &times[..start];
        // A prefix that sustained phases both above AND below the steady
        // level (started slow, dipped to a better level, then regressed)
        // never converged to its best state. A prefix that is entirely
        // below is an ordinary slowdown; entirely above is warmup.
        let longest_run = |pred: &dyn Fn(f64) -> bool| -> usize {
            let mut best = 0usize;
            let mut run = 0usize;
            for &x in prefix {
                if pred(x) {
                    run += 1;
                    best = best.max(run);
                } else {
                    run = 0;
                }
            }
            best
        };
        let above = longest_run(&|x| x > reference + band);
        let below = longest_run(&|x| x < reference - band);
        if above > 3 && below > 3 {
            return WarmupClass::NoSteadyState;
        }
        let prefix_level = rigor_stats::median(prefix);
        if prefix_level > reference * (1.0 + self.tolerance) {
            WarmupClass::Warmup
        } else if prefix_level < reference * (1.0 - self.tolerance) {
            WarmupClass::Slowdown
        } else {
            WarmupClass::Flat
        }
    }
}

/// Benchmark-level aggregation of per-invocation classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BenchmarkWarmupClass {
    /// All invocations agree on one class.
    Consistent(WarmupClass),
    /// Invocations disagree (reported with the modal class).
    Inconsistent(WarmupClass),
}

impl BenchmarkWarmupClass {
    /// Short label for tables.
    pub fn label(self) -> String {
        match self {
            BenchmarkWarmupClass::Consistent(c) => c.label().to_string(),
            BenchmarkWarmupClass::Inconsistent(c) => format!("inconsistent({})", c.label()),
        }
    }
}

/// Aggregates per-invocation classes into a benchmark verdict.
pub fn aggregate_classes(classes: &[WarmupClass]) -> Option<BenchmarkWarmupClass> {
    let first = *classes.first()?;
    if classes.iter().all(|c| *c == first) {
        return Some(BenchmarkWarmupClass::Consistent(first));
    }
    // Modal class.
    let mut counts: Vec<(WarmupClass, usize)> = Vec::new();
    for &c in classes {
        match counts.iter_mut().find(|(k, _)| *k == c) {
            Some((_, n)) => *n += 1,
            None => counts.push((c, 1)),
        }
    }
    counts.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
    Some(BenchmarkWarmupClass::Inconsistent(counts[0].0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(level: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (state >> 33) as f64 / (1u64 << 31) as f64;
                level * (1.0 + (u - 0.5) * 0.01)
            })
            .collect()
    }

    #[test]
    fn flat_series() {
        let c = WarmupClassifier::default();
        assert_eq!(c.classify(&noisy(10.0, 60, 1)), WarmupClass::Flat);
    }

    #[test]
    fn warmup_series() {
        let mut xs = noisy(50.0, 15, 2);
        xs.extend(noisy(10.0, 45, 3));
        let c = WarmupClassifier::default();
        assert_eq!(c.classify(&xs), WarmupClass::Warmup);
    }

    #[test]
    fn slowdown_series() {
        let mut xs = noisy(10.0, 30, 4);
        xs.extend(noisy(14.0, 30, 5));
        let c = WarmupClassifier::default();
        assert_eq!(c.classify(&xs), WarmupClass::Slowdown);
    }

    #[test]
    fn no_steady_state_short_tail() {
        // Staircase that keeps shifting until the very end.
        let mut xs = Vec::new();
        for level in 0..8 {
            xs.extend(noisy(80.0 - level as f64 * 8.0, 10, 6 + level));
        }
        xs.extend(noisy(10.0, 8, 20));
        let c = WarmupClassifier::default();
        assert_eq!(c.classify(&xs), WarmupClass::NoSteadyState);
    }

    #[test]
    fn regressing_dip_is_not_steady() {
        // Fast middle phase, ends slower than its best but faster than start:
        // converged to a worse-than-best level → NoSteadyState.
        let mut xs = noisy(20.0, 25, 7);
        xs.extend(noisy(8.0, 25, 8));
        xs.extend(noisy(12.0, 25, 9));
        let c = WarmupClassifier::default();
        assert_eq!(c.classify(&xs), WarmupClass::NoSteadyState);
    }

    #[test]
    fn aggregation_consistent_and_modal() {
        use WarmupClass::*;
        assert_eq!(
            aggregate_classes(&[Warmup, Warmup, Warmup]),
            Some(BenchmarkWarmupClass::Consistent(Warmup))
        );
        assert_eq!(
            aggregate_classes(&[Warmup, Flat, Warmup]),
            Some(BenchmarkWarmupClass::Inconsistent(Warmup))
        );
        assert_eq!(aggregate_classes(&[]), None);
    }

    #[test]
    fn labels() {
        assert_eq!(WarmupClass::NoSteadyState.label(), "no-steady-state");
        assert_eq!(
            BenchmarkWarmupClass::Inconsistent(WarmupClass::Flat).label(),
            "inconsistent(flat)"
        );
    }
}

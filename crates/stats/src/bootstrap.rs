//! Nonparametric bootstrap confidence intervals.
//!
//! Every interval here is a seeded function of its inputs and reproduces
//! bit for bit: a resample draws its indices as `rng.gen_range(0..n)`
//! does, `next_u64() % n` (through [`IndexSampler`], which computes the
//! same remainder without a division), a resample mean adds its draws in
//! draw order, and both tails come from the replicates by selection, with
//! the values a sort would give ([`percentile_ci`]).

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::ci::ConfidenceInterval;
use crate::descriptive::mean;
use crate::quantile::quantile_pair;

/// Default number of bootstrap resamples.
pub const DEFAULT_RESAMPLES: usize = 2_000;

/// Uniform indices into `0..n`, drawn exactly as `rng.gen_range(0..n)`
/// draws them: one `next_u64()`, reduced `% n`.
///
/// The remainder is computed without a division, from a reciprocal worked
/// out once per sample size (Granlund & Montgomery, "Division by invariant
/// integers using multiplication", PLDI 1994, fig. 4.1): a multiply-high
/// gives the quotient, exact for every 64-bit numerator and every `n`
/// from 1 to `u64::MAX`, so the draws, and every interval built from
/// them, are the ones `gen_range` gives.
#[derive(Debug, Clone, Copy)]
pub struct IndexSampler {
    n: u64,
    /// ⌊2⁶⁴·(2ˡ − n)/n⌋ + 1 for l = ⌈log₂ n⌉; fits in 64 bits.
    magic: u64,
    shift1: u32,
    shift2: u32,
}

impl IndexSampler {
    /// The sampler of indices into `0..n`.
    ///
    /// # Panics
    ///
    /// If `n` is 0: there is no index to draw.
    pub fn new(n: usize) -> IndexSampler {
        assert!(n > 0, "cannot sample empty range");
        let n = n as u64;
        let l = u64::BITS - (n - 1).leading_zeros();
        let magic = ((((1u128 << l) - u128::from(n)) << 64) / u128::from(n)) as u64 + 1;
        IndexSampler {
            n,
            magic,
            shift1: l.min(1),
            shift2: l.saturating_sub(1),
        }
    }

    /// `x % n`.
    #[inline]
    fn index(&self, x: u64) -> usize {
        let t = ((u128::from(self.magic) * u128::from(x)) >> 64) as u64;
        let quotient = (t + ((x - t) >> self.shift1)) >> self.shift2;
        (x - quotient * self.n) as usize
    }

    /// The next index from `rng`: what `rng.gen_range(0..n)` returns.
    #[inline]
    fn draw<R: RngCore>(&self, rng: &mut R) -> usize {
        self.index(rng.next_u64())
    }

    /// The mean of one resample of `xs`, added up as the draws arrive: the
    /// sum starts from `-0.0`, as `f64`'s `Sum` does, and adds in draw
    /// order, so it is bit for bit the [`mean`] of the resample without the
    /// resample.
    ///
    /// ```
    /// use rand::{rngs::StdRng, Rng, SeedableRng};
    /// let xs = [3.0, 1.5, -2.0, 8.25, 0.5, 4.0, 7.0];
    /// let sampler = rigor_stats::IndexSampler::new(xs.len());
    /// let (mut a, mut b) = (StdRng::seed_from_u64(1), StdRng::seed_from_u64(1));
    /// for _ in 0..100 {
    ///     let resample: Vec<f64> = (0..xs.len())
    ///         .map(|_| xs[b.gen_range(0..xs.len())])
    ///         .collect();
    ///     let mean = sampler.resample_mean(&xs, &mut a);
    ///     assert_eq!(mean.to_bits(), rigor_stats::mean(&resample).to_bits());
    /// }
    /// ```
    ///
    /// # Panics
    ///
    /// If `xs` does not hold `n` values.
    #[inline]
    pub fn resample_mean<R: RngCore>(&self, xs: &[f64], rng: &mut R) -> f64 {
        assert_eq!(xs.len() as u64, self.n, "sampler built for another size");
        let mut sum = -0.0;
        for _ in 0..xs.len() {
            sum += xs[self.draw(rng)];
        }
        sum / xs.len() as f64
    }
}

/// The percentile interval of `replicates` around `estimate`: the
/// type-7 quantile at `(1 − confidence)/2` and at `1 − (1 − confidence)/2`.
/// NaN bounds when there are no replicates.
pub fn percentile_ci(
    estimate: f64,
    mut replicates: Vec<f64>,
    confidence: f64,
) -> ConfidenceInterval {
    let alpha = 1.0 - confidence;
    let (lower, upper) = quantile_pair(&mut replicates, alpha / 2.0, 1.0 - alpha / 2.0);
    ConfidenceInterval {
        estimate,
        lower,
        upper,
        confidence,
    }
}

/// `statistic` of each of `resamples` resamples of `xs`, drawn one after
/// another from one seeded stream.
fn replicates<F>(xs: &[f64], statistic: F, resamples: usize, seed: u64) -> Vec<f64>
where
    F: Fn(&[f64]) -> f64,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let sampler = IndexSampler::new(xs.len());
    let mut buf = vec![0.0; xs.len()];
    (0..resamples)
        .map(|_| {
            for b in buf.iter_mut() {
                *b = xs[sampler.draw(&mut rng)];
            }
            statistic(&buf)
        })
        .collect()
}

/// Percentile-bootstrap CI for the [`mean`], with each resample's mean
/// summed as it is drawn.
pub fn bootstrap_mean_ci(
    xs: &[f64],
    confidence: f64,
    resamples: usize,
    seed: u64,
) -> Option<ConfidenceInterval> {
    if xs.len() < 2 {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let sampler = IndexSampler::new(xs.len());
    let means = (0..resamples)
        .map(|_| sampler.resample_mean(xs, &mut rng))
        .collect();
    Some(percentile_ci(mean(xs), means, confidence))
}

/// Percentile-bootstrap CI for the ratio of means mean(a)/mean(b), resampling
/// the two samples independently (they come from independent invocations).
/// A resample whose `b` mean is zero is skipped.
///
/// ```
/// let baseline = [100.0, 102.0, 98.0, 101.0, 99.0, 100.5];
/// let improved = [25.0, 25.5, 24.5, 25.2, 24.8, 25.1];
/// let ci = rigor_stats::bootstrap_ratio_ci(&baseline, &improved, 0.95, 2000, 42)
///     .expect("enough samples");
/// assert!(ci.estimate > 3.8 && ci.estimate < 4.2); // ~4x speedup
/// assert!(ci.excludes(1.0));
/// ```
pub fn bootstrap_ratio_ci(
    a: &[f64],
    b: &[f64],
    confidence: f64,
    resamples: usize,
    seed: u64,
) -> Option<ConfidenceInterval> {
    if a.len() < 2 || b.len() < 2 || mean(b) == 0.0 {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let (sample_a, sample_b) = (IndexSampler::new(a.len()), IndexSampler::new(b.len()));
    let mut ratios = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        let ma = sample_a.resample_mean(a, &mut rng);
        let mb = sample_b.resample_mean(b, &mut rng);
        if mb != 0.0 {
            ratios.push(ma / mb);
        }
    }
    Some(percentile_ci(mean(a) / mean(b), ratios, confidence))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn sample(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| 100.0 + rng.gen_range(-5.0..5.0)).collect()
    }

    #[test]
    fn bootstrap_ci_contains_sample_mean() {
        let xs = sample(30, 1);
        let ci = bootstrap_mean_ci(&xs, 0.95, 1000, 42).unwrap();
        assert!(ci.contains(mean(&xs)), "{ci:?}");
        assert!(ci.lower < ci.upper);
    }

    #[test]
    fn bootstrap_is_deterministic_per_seed() {
        let xs = sample(20, 2);
        let a = bootstrap_mean_ci(&xs, 0.95, 500, 7).unwrap();
        let b = bootstrap_mean_ci(&xs, 0.95, 500, 7).unwrap();
        assert_eq!(a, b);
        let c = bootstrap_mean_ci(&xs, 0.95, 500, 8).unwrap();
        assert_ne!(a.lower, c.lower);
    }

    #[test]
    fn wider_with_more_variance() {
        let tight: Vec<f64> = (0..30).map(|i| 100.0 + (i % 3) as f64 * 0.01).collect();
        let loose: Vec<f64> = (0..30).map(|i| 100.0 + ((i * 13) % 60) as f64).collect();
        let ct = bootstrap_mean_ci(&tight, 0.95, 1000, 1).unwrap();
        let cl = bootstrap_mean_ci(&loose, 0.95, 1000, 1).unwrap();
        assert!(cl.half_width() > ct.half_width() * 10.0);
    }

    #[test]
    fn ratio_ci_estimates_true_speedup() {
        let slow: Vec<f64> = sample(25, 3);
        let fast: Vec<f64> = sample(25, 4).iter().map(|x| x / 3.0).collect();
        let ci = bootstrap_ratio_ci(&slow, &fast, 0.95, 2000, 9).unwrap();
        assert!((ci.estimate - 3.0).abs() < 0.15, "{ci:?}");
        assert!(ci.contains(3.0));
        assert!(ci.excludes(1.0));
    }

    #[test]
    fn degenerate_inputs() {
        assert!(bootstrap_mean_ci(&[1.0], 0.95, 100, 1).is_none());
        assert!(bootstrap_ratio_ci(&[1.0, 2.0], &[0.0, 0.0], 0.95, 100, 1).is_none());
    }
}

/// BCa (bias-corrected and accelerated) bootstrap CI for an arbitrary
/// statistic — the standard remedy for the percentile bootstrap's small-n
/// undercoverage (Efron & Tibshirani, ch. 14).
///
/// The bias correction `z0` shifts the percentile endpoints by how asymmetric
/// the resampling distribution sits around the point estimate; the
/// acceleration `a` (from a leave-one-out jackknife) corrects for the
/// statistic's variance changing with the parameter.
///
/// Returns `None` for samples with fewer than 3 observations, and for
/// fewer than 2 resamples: the bias correction clamps the replicate
/// fraction to `[1/r, 1 − 1/r]`, which is empty below 2.
///
/// ```
/// let times = [10.2, 10.5, 9.9, 10.1, 10.4, 10.0, 10.3, 10.2];
/// let ci = rigor_stats::bootstrap_bca_ci(&times, rigor_stats::mean, 0.95, 2000, 7)
///     .expect("enough samples");
/// assert!(ci.contains(rigor_stats::mean(&times)));
/// ```
pub fn bootstrap_bca_ci<F>(
    xs: &[f64],
    statistic: F,
    confidence: f64,
    resamples: usize,
    seed: u64,
) -> Option<ConfidenceInterval>
where
    F: Fn(&[f64]) -> f64,
{
    use crate::dist::{normal_cdf, normal_quantile};
    let n = xs.len();
    if n < 3 || resamples < 2 {
        return None;
    }
    let theta_hat = statistic(xs);

    let mut reps = replicates(xs, &statistic, resamples, seed);

    // Bias correction: the normal quantile of the fraction of replicates
    // below the point estimate.
    let below = reps.iter().filter(|&&r| r < theta_hat).count() as f64;
    let frac =
        (below / resamples as f64).clamp(1.0 / resamples as f64, 1.0 - 1.0 / resamples as f64);
    let z0 = normal_quantile(frac);

    // Acceleration from the leave-one-out jackknife.
    let mut jack = Vec::with_capacity(n);
    let mut loo = Vec::with_capacity(n - 1);
    for i in 0..n {
        loo.clear();
        loo.extend(
            xs.iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, &x)| x),
        );
        jack.push(statistic(&loo));
    }
    let jack_mean = crate::descriptive::mean(&jack);
    let (mut num, mut den) = (0.0, 0.0);
    for &j in &jack {
        let d = jack_mean - j;
        num += d * d * d;
        den += d * d;
    }
    let a = if den > 0.0 {
        num / (6.0 * den.powf(1.5))
    } else {
        0.0
    };

    // Adjusted percentile endpoints.
    let alpha = 1.0 - confidence;
    let adjust = |z_alpha: f64| -> f64 {
        let w = z0 + z_alpha;
        let denom = 1.0 - a * w;
        if denom.abs() < 1e-12 {
            return if w > 0.0 { 1.0 } else { 0.0 };
        }
        normal_cdf(z0 + w / denom).clamp(0.0, 1.0)
    };
    let a1 = adjust(normal_quantile(alpha / 2.0));
    let a2 = adjust(normal_quantile(1.0 - alpha / 2.0));
    let (lower, upper) = quantile_pair(&mut reps, a1.min(a2), a1.max(a2));
    Some(ConfidenceInterval {
        estimate: theta_hat,
        lower,
        upper,
        confidence,
    })
}

#[cfg(test)]
mod bca_tests {
    use super::*;
    use rand::Rng;

    fn skewed_sample(n: usize, seed: u64) -> Vec<f64> {
        // Log-normal-ish: right-skewed like benchmark timings.
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (rng.gen_range(-1.0f64..1.0) * 0.4).exp() * 100.0)
            .collect()
    }

    #[test]
    fn bca_contains_the_point_estimate() {
        let xs = skewed_sample(20, 1);
        let ci = bootstrap_bca_ci(&xs, mean, 0.95, 2000, 42).unwrap();
        assert!(ci.contains(mean(&xs)), "{ci:?}");
        assert!(ci.lower < ci.upper);
    }

    #[test]
    fn bca_is_deterministic_per_seed() {
        let xs = skewed_sample(15, 2);
        let a = bootstrap_bca_ci(&xs, mean, 0.95, 800, 9).unwrap();
        let b = bootstrap_bca_ci(&xs, mean, 0.95, 800, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bca_shifts_endpoints_on_skewed_data() {
        // On right-skewed data, BCa endpoints differ from plain percentile.
        let xs = [1.0, 1.1, 1.2, 1.0, 1.3, 1.1, 5.0, 1.2, 1.05, 1.15];
        let pct = bootstrap_mean_ci(&xs, 0.95, 4000, 3).unwrap();
        let bca = bootstrap_bca_ci(&xs, mean, 0.95, 4000, 3).unwrap();
        assert!(
            (pct.lower - bca.lower).abs() > 1e-6 || (pct.upper - bca.upper).abs() > 1e-6,
            "BCa should adjust the endpoints: {pct:?} vs {bca:?}"
        );
    }

    #[test]
    fn bca_on_symmetric_data_matches_percentile_closely() {
        let xs: Vec<f64> = (0..30)
            .map(|i| 100.0 + ((i * 17) % 21) as f64 - 10.0)
            .collect();
        let pct = bootstrap_mean_ci(&xs, 0.95, 4000, 5).unwrap();
        let bca = bootstrap_bca_ci(&xs, mean, 0.95, 4000, 5).unwrap();
        assert!((pct.lower - bca.lower).abs() < pct.half_width() * 0.3);
        assert!((pct.upper - bca.upper).abs() < pct.half_width() * 0.3);
    }

    #[test]
    fn bca_degenerate_inputs() {
        assert!(bootstrap_bca_ci(&[1.0, 2.0], mean, 0.95, 100, 1).is_none());
        let xs = [1.0, 2.0, 4.0, 3.0];
        for resamples in [0, 1] {
            assert!(bootstrap_bca_ci(&xs, mean, 0.95, resamples, 1).is_none());
        }
        assert!(bootstrap_bca_ci(&xs, mean, 0.95, 2, 1).is_some());
    }
}

#[cfg(test)]
mod exactness_tests {
    //! The sampler is exactly `x % n`, and every bootstrap interval has the
    //! bits of its buffered definition: fill each resample with
    //! `gen_range` draws, take its statistic, then read each tail with
    //! `quantile` (a sorted copy).

    use std::panic::{catch_unwind, AssertUnwindSafe};

    use proptest::prelude::*;
    use rand::Rng;

    use super::*;
    use crate::dist::{normal_cdf, normal_quantile};
    use crate::quantile::quantile;

    fn reference_ci<F: Fn(&[f64]) -> f64>(
        xs: &[f64],
        statistic: F,
        confidence: f64,
        resamples: usize,
        seed: u64,
    ) -> Option<ConfidenceInterval> {
        if xs.len() < 2 {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut buf = vec![0.0; xs.len()];
        let mut stats = Vec::with_capacity(resamples);
        for _ in 0..resamples {
            for b in buf.iter_mut() {
                *b = xs[rng.gen_range(0..xs.len())];
            }
            stats.push(statistic(&buf));
        }
        let alpha = 1.0 - confidence;
        Some(ConfidenceInterval {
            estimate: statistic(xs),
            lower: quantile(&stats, alpha / 2.0),
            upper: quantile(&stats, 1.0 - alpha / 2.0),
            confidence,
        })
    }

    fn reference_ratio_ci(
        a: &[f64],
        b: &[f64],
        confidence: f64,
        resamples: usize,
        seed: u64,
    ) -> Option<ConfidenceInterval> {
        if a.len() < 2 || b.len() < 2 || mean(b) == 0.0 {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ratios = Vec::with_capacity(resamples);
        let mut buf_a = vec![0.0; a.len()];
        let mut buf_b = vec![0.0; b.len()];
        for _ in 0..resamples {
            for x in buf_a.iter_mut() {
                *x = a[rng.gen_range(0..a.len())];
            }
            for x in buf_b.iter_mut() {
                *x = b[rng.gen_range(0..b.len())];
            }
            let mb = mean(&buf_b);
            if mb != 0.0 {
                ratios.push(mean(&buf_a) / mb);
            }
        }
        let alpha = 1.0 - confidence;
        Some(ConfidenceInterval {
            estimate: mean(a) / mean(b),
            lower: quantile(&ratios, alpha / 2.0),
            upper: quantile(&ratios, 1.0 - alpha / 2.0),
            confidence,
        })
    }

    fn reference_bca_ci<F: Fn(&[f64]) -> f64>(
        xs: &[f64],
        statistic: F,
        confidence: f64,
        resamples: usize,
        seed: u64,
    ) -> Option<ConfidenceInterval> {
        let n = xs.len();
        if n < 3 || resamples < 2 {
            return None;
        }
        let theta_hat = statistic(xs);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut buf = vec![0.0; n];
        let mut reps = Vec::with_capacity(resamples);
        for _ in 0..resamples {
            for b in buf.iter_mut() {
                *b = xs[rng.gen_range(0..n)];
            }
            reps.push(statistic(&buf));
        }
        let below = reps.iter().filter(|&&r| r < theta_hat).count() as f64;
        let frac =
            (below / resamples as f64).clamp(1.0 / resamples as f64, 1.0 - 1.0 / resamples as f64);
        let z0 = normal_quantile(frac);
        let mut jack = Vec::with_capacity(n);
        let mut loo = Vec::with_capacity(n - 1);
        for i in 0..n {
            loo.clear();
            loo.extend(
                xs.iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, &x)| x),
            );
            jack.push(statistic(&loo));
        }
        let jack_mean = mean(&jack);
        let (mut num, mut den) = (0.0, 0.0);
        for &j in &jack {
            let d = jack_mean - j;
            num += d * d * d;
            den += d * d;
        }
        let a = if den > 0.0 {
            num / (6.0 * den.powf(1.5))
        } else {
            0.0
        };
        let alpha = 1.0 - confidence;
        let adjust = |z_alpha: f64| -> f64 {
            let w = z0 + z_alpha;
            let denom = 1.0 - a * w;
            if denom.abs() < 1e-12 {
                return if w > 0.0 { 1.0 } else { 0.0 };
            }
            normal_cdf(z0 + w / denom).clamp(0.0, 1.0)
        };
        let a1 = adjust(normal_quantile(alpha / 2.0));
        let a2 = adjust(normal_quantile(1.0 - alpha / 2.0));
        Some(ConfidenceInterval {
            estimate: theta_hat,
            lower: quantile(&reps, a1.min(a2)),
            upper: quantile(&reps, a1.max(a2)),
            confidence,
        })
    }

    /// What a call returned, bit for bit, or that it panicked.
    type Outcome = Result<Option<[u64; 4]>, ()>;

    fn outcome(call: impl FnOnce() -> Option<ConfidenceInterval>) -> Outcome {
        catch_unwind(AssertUnwindSafe(call))
            .map(|ci| ci.map(|c| [c.estimate, c.lower, c.upper, c.confidence].map(f64::to_bits)))
            .map_err(drop)
    }

    const LEVELS: [f64; 5] = [0.5, 0.9, 0.95, 0.99, 0.999];

    /// A sample of `n` values in one of five shapes: timing-like, heavy
    /// ties (zeros among them), signed zeros, subnormals of either sign,
    /// and huge magnitudes of either sign.
    fn sample(n: usize, shape: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let sign = |rng: &mut StdRng| if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
        (0..n)
            .map(|_| match shape {
                0 => 100.0 + rng.gen_range(-5.0..5.0),
                1 => f64::from(rng.gen_range(0..3u32)),
                2 => {
                    if n == 2 || rng.gen_bool(0.5) {
                        -0.0
                    } else {
                        0.0
                    }
                }
                3 => sign(&mut rng) * f64::from_bits(rng.gen_range(1..8u64)),
                _ => sign(&mut rng) * 1e300 * (1.0 + rng.gen::<f64>()),
            })
            .collect()
    }

    /// Every public interval, against its reference, on one case.
    fn assert_identical(a: &[f64], b: &[f64], confidence: f64, resamples: usize, seed: u64) {
        let case = format!("a={a:?} b={b:?} confidence={confidence} resamples={resamples}");
        assert_eq!(
            outcome(|| bootstrap_mean_ci(a, confidence, resamples, seed)),
            outcome(|| reference_ci(a, mean, confidence, resamples, seed)),
            "bootstrap_mean_ci {case}"
        );
        assert_eq!(
            outcome(|| bootstrap_ratio_ci(a, b, confidence, resamples, seed)),
            outcome(|| reference_ratio_ci(a, b, confidence, resamples, seed)),
            "bootstrap_ratio_ci {case}"
        );
        assert_eq!(
            outcome(|| bootstrap_bca_ci(a, mean, confidence, resamples, seed)),
            outcome(|| reference_bca_ci(a, mean, confidence, resamples, seed)),
            "bootstrap_bca_ci {case}"
        );
    }

    #[test]
    fn every_size_shape_count_and_level_matches_the_buffered_reference() {
        // Counts 0 and 1 leave no interval (BCa returns `None` on both
        // sides); count 5 at level 0.5 puts both tails exactly on an order
        // statistic; the others land between two.
        const COUNTS: [usize; 5] = [0, 1, 2, 5, 31];
        for n in 1..=300 {
            let shape = n % 5;
            let a = sample(n, shape, n as u64);
            // A short `b` that often resamples to all zeros, so the ratio
            // skips some resamples.
            let b = sample(2 + n % 4, 1, 1000 + n as u64);
            let confidence = LEVELS[(n / 25) % 5];
            assert_identical(&a, &b, confidence, COUNTS[(n / 5) % 5], n as u64);
        }
    }

    #[test]
    fn two_thousand_resamples_match_the_buffered_reference_at_every_level() {
        for (n, shape) in [
            (2, 0),
            (2, 2),
            (3, 1),
            (5, 3),
            (17, 4),
            (40, 0),
            (40, 2),
            (64, 1),
        ] {
            let a = sample(n, shape, 7 * n as u64);
            let b = sample(3, 1, 11 * n as u64 + 1);
            for confidence in LEVELS {
                assert_identical(&a, &b, confidence, DEFAULT_RESAMPLES, n as u64 + 99);
            }
        }
        let a = sample(300, 0, 300);
        let b = sample(300, 0, 301);
        assert_identical(&a, &b, 0.95, DEFAULT_RESAMPLES, 300);
    }

    #[test]
    fn mixed_signed_zero_replicates_keep_the_stable_sort_signs() {
        // Ratios of ±0.0 means: replicates hold both zeros, and the tails
        // read zero order statistics whose sign only the input order fixes.
        for seed in 0..40 {
            let a = [-0.0, 0.0, -0.0];
            let b = [1.0, 2.0];
            for resamples in [1, 2, 3, 9, 64] {
                assert_identical(&a, &b, 0.5, resamples, seed);
            }
        }
        assert_identical(&[-0.0, -0.0], &[1.0, 1.0], 0.95, 2, 0);
    }

    /// Sample sizes with the reciprocal's edge cases: anything up to 2³²,
    /// powers of two, their neighbours, and `u64::MAX`.
    fn sizes() -> impl Strategy<Value = u64> {
        prop_oneof![
            1u64..=(1 << 32),
            (0u32..64).prop_map(|k| 1u64 << k),
            (1u32..=64).prop_map(|k| u64::MAX >> (64 - k)),
            (0u32..64).prop_map(|k| (1u64 << k) + 1),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[cfg(target_pointer_width = "64")]
        #[test]
        fn the_sampler_is_the_remainder(n in sizes(), x in any::<u64>()) {
            let sampler = IndexSampler::new(n as usize);
            for x in [x, 0, n - 1, n, u64::MAX] {
                prop_assert_eq!(sampler.index(x) as u64, x % n);
            }
        }
    }

    #[test]
    fn the_sampler_draws_what_gen_range_draws() {
        for n in [1usize, 2, 3, 7, 10, 1000, 1 << 20] {
            let sampler = IndexSampler::new(n);
            let (mut ours, mut theirs) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
            for _ in 0..1000 {
                assert_eq!(sampler.draw(&mut ours), theirs.gen_range(0..n));
            }
        }
        assert_eq!(IndexSampler::new(usize::MAX).index(u64::MAX), 0);
    }

    #[test]
    #[should_panic(expected = "cannot sample empty range")]
    fn an_empty_range_has_no_sampler() {
        IndexSampler::new(0);
    }
}

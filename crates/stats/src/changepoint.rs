//! Changepoint detection by binary segmentation with a BIC-style penalty.
//!
//! This is the machinery behind warmup detection à la Barrett et al.
//! (OOPSLA'17): segment a per-iteration timing series into mean-shift
//! segments, then classify the segment structure (warmup, flat, slowdown,
//! no steady state).

use serde::{Deserialize, Serialize};

/// One mean-shift segment of a series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// First index (inclusive).
    pub start: usize,
    /// One past the last index.
    pub end: usize,
    /// Mean of the segment.
    pub mean: f64,
}

impl Segment {
    /// Number of points in the segment.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the segment is empty (never produced by the segmenter).
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Prefix sums enabling O(1) segment cost queries.
struct Prefix {
    sum: Vec<f64>,
    sum_sq: Vec<f64>,
}

impl Prefix {
    fn new(xs: &[f64]) -> Prefix {
        let mut sum = Vec::with_capacity(xs.len() + 1);
        let mut sum_sq = Vec::with_capacity(xs.len() + 1);
        sum.push(0.0);
        sum_sq.push(0.0);
        for &x in xs {
            sum.push(sum.last().expect("nonempty") + x);
            sum_sq.push(sum_sq.last().expect("nonempty") + x * x);
        }
        Prefix { sum, sum_sq }
    }

    /// Sum of squared deviations from the mean over `[a, b)`.
    fn sse(&self, a: usize, b: usize) -> f64 {
        let n = (b - a) as f64;
        if n < 1.0 {
            return 0.0;
        }
        let s = self.sum[b] - self.sum[a];
        let sq = self.sum_sq[b] - self.sum_sq[a];
        (sq - s * s / n).max(0.0)
    }

    fn mean(&self, a: usize, b: usize) -> f64 {
        (self.sum[b] - self.sum[a]) / (b - a) as f64
    }
}

/// Configuration for the segmenter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SegmentConfig {
    /// Minimum points per segment.
    pub min_segment_len: usize,
    /// Penalty multiplier on the BIC term; larger values yield fewer
    /// segments. 1.0 is plain BIC.
    pub penalty_factor: f64,
    /// Hard cap on the number of segments.
    pub max_segments: usize,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            min_segment_len: 3,
            penalty_factor: 1.0,
            max_segments: 16,
        }
    }
}

/// Segments `xs` into mean-shift segments by greedy binary segmentation.
///
/// A split is accepted while it reduces the total SSE by more than the
/// BIC-style penalty `penalty_factor · σ̂² · ln n` (σ̂² estimated from
/// first-order differences, robust to mean shifts).
///
/// ```
/// use rigor_stats::changepoint::{segment, SegmentConfig};
///
/// // Ten slow iterations, then thirty fast ones — a warmup step.
/// let mut series = vec![50.0; 10];
/// series.extend(vec![10.0; 30]);
/// let segments = segment(&series, &SegmentConfig::default());
/// assert_eq!(segments.len(), 2);
/// assert_eq!(segments[1].start, 10);
/// ```
pub fn segment(xs: &[f64], config: &SegmentConfig) -> Vec<Segment> {
    let n = xs.len();
    // A zero minimum would admit empty segments (and an n == 1 series would
    // reach the noise estimator with no lag-1 differences); clamp to 1.
    let min_len = config.min_segment_len.max(1);
    if n == 0 {
        return Vec::new();
    }
    if n < 2 * min_len {
        return vec![Segment {
            start: 0,
            end: n,
            mean: crate::descriptive::mean(xs),
        }];
    }
    let prefix = Prefix::new(xs);
    // Robust noise estimate from lag-1 differences: for i.i.d. noise,
    // X_{i+1} − X_i has scale √2·σ, and the median absolute difference is a
    // robust scale estimate (÷0.6745 for normal consistency). Mean shifts
    // contaminate only a handful of differences, so the median ignores them.
    let abs_diffs: Vec<f64> = xs.windows(2).map(|w| (w[1] - w[0]).abs()).collect();
    let med = crate::descriptive::median(&abs_diffs);
    let sigma = med / (std::f64::consts::SQRT_2 * 0.6745);
    // Floor σ̂² relative to the data scale: on (near-)constant series the
    // median difference is 0, and an absolute floor like 1e-30 sits below
    // the rounding error of the prefix-sum SSE (~n·ε·scale²) — spurious
    // "gains" of that size would split constant data. Relative level
    // differences under 1e-6 are numerical noise, never a real shift.
    let scale = xs.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let sigma2 = (sigma * sigma).max((1e-6 * scale).powi(2)).max(1e-30);
    let penalty = config.penalty_factor * sigma2 * (n as f64).ln() * 4.0;

    let mut boundaries = vec![0usize, n];
    loop {
        if boundaries.len() > config.max_segments {
            break;
        }
        // Find the single best split across all current segments.
        let mut best: Option<(f64, usize)> = None;
        for w in boundaries.windows(2) {
            let (a, b) = (w[0], w[1]);
            if b - a < 2 * min_len {
                continue;
            }
            let whole = prefix.sse(a, b);
            for s in (a + min_len)..=(b - min_len) {
                let gain = whole - prefix.sse(a, s) - prefix.sse(s, b);
                if best.map(|(g, _)| gain > g).unwrap_or(true) {
                    best = Some((gain, s));
                }
            }
        }
        match best {
            Some((gain, split)) if gain > penalty => {
                let pos = boundaries
                    .binary_search(&split)
                    .expect_err("split strictly inside a segment");
                boundaries.insert(pos, split);
            }
            _ => break,
        }
    }

    boundaries
        .windows(2)
        .map(|w| Segment {
            start: w[0],
            end: w[1],
            mean: prefix.mean(w[0], w[1]),
        })
        .collect()
}

/// Penalty factors swept by [`select_penalty_factor`], a geometric grid
/// spanning aggressive (0.25× BIC) to very conservative (64× BIC).
pub const PENALTY_GRID: [f64; 9] = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// How many of the [`PENALTY_GRID`] factors must reproduce a boundary for
/// [`select_penalty_factor`] to treat it as stable.
const STABLE_FACTOR_COUNT: usize = 3;

/// Selects a penalty factor for `xs` by a stability sweep.
///
/// The series is segmented at every factor in [`PENALTY_GRID`] and each
/// interior boundary is scored by how many factors reproduce it. A genuine
/// mean shift survives a wide penalty range, so its boundary recurs across
/// many factors; spurious noise-driven splits exist only in a narrow window
/// at the aggressive end of the grid, recurring once or twice. Boundaries
/// reproduced by at least three factors (`STABLE_FACTOR_COUNT`) form the
/// stable segmentation, and the returned factor is the middle of the grid
/// factors that yield exactly that segmentation. On a pure-noise series the
/// stable set is empty and the selection lands on the (conservative)
/// unsplit factors.
///
/// Degenerate inputs (too short to ever split) and series where no grid
/// factor reproduces the stable set exactly return plain BIC (1.0).
pub fn select_penalty_factor(xs: &[f64], config: &SegmentConfig) -> f64 {
    let min_len = config.min_segment_len.max(1);
    if xs.len() < 2 * min_len {
        return 1.0;
    }
    // Interior boundaries per grid factor (already sorted by construction).
    let boundaries: Vec<Vec<usize>> = PENALTY_GRID
        .iter()
        .map(|&factor| {
            segment(
                xs,
                &SegmentConfig {
                    penalty_factor: factor,
                    ..*config
                },
            )
            .iter()
            .skip(1)
            .map(|s| s.start)
            .collect()
        })
        .collect();
    let mut counts: Vec<(usize, usize)> = Vec::new();
    for bs in &boundaries {
        for &b in bs {
            match counts.iter_mut().find(|(idx, _)| *idx == b) {
                Some((_, n)) => *n += 1,
                None => counts.push((b, 1)),
            }
        }
    }
    let mut stable: Vec<usize> = counts
        .iter()
        .filter(|(_, n)| *n >= STABLE_FACTOR_COUNT)
        .map(|(b, _)| *b)
        .collect();
    stable.sort_unstable();
    let matching: Vec<usize> = boundaries
        .iter()
        .enumerate()
        .filter(|(_, bs)| **bs == stable)
        .map(|(i, _)| i)
        .collect();
    match matching.get(matching.len() / 2) {
        Some(&mid) => PENALTY_GRID[mid],
        None => 1.0,
    }
}

/// Merges adjacent segments whose means are equivalent within a relative
/// tolerance. Changepoint detection is sensitive enough to flag sub-percent
/// mean shifts that are real but irrelevant to steady-state reasoning; this
/// pass collapses them. Merged means are length-weighted.
pub fn merge_equivalent(segs: &[Segment], rel_tol: f64) -> Vec<Segment> {
    let mut out: Vec<Segment> = Vec::with_capacity(segs.len());
    for &seg in segs {
        match out.last_mut() {
            Some(prev)
                if (prev.mean - seg.mean).abs()
                    <= rel_tol * prev.mean.abs().max(seg.mean.abs()) =>
            {
                let total = (prev.len() + seg.len()) as f64;
                prev.mean = (prev.mean * prev.len() as f64 + seg.mean * seg.len() as f64) / total;
                prev.end = seg.end;
            }
            _ => out.push(seg),
        }
    }
    out
}

#[cfg(test)]
mod merge_tests {
    use super::*;

    fn seg(start: usize, end: usize, mean: f64) -> Segment {
        Segment { start, end, mean }
    }

    #[test]
    fn equivalent_neighbours_merge_weighted() {
        let segs = [seg(0, 30, 100.0), seg(30, 40, 101.0)];
        let merged = merge_equivalent(&segs, 0.02);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].start, 0);
        assert_eq!(merged[0].end, 40);
        assert!((merged[0].mean - 100.25).abs() < 1e-9);
    }

    #[test]
    fn distinct_levels_stay_separate() {
        let segs = [seg(0, 10, 50.0), seg(10, 40, 10.0)];
        let merged = merge_equivalent(&segs, 0.02);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn chain_merging_accumulates() {
        // 100, 101.5, 102 — each neighbour within 2% of the merged prefix
        // (100.75 after the first merge, then 102 is within 2% of that).
        let segs = [seg(0, 10, 100.0), seg(10, 20, 101.5), seg(20, 30, 102.0)];
        let merged = merge_equivalent(&segs, 0.02);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].end, 30);
    }

    #[test]
    fn empty_input() {
        assert!(merge_equivalent(&[], 0.02).is_empty());
    }
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
                let u = (state >> 33) as f64 / (1u64 << 31) as f64; // [0,1)
                level + (u - 0.5) * 0.2
            })
            .collect()
    }

    #[test]
    fn flat_series_is_one_segment() {
        let xs = noisy(10.0, 100, 1);
        let segs = segment(&xs, &SegmentConfig::default());
        assert_eq!(segs.len(), 1);
        assert!((segs[0].mean - 10.0).abs() < 0.05);
    }

    #[test]
    fn single_step_is_two_segments() {
        let mut xs = noisy(20.0, 50, 2);
        xs.extend(noisy(10.0, 50, 3));
        let segs = segment(&xs, &SegmentConfig::default());
        assert_eq!(segs.len(), 2, "{segs:?}");
        assert!((segs[0].mean - 20.0).abs() < 0.1);
        assert!((segs[1].mean - 10.0).abs() < 0.1);
        assert!(
            (segs[0].end as i64 - 50).abs() <= 2,
            "split near 50: {segs:?}"
        );
    }

    #[test]
    fn warmup_staircase_finds_all_steps() {
        let mut xs = Vec::new();
        xs.extend(noisy(40.0, 30, 4));
        xs.extend(noisy(25.0, 30, 5));
        xs.extend(noisy(10.0, 60, 6));
        let segs = segment(&xs, &SegmentConfig::default());
        assert_eq!(segs.len(), 3, "{segs:?}");
        assert!(segs[0].mean > segs[1].mean && segs[1].mean > segs[2].mean);
    }

    #[test]
    fn segments_partition_the_series() {
        let mut xs = noisy(5.0, 40, 7);
        xs.extend(noisy(9.0, 40, 8));
        xs.extend(noisy(2.0, 40, 9));
        let segs = segment(&xs, &SegmentConfig::default());
        assert_eq!(segs[0].start, 0);
        assert_eq!(segs.last().unwrap().end, xs.len());
        for w in segs.windows(2) {
            assert_eq!(w[0].end, w[1].start, "segments must tile the series");
        }
        assert!(segs.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn short_series_is_single_segment() {
        let xs = vec![1.0, 5.0, 2.0];
        let segs = segment(&xs, &SegmentConfig::default());
        assert_eq!(segs.len(), 1);
    }

    #[test]
    fn empty_series_yields_nothing() {
        assert!(segment(&[], &SegmentConfig::default()).is_empty());
    }

    #[test]
    fn higher_penalty_fewer_segments() {
        let mut xs = Vec::new();
        for i in 0..6 {
            xs.extend(noisy(10.0 + i as f64 * 0.35, 25, 10 + i));
        }
        let loose = segment(
            &xs,
            &SegmentConfig {
                penalty_factor: 0.2,
                ..Default::default()
            },
        );
        let strict = segment(
            &xs,
            &SegmentConfig {
                penalty_factor: 50.0,
                ..Default::default()
            },
        );
        assert!(loose.len() >= strict.len());
    }

    // Inter-run histories are much shorter than iteration series; the
    // degenerate lengths below must yield "insufficient data" behaviour (a
    // single whole-series segment, or nothing) — never a panic or a
    // spurious split.

    #[test]
    fn single_point_is_one_whole_segment() {
        let segs = segment(&[42.0], &SegmentConfig::default());
        assert_eq!(
            segs,
            vec![Segment {
                start: 0,
                end: 1,
                mean: 42.0
            }]
        );
    }

    #[test]
    fn zero_min_segment_len_is_clamped_not_panicking() {
        let cfg = SegmentConfig {
            min_segment_len: 0,
            ..Default::default()
        };
        // n == 1 with min_len 0 used to reach the noise estimator with an
        // empty diff series; the clamp keeps it on the short-series path.
        let segs = segment(&[7.0], &cfg);
        assert_eq!(segs.len(), 1);
        // And longer series must never produce empty segments.
        let mut xs = vec![10.0; 8];
        xs.extend(vec![20.0; 8]);
        let segs = segment(&xs, &cfg);
        assert!(segs.iter().all(|s| !s.is_empty()), "{segs:?}");
        assert_eq!(segs.first().unwrap().start, 0);
        assert_eq!(segs.last().unwrap().end, xs.len());
    }

    #[test]
    fn series_shorter_than_two_min_segments_is_never_split() {
        let cfg = SegmentConfig {
            min_segment_len: 4,
            ..Default::default()
        };
        // A blatant step, but with only 7 points no split can satisfy the
        // minimum segment length on both sides.
        let xs = [10.0, 10.0, 10.0, 10.0, 99.0, 99.0, 99.0];
        let segs = segment(&xs, &cfg);
        assert_eq!(segs.len(), 1, "{segs:?}");
        assert_eq!(segs[0].start, 0);
        assert_eq!(segs[0].end, xs.len());
    }

    #[test]
    fn constant_series_is_one_segment() {
        let xs = vec![5.0; 40];
        let segs = segment(&xs, &SegmentConfig::default());
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].mean, 5.0);
    }

    #[test]
    fn auto_penalty_keeps_a_clear_step() {
        let mut xs = noisy(20.0, 40, 11);
        xs.extend(noisy(10.0, 40, 12));
        let cfg = SegmentConfig::default();
        let factor = select_penalty_factor(&xs, &cfg);
        let segs = segment(
            &xs,
            &SegmentConfig {
                penalty_factor: factor,
                ..cfg
            },
        );
        assert_eq!(segs.len(), 2, "factor {factor}: {segs:?}");
    }

    #[test]
    fn auto_penalty_is_conservative_on_noise() {
        let xs = noisy(10.0, 80, 13);
        let cfg = SegmentConfig::default();
        let factor = select_penalty_factor(&xs, &cfg);
        let segs = segment(
            &xs,
            &SegmentConfig {
                penalty_factor: factor,
                ..cfg
            },
        );
        assert_eq!(segs.len(), 1, "factor {factor}: {segs:?}");
    }

    #[test]
    fn auto_penalty_on_degenerate_input_is_bic() {
        let cfg = SegmentConfig::default();
        assert_eq!(select_penalty_factor(&[], &cfg), 1.0);
        assert_eq!(select_penalty_factor(&[1.0, 2.0], &cfg), 1.0);
    }

    #[test]
    fn max_segments_is_respected() {
        let mut xs = Vec::new();
        for i in 0..20 {
            xs.extend(noisy(10.0 * (i % 2 + 1) as f64, 10, 30 + i));
        }
        let cfg = SegmentConfig {
            max_segments: 4,
            min_segment_len: 3,
            penalty_factor: 0.1,
        };
        let segs = segment(&xs, &cfg);
        assert!(segs.len() <= 4);
    }
}

//! Trend analysis: changepoint alerts over a benchmark's archived history.
//!
//! The regression gate ([`crate::regress`]) answers "is HEAD slower than a
//! chosen baseline?". This module answers the longitudinal question the
//! ROADMAP poses: *across the whole archived history, at which run did a
//! benchmark's level shift?* It lifts the binary-segmentation machinery of
//! [`rigor_stats::changepoint`] from intra-invocation iteration series to
//! the inter-run history (Barrett et al., OOPSLA'17, applied across runs),
//! attaches a bootstrap confidence interval to every segment level and to
//! every shift's magnitude (Georges et al., OOPSLA'07 style), and controls
//! the suite-wide false-alarm rate by correcting the shifts' p-values
//! across *benchmarks × changepoints* with [`rigor_stats::fdr`].
//!
//! Like the gate, everything here is pure data-in/data-out: a history is a
//! slice of [`TrendPoint`]s (one per archived run, in archive order).
//! Building those points out of the on-disk archive lives in `rigor-store`,
//! which depends on this crate.
//!
//! The [`synth`] submodule is the calibration harness: a seeded
//! synthetic-history generator (step changes, drift, heteroscedastic noise
//! and no-change nulls) used by the test suite to empirically bound the
//! detector's false-positive rate on null histories and its detection power
//! on known shifts.

use std::fmt;
use std::ops::Range;

use rigor_stats::changepoint::{segment, select_penalty_factor, Segment, SegmentConfig};
use rigor_stats::{
    bootstrap_mean_ci, bootstrap_ratio_ci, mean, welch_t_test, ConfidenceInterval,
    DEFAULT_RESAMPLES,
};
use serde::json::{DeError, JsonValue};
use serde::{Deserialize, Serialize};

use crate::measurement::BenchmarkMeasurement;
use crate::regress::Correction;
use crate::sequential::MAX_DROP_FRAC;
use crate::steady::{per_invocation_steady_means, SteadyStateDetector};

/// Default minimum number of runs per segment. Two runs at a new level are
/// the earliest point at which a shift is distinguishable from a single
/// outlier run.
pub const DEFAULT_MIN_SEGMENT: usize = 2;

/// Default bootstrap seed for trend CIs; fixed so reports are reproducible.
pub const DEFAULT_TREND_SEED: u64 = 0x7472656e64; // "trend"

/// How the segmentation penalty is chosen (`--penalty auto|bic|<float>`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Penalty {
    /// Stability sweep: the factor in the middle of the widest plateau of
    /// penalty values yielding the same segmentation
    /// ([`rigor_stats::changepoint::select_penalty_factor`]). The default.
    #[default]
    Auto,
    /// Plain BIC (penalty factor 1.0).
    Bic,
    /// An explicit penalty factor.
    Factor(f64),
}

impl Penalty {
    /// Parses a CLI spelling: `auto`, `bic`, or a positive float.
    pub fn parse(s: &str) -> Option<Penalty> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Some(Penalty::Auto),
            "bic" => Some(Penalty::Bic),
            other => other
                .parse::<f64>()
                .ok()
                .filter(|f| f.is_finite() && *f > 0.0)
                .map(Penalty::Factor),
        }
    }

    /// The concrete penalty factor to segment `values` with.
    pub fn resolve(self, values: &[f64], config: &SegmentConfig) -> f64 {
        match self {
            Penalty::Auto => select_penalty_factor(values, config),
            Penalty::Bic => 1.0,
            Penalty::Factor(f) => f,
        }
    }
}

impl fmt::Display for Penalty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Penalty::Auto => f.write_str("auto"),
            Penalty::Bic => f.write_str("bic"),
            Penalty::Factor(v) => write!(f, "{v}"),
        }
    }
}

// Untagged on the wire: `"auto"`, `"bic"`, or the factor as a number.
impl Serialize for Penalty {
    fn to_value(&self) -> JsonValue {
        match self {
            Penalty::Auto => JsonValue::Str("auto".into()),
            Penalty::Bic => JsonValue::Str("bic".into()),
            Penalty::Factor(v) => v.to_value(),
        }
    }
}

// Read from any spelling `Penalty::parse` takes, or a positive factor.
impl Deserialize for Penalty {
    fn from_value(v: &JsonValue) -> Result<Penalty, DeError> {
        match v {
            JsonValue::Str(s) => Penalty::parse(s),
            JsonValue::Num(_) => v
                .as_f64()
                .filter(|f| f.is_finite() && *f > 0.0)
                .map(Penalty::Factor),
            _ => None,
        }
        .ok_or_else(|| DeError::expected("\"auto\", \"bic\" or a positive penalty factor", v))
    }
}

/// One archived run of one benchmark, reduced to its steady-state sample.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendPoint {
    /// Archive sequence number of the run.
    pub seq: u64,
    /// Content-addressed run id.
    pub run_id: String,
    /// Optional human label of the run.
    pub label: Option<String>,
    /// The run-level steady time: mean of `samples`.
    pub value: f64,
    /// Per-invocation steady means — the run's statistical sample.
    pub samples: Vec<f64>,
}

impl TrendPoint {
    /// Builds a point from raw per-invocation steady means. Returns `None`
    /// on an empty sample.
    pub fn new(seq: u64, run_id: String, label: Option<String>, samples: Vec<f64>) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let value = mean(&samples);
        Some(TrendPoint {
            seq,
            run_id,
            label,
            value,
            samples,
        })
    }

    /// Reduces an archived measurement to a point: warmup excised per
    /// invocation, per-invocation steady means as the sample. Quarantined
    /// measurements and runs with no usable steady state yield `None` —
    /// they drop out of the history rather than poisoning it.
    pub fn from_measurement(
        seq: u64,
        run_id: &str,
        label: Option<&str>,
        m: &BenchmarkMeasurement,
        detector: &SteadyStateDetector,
    ) -> Option<Self> {
        if m.quarantined {
            return None;
        }
        let samples = per_invocation_steady_means(m, detector, MAX_DROP_FRAC)?;
        TrendPoint::new(seq, run_id.to_string(), label.map(str::to_string), samples)
    }
}

/// Tuning of the trend analysis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrendConfig {
    /// Minimum runs per segment (`--min-segment`); also the "newly
    /// detected" window for shift-at-HEAD alerts.
    pub min_segment: usize,
    /// How the segmentation penalty is chosen (`--penalty`).
    pub penalty: Penalty,
    /// Confidence level of segment-level and magnitude CIs.
    pub confidence: f64,
    /// Significance level applied to *corrected* p-values.
    pub fdr_q: f64,
    /// Multiple-comparison correction across benchmarks × changepoints.
    pub correction: Correction,
    /// Bootstrap resamples for the CIs.
    pub resamples: usize,
    /// Bootstrap seed; fixed by default so reports are reproducible.
    pub seed: u64,
    /// Hard cap on segments per benchmark.
    pub max_segments: usize,
}

impl Default for TrendConfig {
    fn default() -> Self {
        TrendConfig {
            min_segment: DEFAULT_MIN_SEGMENT,
            penalty: Penalty::default(),
            confidence: 0.95,
            fdr_q: 0.05,
            correction: Correction::default(),
            resamples: DEFAULT_RESAMPLES,
            seed: DEFAULT_TREND_SEED,
            max_segments: 16,
        }
    }
}

impl TrendConfig {
    /// Sets the minimum runs per segment (builder style).
    pub fn with_min_segment(mut self, min: usize) -> Self {
        self.min_segment = min;
        self
    }

    /// Sets the penalty selection (builder style).
    pub fn with_penalty(mut self, penalty: Penalty) -> Self {
        self.penalty = penalty;
        self
    }

    /// Sets the CI confidence level (builder style).
    pub fn with_confidence(mut self, confidence: f64) -> Self {
        self.confidence = confidence;
        self
    }

    /// Sets the corrected significance level (builder style).
    pub fn with_fdr_q(mut self, q: f64) -> Self {
        self.fdr_q = q;
        self
    }

    /// Sets the correction procedure (builder style).
    pub fn with_correction(mut self, correction: Correction) -> Self {
        self.correction = correction;
        self
    }

    /// Sets the bootstrap seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Direction of a level shift, in *time* terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ShiftDirection {
    /// The new level is slower (larger times) — the alarming direction.
    Slower,
    /// The new level is faster.
    Faster,
}

impl ShiftDirection {
    /// Stable wire name (`"slower"` / `"faster"`).
    pub fn name(self) -> &'static str {
        match self {
            ShiftDirection::Slower => "slower",
            ShiftDirection::Faster => "faster",
        }
    }
}

impl fmt::Display for ShiftDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A benchmark's overall trend verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum TrendStatus {
    /// One level across the whole history (no significant shift).
    Stable,
    /// At least one statistically significant level shift.
    Shifted,
    /// Too few archived runs to segment (fewer than `2 × min_segment`).
    InsufficientData,
}

impl TrendStatus {
    /// Stable wire name (`"stable"` / `"shifted"` / `"insufficient-data"`).
    pub fn name(self) -> &'static str {
        match self {
            TrendStatus::Stable => "stable",
            TrendStatus::Shifted => "shifted",
            TrendStatus::InsufficientData => "insufficient-data",
        }
    }
}

/// One constant-level stretch of a benchmark's history.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrendSegment {
    /// First run index of the segment (into the analyzed history).
    pub start: usize,
    /// One past the last run index.
    pub end: usize,
    /// Archive sequence number of the segment's first run.
    pub first_seq: u64,
    /// Archive sequence number of the segment's last run.
    pub last_seq: u64,
    /// Number of runs in the segment.
    pub runs: usize,
    /// Level estimate: mean over the segment's pooled invocation samples.
    pub mean: f64,
    /// Bootstrap CI on the level (`None` when the pooled sample is
    /// degenerate).
    pub ci: Option<ConfidenceInterval>,
}

/// One detected level shift.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Changepoint {
    /// Run index (into the analyzed history) where the new level starts.
    pub index: usize,
    /// Archive sequence number of that run.
    pub seq: u64,
    /// Content-addressed id of that run — the run that shifted.
    pub run_id: String,
    /// Whether the new level is slower or faster.
    pub direction: ShiftDirection,
    /// Level before the shift (pooled mean of the preceding segment).
    pub before_mean: f64,
    /// Level after the shift (pooled mean of the following segment).
    pub after_mean: f64,
    /// Bootstrap CI on the magnitude, as the time ratio `after / before`
    /// (> 1 = slower).
    pub magnitude: Option<ConfidenceInterval>,
    /// Raw Welch p-value of the shift (degenerate zero-variance cases are
    /// resolved from the collapsed magnitude CI, as in the gate).
    pub p_raw: f64,
    /// The p-value after correction across benchmarks × changepoints.
    pub p_adjusted: Option<f64>,
    /// True when `p_adjusted ≤ fdr_q`.
    pub significant: bool,
    /// True when this shift starts the final segment and that segment is
    /// still within `min_segment` runs of HEAD — i.e. the shift has only
    /// just become detectable. This is what `rigor trend` alerts on.
    pub at_head: bool,
}

/// One benchmark's trend over its archived history.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchmarkTrend {
    /// Benchmark name.
    pub benchmark: String,
    /// Number of usable archived runs analyzed.
    pub runs: usize,
    /// The verdict.
    pub status: TrendStatus,
    /// The resolved segmentation penalty factor (`None` when the history
    /// was too short to analyze).
    pub penalty_factor: Option<f64>,
    /// Constant-level stretches, in history order.
    pub segments: Vec<TrendSegment>,
    /// Detected shifts between adjacent segments, in history order.
    pub changepoints: Vec<Changepoint>,
    /// Human-readable context (why data was insufficient).
    pub note: Option<String>,
}

impl BenchmarkTrend {
    /// The significant newly-detected shift at HEAD, if any — what turns
    /// into an alert (and exit code 1).
    pub fn alert(&self) -> Option<&Changepoint> {
        self.changepoints
            .iter()
            .find(|c| c.significant && c.at_head)
    }

    /// All significant shifts, old or new.
    pub fn significant_shifts(&self) -> Vec<&Changepoint> {
        self.changepoints.iter().filter(|c| c.significant).collect()
    }
}

/// The whole suite's trend report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrendReport {
    /// The configuration the analysis ran under.
    pub config: TrendConfig,
    /// Per-benchmark trends, in input order.
    pub benchmarks: Vec<BenchmarkTrend>,
}

impl TrendReport {
    /// Benchmarks with a significant newly-detected shift at HEAD — the
    /// alerts `rigor trend` exits 1 on.
    pub fn alerts(&self) -> Vec<&BenchmarkTrend> {
        self.benchmarks
            .iter()
            .filter(|b| b.alert().is_some())
            .collect()
    }

    /// Total number of significant shifts across the suite.
    pub fn significant_count(&self) -> usize {
        self.benchmarks
            .iter()
            .map(|b| b.significant_shifts().len())
            .sum()
    }

    /// Total number of detected changepoints (significant or not).
    pub fn changepoint_count(&self) -> usize {
        self.benchmarks.iter().map(|b| b.changepoints.len()).sum()
    }
}

/// Deterministic per-(benchmark, slot) bootstrap seed (FNV-1a over the
/// benchmark name, mixed with the base seed and a slot tag) so every CI in
/// a report is reproducible yet decorrelated.
fn derive_seed(base: u64, benchmark: &str, tag: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ base;
    for b in benchmark.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= tag;
    h.wrapping_mul(0x0000_0100_0000_01b3)
}

/// Segments a history's run values under the configured penalty: the
/// resolved penalty factor and the segments. `None` when the history is
/// too short to segment (fewer than `2 × min_segment` runs).
fn segmentation(points: &[TrendPoint], config: &TrendConfig) -> Option<(f64, Vec<Segment>)> {
    let min_seg = config.min_segment.max(1);
    if points.len() < 2 * min_seg {
        return None;
    }
    let values: Vec<f64> = points.iter().map(|p| p.value).collect();
    let seg_config = SegmentConfig {
        min_segment_len: min_seg,
        penalty_factor: 1.0,
        max_segments: config.max_segments,
    };
    let factor = config.penalty.resolve(&values, &seg_config);
    let segs = segment(
        &values,
        &SegmentConfig {
            penalty_factor: factor,
            ..seg_config
        },
    );
    Some((factor, segs))
}

/// The run-index range of a history's current segment: every run since the
/// level last shifted, or the whole history when it is too short to
/// segment. It is the last segment [`analyze_trend`] reports, without the
/// CIs and tests that analysis attaches to every segment and shift.
pub fn current_segment(points: &[TrendPoint], config: &TrendConfig) -> Range<usize> {
    segmentation(points, config)
        .and_then(|(_, segs)| segs.last().map(|s| s.start..s.end))
        .unwrap_or(0..points.len())
}

/// Analyzes one benchmark's history; p-values are raw until the caller
/// corrects them suite-wide.
fn analyze_one(benchmark: &str, points: &[TrendPoint], config: &TrendConfig) -> BenchmarkTrend {
    let min_seg = config.min_segment.max(1);
    let n = points.len();
    let Some((factor, segs)) = segmentation(points, config) else {
        return BenchmarkTrend {
            benchmark: benchmark.to_string(),
            runs: n,
            status: TrendStatus::InsufficientData,
            penalty_factor: None,
            segments: Vec::new(),
            changepoints: Vec::new(),
            note: Some(format!(
                "insufficient data: {n} usable run(s) archived, trend analysis \
                 needs at least {} (2 × min-segment {min_seg})",
                2 * min_seg
            )),
        };
    };

    // Pool every run's invocation samples per segment: the segment level
    // and all shift statistics are computed over invocations, not run
    // means, so wide runs weigh in proportionally.
    let pooled: Vec<Vec<f64>> = segs
        .iter()
        .map(|s| {
            points[s.start..s.end]
                .iter()
                .flat_map(|p| p.samples.iter().copied())
                .collect()
        })
        .collect();

    let segments: Vec<TrendSegment> = segs
        .iter()
        .zip(&pooled)
        .enumerate()
        .map(|(i, (s, sample))| TrendSegment {
            start: s.start,
            end: s.end,
            first_seq: points[s.start].seq,
            last_seq: points[s.end - 1].seq,
            runs: s.end - s.start,
            mean: mean(sample),
            ci: bootstrap_mean_ci(
                sample,
                config.confidence,
                config.resamples,
                derive_seed(config.seed, benchmark, 2 * i as u64),
            ),
        })
        .collect();

    let changepoints: Vec<Changepoint> = (1..segments.len())
        .map(|i| {
            let (before, after) = (&pooled[i - 1], &pooled[i]);
            let (before_mean, after_mean) = (segments[i - 1].mean, segments[i].mean);
            let index = segments[i].start;
            let magnitude = bootstrap_ratio_ci(
                after,
                before,
                config.confidence,
                config.resamples,
                derive_seed(config.seed, benchmark, 2 * i as u64 + 1),
            );
            // Bit-identical deterministic runs have zero variance: Welch
            // degenerates; resolve the p from the collapsed magnitude CI
            // exactly as the regression gate does.
            let p_raw = match welch_t_test(before, after) {
                Some(t) if !t.p_value.is_nan() => t.p_value,
                _ => match &magnitude {
                    Some(ci) if ci.excludes(1.0) => 0.0,
                    _ => 1.0,
                },
            };
            Changepoint {
                index,
                seq: points[index].seq,
                run_id: points[index].run_id.clone(),
                direction: if after_mean > before_mean {
                    ShiftDirection::Slower
                } else {
                    ShiftDirection::Faster
                },
                before_mean,
                after_mean,
                magnitude,
                p_raw,
                p_adjusted: None,
                significant: false,
                at_head: i == segments.len() - 1 && n - index <= min_seg,
            }
        })
        .collect();

    BenchmarkTrend {
        benchmark: benchmark.to_string(),
        runs: n,
        status: TrendStatus::Stable, // refined after correction
        penalty_factor: Some(factor),
        segments,
        changepoints,
        note: None,
    }
}

/// Analyzes every benchmark's history and corrects significance across the
/// whole family of *benchmarks × changepoints* — each detected shift is one
/// hypothesis test, and a 20-benchmark archive scanned nightly would
/// false-alarm weekly without the correction.
pub fn analyze_trends(
    histories: &[(String, Vec<TrendPoint>)],
    config: &TrendConfig,
) -> TrendReport {
    let mut benchmarks: Vec<BenchmarkTrend> = histories
        .iter()
        .map(|(name, points)| analyze_one(name, points, config))
        .collect();

    let mut slots: Vec<(usize, usize)> = Vec::new();
    let mut raw: Vec<f64> = Vec::new();
    for (bi, b) in benchmarks.iter().enumerate() {
        for (ci, c) in b.changepoints.iter().enumerate() {
            slots.push((bi, ci));
            raw.push(c.p_raw);
        }
    }
    let adjusted = config.correction.adjust(&raw);
    for ((bi, ci), adj) in slots.into_iter().zip(adjusted) {
        let cp = &mut benchmarks[bi].changepoints[ci];
        cp.p_adjusted = Some(adj);
        cp.significant = adj <= config.fdr_q;
    }
    for b in &mut benchmarks {
        if b.status != TrendStatus::InsufficientData {
            b.status = if b.changepoints.iter().any(|c| c.significant) {
                TrendStatus::Shifted
            } else {
                TrendStatus::Stable
            };
        }
    }

    TrendReport {
        config: config.clone(),
        benchmarks,
    }
}

/// Analyzes a single benchmark's history (correction degenerates to the
/// single-benchmark family).
pub fn analyze_trend(
    benchmark: &str,
    points: &[TrendPoint],
    config: &TrendConfig,
) -> BenchmarkTrend {
    analyze_trends(&[(benchmark.to_string(), points.to_vec())], config)
        .benchmarks
        .pop()
        .expect("one history in, one trend out")
}

/// Calibration harness: seeded synthetic histories with known ground truth.
///
/// The test suite uses these to *measure* the detector instead of trusting
/// it: the empirical false-positive rate over hundreds of null histories
/// must stay at or below the configured FDR level, and a known injected
/// step must be found at (±1 run) the injected index.
pub mod synth {
    use super::*;

    /// Ground-truth shape of a synthetic history.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum Shape {
        /// No change: one level end to end.
        Null,
        /// A step: runs `at..` shift to `level × (1 + frac)`.
        Step {
            /// Run index where the new level starts.
            at: usize,
            /// Relative level change (positive = slower).
            frac: f64,
        },
        /// A linear drift from `level` to `level × (1 + total_frac)`.
        Drift {
            /// Total relative change across the whole history.
            total_frac: f64,
        },
    }

    /// A reproducible synthetic history generator.
    #[derive(Debug, Clone)]
    pub struct SynthHistory {
        /// Number of runs.
        pub runs: usize,
        /// Invocation samples per run.
        pub samples_per_run: usize,
        /// Base level (ns).
        pub level: f64,
        /// Per-sample noise standard deviation as a fraction of the level.
        pub rel_noise: f64,
        /// When true, the noise scale varies from run to run (0.5×–1.5×),
        /// modelling machines whose variance is itself unstable.
        pub heteroscedastic: bool,
        /// Ground-truth shape.
        pub shape: Shape,
        /// Generator seed.
        pub seed: u64,
    }

    impl Default for SynthHistory {
        fn default() -> Self {
            SynthHistory {
                runs: 30,
                samples_per_run: 5,
                level: 1000.0,
                rel_noise: 0.01,
                heteroscedastic: false,
                shape: Shape::Null,
                seed: 1,
            }
        }
    }

    /// splitmix64: tiny, seedable, and plenty for synthetic noise.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn uniform(state: &mut u64) -> f64 {
        (next(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    impl SynthHistory {
        /// Sets the shape (builder style).
        pub fn with_shape(mut self, shape: Shape) -> Self {
            self.shape = shape;
            self
        }

        /// Sets the seed (builder style).
        pub fn with_seed(mut self, seed: u64) -> Self {
            self.seed = seed;
            self
        }

        /// The noise standard deviation of a *run value* (the mean of
        /// `samples_per_run` samples) — what "a 3σ step" is measured in.
        pub fn value_sigma(&self) -> f64 {
            self.level * self.rel_noise / (self.samples_per_run as f64).sqrt()
        }

        /// Generates the history, deterministically from the seed.
        pub fn generate(&self) -> Vec<TrendPoint> {
            let mut state = self.seed.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ 0x6368_616e_6765; // "change"
            (0..self.runs)
                .map(|r| {
                    let shape_level = match self.shape {
                        Shape::Null => self.level,
                        Shape::Step { at, frac } => {
                            if r >= at {
                                self.level * (1.0 + frac)
                            } else {
                                self.level
                            }
                        }
                        Shape::Drift { total_frac } => {
                            let t = r as f64 / (self.runs.max(2) - 1) as f64;
                            self.level * (1.0 + total_frac * t)
                        }
                    };
                    let scale = if self.heteroscedastic {
                        self.rel_noise * (0.5 + uniform(&mut state))
                    } else {
                        self.rel_noise
                    };
                    // Uniform noise of standard deviation `scale × level`:
                    // half-width a = σ·√3.
                    let a = scale * self.level * 3f64.sqrt();
                    let samples: Vec<f64> = (0..self.samples_per_run)
                        .map(|_| shape_level + (2.0 * uniform(&mut state) - 1.0) * a)
                        .collect();
                    let run_id = format!("{:016x}{:016x}", next(&mut state), r as u64);
                    TrendPoint::new(r as u64, run_id, None, samples).expect("non-empty sample")
                })
                .collect()
        }
    }

    /// Fraction of seeded null replications that raise any significant
    /// changepoint — the empirical false-positive rate of the detector
    /// under `config`. Replication `i` uses seed `base.seed + i`.
    pub fn null_alert_rate(base: &SynthHistory, replications: usize, config: &TrendConfig) -> f64 {
        let mut alerts = 0usize;
        for i in 0..replications {
            let points = base
                .clone()
                .with_shape(Shape::Null)
                .with_seed(base.seed.wrapping_add(i as u64))
                .generate();
            let trend = analyze_trend("null", &points, config);
            if !trend.significant_shifts().is_empty() {
                alerts += 1;
            }
        }
        alerts as f64 / replications.max(1) as f64
    }

    /// Index of the most significant detected shift (smallest adjusted
    /// p-value), if any. Binary segmentation can surface secondary
    /// within-noise splits next to a large true step, so localization is
    /// judged against the dominant shift, not whichever comes first.
    pub fn detected_shift_index(history: &SynthHistory, config: &TrendConfig) -> Option<usize> {
        let points = history.generate();
        let trend = analyze_trend("synthetic", &points, config);
        trend
            .significant_shifts()
            .iter()
            .min_by(|a, b| {
                let pa = a.p_adjusted.unwrap_or(a.p_raw);
                let pb = b.p_adjusted.unwrap_or(b.p_raw);
                pa.total_cmp(&pb)
            })
            .map(|c| c.index)
    }
}

#[cfg(test)]
mod tests {
    use super::synth::{Shape, SynthHistory};
    use super::*;

    fn history(levels: &[(f64, usize)], samples: usize, jitter: f64) -> Vec<TrendPoint> {
        let mut points = Vec::new();
        let mut seq = 0u64;
        for &(level, runs) in levels {
            for r in 0..runs {
                let s: Vec<f64> = (0..samples)
                    .map(|j| level * (1.0 + ((j + r) % 3) as f64 * jitter))
                    .collect();
                points.push(TrendPoint::new(seq, format!("run{seq:027}aaaaa"), None, s).unwrap());
                seq += 1;
            }
        }
        points
    }

    #[test]
    fn stable_history_has_one_segment_and_no_alerts() {
        let points = history(&[(100.0, 10)], 5, 0.002);
        let trend = analyze_trend("bench", &points, &TrendConfig::default());
        assert_eq!(trend.status, TrendStatus::Stable);
        assert_eq!(trend.segments.len(), 1);
        assert!(trend.changepoints.is_empty());
        assert!(trend.alert().is_none());
        assert_eq!(trend.segments[0].runs, 10);
        assert!(trend.segments[0].ci.is_some());
    }

    #[test]
    fn step_history_names_the_shifting_run() {
        let points = history(&[(100.0, 6), (130.0, 4)], 5, 0.002);
        let trend = analyze_trend("bench", &points, &TrendConfig::default());
        assert_eq!(trend.status, TrendStatus::Shifted, "{trend:?}");
        assert_eq!(trend.segments.len(), 2);
        let cp = &trend.changepoints[0];
        assert_eq!(cp.index, 6);
        assert_eq!(cp.seq, 6);
        assert_eq!(cp.run_id, points[6].run_id);
        assert_eq!(cp.direction, ShiftDirection::Slower);
        assert!(cp.significant);
        assert!(cp.p_adjusted.unwrap() <= 0.05);
        let magnitude = cp.magnitude.as_ref().unwrap();
        assert!(
            magnitude.lower > 1.2 && magnitude.upper < 1.4,
            "{magnitude:?}"
        );
        // Shift four runs before HEAD with min_segment 2: old news, no alert.
        assert!(!cp.at_head);
        assert!(trend.alert().is_none());
    }

    #[test]
    fn shift_at_head_raises_an_alert() {
        let points = history(&[(100.0, 6), (130.0, 2)], 5, 0.002);
        let trend = analyze_trend("bench", &points, &TrendConfig::default());
        let cp = trend.alert().expect("significant shift at HEAD");
        assert_eq!(cp.index, 6);
        assert!(cp.at_head);
        assert_eq!(cp.direction, ShiftDirection::Slower);
    }

    #[test]
    fn speedups_shift_faster_but_also_alert() {
        let points = history(&[(100.0, 6), (70.0, 2)], 5, 0.002);
        let trend = analyze_trend("bench", &points, &TrendConfig::default());
        let cp = trend.alert().expect("faster is still a level shift");
        assert_eq!(cp.direction, ShiftDirection::Faster);
        assert!(cp.magnitude.as_ref().unwrap().upper < 1.0);
    }

    #[test]
    fn short_history_is_insufficient_not_a_panic() {
        for n in 0..4 {
            let points = history(&[(100.0, n)], 4, 0.002);
            let trend = analyze_trend("bench", &points, &TrendConfig::default());
            assert_eq!(trend.status, TrendStatus::InsufficientData, "n = {n}");
            assert!(trend.segments.is_empty());
            assert!(trend.changepoints.is_empty());
            assert!(trend.note.as_ref().unwrap().contains("insufficient data"));
        }
        // Exactly 2 × min_segment runs is enough.
        let points = history(&[(100.0, 4)], 4, 0.002);
        let trend = analyze_trend("bench", &points, &TrendConfig::default());
        assert_eq!(trend.status, TrendStatus::Stable);
    }

    #[test]
    fn zero_min_segment_is_clamped() {
        let points = history(&[(100.0, 2)], 4, 0.002);
        let cfg = TrendConfig::default().with_min_segment(0);
        let trend = analyze_trend("bench", &points, &cfg);
        // min_segment clamps to 1, so 2 runs are analyzable.
        assert_ne!(trend.status, TrendStatus::InsufficientData);
    }

    #[test]
    fn bit_identical_runs_with_a_shift_still_resolve() {
        // Zero within- and between-run variance: Welch degenerates, and the
        // collapsed magnitude CI must resolve the p-value, as in the gate.
        let points = history(&[(100.0, 4), (130.0, 2)], 4, 0.0);
        let trend = analyze_trend("bench", &points, &TrendConfig::default());
        let cp = trend.alert().expect("degenerate shift still alerts");
        assert_eq!(cp.p_raw, 0.0);
        assert!(cp.significant);
    }

    #[test]
    fn fdr_is_corrected_across_benchmarks() {
        // One real shift among several stable benchmarks: the correction
        // spans the whole family, so p_adjusted ≥ p_raw for the shift.
        let mut histories: Vec<(String, Vec<TrendPoint>)> = (0..4)
            .map(|i| {
                (
                    format!("flat{i}"),
                    history(&[(100.0 + i as f64, 8)], 5, 0.002),
                )
            })
            .collect();
        histories.push((
            "shifty".into(),
            history(&[(100.0, 6), (140.0, 2)], 5, 0.002),
        ));
        let report = analyze_trends(&histories, &TrendConfig::default());
        assert_eq!(report.benchmarks.len(), 5);
        let alerts = report.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].benchmark, "shifty");
        let cp = alerts[0].alert().unwrap();
        assert!(cp.p_adjusted.unwrap() >= cp.p_raw);
        assert_eq!(report.significant_count(), 1);
    }

    #[test]
    fn quarantined_and_unsteady_runs_drop_out() {
        let m = BenchmarkMeasurement {
            benchmark: "b".into(),
            engine: "interp".into(),
            invocations: Vec::new(),
            censored: Vec::new(),
            quarantined: true,
        };
        let det = SteadyStateDetector::default();
        assert!(TrendPoint::from_measurement(0, "id", None, &m, &det).is_none());
    }

    #[test]
    fn penalty_parses_and_displays() {
        assert_eq!(Penalty::parse("auto"), Some(Penalty::Auto));
        assert_eq!(Penalty::parse("AUTO"), Some(Penalty::Auto));
        assert_eq!(Penalty::parse("bic"), Some(Penalty::Bic));
        assert_eq!(Penalty::parse("2.5"), Some(Penalty::Factor(2.5)));
        assert_eq!(Penalty::parse("bogus"), None);
        assert_eq!(Penalty::parse("-1"), None);
        assert_eq!(Penalty::parse("0"), None);
        assert_eq!(Penalty::parse("nan"), None);
        assert_eq!(Penalty::Auto.to_string(), "auto");
        assert_eq!(Penalty::Factor(2.5).to_string(), "2.5");
    }

    #[test]
    fn report_serializes_for_json_export() {
        let histories = vec![(
            "bench".to_string(),
            history(&[(100.0, 6), (130.0, 2)], 5, 0.002),
        )];
        let report = analyze_trends(&histories, &TrendConfig::default());
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"benchmark\":\"bench\""), "{json}");
        assert!(json.contains("\"changepoints\""));
        assert!(json.contains("\"p_adjusted\""));
        assert!(json.contains("\"at_head\":true"));
        assert!(json.contains("\"penalty\":\"auto\""));
        assert!(json.contains("\"direction\":\"slower\""));
    }

    #[test]
    fn synthetic_null_histories_rarely_alert() {
        // A quick in-crate sanity bound; the full 200-replication
        // calibration lives in the integration suite.
        let rate = synth::null_alert_rate(&SynthHistory::default(), 40, &TrendConfig::default());
        assert!(rate <= 0.05, "empirical FPR {rate} over 40 null histories");
    }

    #[test]
    fn synthetic_step_is_located() {
        let base = SynthHistory::default();
        let step = 3.0 * base.value_sigma() / base.level;
        let h = base
            .with_shape(Shape::Step { at: 20, frac: step })
            .with_seed(7);
        let found = synth::detected_shift_index(&h, &TrendConfig::default());
        let idx = found.expect("3σ step detected") as i64;
        assert!((idx - 20).abs() <= 1, "located at {idx}");
    }

    #[test]
    fn synthetic_generator_is_deterministic() {
        let h = SynthHistory::default().with_seed(42);
        let a = h.generate();
        let b = h.generate();
        assert_eq!(a, b);
        let c = SynthHistory::default().with_seed(43).generate();
        assert_ne!(a[0].samples, c[0].samples);
        assert_eq!(a.len(), 30);
        assert_eq!(a[0].samples.len(), 5);
        assert_eq!(a[0].run_id.len(), 32);
    }

    #[test]
    fn drift_and_heteroscedastic_shapes_generate() {
        let drift = SynthHistory::default()
            .with_shape(Shape::Drift { total_frac: 0.2 })
            .generate();
        assert!(drift.last().unwrap().value > drift.first().unwrap().value);
        let hetero = SynthHistory {
            heteroscedastic: true,
            ..SynthHistory::default()
        };
        let pts = hetero.generate();
        assert_eq!(pts.len(), 30);
    }
}

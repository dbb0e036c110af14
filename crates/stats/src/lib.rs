//! # rigor-stats — statistics for rigorous performance analysis
//!
//! The statistical substrate of the `rigor` workspace, implemented from
//! scratch: descriptive statistics, quantiles, the Student-t / chi-square / F
//! machinery needed for inference (incomplete beta and gamma functions,
//! quantile inversion), nonparametric bootstrap CIs (percentile and BCa),
//! outlier fences and despiking, autocorrelation diagnostics, mean-shift
//! changepoint segmentation (for warmup detection), two-sample tests (Welch
//! t, Mann–Whitney U), k-sample omnibus tests (one-way ANOVA,
//! Kruskal–Wallis) and effect sizes.
//!
//! ## Example: a 95% confidence interval on a mean
//!
//! ```rust
//! use rigor_stats::{mean_ci, bootstrap_mean_ci};
//!
//! let times = [10.2, 10.5, 9.9, 10.1, 10.4, 10.0, 10.3, 10.2];
//! let t_ci = mean_ci(&times, 0.95).expect("enough samples");
//! let b_ci = bootstrap_mean_ci(&times, 0.95, 2000, 42).expect("enough samples");
//! assert!(t_ci.contains(10.2));
//! assert!(b_ci.contains(10.2));
//! ```

#![warn(missing_docs)]

pub mod allocate;
pub mod anova;
pub mod autocorr;
pub mod bootstrap;
pub mod changepoint;
pub mod ci;
pub mod descriptive;
pub mod dist;
pub mod effect;
pub mod fdr;
pub mod htest;
pub mod outlier;
pub mod quantile;

pub use allocate::{
    clamped_allocation, invocations_for_target, neyman_allocation, predicted_rel_half_width,
};
pub use anova::{kruskal_wallis, one_way_anova};
pub use autocorr::{autocorrelation, autocorrelations, effective_sample_size};
pub use bootstrap::{
    bootstrap_bca_ci, bootstrap_ci, bootstrap_mean_ci, bootstrap_ratio_ci, percentile_ci,
    IndexSampler, DEFAULT_RESAMPLES,
};
pub use changepoint::{
    merge_equivalent, segment, select_penalty_factor, Segment, SegmentConfig, PENALTY_GRID,
};
pub use ci::{mean_ci, ratio_ci_delta, welch_diff_ci, ConfidenceInterval};
pub use descriptive::{cov, geomean, harmonic_mean, mean, median, sem, std_dev, variance, Summary};
pub use dist::{chi2_cdf, f_cdf, normal_cdf, normal_quantile, t_cdf, t_critical, t_quantile};
pub use effect::{classify_cohens_d, cliffs_delta, cohens_d, EffectMagnitude};
pub use fdr::{benjamini_hochberg, bh_adjusted, holm_adjusted, holm_bonferroni};
pub use htest::{mann_whitney_u, welch_t_test, TestResult};
pub use outlier::{despike, mad, mad_outliers, remove_tukey_outliers, tukey_outliers};
pub use quantile::{iqr, quantile, quantiles};

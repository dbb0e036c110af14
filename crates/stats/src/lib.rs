//! # rigor-stats — statistics for rigorous performance analysis
//!
//! The statistical substrate of the `rigor` workspace, implemented from
//! scratch: descriptive statistics, the type-7 quantile, the normal and
//! Student-t distributions (the t through the incomplete beta function,
//! inverted by search), t and nonparametric bootstrap CIs (percentile and
//! BCa), MAD despiking, autocorrelation diagnostics, mean-shift changepoint
//! segmentation (for warmup detection), Welch's t-test, Benjamini–Hochberg
//! and Holm adjusted p-values, Cohen's d, and the sample allocation the
//! precision planner uses.
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

pub use allocate::{clamped_allocation, invocations_for_target, predicted_rel_half_width};
pub use autocorr::{autocorrelation, autocorrelations, effective_sample_size};
pub use bootstrap::{
    bootstrap_bca_ci, bootstrap_mean_ci, bootstrap_ratio_ci, percentile_ci, IndexSampler,
    DEFAULT_RESAMPLES,
};
pub use changepoint::{
    merge_equivalent, segment, select_penalty_factor, Segment, SegmentConfig, PENALTY_GRID,
};
pub use ci::{mean_ci, ratio_ci_delta, welch_diff_ci, ConfidenceInterval};
pub use descriptive::{cov, geomean, mean, median, std_dev, variance};
pub use dist::{normal_cdf, normal_quantile, t_cdf, t_quantile};
pub use effect::cohens_d;
pub use fdr::{bh_adjusted, holm_adjusted};
pub use htest::{welch_t_test, TestResult};
pub use outlier::{despike, mad};
pub use quantile::quantile;

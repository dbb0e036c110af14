//! Property-based tests of the statistics substrate's invariants.

use proptest::prelude::*;
use rigor_stats::changepoint::SegmentConfig;

fn finite_vec(min_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(1.0f64..1.0e6, min_len..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mean_is_between_min_and_max(xs in finite_vec(1)) {
        let m = rigor_stats::mean(&xs);
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    #[test]
    fn geomean_le_mean(xs in finite_vec(1)) {
        // AM-GM inequality.
        prop_assert!(rigor_stats::geomean(&xs) <= rigor_stats::mean(&xs) + 1e-9);
    }

    #[test]
    fn quantiles_are_monotone(xs in finite_vec(2), qs in prop::collection::vec(0.0f64..=1.0, 2..8)) {
        let mut sorted_q = qs.clone();
        sorted_q.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let vals: Vec<f64> = sorted_q.iter().map(|&q| rigor_stats::quantile(&xs, q)).collect();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-9);
        }
    }

    #[test]
    fn t_ci_contains_sample_mean(xs in finite_vec(3)) {
        if let Some(ci) = rigor_stats::mean_ci(&xs, 0.95) {
            prop_assert!(ci.contains(rigor_stats::mean(&xs)));
            prop_assert!(ci.lower <= ci.upper);
        }
    }

    #[test]
    fn bootstrap_ci_contains_sample_mean(xs in finite_vec(3), seed in 0u64..1000) {
        if let Some(ci) = rigor_stats::bootstrap_mean_ci(&xs, 0.95, 300, seed) {
            // Percentile bootstrap of the mean: sample mean sits inside
            // (it is the expectation of the resampling distribution).
            prop_assert!(ci.lower <= rigor_stats::mean(&xs) + 1e-6);
            prop_assert!(ci.upper >= rigor_stats::mean(&xs) - 1e-6);
        }
    }

    #[test]
    fn segments_partition_any_series(xs in finite_vec(1)) {
        let segs = rigor_stats::segment(&xs, &SegmentConfig::default());
        prop_assert!(!segs.is_empty());
        prop_assert_eq!(segs[0].start, 0);
        prop_assert_eq!(segs.last().unwrap().end, xs.len());
        for w in segs.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn merged_segments_still_partition(xs in finite_vec(8)) {
        let segs = rigor_stats::segment(&xs, &SegmentConfig::default());
        let merged = rigor_stats::merge_equivalent(&segs, 0.05);
        prop_assert!(merged.len() <= segs.len());
        prop_assert_eq!(merged[0].start, 0);
        prop_assert_eq!(merged.last().unwrap().end, xs.len());
    }

    #[test]
    fn despike_never_touches_edges(xs in finite_vec(8)) {
        let out = rigor_stats::despike(&xs, 8.0);
        prop_assert_eq!(out.len(), xs.len());
        for i in 0..3 {
            prop_assert_eq!(out[i], xs[i]);
            prop_assert_eq!(out[xs.len() - 1 - i], xs[xs.len() - 1 - i]);
        }
    }

    #[test]
    fn welch_test_is_symmetric(a in finite_vec(3), b in finite_vec(3)) {
        if let (Some(r1), Some(r2)) =
            (rigor_stats::welch_t_test(&a, &b), rigor_stats::welch_t_test(&b, &a))
        {
            prop_assert!((r1.statistic + r2.statistic).abs() < 1e-9);
            prop_assert!((r1.p_value - r2.p_value).abs() < 1e-9);
        }
    }

    #[test]
    fn t_quantile_round_trips_with_cdf(p in 0.011f64..0.989, df in 2.0f64..200.0) {
        let t = rigor_stats::t_quantile(p, df);
        prop_assert!((rigor_stats::t_cdf(t, df) - p).abs() < 1e-6);
    }

    #[test]
    fn normal_quantile_round_trips(p in 0.001f64..0.999) {
        let x = rigor_stats::normal_quantile(p);
        prop_assert!((rigor_stats::normal_cdf(x) - p).abs() < 1e-6);
    }

    #[test]
    fn effective_sample_size_is_bounded(xs in finite_vec(4)) {
        let ess = rigor_stats::effective_sample_size(&xs);
        prop_assert!(ess >= 1.0 - 1e-9);
        prop_assert!(ess <= xs.len() as f64 + 1e-9);
    }
}

//! Multiple-comparison corrections: Benjamini–Hochberg and Holm–Bonferroni.
//!
//! A regression gate that tests 20 benchmarks at α = 0.05 each expects one
//! false alarm per run — weekly noise that trains people to ignore the gate.
//! These procedures control the *family* error instead: Holm–Bonferroni
//! bounds the probability of even one false rejection (FWER), while
//! Benjamini–Hochberg bounds the expected fraction of false rejections
//! among the rejections made (FDR), which is the usual choice for suite
//! gating because its power does not collapse as the suite grows.
//!
//! Both are exposed as *adjusted* p-values (as R's `p.adjust` computes
//! them) so reports can print a single per-benchmark number that is
//! comparable against the level directly: `adjusted <= q` iff the
//! hypothesis is rejected.

/// Treats NaN (no test possible) as 1.0 and clamps into [0, 1], so a
/// degenerate p-value can never become a rejection.
fn sanitize(p: f64) -> f64 {
    if p.is_nan() {
        1.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

/// Indices of `ps` sorted by ascending (sanitized) p-value.
fn ascending_order(ps: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ps.len()).collect();
    order.sort_by(|&a, &b| {
        sanitize(ps[a])
            .partial_cmp(&sanitize(ps[b]))
            .expect("sanitized p-values are ordered")
    });
    order
}

/// Benjamini–Hochberg adjusted p-values (the `BH` method of R's
/// `p.adjust`): `adjusted[i] <= q` iff hypothesis `i` is rejected by the
/// step-up procedure at FDR level `q`. Output is in input order.
pub fn bh_adjusted(ps: &[f64]) -> Vec<f64> {
    let n = ps.len();
    let mut adjusted = vec![0.0; n];
    let order = ascending_order(ps);
    // Step up from the largest p: adjusted_(i) = min_{j >= i} (n / (j+1)) p_(j).
    let mut running = 1.0_f64;
    for (rank, &idx) in order.iter().enumerate().rev() {
        let scaled = sanitize(ps[idx]) * n as f64 / (rank as f64 + 1.0);
        running = running.min(scaled).min(1.0);
        adjusted[idx] = running;
    }
    adjusted
}

/// Holm–Bonferroni adjusted p-values (the `holm` method of R's `p.adjust`):
/// `adjusted[i] <= alpha` iff hypothesis `i` is rejected by the step-down
/// procedure at FWER level `alpha`. Output is in input order.
pub fn holm_adjusted(ps: &[f64]) -> Vec<f64> {
    let n = ps.len();
    let mut adjusted = vec![0.0; n];
    let order = ascending_order(ps);
    // Step down from the smallest p: adjusted_(i) = max_{j <= i} (n - j) p_(j).
    let mut running = 0.0_f64;
    for (rank, &idx) in order.iter().enumerate() {
        let scaled = sanitize(ps[idx]) * (n - rank) as f64;
        running = running.max(scaled).min(1.0);
        adjusted[idx] = running;
    }
    adjusted
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example from Benjamini & Hochberg (1995), Section 3.1:
    /// 15 ordered p-values, q = 0.05 — the step-up procedure rejects
    /// exactly the four smallest.
    const BH_1995: [f64; 15] = [
        0.0001, 0.0004, 0.0019, 0.0095, 0.0201, 0.0278, 0.0298, 0.0344, 0.0459, 0.3240, 0.4262,
        0.5719, 0.6528, 0.7590, 1.0000,
    ];

    /// The rejection mask at `level`: `adjusted <= level`.
    fn rejected(adjusted: Vec<f64>, level: f64) -> Vec<bool> {
        adjusted.into_iter().map(|a| a <= level).collect()
    }

    #[test]
    fn bh_matches_the_1995_worked_example() {
        let expected: Vec<bool> = (0..15).map(|i| i < 4).collect();
        assert_eq!(rejected(bh_adjusted(&BH_1995), 0.05), expected);
    }

    #[test]
    fn holm_is_more_conservative_on_the_same_table() {
        // Holm thresholds 0.05/15, 0.05/14, ... admit only the three
        // smallest entries (0.0095 > 0.05/12 ≈ 0.00417 stops the walk).
        let expected: Vec<bool> = (0..15).map(|i| i < 3).collect();
        assert_eq!(rejected(holm_adjusted(&BH_1995), 0.05), expected);
    }

    #[test]
    fn adjusted_values_match_r_p_adjust() {
        // R: p <- c(0.01, 0.005, 0.03, 0.04)
        //    p.adjust(p, "holm") -> 0.03 0.02 0.06 0.06
        //    p.adjust(p, "BH")   -> 0.02 0.02 0.04 0.04
        let ps = [0.01, 0.005, 0.03, 0.04];
        let holm = holm_adjusted(&ps);
        let bh = bh_adjusted(&ps);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        for (got, want) in holm.iter().zip([0.03, 0.02, 0.06, 0.06]) {
            assert!(close(*got, want), "holm {holm:?}");
        }
        for (got, want) in bh.iter().zip([0.02, 0.02, 0.04, 0.04]) {
            assert!(close(*got, want), "bh {bh:?}");
        }
    }

    #[test]
    fn adjustment_is_monotone_in_the_sorted_order() {
        let ps = [0.04, 0.001, 0.02, 0.9, 0.02, 0.3];
        for adjusted in [bh_adjusted(&ps), holm_adjusted(&ps)] {
            let mut pairs: Vec<(f64, f64)> = ps.iter().copied().zip(adjusted).collect();
            pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in pairs.windows(2) {
                assert!(w[0].1 <= w[1].1 + 1e-15, "{pairs:?}");
            }
        }
    }

    #[test]
    fn single_hypothesis_reduces_to_the_raw_test() {
        assert_eq!(bh_adjusted(&[0.03]), vec![0.03]);
        assert_eq!(holm_adjusted(&[0.03]), vec![0.03]);
        assert_eq!(rejected(bh_adjusted(&[0.03]), 0.05), vec![true]);
        assert_eq!(rejected(holm_adjusted(&[0.07]), 0.05), vec![false]);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert!(bh_adjusted(&[]).is_empty());
        assert!(holm_adjusted(&[]).is_empty());
        // NaN (no test possible) must never be rejected, and must not
        // poison its neighbours.
        let ps = [f64::NAN, 0.0001];
        assert_eq!(rejected(bh_adjusted(&ps), 0.05), vec![false, true]);
        assert_eq!(rejected(holm_adjusted(&ps), 0.05), vec![false, true]);
        // p = 0 survives any correction; p = 1 survives none.
        assert_eq!(rejected(bh_adjusted(&[0.0, 1.0]), 0.05), vec![true, false]);
    }

    #[test]
    fn bh_rejects_everything_the_uncorrected_test_would_when_all_tiny() {
        let ps = vec![1e-6; 20];
        assert!(rejected(bh_adjusted(&ps), 0.05).iter().all(|&r| r));
        assert!(rejected(holm_adjusted(&ps), 0.05).iter().all(|&r| r));
    }

    #[test]
    fn bh_kills_the_weekly_false_alarm() {
        // 20 null benchmarks, one of which lands at p = 0.03 by chance: the
        // uncorrected test fires, the corrected gate does not.
        let mut ps = vec![0.5; 20];
        ps[7] = 0.03;
        assert!(ps[7] < 0.05, "uncorrected test would reject");
        assert!(!rejected(bh_adjusted(&ps), 0.05)[7]);
        assert!(!rejected(holm_adjusted(&ps), 0.05)[7]);
    }
}

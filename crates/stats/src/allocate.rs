//! Sample-allocation math for suite-level precision planning.
//!
//! Given per-cell noise estimates, how should a fixed invocation budget be
//! split so the suite-wide precision is best? The classical answer is
//! Neyman allocation: with equal per-sample cost, the variance of each
//! cell's mean after `n_i` samples is `σ_i²/n_i`, and the total estimator
//! variance under `Σ n_i = N` is minimized by `n_i ∝ σ_i`. This module
//! implements that optimum exactly (up to integer rounding) plus the two
//! practical refinements a planner needs:
//!
//! * **deterministic rounding** — largest-remainder apportionment with a
//!   fixed tie-break (lower index wins), so an allocation is a pure
//!   function of its inputs and replays identically on resume;
//! * **floor/ceiling clamps** — every cell keeps at least its pilot floor
//!   (an unmeasured cell can never be starved) and never receives more
//!   than its ceiling, with the freed budget re-flowed to the remaining
//!   cells in Neyman proportion (iterative water-filling).
//!
//! The predicted-half-width model used to size refinements rides on the
//! same `s/√n` scaling as [`crate::ci::mean_ci`]: growing a cell from `n`
//! to `n'` samples shrinks its relative CI half-width by `√(n/n')` (the
//! t-quantile also shrinks with `n`, so the prediction is conservative).

/// A sanitized noise weight: non-finite or negative estimates count as
/// zero weight rather than poisoning the whole allocation.
fn weight(sigma: f64) -> f64 {
    if sigma.is_finite() && sigma > 0.0 {
        sigma
    } else {
        0.0
    }
}

/// Splits `total` into integer shares proportional to `weights` by
/// largest-remainder apportionment. Ties in the fractional part break
/// toward the lower index; an all-zero weight vector splits evenly. The
/// result always sums to `total` (or is empty when `weights` is).
fn apportion(weights: &[f64], total: u64) -> Vec<u64> {
    if weights.is_empty() {
        return Vec::new();
    }
    let sum: f64 = weights.iter().sum();
    let uniform = vec![1.0; weights.len()];
    let weights = if sum > 0.0 { weights } else { &uniform[..] };
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| total as f64 * (w / sum)).collect();
    let mut shares: Vec<u64> = exact.iter().map(|x| x.floor() as u64).collect();
    let assigned: u64 = shares.iter().sum();
    // Distribute the rounding leftover by largest fractional part, lower
    // index first on ties. The leftover is < len, so one pass suffices.
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = exact[a] - exact[a].floor();
        let fb = exact[b] - exact[b].floor();
        fb.partial_cmp(&fa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut leftover = total.saturating_sub(assigned);
    for &i in &order {
        if leftover == 0 {
            break;
        }
        shares[i] += 1;
        leftover -= 1;
    }
    shares
}

/// Neyman allocation under per-cell clamps: every cell receives at least
/// `min(floor, ceilings[i])` and at most `ceilings[i]`, with budget beyond
/// the floors distributed in Neyman proportion and any share a cell cannot
/// absorb (its ceiling) re-flowed to the others (iterative water-filling).
///
/// The floors take precedence over the budget: when `total` cannot cover
/// every floor the result exceeds `total` — a planner's pilot phase is not
/// negotiable. When `total` exceeds the summed ceilings, the surplus is
/// simply left unspent.
pub fn clamped_allocation(sigmas: &[f64], total: u64, floor: u64, ceilings: &[u64]) -> Vec<u64> {
    assert_eq!(sigmas.len(), ceilings.len(), "one ceiling per cell");
    let mut alloc: Vec<u64> = ceilings.iter().map(|&c| floor.min(c)).collect();
    let mut remaining = total.saturating_sub(alloc.iter().sum());
    while remaining > 0 {
        let headroom: Vec<u64> = alloc
            .iter()
            .zip(ceilings)
            .map(|(&a, &c)| c.saturating_sub(a))
            .collect();
        if headroom.iter().all(|&h| h == 0) {
            break;
        }
        // Zero-weight saturated cells so the share flows to open ones.
        let weights: Vec<f64> = sigmas
            .iter()
            .zip(&headroom)
            .map(|(&s, &h)| {
                if h == 0 {
                    0.0
                } else {
                    weight(s).max(f64::MIN_POSITIVE)
                }
            })
            .collect();
        let grants = apportion(&weights, remaining);
        let mut granted = 0u64;
        for ((a, g), &h) in alloc.iter_mut().zip(grants).zip(&headroom) {
            let take = g.min(h);
            *a += take;
            granted += take;
        }
        if granted == 0 {
            // Proportions rounded every open cell to zero: hand out singles
            // in index order so the loop always terminates.
            for (a, &h) in alloc.iter_mut().zip(&headroom) {
                if remaining == 0 {
                    break;
                }
                if h > 0 {
                    *a += 1;
                    remaining -= 1;
                }
            }
            continue;
        }
        remaining -= granted;
    }
    alloc
}

/// The predicted relative CI half-width after growing a cell from `n_now`
/// to `n_new` samples, given its current relative half-width: half-widths
/// scale as `s/√n`, so the prediction is `rel_now · √(n_now/n_new)`.
/// Conservative: the t-quantile also shrinks as `n` grows.
pub fn predicted_rel_half_width(rel_now: f64, n_now: u64, n_new: u64) -> f64 {
    if n_new == 0 {
        return f64::INFINITY;
    }
    rel_now * (n_now as f64 / n_new as f64).sqrt()
}

/// The smallest sample count predicted to bring a cell's relative CI
/// half-width from `rel_now` (at `n_now` samples) down to `target`:
/// `⌈n_now · (rel_now/target)²⌉`. Returns `n_now` when the target is
/// already met; saturates at `u64::MAX` on overflow.
pub fn invocations_for_target(n_now: u64, rel_now: f64, target: f64) -> u64 {
    assert!(target > 0.0, "precision target must be positive");
    if !rel_now.is_finite() {
        return u64::MAX;
    }
    if rel_now <= target {
        return n_now;
    }
    let ratio = rel_now / target;
    let needed = (n_now as f64) * ratio * ratio;
    if needed >= u64::MAX as f64 {
        u64::MAX
    } else {
        needed.ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Unclamped Neyman allocation: no floor and no ceiling, so for
    /// positive σ every share is proportional to σ.
    fn neyman(sigmas: &[f64], total: u64) -> Vec<u64> {
        clamped_allocation(sigmas, total, 0, &vec![u64::MAX; sigmas.len()])
    }

    #[test]
    fn two_cell_closed_form() {
        // σ-ratio 3:1 → shares 75:25 of 100.
        assert_eq!(neyman(&[3.0, 1.0], 100), vec![75, 25]);
        // Equal σ → even split, odd leftover to the lower index.
        assert_eq!(neyman(&[2.0, 2.0], 101), vec![51, 50]);
    }

    #[test]
    fn zero_and_degenerate_sigmas() {
        assert_eq!(neyman(&[0.0, 0.0, 0.0], 9), vec![3, 3, 3]);
        assert_eq!(neyman(&[f64::NAN, 1.0], 10), vec![0, 10]);
        assert_eq!(neyman(&[-1.0, 1.0], 10), vec![0, 10]);
        assert_eq!(neyman(&[], 10), Vec::<u64>::new());
        assert_eq!(neyman(&[1.0], 0), vec![0]);
    }

    #[test]
    fn allocation_is_deterministic() {
        let sigmas = [1.0, 2.5, 0.5, 2.5, 7.0];
        assert_eq!(neyman(&sigmas, 97), neyman(&sigmas, 97));
        assert_eq!(
            clamped_allocation(&sigmas, 97, 3, &[50; 5]),
            clamped_allocation(&sigmas, 97, 3, &[50; 5])
        );
    }

    #[test]
    fn clamps_respect_floor_and_ceiling() {
        // One huge σ would hog everything; the ceiling re-flows its excess.
        let a = clamped_allocation(&[100.0, 1.0, 1.0], 60, 5, &[20, 40, 40]);
        assert_eq!(a[0], 20, "capped at its ceiling");
        assert!(a.iter().all(|&n| n >= 5), "floor holds: {a:?}");
        assert_eq!(a.iter().sum::<u64>(), 60, "budget fully spent");
    }

    #[test]
    fn floors_take_precedence_over_budget() {
        // Budget 4 cannot cover 3 floors of 5: floors win anyway.
        let a = clamped_allocation(&[1.0, 1.0, 1.0], 4, 5, &[10, 10, 10]);
        assert_eq!(a, vec![5, 5, 5]);
        // Surplus beyond all ceilings is left unspent.
        let a = clamped_allocation(&[1.0, 1.0], 100, 2, &[4, 4]);
        assert_eq!(a, vec![4, 4]);
    }

    #[test]
    fn predicted_half_width_scales_as_inverse_sqrt_n() {
        let p = predicted_rel_half_width(0.04, 5, 20);
        assert!((p - 0.02).abs() < 1e-12, "4x samples halve the width: {p}");
        assert_eq!(predicted_rel_half_width(0.04, 5, 5), 0.04);
        assert!(predicted_rel_half_width(0.04, 5, 0).is_infinite());
    }

    #[test]
    fn invocations_for_target_inverts_the_model() {
        // 4% at n=5 → 2% needs 4x the samples.
        assert_eq!(invocations_for_target(5, 0.04, 0.02), 20);
        // Already met: stay put.
        assert_eq!(invocations_for_target(7, 0.01, 0.02), 7);
        // No usable estimate: unbounded need.
        assert_eq!(invocations_for_target(5, f64::INFINITY, 0.02), u64::MAX);
        // The predicted width at the returned n meets the target.
        let n = invocations_for_target(3, 0.11, 0.02);
        assert!(predicted_rel_half_width(0.11, 3, n) <= 0.02);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Two-cell Neyman optimum, closed form: each integer share sits
        /// within one unit of `total·σ_i/(σ_1+σ_2)`.
        #[test]
        fn prop_two_cell_matches_neyman_optimum(
            s1 in 0.01f64..1e6,
            s2 in 0.01f64..1e6,
            total in 0u64..100_000,
        ) {
            let a = neyman(&[s1, s2], total);
            prop_assert_eq!(a.iter().sum::<u64>(), total);
            let exact1 = total as f64 * s1 / (s1 + s2);
            prop_assert!((a[0] as f64 - exact1).abs() < 1.0 + 1e-9);
        }

        /// k-cell Neyman optimum: every share is within one unit of its
        /// exact proportional value and the budget is spent exactly.
        #[test]
        fn prop_k_cell_matches_neyman_optimum(
            sigmas in prop::collection::vec(0.01f64..1e4, 1..12),
            total in 0u64..50_000,
        ) {
            let a = neyman(&sigmas, total);
            prop_assert_eq!(a.iter().sum::<u64>(), total);
            let sum: f64 = sigmas.iter().sum();
            for (share, sigma) in a.iter().zip(&sigmas) {
                let exact = total as f64 * sigma / sum;
                prop_assert!((*share as f64 - exact).abs() < 1.0 + 1e-9);
            }
        }

        /// Clamped allocation never starves a cell below its floor (or its
        /// ceiling when that is lower), never exceeds a ceiling, and spends
        /// the whole budget whenever the clamps make that feasible.
        #[test]
        fn prop_clamped_never_starves(
            sigmas in prop::collection::vec(0.0f64..1e4, 1..12),
            budget_per_cell in 0u64..200,
            floor in 0u64..20,
            ceiling_extra in 1u64..100,
        ) {
            let n = sigmas.len() as u64;
            let total = budget_per_cell * n;
            let ceilings: Vec<u64> = (0..n).map(|i| floor + ceiling_extra + i).collect();
            let a = clamped_allocation(&sigmas, total, floor, &ceilings);
            for ((&share, &ceil), i) in a.iter().zip(&ceilings).zip(0..) {
                prop_assert!(share >= floor.min(ceil), "cell {i} starved: {a:?}");
                prop_assert!(share <= ceil, "cell {i} over ceiling: {a:?}");
            }
            let spent: u64 = a.iter().sum();
            let floors: u64 = ceilings.iter().map(|&c| floor.min(c)).sum();
            let capacity: u64 = ceilings.iter().sum();
            prop_assert_eq!(spent, total.max(floors).min(capacity));
        }
    }
}

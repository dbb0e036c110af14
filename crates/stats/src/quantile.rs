//! Quantiles (R type-7 / NumPy `linear` interpolation).

/// Returns the `q`-quantile of `xs` (0 ≤ q ≤ 1) using linear interpolation
/// between order statistics (the R type-7 definition, NumPy's default).
///
/// Returns `NaN` for empty input or q outside [0, 1].
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in data"));
    quantile_sorted(&v, q)
}

/// Quantile of an already ascending-sorted slice (no copy).
pub(crate) fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    position(sorted.len(), q).map_or(f64::NAN, |pos| interpolate(pos, |k| sorted[k]))
}

/// `(quantile(xs, a), quantile(xs, b))`, bit for bit, without sorting:
/// selects only the order statistics the two type-7 positions read,
/// reordering `xs` in place. This is how a bootstrap takes both tails of
/// its replicates.
pub(crate) fn quantile_pair(xs: &mut [f64], a: f64, b: f64) -> (f64, f64) {
    let positions = [position(xs.len(), a), position(xs.len(), b)];
    // The ranks either position reads, ascending, each once.
    let mut ranks: Vec<usize> = positions
        .iter()
        .flatten()
        .flat_map(|pos| [pos.floor() as usize, pos.ceil() as usize])
        .collect();
    ranks.sort_unstable();
    ranks.dedup();

    // `sort_by` is stable and selection is not, and the only equal f64s
    // that differ in bits are +0.0 and -0.0: a zero order statistic takes
    // the sign of the zero at the same rank among the zeros in input order,
    // as the sort would have left it.
    let zero_signs: Vec<bool> = xs
        .iter()
        .filter(|&&x| x == 0.0)
        .map(|x| x.is_sign_negative())
        .collect();

    // Highest rank first: once rank k is in place, `xs[..k]` holds the k
    // smallest values, so each lower rank is selected within that prefix.
    let cmp = |p: &f64, q: &f64| p.partial_cmp(q).expect("no NaN in data");
    let mut stats = vec![0.0; ranks.len()];
    let mut end = xs.len();
    for (stat, &k) in stats.iter_mut().zip(&ranks).rev() {
        *stat = *xs[..end].select_nth_unstable_by(k, cmp).1;
        end = k;
    }
    if stats.contains(&0.0) {
        let below = xs.iter().filter(|&&x| x < 0.0).count();
        for (stat, &k) in stats.iter_mut().zip(&ranks) {
            if *stat == 0.0 {
                *stat = if zero_signs[k - below] { -0.0 } else { 0.0 };
            }
        }
    }
    let at = |k: usize| stats[ranks.binary_search(&k).expect("rank selected")];
    let [pa, pb] = positions.map(|pos| pos.map_or(f64::NAN, |pos| interpolate(pos, at)));
    (pa, pb)
}

/// The type-7 position `q·(n − 1)` of the `q`-quantile among `n` order
/// statistics, or `None` when there is none (`n` = 0, q outside [0, 1]).
fn position(n: usize, q: f64) -> Option<f64> {
    (n > 0 && (0.0..=1.0).contains(&q)).then(|| q * (n - 1) as f64)
}

/// Linear interpolation at `pos` between the order statistics `stat(k)`.
fn interpolate(pos: f64, stat: impl Fn(usize) -> f64) -> f64 {
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        stat(lo)
    } else {
        let frac = pos - lo as f64;
        stat(lo) * (1.0 - frac) + stat(hi) * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_numpy_linear() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        // numpy.quantile([1,2,3,4], .25) == 1.75
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.75) - 3.25).abs() < 1e-12);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn unsorted_input_is_sorted_internally() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn single_element() {
        assert_eq!(quantile(&[7.0], 0.3), 7.0);
    }

    #[test]
    fn invalid_inputs() {
        assert!(quantile(&[], 0.5).is_nan());
        assert!(quantile(&[1.0], -0.1).is_nan());
        assert!(quantile(&[1.0], 1.1).is_nan());
    }

    #[test]
    fn quantile_pair_is_two_quantiles_bit_for_bit() {
        let qs = [0.0, 0.025, 0.25, 0.5, 0.75, 0.975, 1.0, -0.1, 1.5, f64::NAN];
        for n in 0..40usize {
            // Ties, zeros of both signs and negatives.
            let xs: Vec<f64> = (0..n)
                .map(|i| match (i * 7 + n) % 5 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => -1.5,
                    _ => ((i * 13) % 4) as f64,
                })
                .collect();
            for &a in &qs {
                for &b in &qs {
                    let mut v = xs.clone();
                    let (pa, pb) = quantile_pair(&mut v, a, b);
                    let case = format!("xs={xs:?} a={a} b={b}");
                    assert_eq!(pa.to_bits(), quantile(&xs, a).to_bits(), "{case}");
                    assert_eq!(pb.to_bits(), quantile(&xs, b).to_bits(), "{case}");
                }
            }
        }
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let xs: Vec<f64> = (0..50).map(|i| ((i * 37) % 50) as f64).collect();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = quantile(&xs, q);
            assert!(v >= prev, "quantile must be monotone in q");
            prev = v;
        }
    }
}

//! Probability distributions: standard normal and Student's t.
//!
//! Implemented from scratch (no external special-function crates):
//! the normal CDF via an erf approximation, its inverse via Acklam's
//! rational approximation, and the t CDF via the regularized incomplete
//! beta function (Lentz continued fraction). Quantiles of t are found by
//! a bisection/Newton hybrid on the CDF.

/// Error function, |ε| < 1.5e-7 (Abramowitz & Stegun 7.1.26).
pub(crate) fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal CDF Φ(x).
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Inverse standard normal CDF (Acklam's algorithm, |ε| ≈ 1e-9).
///
/// Returns `NaN` outside (0, 1).
pub fn normal_quantile(p: f64) -> f64 {
    if !(0.0..=1.0).contains(&p) || p == 0.0 || p == 1.0 {
        if p == 0.0 {
            return f64::NEG_INFINITY;
        }
        if p == 1.0 {
            return f64::INFINITY;
        }
        return f64::NAN;
    }
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement step for extra accuracy.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// ln Γ(x) via the Lanczos approximation.
pub(crate) fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 6] = [
        76.180_091_729_471_46,
        -86.505_320_329_416_77,
        24.014_098_240_830_91,
        -1.231_739_572_450_155,
        0.120_865_097_386_617_5e-2,
        -0.539_523_938_495_3e-5,
    ];
    let mut y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000_000_000_190_015;
    for g in G {
        y += 1.0;
        ser += g / y;
    }
    -tmp + (2.506_628_274_631_000_5 * ser / x).ln()
}

/// Regularized incomplete beta function I_x(a, b) (continued fraction,
/// Numerical Recipes style).
pub(crate) fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 200;
    const EPS: f64 = 3e-14;
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Student's t CDF with `df` degrees of freedom.
pub fn t_cdf(t: f64, df: f64) -> f64 {
    if df <= 0.0 {
        return f64::NAN;
    }
    let x = df / (df + t * t);
    let p = 0.5 * beta_inc(df / 2.0, 0.5, x);
    if t > 0.0 {
        1.0 - p
    } else {
        p
    }
}

/// Two-sided tail probability P(|T| > |t|) for Student's t.
pub(crate) fn t_sf_two_sided(t: f64, df: f64) -> f64 {
    let x = df / (df + t * t);
    beta_inc(df / 2.0, 0.5, x)
}

/// Student's t quantile (inverse CDF) with `df` degrees of freedom.
///
/// Found by bisection on [`t_cdf`], seeded by the normal quantile; accurate
/// to ~1e-10.
pub fn t_quantile(p: f64, df: f64) -> f64 {
    if !(0.0..=1.0).contains(&p) || df <= 0.0 {
        return f64::NAN;
    }
    if p == 0.5 {
        return 0.0;
    }
    // Symmetric: solve in the upper half and mirror.
    if p < 0.5 {
        return -t_quantile(1.0 - p, df);
    }
    let mut lo = 0.0;
    let mut hi = normal_quantile(p).max(1.0) * (1.0 + 30.0 / df) + 5.0;
    while t_cdf(hi, df) < p {
        hi *= 2.0;
        if hi > 1e12 {
            return f64::INFINITY;
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if t_cdf(mid, df) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-12 * (1.0 + hi.abs()) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// The two-sided critical t value for confidence level `conf` (e.g. 0.95)
/// with `df` degrees of freedom.
pub(crate) fn t_critical(conf: f64, df: f64) -> f64 {
    t_quantile(1.0 - (1.0 - conf) / 2.0, df)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(1.96) - 0.975_002_1).abs() < 1e-5);
        assert!((normal_cdf(-1.96) - 0.024_997_9).abs() < 1e-5);
        assert!((normal_cdf(3.0) - 0.998_650_1).abs() < 1e-5);
    }

    #[test]
    fn normal_quantile_round_trips() {
        for &p in &[0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999] {
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-7, "p={p}");
        }
        assert!((normal_quantile(0.975) - 1.959_964).abs() < 1e-4);
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(5) = 24
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        // Γ(0.5) = √π
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn t_cdf_matches_tables() {
        // t = 2.228, df = 10 → CDF = 0.975 (classic table value)
        assert!((t_cdf(2.228, 10.0) - 0.975).abs() < 1e-4);
        // df → ∞ approaches the normal distribution.
        assert!((t_cdf(1.96, 100_000.0) - normal_cdf(1.96)).abs() < 1e-4);
        assert!((t_cdf(0.0, 7.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn t_quantile_matches_tables() {
        // Classic two-sided 95% critical values.
        assert!((t_critical(0.95, 4.0) - 2.776).abs() < 1e-3);
        assert!((t_critical(0.95, 9.0) - 2.262).abs() < 1e-3);
        assert!((t_critical(0.95, 19.0) - 2.093).abs() < 1e-3);
        assert!((t_critical(0.99, 9.0) - 3.250).abs() < 1e-3);
        // Large df → z.
        assert!((t_critical(0.95, 1e6) - 1.96).abs() < 1e-2);
    }

    #[test]
    fn t_quantile_round_trips() {
        for &df in &[3.0, 10.0, 30.0] {
            for &p in &[0.6, 0.9, 0.975, 0.995] {
                let t = t_quantile(p, df);
                assert!((t_cdf(t, df) - p).abs() < 1e-8, "p={p} df={df}");
            }
        }
    }

    #[test]
    fn t_symmetry() {
        let df = 7.0;
        assert!((t_quantile(0.25, df) + t_quantile(0.75, df)).abs() < 1e-9);
    }

    #[test]
    fn beta_inc_bounds() {
        assert_eq!(beta_inc(2.0, 3.0, 0.0), 0.0);
        assert_eq!(beta_inc(2.0, 3.0, 1.0), 1.0);
        // I_x(1,1) = x (uniform distribution).
        assert!((beta_inc(1.0, 1.0, 0.3) - 0.3).abs() < 1e-10);
    }

    #[test]
    fn two_sided_tail() {
        // P(|T| > 2.228) with df=10 is 0.05.
        assert!((t_sf_two_sided(2.228, 10.0) - 0.05).abs() < 2e-4);
    }
}

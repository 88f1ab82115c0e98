//! Error function and the standard normal CDF.
//!
//! `erf` uses the Maclaurin series for `|x| ≤ 2` and the classical
//! Laplace continued fraction (A&S 7.1.14, evaluated with the modified
//! Lentz algorithm) for the tail — both converge to full double precision.

use std::f64::consts::{FRAC_1_SQRT_2, PI};

/// Maclaurin series for `erf`, accurate to machine precision for `|x| ≤ 2`.
fn erf_series(x: f64) -> f64 {
    let x2 = x * x;
    let mut term = x; // (-1)^n x^{2n+1} / n!
    let mut sum = x;
    let mut n = 1.0_f64;
    loop {
        term *= -x2 / n;
        let add = term / (2.0 * n + 1.0);
        sum += add;
        if add.abs() <= f64::EPSILON * sum.abs() || n > 200.0 {
            break;
        }
        n += 1.0;
    }
    sum * 2.0 / PI.sqrt()
}

/// Laplace continued fraction for `erfc(x)·√π·e^{x²}`, valid for `x ≥ 2`.
///
/// `√π e^{x²} erfc(x) = 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))`
fn erfc_cf(x: f64) -> f64 {
    debug_assert!(x >= 2.0);
    const TINY: f64 = 1e-300;
    let mut f = TINY;
    let mut c = TINY;
    let mut d = 0.0;
    let mut n = 1u32;
    loop {
        let a = if n == 1 { 1.0 } else { (n - 1) as f64 / 2.0 };
        let b = x;
        d = b + a * d;
        if d == 0.0 {
            d = TINY;
        }
        c = b + a / c;
        if c == 0.0 {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = c * d;
        f *= delta;
        if (delta - 1.0).abs() < 1e-16 || n > 300 {
            break;
        }
        n += 1;
    }
    (-x * x).exp() / PI.sqrt() * f
}

/// The error function `erf(x) = 2/√π ∫₀ˣ e^{−t²} dt`.
///
/// Accuracy is close to machine precision over the whole real line.
///
/// ```
/// use specwise_stat::erf;
/// assert!((erf(0.0)).abs() < 1e-15);
/// assert!((erf(1.0) - 0.8427007929497149).abs() < 1e-14);
/// assert!((erf(-1.0) + erf(1.0)).abs() < 1e-15);
/// ```
pub fn erf(x: f64) -> f64 {
    if x.abs() <= 2.0 {
        erf_series(x)
    } else if x > 0.0 {
        1.0 - erfc_cf(x)
    } else {
        erfc_cf(-x) - 1.0
    }
}

/// The complementary error function `erfc(x) = 1 − erf(x)`.
///
/// Does not lose precision in the right tail: `erfc(10)` is representable
/// even though `1 − erf(10)` would round to zero.
///
/// ```
/// use specwise_stat::erfc;
/// assert!(erfc(10.0) > 0.0);
/// assert!((erfc(0.0) - 1.0).abs() < 1e-15);
/// ```
pub fn erfc(x: f64) -> f64 {
    if x >= 2.0 {
        erfc_cf(x)
    } else if x <= -2.0 {
        2.0 - erfc_cf(-x)
    } else {
        1.0 - erf_series(x)
    }
}

/// Standard normal cumulative distribution function `Φ(x)`.
///
/// ```
/// use specwise_stat::std_normal_cdf;
/// assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-15);
/// assert!((std_normal_cdf(1.6448536269514722) - 0.95).abs() < 1e-10);
/// ```
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * FRAC_1_SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        // Reference values from Abramowitz & Stegun / mpmath.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204998778130465),
            (1.0, 0.8427007929497149),
            (2.0, 0.9953222650189527),
            (3.0, 0.9999779095030014),
        ];
        for (x, want) in cases {
            assert!((erf(x) - want).abs() < 1e-13, "erf({x}) = {}", erf(x));
            assert!((erf(-x) + want).abs() < 1e-13, "erf(-{x})");
        }
    }

    #[test]
    fn erfc_large_argument() {
        // erfc(5) ≈ 1.5374597944280349e-12 (mpmath).
        assert!((erfc(5.0) / 1.5374597944280349e-12 - 1.0).abs() < 1e-10);
        assert!(erfc(10.0) > 0.0);
        assert!(erfc(10.0) < 1e-40);
        assert!((erfc(-5.0) - (2.0 - 1.5374597944280349e-12)).abs() < 1e-12);
    }

    #[test]
    fn erf_erfc_complementary() {
        for x in [-3.5, -2.0, -0.3, 0.0, 0.7, 1.9, 2.0, 2.1, 4.4] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-14, "x={x}");
        }
    }

    #[test]
    fn erf_continuous_at_segment_boundary() {
        let below = erf(2.0 - 1e-12);
        let above = erf(2.0 + 1e-12);
        assert!((below - above).abs() < 1e-11);
    }

    #[test]
    fn cdf_symmetric() {
        for x in [0.1, 0.7, 1.3, 2.2, 3.7] {
            assert!((std_normal_cdf(x) + std_normal_cdf(-x) - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn cdf_reference_values() {
        assert!((std_normal_cdf(1.0) - 0.8413447460685429).abs() < 1e-13);
        assert!((std_normal_cdf(-2.0) - 0.022750131948179195).abs() < 1e-13);
        assert!((std_normal_cdf(3.0) - 0.9986501019683699).abs() < 1e-13);
    }
}

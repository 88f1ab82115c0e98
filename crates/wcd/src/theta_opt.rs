//! Continuous worst-case operating-point refinement.
//!
//! The paper evaluates the worst-case operating point by corner enumeration
//! (Eq. 2), which is exact when performances are monotone in `θ`. Some
//! performances are not (e.g. a phase margin can peak mid-range); this
//! module refines a corner candidate by golden-section coordinate descent
//! inside the `Θ` box — an optional extension beyond the paper's corner
//! assumption.

use specwise_ckt::{CircuitEnv, OperatingPoint};
use specwise_linalg::DVec;

use crate::WcdError;

/// Golden-section minimization of a 1-D function on `[lo, hi]`.
fn golden_min(
    mut f: impl FnMut(f64) -> Result<f64, WcdError>,
    lo: f64,
    hi: f64,
    evals: usize,
) -> Result<(f64, f64), WcdError> {
    const INV_PHI: f64 = 0.618_033_988_749_895;
    let mut a = lo;
    let mut b = hi;
    let mut x1 = b - INV_PHI * (b - a);
    let mut x2 = a + INV_PHI * (b - a);
    let mut f1 = f(x1)?;
    let mut f2 = f(x2)?;
    for _ in 0..evals.saturating_sub(2) {
        if f1 <= f2 {
            b = x2;
            x2 = x1;
            f2 = f1;
            x1 = b - INV_PHI * (b - a);
            f1 = f(x1)?;
        } else {
            a = x1;
            x1 = x2;
            f1 = f2;
            x2 = a + INV_PHI * (b - a);
            f2 = f(x2)?;
        }
    }
    Ok(if f1 <= f2 { (x1, f1) } else { (x2, f2) })
}

/// Refines the worst-case operating point of specification `spec` at
/// `(d, ŝ)`, starting from `theta0` (usually the worst corner), by
/// golden-section coordinate descent over temperature and supply voltage.
///
/// `evals_per_axis` bounds the simulations per axis and sweep (≥ 3);
/// two sweeps are performed. Returns the refined `θ` and the margin there
/// (≤ the margin at `theta0` up to search resolution).
///
/// # Errors
///
/// Propagates evaluation errors; rejects too-small budgets.
pub fn refine_worst_theta<E: CircuitEnv + ?Sized>(
    env: &E,
    d: &DVec,
    s_hat: &DVec,
    spec: usize,
    theta0: OperatingPoint,
    evals_per_axis: usize,
) -> Result<(OperatingPoint, f64), WcdError> {
    if evals_per_axis < 3 {
        return Err(WcdError::InvalidOption {
            reason: "evals_per_axis must be >= 3",
        });
    }
    let range = env.operating_range();
    let (t_lo, t_hi) = range.temp_bounds();
    let (v_lo, v_hi) = range.vdd_bounds();
    let mut theta = theta0;
    let mut best = env.eval_margins(d, s_hat, &theta)?[spec];

    for _sweep in 0..2 {
        // Temperature axis.
        let vdd = theta.vdd;
        let (t_best, m_t) = golden_min(
            |t| Ok(env.eval_margins(d, s_hat, &OperatingPoint::new(t, vdd))?[spec]),
            t_lo,
            t_hi,
            evals_per_axis,
        )?;
        if m_t < best {
            best = m_t;
            theta = OperatingPoint::new(t_best, vdd);
        }
        // Supply axis.
        let temp = theta.temp_c;
        let (v_best, m_v) = golden_min(
            |v| Ok(env.eval_margins(d, s_hat, &OperatingPoint::new(temp, v))?[spec]),
            v_lo,
            v_hi,
            evals_per_axis,
        )?;
        if m_v < best {
            best = m_v;
            theta = OperatingPoint::new(temp, v_best);
        }
    }
    Ok((theta, best))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worst_case_corners;
    use specwise_ckt::{AnalyticEnv, DesignParam, DesignSpace, OperatingRange, Spec, SpecKind};

    /// Margin with an *interior* worst-case temperature at 60 °C.
    fn interior_env() -> AnalyticEnv {
        AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", 0.0, 10.0, 1.0,
            )]))
            .stat_dim(1)
            .operating_range(OperatingRange::new(-40.0, 125.0, 3.0, 3.6))
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, th| {
                let dip = -2.0 + ((th.temp_c - 60.0) / 40.0).powi(2);
                DVec::from_slice(&[d[0] + s[0] + dip + 0.5 * (th.vdd - 3.0)])
            })
            .build()
            .unwrap()
    }

    #[test]
    fn finds_interior_temperature_dip() {
        let e = interior_env();
        let d = DVec::from_slice(&[1.0]);
        let s = DVec::zeros(1);
        // Corner enumeration misses the dip at 60 °C / VDD = 3.0.
        let corners = worst_case_corners(&e, &d, &s).unwrap();
        let (theta_corner, m_corner) = corners[0];
        let (theta, m) = refine_worst_theta(&e, &d, &s, 0, theta_corner, 12).unwrap();
        assert!(
            m < m_corner - 0.5,
            "refined margin {m} must beat corner {m_corner}"
        );
        assert!(
            (theta.temp_c - 60.0).abs() < 5.0,
            "dip near 60°C, got {}",
            theta.temp_c
        );
        assert!(
            (theta.vdd - 3.0).abs() < 0.05,
            "low VDD is worst, got {}",
            theta.vdd
        );
        // Analytic minimum: 1 − 2 + 0 = −1.
        assert!((m + 1.0).abs() < 0.05, "margin at the dip ≈ −1, got {m}");
    }

    #[test]
    fn monotone_case_stays_at_corner() {
        // Margin monotone in both θ axes: the corner is already worst.
        let e = AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", 0.0, 10.0, 1.0,
            )]))
            .stat_dim(1)
            .operating_range(OperatingRange::new(-40.0, 125.0, 3.0, 3.6))
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, th| {
                DVec::from_slice(&[d[0] + s[0] - 0.01 * th.temp_c + 0.5 * th.vdd])
            })
            .build()
            .unwrap();
        let d = DVec::from_slice(&[1.0]);
        let s = DVec::zeros(1);
        let corners = worst_case_corners(&e, &d, &s).unwrap();
        let (theta_corner, m_corner) = corners[0];
        let (theta, m) = refine_worst_theta(&e, &d, &s, 0, theta_corner, 10).unwrap();
        assert!(m <= m_corner + 1e-9);
        assert!((m - m_corner).abs() < 0.02, "no interior dip to find");
        assert!((theta.temp_c - 125.0).abs() < 6.0);
    }

    #[test]
    fn budget_validated() {
        let e = interior_env();
        let d = DVec::from_slice(&[1.0]);
        let s = DVec::zeros(1);
        assert!(refine_worst_theta(&e, &d, &s, 0, OperatingPoint::new(25.0, 3.3), 2).is_err());
    }
}

//! Diagonal-quadratic margin models — the "model of higher order" the
//! paper argues is *unnecessary* once the feasibility region and worst-case
//! anchoring are in place (Sec. 5.1: "no model of higher order is needed
//! when considering functional constraints").
//!
//! This module exists to test that claim quantitatively: a
//! [`QuadraticMarginModel`] augments the spec-wise linearization with a
//! diagonal Hessian estimated by central second differences, and the
//! `specwise` core can estimate yield over either model class so their
//! accuracies can be compared against simulation Monte Carlo (see
//! `tests/model_order.rs` at the workspace root).

use specwise_ckt::{CircuitEnv, EvalPoint, OperatingPoint};
use specwise_linalg::DVec;

use crate::WcdError;

/// A margin model with linear design dependence and diagonal-quadratic
/// statistical dependence:
///
/// ```text
/// m̄(d, ŝ) = m₀ + g·(ŝ − ŝ₀) + ½·Σᵢ hᵢ·(ŝᵢ − ŝ₀ᵢ)² + g_d·(d − d_f)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuadraticMarginModel {
    /// Specification index.
    pub spec: usize,
    /// Worst-case operating point.
    pub theta_wc: OperatingPoint,
    /// Statistical anchor `ŝ₀`.
    pub s_anchor: DVec,
    /// Design anchor `d_f`.
    pub d_f: DVec,
    /// Margin at the anchor.
    pub margin_at_anchor: f64,
    /// Central-difference gradient w.r.t. `ŝ` at the anchor.
    pub grad_s: DVec,
    /// Diagonal of the Hessian w.r.t. `ŝ` at the anchor.
    pub hess_diag: DVec,
    /// Gradient w.r.t. `d` at the anchor.
    pub grad_d: DVec,
}

impl QuadraticMarginModel {
    /// Fits the model at `(d_f, s_anchor, theta)` with central differences
    /// of step `h` (σ units): `2·n_s + 1` margin evaluations plus the
    /// design gradient.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors; rejects non-positive steps.
    pub fn fit<E: CircuitEnv + ?Sized>(
        env: &E,
        d_f: &DVec,
        spec: usize,
        theta: &OperatingPoint,
        s_anchor: &DVec,
        h: f64,
    ) -> Result<Self, WcdError> {
        if !(h > 0.0) {
            return Err(WcdError::InvalidOption {
                reason: "fd step must be > 0",
            });
        }
        let n_s = env.stat_dim();
        if s_anchor.len() != n_s {
            return Err(WcdError::DimensionMismatch {
                what: "stat",
                expected: n_s,
                found: s_anchor.len(),
            });
        }
        // One batch: the anchor plus ± probes per axis.
        let mut points = Vec::with_capacity(2 * n_s + 1);
        points.push(EvalPoint::new(d_f.clone(), s_anchor.clone(), *theta));
        for i in 0..n_s {
            let mut sp = s_anchor.clone();
            sp[i] += h;
            let mut sm = s_anchor.clone();
            sm[i] -= h;
            points.push(EvalPoint::new(d_f.clone(), sp, *theta));
            points.push(EvalPoint::new(d_f.clone(), sm, *theta));
        }
        let mut results = env.eval_margins_batch(&points).into_iter();
        let m0 = results
            .next()
            .expect("batch returns one result per point")?[spec];
        let mut grad_s = DVec::zeros(n_s);
        let mut hess_diag = DVec::zeros(n_s);
        for i in 0..n_s {
            let mp = results.next().expect("one +h probe per axis")?[spec];
            let mm = results.next().expect("one -h probe per axis")?[spec];
            grad_s[i] = (mp - mm) / (2.0 * h);
            hess_diag[i] = (mp - 2.0 * m0 + mm) / (h * h);
        }
        let (_, jac_d) = crate::margins_gradient_d(env, d_f, s_anchor, theta, 1e-3)?;
        Ok(QuadraticMarginModel {
            spec,
            theta_wc: *theta,
            s_anchor: s_anchor.clone(),
            d_f: d_f.clone(),
            margin_at_anchor: m0,
            grad_s,
            hess_diag,
            grad_d: jac_d.row(spec),
        })
    }

    /// The statistical (sample-constant) part of the model at `ŝ`.
    pub fn sample_part(&self, s_hat: &DVec) -> f64 {
        let mut acc = self.margin_at_anchor;
        for i in 0..self.grad_s.len() {
            let ds = s_hat[i] - self.s_anchor[i];
            acc += self.grad_s[i] * ds + 0.5 * self.hess_diag[i] * ds * ds;
        }
        acc
    }

    /// The design shift `g_d·(d − d_f)`.
    pub fn design_shift(&self, d: &DVec) -> f64 {
        self.grad_d.dot(&(d - &self.d_f))
    }

    /// Full model evaluation.
    pub fn eval(&self, d: &DVec, s_hat: &DVec) -> f64 {
        self.sample_part(s_hat) + self.design_shift(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specwise_ckt::{AnalyticEnv, DesignParam, DesignSpace, Spec, SpecKind};

    /// margin = 2 + 3·s0 − s1² + 0.5·d0 — linear + pure diagonal quadratic.
    fn env() -> AnalyticEnv {
        AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", -10.0, 10.0, 0.0,
            )]))
            .stat_dim(2)
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| {
                DVec::from_slice(&[2.0 + 3.0 * s[0] - s[1] * s[1] + 0.5 * d[0]])
            })
            .build()
            .unwrap()
    }

    #[test]
    fn fit_recovers_exact_coefficients() {
        let e = env();
        let theta = e.operating_range().nominal();
        let d = DVec::from_slice(&[0.0]);
        let anchor = DVec::from_slice(&[0.3, -0.4]);
        let q = QuadraticMarginModel::fit(&e, &d, 0, &theta, &anchor, 0.05).unwrap();
        // grad = (3, −2·s1) = (3, 0.8); hess = (0, −2); grad_d = 0.5.
        assert!((q.grad_s[0] - 3.0).abs() < 1e-9, "g0 = {}", q.grad_s[0]);
        assert!((q.grad_s[1] - 0.8).abs() < 1e-9, "g1 = {}", q.grad_s[1]);
        assert!(q.hess_diag[0].abs() < 1e-7, "h0 = {}", q.hess_diag[0]);
        assert!(
            (q.hess_diag[1] + 2.0).abs() < 1e-7,
            "h1 = {}",
            q.hess_diag[1]
        );
        assert!((q.grad_d[0] - 0.5).abs() < 1e-4);
    }

    #[test]
    fn model_is_exact_for_matching_function() {
        let e = env();
        let theta = e.operating_range().nominal();
        let d0 = DVec::from_slice(&[0.0]);
        let anchor = DVec::zeros(2);
        let q = QuadraticMarginModel::fit(&e, &d0, 0, &theta, &anchor, 0.05).unwrap();
        for (dd, s0, s1) in [(0.0, 1.0, 1.0), (2.0, -0.7, 0.4), (-1.0, 0.0, 2.0)] {
            let d = DVec::from_slice(&[dd]);
            let s = DVec::from_slice(&[s0, s1]);
            let truth = e.eval_margins(&d, &s, &theta).unwrap()[0];
            assert!(
                (q.eval(&d, &s) - truth).abs() < 1e-6,
                "model {} vs truth {truth}",
                q.eval(&d, &s)
            );
        }
    }

    #[test]
    fn validates_inputs() {
        let e = env();
        let theta = e.operating_range().nominal();
        let d0 = DVec::from_slice(&[0.0]);
        assert!(QuadraticMarginModel::fit(&e, &d0, 0, &theta, &DVec::zeros(2), 0.0).is_err());
        assert!(QuadraticMarginModel::fit(&e, &d0, 0, &theta, &DVec::zeros(3), 0.1).is_err());
    }
}

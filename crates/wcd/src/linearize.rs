//! Spec-wise linear performance models (paper Eq. 16), expressed on margins.
//!
//! Each model approximates one margin as
//!
//! ```text
//! m̄⁽ⁱ⁾(d, ŝ) = m_wc + ∇_ŝ m·(ŝ − ŝ_wc) + ∇_d m·(d − d_f)
//! ```
//!
//! anchored at the worst-case point `ŝ_wc` and the feasible design point
//! `d_f`. A sample passes the spec when `m̄ ≥ 0` — the margin formulation of
//! the paper's `f̄ ≥ f_b`.

use specwise_ckt::OperatingPoint;
use specwise_linalg::DVec;

/// A linearized margin model of one specification.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecLinearization {
    /// Specification index this model belongs to.
    pub spec: usize,
    /// `true` when this is the mirrored twin (paper Eqs. 21–22) added for a
    /// semidefinite-quadratic (mismatch-shaped) performance.
    pub mirrored: bool,
    /// Worst-case operating point of the spec.
    pub theta_wc: OperatingPoint,
    /// Anchor point in the standardized statistical space.
    pub s_wc: DVec,
    /// Anchor point in the design space.
    pub d_f: DVec,
    /// Margin value at the anchor `(d_f, ŝ_wc)`.
    pub margin_at_anchor: f64,
    /// Margin gradient w.r.t. `ŝ` at the anchor.
    pub grad_s: DVec,
    /// Margin gradient w.r.t. `d` at the anchor.
    pub grad_d: DVec,
}

impl SpecLinearization {
    /// Evaluates the linear model at `(d, ŝ)`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn eval(&self, d: &DVec, s_hat: &DVec) -> f64 {
        self.margin_at_anchor
            + self.grad_s.dot(&(s_hat - &self.s_wc))
            + self.grad_d.dot(&(d - &self.d_f))
    }

    /// The sample-constant part of the model: everything except the
    /// `∇_d·(d − d_f)` term (paper Eq. 20's stored per-sample value). The
    /// full model is `sample_part(ŝ) + design_shift(d)`.
    ///
    /// Allocation-free: the zipped left-to-right sum has the same bits as
    /// `grad_s.dot(&(ŝ − ŝ_wc))`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn sample_part(&self, s_hat: &DVec) -> f64 {
        assert_eq!(s_hat.len(), self.s_wc.len(), "sample_part: length mismatch");
        assert_eq!(
            self.grad_s.len(),
            self.s_wc.len(),
            "sample_part: length mismatch"
        );
        let dot: f64 = self
            .grad_s
            .iter()
            .zip(s_hat.iter().zip(self.s_wc.iter()))
            .map(|(g, (s, w))| g * (s - w))
            .sum();
        self.margin_at_anchor + dot
    }

    /// The design-dependent shift `∇_d·(d − d_f)` (paper's `Δf̄`).
    pub fn design_shift(&self, d: &DVec) -> f64 {
        self.grad_d.dot(&(d - &self.d_f))
    }

    /// Builds the mirrored twin at `−ŝ_wc` with negated statistical
    /// gradient (paper Eqs. 21–22). The design gradient and anchor margin
    /// are reused.
    pub fn to_mirrored(&self) -> SpecLinearization {
        SpecLinearization {
            spec: self.spec,
            mirrored: true,
            theta_wc: self.theta_wc,
            s_wc: -&self.s_wc,
            d_f: self.d_f.clone(),
            margin_at_anchor: self.margin_at_anchor,
            grad_s: -&self.grad_s,
            grad_d: self.grad_d.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> SpecLinearization {
        SpecLinearization {
            spec: 1,
            mirrored: false,
            theta_wc: OperatingPoint::new(25.0, 3.3),
            s_wc: DVec::from_slice(&[1.0, -1.0]),
            d_f: DVec::from_slice(&[2.0]),
            margin_at_anchor: 0.0,
            grad_s: DVec::from_slice(&[0.5, -0.5]),
            grad_d: DVec::from_slice(&[2.0]),
        }
    }

    #[test]
    fn eval_decomposes() {
        let lin = example();
        let d = DVec::from_slice(&[3.0]);
        let s = DVec::from_slice(&[0.0, 0.0]);
        let full = lin.eval(&d, &s);
        let split = lin.sample_part(&s) + lin.design_shift(&d);
        assert!((full - split).abs() < 1e-14);
        // At the anchor the model reproduces the anchor margin.
        assert!((lin.eval(&lin.d_f.clone(), &lin.s_wc.clone()) - 0.0).abs() < 1e-14);
    }

    #[test]
    fn known_values() {
        let lin = example();
        // sample part at s = 0: 0 + (0.5, −0.5)·(−1, 1) = −1.
        assert!((lin.sample_part(&DVec::zeros(2)) + 1.0).abs() < 1e-14);
        // design shift at d = 3: 2·1 = 2.
        assert!((lin.design_shift(&DVec::from_slice(&[3.0])) - 2.0).abs() < 1e-14);
    }

    #[test]
    fn sample_part_matches_the_vector_expression_bit_for_bit() {
        let mut lin = example();
        lin.s_wc = DVec::from_fn(9, |i| (i as f64 * 0.71).sin() * 1.3);
        lin.grad_s = DVec::from_fn(9, |i| (i as f64 * 1.37).cos() * 0.4);
        lin.margin_at_anchor = 0.37;
        for t in 0..20 {
            let s = DVec::from_fn(9, |i| ((t * 9 + i) as f64 * 0.53).sin() * 2.0);
            let reference = lin.margin_at_anchor + lin.grad_s.dot(&(&s - &lin.s_wc));
            assert_eq!(lin.sample_part(&s).to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn mirrored_model_negates_stat_side() {
        let lin = example();
        let m = lin.to_mirrored();
        assert!(m.mirrored);
        assert_eq!(m.s_wc.as_slice(), &[-1.0, 1.0]);
        assert_eq!(m.grad_s.as_slice(), &[-0.5, 0.5]);
        assert_eq!(m.grad_d, lin.grad_d);
        // Mirrored model at −s_wc reproduces the anchor margin.
        assert!((m.eval(&lin.d_f.clone(), &m.s_wc.clone())).abs() < 1e-14);
        // At s = 0 both models agree (symmetry of the quadratic).
        assert!((m.sample_part(&DVec::zeros(2)) - lin.sample_part(&DVec::zeros(2))).abs() < 1e-14);
    }
}

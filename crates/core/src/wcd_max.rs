//! Worst-case distance maximization — the predecessor of direct yield
//! optimization (Antreich, Graeb, Wieser, TCAD 1994; the paper's ref [10]).
//!
//! Instead of maximizing the Monte-Carlo yield estimate directly, this
//! optimizer maximizes the *smallest* (signed) worst-case distance across
//! the specifications: `max_d min_i β̄_i(d)`. Under the spec-wise linear
//! models, moving the design shifts each margin by `∇_d m_i·(d − d_f)`;
//! measured in sigma units (dividing by `‖∇_ŝ m_i‖`) this directly shifts
//! the worst-case distance:
//!
//! ```text
//! β̄_i(d) = β_i + ∇_d m_i·(d − d_f) / ‖∇_ŝ m_i‖
//! ```
//!
//! The crate ships this as an alternative objective so the two philosophies
//! can be compared on the same linearizations (see `benches/ablation.rs`);
//! the DAC 2001 paper's argument for direct yield optimization is that the
//! min-β objective ignores performance correlations, which the Monte-Carlo
//! estimate naturally accounts for.

use specwise_linalg::DVec;
use specwise_wcd::{SpecLinearization, WorstCasePoint};

use crate::coordinate_search::{GRID_POINTS, MAX_SWEEPS};
use crate::{LinearConstraints, SpecwiseError};

/// Linearized worst-case distance model of one specification.
#[derive(Debug, Clone)]
struct BetaModel {
    beta: f64,
    grad_d_over_sigma: DVec,
    d_f: DVec,
}

impl BetaModel {
    fn eval(&self, d: &DVec) -> f64 {
        self.beta + self.grad_d_over_sigma.dot(&(d - &self.d_f))
    }
}

/// Maximizer of the minimum linearized worst-case distance.
///
/// # Example
///
/// See `benches/ablation.rs` and the unit tests; typical use mirrors
/// [`crate::CoordinateSearch`] but with β̄ models built from a
/// [`specwise_wcd::WcResult`] via [`WcdMaximizer::from_analysis`].
#[derive(Debug, Clone)]
pub struct WcdMaximizer {
    models: Vec<BetaModel>,
}

impl WcdMaximizer {
    /// Builds β̄ models from worst-case points and their matching
    /// linearizations (mirrored twins share their primary's β).
    ///
    /// # Errors
    ///
    /// Returns [`SpecwiseError::InvalidConfig`] when a linearization has a
    /// vanishing statistical gradient (β̄ undefined) or the inputs are
    /// empty.
    pub fn from_analysis(
        wc_points: &[WorstCasePoint],
        linearizations: &[SpecLinearization],
    ) -> Result<Self, SpecwiseError> {
        if wc_points.is_empty() || linearizations.is_empty() {
            return Err(SpecwiseError::InvalidConfig {
                reason: "empty worst-case analysis",
            });
        }
        let mut models = Vec::new();
        for lin in linearizations {
            let sigma = lin.grad_s.norm2();
            if sigma <= 1e-15 {
                // A spec insensitive to ŝ has unbounded β̄; skip it (it
                // cannot be the minimum).
                continue;
            }
            let beta = wc_points
                .iter()
                .find(|w| w.spec == lin.spec)
                .map(|w| w.beta_wc)
                .ok_or(SpecwiseError::InvalidConfig {
                    reason: "linearization without matching worst-case point",
                })?;
            models.push(BetaModel {
                beta,
                grad_d_over_sigma: lin.grad_d.scaled(1.0 / sigma),
                d_f: lin.d_f.clone(),
            });
        }
        if models.is_empty() {
            return Err(SpecwiseError::InvalidConfig {
                reason: "no statistically sensitive specifications",
            });
        }
        Ok(WcdMaximizer { models })
    }

    /// The minimum linearized worst-case distance at `d`.
    pub fn min_beta(&self, d: &DVec) -> f64 {
        self.models
            .iter()
            .map(|m| m.eval(d))
            .fold(f64::INFINITY, f64::min)
    }

    /// Maximizes `min_i β̄_i(d)` by constrained coordinate search; returns
    /// the best design and its min-β value.
    ///
    /// # Errors
    ///
    /// Propagates dimension errors.
    pub fn run(
        &self,
        constraints: &LinearConstraints,
        d_start: &DVec,
    ) -> Result<(DVec, f64), SpecwiseError> {
        let n_d = d_start.len();
        let mut d = d_start.clone();
        let mut best = self.min_beta(&d);
        for _ in 0..MAX_SWEEPS {
            let mut improved = false;
            for k in 0..n_d {
                let Some((lo, hi)) = constraints.coord_interval(&d, k) else {
                    continue;
                };
                if hi - lo <= 0.0 {
                    continue;
                }
                let mut best_val = d[k];
                for g in 0..GRID_POINTS {
                    let v = lo + (hi - lo) * g as f64 / (GRID_POINTS - 1) as f64;
                    let mut probe = d.clone();
                    probe[k] = v;
                    let b = self.min_beta(&probe);
                    if b > best + 1e-12 {
                        best = b;
                        best_val = v;
                    }
                }
                if best_val != d[k] {
                    d[k] = best_val;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        Ok((d, best))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specwise_ckt::OperatingPoint;

    fn wc(spec: usize, beta: f64, n_s: usize) -> WorstCasePoint {
        WorstCasePoint {
            spec,
            theta_wc: OperatingPoint::new(25.0, 3.3),
            s_wc: DVec::zeros(n_s),
            beta_wc: beta,
            nominal_margin: beta,
            margin_at_wc: 0.0,
            grad_s: DVec::zeros(n_s),
            converged: true,
        }
    }

    fn lin(spec: usize, grad_s: &[f64], grad_d: &[f64]) -> SpecLinearization {
        SpecLinearization {
            spec,
            mirrored: false,
            theta_wc: OperatingPoint::new(25.0, 3.3),
            s_wc: DVec::zeros(grad_s.len()),
            d_f: DVec::zeros(grad_d.len()),
            margin_at_anchor: 0.0,
            grad_s: DVec::from_slice(grad_s),
            grad_d: DVec::from_slice(grad_d),
        }
    }

    fn box_constraints(n: usize, lo: f64, hi: f64) -> LinearConstraints {
        LinearConstraints::box_only(&DVec::zeros(n), DVec::filled(n, lo), DVec::filled(n, hi))
    }

    #[test]
    fn balances_two_opposing_specs() {
        // β̄₀ = 1 + d, β̄₁ = 3 − d (σ = 1): the min is maximized at d = 1
        // where both distances equal 2.
        let wcs = vec![wc(0, 1.0, 1), wc(1, 3.0, 1)];
        let lins = vec![lin(0, &[1.0], &[1.0]), lin(1, &[1.0], &[-1.0])];
        let m = WcdMaximizer::from_analysis(&wcs, &lins).unwrap();
        let (d, b) = m
            .run(&box_constraints(1, -5.0, 5.0), &DVec::zeros(1))
            .unwrap();
        assert!((d[0] - 1.0).abs() < 0.2, "d = {d}");
        assert!((b - 2.0).abs() < 0.2, "min beta = {b}");
    }

    #[test]
    fn sigma_scaling_converts_margin_shift_to_distance_shift() {
        // grad_s norm 2 halves the distance gain per unit design shift.
        let wcs = vec![wc(0, 0.0, 1)];
        let lins = vec![lin(0, &[2.0], &[1.0])];
        let m = WcdMaximizer::from_analysis(&wcs, &lins).unwrap();
        assert!((m.min_beta(&DVec::from_slice(&[1.0])) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn insensitive_specs_are_skipped() {
        let wcs = vec![wc(0, 1.0, 1), wc(1, 0.5, 1)];
        let lins = vec![lin(0, &[0.0], &[1.0]), lin(1, &[1.0], &[0.5])];
        let m = WcdMaximizer::from_analysis(&wcs, &lins).unwrap();
        // Only spec 1 participates.
        assert!((m.min_beta(&DVec::zeros(1)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_empty_and_all_insensitive() {
        assert!(WcdMaximizer::from_analysis(&[], &[]).is_err());
        let wcs = vec![wc(0, 1.0, 1)];
        let lins = vec![lin(0, &[0.0], &[1.0])];
        assert!(WcdMaximizer::from_analysis(&wcs, &lins).is_err());
    }

    #[test]
    fn respects_constraints() {
        let wcs = vec![wc(0, 0.0, 1)];
        let lins = vec![lin(0, &[1.0], &[1.0])];
        let m = WcdMaximizer::from_analysis(&wcs, &lins).unwrap();
        let lc = LinearConstraints::new(
            DVec::from_slice(&[2.0]),
            specwise_linalg::DMat::from_rows(&[&[-1.0]]).unwrap(),
            DVec::zeros(1),
            DVec::filled(1, -5.0),
            DVec::filled(1, 5.0),
        )
        .unwrap();
        let (d, _) = m.run(&lc, &DVec::zeros(1)).unwrap();
        assert!(d[0] <= 2.0 + 1e-9, "constraint respected: {d}");
        assert!(d[0] > 1.8, "pushed to the boundary: {d}");
    }

    #[test]
    fn mirrored_twins_share_their_spec_beta() {
        let wcs = vec![wc(0, 1.5, 2)];
        let primary = lin(0, &[1.0, -1.0], &[1.0]);
        let mirrored = primary.to_mirrored();
        let m = WcdMaximizer::from_analysis(&wcs, &[primary, mirrored]).unwrap();
        // Both models start at β = 1.5; the mirrored one has negated grad_s
        // but the same ‖grad_s‖, and grad_d is shared.
        assert!((m.min_beta(&DVec::zeros(1)) - 1.5).abs() < 1e-12);
    }
}

//! Worst-case distance search: paper Eq. 8,
//! `ŝ_wc = argmin ‖ŝ‖² s.t. margin(d, ŝ, θ_wc) = 0`.
//!
//! The solver is the classical worst-case distance iteration of Antreich,
//! Graeb et al. (paper refs [10, 12]): linearize the margin at the current
//! iterate and jump to the point of the zero-margin hyperplane closest to
//! the origin, repeating until the true margin vanishes there. Each move is
//! damped to at most 2σ, a guard against nonlinearity on the way to a
//! boundary.
//!
//! A spec that cannot fail within [`BETA_MAX`] never enters the yield of
//! Eqs. 6–7, so its β only has to be shown to lie beyond the clamp. When
//! the current margin is positive and the undamped linear target lies
//! beyond the sphere, the search probes the sphere point along that target,
//! `ŝ_sph = ŝ*·BETA_MAX/‖ŝ*‖`, with one gradient evaluation, and accepts
//! the spec as uncritical (β = ±[`BETA_MAX`], not converged) there when a
//! certificate holds:
//!
//! * the true margin is positive: `m(ŝ_sph) > 0`;
//! * the linear model at `ŝ_sph` is positive over the whole ball
//!   `‖ŝ‖ ≤ BETA_MAX`: `m − gᵀŝ_sph − BETA_MAX·‖g‖ > 0`, with `m` and `g`
//!   the margin and gradient at `ŝ_sph`.
//!
//! Otherwise the damped walk goes on from the current iterate, so every
//! spec that can fail still gets the 2σ guard. The probe runs at most once
//! per search.

use specwise_ckt::{CircuitEnv, OperatingPoint};
use specwise_linalg::DVec;

use crate::gradient::margins_gradient_s;
use crate::{WcdError, BETA_MAX, FD_STEP_S, MARGIN_TOL_REL, MAX_SQP_ITERS};

/// The worst-case point of one specification.
#[derive(Debug, Clone, PartialEq)]
pub struct WorstCasePoint {
    /// Specification index.
    pub spec: usize,
    /// Worst-case operating point used for the search.
    pub theta_wc: OperatingPoint,
    /// The worst-case statistical point (standardized space).
    pub s_wc: DVec,
    /// Signed worst-case distance: `+‖ŝ_wc‖` when the nominal design
    /// satisfies the spec, `−‖ŝ_wc‖` when it violates it.
    pub beta_wc: f64,
    /// Margin at the nominal point `ŝ = 0`.
    pub nominal_margin: f64,
    /// Margin at `ŝ_wc` (≈ 0 when converged and unclamped).
    pub margin_at_wc: f64,
    /// Margin gradient w.r.t. `ŝ` at `ŝ_wc`.
    pub grad_s: DVec,
    /// `true` when the search converged to the spec boundary; `false` when
    /// the spec cannot fail within [`BETA_MAX`] sigmas (β clamped) or the
    /// iteration budget ran out.
    pub converged: bool,
}

/// Worst-case distance solver for one specification.
///
/// See the [crate-level example](crate) for typical usage through
/// [`crate::WcAnalysis`]; this type is the stand-alone building block.
#[derive(Debug, Clone, Copy)]
pub struct WorstCaseSearch;

impl WorstCaseSearch {
    /// Runs the search for specification `spec` at design `d` and operating
    /// point `theta_wc`.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors; returns
    /// [`WcdError::DegenerateGradient`] when the margin does not depend on
    /// the statistical parameters at all.
    pub fn run<E: CircuitEnv + ?Sized>(
        &self,
        env: &E,
        d: &DVec,
        spec: usize,
        theta_wc: &OperatingPoint,
    ) -> Result<WorstCasePoint, WcdError> {
        let n_s = env.stat_dim();
        // Start slightly off the nominal point with a deterministic,
        // asymmetric perturbation. Mismatch-shaped performances are locally
        // quadratic ridges whose gradient vanishes *exactly* at ŝ = 0 — and
        // worse, one-sided finite differences there point along the neutral
        // direction. Breaking the symmetry restores a correctly oriented
        // first gradient (this is our stand-in for the mismatch-aware
        // worst-case algorithm of paper ref [12]).
        const GOLDEN: f64 = 1.618_033_988_749_895;
        let mut s = DVec::from_fn(n_s, |i| 0.15 * (GOLDEN * (i as f64 + 1.0)).sin());
        // The exact nominal margin (for the sign of β_wc).
        let nominal_margin = env.eval_margins(d, &DVec::zeros(n_s), theta_wc)?[spec];
        let signed = |beta_mag: f64| {
            if nominal_margin >= 0.0 {
                beta_mag
            } else {
                -beta_mag
            }
        };
        let mut converged = false;
        let mut probed = false;

        for iter in 0..MAX_SQP_ITERS {
            let (margins, jac) = margins_gradient_s(env, d, &s, theta_wc, FD_STEP_S)?;
            let m = margins[spec];
            let g = jac.row(spec);

            let gnorm2 = g.dot(&g);
            if gnorm2 <= 1e-30 {
                if iter == 0 {
                    return Err(WcdError::DegenerateGradient { spec });
                }
                break;
            }

            // Closest point to the origin on {ŝ : m + gᵀ(ŝ − s) = 0}:
            // ŝ* = ((gᵀs − m)/gᵀg)·g.
            let alpha = (g.dot(&s) - m) / gnorm2;
            let mut s_next = g.scaled(alpha);

            // Clamp to the trust sphere ‖ŝ‖ ≤ BETA_MAX.
            let norm = s_next.norm2();
            if norm > BETA_MAX {
                s_next.scale_mut(BETA_MAX / norm);
                // Probe the sphere point for the uncritical certificate
                // (module docs).
                if m > 0.0 && !probed {
                    probed = true;
                    let (margins_sph, jac_sph) =
                        margins_gradient_s(env, d, &s_next, theta_wc, FD_STEP_S)?;
                    let m_sph = margins_sph[spec];
                    let g_sph = jac_sph.row(spec);
                    if m_sph > 0.0 && m_sph - g_sph.dot(&s_next) - BETA_MAX * g_sph.norm2() > 0.0 {
                        return Ok(WorstCasePoint {
                            spec,
                            theta_wc: *theta_wc,
                            s_wc: s_next,
                            beta_wc: signed(BETA_MAX),
                            nominal_margin,
                            margin_at_wc: m_sph,
                            grad_s: g_sph,
                            converged: false,
                        });
                    }
                }
            }

            // Damp overly long moves (nonlinearity guard): at most 2σ per step.
            let step = &s_next - &s;
            let step_norm = step.norm2();
            const MAX_STEP: f64 = 2.0;
            let s_new = if step_norm > MAX_STEP {
                s.axpy(MAX_STEP / step_norm, &step)
            } else {
                s_next
            };

            // Convergence test on the *true* margin at the new iterate.
            let margins_new = env.eval_margins(d, &s_new, theta_wc)?;
            let m_new = margins_new[spec];
            let gnorm = gnorm2.sqrt();
            s = s_new;
            if m_new.abs() <= MARGIN_TOL_REL * gnorm
                && step_norm <= MAX_STEP
                && s.norm2() < BETA_MAX - 1e-9
            {
                converged = true;
                break;
            }
            if s.norm2() >= BETA_MAX - 1e-9 && m_new > 0.0 {
                // The spec cannot fail inside the trust sphere: uncritical.
                converged = false;
                break;
            }
        }

        let beta_wc = signed(s.norm2());
        // The gradient at the final point (the loop's last gradient
        // belongs to the previous iterate).
        let (margins_f, jac_f) = margins_gradient_s(env, d, &s, theta_wc, FD_STEP_S)?;
        Ok(WorstCasePoint {
            spec,
            theta_wc: *theta_wc,
            s_wc: s,
            beta_wc,
            nominal_margin,
            margin_at_wc: margins_f[spec],
            grad_s: jac_f.row(spec),
            converged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specwise_ckt::{AnalyticEnv, DesignParam, DesignSpace, Spec, SpecKind};

    fn linear_env(offset: f64) -> AnalyticEnv {
        // margin = offset + 3·s0 − 4·s1 (lower-bound spec at 0).
        AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", -10.0, 10.0, offset,
            )]))
            .stat_dim(2)
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| DVec::from_slice(&[d[0] + 3.0 * s[0] - 4.0 * s[1]]))
            .build()
            .unwrap()
    }

    #[test]
    fn linear_case_exact_distance() {
        // Distance from origin to hyperplane offset + 3s0 − 4s1 = 0 is
        // offset/5; the worst-case point is −offset·(3, −4)/25.
        let env = linear_env(5.0);
        let theta = env.operating_range().nominal();
        let wc = WorstCaseSearch
            .run(&env, &DVec::from_slice(&[5.0]), 0, &theta)
            .unwrap();
        assert!(wc.converged);
        assert!((wc.beta_wc - 1.0).abs() < 1e-3, "beta = {}", wc.beta_wc);
        assert!((wc.s_wc[0] + 0.6).abs() < 1e-3);
        assert!((wc.s_wc[1] - 0.8).abs() < 1e-3);
        assert!(wc.margin_at_wc.abs() < 1e-6);
        assert!((wc.nominal_margin - 5.0).abs() < 1e-12);
    }

    #[test]
    fn violated_spec_gives_negative_beta() {
        let env = linear_env(-2.5);
        let theta = env.operating_range().nominal();
        let wc = WorstCaseSearch
            .run(&env, &DVec::from_slice(&[-2.5]), 0, &theta)
            .unwrap();
        assert!(wc.converged);
        assert!((wc.beta_wc + 0.5).abs() < 1e-3, "beta = {}", wc.beta_wc);
        assert!(wc.nominal_margin < 0.0);
    }

    #[test]
    fn worst_case_point_is_spec_gradient_aligned() {
        // At the worst-case point, ŝ_wc ∝ −∇margin (paper Sec. 3).
        let env = linear_env(5.0);
        let theta = env.operating_range().nominal();
        let wc = WorstCaseSearch
            .run(&env, &DVec::from_slice(&[5.0]), 0, &theta)
            .unwrap();
        // grad = (3, −4); s_wc = (−0.6, 0.8) = −0.2·grad.
        let cross = wc.s_wc[0] * wc.grad_s[1] - wc.s_wc[1] * wc.grad_s[0];
        assert!(cross.abs() < 1e-6, "not collinear: {cross}");
        assert!(
            wc.s_wc.dot(&wc.grad_s) < 0.0,
            "must point against the gradient"
        );
    }

    #[test]
    fn uncritical_spec_clamped_to_beta_max() {
        // Tiny sensitivity: cannot fail within 8σ.
        let env = AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", 0.0, 10.0, 5.0,
            )]))
            .stat_dim(1)
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| DVec::from_slice(&[d[0] + 1e-3 * s[0]]))
            .build()
            .unwrap();
        let theta = env.operating_range().nominal();
        let wc = WorstCaseSearch
            .run(&env, &DVec::from_slice(&[5.0]), 0, &theta)
            .unwrap();
        assert!(!wc.converged);
        assert!((wc.beta_wc - BETA_MAX).abs() < 1e-6);
    }

    #[test]
    fn curved_spec_past_the_sphere_by_its_first_step_is_still_found() {
        // margin = 10 + 0.5·s0 − 0.2·s0²: the first linear step lands about
        // 23σ out, but the sphere probe at s0 = −8 fails (margin −6.8), so
        // the certificate rejects and the damped walk finds the boundary
        // at s0 = (0.5 − √8.25)/0.4 ≈ −5.93.
        let env = AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", 0.0, 20.0, 10.0,
            )]))
            .stat_dim(2)
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| DVec::from_slice(&[d[0] + 0.5 * s[0] - 0.2 * s[0] * s[0]]))
            .build()
            .unwrap();
        let theta = env.operating_range().nominal();
        let d = DVec::from_slice(&[10.0]);
        let probe = env
            .eval_margins(&d, &DVec::from_slice(&[-BETA_MAX, 0.0]), &theta)
            .unwrap();
        assert!(probe[0] < 0.0, "the sphere probe must fail: {}", probe[0]);
        let wc = WorstCaseSearch.run(&env, &d, 0, &theta).unwrap();
        let boundary = (0.5 - 8.25f64.sqrt()) / 0.4;
        assert!(wc.converged, "a spec failing inside 8σ must converge");
        assert!(
            (wc.beta_wc + boundary).abs() < 1e-3,
            "beta {} vs {}",
            wc.beta_wc,
            -boundary
        );
        assert!((wc.s_wc[0] - boundary).abs() < 1e-3);
        // Converged within the relative tolerance (‖g‖ ≈ 2.9 there).
        assert!(wc.margin_at_wc.abs() < MARGIN_TOL_REL * 3.0);
    }

    #[test]
    fn positive_sphere_probe_with_a_failing_ball_model_is_still_found() {
        // margin = 10 + 0.5·s0 − 0.3·s0·s1 fails first at β ≈ 7.0321 in the
        // (−, −) quadrant (a fine scan over the quarter circle). The first linear step lands about 20σ out along
        // −s0 and the sphere probe there passes (margin ≈ 6.6), but its
        // gradient is steep along s1, so the linear model at the probe fails
        // inside the ball and the certificate rejects.
        let env = AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", 0.0, 20.0, 10.0,
            )]))
            .stat_dim(2)
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| DVec::from_slice(&[d[0] + 0.5 * s[0] - 0.3 * s[0] * s[1]]))
            .build()
            .unwrap();
        let theta = env.operating_range().nominal();
        let d = DVec::from_slice(&[10.0]);
        let wc = WorstCaseSearch.run(&env, &d, 0, &theta).unwrap();
        assert!(wc.converged, "a spec failing inside 8σ must converge");
        assert!((wc.beta_wc - 7.0321).abs() < 1e-2, "beta {}", wc.beta_wc);
        assert!(wc.s_wc[0] < 0.0 && wc.s_wc[1] < 0.0);
    }

    #[test]
    fn quadratic_margin_converges() {
        // margin = 2 − s0² − 0.25·s1²; boundary at ‖(s0, 0)‖ = √2 (closest).
        let env = AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", 0.0, 10.0, 2.0,
            )]))
            .stat_dim(2)
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| DVec::from_slice(&[d[0] - s[0] * s[0] - 0.25 * s[1] * s[1]]))
            .build()
            .unwrap();
        let theta = env.operating_range().nominal();
        let wc = WorstCaseSearch
            .run(&env, &DVec::from_slice(&[2.0]), 0, &theta)
            .unwrap();
        // The gradient at s = 0 vanishes in s0 and s1… actually it is 0 for
        // both — degenerate at the nominal point. The fd step perturbs it
        // slightly so the search still finds the boundary ring.
        assert!(wc.margin_at_wc.abs() < 0.05, "margin {}", wc.margin_at_wc);
        assert!(
            (wc.s_wc.norm2() - 2f64.sqrt()).abs() < 0.3,
            "norm {}",
            wc.s_wc.norm2()
        );
    }

    #[test]
    fn degenerate_gradient_detected() {
        let env = AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", 0.0, 10.0, 1.0,
            )]))
            .stat_dim(1)
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, _, _| DVec::from_slice(&[d[0]]))
            .build()
            .unwrap();
        let theta = env.operating_range().nominal();
        let r = WorstCaseSearch.run(&env, &DVec::from_slice(&[1.0]), 0, &theta);
        assert!(matches!(r, Err(WcdError::DegenerateGradient { spec: 0 })));
    }
}

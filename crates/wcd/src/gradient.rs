//! Margin and constraint Jacobians: forward differences or adjoint
//! sensitivities.
//!
//! Two backends produce the margin Jacobians (the plain functions use the
//! adjoint; the `_with` functions take the backend explicitly):
//!
//! - **Forward differences** (`fd`): `n+1` evaluations per gradient. The
//!   base point is evaluated first, as its own batch, and only then are the
//!   `n` perturbed points issued together — by the time a perturbed solve
//!   starts, the base operating point already sits in the environment's
//!   warm-start cache and seeds its Newton iteration (DESIGN.md §7). The
//!   perturbed points are independent of each other, so an [`EvalService`]
//!   fans them out over its worker pool while a plain environment runs them
//!   serially; the results are bit-identical either way.
//!
//! - **Adjoint sensitivities** (`adjoint`, the default): one base
//!   measurement, then every perturbed point is priced from the *cached*
//!   base factorizations — a frozen-Jacobian Newton step per DC
//!   configuration and transposed-solve transfer-function updates for the
//!   AC metrics (DESIGN.md §6). The perturbed *margins* still enter the
//!   same forward-difference quotient as the `fd` backend, so downstream
//!   consumers see the identical `(base, jacobian)` contract; only the
//!   price per column changes. Environments that cannot take the shortcut
//!   (no MNA system behind them, transient slew extraction, degenerate
//!   crossing, sensitivity solve failure) report `None` and the call falls
//!   back to forward differences transparently.
//!
//! [`constraint_jacobian`] always uses forward differences: the functional
//! constraints are cheap sizing rules of `d` alone, with no linear system
//! behind them to differentiate.
//!
//! [`EvalService`]: specwise_exec::EvalService

use std::sync::Arc;

use specwise_ckt::{CircuitEnv, EvalPoint, OperatingPoint};
use specwise_linalg::{DMat, DVec};

use crate::WcdError;

/// Which machinery computes the margin Jacobians.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradBackend {
    /// Forward differences: one full evaluation per column.
    Fd,
    /// Adjoint sensitivities on the cached base factorizations, falling
    /// back to forward differences when the environment reports the
    /// shortcut unavailable (`eval_margins_perturbed` returns `None`).
    Adjoint,
}

/// Forward-difference quotients `(m₂ − base) / step`, one column each.
fn quotients(base: &DVec, perturbed: &[DVec], steps: &[f64]) -> DMat {
    let n_spec = base.len();
    let mut jac = DMat::zeros(n_spec, perturbed.len());
    for (j, m2) in perturbed.iter().enumerate() {
        for i in 0..n_spec {
            jac[(i, j)] = (m2[i] - base[i]) / steps[j];
        }
    }
    jac
}

/// Jacobian of all margins w.r.t. the standardized statistical parameters at
/// `(d, ŝ, θ)`, with step `h` (σ units), on the
/// [`GradBackend::Adjoint`] backend.
///
/// Returns `(margins_at_base, jacobian [n_spec × n_s])`.
///
/// # Errors
///
/// Propagates circuit-evaluation errors; rejects non-positive `h`.
pub fn margins_gradient_s<E: CircuitEnv + ?Sized>(
    env: &E,
    d: &DVec,
    s_hat: &DVec,
    theta: &OperatingPoint,
    h: f64,
) -> Result<(DVec, DMat), WcdError> {
    margins_gradient_s_with(env, GradBackend::Adjoint, d, s_hat, theta, h)
}

/// [`margins_gradient_s`] with an explicit backend (race-free in tests).
///
/// # Errors
///
/// Propagates circuit-evaluation errors; rejects non-positive `h`.
pub fn margins_gradient_s_with<E: CircuitEnv + ?Sized>(
    env: &E,
    backend: GradBackend,
    d: &DVec,
    s_hat: &DVec,
    theta: &OperatingPoint,
    h: f64,
) -> Result<(DVec, DMat), WcdError> {
    if !(h > 0.0) {
        return Err(WcdError::InvalidOption {
            reason: "fd step must be > 0",
        });
    }
    let n_s = s_hat.len();
    if backend != GradBackend::Fd {
        let mut directions = Vec::with_capacity(n_s);
        for j in 0..n_s {
            let mut s2 = s_hat.clone();
            s2[j] += h;
            directions.push((d.clone(), s2));
        }
        if let Some((base, per)) = env.eval_margins_perturbed(d, s_hat, theta, &directions)? {
            let steps = vec![h; n_s];
            return Ok((base.clone(), quotients(&base, &per, &steps)));
        }
        // Shortcut unavailable here: fall through to forward differences.
    }
    // Base first, alone: seeds the warm-start cache for the perturbed batch.
    // The base vectors are shared by reference across all n+1 points.
    let d_arc: Arc<DVec> = Arc::new(d.clone());
    let s_arc: Arc<DVec> = Arc::new(s_hat.clone());
    let base_point = [EvalPoint::new(
        Arc::clone(&d_arc),
        Arc::clone(&s_arc),
        *theta,
    )];
    let base = env
        .eval_margins_batch(&base_point)
        .into_iter()
        .next()
        .expect("batch returns one result per point")?;
    let mut points = Vec::with_capacity(n_s);
    for j in 0..n_s {
        let mut s2 = s_hat.clone();
        s2[j] += h;
        points.push(EvalPoint::new(Arc::clone(&d_arc), s2, *theta));
    }
    let results = env.eval_margins_batch(&points).into_iter();
    let n_spec = base.len();
    let mut jac = DMat::zeros(n_spec, n_s);
    for (j, result) in results.enumerate() {
        let m2 = result?;
        for i in 0..n_spec {
            jac[(i, j)] = (m2[i] - base[i]) / h;
        }
    }
    Ok((base, jac))
}

/// Jacobian of all margins w.r.t. the design parameters at `(d, ŝ, θ)`,
/// on the [`GradBackend::Adjoint`] backend.
///
/// The step for parameter `k` is `h_rel·(upper_k − lower_k)`, taken in the
/// direction that stays inside the design box.
///
/// # Errors
///
/// Propagates circuit-evaluation errors; rejects non-positive `h_rel`.
pub fn margins_gradient_d<E: CircuitEnv + ?Sized>(
    env: &E,
    d: &DVec,
    s_hat: &DVec,
    theta: &OperatingPoint,
    h_rel: f64,
) -> Result<(DVec, DMat), WcdError> {
    margins_gradient_d_with(env, GradBackend::Adjoint, d, s_hat, theta, h_rel)
}

/// [`margins_gradient_d`] with an explicit backend (race-free in tests).
///
/// # Errors
///
/// Propagates circuit-evaluation errors; rejects non-positive `h_rel`.
pub fn margins_gradient_d_with<E: CircuitEnv + ?Sized>(
    env: &E,
    backend: GradBackend,
    d: &DVec,
    s_hat: &DVec,
    theta: &OperatingPoint,
    h_rel: f64,
) -> Result<(DVec, DMat), WcdError> {
    if !(h_rel > 0.0) {
        return Err(WcdError::InvalidOption {
            reason: "fd step must be > 0",
        });
    }
    let space = env.design_space();
    let n_d = d.len();
    let mut signed_steps = Vec::with_capacity(n_d);
    let mut perturbed_designs = Vec::with_capacity(n_d);
    for k in 0..n_d {
        let p = &space.params()[k];
        let step = h_rel * (p.upper - p.lower);
        // Step inward when at the upper bound.
        let signed = if d[k] + step <= p.upper { step } else { -step };
        signed_steps.push(signed);
        let mut d2 = d.clone();
        d2[k] += signed;
        perturbed_designs.push(d2);
    }
    if backend != GradBackend::Fd {
        let directions: Vec<(DVec, DVec)> = perturbed_designs
            .iter()
            .map(|d2| (d2.clone(), s_hat.clone()))
            .collect();
        if let Some((base, per)) = env.eval_margins_perturbed(d, s_hat, theta, &directions)? {
            return Ok((base.clone(), quotients(&base, &per, &signed_steps)));
        }
        // Shortcut unavailable here: fall through to forward differences.
    }
    // Base first, alone: seeds the warm-start cache for the perturbed batch.
    // The base ŝ is shared by reference across all n+1 points.
    let s_arc: Arc<DVec> = Arc::new(s_hat.clone());
    let base_point = [EvalPoint::new(d.clone(), Arc::clone(&s_arc), *theta)];
    let base = env
        .eval_margins_batch(&base_point)
        .into_iter()
        .next()
        .expect("batch returns one result per point")?;
    let points: Vec<EvalPoint> = perturbed_designs
        .into_iter()
        .map(|d2| EvalPoint::new(d2, Arc::clone(&s_arc), *theta))
        .collect();
    let results = env.eval_margins_batch(&points).into_iter();
    let n_spec = base.len();
    let mut jac = DMat::zeros(n_spec, n_d);
    for (k, result) in results.enumerate() {
        let m2 = result?;
        for i in 0..n_spec {
            jac[(i, k)] = (m2[i] - base[i]) / signed_steps[k];
        }
    }
    Ok((base, jac))
}

/// Values and Jacobian of the functional constraints `c(d)` at `d`
/// (paper Eq. 15 inputs). Always forward differences — the sizing rules
/// carry no linear system to differentiate.
///
/// # Errors
///
/// Propagates circuit-evaluation errors; rejects non-positive `h_rel`.
pub fn constraint_jacobian<E: CircuitEnv + ?Sized>(
    env: &E,
    d: &DVec,
    h_rel: f64,
) -> Result<(DVec, DMat), WcdError> {
    if !(h_rel > 0.0) {
        return Err(WcdError::InvalidOption {
            reason: "fd step must be > 0",
        });
    }
    let space = env.design_space();
    let n_d = d.len();
    let mut signed_steps = Vec::with_capacity(n_d);
    // Base first, alone: seeds the warm-start cache for the perturbed batch.
    let base = env
        .eval_constraints_batch(std::slice::from_ref(d))
        .into_iter()
        .next()
        .expect("batch returns one result per point")?;
    let mut designs = Vec::with_capacity(n_d);
    for k in 0..n_d {
        let p = &space.params()[k];
        let step = h_rel * (p.upper - p.lower);
        let signed = if d[k] + step <= p.upper { step } else { -step };
        signed_steps.push(signed);
        let mut d2 = d.clone();
        d2[k] += signed;
        designs.push(d2);
    }
    let results = env.eval_constraints_batch(&designs).into_iter();
    let n_c = base.len();
    let mut jac = DMat::zeros(n_c, n_d);
    for (k, result) in results.enumerate() {
        let c2 = result?;
        for i in 0..n_c {
            jac[(i, k)] = (c2[i] - base[i]) / signed_steps[k];
        }
    }
    Ok((base, jac))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    use specwise_ckt::{
        AnalyticEnv, CktError, DesignParam, DesignSpace, OperatingRange, Spec, SpecKind, StatSpace,
    };

    fn env() -> AnalyticEnv {
        AnalyticEnv::builder()
            .design(DesignSpace::new(vec![
                DesignParam::new("a", "", -5.0, 5.0, 1.0),
                DesignParam::new("b", "", 0.0, 10.0, 2.0),
            ]))
            .stat_dim(2)
            .spec(Spec::new("f0", "", SpecKind::LowerBound, 0.0))
            .spec(Spec::new("f1", "", SpecKind::UpperBound, 4.0))
            .performances(|d, s, _| {
                DVec::from_slice(&[2.0 * d[0] + 3.0 * s[0] - s[1], d[1] * d[1] + 0.5 * s[1]])
            })
            .constraints(vec!["c0".to_string()], |d| {
                DVec::from_slice(&[d[0] + d[1] - 1.0])
            })
            .build()
            .unwrap()
    }

    /// Wraps [`AnalyticEnv`] with an `eval_margins_perturbed` answered
    /// from plain margin evaluations, counting how often the adjoint
    /// entry point is exercised.
    struct AdjointCapable {
        inner: AnalyticEnv,
        perturbed_calls: AtomicU64,
    }

    impl AdjointCapable {
        fn new(inner: AnalyticEnv) -> Self {
            AdjointCapable {
                inner,
                perturbed_calls: AtomicU64::new(0),
            }
        }
    }

    impl CircuitEnv for AdjointCapable {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn design_space(&self) -> &DesignSpace {
            self.inner.design_space()
        }
        fn stat_space(&self) -> &StatSpace {
            self.inner.stat_space()
        }
        fn specs(&self) -> &[Spec] {
            self.inner.specs()
        }
        fn operating_range(&self) -> &OperatingRange {
            self.inner.operating_range()
        }
        fn constraint_names(&self) -> Vec<String> {
            self.inner.constraint_names()
        }
        fn eval_performances(
            &self,
            d: &DVec,
            s_hat: &DVec,
            theta: &OperatingPoint,
        ) -> Result<DVec, CktError> {
            self.inner.eval_performances(d, s_hat, theta)
        }
        fn eval_constraints(&self, d: &DVec) -> Result<DVec, CktError> {
            self.inner.eval_constraints(d)
        }
        fn sim_count(&self) -> u64 {
            self.inner.sim_count()
        }
        fn reset_sim_count(&self) {
            self.inner.reset_sim_count()
        }
        fn eval_margins_perturbed(
            &self,
            d: &DVec,
            s_hat: &DVec,
            theta: &OperatingPoint,
            directions: &[(DVec, DVec)],
        ) -> Result<Option<(DVec, Vec<DVec>)>, CktError> {
            self.perturbed_calls.fetch_add(1, Ordering::SeqCst);
            let base = self.inner.eval_margins(d, s_hat, theta)?;
            let mut per = Vec::with_capacity(directions.len());
            for (dp, sp) in directions {
                per.push(self.inner.eval_margins(dp, sp, theta)?);
            }
            Ok(Some((base, per)))
        }
    }

    #[test]
    fn stat_gradient_matches_analytic() {
        let e = env();
        let theta = e.operating_range().nominal();
        let (m0, jac) = margins_gradient_s(
            &e,
            &DVec::from_slice(&[1.0, 2.0]),
            &DVec::zeros(2),
            &theta,
            1e-5,
        )
        .unwrap();
        assert!((m0[0] - 2.0).abs() < 1e-12);
        // Margin of the upper-bound spec flips the gradient sign.
        assert!((jac[(0, 0)] - 3.0).abs() < 1e-6);
        assert!((jac[(0, 1)] + 1.0).abs() < 1e-6);
        assert!((jac[(1, 1)] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn design_gradient_matches_analytic() {
        let e = env();
        let theta = e.operating_range().nominal();
        let (_, jac) = margins_gradient_d(
            &e,
            &DVec::from_slice(&[1.0, 2.0]),
            &DVec::zeros(2),
            &theta,
            1e-6,
        )
        .unwrap();
        assert!((jac[(0, 0)] - 2.0).abs() < 1e-4);
        // f1 = b² → ∂f1/∂b = 4 at b = 2; margin = 4 − f1 → −4.
        assert!((jac[(1, 1)] + 4.0).abs() < 1e-3);
    }

    #[test]
    fn design_gradient_steps_inward_at_upper_bound() {
        let e = env();
        let theta = e.operating_range().nominal();
        // b at its upper bound 10: forward step would leave the box.
        let (_, jac) = margins_gradient_d(
            &e,
            &DVec::from_slice(&[1.0, 10.0]),
            &DVec::zeros(2),
            &theta,
            1e-6,
        )
        .unwrap();
        assert!((jac[(1, 1)] + 20.0).abs() < 1e-2);
    }

    #[test]
    fn design_gradient_at_upper_bound_identical_through_parallel_service() {
        // Regression: the batched/parallel path must take the same inward
        // step as the serial path when parameters sit at their upper bounds,
        // including the all-parameters-at-bound corner of the design box.
        use specwise_exec::{EvalService, ExecConfig};
        let e = env();
        let theta = e.operating_range().nominal();
        let corner = DVec::from_slice(&[5.0, 10.0]); // both at upper bound
        let (m_serial, jac_serial) =
            margins_gradient_d(&e, &corner, &DVec::zeros(2), &theta, 1e-6).unwrap();
        for workers in [1usize, 2, 8] {
            let service = EvalService::new(
                &e,
                ExecConfig::serial()
                    .with_workers(workers)
                    .with_cache_capacity(0),
            );
            let (m, jac) =
                margins_gradient_d(&service, &corner, &DVec::zeros(2), &theta, 1e-6).unwrap();
            assert_eq!(m.as_slice(), m_serial.as_slice(), "workers={workers}");
            for i in 0..2 {
                for k in 0..2 {
                    assert_eq!(jac[(i, k)], jac_serial[(i, k)], "workers={workers}");
                }
            }
        }
        // And the inward-step sign is actually exercised: f1 = b² at the
        // bound b = 10 has slope 20, margin flips it to −20.
        assert!((jac_serial[(1, 1)] + 20.0).abs() < 1e-2);
    }

    #[test]
    fn constraint_jacobian_matches() {
        let e = env();
        let (c0, jac) = constraint_jacobian(&e, &DVec::from_slice(&[1.0, 2.0]), 1e-6).unwrap();
        assert!((c0[0] - 2.0).abs() < 1e-12);
        assert!((jac[(0, 0)] - 1.0).abs() < 1e-6);
        assert!((jac[(0, 1)] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rejects_bad_step() {
        let e = env();
        let theta = e.operating_range().nominal();
        assert!(margins_gradient_s(&e, &DVec::zeros(2), &DVec::zeros(2), &theta, 0.0).is_err());
        assert!(constraint_jacobian(&e, &DVec::zeros(2), -1.0).is_err());
    }

    #[test]
    fn adjoint_backend_falls_back_on_plain_env() {
        // AnalyticEnv keeps the default `eval_margins_perturbed` (None), so
        // the adjoint backend must fall through to forward differences and
        // reproduce the FD numbers bit for bit.
        let e = env();
        let theta = e.operating_range().nominal();
        let d = DVec::from_slice(&[1.0, 2.0]);
        let s = DVec::zeros(2);
        let (m_fd, j_fd) =
            margins_gradient_s_with(&e, GradBackend::Fd, &d, &s, &theta, 1e-5).unwrap();
        for backend in [GradBackend::Adjoint] {
            let (m, j) = margins_gradient_s_with(&e, backend, &d, &s, &theta, 1e-5).unwrap();
            assert_eq!(m.as_slice(), m_fd.as_slice());
            for i in 0..2 {
                for k in 0..2 {
                    assert_eq!(j[(i, k)].to_bits(), j_fd[(i, k)].to_bits());
                }
            }
        }
    }

    #[test]
    fn adjoint_backend_uses_perturbed_entry_point() {
        let e = AdjointCapable::new(env());
        let theta = e.operating_range().nominal();
        let d = DVec::from_slice(&[1.0, 2.0]);
        let s = DVec::zeros(2);

        // Fd never touches the adjoint entry point.
        let (_, j_fd) = margins_gradient_s_with(&e, GradBackend::Fd, &d, &s, &theta, 1e-5).unwrap();
        assert_eq!(e.perturbed_calls.load(Ordering::SeqCst), 0);

        // Adjoint goes through it, and the quotients agree with FD because
        // the wrapper answers from the same margin evaluations.
        let (_, j_adj) =
            margins_gradient_s_with(&e, GradBackend::Adjoint, &d, &s, &theta, 1e-5).unwrap();
        assert_eq!(e.perturbed_calls.load(Ordering::SeqCst), 1);
        for i in 0..2 {
            for k in 0..2 {
                assert_eq!(j_adj[(i, k)].to_bits(), j_fd[(i, k)].to_bits());
            }
        }

        // Same on the design side, including the inward step at a bound.
        let corner = DVec::from_slice(&[5.0, 10.0]);
        let (_, jd_fd) =
            margins_gradient_d_with(&e, GradBackend::Fd, &corner, &s, &theta, 1e-6).unwrap();
        let (_, jd_adj) =
            margins_gradient_d_with(&e, GradBackend::Adjoint, &corner, &s, &theta, 1e-6).unwrap();
        assert_eq!(e.perturbed_calls.load(Ordering::SeqCst), 2);
        for i in 0..2 {
            for k in 0..2 {
                assert_eq!(jd_adj[(i, k)].to_bits(), jd_fd[(i, k)].to_bits());
            }
        }
    }
}

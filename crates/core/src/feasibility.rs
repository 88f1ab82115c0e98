//! The linearized feasibility region (paper Eq. 15) and the feasible
//! starting-point search (paper Sec. 5.5).

use specwise_ckt::{CircuitEnv, SimPhase};
use specwise_linalg::{DMat, DVec};
use specwise_wcd::{constraint_jacobian, FD_STEP_D};

use crate::SpecwiseError;

/// Linearized functional constraints `c̄(d) = c₀ + ∇c·(d − d_f) ≥ 0`
/// (paper Eq. 15), together with the design-space box bounds.
///
/// During the coordinate search these define, per coordinate, the interval
/// of values that keeps the (linearized) design feasible — the
/// "feasibility-guided" part of the method.
#[derive(Debug, Clone)]
pub struct LinearConstraints {
    c0: DVec,
    jac: DMat,
    d_f: DVec,
    lower: DVec,
    upper: DVec,
}

impl LinearConstraints {
    /// Builds the linearization from constraint values and Jacobian at `d_f`.
    ///
    /// # Errors
    ///
    /// Returns a dimension error when shapes disagree.
    pub fn new(
        c0: DVec,
        jac: DMat,
        d_f: DVec,
        lower: DVec,
        upper: DVec,
    ) -> Result<Self, SpecwiseError> {
        if jac.nrows() != c0.len() {
            return Err(SpecwiseError::DimensionMismatch {
                what: "constraint",
                expected: c0.len(),
                found: jac.nrows(),
            });
        }
        if jac.ncols() != d_f.len() || lower.len() != d_f.len() || upper.len() != d_f.len() {
            return Err(SpecwiseError::DimensionMismatch {
                what: "design",
                expected: d_f.len(),
                found: jac.ncols(),
            });
        }
        Ok(LinearConstraints {
            c0,
            jac,
            d_f,
            lower,
            upper,
        })
    }

    /// Builds by finite differences (relative step [`FD_STEP_D`]) on a
    /// circuit environment at `d_f`.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn linearize<E: CircuitEnv + ?Sized>(env: &E, d_f: &DVec) -> Result<Self, SpecwiseError> {
        env.set_sim_phase(SimPhase::Feasibility);
        let (c0, jac) = constraint_jacobian(env, d_f, FD_STEP_D)?;
        LinearConstraints::new(
            c0,
            jac,
            d_f.clone(),
            env.design_space().lower(),
            env.design_space().upper(),
        )
    }

    /// Builds an "unconstrained" region (box bounds only) — the Table 3
    /// ablation, where the functional constraints are ignored.
    pub fn box_only(d_f: &DVec, lower: DVec, upper: DVec) -> Self {
        LinearConstraints {
            c0: DVec::zeros(0),
            jac: DMat::zeros(0, d_f.len()),
            d_f: d_f.clone(),
            lower,
            upper,
        }
    }

    /// Number of functional constraints.
    pub fn len(&self) -> usize {
        self.c0.len()
    }

    /// `true` when only box bounds are active.
    pub fn is_empty(&self) -> bool {
        self.c0.is_empty()
    }

    /// Linearized constraint values at `d`.
    ///
    /// # Panics
    ///
    /// Panics on design dimension mismatch.
    pub fn eval(&self, d: &DVec) -> DVec {
        &self.c0 + &self.jac.matvec(&(d - &self.d_f))
    }

    /// `true` when `d` satisfies the linearized constraints and the box.
    pub fn feasible(&self, d: &DVec) -> bool {
        if !(0..d.len()).all(|k| d[k] >= self.lower[k] - 1e-12 && d[k] <= self.upper[k] + 1e-12) {
            return false;
        }
        self.is_empty() || self.eval(d).iter().all(|&c| c >= -1e-12)
    }

    /// The interval `[lo, hi]` of coordinate `k` values that keeps the
    /// design linear-feasible while all other coordinates stay at `d`.
    ///
    /// Returns `None` when the current point itself is linear-infeasible in
    /// a way that no move of coordinate `k` can repair.
    pub fn coord_interval(&self, d: &DVec, k: usize) -> Option<(f64, f64)> {
        let mut lo = self.lower[k];
        let mut hi = self.upper[k];
        if self.is_empty() {
            return if lo <= hi { Some((lo, hi)) } else { None };
        }
        let c = self.eval(d);
        for i in 0..self.len() {
            let a = self.jac[(i, k)];
            // c_i(value) = c[i] + a·(value − d[k]) ≥ 0.
            if a.abs() < 1e-15 {
                if c[i] < -1e-9 {
                    return None; // violated and not repairable along k
                }
                continue;
            }
            let boundary = d[k] - c[i] / a;
            if a > 0.0 {
                lo = lo.max(boundary);
            } else {
                hi = hi.min(boundary);
            }
        }
        if lo <= hi + 1e-12 {
            Some((lo, hi.max(lo)))
        } else {
            None
        }
    }

    /// The anchor point of the linearization.
    pub fn anchor(&self) -> &DVec {
        &self.d_f
    }
}

/// Maximum Gauss–Newton projection iterations of the feasible-start
/// search.
const FEASIBLE_START_ITERS: usize = 20;

/// Finds a feasible starting point (paper Sec. 5.5): when `d0` violates
/// `c(d) ≥ 0`, a Gauss–Newton projection walks to the closest feasible
/// point, re-linearizing the constraints (relative step [`FD_STEP_D`])
/// each step.
///
/// # Errors
///
/// Returns [`SpecwiseError::NoFeasibleStart`] when the projection fails to
/// reach feasibility within the iteration budget.
pub fn find_feasible_start<E: CircuitEnv + ?Sized>(
    env: &E,
    d0: &DVec,
) -> Result<DVec, SpecwiseError> {
    env.set_sim_phase(SimPhase::Feasibility);
    let space = env.design_space();
    let mut d = space.project(d0)?;
    let mut worst = f64::INFINITY;
    for _ in 0..FEASIBLE_START_ITERS {
        let c = env.eval_constraints(&d)?;
        if c.is_empty() {
            return Ok(d);
        }
        worst = c.iter().fold(f64::INFINITY, |m, &x| m.min(x));
        if worst >= 0.0 {
            return Ok(d);
        }
        // Gauss–Newton step on the violated constraints:
        // Δd = Σ_i violated  rowᵢ·(target − cᵢ)/‖rowᵢ‖².
        let (c_now, jac) = constraint_jacobian(env, &d, FD_STEP_D)?;
        let mut step = DVec::zeros(d.len());
        let mut active = 0;
        // Aim a little inside the region, not exactly at the boundary.
        let target = 1e-3;
        for i in 0..c_now.len() {
            if c_now[i] < target {
                let row = jac.row(i);
                let n2 = row.dot(&row);
                if n2 > 1e-18 {
                    step += &row.scaled((target - c_now[i]) / n2);
                    active += 1;
                }
            }
        }
        if active == 0 || step.norm2() < 1e-15 {
            break;
        }
        d = space.project(&(&d + &step))?;
    }
    // Final check.
    let c = env.eval_constraints(&d)?;
    let worst_final = c.iter().fold(f64::INFINITY, |m, &x| m.min(x)).min(worst);
    if c.iter().all(|&x| x >= 0.0) {
        Ok(d)
    } else {
        Err(SpecwiseError::NoFeasibleStart {
            worst_violation: -worst_final,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specwise_ckt::{AnalyticEnv, DesignParam, DesignSpace, Spec, SpecKind};

    fn constraints_example() -> LinearConstraints {
        // c0(d) = 1 + (d0 − 1) + (d1 − 1) = d0 + d1 − 1 ≥ 0,
        // c1(d) = 2 − (d0 − 1) = 3 − d0 ≥ 0; box [0, 10]².
        LinearConstraints::new(
            DVec::from_slice(&[1.0, 2.0]),
            DMat::from_rows(&[&[1.0, 1.0], &[-1.0, 0.0]]).unwrap(),
            DVec::from_slice(&[1.0, 1.0]),
            DVec::zeros(2),
            DVec::filled(2, 10.0),
        )
        .unwrap()
    }

    #[test]
    fn eval_and_feasibility() {
        let lc = constraints_example();
        assert!(lc.feasible(&DVec::from_slice(&[1.0, 1.0])));
        assert!(!lc.feasible(&DVec::from_slice(&[0.2, 0.2]))); // c0 < 0
        assert!(!lc.feasible(&DVec::from_slice(&[5.0, 5.0]))); // c1 = −2 < 0
        assert!(!lc.feasible(&DVec::from_slice(&[-1.0, 5.0]))); // box
    }

    #[test]
    fn coordinate_intervals() {
        let lc = constraints_example();
        let d = DVec::from_slice(&[1.0, 1.0]);
        // Coordinate 0: c0 needs d0 ≥ 1 − d1 = 0; c1 needs d0 ≤ 3.
        let (lo, hi) = lc.coord_interval(&d, 0).unwrap();
        assert!((lo - 0.0).abs() < 1e-12);
        assert!((hi - 3.0).abs() < 1e-12);
        // Coordinate 1: c0 needs d1 ≥ 0; c1 insensitive → box bound 10.
        let (lo1, hi1) = lc.coord_interval(&d, 1).unwrap();
        assert!((lo1 - 0.0).abs() < 1e-12);
        assert!((hi1 - 10.0).abs() < 1e-12);
    }

    #[test]
    fn box_only_intervals() {
        let lc = LinearConstraints::box_only(
            &DVec::from_slice(&[1.0]),
            DVec::from_slice(&[-2.0]),
            DVec::from_slice(&[3.0]),
        );
        assert!(lc.is_empty());
        assert_eq!(
            lc.coord_interval(&DVec::from_slice(&[1.0]), 0),
            Some((-2.0, 3.0))
        );
        assert!(lc.feasible(&DVec::from_slice(&[0.0])));
        assert!(!lc.feasible(&DVec::from_slice(&[4.0])));
    }

    #[test]
    fn unrepairable_interval_is_none() {
        // c = −1 with zero gradient along the probed coordinate.
        let lc = LinearConstraints::new(
            DVec::from_slice(&[-1.0]),
            DMat::from_rows(&[&[0.0, 1.0]]).unwrap(),
            DVec::from_slice(&[1.0, 1.0]),
            DVec::zeros(2),
            DVec::filled(2, 10.0),
        )
        .unwrap();
        assert!(lc
            .coord_interval(&DVec::from_slice(&[1.0, 1.0]), 0)
            .is_none());
        // Along coordinate 1 the constraint is repairable: d1 ≥ 2.
        let (lo, hi) = lc
            .coord_interval(&DVec::from_slice(&[1.0, 1.0]), 1)
            .unwrap();
        assert!((lo - 2.0).abs() < 1e-12);
        assert_eq!(hi, 10.0);
    }

    fn env_with_constraints() -> AnalyticEnv {
        AnalyticEnv::builder()
            .design(DesignSpace::new(vec![
                DesignParam::new("x", "", -10.0, 10.0, -3.0),
                DesignParam::new("y", "", -10.0, 10.0, 0.0),
            ]))
            .stat_dim(1)
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| DVec::from_slice(&[d[0] + s[0]]))
            .constraints(vec!["cx".into(), "cy".into()], |d| {
                DVec::from_slice(&[d[0] - 1.0, d[1] - 2.0])
            })
            .build()
            .unwrap()
    }

    #[test]
    fn feasible_start_projects_onto_region() {
        let env = env_with_constraints();
        // Start at (−3, 0): violates x ≥ 1 and y ≥ 2.
        let d = find_feasible_start(&env, &DVec::from_slice(&[-3.0, 0.0])).unwrap();
        let c = env.eval_constraints(&d).unwrap();
        assert!(c.iter().all(|&x| x >= 0.0), "c = {c}");
    }

    #[test]
    fn already_feasible_point_kept_close() {
        let env = env_with_constraints();
        let d0 = DVec::from_slice(&[2.0, 3.0]);
        let d = find_feasible_start(&env, &d0).unwrap();
        assert!((&d - &d0).norm_inf() < 1e-9);
    }

    #[test]
    fn linearize_builds_from_the_environment() {
        let env = env_with_constraints();
        let lc = LinearConstraints::linearize(&env, &DVec::from_slice(&[2.0, 3.0])).unwrap();
        assert_eq!(lc.len(), 2);
        let c = lc.eval(&DVec::from_slice(&[2.0, 3.0]));
        assert!((c[0] - 1.0).abs() < 1e-9);
        assert!((c[1] - 1.0).abs() < 1e-9);
        assert!(lc.feasible(&DVec::from_slice(&[5.0, 5.0])));
    }
}

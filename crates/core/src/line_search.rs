//! Simulation-based feasibility line search (paper Eq. 23 / Sec. 5.4).
//!
//! The coordinate search works on *linearized* constraints; before the next
//! iteration the design must be pulled back into the true feasibility
//! region: `γ_max = max{γ ∈ [0, 1] : c(d_f + γ·r) ≥ 0}` with a small number
//! of real circuit simulations (the paper quotes ~10).

use specwise_ckt::{CircuitEnv, SimPhase};
use specwise_linalg::DVec;

use crate::SpecwiseError;

/// Constraint simulations the line search may spend: the full step, then
/// bisection steps.
pub const LINE_SEARCH_EVALS: usize = 10;

/// Runs the line search from the feasible point `d_f` toward the
/// linearized optimum `d_star` with at most [`LINE_SEARCH_EVALS`]
/// constraint simulations. Returns `(d_new, gamma_max)`.
///
/// # Errors
///
/// Propagates evaluation errors.
///
/// # Panics
///
/// Panics when `d_f` and `d_star` have different lengths.
pub fn line_search_feasible<E: CircuitEnv + ?Sized>(
    env: &E,
    d_f: &DVec,
    d_star: &DVec,
) -> Result<(DVec, f64), SpecwiseError> {
    assert_eq!(d_f.len(), d_star.len(), "design lengths differ");
    env.set_sim_phase(SimPhase::LineSearch);
    let r = d_star - d_f;
    if r.norm2() == 0.0 {
        return Ok((d_f.clone(), 1.0));
    }
    let feasible_at = |gamma: f64| -> Result<bool, SpecwiseError> {
        let d = d_f.axpy(gamma, &r);
        let c = env.eval_constraints(&d)?;
        Ok(c.iter().all(|&x| x >= 0.0))
    };

    // Full step first: often feasible, and then the optimum is kept.
    if feasible_at(1.0)? {
        return Ok((d_star.clone(), 1.0));
    }

    // Bisection between the feasible γ=0 (by precondition) and infeasible 1.
    let mut lo = 0.0;
    let mut hi = 1.0;
    for _ in 0..LINE_SEARCH_EVALS - 1 {
        let mid = 0.5 * (lo + hi);
        if feasible_at(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok((d_f.axpy(lo, &r), lo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use specwise_ckt::{AnalyticEnv, DesignParam, DesignSpace, Spec, SpecKind};

    /// Feasible iff d0 ≤ 2.
    fn env() -> AnalyticEnv {
        AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "x", "", -10.0, 10.0, 0.0,
            )]))
            .stat_dim(1)
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| DVec::from_slice(&[d[0] + s[0]]))
            .constraints(vec!["c".into()], |d| DVec::from_slice(&[2.0 - d[0]]))
            .build()
            .unwrap()
    }

    #[test]
    fn full_step_when_target_feasible() {
        let e = env();
        let (d, g) =
            line_search_feasible(&e, &DVec::from_slice(&[0.0]), &DVec::from_slice(&[1.5])).unwrap();
        assert_eq!(g, 1.0);
        assert_eq!(d.as_slice(), &[1.5]);
    }

    #[test]
    fn pulls_back_to_boundary() {
        let e = env();
        let (d, g) =
            line_search_feasible(&e, &DVec::from_slice(&[0.0]), &DVec::from_slice(&[8.0])).unwrap();
        assert!(g < 1.0);
        assert!(d[0] <= 2.0 + 1e-9, "d = {d}");
        assert!(d[0] > 1.9, "should approach the boundary: {d}");
        // The returned point is truly feasible.
        assert!(e.eval_constraints(&d).unwrap()[0] >= 0.0);
    }

    #[test]
    fn zero_direction_is_identity() {
        let e = env();
        let d0 = DVec::from_slice(&[1.0]);
        let (d, g) = line_search_feasible(&e, &d0, &d0).unwrap();
        assert_eq!(g, 1.0);
        assert_eq!(d, d0);
    }

    #[test]
    fn respects_simulation_budget() {
        let e = env();
        e.reset_sim_count();
        let _ =
            line_search_feasible(&e, &DVec::from_slice(&[0.0]), &DVec::from_slice(&[8.0])).unwrap();
        assert!(
            e.sim_count() <= LINE_SEARCH_EVALS as u64,
            "{} sims",
            e.sim_count()
        );
    }
}

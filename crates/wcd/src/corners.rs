//! Worst-case operating-point search by corner enumeration (paper Eq. 2).

use specwise_ckt::{CircuitEnv, EvalPoint, OperatingPoint};
use specwise_linalg::DVec;

use crate::WcdError;

/// Finds, for every specification, the corner of the operating range `Θ`
/// with the smallest margin — the worst-case operating point `θ_wc⁽ⁱ⁾`
/// (paper Eq. 2, specialized to margins so that `≤` specs are covered too).
///
/// Returns per-spec `(θ_wc, margin at θ_wc)`. Costs one simulation per
/// corner (`2^dim(Θ)` total), shared across all specs — the sharing the
/// paper's effort bound `N* ≤ N·min(n_spec, 2^dim(Θ))` exploits. The
/// corners are independent and go out as one batch.
///
/// # Errors
///
/// Propagates circuit-evaluation errors.
pub fn worst_case_corners<E: CircuitEnv + ?Sized>(
    env: &E,
    d: &DVec,
    s_hat: &DVec,
) -> Result<Vec<(OperatingPoint, f64)>, WcdError> {
    let corners = env.operating_range().corners();
    let n_spec = env.specs().len();
    let points: Vec<EvalPoint> = corners
        .iter()
        .map(|theta| EvalPoint::new(d.clone(), s_hat.clone(), *theta))
        .collect();
    let mut best: Vec<Option<(OperatingPoint, f64)>> = vec![None; n_spec];
    for (theta, result) in corners.iter().zip(env.eval_margins_batch(&points)) {
        let margins = result?;
        for i in 0..n_spec {
            match &best[i] {
                Some((_, m)) if *m <= margins[i] => {}
                _ => best[i] = Some((*theta, margins[i])),
            }
        }
    }
    Ok(best
        .into_iter()
        .map(|b| b.expect("at least one corner"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use specwise_ckt::{AnalyticEnv, DesignParam, DesignSpace, OperatingRange, Spec, SpecKind};

    fn env() -> AnalyticEnv {
        AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", -5.0, 5.0, 0.0,
            )]))
            .stat_dim(1)
            .operating_range(OperatingRange::new(-40.0, 125.0, 3.0, 3.6))
            // f0 worst at high temperature, f1 worst at low VDD.
            .spec(Spec::new("f0", "", SpecKind::LowerBound, 0.0))
            .spec(Spec::new("f1", "", SpecKind::UpperBound, 10.0))
            .performances(|d, s, th| {
                DVec::from_slice(&[
                    d[0] + s[0] - 0.01 * th.temp_c,
                    5.0 + s[0] + 2.0 * (3.6 - th.vdd),
                ])
            })
            .build()
            .unwrap()
    }

    #[test]
    fn picks_correct_corners() {
        let e = env();
        let wc = worst_case_corners(&e, &DVec::from_slice(&[1.0]), &DVec::zeros(1)).unwrap();
        // f0 (lower bound) is smallest at T = 125.
        assert_eq!(wc[0].0.temp_c, 125.0);
        assert!((wc[0].1 - (1.0 - 1.25)).abs() < 1e-12);
        // f1 (upper bound): margin = 10 − f1, smallest when f1 largest → low VDD.
        assert_eq!(wc[1].0.vdd, 3.0);
        assert!((wc[1].1 - (10.0 - 5.0 - 1.2)).abs() < 1e-12);
    }

    #[test]
    fn uses_four_simulations() {
        let e = env();
        e.reset_sim_count();
        let _ = worst_case_corners(&e, &DVec::from_slice(&[0.0]), &DVec::zeros(1)).unwrap();
        assert_eq!(e.sim_count(), 4);
    }
}

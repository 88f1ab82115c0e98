//! Constrained coordinate search maximizing the linearized yield estimate
//! (paper Eq. 19 and Sec. 5.3).
//!
//! The paper motivates coordinate search over gradient methods because the
//! Monte-Carlo yield estimate is piecewise constant (non-continuous), often
//! exactly 0 over large regions, and strongly non-monotonic (Fig. 5). Each
//! coordinate move scans a grid of candidate values inside the
//! linearized-feasible interval and keeps the best; sweeps repeat until no
//! coordinate improves the estimate.
//!
//! A coordinate move costs one pass over the samples, not one per
//! candidate: [`crate::ShiftTracker::scan_coord`] returns the pass count at
//! every grid value at once. It is exact, not a relaxation — each model's
//! failure test `p + s < 0` is equivalent to `p < −s` in IEEE arithmetic,
//! and on the non-decreasing grid `lo + (hi − lo)·g/(G−1)` the threshold
//! `−s` is monotone in `g`, so each sample passes on one contiguous range
//! of the grid (the full argument is in the `yield_model` module docs).
//! The chosen design is therefore bit-identical to probing every candidate
//! with [`crate::ShiftTracker::estimate_coord`].

use specwise_linalg::DVec;
use specwise_stat::YieldEstimate;

use crate::{LinearConstraints, LinearizedYield, SpecwiseError};

/// Candidate values per coordinate scan.
pub const GRID_POINTS: usize = 32;

/// Maximum full sweeps over all coordinates.
pub const MAX_SWEEPS: usize = 10;

/// The coordinate-search optimizer over linearized models.
#[derive(Debug, Clone, Copy)]
pub struct CoordinateSearch;

impl CoordinateSearch {
    /// Maximizes `Ȳ(d)` starting from `d_start` subject to the linearized
    /// constraints. Returns the best design found and its estimate.
    ///
    /// # Errors
    ///
    /// Propagates dimension errors.
    pub fn run(
        &self,
        model: &LinearizedYield,
        constraints: &LinearConstraints,
        d_start: &DVec,
    ) -> Result<(DVec, YieldEstimate), SpecwiseError> {
        let n_d = d_start.len();
        let mut tracker = model.tracker(d_start)?;
        let mut best = tracker.estimate();
        let n_samples = model.n_samples();
        let mut values = Vec::with_capacity(GRID_POINTS);

        for _sweep in 0..MAX_SWEEPS {
            let mut improved = false;
            for k in 0..n_d {
                let d_now = tracker.design().clone();
                let Some((lo, hi)) = constraints.coord_interval(&d_now, k) else {
                    continue;
                };
                if hi - lo <= 0.0 {
                    continue;
                }
                values.clear();
                values.extend(
                    (0..GRID_POINTS).map(|g| lo + (hi - lo) * g as f64 / (GRID_POINTS - 1) as f64),
                );
                let counts = tracker.scan_coord(k, &values);
                let mut best_val = d_now[k];
                let mut best_here = best;
                for (&v, &passed) in values.iter().zip(&counts) {
                    let est = YieldEstimate::from_counts(passed, n_samples);
                    // Accept strictly better pass counts; on ties prefer the
                    // smaller move (stay near the anchor where the linear
                    // model is trustworthy).
                    let gain = est.passed() as isize - best_here.passed() as isize;
                    if gain > 0
                        || (gain == 0 && (v - d_now[k]).abs() < (best_val - d_now[k]).abs() - 1e-15)
                    {
                        best_here = est;
                        best_val = v;
                    }
                }
                if best_val != d_now[k] {
                    tracker.set_coord(k, best_val);
                    if best_here.passed() > best.passed() {
                        improved = true;
                    }
                    best = best_here;
                }
            }
            if !improved {
                break;
            }
        }
        Ok((tracker.design().clone(), best))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specwise_ckt::OperatingPoint;
    use specwise_linalg::DMat;
    use specwise_wcd::SpecLinearization;

    fn lin(spec: usize, anchor: f64, grad_s: &[f64], grad_d: &[f64]) -> SpecLinearization {
        SpecLinearization {
            spec,
            mirrored: false,
            theta_wc: OperatingPoint::new(25.0, 3.3),
            s_wc: DVec::zeros(grad_s.len()),
            d_f: DVec::zeros(grad_d.len()),
            margin_at_anchor: anchor,
            grad_s: DVec::from_slice(grad_s),
            grad_d: DVec::from_slice(grad_d),
        }
    }

    fn box_constraints(n: usize, lo: f64, hi: f64) -> LinearConstraints {
        LinearConstraints::box_only(&DVec::zeros(n), DVec::filled(n, lo), DVec::filled(n, hi))
    }

    #[test]
    fn maximizes_single_margin() {
        // margin = s0 + d0 over d0 ∈ [−2, 2]: best at d0 = 2.
        let ly = LinearizedYield::new(vec![lin(0, 0.0, &[1.0], &[1.0])], 1, 20_000, 5).unwrap();
        let cs = CoordinateSearch;
        let (d, y) = cs
            .run(&ly, &box_constraints(1, -2.0, 2.0), &DVec::zeros(1))
            .unwrap();
        assert!((d[0] - 2.0).abs() < 1e-9, "d = {d}");
        assert!(y.value() > 0.97);
    }

    #[test]
    fn balances_competing_specs() {
        // Spec 0: margin = s0 + d0; spec 1: margin = s1 − d0.
        // Symmetric → optimum at d0 = 0 with Ȳ ≈ Φ(0)… the joint optimum of
        // P(Z1 > −d)·P(Z2 > d) is at d = 0.
        let ly = LinearizedYield::new(
            vec![
                lin(0, 1.0, &[1.0, 0.0], &[1.0]),
                lin(1, 1.0, &[0.0, 1.0], &[-1.0]),
            ],
            2,
            40_000,
            7,
        )
        .unwrap();
        let cs = CoordinateSearch;
        let (d, _) = cs
            .run(&ly, &box_constraints(1, -3.0, 3.0), &DVec::zeros(1))
            .unwrap();
        assert!(d[0].abs() < 0.35, "d = {d}");
    }

    #[test]
    fn respects_linear_constraints() {
        // Yield increases with d0, but constraint caps d0 ≤ 1.
        let ly = LinearizedYield::new(vec![lin(0, 0.0, &[1.0], &[1.0])], 1, 10_000, 3).unwrap();
        let lc = LinearConstraints::new(
            DVec::from_slice(&[1.0]),
            DMat::from_rows(&[&[-1.0]]).unwrap(),
            DVec::zeros(1),
            DVec::filled(1, -5.0),
            DVec::filled(1, 5.0),
        )
        .unwrap();
        let cs = CoordinateSearch;
        let (d, _) = cs.run(&ly, &lc, &DVec::zeros(1)).unwrap();
        assert!(d[0] <= 1.0 + 1e-9, "d = {d}");
        assert!(d[0] > 0.9, "should push to the constraint boundary: {d}");
    }

    #[test]
    fn two_dimensional_search_converges() {
        // margins: s0 + (d0 − 1), s1 + (d1 + 2)·0.5 — optimum at corner-ish
        // (max both shifts): d0 → hi, d1 → hi.
        let ly = LinearizedYield::new(
            vec![
                lin(0, -1.0, &[1.0, 0.0], &[1.0, 0.0]),
                lin(1, 1.0, &[0.0, 1.0], &[0.0, 0.5]),
            ],
            2,
            20_000,
            9,
        )
        .unwrap();
        let cs = CoordinateSearch;
        let (d, y) = cs
            .run(&ly, &box_constraints(2, -3.0, 3.0), &DVec::zeros(2))
            .unwrap();
        assert!((d[0] - 3.0).abs() < 1e-9);
        assert!((d[1] - 3.0).abs() < 1e-9);
        // Joint pass probability ≈ Φ(2)·Φ(2.5) ≈ 0.971.
        assert!(y.value() > 0.95, "y = {}", y.value());
    }

    #[test]
    fn zero_yield_plateau_does_not_move() {
        // Hopelessly violated spec that d cannot fix (zero design gradient):
        // the search must terminate and return the start.
        let ly = LinearizedYield::new(vec![lin(0, -100.0, &[1.0], &[0.0])], 1, 5_000, 1).unwrap();
        let cs = CoordinateSearch;
        let (d, y) = cs
            .run(&ly, &box_constraints(1, -2.0, 2.0), &DVec::zeros(1))
            .unwrap();
        assert_eq!(d[0], 0.0);
        assert_eq!(y.passed(), 0);
    }
}

//! Mismatch analysis (paper Sec. 3): detecting and ranking
//! mismatch-sensitive transistor pairs from worst-case points.
//!
//! The worst-case point `ŝ_wc` points in the direction of maximum
//! performance degradation; two components with (near-)equal magnitude and
//! opposite sign lie on the *mismatch line* and mark a matching pair. The
//! mismatch measure (Eq. 9) combines
//!
//! * `η(β_wc)` — robustness weight: ½ at β = 0, → 1 for badly violated
//!   specs, → 0 for very robust ones,
//! * a magnitude weight `max(|s_k|, |s_l|)/s_max`,
//! * the mismatch-line selector `Φ(arctan(s_k/s_l))` (Fig. 2).
//!
//! Since the worst-case points are computed during yield optimization
//! anyway, the analysis costs no extra simulations.

use specwise_linalg::DVec;
use specwise_wcd::WorstCasePoint;

/// Full-acceptance half-width of the mismatch-line selector `Φ` (paper
/// Fig. 2): 5° of the `arctan(s_k/s_l)` angle, in radians.
pub const PHI_DELTA1: f64 = std::f64::consts::PI / 36.0;

/// Zero-acceptance half-width of the mismatch-line selector `Φ`: 15°, in
/// radians.
pub const PHI_DELTA2: f64 = std::f64::consts::PI / 12.0;

/// The mismatch-line selector `Φ` (paper Fig. 2): a trapezoid of the angle
/// `α = arctan(s_k/s_l) ∈ (−π/2, π/2)` centered on the mismatch line
/// `α = −π/4` (where `s_k = −s_l`): 1 within [`PHI_DELTA1`] of that line,
/// decaying linearly to 0 at [`PHI_DELTA2`]. The neutral line `α = +π/4`
/// maps to 0.
///
/// ```
/// use specwise::phi;
/// assert_eq!(phi(-std::f64::consts::FRAC_PI_4), 1.0); // mismatch line
/// assert_eq!(phi(std::f64::consts::FRAC_PI_4), 0.0);  // neutral line
/// ```
pub fn phi(angle: f64) -> f64 {
    let dist = (angle + std::f64::consts::FRAC_PI_4).abs();
    if dist <= PHI_DELTA1 {
        1.0
    } else if dist >= PHI_DELTA2 {
        0.0
    } else {
        1.0 - (dist - PHI_DELTA1) / (PHI_DELTA2 - PHI_DELTA1)
    }
}

/// The robustness weight `η(β_wc)` (paper Eq. 9 / Fig. 3):
///
/// * `β_wc < 0` (violated spec): `η = 1 − 1/(2(−β + 1))` → 1 as β → −∞,
/// * `β_wc ≥ 0`: `η = 1/(2(β + 1))` → 0 as β → ∞,
/// * `η(0) = ½`, continuously differentiable at 0.
///
/// ```
/// use specwise::eta;
/// assert!((eta(0.0) - 0.5).abs() < 1e-15);
/// assert!(eta(-10.0) > 0.9);
/// assert!(eta(10.0) < 0.05);
/// ```
pub fn eta(beta_wc: f64) -> f64 {
    if beta_wc < 0.0 {
        1.0 - 1.0 / (2.0 * (-beta_wc + 1.0))
    } else {
        1.0 / (2.0 * (beta_wc + 1.0))
    }
}

/// One ranked mismatch pair.
#[derive(Debug, Clone, PartialEq)]
pub struct MismatchEntry {
    /// Specification index the pair degrades.
    pub spec: usize,
    /// First statistical parameter index.
    pub k: usize,
    /// Second statistical parameter index.
    pub l: usize,
    /// The mismatch measure `m_kl ∈ [0, 1]`.
    pub measure: f64,
}

/// Ranks mismatch-sensitive parameter pairs from worst-case points
/// (paper Table 5).
#[derive(Debug, Clone, Default)]
pub struct MismatchAnalysis;

impl MismatchAnalysis {
    /// Creates an analysis.
    pub fn new() -> Self {
        MismatchAnalysis
    }

    /// The mismatch measure `m_kl` (Eq. 9) for components `k`, `l` of a
    /// worst-case point with signed distance `beta_wc`.
    ///
    /// The measure is symmetrized over the component ordering (the paper's
    /// formula is asymmetric off the exact mismatch line; we take the
    /// larger of the two orderings).
    ///
    /// # Panics
    ///
    /// Panics when `k` or `l` is out of range or `k == l`.
    pub fn measure(&self, s_wc: &DVec, beta_wc: f64, k: usize, l: usize) -> f64 {
        assert!(k != l, "mismatch measure needs two distinct components");
        let s_max = s_wc.norm_inf();
        if s_max == 0.0 {
            return 0.0;
        }
        let (sk, sl) = (s_wc[k], s_wc[l]);
        let magnitude = sk.abs().max(sl.abs()) / s_max;
        let angle_kl = (sk / sl).atan();
        let angle_lk = (sl / sk).atan();
        let selector = phi(angle_kl).max(phi(angle_lk));
        eta(beta_wc) * magnitude * selector
    }

    /// Ranks all component pairs of one worst-case point, descending by
    /// measure, dropping entries below `min_measure`.
    pub fn rank(&self, wc: &WorstCasePoint, min_measure: f64) -> Vec<MismatchEntry> {
        let n = wc.s_wc.len();
        let mut entries = Vec::new();
        for k in 0..n {
            for l in (k + 1)..n {
                if wc.s_wc[k] == 0.0 && wc.s_wc[l] == 0.0 {
                    continue;
                }
                let m = self.measure(&wc.s_wc, wc.beta_wc, k, l);
                if m > min_measure {
                    entries.push(MismatchEntry {
                        spec: wc.spec,
                        k,
                        l,
                        measure: m,
                    });
                }
            }
        }
        entries.sort_by(|a, b| b.measure.partial_cmp(&a.measure).expect("finite measures"));
        entries
    }

    /// Ranks pairs across all worst-case points (one per spec).
    pub fn rank_all(&self, wcs: &[WorstCasePoint], min_measure: f64) -> Vec<MismatchEntry> {
        let mut entries: Vec<MismatchEntry> = wcs
            .iter()
            .flat_map(|wc| self.rank(wc, min_measure))
            .collect();
        entries.sort_by(|a, b| b.measure.partial_cmp(&a.measure).expect("finite measures"));
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specwise_ckt::OperatingPoint;

    fn wc(s: &[f64], beta: f64) -> WorstCasePoint {
        WorstCasePoint {
            spec: 0,
            theta_wc: OperatingPoint::new(25.0, 3.3),
            s_wc: DVec::from_slice(s),
            beta_wc: beta,
            nominal_margin: beta,
            margin_at_wc: 0.0,
            grad_s: DVec::zeros(s.len()),
            converged: true,
        }
    }

    #[test]
    fn phi_trapezoid_shape() {
        let ml = -std::f64::consts::FRAC_PI_4;
        assert_eq!(phi(ml), 1.0);
        assert_eq!(phi(ml + PHI_DELTA1 * 0.99), 1.0);
        let mid = phi(ml + 0.5 * (PHI_DELTA1 + PHI_DELTA2));
        assert!((mid - 0.5).abs() < 1e-12);
        assert!(phi(ml + PHI_DELTA2).abs() < 1e-12);
        assert_eq!(phi(0.0), 0.0);
        assert_eq!(phi(std::f64::consts::FRAC_PI_4), 0.0);
    }

    #[test]
    fn eta_requirements() {
        // Requirement 2/4: range and monotonicity.
        assert!((eta(0.0) - 0.5).abs() < 1e-15);
        assert!(eta(-100.0) < 1.0 && eta(-100.0) > 0.99);
        assert!(eta(100.0) > 0.0 && eta(100.0) < 0.01);
        let mut last = eta(-10.0);
        for i in -9..=10 {
            let v = eta(i as f64);
            assert!(v < last, "eta must decrease");
            last = v;
        }
        // Continuously differentiable at 0: slopes match (−1/2 both sides).
        let h = 1e-7;
        let left = (eta(0.0) - eta(-h)) / h;
        let right = (eta(h) - eta(0.0)) / h;
        assert!((left - right).abs() < 1e-6);
    }

    #[test]
    fn mismatch_line_pair_scores_high() {
        // s = (2, −2, 0.1): pair (0, 1) on the mismatch line dominates.
        let w = wc(&[2.0, -2.0, 0.1], 0.0);
        let a = MismatchAnalysis::new();
        let m01 = a.measure(&w.s_wc, w.beta_wc, 0, 1);
        assert!((m01 - 0.5).abs() < 1e-12, "η(0)·1·1 = 0.5, got {m01}");
        // Pair (0, 2) far from the mismatch line scores 0.
        assert_eq!(a.measure(&w.s_wc, w.beta_wc, 0, 2), 0.0);
    }

    #[test]
    fn neutral_line_pair_scores_zero() {
        let w = wc(&[2.0, 2.0], 0.0);
        let a = MismatchAnalysis::new();
        assert_eq!(a.measure(&w.s_wc, w.beta_wc, 0, 1), 0.0);
    }

    #[test]
    fn measure_in_unit_interval_and_symmetric() {
        let w = wc(&[1.5, -1.4, 0.7, -0.1], -2.0);
        let a = MismatchAnalysis::new();
        for k in 0..4 {
            for l in 0..4 {
                if k == l {
                    continue;
                }
                let m = a.measure(&w.s_wc, w.beta_wc, k, l);
                assert!((0.0..=1.0).contains(&m));
                assert_eq!(m, a.measure(&w.s_wc, w.beta_wc, l, k), "symmetry {k},{l}");
            }
        }
    }

    #[test]
    fn ranking_orders_descending() {
        // Perfect pair (0, 1), partial pair (2, 3) with smaller magnitude.
        let w = wc(&[2.0, -2.0, 0.8, -0.8], -1.0);
        let a = MismatchAnalysis::new();
        let ranked = a.rank(&w, 1e-6);
        assert!(!ranked.is_empty());
        assert_eq!((ranked[0].k, ranked[0].l), (0, 1));
        for pair in ranked.windows(2) {
            assert!(pair[0].measure >= pair[1].measure);
        }
        let top = &ranked[0];
        // Violated spec (β = −1): η = 1 − 1/4 = 0.75.
        assert!((top.measure - 0.75).abs() < 1e-12);
    }

    #[test]
    fn robust_spec_scores_lower_than_critical() {
        let s = [1.0, -1.0];
        let a = MismatchAnalysis::new();
        let critical = a.measure(&DVec::from_slice(&s), -3.0, 0, 1);
        let robust = a.measure(&DVec::from_slice(&s), 3.0, 0, 1);
        assert!(
            critical > robust,
            "requirement 4: robustness lowers the measure"
        );
    }

    #[test]
    fn zero_vector_scores_zero() {
        let a = MismatchAnalysis::new();
        assert_eq!(a.measure(&DVec::zeros(3), 0.0, 0, 1), 0.0);
    }
}

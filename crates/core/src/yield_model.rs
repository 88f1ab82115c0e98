//! Monte-Carlo yield estimation over the spec-wise linear models
//! (paper Eqs. 17–20).
//!
//! A fixed set of `N` standardized samples is drawn once; for each sample
//! and each linear model the *sample part* `p` (everything except the
//! design shift) is precomputed and stored sample-major, one contiguous row
//! of `m` values per sample. A sample passes at a design whose model shifts
//! are `s` when no model has `p + s < 0`. During the coordinate search only
//! the scalar design shift of each model changes, and for a
//! single-coordinate move only one product is recomputed (Eq. 20).
//!
//! # One pass per coordinate
//!
//! [`ShiftTracker::scan_coord`] prices a whole grid of candidate values of
//! one coordinate in a single sweep over the samples, and returns exactly
//! the pass counts [`ShiftTracker::estimate_coord`] would return at each
//! value. Two facts make the sweep exact, not approximate:
//!
//! * **Sign equivalence.** For IEEE doubles, `fl(p + s) < 0` holds exactly
//!   when `p < −s`: a sum rounds to zero only when it is exactly zero, and
//!   rounding never flips a sign. The equivalence also holds for ±0,
//!   overflow, ±∞ and NaN, where both sides are false. So comparing `p`
//!   against the threshold `−s` decides the sample without forming `p + s`.
//! * **Monotone thresholds.** Model `mi`'s shift at grid value `v_g` is
//!   `s_g = shifts[mi] + ∇_d[k]·(v_g − d[k])`, evaluated with the same
//!   expression as `estimate_coord`. Rounding is monotone, so on a
//!   non-decreasing grid `s_g` is non-decreasing in `g` when `∇_d[k] ≥ 0`
//!   (or NaN) and non-increasing when `∇_d[k] < 0`. The grid values at
//!   which the model fails a sample are therefore a prefix of the grid in
//!   the first case and a suffix in the second, found by one binary search
//!   of the model's threshold row.
//!
//! A sample passes on the grid values outside every model's failing prefix
//! and suffix, a single range `[a, b)`; counting where the ranges of all
//! samples start and end yields every candidate's pass count. The work per
//! coordinate drops from `G·N·m` comparisons to `N·m·log₂G`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use specwise_linalg::DVec;
use specwise_stat::{StandardNormal, YieldEstimate};
use specwise_wcd::SpecLinearization;

use crate::SpecwiseError;

/// Checks a model set for [`LinearizedYield`] and returns the statistical
/// dimension.
fn validate(
    models: &[SpecLinearization],
    n_specs: usize,
    n_samples: usize,
) -> Result<usize, SpecwiseError> {
    if models.is_empty() {
        return Err(SpecwiseError::InvalidConfig {
            reason: "no linear models supplied",
        });
    }
    if n_samples == 0 {
        return Err(SpecwiseError::InvalidConfig {
            reason: "need at least one sample",
        });
    }
    let n_s = models[0].s_wc.len();
    for m in models {
        if m.s_wc.len() != n_s || m.grad_s.len() != n_s {
            return Err(SpecwiseError::DimensionMismatch {
                what: "stat",
                expected: n_s,
                found: m.s_wc.len(),
            });
        }
        if m.spec >= n_specs {
            return Err(SpecwiseError::InvalidConfig {
                reason: "model spec index exceeds n_specs",
            });
        }
    }
    Ok(n_s)
}

/// A reusable linearized-model yield estimator.
///
/// # Example
///
/// ```
/// use specwise::LinearizedYield;
/// use specwise_ckt::OperatingPoint;
/// use specwise_linalg::DVec;
/// use specwise_wcd::SpecLinearization;
///
/// # fn main() -> Result<(), specwise::SpecwiseError> {
/// // margin = 1 + s0 (one spec, no design dependence): Ȳ = Φ(1) ≈ 84 %.
/// let lin = SpecLinearization {
///     spec: 0,
///     mirrored: false,
///     theta_wc: OperatingPoint::new(25.0, 3.3),
///     s_wc: DVec::from_slice(&[-1.0]),
///     d_f: DVec::from_slice(&[0.0]),
///     margin_at_anchor: 0.0,
///     grad_s: DVec::from_slice(&[1.0]),
///     grad_d: DVec::from_slice(&[0.0]),
/// };
/// let model = LinearizedYield::new(vec![lin], 1, 20_000, 42)?;
/// let y = model.estimate(&DVec::from_slice(&[0.0]))?;
/// assert!((y.value() - 0.8413).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LinearizedYield {
    models: Vec<SpecLinearization>,
    /// Sample parts, sample-major: row `j`, `parts[j·m..(j+1)·m]` with
    /// `m = models.len()`, holds every model's sample part at sample `j`.
    parts: Vec<f64>,
    n_samples: usize,
    n_specs: usize,
    d_f: DVec,
}

impl LinearizedYield {
    /// Draws `n_samples` standardized samples (seeded) and precomputes the
    /// per-sample constants of every model.
    ///
    /// `n_specs` is the number of distinct specifications (mirrored models
    /// share their spec's index).
    ///
    /// # Errors
    ///
    /// Returns [`SpecwiseError::InvalidConfig`] for an empty model list or
    /// zero samples.
    pub fn new(
        models: Vec<SpecLinearization>,
        n_specs: usize,
        n_samples: usize,
        seed: u64,
    ) -> Result<Self, SpecwiseError> {
        let n_s = validate(&models, n_specs, n_samples)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let normal = StandardNormal::new();
        let mut parts = vec![0.0; n_samples * models.len()];
        let mut sample = DVec::zeros(n_s);
        for row in parts.chunks_exact_mut(models.len()) {
            normal.fill(&mut rng, sample.as_mut_slice());
            for (part, m) in row.iter_mut().zip(&models) {
                *part = m.sample_part(&sample);
            }
        }
        Ok(LinearizedYield {
            d_f: models[0].d_f.clone(),
            models,
            parts,
            n_samples,
            n_specs,
        })
    }

    /// Number of Monte-Carlo samples.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// The linear models in use.
    pub fn models(&self) -> &[SpecLinearization] {
        &self.models
    }

    /// The anchor design point `d_f` shared by all models.
    pub fn anchor(&self) -> &DVec {
        &self.d_f
    }

    /// Design shifts of every model at `d`.
    fn shifts(&self, d: &DVec) -> Result<DVec, SpecwiseError> {
        if d.len() != self.d_f.len() {
            return Err(SpecwiseError::DimensionMismatch {
                what: "design",
                expected: self.d_f.len(),
                found: d.len(),
            });
        }
        Ok(self.models.iter().map(|m| m.design_shift(d)).collect())
    }

    /// Yield estimate `Ȳ(d)` (paper Eq. 17): the fraction of samples whose
    /// linearized margins are all non-negative.
    ///
    /// # Errors
    ///
    /// Returns a dimension error when `d` has the wrong length.
    pub fn estimate(&self, d: &DVec) -> Result<YieldEstimate, SpecwiseError> {
        let shifts = self.shifts(d)?;
        Ok(YieldEstimate::from_counts(
            self.count_passing(&shifts),
            self.n_samples,
        ))
    }

    /// Yield estimate from precomputed shifts (used by the coordinate
    /// search's incremental path).
    pub(crate) fn estimate_with_shifts(&self, shifts: &DVec) -> YieldEstimate {
        YieldEstimate::from_counts(self.count_passing(shifts), self.n_samples)
    }

    pub(crate) fn count_passing(&self, shifts: &DVec) -> usize {
        self.rows()
            .filter(|row| row.iter().zip(shifts.iter()).all(|(&p, &s)| !(p + s < 0.0)))
            .count()
    }

    /// The sample-major rows of `parts`, one per sample.
    fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.parts.chunks_exact(self.models.len())
    }

    /// Per-spec failing ("bad") sample counts at `d` — a sample is bad for
    /// spec `i` when *any* model of spec `i` (the primary or a mirrored
    /// twin) is negative. This is the "bad samples \[‰\]" row of the
    /// paper's tables.
    ///
    /// # Errors
    ///
    /// Returns a dimension error when `d` has the wrong length.
    pub fn bad_samples_per_spec(&self, d: &DVec) -> Result<Vec<usize>, SpecwiseError> {
        let shifts = self.shifts(d)?;
        let mut bad = vec![0usize; self.n_specs];
        let mut failed = vec![false; self.n_specs];
        for row in self.rows() {
            failed.fill(false);
            for ((&p, &s), m) in row.iter().zip(shifts.iter()).zip(&self.models) {
                if p + s < 0.0 {
                    failed[m.spec] = true;
                }
            }
            for (count, &f) in bad.iter_mut().zip(&failed) {
                *count += usize::from(f);
            }
        }
        Ok(bad)
    }

    /// Per-spec bad counts expressed per mille.
    ///
    /// # Errors
    ///
    /// Returns a dimension error when `d` has the wrong length.
    pub fn bad_per_mille(&self, d: &DVec) -> Result<Vec<f64>, SpecwiseError> {
        Ok(self
            .bad_samples_per_spec(d)?
            .into_iter()
            .map(|b| 1000.0 * b as f64 / self.n_samples as f64)
            .collect())
    }

    /// Starts an incremental shift tracker at design `d` (usually `d_f`).
    ///
    /// # Errors
    ///
    /// Returns a dimension error when `d` has the wrong length.
    pub fn tracker(&self, d: &DVec) -> Result<ShiftTracker<'_>, SpecwiseError> {
        let shifts = self.shifts(d)?;
        Ok(ShiftTracker {
            model: self,
            d: d.clone(),
            shifts,
        })
    }
}

/// Incremental design-shift state for the coordinate search: moving one
/// coordinate updates each model's shift with a single multiply-add
/// (paper Eq. 20).
#[derive(Debug, Clone)]
pub struct ShiftTracker<'m> {
    model: &'m LinearizedYield,
    d: DVec,
    shifts: DVec,
}

impl ShiftTracker<'_> {
    /// Current design point.
    pub fn design(&self) -> &DVec {
        &self.d
    }

    /// Yield estimate at the current design point.
    pub fn estimate(&self) -> YieldEstimate {
        self.model.estimate_with_shifts(&self.shifts)
    }

    /// Model `mi`'s design shift if coordinate `k` moved to `value`. The
    /// single expression behind [`ShiftTracker::estimate_coord`],
    /// [`ShiftTracker::scan_coord`] and [`ShiftTracker::set_coord`], so all
    /// three see the same bits.
    fn shift_at(&self, mi: usize, k: usize, value: f64) -> f64 {
        self.shifts[mi] + self.model.models[mi].grad_d[k] * (value - self.d[k])
    }

    /// Yield estimate if coordinate `k` were moved to `value` (does not
    /// commit the move).
    pub fn estimate_coord(&self, k: usize, value: f64) -> YieldEstimate {
        let shifts: DVec = (0..self.shifts.len())
            .map(|mi| self.shift_at(mi, k, value))
            .collect();
        self.model.estimate_with_shifts(&shifts)
    }

    /// Pass counts if coordinate `k` were moved to each of `values` (does
    /// not commit a move): entry `g` equals
    /// `estimate_coord(k, values[g]).passed()` bit for bit, but all entries
    /// come from one sweep over the samples (see the module docs for why
    /// the sweep is exact).
    ///
    /// `values` must be non-decreasing; the coordinate search's grid
    /// `lo + (hi − lo)·g/(G−1)` is for any finite `lo ≤ hi`.
    pub fn scan_coord(&self, k: usize, values: &[f64]) -> Vec<usize> {
        debug_assert!(
            values.windows(2).all(|w| w[0] <= w[1]),
            "scan grid must be non-decreasing"
        );
        let n_g = values.len();
        if n_g == 0 {
            return Vec::new();
        }
        // Row `mi` holds model mi's failure thresholds −s_g over the grid;
        // `fails_high[mi]` says whether its failing values are a suffix
        // (∇_d[k] < 0) rather than a prefix of the grid.
        let n_m = self.shifts.len();
        let mut thresholds = Vec::with_capacity(n_m * n_g);
        let mut fails_high = Vec::with_capacity(n_m);
        for (mi, m) in self.model.models.iter().enumerate() {
            let start = thresholds.len();
            thresholds.extend(values.iter().map(|&v| -self.shift_at(mi, k, v)));
            let high = m.grad_d[k] < 0.0;
            debug_assert!(
                thresholds[start..].windows(2).all(|w| if high {
                    !(w[0] > w[1])
                } else {
                    !(w[0] < w[1])
                }),
                "failure thresholds of model {mi} are not monotone"
            );
            fails_high.push(high);
        }

        // Each sample passes on one range [a, b) of the grid; counting where
        // ranges start and end gives every candidate's pass count.
        let mut starts = vec![0usize; n_g];
        let mut ends = vec![0usize; n_g + 1];
        for row in self.model.rows() {
            let (mut a, mut b) = (0, n_g);
            for ((&p, t), &high) in row
                .iter()
                .zip(thresholds.chunks_exact(n_g))
                .zip(&fails_high)
            {
                // The model fails the sample at value g exactly when
                // p < t[g]. Most samples pass every live value, which the
                // live range's easiest end decides in one comparison.
                let live = &t[a..b];
                if high {
                    if p < live[live.len() - 1] {
                        b = a + live.partition_point(|&t| !(p < t));
                    }
                } else if p < live[0] {
                    a += live.partition_point(|&t| p < t);
                }
                if a == b {
                    break;
                }
            }
            if a < b {
                starts[a] += 1;
                ends[b] += 1;
            }
        }
        // A range ending at g started before g, so `passing` never drops
        // below zero.
        let mut passing = 0;
        starts
            .iter()
            .zip(&ends)
            .map(|(&started, &ended)| {
                passing += started;
                passing -= ended;
                passing
            })
            .collect()
    }

    /// Commits a coordinate move.
    pub fn set_coord(&mut self, k: usize, value: f64) {
        for mi in 0..self.shifts.len() {
            self.shifts[mi] = self.shift_at(mi, k, value);
        }
        self.d[k] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specwise_ckt::OperatingPoint;

    fn lin(
        spec: usize,
        anchor: f64,
        grad_s: &[f64],
        grad_d: &[f64],
        s_wc: &[f64],
    ) -> SpecLinearization {
        SpecLinearization {
            spec,
            mirrored: false,
            theta_wc: OperatingPoint::new(25.0, 3.3),
            s_wc: DVec::from_slice(s_wc),
            d_f: DVec::from_slice(&[0.0; 2][..grad_d.len()]),
            margin_at_anchor: anchor,
            grad_s: DVec::from_slice(grad_s),
            grad_d: DVec::from_slice(grad_d),
        }
    }

    #[test]
    fn matches_analytic_gaussian_probability() {
        // margin = 2 + s0 → pass prob Φ(2) ≈ 0.97725.
        let m = lin(0, 0.0, &[1.0], &[0.0], &[-2.0]);
        let ly = LinearizedYield::new(vec![m], 1, 50_000, 7).unwrap();
        let y = ly.estimate(&DVec::from_slice(&[0.0])).unwrap();
        assert!((y.value() - 0.97725).abs() < 0.005, "y = {}", y.value());
    }

    #[test]
    fn design_shift_moves_yield() {
        // margin = s0 + d0: at d0 = 0 yield 50 %, at d0 = 3 yield ≈ 99.9 %.
        let m = lin(0, 0.0, &[1.0], &[1.0], &[0.0]);
        let ly = LinearizedYield::new(vec![m], 1, 50_000, 3).unwrap();
        let y0 = ly.estimate(&DVec::from_slice(&[0.0])).unwrap().value();
        let y3 = ly.estimate(&DVec::from_slice(&[3.0])).unwrap().value();
        assert!((y0 - 0.5).abs() < 0.01);
        assert!(y3 > 0.99);
    }

    #[test]
    fn tracker_matches_direct_estimate() {
        let m0 = lin(0, 0.5, &[1.0, 0.0], &[1.0, -0.5], &[0.0, 0.0]);
        let m1 = lin(1, 1.0, &[0.3, -0.8], &[0.0, 2.0], &[0.0, 0.0]);
        let ly = LinearizedYield::new(vec![m0, m1], 2, 20_000, 11).unwrap();
        let mut tr = ly.tracker(&DVec::from_slice(&[0.0, 0.0])).unwrap();
        let d_target = DVec::from_slice(&[1.5, -0.7]);
        // Probe without committing.
        let probe = tr.estimate_coord(0, 1.5);
        tr.set_coord(0, 1.5);
        assert_eq!(probe.value(), tr.estimate().value());
        tr.set_coord(1, -0.7);
        let direct = ly.estimate(&d_target).unwrap();
        assert_eq!(tr.estimate().value(), direct.value());
    }

    #[test]
    fn mirrored_pair_models_joint_failure() {
        // Quadratic-like margin modeled by two opposing hyperplanes: pass
        // region |s0| ≤ 1. Yield ≈ P(|Z| ≤ 1) ≈ 0.6827.
        let a = lin(0, 0.0, &[-1.0], &[0.0], &[1.0]);
        let b = a.to_mirrored();
        let ly = LinearizedYield::new(vec![a, b], 1, 50_000, 19).unwrap();
        let y = ly.estimate(&DVec::from_slice(&[0.0])).unwrap().value();
        assert!((y - 0.6827).abs() < 0.01, "y = {y}");
    }

    #[test]
    fn bad_sample_counting_per_spec() {
        // Spec 0 always passes, spec 1 passes half the time.
        let m0 = lin(0, 100.0, &[1.0], &[0.0], &[0.0]);
        let m1 = lin(1, 0.0, &[1.0], &[0.0], &[0.0]);
        let ly = LinearizedYield::new(vec![m0, m1], 2, 20_000, 23).unwrap();
        let bad = ly.bad_per_mille(&DVec::from_slice(&[0.0])).unwrap();
        assert!(bad[0] < 1e-9);
        assert!((bad[1] - 500.0).abs() < 20.0, "bad1 = {}", bad[1]);
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        assert!(LinearizedYield::new(vec![], 0, 100, 1).is_err());
        let m = lin(0, 0.0, &[1.0], &[0.0], &[0.0]);
        assert!(LinearizedYield::new(vec![m.clone()], 1, 0, 1).is_err());
        let ly = LinearizedYield::new(vec![m], 1, 100, 1).unwrap();
        assert!(ly.estimate(&DVec::zeros(3)).is_err());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let m = lin(0, 0.0, &[1.0], &[0.5], &[-1.0]);
        let a = LinearizedYield::new(vec![m.clone()], 1, 5_000, 99).unwrap();
        let b = LinearizedYield::new(vec![m], 1, 5_000, 99).unwrap();
        let d = DVec::from_slice(&[0.3]);
        assert_eq!(a.estimate(&d).unwrap(), b.estimate(&d).unwrap());
    }
}

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
//!
//! # Split by rows, bit for bit
//!
//! The two kernels that touch every sample row, drawing the parts in
//! [`LinearizedYield::with_threads`] and [`ShiftTracker::scan_coord`], can
//! split the rows over several threads. The rows are cut into contiguous
//! blocks of [`BLOCK_ROWS`]; the caller and up to `threads − 1` scoped
//! helper threads claim the blocks in order from one shared queue, so a
//! thread on a slower core simply takes fewer of them. With one thread
//! the whole model is one block, which is the plain serial loop. The
//! split changes no bit, whichever thread takes which block:
//!
//! * **Exact RNG skip.** Row `j` takes normals `j·n_s` up to
//!   `(j+1)·n_s − 1` of one seeded stream. Each thread seeds its own generator and, before
//!   drawing a block that starts at row `r`, skips to normal `r·n_s` with
//!   [`StandardNormal::skip`]. The skip advances the generator and the
//!   Box–Muller cache exactly as that many draws would, so every row sees
//!   the variates the serial loop gives it, even when a block starts on a
//!   cached sine half. Each part is a function of its own row only,
//!   written in place.
//! * **Integer counts.** A scan's per-thread `starts` and `ends` arrays
//!   count samples; adding them is exact in any order, so the summed
//!   arrays, and the pass counts built from them, equal the serial ones.

use std::sync::{Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::SeedableRng;
use specwise_linalg::DVec;
use specwise_stat::{StandardNormal, YieldEstimate};
use specwise_wcd::SpecLinearization;

use crate::SpecwiseError;

/// Fewest sample rows per thread before the row split uses more than one.
/// On a 2-vCPU VM, a 32-value scan of a 7-model, 27-dimension set split
/// over two threads loses at 4,096 rows (135 vs 112 µs), breaks even near
/// 5,000 and wins from 6,000 (140 vs 160 µs); the model draw wins from 500
/// rows. At this minimum the smallest split model has 8,192 rows, so the
/// default 10,000-sample model runs on two threads and a 2,000-sample
/// model on one.
pub const MIN_CHUNK_ROWS: usize = 4_096;

/// Rows per block that a thread of the row split claims at a time: ten
/// blocks for a 10,000-sample model, so two threads on cores of unequal
/// speed still finish together.
const BLOCK_ROWS: usize = 1_024;

/// Runs `work(state, i, block)` on every block, claimed in order by the
/// caller and `threads − 1` scoped helper threads, each folding its blocks
/// into its own `init()` state; returns the states, the caller's first.
fn on_blocks<B: Send, S: Send>(
    blocks: impl Iterator<Item = B> + Send,
    threads: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize, B) + Sync,
) -> Vec<S> {
    let queue = Mutex::new(blocks.enumerate());
    let run = || {
        let mut state = init();
        loop {
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, block)) = next else {
                return state;
            };
            work(&mut state, i, block);
        }
    };
    if threads <= 1 {
        return vec![run()];
    }
    let run = &run;
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(run)).collect();
        let mut states = vec![run()];
        states.extend(
            helpers
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
        );
        states
    })
}

/// One thread's position in the normal stream of the sample rows.
struct Draws {
    rng: StdRng,
    normal: StandardNormal,
    /// Normals drawn or skipped so far.
    at: usize,
}

/// Fills `rows`, whole sample-major rows from normal `first` of the
/// stream on, with the sample parts of `models`, after skipping `draws`
/// forward to `first`. A thread claims blocks in increasing order, so
/// `first` never lies behind `draws.at`.
fn draw_rows(models: &[SpecLinearization], rows: &mut [f64], first: usize, draws: &mut Draws) {
    let n_s = models[0].s_wc.len();
    draws.normal.skip(&mut draws.rng, first - draws.at);
    let mut sample = DVec::zeros(n_s);
    for row in rows.chunks_exact_mut(models.len()) {
        draws.normal.fill(&mut draws.rng, sample.as_mut_slice());
        for (part, m) in row.iter_mut().zip(models) {
            *part = m.sample_part(&sample);
        }
    }
    draws.at = first + rows.len() / models.len() * n_s;
}

/// Adds to `starts` and `ends` where the passing ranges of `rows` start
/// and end on a grid of `starts.len()` values, given each model's failure
/// thresholds over the grid (row `mi` of `thresholds`) and whether its
/// failing values are a suffix of the grid (`fails_high[mi]`) rather than
/// a prefix.
fn count_ranges(
    rows: &[f64],
    thresholds: &[f64],
    fails_high: &[bool],
    starts: &mut [usize],
    ends: &mut [usize],
) {
    let n_g = starts.len();
    for row in rows.chunks_exact(fails_high.len()) {
        let (mut a, mut b) = (0, n_g);
        for ((&p, t), &high) in row.iter().zip(thresholds.chunks_exact(n_g)).zip(fails_high) {
            // The model fails the sample at value g exactly when p < t[g].
            // Most samples pass every live value, which the live range's
            // easiest end decides in one comparison.
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
}

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
    /// Threads of the row split (see the module docs).
    threads: usize,
    /// Rows per block of the row split; all of them with one thread.
    block_rows: usize,
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
        Self::with_threads(models, n_specs, n_samples, seed, 1)
    }

    /// [`LinearizedYield::new`] with the sample rows split over up to
    /// `threads` threads, for the draw here and for every
    /// [`ShiftTracker::scan_coord`] later. Every bit equals the one-thread
    /// model's (see the module docs); each thread must have at least
    /// [`MIN_CHUNK_ROWS`] rows, so small models stay on one thread.
    ///
    /// # Errors
    ///
    /// As [`LinearizedYield::new`].
    pub fn with_threads(
        models: Vec<SpecLinearization>,
        n_specs: usize,
        n_samples: usize,
        seed: u64,
        threads: usize,
    ) -> Result<Self, SpecwiseError> {
        let threads = threads.min(n_samples / MIN_CHUNK_ROWS).max(1);
        Self::build(models, n_specs, n_samples, seed, threads, BLOCK_ROWS)
    }

    fn build(
        models: Vec<SpecLinearization>,
        n_specs: usize,
        n_samples: usize,
        seed: u64,
        threads: usize,
        block_rows: usize,
    ) -> Result<Self, SpecwiseError> {
        let n_s = validate(&models, n_specs, n_samples)?;
        let block_rows = if threads > 1 { block_rows } else { n_samples };
        let mut parts = vec![0.0; n_samples * models.len()];
        on_blocks(
            parts.chunks_mut(block_rows * models.len()),
            threads,
            || Draws {
                rng: StdRng::seed_from_u64(seed),
                normal: StandardNormal::new(),
                at: 0,
            },
            |draws, i, rows| draw_rows(&models, rows, i * block_rows * n_s, draws),
        );
        Ok(LinearizedYield {
            d_f: models[0].d_f.clone(),
            models,
            parts,
            n_samples,
            n_specs,
            threads,
            block_rows,
        })
    }

    /// Threads the sample rows are split over: 1 unless
    /// [`LinearizedYield::with_threads`] was given more than one and the
    /// model has at least [`MIN_CHUNK_ROWS`] rows per thread.
    pub fn threads(&self) -> usize {
        self.threads
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
        // ranges start and end gives every candidate's pass count. Each
        // thread counts the blocks it claims, and the integer sums are exact.
        let model = self.model;
        let counted = on_blocks(
            model.parts.chunks(model.block_rows * n_m),
            model.threads,
            || (vec![0usize; n_g], vec![0usize; n_g + 1]),
            |(starts, ends), _, rows| count_ranges(rows, &thresholds, &fails_high, starts, ends),
        );
        let mut counted = counted.into_iter();
        let (mut starts, mut ends) = counted.next().expect("the caller's counts");
        for (s, e) in counted {
            starts.iter_mut().zip(&s).for_each(|(total, n)| *total += n);
            ends.iter_mut().zip(&e).for_each(|(total, n)| *total += n);
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

    /// Models over `n_s` statistical and two design coordinates: both signs
    /// of each design gradient, and a mirrored twin.
    fn referee_models(n_s: usize) -> Vec<SpecLinearization> {
        let grad = |k: usize, c: f64| -> Vec<f64> {
            (0..n_s)
                .map(|i| c * (0.7 * (i + k) as f64 + 0.3).sin())
                .collect()
        };
        let zeros = vec![0.0; n_s];
        let a = lin(0, 0.8, &grad(0, 1.0), &[0.6, -0.3], &zeros);
        let b = lin(1, 1.2, &grad(1, 0.8), &[-0.4, 0.5], &zeros);
        let c = lin(2, 1.5, &grad(2, 0.5), &[0.0, -0.9], &zeros);
        vec![a, b.to_mirrored(), b, c]
    }

    /// Every observable of a model as 64-bit words: the parts, the
    /// estimate and per-spec bad counts at two designs, every scan count
    /// on both coordinates, and the coordinate search's design and count.
    fn observables(ly: &LinearizedYield) -> Vec<u64> {
        let mut words: Vec<u64> = ly.parts.iter().map(|p| p.to_bits()).collect();
        for d in [[0.0, 0.0], [0.4, -0.7]] {
            let d = DVec::from_slice(&d);
            let y = ly.estimate(&d).unwrap();
            words.extend([y.passed() as u64, y.value().to_bits()]);
            words.extend(
                ly.bad_samples_per_spec(&d)
                    .unwrap()
                    .iter()
                    .map(|&b| b as u64),
            );
        }
        let tracker = ly.tracker(&DVec::from_slice(&[0.2, -0.1])).unwrap();
        let values: Vec<f64> = (0..32).map(|g| -2.0 + 4.0 * g as f64 / 31.0).collect();
        for k in 0..2 {
            words.extend(tracker.scan_coord(k, &values).iter().map(|&c| c as u64));
        }
        let bounds = crate::LinearConstraints::box_only(
            &DVec::zeros(2),
            DVec::filled(2, -2.0),
            DVec::filled(2, 2.0),
        );
        let (d, y) = crate::CoordinateSearch
            .run(ly, &bounds, &DVec::zeros(2))
            .unwrap();
        words.extend(d.iter().map(|v| v.to_bits()));
        words.push(y.passed() as u64);
        words
    }

    #[test]
    fn row_split_keeps_every_bit() {
        let mut odd_starts = 0;
        for n_s in [3, 4] {
            let models = referee_models(n_s);
            for n in [1, 2, 9_999, 10_000] {
                let serial = LinearizedYield::build(models.clone(), 3, n, 17, 1, n).unwrap();
                let want = observables(&serial);
                for threads in [1, 2, 3, 4, 7] {
                    let pooled = LinearizedYield::with_threads(models.clone(), 3, n, 17, threads);
                    assert!(
                        observables(&pooled.unwrap()) == want,
                        "n_s {n_s}, {n} samples, {threads} threads"
                    );
                    for block in [7, BLOCK_ROWS] {
                        let split =
                            LinearizedYield::build(models.clone(), 3, n, 17, threads, block)
                                .unwrap();
                        if threads > 1 && n > block && block * n_s % 2 == 1 {
                            odd_starts += 1;
                        }
                        assert!(
                            observables(&split) == want,
                            "n_s {n_s}, {n} samples, {threads} threads, blocks of {block} rows"
                        );
                    }
                }
            }
        }
        assert!(odd_starts > 0, "no block started on a cached sine half");
    }

    #[test]
    fn only_large_models_split() {
        let m = lin(0, 0.0, &[1.0], &[0.5], &[-1.0]);
        let threads = |n, t| {
            LinearizedYield::with_threads(vec![m.clone()], 1, n, 3, t)
                .unwrap()
                .threads()
        };
        assert_eq!(threads(10_000, 1), 1);
        assert_eq!(threads(10_000, 2), 2);
        assert_eq!(threads(10_000, 8), 2, "MIN_CHUNK_ROWS rows per thread");
        assert_eq!(threads(2_000, 2), 1);
        assert_eq!(threads(2 * MIN_CHUNK_ROWS - 1, 2), 1);
        assert_eq!(threads(2 * MIN_CHUNK_ROWS, 2), 2);
        assert_eq!(threads(10_000, 0), 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        #[test]
        fn any_row_split_matches_one_thread(
            seed in 0u64..10_000,
            n_s in 1usize..6,
            n in 1usize..300,
            threads in 1usize..9,
            block in 1usize..40,
        ) {
            let models = referee_models(n_s);
            let serial = LinearizedYield::build(models.clone(), 3, n, seed, 1, n).unwrap();
            let split = LinearizedYield::build(models, 3, n, seed, threads, block).unwrap();
            proptest::prop_assert!(observables(&split) == observables(&serial));
        }
    }
}

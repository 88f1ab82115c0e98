//! Minimum-norm failure-point importance sampling for the high-sigma
//! regime.
//!
//! Mean-shift IS ([`MeanShiftIs`](crate::MeanShiftIs)) needs a caller-
//! supplied proposal mean, and the natural choice — the worst-case point of
//! the *linearized* model — degrades at 4–6σ: the linearization point is
//! far from the true most-likely failure point, the shifted proposal
//! barely overlaps the failure region, and a handful of enormous weights
//! dominate the estimate. `NormMinIs` instead *searches* for the
//! minimum-norm failure point (the most likely failure in the standardized
//! space, where probability density is a decreasing function of `‖ŝ‖`
//! alone): Gauss–Newton steps on the critical spec's margin along its
//! gradient — computed through the adjoint path on cached LU factors when
//! the environment provides it — followed by a projected coordinate-
//! descent polish that shrinks coordinates toward the origin while the
//! point stays failing. The search only places the proposal: the
//! mean-shift pass itself then samples `N(µ, I)` centred slightly beyond
//! that point, weighted with exact density ratios
//! (`p = Σ_fail w / n`; the self-normalized ratio `Σ_fail w / Σ w` was
//! measured and rejected — its denominator has `exp(‖µ‖²)` relative
//! variance, which is catastrophic in exactly the high-sigma regime this
//! estimator targets), and an effective-sample-size guard widens the yield
//! interval to `[0, 1]` instead of reporting a confident wrong number when
//! the proposal turns out degenerate.

use specwise_ckt::{CircuitEnv, OperatingPoint};
use specwise_linalg::DVec;
use specwise_trace::Tracer;
use specwise_wcd::margins_gradient_s;

use crate::estimator::{traced, verification_corners};
use crate::importance::{mean_shift_pass, IsResult};
use crate::SpecwiseError;

/// Maximum Gauss–Newton re-linearizations of the failure-point search.
const MAX_STEPS: usize = 30;

/// Coordinate-descent polish sweeps over the statistical dimensions.
const POLISH_SWEEPS: usize = 2;

/// Factor pushing the proposal mean past the failure boundary so the
/// center itself fails.
const OVERSHOOT: f64 = 1.05;

/// Forward-difference step of the margin gradients when the adjoint
/// shortcut is unavailable.
const GRAD_STEP: f64 = 1e-4;

/// Options of the minimum-norm failure-point IS verification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormMinOptions {
    /// Number of proposal samples.
    pub n: usize,
    /// RNG seed of the proposal draw — explicit so that every run is
    /// reproducible by construction.
    pub seed: u64,
    /// Minimum effective sample size over the failing weights below which
    /// the result is marked degraded and the yield interval widens to
    /// `[0, 1]`.
    pub min_ess: f64,
}

impl Default for NormMinOptions {
    fn default() -> Self {
        NormMinOptions {
            n: 4_000,
            seed: 2001,
            min_ess: 20.0,
        }
    }
}

/// Result of a minimum-norm failure-point IS verification.
#[derive(Debug, Clone, PartialEq)]
pub struct NormMinResult {
    /// The proposal mean: the (overshot) minimum-norm failure point.
    pub shift: DVec,
    /// Norm of the located failure-boundary point — the worst-case
    /// distance of the critical spec in sigma.
    pub beta: f64,
    /// Index of the spec whose boundary the search converged to.
    pub critical_spec: usize,
    /// The mean-shift pass at [`NormMinResult::shift`], with the ESS
    /// guard's corrections applied: a NaN ESS reads 0, and a non-finite
    /// failure probability reads 0 with a standard error of 0.
    pub sampling: IsResult,
    /// `true` when the ESS guard tripped (degenerate proposal, weight
    /// under/overflow, or no failure point found): the point estimate is
    /// untrustworthy and [`NormMinResult::yield_interval`] is `[0, 1]`.
    pub ess_degraded: bool,
    /// Simulations spent by the failure-point search (included in the
    /// span's total `sims` counter).
    pub search_sims: u64,
}

impl NormMinResult {
    /// The yield interval `[low, high]`: the degraded-sample interval of
    /// the other estimators when the ESS guard holds, the whole `[0, 1]`
    /// (explicit ignorance) when it tripped.
    pub fn yield_interval(&self) -> (f64, f64) {
        self.sampling.guarded_interval(self.ess_degraded)
    }
}

/// Minimum-norm failure-point importance sampling (see the module docs).
/// Selectable as [`EstimatorKind::NormMin`](crate::EstimatorKind::NormMin).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormMinIs {
    /// Sampling options and the ESS guard threshold.
    pub options: NormMinOptions,
}

/// Outcome of the failure-point search: the proposal center, the boundary
/// distance, and the spec whose boundary was located. When no failing
/// point was confirmed the shift may still be usable — sampling runs
/// anyway, and the ESS guard settles whether the result is trustworthy.
struct SearchOutcome {
    shift: DVec,
    beta: f64,
    critical_spec: usize,
}

impl NormMinIs {
    /// Verifies the yield of design `d`, recording one `norm_min_verify`
    /// span (sample count, β, critical spec, the sampling pass's numbers,
    /// the guard, the search's simulations and the `sims` counter) into
    /// `tracer`'s journal.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors; rejects `options.n == 0`.
    pub fn run<E: CircuitEnv + ?Sized>(
        &self,
        env: &E,
        d: &DVec,
        tracer: &Tracer,
    ) -> Result<NormMinResult, SpecwiseError> {
        self.run_with(env, d, None, tracer)
    }

    /// [`NormMinIs::run`] at the worst-case corners `known` that a worst-case
    /// analysis of `d` already swept (`None` sweeps them, as `run` does).
    pub(crate) fn run_with<E: CircuitEnv + ?Sized>(
        &self,
        env: &E,
        d: &DVec,
        known: Option<&[OperatingPoint]>,
        tracer: &Tracer,
    ) -> Result<NormMinResult, SpecwiseError> {
        traced(
            tracer,
            "norm_min_verify",
            env,
            || self.verify(env, d, known),
            |span, r| {
                span.set_attr("n", self.options.n);
                span.set_attr("beta", r.beta);
                span.set_attr("critical_spec", r.critical_spec);
                span.set_attr("failure_probability", r.sampling.failure_probability);
                span.set_attr("std_error", r.sampling.std_error);
                span.set_attr("effective_sample_size", r.sampling.effective_sample_size);
                span.set_attr("sim_failures", r.sampling.sim_failures);
                span.set_attr("ess_degraded", r.ess_degraded);
                span.set_attr("search_sims", r.search_sims);
                let (lo, hi) = r.yield_interval();
                span.set_attr("yield_low", lo);
                span.set_attr("yield_high", hi);
            },
        )
    }

    /// The search, then the mean-shift pass at the point it found, then
    /// the ESS guard.
    fn verify<E: CircuitEnv + ?Sized>(
        &self,
        env: &E,
        d: &DVec,
        known: Option<&[OperatingPoint]>,
    ) -> Result<NormMinResult, SpecwiseError> {
        let NormMinOptions { n, seed, min_ess } = self.options;
        if n == 0 {
            return Err(SpecwiseError::InvalidConfig {
                reason: "need at least one sample",
            });
        }
        let theta_wc = verification_corners(env, d, known)?;
        let sims_before = env.sim_count();
        let search = self.search_failure_point(env, d, &theta_wc)?;
        let search_sims = env.sim_count() - sims_before;
        let sampling = mean_shift_pass(env, d, &theta_wc, &search.shift, n, seed)?;
        let (sampling, ess_degraded) = ess_guard(sampling, min_ess);
        Ok(NormMinResult {
            shift: search.shift,
            beta: search.beta,
            critical_spec: search.critical_spec,
            sampling,
            ess_degraded,
            search_sims,
        })
    }

    /// Gauss–Newton + coordinate-descent search for the minimum-norm
    /// failure point (module docs). Only simulation-failure evaluation
    /// errors are tolerated mid-search (the search stops where it stands);
    /// structural errors propagate.
    fn search_failure_point<E: CircuitEnv + ?Sized>(
        &self,
        env: &E,
        d: &DVec,
        theta_wc: &[OperatingPoint],
    ) -> Result<SearchOutcome, SpecwiseError> {
        let dim = env.stat_dim();
        let origin = DVec::zeros(dim);

        // One linearization per distinct worst-case corner: β_i = m_i/‖g_i‖
        // is the linearized sigma-distance of spec i; the smallest picks
        // the critical spec.
        let mut critical: Option<(usize, f64, DVec)> = None;
        let mut done: Vec<&OperatingPoint> = Vec::new();
        for (i0, theta) in theta_wc.iter().enumerate() {
            if done.contains(&theta) {
                continue;
            }
            done.push(theta);
            let (margins, jac) = margins_gradient_s(env, d, &origin, theta, GRAD_STEP)?;
            for (i, t) in theta_wc.iter().enumerate().skip(i0) {
                if t != theta {
                    continue;
                }
                let g = jac.row(i);
                let gn = g.norm2();
                let m = margins[i];
                if !(gn > 0.0) || !m.is_finite() {
                    continue;
                }
                let beta = m / gn;
                if critical.as_ref().is_none_or(|(_, b, _)| beta < *b) {
                    critical = Some((i, beta, g.scaled(-1.0 / gn)));
                }
            }
        }
        let Some((spec, beta0, dir)) = critical else {
            // Nothing linearizable: sample from the prior and let the ESS
            // guard report the failure honestly.
            return Ok(SearchOutcome {
                shift: origin,
                beta: 0.0,
                critical_spec: 0,
            });
        };
        let theta = theta_wc[spec];

        // Gauss–Newton on the critical margin: step to the re-linearized
        // boundary until the margin changes sign (or stalls).
        let mut s = dir.scaled(beta0.max(0.0));
        let mut boundary = s.clone();
        let mut on_boundary = false;
        for _ in 0..MAX_STEPS {
            let (margins, jac) = match margins_gradient_s(env, d, &s, &theta, GRAD_STEP) {
                Ok(r) => r,
                Err(e) if e.is_simulation_failure() => break,
                Err(e) => return Err(e.into()),
            };
            let m = margins[spec];
            if !m.is_finite() {
                break;
            }
            let g = jac.row(spec);
            let g2 = g.dot(&g);
            if !(g2 > 0.0) || !g2.is_finite() {
                break;
            }
            boundary = s.clone();
            on_boundary = true;
            // Converged when the remaining margin moves the point by a
            // negligible fraction of its norm.
            let step = m / g2;
            if (step * step * g2).sqrt() <= 1e-10 * (1.0 + s.norm2()) {
                break;
            }
            s = s.axpy(-step, &g);
        }
        if on_boundary {
            boundary = s;
        }

        // Push past the boundary so the proposal center itself fails, then
        // coordinate-descent polish: shrink coordinates toward the origin
        // (strictly reducing ‖µ‖) while the point keeps failing.
        let mut center = boundary.scaled(OVERSHOOT);
        let fails = |p: &DVec| match env.eval_margins(d, p, &theta) {
            Ok(m) => m[spec].is_finite() && m[spec] < 0.0,
            Err(_) => false,
        };
        let mut found = fails(&center);
        for _ in 0..4 {
            if found {
                break;
            }
            center = center.scaled(1.1);
            found = fails(&center);
        }
        if found {
            for _ in 0..POLISH_SWEEPS {
                let mut improved = false;
                for k in 0..dim {
                    if center[k] == 0.0 {
                        continue;
                    }
                    let candidate =
                        DVec::from_fn(dim, |j| if j == k { 0.7 * center[j] } else { center[j] });
                    if fails(&candidate) {
                        center = candidate;
                        improved = true;
                    }
                }
                if !improved {
                    break;
                }
            }
        }

        Ok(SearchOutcome {
            beta: center.norm2() / OVERSHOOT,
            shift: center,
            critical_spec: spec,
        })
    }
}

/// The ESS guard on the mean-shift pass's result: returns the result with
/// a NaN ESS read as 0 and a non-finite failure probability read as 0
/// (standard error 0), and whether the guard tripped — `p`, the standard
/// error or the ESS non-finite, or the ESS under `min_ess`.
///
/// The weights of failing samples under an overshot proposal are bounded
/// (the shift sits past the boundary), so the raw estimator stays
/// well-conditioned; what can still go wrong — too few failing samples, a
/// weight blow-up through a degenerate search — is precisely what the
/// guard converts into an honest `[0, 1]` interval. A NaN ESS comes from
/// an overflowed Σw².
fn ess_guard(mut sampling: IsResult, min_ess: f64) -> (IsResult, bool) {
    if sampling.effective_sample_size.is_nan() {
        sampling.effective_sample_size = 0.0;
    }
    let ess = sampling.effective_sample_size;
    let tripped = !sampling.failure_probability.is_finite()
        || !sampling.std_error.is_finite()
        || !ess.is_finite()
        || ess < min_ess;
    if !sampling.failure_probability.is_finite() {
        sampling.failure_probability = 0.0;
        sampling.yield_value = 1.0;
        sampling.std_error = 0.0;
    }
    (sampling, tripped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MonteCarlo;
    use specwise_ckt::{AnalyticEnv, DesignParam, DesignSpace, Spec, SpecKind};
    use specwise_stat::std_normal_cdf;

    /// margin = b + s0 → P(fail) = Φ(−b), minimum-norm failure point
    /// (−b, 0).
    fn env(b: f64) -> AnalyticEnv {
        AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "b", "", 0.0, 10.0, b,
            )]))
            .stat_dim(2)
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| DVec::from_slice(&[d[0] + s[0]]))
            .build()
            .unwrap()
    }

    fn run(e: &AnalyticEnv, d: &DVec, options: NormMinOptions) -> NormMinResult {
        NormMinIs { options }
            .run(e, d, &Tracer::disabled())
            .unwrap()
    }

    #[test]
    fn finds_the_tail_plain_mc_misses() {
        // 4.8σ spec: plain MC at 4000 samples almost surely sees zero
        // failures; norm-min locates the failure point without being told
        // where it is and recovers the analytic tail probability.
        let b = 4.8;
        let e = env(b);
        let d = DVec::from_slice(&[b]);
        let plain = MonteCarlo {
            n_samples: 4_000,
            seed: 3,
        }
        .run(&e, &d, &Tracer::disabled())
        .unwrap();
        assert_eq!(plain.yield_estimate.bad_samples(), 0);
        let r = run(&e, &d, NormMinOptions::default());
        let truth = std_normal_cdf(-b); // ≈ 7.9e-7
        assert!(
            !r.ess_degraded,
            "guard must hold: ESS = {}",
            r.sampling.effective_sample_size
        );
        assert!(
            (r.sampling.failure_probability / truth - 1.0).abs() < 0.5,
            "norm-min estimate {} vs truth {truth}",
            r.sampling.failure_probability
        );
        assert!(r.sampling.effective_sample_size >= 20.0);
        // The search found (≈ −b, 0): β is the sigma-distance.
        assert!((r.beta - b).abs() < 0.1, "beta = {}", r.beta);
        assert!(r.shift[0] < -b * 0.9 && r.shift[1].abs() < 0.5);
    }

    #[test]
    fn deterministic_for_seed() {
        let e = env(3.5);
        let d = DVec::from_slice(&[3.5]);
        let a = run(&e, &d, NormMinOptions::default());
        let b = run(&e, &d, NormMinOptions::default());
        assert_eq!(
            a.sampling.failure_probability.to_bits(),
            b.sampling.failure_probability.to_bits()
        );
        assert_eq!(a.shift, b.shift);
    }

    #[test]
    fn guard_trips_on_unreachable_failure_region() {
        // The margin is constant in ŝ: there is no failure point to find,
        // the proposal stays at the origin, no sample fails, and the
        // result must say "I don't know" instead of "yield = 1".
        let e = AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "b", "", 0.0, 10.0, 1.0,
            )]))
            .stat_dim(2)
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, _, _| DVec::from_slice(&[d[0] + 1.0]))
            .build()
            .unwrap();
        let d = DVec::from_slice(&[1.0]);
        let r = run(
            &e,
            &d,
            NormMinOptions {
                n: 200,
                ..NormMinOptions::default()
            },
        );
        assert!(r.ess_degraded);
        assert_eq!(r.yield_interval(), (0.0, 1.0));
        assert!(r.sampling.failure_probability.is_finite());
    }

    /// The two inputs on which the shared pass's arithmetic differs from
    /// the guarded result: Σw² overflowed (ESS = inf/inf) and NaN weights
    /// (p = NaN). The expected values are what norm-min computed from the
    /// same weight sums before its pass was shared.
    #[test]
    fn guard_maps_overflowed_and_nan_sums() {
        // Σw = 2e200, Σw² = inf, n = 2.
        let overflowed = IsResult {
            failure_probability: 1.0,
            yield_value: 0.0,
            std_error: f64::INFINITY,
            effective_sample_size: f64::NAN,
            n: 2,
            sim_failures: 0,
            degraded_weight: 0.0,
        };
        let (r, tripped) = ess_guard(overflowed, 20.0);
        assert!(tripped);
        assert_eq!(r.effective_sample_size.to_bits(), 0.0f64.to_bits());
        assert_eq!(r.failure_probability, 1.0);
        assert_eq!(r.std_error, f64::INFINITY);
        // Σw = Σw² = NaN.
        let nan = IsResult {
            failure_probability: f64::NAN,
            yield_value: f64::NAN,
            std_error: 0.0,
            effective_sample_size: 0.0,
            ..overflowed
        };
        let (r, tripped) = ess_guard(nan, 20.0);
        assert!(tripped);
        assert_eq!(
            (r.failure_probability, r.yield_value, r.std_error),
            (0.0, 1.0, 0.0)
        );
        assert_eq!(r.effective_sample_size, 0.0);
        // An infinite ESS ((Σw)² overflowed, Σw² finite) stays infinite.
        let inf_ess = IsResult {
            failure_probability: 0.5,
            yield_value: 0.5,
            std_error: 0.1,
            effective_sample_size: f64::INFINITY,
            ..overflowed
        };
        let (r, tripped) = ess_guard(inf_ess, 20.0);
        assert!(tripped);
        assert_eq!(r, inf_ess);
    }

    #[test]
    fn input_validation() {
        let e = env(1.0);
        let d = DVec::from_slice(&[1.0]);
        let bad_n = NormMinOptions {
            n: 0,
            ..NormMinOptions::default()
        };
        assert!(NormMinIs { options: bad_n }
            .run(&e, &d, &Tracer::disabled())
            .is_err());
    }
}

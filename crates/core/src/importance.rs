//! Mean-shifted importance sampling for verifying very small failure
//! probabilities — the natural companion of worst-case analysis: once the
//! optimizer has pushed the worst-case distances to several sigma, plain
//! Monte Carlo (paper Eq. 6) sees no failures at realistic sample counts;
//! shifting the sampling density to the dominant worst-case point recovers
//! a usable estimate.
//!
//! With proposal `q(ŝ) = N(µ, I)` the weight of a sample is
//! `w(ŝ) = φ(ŝ)/φ_µ(ŝ) = exp(µᵀµ/2 − µᵀŝ)`, and
//! `P(fail) = E_q[1_fail(ŝ)·w(ŝ)]`.
//!
//! Samples are drawn up front and evaluated as one batch per corner group;
//! a sample that already failed an earlier group is excluded from later
//! batches, preserving the short-circuit (and simulation count) of the
//! serial loop. [`NormMinIs`](crate::NormMinIs) runs the same pass once
//! its search has placed the proposal.

use rand::rngs::StdRng;
use rand::SeedableRng;
use specwise_ckt::{CircuitEnv, CktError, OperatingPoint};
use specwise_linalg::DVec;
use specwise_stat::StandardNormal;
use specwise_trace::Tracer;

use crate::estimator::{
    classify_sample, evaluate_by_corner, traced, verification_corners, Accumulator, SampleOutcome,
};
use crate::SpecwiseError;

/// Result of an importance-sampled yield verification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsResult {
    /// Estimated failure probability `P(any spec fails)`.
    pub failure_probability: f64,
    /// Estimated yield `1 − P(fail)`.
    pub yield_value: f64,
    /// Standard error of the failure-probability estimate.
    pub std_error: f64,
    /// Effective sample size `(Σw)²/Σw²` over the failing samples' weights
    /// (a diagnostic of proposal quality).
    pub effective_sample_size: f64,
    /// Number of proposal samples drawn.
    pub n: usize,
    /// Number of sample evaluations that failed to simulate or produced
    /// non-finite margins; such samples count as failures (a nonfunctional
    /// circuit yields nothing).
    pub sim_failures: usize,
    /// Importance weight (normalized by `n`) carried by degraded samples
    /// with no observed spec violation — the probability mass whose true
    /// pass/fail status is unknown. Widens [`IsResult::yield_interval`].
    pub degraded_weight: f64,
}

impl IsResult {
    /// The yield interval `[low, high]` implied by counting-and-excluding
    /// degraded samples: `low` counts every degraded sample as failing
    /// (this is [`IsResult::yield_value`]), `high` returns their
    /// importance-weighted mass to the passing side. With no degradation
    /// the interval collapses to the point estimate.
    pub fn yield_interval(&self) -> (f64, f64) {
        let low = self.yield_value;
        let high = (low + self.degraded_weight).min(1.0);
        (low, high)
    }

    /// [`IsResult::yield_interval`], or the whole `[0, 1]` (explicit
    /// ignorance) when the estimator's quality guard tripped.
    pub(crate) fn guarded_interval(&self, degraded: bool) -> (f64, f64) {
        if degraded {
            (0.0, 1.0)
        } else {
            self.yield_interval()
        }
    }
}

/// Mean-shifted importance sampling: the proposal `N(µ, I)` is centred at
/// `shift` (typically the dominant worst-case point `ŝ_wc` of the most
/// critical specification), and each sample carries its exact density
/// ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct MeanShiftIs {
    /// Proposal mean `µ` in the standardized space.
    pub shift: DVec,
    /// Number of proposal samples.
    pub n: usize,
    /// RNG seed of the proposal draw — explicit so that every run is
    /// reproducible by construction.
    pub seed: u64,
}

impl MeanShiftIs {
    /// Verifies the yield of design `d`, recording one `is_verify` span
    /// (sample count, failure probability, its error, ESS, interval and
    /// the `sims` counter) into `tracer`'s journal.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors; rejects `n == 0` and a `shift` whose
    /// length is not the environment's statistical dimension.
    pub fn run<E: CircuitEnv + ?Sized>(
        &self,
        env: &E,
        d: &DVec,
        tracer: &Tracer,
    ) -> Result<IsResult, SpecwiseError> {
        self.run_with(env, d, None, tracer)
    }

    /// [`MeanShiftIs::run`] at the worst-case corners `known` that a worst-case
    /// analysis of `d` already swept (`None` sweeps them, as `run` does).
    pub(crate) fn run_with<E: CircuitEnv + ?Sized>(
        &self,
        env: &E,
        d: &DVec,
        known: Option<&[OperatingPoint]>,
        tracer: &Tracer,
    ) -> Result<IsResult, SpecwiseError> {
        traced(
            tracer,
            "is_verify",
            env,
            || self.verify(env, d, known),
            |span, r| {
                span.set_attr("n", self.n);
                span.set_attr("failure_probability", r.failure_probability);
                span.set_attr("std_error", r.std_error);
                span.set_attr("variance", r.std_error * r.std_error);
                span.set_attr("effective_sample_size", r.effective_sample_size);
                span.set_attr("sim_failures", r.sim_failures);
                let (lo, hi) = r.yield_interval();
                span.set_attr("yield_low", lo);
                span.set_attr("yield_high", hi);
            },
        )
    }

    fn verify<E: CircuitEnv + ?Sized>(
        &self,
        env: &E,
        d: &DVec,
        known: Option<&[OperatingPoint]>,
    ) -> Result<IsResult, SpecwiseError> {
        if self.n == 0 {
            return Err(SpecwiseError::InvalidConfig {
                reason: "need at least one sample",
            });
        }
        if self.shift.len() != env.stat_dim() {
            return Err(SpecwiseError::DimensionMismatch {
                what: "stat",
                expected: env.stat_dim(),
                found: self.shift.len(),
            });
        }
        let theta_wc = verification_corners(env, d, known)?;
        mean_shift_pass(env, d, &theta_wc, &self.shift, self.n, self.seed)
    }
}

/// The mean-shift pass at design `d`: draws `n` samples from
/// `N(shift, I)`, evaluates them corner group by corner group at
/// `theta_wc` and returns the exact-density estimate.
pub(crate) fn mean_shift_pass<E: CircuitEnv + ?Sized>(
    env: &E,
    d: &DVec,
    theta_wc: &[OperatingPoint],
    shift: &DVec,
    n: usize,
    seed: u64,
) -> Result<IsResult, SpecwiseError> {
    let (samples, mut state) = draw_shifted(shift, n, seed);
    evaluate_by_corner(env, d, theta_wc, samples, &mut state)?;
    Ok(state.finish())
}

/// Per-sample bookkeeping of the mean-shift pass.
#[derive(Debug, Clone)]
struct IsState {
    weights: Vec<f64>,
    failed: Vec<bool>,
    violated: Vec<bool>,
    degraded: Vec<bool>,
    sim_failures: usize,
}

/// Draws `n` proposal samples from `N(shift, I)` with their density ratios
/// `w = exp(½‖µ‖² − µᵀŝ)`, every sample first — the same RNG call order as
/// a serial draw-then-evaluate loop.
fn draw_shifted(shift: &DVec, n: usize, seed: u64) -> (Vec<DVec>, IsState) {
    let mut rng = StdRng::seed_from_u64(seed);
    let normal = StandardNormal::new();
    let half_mu2 = 0.5 * shift.dot(shift);
    let mut samples = Vec::with_capacity(n);
    let mut weights = Vec::with_capacity(n);
    let mut z = DVec::zeros(shift.len());
    for _ in 0..n {
        normal.fill(&mut rng, z.as_mut_slice());
        let s = &z + shift;
        weights.push((half_mu2 - shift.dot(&s)).exp());
        samples.push(s);
    }
    let state = IsState {
        weights,
        failed: vec![false; n],
        violated: vec![false; n],
        degraded: vec![false; n],
        sim_failures: 0,
    };
    (samples, state)
}

impl IsState {
    /// The exact-density estimate `p = Σ_fail w / n` with its standard
    /// error, the failing weights' ESS and the unresolved degraded mass.
    fn finish(self) -> IsResult {
        let n = self.weights.len();
        let mut fail_w = 0.0;
        let mut fail_w2 = 0.0;
        let mut degraded_w = 0.0;
        for j in 0..n {
            if self.failed[j] {
                fail_w += self.weights[j];
                fail_w2 += self.weights[j] * self.weights[j];
            }
            if self.degraded[j] && !self.violated[j] {
                degraded_w += self.weights[j];
            }
        }

        let nf = n as f64;
        let p_fail = (fail_w / nf).clamp(0.0, 1.0);
        // Var of the IS estimator: (E[1·w²] − p²)/n.
        let var = ((fail_w2 / nf) - p_fail * p_fail).max(0.0) / nf;
        let ess = if fail_w2 > 0.0 {
            fail_w * fail_w / fail_w2
        } else {
            0.0
        };
        IsResult {
            failure_probability: p_fail,
            yield_value: 1.0 - p_fail,
            std_error: var.sqrt(),
            effective_sample_size: ess,
            n,
            sim_failures: self.sim_failures,
            degraded_weight: (degraded_w / nf).clamp(0.0, 1.0),
        }
    }
}

impl Accumulator for IsState {
    /// Samples that already failed an earlier group are settled.
    fn live(&self, sample: usize) -> bool {
        !self.failed[sample]
    }

    fn accumulate(
        &mut self,
        group_specs: &[usize],
        sample: usize,
        result: Result<DVec, CktError>,
    ) -> Result<(), SpecwiseError> {
        match classify_sample(result, group_specs)? {
            SampleOutcome::Valid(margins) => {
                if group_specs.iter().any(|&i| margins[i] < 0.0) {
                    self.failed[sample] = true;
                    self.violated[sample] = true;
                }
            }
            SampleOutcome::Degraded(_) => {
                self.sim_failures += 1;
                self.degraded[sample] = true;
                self.failed[sample] = true;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specwise_ckt::{AnalyticEnv, DesignParam, DesignSpace, Spec, SpecKind};
    use specwise_exec::{EvalService, ExecConfig, RetryPolicy};
    use specwise_stat::std_normal_cdf;

    fn mean_shift<E: CircuitEnv + ?Sized>(
        env: &E,
        d: &DVec,
        shift: &DVec,
        n: usize,
        seed: u64,
    ) -> Result<IsResult, SpecwiseError> {
        let shift = shift.clone();
        MeanShiftIs { shift, n, seed }.run(env, d, &Tracer::disabled())
    }

    /// margin = b + s0 → P(fail) = Φ(−b).
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

    #[test]
    fn recovers_small_tail_probability() {
        let b = 3.5;
        let e = env(b);
        let d = DVec::from_slice(&[b]);
        // Shift to the worst-case point ŝ_wc = (−b, 0).
        let shift = DVec::from_slice(&[-b, 0.0]);
        let r = mean_shift(&e, &d, &shift, 4_000, 9).unwrap();
        let truth = std_normal_cdf(-b); // ≈ 2.33e-4
        assert!(
            (r.failure_probability / truth - 1.0).abs() < 0.25,
            "IS estimate {} vs truth {truth}",
            r.failure_probability
        );
        assert!(
            r.std_error < 0.3 * truth,
            "IS std error {} too large",
            r.std_error
        );
        assert!(r.effective_sample_size > 100.0);
        assert_eq!(r.sim_failures, 0);
    }

    #[test]
    fn plain_mc_misses_what_is_finds() {
        // At the same sample count, plain MC almost surely sees zero
        // failures for a 4.2σ spec — the motivating comparison.
        let b = 4.2;
        let e = env(b);
        let d = DVec::from_slice(&[b]);
        let plain = crate::MonteCarlo {
            n_samples: 4_000,
            seed: 3,
        }
        .run(&e, &d, &Tracer::disabled())
        .unwrap();
        assert_eq!(
            plain.yield_estimate.bad_samples(),
            0,
            "plain MC sees nothing"
        );
        let shift = DVec::from_slice(&[-b, 0.0]);
        let r = mean_shift(&e, &d, &shift, 4_000, 3).unwrap();
        let truth = std_normal_cdf(-b);
        assert!(r.failure_probability > 0.2 * truth);
        assert!(r.failure_probability < 5.0 * truth);
    }

    #[test]
    fn zero_shift_reduces_to_plain_mc() {
        let e = env(1.0);
        let d = DVec::from_slice(&[1.0]);
        let r = mean_shift(&e, &d, &DVec::zeros(2), 20_000, 5).unwrap();
        let truth = std_normal_cdf(-1.0);
        assert!((r.failure_probability - truth).abs() < 0.01);
        assert!((r.yield_value + r.failure_probability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_service_matches_bare_env_bit_for_bit() {
        let b = 3.0;
        let e = env(b);
        let d = DVec::from_slice(&[b]);
        let shift = DVec::from_slice(&[-b, 0.0]);
        let serial = mean_shift(&e, &d, &shift, 2_000, 13).unwrap();
        for workers in [1usize, 2, 8] {
            let cfg = ExecConfig::default()
                .with_workers(workers)
                .with_retry(RetryPolicy::none());
            let svc = EvalService::new(&e, cfg);
            let par = mean_shift(&svc, &d, &shift, 2_000, 13).unwrap();
            assert_eq!(
                serial.failure_probability.to_bits(),
                par.failure_probability.to_bits(),
                "workers = {workers}"
            );
            assert_eq!(serial.std_error.to_bits(), par.std_error.to_bits());
        }
    }

    #[test]
    fn simulation_failures_count_as_failing_samples() {
        // Non-convergence in the deep shifted tail: all samples with
        // s0 < −4 "diverge". They must count as failures, not abort.
        let b = 3.5;
        let e = AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "b", "", 0.0, 10.0, b,
            )]))
            .stat_dim(2)
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| DVec::from_slice(&[d[0] + s[0]]))
            .fail_when_stat(|_, s| s[0] < -4.0)
            .build()
            .unwrap();
        let d = DVec::from_slice(&[b]);
        let shift = DVec::from_slice(&[-b, 0.0]);
        let r = mean_shift(&e, &d, &shift, 4_000, 9).unwrap();
        // The proposal is centred at s0 = −3.5, so roughly Φ(−0.5) ≈ 31 %
        // of the samples land below −4 and fail to simulate.
        assert!(
            r.sim_failures > 800,
            "expected many tail failures, got {}",
            r.sim_failures
        );
        // Those samples are all true failures too (b + s0 < −0.5 < 0), so
        // the estimate still tracks the analytic tail probability.
        let truth = std_normal_cdf(-b);
        assert!((r.failure_probability / truth - 1.0).abs() < 0.3);
    }

    #[test]
    fn input_validation() {
        let e = env(1.0);
        let d = DVec::from_slice(&[1.0]);
        assert!(mean_shift(&e, &d, &DVec::zeros(2), 0, 1).is_err());
        assert!(mean_shift(&e, &d, &DVec::zeros(3), 10, 1).is_err());
    }
}

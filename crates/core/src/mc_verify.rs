//! Simulation-based Monte-Carlo yield verification (paper Eqs. 6–7).
//!
//! Each sample is evaluated at the per-spec worst-case operating points;
//! samples sharing a worst-case corner share one simulation, which is the
//! sharing behind the paper's effort bound `N* ≤ N·min(n_spec, 2^dim(Θ))`.
//!
//! All samples are drawn up front (in the same RNG order a serial loop
//! would use) and evaluated as one batch per corner group, so running
//! against an [`EvalService`](specwise_exec::EvalService) spreads the
//! simulations over its worker pool without changing any result bit.

use rand::rngs::StdRng;
use rand::SeedableRng;
use specwise_ckt::{CircuitEnv, CktError, OperatingPoint};
use specwise_linalg::DVec;
use specwise_stat::{RunningMoments, StandardNormal, YieldEstimate};
use specwise_trace::Tracer;

use crate::estimator::{
    classify_sample, evaluate_by_corner, traced, verification_corners, Accumulator, SampleOutcome,
};
use crate::SpecwiseError;

/// Result of a simulation-based Monte-Carlo verification.
#[derive(Debug, Clone)]
pub struct McVerification {
    /// The verified yield `Ỹ`.
    pub yield_estimate: YieldEstimate,
    /// Per-spec failing sample counts.
    pub per_spec_bad: Vec<usize>,
    /// Per-spec streaming moments of the *margins* over the samples
    /// (mean = `µ_f − f_b`, std-dev = `σ_f`) — the inputs of the paper's
    /// Table 2 improvement decomposition.
    pub per_spec_margins: Vec<RunningMoments>,
    /// The worst-case operating point used for each spec.
    pub theta_wc: Vec<OperatingPoint>,
    /// Number of sample evaluations that failed to simulate (non-converged
    /// DC solves that survived any retries) or produced non-finite margins.
    /// Such samples are counted as failing every spec of their corner group
    /// instead of aborting the verification.
    pub sim_failures: usize,
    /// Samples that were degraded (simulation failure or non-finite
    /// margins) without any *observed* spec violation. Their true pass/fail
    /// status is unknown; they widen [`McVerification::yield_interval`].
    pub degraded_samples: usize,
}

impl McVerification {
    /// Per-spec bad counts in per mille.
    pub fn bad_per_mille(&self) -> Vec<f64> {
        let n = self.yield_estimate.total() as f64;
        self.per_spec_bad
            .iter()
            .map(|&b| 1000.0 * b as f64 / n)
            .collect()
    }

    /// The yield interval `[low, high]` implied by counting-and-excluding
    /// degraded samples: `low` counts every degraded sample as failing
    /// (this is [`McVerification::yield_estimate`], the conservative
    /// point estimate), `high` counts every degraded sample with no
    /// observed spec violation as passing. With no degradation the
    /// interval collapses to the point estimate.
    pub fn yield_interval(&self) -> (f64, f64) {
        let n = self.yield_estimate.total() as f64;
        let low = self.yield_estimate.value();
        let high = (low + self.degraded_samples as f64 / n).min(1.0);
        (low, high)
    }
}

/// Plain simulation Monte Carlo (paper Eqs. 6–7): every sample is
/// evaluated in every corner group (the per-spec margin moments need all
/// margins), and degraded samples are counted-and-excluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonteCarlo {
    /// Number of standardized samples (the paper used 300 per snapshot).
    pub n_samples: usize,
    /// RNG seed of the sample draw — explicit so that every run is
    /// reproducible by construction.
    pub seed: u64,
}

impl MonteCarlo {
    /// Verifies the yield of design `d`, recording one `mc_verify` span
    /// (sample count, yield, interval, per-spec bad counts and the `sims`
    /// counter) into `tracer`'s journal.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors; rejects `n_samples == 0`.
    pub fn run<E: CircuitEnv + ?Sized>(
        &self,
        env: &E,
        d: &DVec,
        tracer: &Tracer,
    ) -> Result<McVerification, SpecwiseError> {
        traced(
            tracer,
            "mc_verify",
            env,
            || self.verify(env, d),
            |span, v| {
                span.set_attr("n_samples", self.n_samples);
                span.set_attr("passed", v.yield_estimate.passed());
                span.set_attr("yield", v.yield_estimate.value());
                span.set_attr("sim_failures", v.sim_failures);
                span.set_attr("degraded_samples", v.degraded_samples);
                let (lo, hi) = v.yield_interval();
                span.set_attr("yield_low", lo);
                span.set_attr("yield_high", hi);
                span.set_attr(
                    "per_spec_bad",
                    v.per_spec_bad
                        .iter()
                        .map(|&b| b as f64)
                        .collect::<Vec<f64>>(),
                );
            },
        )
    }

    fn verify<E: CircuitEnv + ?Sized>(
        &self,
        env: &E,
        d: &DVec,
    ) -> Result<McVerification, SpecwiseError> {
        if self.n_samples == 0 {
            return Err(SpecwiseError::InvalidConfig {
                reason: "need at least one sample",
            });
        }
        let theta_wc = verification_corners(env, d)?;
        // Draw every sample first — one `fill` per sample, exactly the RNG
        // call order of a serial evaluate-as-you-draw loop.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let normal = StandardNormal::new();
        let mut samples = Vec::with_capacity(self.n_samples);
        for _ in 0..self.n_samples {
            let mut s = DVec::zeros(env.stat_dim());
            normal.fill(&mut rng, s.as_mut_slice());
            samples.push(s);
        }
        let mut state = McState::new(env.specs().len(), self.n_samples);
        evaluate_by_corner(env, d, &theta_wc, samples, &mut state)?;
        Ok(state.finish(theta_wc))
    }
}

/// Per-sample bookkeeping of a [`MonteCarlo`] run.
#[derive(Debug, Clone)]
struct McState {
    per_spec_bad: Vec<usize>,
    per_spec_margins: Vec<RunningMoments>,
    ok: Vec<bool>,
    // A sample observed violating a spec is a true failure; a sample that
    // only ever failed to evaluate might still pass — the split feeds the
    // reported yield interval.
    violated: Vec<bool>,
    degraded: Vec<bool>,
    sim_failures: usize,
}

impl McState {
    fn new(n_spec: usize, n_samples: usize) -> McState {
        McState {
            per_spec_bad: vec![0; n_spec],
            per_spec_margins: vec![RunningMoments::new(); n_spec],
            ok: vec![true; n_samples],
            violated: vec![false; n_samples],
            degraded: vec![false; n_samples],
            sim_failures: 0,
        }
    }

    fn finish(self, theta_wc: Vec<OperatingPoint>) -> McVerification {
        let n_samples = self.ok.len();
        let passed = self.ok.iter().filter(|&&x| x).count();
        let degraded_samples = (0..n_samples)
            .filter(|&j| self.degraded[j] && !self.violated[j])
            .count();
        McVerification {
            yield_estimate: YieldEstimate::from_counts(passed, n_samples),
            per_spec_bad: self.per_spec_bad,
            per_spec_margins: self.per_spec_margins,
            theta_wc,
            sim_failures: self.sim_failures,
            degraded_samples,
        }
    }
}

impl Accumulator for McState {
    fn live(&self, _sample: usize) -> bool {
        true
    }

    fn accumulate(
        &mut self,
        group_specs: &[usize],
        sample: usize,
        result: Result<DVec, CktError>,
    ) -> Result<(), SpecwiseError> {
        match classify_sample(result, group_specs)? {
            SampleOutcome::Valid(margins) => {
                for &i in group_specs {
                    self.per_spec_margins[i].push(margins[i]);
                    if margins[i] < 0.0 {
                        self.per_spec_bad[i] += 1;
                        self.ok[sample] = false;
                        self.violated[sample] = true;
                    }
                }
            }
            // A degraded sample is a nonfunctional circuit: count it as
            // failing every spec of this group instead of aborting the
            // verification, keeping any finite margins for the moments.
            SampleOutcome::Degraded(margins) => {
                self.sim_failures += 1;
                self.degraded[sample] = true;
                for &i in group_specs {
                    self.per_spec_bad[i] += 1;
                    if let Some(m) = &margins {
                        if m[i].is_finite() {
                            self.per_spec_margins[i].push(m[i]);
                        }
                    }
                }
                self.ok[sample] = false;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specwise_ckt::{AnalyticEnv, DesignParam, DesignSpace, SimPhase, Spec, SpecKind};
    use specwise_exec::{EvalService, ExecConfig, RetryPolicy};

    fn mc_verify<E: CircuitEnv + ?Sized>(
        env: &E,
        d: &DVec,
        n_samples: usize,
        seed: u64,
    ) -> Result<McVerification, SpecwiseError> {
        MonteCarlo { n_samples, seed }.run(env, d, &Tracer::disabled())
    }

    fn env() -> AnalyticEnv {
        AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", -10.0, 10.0, 1.0,
            )]))
            .stat_dim(2)
            .spec(Spec::new("f0", "", SpecKind::LowerBound, 0.0))
            .spec(Spec::new("f1", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| DVec::from_slice(&[d[0] + s[0], 2.0 + s[1]]))
            .build()
            .unwrap()
    }

    #[test]
    fn yield_matches_analytic_probability() {
        let e = env();
        // Pass: Z0 > −1 AND Z1 > −2 → Φ(1)·Φ(2) ≈ 0.8413·0.9772 ≈ 0.8222.
        let v = mc_verify(&e, &DVec::from_slice(&[1.0]), 20_000, 11).unwrap();
        assert!((v.yield_estimate.value() - 0.8222).abs() < 0.01);
        // Per-spec bad rates: 1 − Φ(1) ≈ 15.9 %, 1 − Φ(2) ≈ 2.3 %.
        let bad = v.bad_per_mille();
        assert!((bad[0] - 158.7).abs() < 12.0, "bad0 = {}", bad[0]);
        assert!((bad[1] - 22.8).abs() < 6.0, "bad1 = {}", bad[1]);
        assert_eq!(v.sim_failures, 0);
    }

    #[test]
    fn margin_moments_match_distribution() {
        let e = env();
        let v = mc_verify(&e, &DVec::from_slice(&[1.0]), 20_000, 5).unwrap();
        // Margin of spec 0 is 1 + Z: mean 1, std 1.
        assert!((v.per_spec_margins[0].mean() - 1.0).abs() < 0.03);
        assert!((v.per_spec_margins[0].std_dev() - 1.0).abs() < 0.03);
        assert!((v.per_spec_margins[1].mean() - 2.0).abs() < 0.03);
    }

    #[test]
    fn shares_simulations_across_specs() {
        let e = env();
        e.reset_sim_count();
        let n = 500;
        let _ = mc_verify(&e, &DVec::from_slice(&[1.0]), n, 1).unwrap();
        // 4 corner sims + N (both specs share one θ_wc since the margins
        // are θ-independent → single group).
        assert_eq!(e.sim_count(), 4 + n as u64);
        // All of them are attributed to the verification phase.
        let by_phase = e.sim_phase_counts();
        assert_eq!(by_phase[SimPhase::Verification.index()], 4 + n as u64);
    }

    #[test]
    fn deterministic_for_seed() {
        let e = env();
        let a = mc_verify(&e, &DVec::from_slice(&[0.5]), 2_000, 42).unwrap();
        let b = mc_verify(&e, &DVec::from_slice(&[0.5]), 2_000, 42).unwrap();
        assert_eq!(a.yield_estimate, b.yield_estimate);
        assert_eq!(a.per_spec_bad, b.per_spec_bad);
    }

    #[test]
    fn parallel_service_matches_bare_env_bit_for_bit() {
        let e = env();
        let d = DVec::from_slice(&[0.5]);
        let serial = mc_verify(&e, &d, 2_000, 42).unwrap();
        for workers in [1usize, 2, 8] {
            let cfg = ExecConfig {
                workers,
                cache_capacity: 0,
                retry: RetryPolicy::none(),
                min_parallel_batch: 2,
            };
            let svc = EvalService::new(&e, cfg);
            let par = mc_verify(&svc, &d, 2_000, 42).unwrap();
            assert_eq!(
                serial.yield_estimate, par.yield_estimate,
                "workers = {workers}"
            );
            assert_eq!(serial.per_spec_bad, par.per_spec_bad);
            for (a, b) in serial.per_spec_margins.iter().zip(&par.per_spec_margins) {
                assert_eq!(a.mean().to_bits(), b.mean().to_bits());
                assert_eq!(a.std_dev().to_bits(), b.std_dev().to_bits());
            }
        }
    }

    #[test]
    fn non_converging_sample_degrades_to_counted_failure() {
        // The DC solve "diverges" whenever s0 > 1.5 — roughly Φ(−1.5) ≈
        // 6.7 % of the samples. The verification must not abort: those
        // samples count as failing every spec of their group.
        let e = AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", -10.0, 10.0, 1.0,
            )]))
            .stat_dim(2)
            .spec(Spec::new("f0", "", SpecKind::LowerBound, 0.0))
            .spec(Spec::new("f1", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| DVec::from_slice(&[d[0] + s[0], 2.0 + s[1]]))
            .fail_when_stat(|_, s| s[0] > 1.5)
            .build()
            .unwrap();
        let d = DVec::from_slice(&[1.0]);
        let n = 4_000;
        let v = mc_verify(&e, &d, n, 7).unwrap();
        let frac = v.sim_failures as f64 / n as f64;
        assert!(frac > 0.03 && frac < 0.12, "Φ(−1.5) ≈ 6.7 %, got {frac}");
        // Both specs of the shared group inherit every degraded sample.
        assert!(v.per_spec_bad[1] >= v.sim_failures);
        // The same run through a retrying EvalService degrades identically
        // (the failure region is open — no perturbation recovers it) and
        // reports the failures in its counters.
        let svc = EvalService::new(
            &e,
            ExecConfig {
                workers: 2,
                cache_capacity: 0,
                retry: RetryPolicy {
                    max_retries: 2,
                    perturb: 1e-9,
                },
                min_parallel_batch: 2,
            },
        );
        let vs = mc_verify(&svc, &d, n, 7).unwrap();
        assert_eq!(vs.sim_failures, v.sim_failures);
        assert_eq!(vs.yield_estimate, v.yield_estimate);
        let report = svc.report();
        assert_eq!(report.sim_failures, v.sim_failures as u64);
        assert!(report.retries >= 2 * report.sim_failures);
    }

    #[test]
    fn degraded_samples_widen_the_yield_interval() {
        let e = AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", -10.0, 10.0, 1.0,
            )]))
            .stat_dim(2)
            .spec(Spec::new("f0", "", SpecKind::LowerBound, 0.0))
            .spec(Spec::new("f1", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| DVec::from_slice(&[d[0] + s[0], 2.0 + s[1]]))
            .fail_when_stat(|_, s| s[0] > 1.5)
            .build()
            .unwrap();
        let n = 4_000;
        let v = mc_verify(&e, &DVec::from_slice(&[1.0]), n, 7).unwrap();
        assert!(v.sim_failures > 0);
        assert!(v.degraded_samples > 0);
        let (lo, hi) = v.yield_interval();
        // Low end is the conservative point estimate (degraded = failing);
        // the width is exactly the unresolved degraded fraction.
        assert_eq!(lo, v.yield_estimate.value());
        let width = v.degraded_samples as f64 / n as f64;
        assert!((hi - lo - width).abs() < 1e-12, "({lo}, {hi}) vs {width}");
    }

    #[test]
    fn non_finite_margins_never_count_as_passing() {
        // NaN margins in a band of samples: without the guard `NaN < 0.0`
        // is false and the sample would silently pass.
        let e = AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", -10.0, 10.0, 1.0,
            )]))
            .stat_dim(2)
            .spec(Spec::new("f0", "", SpecKind::LowerBound, 0.0))
            .spec(Spec::new("f1", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| {
                let f0 = if s[0] > 1.5 { f64::NAN } else { d[0] + s[0] };
                DVec::from_slice(&[f0, 2.0 + s[1]])
            })
            .build()
            .unwrap();
        let n = 4_000;
        let v = mc_verify(&e, &DVec::from_slice(&[1.0]), n, 7).unwrap();
        assert!(v.sim_failures > 0, "NaN band must register as degradation");
        assert!(v.yield_estimate.value() < 1.0);
        // The margin moments are not poisoned by the NaNs.
        assert!(v.per_spec_margins[0].mean().is_finite());
        assert!(v.per_spec_margins[1].mean().is_finite());
        // NaN samples count as failing spec 0 (conservatively).
        assert!(v.per_spec_bad[0] >= v.sim_failures);
    }

    #[test]
    fn rejects_zero_samples() {
        let e = env();
        assert!(mc_verify(&e, &DVec::from_slice(&[1.0]), 0, 1).is_err());
    }
}

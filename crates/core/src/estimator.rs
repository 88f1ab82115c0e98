//! The pluggable yield-estimation layer: one trait, one driver, many
//! estimators.
//!
//! Yield verification used to exist as near-copies of one loop — plain,
//! traced, batched, fault-hardened, budget-wrapped — spread over
//! `mc_verify`, `importance`, and their `*_traced` forks. This module
//! collapses them into a single four-stage contract:
//!
//! 1. **propose** — the estimator draws every sample up front, in the
//!    exact RNG order a serial draw-then-evaluate loop would use, so the
//!    result is bit-identical at any worker count;
//! 2. **evaluate-batch** — the shared driver groups specs by identical
//!    worst-case operating corner and dispatches one [`EvalPoint`] batch
//!    per group, its points unmemoized so the samples do not churn the
//!    memo cache, so an [`EvalService`](specwise_exec::EvalService)
//!    spreads the simulations over its worker pool without changing any
//!    result bit;
//! 3. **accumulate** — the estimator folds each sample result through the
//!    shared degradation ladder ([`classify_sample`]): retry exhaustion,
//!    soft `KillSwitch` budget starvation and non-finite
//!    margins all surface as `is_simulation_failure()` style degradations
//!    and become counted-and-excluded samples instead of aborts;
//! 4. **interval** — the estimator finalizes a result whose yield interval
//!    widens by the unresolved degraded mass instead of silently biasing
//!    the point estimate.
//!
//! The driver — [`estimate_yield`] — also owns span emission: tracing is
//! pure observation (one span per verification with the estimator's
//! attributes and the simulation effort), so there are no separate
//! `*_traced` entry points anymore.

use std::sync::Arc;

use specwise_ckt::{CktError, OperatingPoint, SimPhase};
use specwise_exec::{EvalPoint, Evaluator};
use specwise_linalg::DVec;
use specwise_trace::{Span, Tracer};
use specwise_wcd::worst_case_corners;

use crate::SpecwiseError;

/// The four-stage yield-estimation contract (see the module docs).
///
/// Implementors own the proposal distribution, the per-sample bookkeeping
/// and the final interval; the shared driver [`estimate_yield`] owns
/// worst-case-corner grouping, batch dispatch and span emission. The
/// estimators shipped with the crate are
/// [`MonteCarlo`](crate::MonteCarlo) (paper Eqs. 6–7),
/// [`MeanShiftIs`](crate::MeanShiftIs) (paper Eqs. 11–12) and
/// [`NormMinIs`](crate::NormMinIs) (minimum-norm failure-point importance
/// sampling for the high-sigma regime where mean-shift collapses).
pub trait YieldEstimator {
    /// Mutable per-run state threaded from `propose` through `accumulate`
    /// into `finalize`.
    type State;
    /// The estimator's result type.
    type Output;

    /// Short machine-readable name reported in logs and `status`
    /// (`"mc"`, `"is"`, `"norm-min"`).
    fn name(&self) -> &'static str;

    /// Span name recorded in the journal (`"mc_verify"`, `"is_verify"`,
    /// `"norm_min_verify"`).
    fn span_name(&self) -> &'static str;

    /// Validates the options against the environment before any
    /// simulation runs.
    ///
    /// # Errors
    ///
    /// Rejects empty sample budgets and dimension mismatches.
    fn validate<E: Evaluator + ?Sized>(&self, env: &E) -> Result<(), SpecwiseError>;

    /// Draws every sample up front (serial RNG call order) and returns the
    /// initial accumulator state. `theta_wc` holds the per-spec worst-case
    /// corners; estimators that search for a proposal center (e.g. the
    /// minimum-norm failure point) may simulate here — the driver counts
    /// that effort into the verification span.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors of any proposal-construction search.
    fn propose<E: Evaluator + ?Sized>(
        &self,
        env: &E,
        d: &DVec,
        theta_wc: &[OperatingPoint],
    ) -> Result<(Vec<DVec>, Self::State), SpecwiseError>;

    /// Whether sample `j` still needs evaluation in the next corner group.
    /// Short-circuiting estimators (importance sampling) exclude samples
    /// that already failed an earlier group, preserving the simulation
    /// count of the serial loop; plain Monte Carlo evaluates every sample
    /// in every group (its per-spec moments need all margins).
    fn live(&self, _state: &Self::State, _sample: usize) -> bool {
        true
    }

    /// Folds one batched sample result into the state. `group_specs` are
    /// the spec indices sharing this corner group's simulation.
    ///
    /// # Errors
    ///
    /// Propagates non-degradable evaluation errors (see
    /// [`classify_sample`]).
    fn accumulate(
        &self,
        state: &mut Self::State,
        group_specs: &[usize],
        sample: usize,
        result: Result<DVec, CktError>,
    ) -> Result<(), SpecwiseError>;

    /// Builds the final result from the settled state.
    fn finalize<E: Evaluator + ?Sized>(
        &self,
        env: &E,
        state: Self::State,
        theta_wc: Vec<OperatingPoint>,
    ) -> Self::Output;

    /// Records the estimator's span attributes (the driver adds the
    /// `sims` counter).
    fn annotate(&self, span: &mut Span, output: &Self::Output);
}

/// How one batched sample evaluation settles under the shared degradation
/// ladder. This is the single place where the fault-hardening contract is
/// interpreted: an [`EvalService`](specwise_exec::EvalService) retry
/// exhaustion and a soft `KillSwitch` budget starvation (`specwise-harden`)
/// both surface as simulation failures, and a non-finite margin is as
/// unusable as a failed solve (`NaN < 0.0` is false — without the guard a
/// NaN sample would silently count as passing).
#[derive(Debug, Clone, PartialEq)]
pub enum SampleOutcome {
    /// Usable margins for every spec of the sample's corner group.
    Valid(DVec),
    /// Counted-and-excluded: the margins are carried along when the solve
    /// produced any (so per-spec moments can still use the finite
    /// entries), `None` when the simulation itself failed.
    Degraded(Option<DVec>),
}

/// Classifies one sample result for `group_specs` (the accumulator policy
/// shared by every estimator — see [`SampleOutcome`]).
///
/// # Errors
///
/// Propagates errors that are not simulation failures (dimension
/// mismatches, poisoned workers): those abort the verification.
pub fn classify_sample(
    result: Result<DVec, CktError>,
    group_specs: &[usize],
) -> Result<SampleOutcome, SpecwiseError> {
    match result {
        Ok(margins) if group_specs.iter().any(|&i| !margins[i].is_finite()) => {
            Ok(SampleOutcome::Degraded(Some(margins)))
        }
        Ok(margins) => Ok(SampleOutcome::Valid(margins)),
        Err(e) if e.is_simulation_failure() => Ok(SampleOutcome::Degraded(None)),
        Err(e) => Err(e.into()),
    }
}

/// Runs `estimator` at design `d`, recording one span (named
/// [`YieldEstimator::span_name`], carrying the estimator's attributes and
/// the simulation effort) into `tracer`'s journal. The disabled tracer
/// records nothing and costs one branch.
///
/// This is the shared driver of every yield verification: per-spec
/// worst-case corners at the nominal statistical point, specs grouped by
/// identical corner to share simulations (the sharing behind the paper's
/// effort bound `N* ≤ N·min(n_spec, 2^dim(Θ))`), one batch per group.
///
/// # Errors
///
/// Propagates validation and evaluation errors.
pub fn estimate_yield<X: YieldEstimator, E: Evaluator + ?Sized>(
    estimator: &X,
    env: &E,
    d: &DVec,
    tracer: &Tracer,
) -> Result<X::Output, SpecwiseError> {
    let mut span = tracer.span(estimator.span_name());
    let sims_before = if span.is_enabled() {
        env.sim_count()
    } else {
        0
    };
    let result = estimate_inner(estimator, env, d)?;
    if span.is_enabled() {
        estimator.annotate(&mut span, &result);
        span.add_count("sims", env.sim_count() - sims_before);
    }
    Ok(result)
}

fn estimate_inner<X: YieldEstimator, E: Evaluator + ?Sized>(
    estimator: &X,
    env: &E,
    d: &DVec,
) -> Result<X::Output, SpecwiseError> {
    estimator.validate(env)?;
    env.set_sim_phase(SimPhase::Verification);

    // Per-spec worst-case corners at the nominal statistical point.
    let corners = worst_case_corners(env, d, &DVec::zeros(env.stat_dim()))?;
    let theta_wc: Vec<OperatingPoint> = corners.iter().map(|(t, _)| *t).collect();

    // Group specs by identical worst-case corner to share simulations.
    let mut groups: Vec<(OperatingPoint, Vec<usize>)> = Vec::new();
    for (i, t) in theta_wc.iter().enumerate() {
        match groups.iter_mut().find(|(g, _)| g == t) {
            Some((_, specs)) => specs.push(i),
            None => groups.push((*t, vec![i])),
        }
    }

    let (samples, mut state) = estimator.propose(env, d, &theta_wc)?;
    let n = samples.len();

    // The design vector and each sample are shared by reference across
    // every point of every corner group.
    let d_arc: Arc<DVec> = Arc::new(d.clone());
    let samples: Vec<Arc<DVec>> = samples.into_iter().map(Arc::new).collect();
    for (theta, specs) in &groups {
        // Samples a short-circuiting estimator has already settled are
        // excluded — the serial loop would have `break`ed before
        // simulating them here.
        let live: Vec<usize> = (0..n).filter(|&j| estimator.live(&state, j)).collect();
        if live.is_empty() {
            break;
        }
        let points: Vec<EvalPoint> = live
            .iter()
            .map(|&j| {
                EvalPoint::new(Arc::clone(&d_arc), Arc::clone(&samples[j]), *theta).unmemoized()
            })
            .collect();
        let results = env.eval_margins_batch(&points);
        for (&j, result) in live.iter().zip(results) {
            estimator.accumulate(&mut state, specs, j, result)?;
        }
    }

    Ok(estimator.finalize(env, state, theta_wc))
}

/// Which yield estimator verifies a run — selectable per job in
/// `specwise-serve` and via the `SPECWISE_ESTIMATOR` environment knob
/// (`mc` | `is` | `norm-min`, malformed values warn and keep the
/// default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstimatorKind {
    /// Plain simulation Monte Carlo at the worst-case corners (Eqs. 6–7).
    #[default]
    Mc,
    /// Mean-shift importance sampling at the dominant worst-case point
    /// (Eqs. 11–12).
    MeanShift,
    /// Minimum-norm failure-point importance sampling with self-normalized
    /// weights and an effective-sample-size guard (high-sigma regime).
    NormMin,
}

impl EstimatorKind {
    /// The knob/wire name of the estimator.
    pub fn as_str(&self) -> &'static str {
        match self {
            EstimatorKind::Mc => "mc",
            EstimatorKind::MeanShift => "is",
            EstimatorKind::NormMin => "norm-min",
        }
    }

    /// Reads `SPECWISE_ESTIMATOR` through the shared warn-and-default
    /// parser: unset or malformed values keep [`EstimatorKind::Mc`] (a
    /// malformed value prints a one-line stderr warning naming the
    /// variable and the rejected value).
    pub fn from_env() -> EstimatorKind {
        specwise_exec::config::parse_env_knob("SPECWISE_ESTIMATOR").unwrap_or_default()
    }
}

impl std::str::FromStr for EstimatorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<EstimatorKind, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "mc" => Ok(EstimatorKind::Mc),
            "is" => Ok(EstimatorKind::MeanShift),
            "norm-min" => Ok(EstimatorKind::NormMin),
            other => Err(format!("unknown estimator {other:?} (mc | is | norm-min)")),
        }
    }
}

impl std::fmt::Display for EstimatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Unified summary of a tail (non-MC) verification attached to an
/// optimizer snapshot: what `run_report` and the serve `status` need to
/// distinguish mixed-estimator runs without carrying each estimator's full
/// result type through the checkpoint format.
#[derive(Debug, Clone, PartialEq)]
pub struct TailVerification {
    /// Which estimator produced the numbers.
    pub estimator: EstimatorKind,
    /// Estimated failure probability `P(any spec fails)`.
    pub failure_probability: f64,
    /// Estimated yield (degraded samples counted as failing).
    pub yield_value: f64,
    /// Low end of the yield interval.
    pub yield_low: f64,
    /// High end of the yield interval (degraded mass returned to passing).
    pub yield_high: f64,
    /// Effective sample size over the failing samples' weights.
    pub effective_sample_size: f64,
    /// Sample evaluations that failed to simulate or produced non-finite
    /// margins (counted-and-excluded).
    pub sim_failures: usize,
    /// `true` when the estimator's quality guard tripped (e.g. the
    /// norm-min ESS guard) and the interval was widened to cover its
    /// ignorance instead of reporting a confident wrong number.
    pub degraded: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_kind_parses_knob_values() {
        assert_eq!("mc".parse::<EstimatorKind>().unwrap(), EstimatorKind::Mc);
        assert_eq!(
            " IS ".parse::<EstimatorKind>().unwrap(),
            EstimatorKind::MeanShift
        );
        assert_eq!(
            "norm-min".parse::<EstimatorKind>().unwrap(),
            EstimatorKind::NormMin
        );
        assert!("normmin".parse::<EstimatorKind>().is_err());
        assert_eq!(EstimatorKind::default(), EstimatorKind::Mc);
        assert_eq!(EstimatorKind::NormMin.to_string(), "norm-min");
    }

    #[test]
    fn classify_routes_the_degradation_ladder() {
        use specwise_linalg::DVec;
        let specs = [0usize, 1];
        let ok = classify_sample(Ok(DVec::from_slice(&[1.0, -2.0])), &specs).unwrap();
        assert_eq!(ok, SampleOutcome::Valid(DVec::from_slice(&[1.0, -2.0])));
        let nan = classify_sample(Ok(DVec::from_slice(&[f64::NAN, 0.5])), &specs).unwrap();
        assert!(matches!(nan, SampleOutcome::Degraded(Some(_))));
        // A NaN outside the group's specs is not this group's problem.
        let other = classify_sample(Ok(DVec::from_slice(&[f64::NAN, 0.5])), &[1]).unwrap();
        assert!(matches!(other, SampleOutcome::Valid(_)));
    }
}

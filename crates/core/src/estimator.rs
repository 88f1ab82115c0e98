//! What every yield verification shares: the corners, the batch loop and
//! the span.
//!
//! Each estimator — [`MonteCarlo`](crate::MonteCarlo) (paper Eqs. 6–7),
//! [`MeanShiftIs`](crate::MeanShiftIs) and [`NormMinIs`](crate::NormMinIs)
//! (importance sampling, extensions beyond the paper) — has one `run`
//! method that reads top to bottom: validate, switch the simulation phase
//! and find the worst-case corners ([`verification_corners`]), draw every
//! sample up front (norm-min searches for its proposal first), evaluate
//! them one corner group at a time ([`evaluate_by_corner`]) and settle the
//! result. [`traced`] wraps the whole run in its journal span.
//!
//! * **Bits at any worker count.** Every sample is drawn before any is
//!   evaluated, in the RNG order of a serial draw-then-evaluate loop, and
//!   each corner group goes out as one unmemoized [`EvalPoint`] batch, so
//!   an [`EvalService`](specwise_exec::EvalService) spreads the
//!   simulations over its pool without changing a result bit or churning
//!   the memo cache.
//! * **Degradation.** Each sample result goes through one ladder
//!   ([`classify_sample`]): retry exhaustion, soft `KillSwitch` budget
//!   starvation and non-finite margins become counted-and-excluded
//!   samples that widen the yield interval instead of aborting the run.
//! * **Tracing is observation.** The disabled tracer records nothing and
//!   costs one branch; there are no separate traced entry points.

use std::sync::Arc;

use specwise_ckt::{CircuitEnv, CktError, EvalPoint, OperatingPoint, SimPhase};
use specwise_linalg::DVec;
use specwise_trace::{Span, Tracer};
use specwise_wcd::worst_case_corners;

use crate::SpecwiseError;

/// How one batched sample evaluation settles under the shared degradation
/// ladder. This is the single place where the fault-hardening contract is
/// interpreted: an [`EvalService`](specwise_exec::EvalService) retry
/// exhaustion and a soft `KillSwitch` budget starvation (`specwise-harden`)
/// both surface as simulation failures, and a non-finite margin is as
/// unusable as a failed solve (`NaN < 0.0` is false — without the guard a
/// NaN sample would silently count as passing).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SampleOutcome {
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
pub(crate) fn classify_sample(
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

/// Per-sample bookkeeping of one verification, fed by
/// [`evaluate_by_corner`].
pub(crate) trait Accumulator {
    /// Whether sample `j` still needs evaluation in the next corner group.
    /// Importance sampling settles a sample at its first failing group (the
    /// serial loop would have `break`ed); plain Monte Carlo evaluates every
    /// sample in every group, since its per-spec moments need all margins.
    fn live(&self, sample: usize) -> bool;

    /// Folds one sample result of the corner group whose specs are
    /// `group_specs`.
    ///
    /// # Errors
    ///
    /// Propagates non-degradable evaluation errors (see
    /// [`classify_sample`]).
    fn accumulate(
        &mut self,
        group_specs: &[usize],
        sample: usize,
        result: Result<DVec, CktError>,
    ) -> Result<(), SpecwiseError>;
}

/// Switches `env` to the verification phase and returns each spec's
/// worst-case operating corner at the nominal statistical point ŝ = 0.
pub(crate) fn verification_corners<E: CircuitEnv + ?Sized>(
    env: &E,
    d: &DVec,
) -> Result<Vec<OperatingPoint>, SpecwiseError> {
    env.set_sim_phase(SimPhase::Verification);
    let corners = worst_case_corners(env, d, &DVec::zeros(env.stat_dim()))?;
    Ok(corners.iter().map(|(t, _)| *t).collect())
}

/// Evaluates `samples` at design `d`, one batch per distinct corner of
/// `theta_wc` (groups in the order of their first spec), and feeds every
/// result to `acc`. Specs sharing a corner share one simulation per
/// sample: the sharing behind the paper's effort bound
/// `N* ≤ N·min(n_spec, 2^dim(Θ))`.
pub(crate) fn evaluate_by_corner<E: CircuitEnv + ?Sized>(
    env: &E,
    d: &DVec,
    theta_wc: &[OperatingPoint],
    samples: Vec<DVec>,
    acc: &mut impl Accumulator,
) -> Result<(), SpecwiseError> {
    let mut groups: Vec<(OperatingPoint, Vec<usize>)> = Vec::new();
    for (i, t) in theta_wc.iter().enumerate() {
        match groups.iter_mut().find(|(g, _)| g == t) {
            Some((_, specs)) => specs.push(i),
            None => groups.push((*t, vec![i])),
        }
    }

    // The design vector and each sample are shared by reference across
    // every point of every corner group.
    let n = samples.len();
    let d_arc: Arc<DVec> = Arc::new(d.clone());
    let samples: Vec<Arc<DVec>> = samples.into_iter().map(Arc::new).collect();
    for (theta, specs) in &groups {
        let live: Vec<usize> = (0..n).filter(|&j| acc.live(j)).collect();
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
            acc.accumulate(specs, j, result)?;
        }
    }
    Ok(())
}

/// Runs `verify` inside a span named `name`: on success `annotate` stamps
/// the result's attributes and the span gets the simulations spent as its
/// `sims` counter. The disabled tracer records nothing and costs one
/// branch.
pub(crate) fn traced<E: CircuitEnv + ?Sized, T>(
    tracer: &Tracer,
    name: &str,
    env: &E,
    verify: impl FnOnce() -> Result<T, SpecwiseError>,
    annotate: impl FnOnce(&mut Span, &T),
) -> Result<T, SpecwiseError> {
    let mut span = tracer.span(name);
    let sims_before = if span.is_enabled() {
        env.sim_count()
    } else {
        0
    };
    let result = verify()?;
    if span.is_enabled() {
        annotate(&mut span, &result);
        span.add_count("sims", env.sim_count() - sims_before);
    }
    Ok(result)
}

/// Which yield estimator verifies a run (`mc` | `is` | `norm-min`) —
/// [`OptimizerConfig::estimator`](crate::OptimizerConfig::estimator), the
/// `estimator` field of a `specwise-serve` job, or `SPECWISE_ESTIMATOR` in
/// programs that call [`EstimatorKind::from_env`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstimatorKind {
    /// Plain simulation Monte Carlo at the worst-case corners (Eqs. 6–7).
    #[default]
    Mc,
    /// Mean-shift importance sampling at the dominant worst-case point
    /// (an extension beyond the paper; DESIGN.md §12).
    MeanShift,
    /// Minimum-norm failure-point importance sampling: a boundary search
    /// places the mean-shift proposal, and an effective-sample-size guard
    /// widens a degenerate result to `[0, 1]` (high-sigma regime).
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
        specwise_ckt::env_knob::parse_env_knob("SPECWISE_ESTIMATOR").unwrap_or_default()
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

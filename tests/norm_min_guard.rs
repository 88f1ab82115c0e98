//! Property test of the norm-minimization estimator's ESS guard: on a
//! degenerate shifted proposal (a failure region the search cannot reach,
//! or one so far out that no proposal sample lands in it) the estimator
//! must degrade to the vacuous `[0, 1]` yield interval — never panic and
//! never report a silently-bad point estimate as trustworthy.

use proptest::prelude::*;
use specwise::{NormMinIs, NormMinOptions, NormMinResult};
use specwise_ckt::{AnalyticEnv, CircuitEnv, DesignParam, DesignSpace, Spec, SpecKind};
use specwise_linalg::DVec;
use specwise_trace::Tracer;

/// margin = b + s0: a healthy linear spec whose failure region the
/// minimum-norm search finds directly.
fn linear_env(b: f64) -> AnalyticEnv {
    AnalyticEnv::builder()
        .design(DesignSpace::new(vec![DesignParam::new(
            "b", "", 0.0, 20.0, b,
        )]))
        .stat_dim(2)
        .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
        .performances(|d, s, _| DVec::from_slice(&[d[0] + s[0]]))
        .build()
        .unwrap()
}

/// margin = b everywhere: no failure region at all, and a zero gradient,
/// so the search has nothing to linearize and the proposal stays at the
/// origin.
fn constant_env(b: f64) -> AnalyticEnv {
    AnalyticEnv::builder()
        .design(DesignSpace::new(vec![DesignParam::new(
            "b", "", 0.0, 20.0, b,
        )]))
        .stat_dim(2)
        .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
        .performances(|d, _, _| DVec::from_slice(&[d[0]]))
        .build()
        .unwrap()
}

/// A cliff: flat margin `b` near the origin (zero gradient, so the
/// linearized search cannot see the cliff), failing only past `s0 <
/// −(b+8)` — unreachable by the unshifted proposal at any realistic
/// sample count.
fn cliff_env(b: f64) -> AnalyticEnv {
    AnalyticEnv::builder()
        .design(DesignSpace::new(vec![DesignParam::new(
            "b", "", 0.0, 20.0, b,
        )]))
        .stat_dim(2)
        .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
        .performances(move |d, s, _| {
            let cliff = -(d[0] + 8.0);
            DVec::from_slice(&[if s[0] < cliff { -1.0 } else { d[0] }])
        })
        .build()
        .unwrap()
}

fn run(env: &AnalyticEnv, seed: u64) -> NormMinResult {
    let d = env.design_space().initial();
    let options = NormMinOptions {
        n: 300,
        seed,
        ..NormMinOptions::default()
    };
    NormMinIs { options }
        .run(env, &d, &Tracer::disabled())
        .expect("norm-min verification must not error on degenerate proposals")
}

/// Invariants every outcome must satisfy, guarded or not.
fn assert_sane(r: &NormMinResult) {
    assert!(
        r.sampling.failure_probability.is_finite()
            && (0.0..=1.0).contains(&r.sampling.failure_probability),
        "failure probability must be a finite probability, got {}",
        r.sampling.failure_probability
    );
    assert!(
        r.sampling.yield_value.is_finite() && (0.0..=1.0).contains(&r.sampling.yield_value),
        "yield must be a finite probability, got {}",
        r.sampling.yield_value
    );
    assert!(
        r.sampling.effective_sample_size.is_finite() && r.sampling.effective_sample_size >= 0.0,
        "ESS must be finite and non-negative, got {}",
        r.sampling.effective_sample_size
    );
    let (lo, hi) = r.yield_interval();
    assert!(
        (0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi) && lo <= hi,
        "interval must be ordered within [0, 1], got [{lo}, {hi}]"
    );
    if r.ess_degraded {
        assert_eq!(
            r.yield_interval(),
            (0.0, 1.0),
            "a tripped guard must widen to the vacuous interval"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn healthy_linear_specs_never_produce_broken_outcomes(
        b in 0.5..4.0f64,
        seed in 0u64..1000,
    ) {
        let r = run(&linear_env(b), seed);
        assert_sane(&r);
    }

    #[test]
    fn unreachable_failure_regions_trip_the_guard(
        b in 0.5..6.0f64,
        seed in 0u64..1000,
    ) {
        let r = run(&constant_env(b), seed);
        assert_sane(&r);
        prop_assert!(
            r.ess_degraded,
            "no failure region at all must trip the ESS guard (ESS {})",
            r.sampling.effective_sample_size
        );
        prop_assert_eq!(r.yield_interval(), (0.0, 1.0));
    }

    #[test]
    fn invisible_cliffs_degrade_instead_of_estimating_garbage(
        b in 0.5..6.0f64,
        seed in 0u64..1000,
    ) {
        let r = run(&cliff_env(b), seed);
        assert_sane(&r);
        prop_assert!(
            r.ess_degraded,
            "a cliff the linearization cannot see must trip the guard (ESS {})",
            r.sampling.effective_sample_size
        );
    }
}

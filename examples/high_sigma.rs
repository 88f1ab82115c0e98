//! High-sigma verification: why plain Monte Carlo goes blind in the tail
//! and how the norm-minimization estimator fixes it.
//!
//! The spec is synthetic with a known answer — margin `b + s0`, so the
//! true failure probability is `Φ(−b)` exactly. At `b = 4.8` that is
//! `7.9e−7`: a 4 000-sample Monte Carlo run sees zero failures and reports
//! a (false) 100 % yield, while the norm-min estimator finds the
//! minimum-norm failure point, recenters its proposal there, and recovers
//! the failure probability to a few percent with the same budget.
//!
//! Run with `cargo run --release --example high_sigma`.
//! Set `SPECWISE_ESTIMATOR=mc|is|norm-min` to pick the estimator the final
//! section runs (default `norm-min`), and `SPECWISE_EXAMPLE_QUICK=1` for a
//! smaller smoke-test budget.

use std::error::Error;

use specwise::{EstimatorKind, MeanShiftIs, MonteCarlo, NormMinIs, NormMinOptions, Tracer};
use specwise_ckt::{AnalyticEnv, CircuitEnv, DesignParam, DesignSpace, Spec, SpecKind};
use specwise_linalg::DVec;
use specwise_stat::std_normal_cdf;

const B: f64 = 4.8;

fn high_sigma_env() -> AnalyticEnv {
    AnalyticEnv::builder()
        .design(DesignSpace::new(vec![DesignParam::new(
            "b", "", 0.0, 10.0, B,
        )]))
        .stat_dim(2)
        .spec(Spec::new("margin", "", SpecKind::LowerBound, 0.0))
        .performances(|d, s, _| DVec::from_slice(&[d[0] + s[0]]))
        .build()
        .expect("synthetic env builds")
}

fn main() -> Result<(), Box<dyn Error>> {
    let quick = std::env::var("SPECWISE_EXAMPLE_QUICK").is_ok();
    let n = if quick { 1_000 } else { 4_000 };
    let env = high_sigma_env();
    let d = env.design_space().initial();
    let p_true = std_normal_cdf(-B);
    println!("true failure probability at {B} sigma: {p_true:.3e}");

    // Plain Monte Carlo at the same budget: structurally blind — the
    // failure region holds ~1e-6 of the sampling mass, so every sample
    // passes and the reported interval collapses onto 100 % yield.
    let mc = MonteCarlo {
        n_samples: n,
        seed: 2001,
    }
    .run(&env, &d, &Tracer::disabled())?;
    println!(
        "plain MC, {n} samples: {} failures observed, yield {:.4} %",
        n - mc.yield_estimate.passed(),
        100.0 * mc.yield_estimate.value()
    );

    // The selected estimator (SPECWISE_ESTIMATOR, default norm-min here).
    let kind = if std::env::var("SPECWISE_ESTIMATOR").is_ok() {
        EstimatorKind::from_env()
    } else {
        EstimatorKind::NormMin
    };
    match kind {
        EstimatorKind::Mc => {
            println!("estimator mc: see the plain MC run above");
        }
        EstimatorKind::MeanShift => {
            // Mean-shift IS needs a worst-case point from the caller; for
            // this linear spec the exact one is s = (−b, 0).
            let r = MeanShiftIs {
                shift: DVec::from_slice(&[-B, 0.0]),
                n,
                seed: 2001,
            }
            .run(&env, &d, &Tracer::disabled())?;
            println!(
                "estimator is, {n} samples: failure probability {:.3e} \
                 (std err {:.1e}, ESS {:.0})",
                r.failure_probability, r.std_error, r.effective_sample_size
            );
        }
        EstimatorKind::NormMin => {
            let options = NormMinOptions {
                n,
                seed: 2001,
                ..NormMinOptions::default()
            };
            let r = NormMinIs { options }.run(&env, &d, &Tracer::disabled())?;
            let (lo, hi) = r.yield_interval();
            println!(
                "estimator norm-min, {n} samples (+{} search sims): \
                 failure probability {:.3e} (std err {:.1e}, ESS {:.0})",
                r.search_sims,
                r.sampling.failure_probability,
                r.sampling.std_error,
                r.sampling.effective_sample_size
            );
            println!(
                "  beta {:.2} (critical spec {}), yield interval [{:.6}, {:.6}]{}",
                r.beta,
                r.critical_spec,
                lo,
                hi,
                if r.ess_degraded {
                    " — ESS GUARD TRIPPED, estimate untrusted"
                } else {
                    ""
                }
            );
            assert!(
                r.sampling.failure_probability > 0.0,
                "norm-min must see the tail plain MC misses"
            );
        }
    }
    Ok(())
}

//! Estimator-layer benchmarks (ISSUE 8): simulation effort of the three
//! yield estimators — plain Monte Carlo, mean-shift
//! importance sampling, and norm-minimization IS — on synthetic analytic
//! specs where the true failure probability is `Φ(−b)` by construction.
//!
//! Measurements:
//!
//! * `estimator_pass_moderate` — wall-clock of one verification pass per
//!   estimator on the moderate spec (`b = 2`, yield ≈ 97.7 %).
//! * sims-to-±1 %-interval — smallest simulation budget at which each
//!   estimator's standard error on the *yield* drops to ≤ 0.01 (the ±1 %
//!   interval of the paper's verification tables), found by doubling the
//!   sample count; printed and recorded in `BENCH_estimator.json`.
//! * high-sigma case (`b = 4.8`, failure probability ≈ 7.9e−7): at a
//!   4 000-sample budget plain MC sees zero failures (its interval
//!   collapses to a false 100 % yield), while norm-min reports a nonzero
//!   failure probability with ESS ≥ 20. The equivalent MC budget for
//!   norm-min's relative precision is computed from the binomial variance
//!   and recorded as the speedup.
//!
//! Quick mode: `SPECWISE_BENCH_QUICK=1` shrinks workloads (CI smoke job).
//! Gate mode: `SPECWISE_BENCH_GATE=1` asserts the ISSUE 8 acceptance bar —
//! on the high-sigma spec, norm-min beats plain MC by ≥ 5× at equal
//! precision while MC reports zero failures at the same budget.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use specwise::{MeanShiftIs, MonteCarlo, NormMinIs, NormMinOptions, Tracer};
use specwise_ckt::{AnalyticEnv, CircuitEnv, DesignParam, DesignSpace, Spec, SpecKind};
use specwise_linalg::DVec;
use specwise_stat::std_normal_cdf;

fn quick() -> bool {
    std::env::var("SPECWISE_BENCH_QUICK").is_ok()
}

/// margin = b + s0 → failure probability Φ(−b), exactly.
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

/// The worst-case point of the linear spec: the closest failure point is
/// `s = (−b, 0)` — what the optimizer's WC analysis would hand MeanShiftIs.
fn wc_shift(b: f64) -> DVec {
    DVec::from_slice(&[-b, 0.0])
}

const MODERATE_B: f64 = 2.0;
const HIGH_SIGMA_B: f64 = 4.8;
const HIGH_SIGMA_BUDGET: usize = 4_000;
const SEED: u64 = 2001;

/// `(std error of the yield, sims spent)` for one verification pass.
fn mc_pass(env: &AnalyticEnv, n: usize) -> (f64, u64) {
    let d = env.design_space().initial();
    let before = env.sim_count();
    let mc = MonteCarlo {
        n_samples: n,
        seed: SEED,
    };
    let r = mc.run(env, &d, &Tracer::disabled()).expect("MC verifies");
    (r.yield_estimate.std_error(), env.sim_count() - before)
}

fn is_pass(env: &AnalyticEnv, b: f64, n: usize) -> (f64, u64) {
    let d = env.design_space().initial();
    let before = env.sim_count();
    let is = MeanShiftIs {
        shift: wc_shift(b),
        n,
        seed: SEED,
    };
    let r = is.run(env, &d, &Tracer::disabled()).expect("IS verifies");
    (r.std_error, env.sim_count() - before)
}

fn norm_min_pass(env: &AnalyticEnv, n: usize) -> (f64, u64) {
    let d = env.design_space().initial();
    let before = env.sim_count();
    let options = NormMinOptions {
        n,
        seed: SEED,
        ..NormMinOptions::default()
    };
    let r = NormMinIs { options }
        .run(env, &d, &Tracer::disabled())
        .expect("norm-min verifies");
    (r.sampling.std_error, env.sim_count() - before)
}

/// Doubles the sample budget until the yield's standard error is ≤ 1 %
/// absolute; returns the simulation count of the first budget that makes
/// it (search/corner overhead included).
fn sims_to_pm1pct(label: &str, pass: impl Fn(usize) -> (f64, u64)) -> u64 {
    let mut n = 64usize;
    loop {
        let (se, sims) = pass(n);
        if se <= 0.01 {
            println!("sims_to_pm1pct {label}: n={n} sims={sims} std_error={se:.5}");
            return sims;
        }
        n *= 2;
        assert!(n <= 1 << 22, "{label} never reached a ±1% interval");
    }
}

fn bench_passes(c: &mut Criterion) {
    let n = if quick() { 64 } else { 1_024 };
    let moderate = env(MODERATE_B);

    let mut group = c.benchmark_group("estimator_pass_moderate");
    if quick() {
        group
            .sample_size(3)
            .measurement_time(Duration::from_millis(200));
    } else {
        group
            .sample_size(10)
            .measurement_time(Duration::from_secs(2));
    }
    group.bench_function("mc", |bch| bch.iter(|| mc_pass(&moderate, n)));
    group.bench_function("is", |bch| bch.iter(|| is_pass(&moderate, MODERATE_B, n)));
    group.bench_function("norm_min", |bch| bch.iter(|| norm_min_pass(&moderate, n)));
    group.finish();
}

fn effort_and_gate(_c: &mut Criterion) {
    // Sims to the ±1 % yield interval on the moderate spec: all three
    // estimators can reach it; the IS family reaches it with a fraction of
    // the samples because the shifted proposals put most of their mass on
    // the informative (failing) side.
    let moderate = env(MODERATE_B);
    let mc_sims = sims_to_pm1pct("mc(b=2)", |n| mc_pass(&moderate, n));
    let is_sims = sims_to_pm1pct("is(b=2)", |n| is_pass(&moderate, MODERATE_B, n));
    let nm_sims = sims_to_pm1pct("norm-min(b=2)", |n| norm_min_pass(&moderate, n));
    println!("moderate sims-to-pm1pct: mc={mc_sims} is={is_sims} norm_min={nm_sims}");

    // High-sigma case: the budget at which plain MC is structurally blind.
    let high = env(HIGH_SIGMA_B);
    let d = high.design_space().initial();
    let p_true = std_normal_cdf(-HIGH_SIGMA_B);

    let mc = MonteCarlo {
        n_samples: HIGH_SIGMA_BUDGET,
        seed: SEED,
    }
    .run(&high, &d, &Tracer::disabled())
    .expect("MC verifies");
    let mc_failures = HIGH_SIGMA_BUDGET - mc.yield_estimate.passed();

    let before = high.sim_count();
    let options = NormMinOptions {
        n: HIGH_SIGMA_BUDGET,
        seed: SEED,
        ..NormMinOptions::default()
    };
    let nm = NormMinIs { options }
        .run(&high, &d, &Tracer::disabled())
        .expect("norm-min verifies");
    let nm_sims_high = high.sim_count() - before;

    // The MC budget that matches norm-min's relative precision, from the
    // binomial variance: se_mc = sqrt(p(1-p)/n) ≤ se_nm ⇔ n ≥ p(1-p)/se².
    let rel = nm.sampling.std_error / nm.sampling.failure_probability;
    let mc_equivalent = p_true * (1.0 - p_true) / (nm.sampling.std_error * nm.sampling.std_error);
    let speedup = mc_equivalent / nm_sims_high as f64;
    println!(
        "high-sigma b={HIGH_SIGMA_B}: p_true={p_true:.3e} \
         mc_failures_at_{HIGH_SIGMA_BUDGET}={mc_failures} \
         norm_min_p={:.3e} norm_min_rel_err={rel:.3} ess={:.1} \
         search_sims={} sims={nm_sims_high} mc_equivalent_sims={mc_equivalent:.3e} \
         speedup={speedup:.1}x",
        nm.sampling.failure_probability, nm.sampling.effective_sample_size, nm.search_sims
    );

    if std::env::var("SPECWISE_BENCH_GATE").is_ok() {
        assert_eq!(
            mc_failures, 0,
            "plain MC should be blind at the high-sigma budget"
        );
        assert!(
            nm.sampling.failure_probability > 0.0 && !nm.ess_degraded,
            "norm-min must report a nonzero, non-degraded yield loss"
        );
        assert!(
            nm.sampling.effective_sample_size >= 20.0,
            "norm-min ESS {} below the acceptance floor",
            nm.sampling.effective_sample_size
        );
        assert!(
            speedup >= 5.0,
            "norm-min must beat plain MC by >= 5x at equal precision, got {speedup:.1}x"
        );
        println!(
            "gate: norm-min vs mc {speedup:.1}x, ess {:.1} — PASS",
            nm.sampling.effective_sample_size
        );
    }
}

criterion_group!(benches, bench_passes, effort_and_gate);
criterion_main!(benches);

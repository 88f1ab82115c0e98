//! Deterministic demonstrations of the paper's two ablation mechanisms
//! (Tables 3 and 4) on an analytic mismatch problem where the ground truth
//! is known exactly — complementing the circuit-level ablation runs in
//! `examples/ablations.rs` and the `tables` harness.
//!
//! The problem: spec `quad` has margin `1 − ((s0 − s1)/√area)²` — a
//! mismatch ridge whose width grows with the "area" design parameter
//! (Pelgrom-style variance reduction). Spec `lin` needs the `bias`
//! parameter raised. Constraint: `area + bias ≤ 6`.
//!
//! * At the nominal point `s = 0` the `quad` margin's gradient w.r.t. `s`
//!   vanishes → a nominal-anchored linear model sees the spec as
//!   statistically harmless and the optimizer wastes the constrained budget
//!   on `bias` (Table 4 mechanism).
//! * The worst-case anchored model sees both the failure direction and —
//!   through the design gradient at the worst-case point — the benefit of
//!   raising `area` (the `C(d)` effect of paper Sec. 4).

use specwise::{OptimizerConfig, YieldOptimizer};
use specwise_ckt::{AnalyticEnv, CircuitEnv, DesignParam, DesignSpace, Spec, SpecKind};
use specwise_linalg::DVec;
use specwise_wcd::LinearizationPoint;

fn mismatch_env() -> AnalyticEnv {
    AnalyticEnv::builder()
        .design(DesignSpace::new(vec![
            DesignParam::new("area", "", 0.5, 8.0, 1.0),
            DesignParam::new("bias", "", 0.0, 4.0, 0.5),
        ]))
        .stat_dim(2)
        .spec(Spec::new("quad", "", SpecKind::LowerBound, 0.0))
        .spec(Spec::new("lin", "", SpecKind::LowerBound, 0.0))
        .performances(|d, s, _| {
            let z = (s[0] - s[1]) / d[0].sqrt();
            DVec::from_slice(&[1.0 - z * z, d[1] - 1.0 + 0.3 * s[0]])
        })
        .constraints(vec!["budget".to_string()], |d| {
            DVec::from_slice(&[6.0 - d[0] - d[1]])
        })
        .build()
        .unwrap()
}

fn config() -> OptimizerConfig {
    let mut cfg = OptimizerConfig::default();
    cfg.mc_samples = 6_000;
    cfg.verify_samples = 3_000;
    cfg.max_iterations = 3;
    cfg.seed = 7;
    cfg
}

fn final_yield(cfg: OptimizerConfig) -> f64 {
    let env = mismatch_env();
    let trace = YieldOptimizer::new(cfg)
        .run(&env)
        .expect("optimization runs");
    trace
        .final_snapshot()
        .verified
        .as_ref()
        .expect("verification enabled")
        .yield_estimate
        .value()
}

#[test]
fn worst_case_linearization_beats_nominal_linearization() {
    // Table 4 mechanism.
    let y_wc = final_yield(config());
    let mut cfg = config();
    cfg.wc_options.linearization_point = LinearizationPoint::Nominal;
    let y_nominal = final_yield(cfg);
    assert!(
        y_wc > 0.78,
        "worst-case anchoring should approach the constrained optimum (~0.85), got {y_wc}"
    );
    assert!(
        y_wc > y_nominal + 0.1,
        "worst-case anchoring must clearly beat nominal: {y_wc} vs {y_nominal}"
    );
}

#[test]
fn nominal_linearization_misjudges_the_quadratic_spec() {
    // The nominal-anchored model's own bad-sample count for `quad` is a
    // strong underestimate of the true failure rate (the paper's "the
    // linearized models were too inaccurate" observation).
    let env = mismatch_env();
    let mut cfg = config();
    cfg.wc_options.linearization_point = LinearizationPoint::Nominal;
    cfg.max_iterations = 1;
    let trace = YieldOptimizer::new(cfg)
        .run(&env)
        .expect("optimization runs");
    let snap = trace.initial();
    let model_bad = snap.bad_per_mille[0];
    let true_bad = snap.verified.as_ref().unwrap().bad_per_mille()[0];
    assert!(
        model_bad < 0.5 * true_bad,
        "nominal model should underestimate quad failures: model {model_bad} vs true {true_bad}"
    );
}

#[test]
fn constraints_keep_the_search_inside_the_budget() {
    // Table 3 mechanism (analytic flavour): without the constraint the
    // optimizer pushes both parameters to their boxes, overshooting the
    // budget; with it the optimum respects `area + bias ≤ 6`.
    let env = mismatch_env();
    let trace = YieldOptimizer::new(config())
        .run(&env)
        .expect("optimization runs");
    let d = trace.final_design();
    assert!(
        d[0] + d[1] <= 6.0 + 1e-6,
        "constrained optimum respects the budget: {d}"
    );

    let env = mismatch_env();
    let mut cfg = config();
    cfg.use_constraints = false;
    let trace = YieldOptimizer::new(cfg)
        .run(&env)
        .expect("optimization runs");
    let d_unconstrained = trace.final_design();
    assert!(
        d_unconstrained[0] + d_unconstrained[1] > 6.0,
        "unconstrained run should overshoot the budget: {d_unconstrained}"
    );
}

#[test]
fn mirrored_models_capture_the_two_sided_failure() {
    // With mirrored models disabled, the model sees only one tail of the
    // quadratic and overestimates the yield. Isolated single-spec problem:
    // margin = 1 − (s0 − s1)², so the true yield is
    // P(|Z0 − Z1| ≤ 1) = P(|Z| ≤ 1/√2) ≈ 0.5205.
    let env = AnalyticEnv::builder()
        .design(DesignSpace::new(vec![DesignParam::new(
            "dummy", "", 0.0, 1.0, 0.5,
        )]))
        .stat_dim(2)
        .spec(Spec::new("quad", "", SpecKind::LowerBound, 0.0))
        .performances(|_, s, _| {
            let z = s[0] - s[1];
            DVec::from_slice(&[1.0 - z * z])
        })
        .build()
        .unwrap();
    let d0 = env.design_space().initial();
    let run = |mirrored: bool| {
        let mut wc = specwise_wcd::WcOptions::default();
        wc.mirrored_models = mirrored;
        let analysis = specwise_wcd::WcAnalysis::new(&env, wc).run(&d0).unwrap();
        specwise::LinearizedYield::new(analysis.linearizations().to_vec(), 1, 20_000, 3)
            .unwrap()
            .estimate(&d0)
            .unwrap()
            .value()
    };
    let with_mirror = run(true);
    let without_mirror = run(false);
    // One-sided truth: P(Z ≤ 1/√2) ≈ 0.7602; two-sided: ≈ 0.5205.
    assert!(
        (without_mirror - 0.7602).abs() < 0.03,
        "one-sided model should see only one tail: {without_mirror}"
    );
    assert!(
        (with_mirror - 0.5205).abs() < 0.03,
        "mirrored model should see both tails: {with_mirror}"
    );
    // And the mirrored estimate tracks the simulated truth.
    let truth = specwise::MonteCarlo {
        n_samples: 4_000,
        seed: 11,
    }
    .run(&env, &d0, &specwise::Tracer::disabled())
    .unwrap()
    .yield_estimate
    .value();
    assert!(
        (with_mirror - truth).abs() < 0.05,
        "mirrored estimate {with_mirror} should track the truth {truth}"
    );
}

//! Model-order ablation: tests the paper's Sec. 5.1 claim that spec-wise
//! *linear* models at worst-case points are sufficient for yield estimation
//! inside the feasibility region — "no model of higher order is needed".
//!
//! Compares three estimators against simulation Monte Carlo:
//!
//! 1. the paper's worst-case-anchored linearizations (+ mirrored twins),
//! 2. diagonal-quadratic models at the nominal point,
//! 3. plain nominal-point linearizations (the Table 4 strawman).

use specwise::{LinearizedYield, MonteCarlo, QuadraticYield, Tracer};
use specwise_ckt::{CircuitEnv, FoldedCascode};
use specwise_linalg::DVec;
use specwise_wcd::{QuadraticMarginModel, WcAnalysis, WcOptions};

#[test]
fn linear_wc_models_match_simulation_within_paper_tolerance() {
    // Paper Sec. 5.2: "accuracy differing less than 1-2% from the results
    // of a Monte-Carlo analysis". Verify at the initial folded-cascode
    // design (where yield is low) and we allow a slightly wider band for
    // our 400-sample simulation reference.
    let env = FoldedCascode::paper_setup();
    let d0 = env.design_space().initial();
    let analysis = WcAnalysis::new(&env, WcOptions::default())
        .run(&d0)
        .expect("analysis");
    let linear = LinearizedYield::new(
        analysis.linearizations().to_vec(),
        env.specs().len(),
        20_000,
        2001,
    )
    .expect("model");
    let y_lin = linear.estimate(&d0).expect("estimate").value();
    let y_sim = MonteCarlo {
        n_samples: 400,
        seed: 77,
    }
    .run(&env, &d0, &Tracer::disabled())
    .expect("verify")
    .yield_estimate
    .value();
    assert!(
        (y_lin - y_sim).abs() < 0.05,
        "worst-case linearization {y_lin} vs simulation {y_sim}"
    );
}

#[test]
fn quadratic_models_add_little_over_wc_linear_on_the_circuit() {
    // The claim under test: given worst-case anchoring + feasibility, the
    // quadratic term does not change the picture materially.
    let env = FoldedCascode::paper_setup();
    let d0 = env.design_space().initial();
    let theta_nominal = env.operating_range().nominal();

    // Worst-case linear models (the paper's choice).
    let analysis = WcAnalysis::new(&env, WcOptions::default())
        .run(&d0)
        .expect("analysis");
    let linear = LinearizedYield::new(
        analysis.linearizations().to_vec(),
        env.specs().len(),
        10_000,
        5,
    )
    .expect("model");
    let y_lin = linear.estimate(&d0).expect("estimate").value();

    // Diagonal-quadratic models at the nominal point (2n+1 evals per spec).
    let mut quads = Vec::new();
    for spec in 0..env.specs().len() {
        let theta = analysis.worst_case_points()[spec].theta_wc;
        quads.push(
            QuadraticMarginModel::fit(&env, &d0, spec, &theta, &DVec::zeros(env.stat_dim()), 0.2)
                .expect("fit"),
        );
    }
    let _ = theta_nominal;
    let quad = QuadraticYield::new(quads, 10_000, 5).expect("model");
    let y_quad = quad.estimate(&d0).expect("estimate").value();

    let y_sim = MonteCarlo {
        n_samples: 400,
        seed: 13,
    }
    .run(&env, &d0, &Tracer::disabled())
    .expect("verify")
    .yield_estimate
    .value();

    // Both model classes must bracket the (near-zero) simulated yield; the
    // linear WC models must not be materially worse than the quadratic ones.
    assert!(
        (y_lin - y_sim).abs() <= (y_quad - y_sim).abs() + 0.05,
        "linear {y_lin}, quadratic {y_quad}, simulated {y_sim}"
    );
}

#[test]
fn quadratic_beats_nominal_linear_on_pure_mismatch_shape() {
    // Where quadratic models *do* matter: a pure mismatch ridge with no
    // worst-case anchoring. margin = 1 − (s0 − s1)²/2.
    use specwise_ckt::{AnalyticEnv, DesignParam, DesignSpace, Spec, SpecKind};
    let env = AnalyticEnv::builder()
        .design(DesignSpace::new(vec![DesignParam::new(
            "a", "", -5.0, 5.0, 0.0,
        )]))
        .stat_dim(2)
        .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
        .performances(|_, s, _| {
            let z = s[0] - s[1];
            DVec::from_slice(&[1.0 - 0.5 * z * z])
        })
        .build()
        .unwrap();
    let theta = env.operating_range().nominal();
    let d0 = DVec::from_slice(&[0.0]);

    // Truth: pass iff |s0 − s1| ≤ √2 ⇔ |Z| ≤ 1 → ≈ 0.6827.
    let y_sim = MonteCarlo {
        n_samples: 20_000,
        seed: 3,
    }
    .run(&env, &d0, &Tracer::disabled())
    .unwrap()
    .yield_estimate
    .value();
    assert!((y_sim - 0.6827).abs() < 0.01);

    // Quadratic at nominal: near-exact. (The diagonal Hessian misses the
    // cross term −s0·s1, so it is not perfect — but far better than any
    // single linear model.)
    let q = QuadraticMarginModel::fit(&env, &d0, 0, &theta, &DVec::zeros(2), 0.1).unwrap();
    let y_quad = QuadraticYield::new(vec![q], 20_000, 9)
        .unwrap()
        .estimate(&d0)
        .unwrap()
        .value();

    // Nominal linear: gradient ≈ 0 → the model believes the margin is the
    // constant +1 → yield ≈ 100 %.
    let (_, jac) =
        specwise_wcd::margins_gradient_s(&env, &d0, &DVec::zeros(2), &theta, 0.1).unwrap();
    let lin = specwise_wcd::SpecLinearization {
        spec: 0,
        mirrored: false,
        theta_wc: theta,
        s_wc: DVec::zeros(2),
        d_f: d0.clone(),
        margin_at_anchor: 1.0,
        grad_s: jac.row(0),
        grad_d: DVec::from_slice(&[0.0]),
    };
    let y_nominal_lin = LinearizedYield::new(vec![lin], 1, 20_000, 9)
        .unwrap()
        .estimate(&d0)
        .unwrap()
        .value();

    assert!(
        (y_quad - y_sim).abs() < 0.5 * (y_nominal_lin - y_sim).abs(),
        "quadratic {y_quad} should beat nominal linear {y_nominal_lin} (truth {y_sim})"
    );
}

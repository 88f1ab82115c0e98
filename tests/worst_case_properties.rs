//! Property-based tests of the worst-case machinery on randomly generated
//! linear problems, where every quantity has a closed form.

use proptest::prelude::*;
use specwise_ckt::{AnalyticEnv, CircuitEnv, DesignParam, DesignSpace, Spec, SpecKind};
use specwise_linalg::DVec;
use specwise_wcd::{WorstCaseSearch, BETA_MAX};

/// Builds `margin = offset + g·ŝ` with the given gradient.
fn linear_env(offset: f64, grad: Vec<f64>) -> AnalyticEnv {
    let n = grad.len();
    AnalyticEnv::builder()
        .design(DesignSpace::new(vec![DesignParam::new(
            "off", "", -100.0, 100.0, 0.0,
        )]))
        .stat_dim(n)
        .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
        .performances(move |d, s, _| {
            let dot: f64 = grad.iter().zip(s.iter()).map(|(a, b)| a * b).sum();
            DVec::from_slice(&[d[0] + offset + dot])
        })
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn worst_case_distance_matches_point_to_plane_formula(
        offset in 0.2..4.0f64,
        grad in prop::collection::vec(-2.0..2.0f64, 2..6),
    ) {
        let gnorm: f64 = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
        prop_assume!(gnorm > 0.3);
        let env = linear_env(offset, grad.clone());
        let theta = env.operating_range().nominal();
        let d = DVec::from_slice(&[0.0]);
        let nominal_margin = env.eval_margins(&d, &DVec::zeros(env.stat_dim()), &theta).unwrap()[0];
        let wc = WorstCaseSearch.run(&env, &d, 0, &theta, nominal_margin).unwrap();
        let expected = offset / gnorm;
        if expected < BETA_MAX - 0.5 {
            prop_assert!(
                (wc.beta_wc - expected).abs() < 2e-2 * (1.0 + expected),
                "beta {} vs {}", wc.beta_wc, expected
            );
            // The worst-case point is anti-parallel to the gradient.
            let dot = wc.s_wc.iter().zip(grad.iter()).map(|(a, b)| a * b).sum::<f64>();
            prop_assert!(dot < 0.0);
            // And lies (approximately) on the spec boundary.
            prop_assert!(wc.margin_at_wc.abs() < 0.05 * (1.0 + offset));
        }
    }

    #[test]
    fn violated_specs_have_negative_beta(
        offset in -4.0..-0.2f64,
        grad in prop::collection::vec(0.5..2.0f64, 2..5),
    ) {
        let env = linear_env(offset, grad);
        let theta = env.operating_range().nominal();
        let d = DVec::from_slice(&[0.0]);
        let nominal_margin = env.eval_margins(&d, &DVec::zeros(env.stat_dim()), &theta).unwrap()[0];
        let wc = WorstCaseSearch.run(&env, &d, 0, &theta, nominal_margin).unwrap();
        prop_assert!(wc.beta_wc < 0.0, "beta {}", wc.beta_wc);
        prop_assert!(wc.nominal_margin < 0.0);
    }

    #[test]
    fn mismatch_measure_bounds_hold_for_random_points(
        s in prop::collection::vec(-3.0..3.0f64, 3..8),
        beta in -5.0..5.0f64,
    ) {
        let s_wc = DVec::from_slice(&s);
        prop_assume!(s_wc.norm_inf() > 1e-6);
        let analysis = specwise::MismatchAnalysis::new();
        for k in 0..s.len() {
            for l in (k + 1)..s.len() {
                let m = analysis.measure(&s_wc, beta, k, l);
                prop_assert!((0.0..=1.0).contains(&m), "m = {m}");
            }
        }
    }

    #[test]
    fn linearized_yield_matches_gaussian_tail(
        margin_sigma in 0.3..3.0f64,
        mean in -2.0..2.0f64,
    ) {
        // One linear model: margin = mean + margin_sigma·ŝ₀ — the yield is
        // Φ(mean/margin_sigma).
        use specwise_wcd::SpecLinearization;
        let lin = SpecLinearization {
            spec: 0,
            mirrored: false,
            theta_wc: specwise_ckt::OperatingPoint::new(25.0, 3.3),
            s_wc: DVec::from_slice(&[-mean / margin_sigma]),
            d_f: DVec::from_slice(&[0.0]),
            margin_at_anchor: 0.0,
            grad_s: DVec::from_slice(&[margin_sigma]),
            grad_d: DVec::from_slice(&[0.0]),
        };
        let model = specwise::LinearizedYield::new(vec![lin], 1, 30_000, 5).unwrap();
        let y = model.estimate(&DVec::from_slice(&[0.0])).unwrap().value();
        let expected = specwise_stat::std_normal_cdf(mean / margin_sigma);
        prop_assert!((y - expected).abs() < 0.02, "y {y} vs {expected}");
    }
}

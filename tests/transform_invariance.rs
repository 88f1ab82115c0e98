//! Tests of the paper's Sec. 4 variance transform: working in the
//! standardized space `ŝ ~ N(0, I)` with the design-dependent `G(d)`
//! applied inside the performance function leaves the yield invariant
//! (Eq. 12, `Y(d) = Ŷ(d)`), while correctly exposing the
//! variance-reduction channel to the optimizer.

use rand::rngs::StdRng;
use rand::SeedableRng;
use specwise_ckt::{AnalyticEnv, CircuitEnv, DesignParam, DesignSpace, Spec, SpecKind};
use specwise_linalg::DVec;
use specwise_stat::{std_normal_cdf, StandardNormal, YieldEstimate};

/// Margin in the *physical* space: `m = d − s_phys`, with
/// `s_phys ~ N(0, σ(d)²)`, `σ(d) = 2/√d` (Pelgrom-style).
fn sigma(d: f64) -> f64 {
    2.0 / d.sqrt()
}

fn env() -> AnalyticEnv {
    AnalyticEnv::builder()
        .design(DesignSpace::new(vec![DesignParam::new(
            "d", "", 0.5, 50.0, 2.0,
        )]))
        .stat_dim(1)
        .spec(Spec::new("m", "", SpecKind::LowerBound, 0.0))
        // Standardized formulation (paper Eq. 14): the σ(d)·ŝ product is
        // applied inside the performance function.
        .performances(|d, s, _| DVec::from_slice(&[d[0] - sigma(d[0]) * s[0]]))
        .build()
        .unwrap()
}

/// Yield in the physical space by direct sampling of `s = σ(d)·z`,
/// `z ~ N(0, 1)`.
fn physical_yield(d: f64, n: usize, seed: u64) -> f64 {
    let normal = StandardNormal::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let passed = (0..n)
        .filter(|_| {
            let s_phys = sigma(d) * normal.sample(&mut rng);
            d - s_phys >= 0.0
        })
        .count();
    passed as f64 / n as f64
}

/// Yield in the standardized space through the environment.
fn standardized_yield(d: f64, n: usize, seed: u64) -> f64 {
    let e = env();
    let theta = e.operating_range().nominal();
    let normal = StandardNormal::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let trials = (0..n).map(|_| {
        let s_hat = DVec::from_slice(&[normal.sample(&mut rng)]);
        e.eval_margins(&DVec::from_slice(&[d]), &s_hat, &theta)
            .unwrap()[0]
            >= 0.0
    });
    YieldEstimate::from_trials(trials).value()
}

#[test]
fn standardized_and_physical_yields_agree() {
    // Eq. 12: the two formulations integrate the same probability mass.
    for d in [1.0, 2.0, 8.0] {
        let analytic = std_normal_cdf(d / sigma(d));
        let phys = physical_yield(d, 60_000, 11);
        let std = standardized_yield(d, 60_000, 13);
        assert!(
            (phys - analytic).abs() < 0.01,
            "physical {phys} vs analytic {analytic} at d={d}"
        );
        assert!(
            (std - analytic).abs() < 0.01,
            "standardized {std} vs analytic {analytic} at d={d}"
        );
    }
}

#[test]
fn variance_reduction_channel_visible_to_design_gradient() {
    // ∂margin/∂d at a fixed ŝ ≠ 0 includes the σ'(d)·ŝ term — the channel
    // the paper's C(d) treatment exposes. Margin = d − 2·d^{−1/2}·ŝ, so
    // ∂margin/∂d = 1 + d^{−3/2}·ŝ.
    let e = env();
    let theta = e.operating_range().nominal();
    let d = DVec::from_slice(&[4.0]);
    let s_hat = DVec::from_slice(&[1.5]);
    let (_, jac) = specwise_wcd::margins_gradient_d(&e, &d, &s_hat, &theta, 1e-6).unwrap();
    let expected = 1.0 + 4.0f64.powf(-1.5) * 1.5;
    assert!(
        (jac[(0, 0)] - expected).abs() < 1e-3,
        "design gradient {} should include the variance term {expected}",
        jac[(0, 0)]
    );
    // At ŝ = 0 the channel vanishes — exactly why nominal-anchored models
    // cannot see variance reduction.
    let (_, jac0) =
        specwise_wcd::margins_gradient_d(&e, &d, &DVec::zeros(1), &theta, 1e-6).unwrap();
    assert!((jac0[(0, 0)] - 1.0).abs() < 1e-3);
}

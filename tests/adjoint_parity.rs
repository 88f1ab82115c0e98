//! Adjoint-vs-FD gradient parity over the three opamp decks.
//!
//! The adjoint backend prices perturbation directions on the cached LU
//! factorizations of the converged operating point (one-step sensitivity
//! updates + AC bilinear deltas) instead of re-simulating each perturbed
//! point from scratch. It must reproduce the finite-difference Jacobians
//! within a per-deck tolerance tier — FD stays available as the
//! differential oracle via `GradBackend::Fd`.
//!
//! Tolerances are tiered per deck like the golden constants in
//! `tests/golden_parity.rs`: the five-transistor OTA gets the loosest
//! tier because its CMRR measure near-cancels at the mismatch-symmetric
//! nominal point.
//!
//! The forward-difference steps are the flow's own (`FD_STEP_S`,
//! `FD_STEP_D`), so the comparison covers exactly the quotients the
//! spec-wise linearization consumes. The adjoint quotient carries an O(h)
//! one-step linearization error relative to the fully re-simulated FD
//! secant — the tiers bound that error per deck.

use rand::{Rng, SeedableRng};
use specwise_ckt::{CircuitEnv, FiveTransistorOta, FoldedCascode, MillerOpamp, OperatingPoint};
use specwise_linalg::{DMat, DVec};
use specwise_wcd::{
    margins_gradient_d_with, margins_gradient_s_with, GradBackend, FD_STEP_D, FD_STEP_S,
};

/// Per-deck tolerance tier.
struct Tier {
    /// Relative tolerance on the base margins (both backends fully
    /// simulate the base point; only warm-start history differs).
    base: f64,
    /// Frobenius-relative tolerance on each Jacobian:
    /// `‖adj − fd‖_F <= jac * max(1, ‖fd‖_F)`. The optimizer consumes
    /// whole Jacobians, so the aggregate is the contract; isolated
    /// near-zero entries may deviate more (e.g. a measure kink in an
    /// otherwise negligible column).
    jac: f64,
}

struct Point {
    d: DVec,
    s: DVec,
    theta: OperatingPoint,
}

/// Nominal point plus two seeded random points (same recipe as the golden
/// parity capture: multiplicative jitter on the initial design projected
/// back into the box, |ŝ| ≤ 1, θ ∈ Θ).
fn points(env: &dyn CircuitEnv, seed: u64) -> Vec<Point> {
    let space = env.design_space();
    let range = env.operating_range();
    let mut pts = vec![Point {
        d: space.initial(),
        s: DVec::zeros(env.stat_dim()),
        theta: range.nominal(),
    }];
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (t_lo, t_hi) = range.temp_bounds();
    let (v_lo, v_hi) = range.vdd_bounds();
    for _ in 0..2 {
        let d0 = space.initial();
        let d: DVec = d0.iter().map(|&x| x * rng.gen_range(0.9..1.1)).collect();
        let d = space.project(&d).expect("projection succeeds");
        let s: DVec = (0..env.stat_dim())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        pts.push(Point {
            d,
            s,
            theta: OperatingPoint::new(rng.gen_range(t_lo..t_hi), rng.gen_range(v_lo..v_hi)),
        });
    }
    pts
}

/// Frobenius-relative deviation between two Jacobians:
/// `‖adj − fd‖_F / max(1, ‖fd‖_F)`.
fn max_jac_dev(adj: &DMat, fd: &DMat) -> f64 {
    assert_eq!(adj.nrows(), fd.nrows());
    assert_eq!(adj.ncols(), fd.ncols());
    let mut diff2 = 0.0;
    let mut norm2 = 0.0;
    for j in 0..fd.ncols() {
        for i in 0..fd.nrows() {
            diff2 += (adj[(i, j)] - fd[(i, j)]).powi(2);
            norm2 += fd[(i, j)].powi(2);
        }
    }
    diff2.sqrt() / norm2.sqrt().max(1.0)
}

fn max_rel_dev(a: &DVec, b: &DVec) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y).abs() / y.abs().max(1.0))
        .fold(0.0, f64::max)
}

fn check_parity<E: CircuitEnv + Sync>(env: &E, seed: u64, tier: &Tier) {
    for (i, p) in points(env, seed).iter().enumerate() {
        let (base_f, jac_s_f) =
            margins_gradient_s_with(env, GradBackend::Fd, &p.d, &p.s, &p.theta, FD_STEP_S)
                .expect("FD stat gradient evaluates");
        let (base_a, jac_s_a) =
            margins_gradient_s_with(env, GradBackend::Adjoint, &p.d, &p.s, &p.theta, FD_STEP_S)
                .expect("adjoint stat gradient evaluates");
        let base_dev = max_rel_dev(&base_a, &base_f);
        assert!(
            base_dev <= tier.base,
            "{}: base margins deviate at point {i}: {base_dev:e} > {:e}",
            env.name(),
            tier.base
        );
        let dev_s = max_jac_dev(&jac_s_a, &jac_s_f);
        assert!(
            dev_s <= tier.jac,
            "{}: ∂m/∂s deviates at point {i}: {dev_s:e} > {:e}",
            env.name(),
            tier.jac
        );

        let (_, jac_d_f) =
            margins_gradient_d_with(env, GradBackend::Fd, &p.d, &p.s, &p.theta, FD_STEP_D)
                .expect("FD design gradient evaluates");
        let (_, jac_d_a) =
            margins_gradient_d_with(env, GradBackend::Adjoint, &p.d, &p.s, &p.theta, FD_STEP_D)
                .expect("adjoint design gradient evaluates");
        let dev_d = max_jac_dev(&jac_d_a, &jac_d_f);
        assert!(
            dev_d <= tier.jac,
            "{}: ∂m/∂d deviates at point {i}: {dev_d:e} > {:e}",
            env.name(),
            tier.jac
        );
        println!(
            "{} point {i}: base {base_dev:.3e}  ∂m/∂s {dev_s:.3e}  ∂m/∂d {dev_d:.3e}",
            env.name()
        );
    }
}

#[test]
fn miller_adjoint_matches_fd() {
    check_parity(
        &MillerOpamp::paper_setup(),
        201,
        &Tier {
            base: 1e-9,
            jac: 3e-2,
        },
    );
}

#[test]
fn folded_adjoint_matches_fd() {
    check_parity(
        &FoldedCascode::paper_setup(),
        202,
        &Tier {
            base: 1e-9,
            jac: 4e-2,
        },
    );
}

#[test]
fn ota_adjoint_matches_fd() {
    check_parity(
        &FiveTransistorOta::default_setup(),
        203,
        // Loosest tier: the CMRR measure near-cancels at the mismatch-
        // symmetric point, so its one-step pricing is the least accurate.
        &Tier {
            base: 1e-9,
            jac: 6e-2,
        },
    );
}

/// FD must stay selectable as the oracle: forcing `GradBackend::Fd` never
/// touches the adjoint machinery, while `GradBackend::Adjoint` prices its
/// directions from the cached factorizations and records the sims avoided.
#[test]
fn fd_backend_is_a_pure_oracle() {
    let env = MillerOpamp::paper_setup();
    let d = env.design_space().initial();
    let s = DVec::zeros(env.stat_dim());
    let theta = env.operating_range().nominal();

    margins_gradient_s_with(&env, GradBackend::Fd, &d, &s, &theta, 0.01)
        .expect("FD gradient evaluates");
    assert_eq!(
        env.adjoint_solve_count(),
        0,
        "forced FD must not perform adjoint solves"
    );
    assert_eq!(env.fd_sims_avoided(), 0);

    margins_gradient_s_with(&env, GradBackend::Adjoint, &d, &s, &theta, 0.01)
        .expect("adjoint gradient evaluates");
    assert!(
        env.adjoint_solve_count() > 0,
        "adjoint backend must price directions on cached factorizations"
    );
    assert!(
        env.fd_sims_avoided() > 0,
        "adjoint backend must record the full simulations it avoided"
    );
}

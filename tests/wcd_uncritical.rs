//! Referee for the one-step uncritical certificate of the worst-case search
//! (`crates/wcd/src/wc_point.rs`).
//!
//! `damped_walk` below is a frozen copy of the search as it was before the
//! certificate: every spec walks toward its linear target in steps of at
//! most 2σ until it converges on the boundary or reaches the `BETA_MAX`
//! sphere with a positive margin. The tests replay, at every design an
//! optimizer run visits on the folded-cascode, Miller and five-transistor
//! OTA setups, each spec's search at its worst-case corner with both
//! searches, and require:
//!
//! * every spec the walk converges on converges under the certificate too,
//!   to the same β within 1e-6 relative;
//! * every spec the walk clamps at the sphere stays clamped;
//! * a spec whose walk ran out of iterations gets the same point back;
//! * the certificate costs fewer simulations over the replay.
//!
//! The regular tests cover seeds 2001–2003; the ignored one covers
//! 2001–2010:
//!
//! ```text
//! cargo test --release --test wcd_uncritical -- --ignored
//! ```

use specwise::{OptimizerConfig, YieldOptimizer};
use specwise_ckt::{CircuitEnv, FiveTransistorOta, FoldedCascode, MillerOpamp, OperatingPoint};
use specwise_linalg::DVec;
use specwise_wcd::{
    margins_gradient_s, WcdError, WorstCasePoint, WorstCaseSearch, BETA_MAX, FD_STEP_S,
    MARGIN_TOL_REL, MAX_SQP_ITERS,
};

/// The worst-case search without the certificate, its code unchanged
/// (comments trimmed): the reference the certified search is measured
/// against.
fn damped_walk<E: CircuitEnv + ?Sized>(
    env: &E,
    d: &DVec,
    spec: usize,
    theta_wc: &OperatingPoint,
) -> Result<WorstCasePoint, WcdError> {
    let n_s = env.stat_dim();
    const GOLDEN: f64 = 1.618_033_988_749_895;
    let mut s = DVec::from_fn(n_s, |i| 0.15 * (GOLDEN * (i as f64 + 1.0)).sin());
    let nominal_margin = env.eval_margins(d, &DVec::zeros(n_s), theta_wc)?[spec];
    let mut converged = false;

    for iter in 0..MAX_SQP_ITERS {
        let (margins, jac) = margins_gradient_s(env, d, &s, theta_wc, FD_STEP_S)?;
        let m = margins[spec];
        let g = jac.row(spec);

        let gnorm2 = g.dot(&g);
        if gnorm2 <= 1e-30 {
            if iter == 0 {
                return Err(WcdError::DegenerateGradient { spec });
            }
            break;
        }

        let alpha = (g.dot(&s) - m) / gnorm2;
        let mut s_next = g.scaled(alpha);
        let norm = s_next.norm2();
        if norm > BETA_MAX {
            s_next.scale_mut(BETA_MAX / norm);
        }

        let step = &s_next - &s;
        let step_norm = step.norm2();
        const MAX_STEP: f64 = 2.0;
        let s_new = if step_norm > MAX_STEP {
            s.axpy(MAX_STEP / step_norm, &step)
        } else {
            s_next
        };

        let margins_new = env.eval_margins(d, &s_new, theta_wc)?;
        let m_new = margins_new[spec];
        let gnorm = gnorm2.sqrt();
        s = s_new;
        if m_new.abs() <= MARGIN_TOL_REL * gnorm
            && step_norm <= MAX_STEP
            && s.norm2() < BETA_MAX - 1e-9
        {
            converged = true;
            break;
        }
        if s.norm2() >= BETA_MAX - 1e-9 && m_new > 0.0 {
            converged = false;
            break;
        }
    }

    let beta_mag = s.norm2();
    let beta_wc = if nominal_margin >= 0.0 {
        beta_mag
    } else {
        -beta_mag
    };
    let (margins_f, jac_f) = margins_gradient_s(env, d, &s, theta_wc, FD_STEP_S)?;
    Ok(WorstCasePoint {
        spec,
        theta_wc: *theta_wc,
        s_wc: s,
        beta_wc,
        nominal_margin,
        margin_at_wc: margins_f[spec],
        grad_s: jac_f.row(spec),
        converged,
    })
}

/// What the replay saw, summed over its searches.
#[derive(Debug, Default)]
struct Tally {
    converged: usize,
    clamped: usize,
    exhausted: usize,
    walk_sims: u64,
    certified_sims: u64,
}

/// Replays every worst-case search of an optimizer run on `env` at `seed`
/// with both searches and checks the rules in the module docs.
fn replay(name: &str, env: &dyn CircuitEnv, seed: u64, tally: &mut Tally) {
    let mut cfg = OptimizerConfig::default();
    cfg.seed = seed;
    cfg.mc_samples = 2_000;
    cfg.verify_samples = 0;
    let trace = YieldOptimizer::new(cfg)
        .run(env)
        .unwrap_or_else(|e| panic!("{name} seed {seed}: optimization runs: {e}"));
    for snap in trace.snapshots() {
        for wc in &snap.wc_points {
            let at = format!("{name} seed {seed} {} spec {}", snap.label, wc.spec);
            let sims = env.sim_count();
            let walk = damped_walk(env, &snap.design, wc.spec, &wc.theta_wc).unwrap();
            tally.walk_sims += env.sim_count() - sims;
            let sims = env.sim_count();
            let certified = WorstCaseSearch
                .run(env, &snap.design, wc.spec, &wc.theta_wc)
                .unwrap();
            tally.certified_sims += env.sim_count() - sims;

            if walk.converged {
                tally.converged += 1;
                assert!(certified.converged, "{at}: converged spec not converged");
                let rel = (certified.beta_wc - walk.beta_wc).abs() / walk.beta_wc.abs();
                assert!(
                    rel <= 1e-6,
                    "{at}: beta {} vs walked {}",
                    certified.beta_wc,
                    walk.beta_wc
                );
            } else if walk.beta_wc.abs() >= BETA_MAX - 1e-9 {
                tally.clamped += 1;
                assert!(!certified.converged, "{at}: clamped spec converged");
                assert!(
                    (certified.beta_wc.abs() - BETA_MAX).abs() <= 1e-9
                        && certified.beta_wc.signum() == walk.beta_wc.signum(),
                    "{at}: beta {} vs walked {}",
                    certified.beta_wc,
                    walk.beta_wc
                );
            } else {
                tally.exhausted += 1;
                assert_eq!(certified, walk, "{at}: exhausted search differs");
            }
        }
    }
}

fn check(name: &str, env: &dyn CircuitEnv, seeds: std::ops::RangeInclusive<u64>) {
    let mut tally = Tally::default();
    for seed in seeds {
        replay(name, env, seed, &mut tally);
    }
    eprintln!("{name}: {tally:?}");
    assert!(tally.converged > 0, "{name}: no converged spec replayed");
    assert!(
        tally.certified_sims < tally.walk_sims,
        "{name}: the certificate saved no simulations"
    );
}

#[test]
fn folded_specs_keep_their_distances() {
    check("folded", &FoldedCascode::paper_setup(), 2001..=2003);
}

#[test]
fn miller_specs_keep_their_distances() {
    check("miller", &MillerOpamp::paper_setup(), 2001..=2003);
}

#[test]
fn ota_specs_keep_their_distances() {
    check("ota", &FiveTransistorOta::default_setup(), 2001..=2003);
}

#[test]
#[ignore = "ten seeds per circuit; run with --ignored"]
fn all_circuits_keep_their_distances_over_ten_seeds() {
    check("folded", &FoldedCascode::paper_setup(), 2001..=2010);
    check("miller", &MillerOpamp::paper_setup(), 2001..=2010);
    check("ota", &FiveTransistorOta::default_setup(), 2001..=2010);
}

//! Lockstep-batch parity: the sample-major batched Newton path must be
//! bit-identical to the per-sample scalar loop at any batch width and any
//! worker count.
//!
//! Both tests mutate the `SPECWISE_BATCH` knob, so they serialize on a
//! process-wide lock and use a fresh environment per variant (identical
//! cold warm-start state on every path).

use std::sync::{Arc, Mutex};

use specwise_ckt::{CktError, OperatingPoint};
use specwise_exec::{EvalPoint, EvalService, Evaluator, ExecConfig};
use specwise_linalg::DVec;

static BATCH_KNOB: Mutex<()> = Mutex::new(());

/// Raw `CircuitEnv` access lives in its own module: importing both
/// `CircuitEnv` and `Evaluator` into one scope makes every method call on
/// an environment ambiguous (the blanket `Evaluator` impl mirrors the
/// `CircuitEnv` method names).
mod raw {
    use rand::{Rng, SeedableRng};
    use specwise_ckt::{CircuitEnv, CktError, MillerOpamp, OperatingPoint, Testbench};
    use specwise_linalg::DVec;

    pub(super) fn fresh() -> Testbench {
        MillerOpamp::paper_setup()
    }

    pub(super) fn design(env: &Testbench) -> DVec {
        env.design_space().initial()
    }

    /// Seeded `(ŝ, θ)` Monte-Carlo-style sample points: |ŝ| ≤ 2, θ ∈ Θ.
    pub(super) fn sample_points(
        env: &Testbench,
        n: usize,
        seed: u64,
    ) -> Vec<(DVec, OperatingPoint)> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (t_lo, t_hi) = env.operating_range().temp_bounds();
        let (v_lo, v_hi) = env.operating_range().vdd_bounds();
        (0..n)
            .map(|_| {
                let s: DVec = (0..env.stat_dim())
                    .map(|_| rng.gen_range(-2.0..2.0))
                    .collect();
                let theta =
                    OperatingPoint::new(rng.gen_range(t_lo..t_hi), rng.gen_range(v_lo..v_hi));
                (s, theta)
            })
            .collect()
    }

    /// The per-sample scalar loop the batched path must reproduce.
    pub(super) fn scalar_loop(
        env: &Testbench,
        d: &DVec,
        points: &[(DVec, OperatingPoint)],
    ) -> Vec<Result<DVec, CktError>> {
        points
            .iter()
            .map(|(s, theta)| env.eval_margins(d, s, theta))
            .collect()
    }

    pub(super) fn batched(
        env: &Testbench,
        d: &DVec,
        points: &[(DVec, OperatingPoint)],
    ) -> Option<Vec<Result<DVec, CktError>>> {
        env.eval_margins_samples(d, points)
    }
}

fn assert_bits_equal(got: &[Result<DVec, CktError>], want: &[Result<DVec, CktError>], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: result count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        match (g, w) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.len(), b.len(), "{label}: sample {i} margin count");
                for (j, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{label}: sample {i} margin {j}: {x} vs {y}"
                    );
                }
            }
            (Err(a), Err(b)) => {
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "{label}: sample {i} error"
                );
            }
            _ => panic!("{label}: sample {i} Ok/Err disagreement"),
        }
    }
}

/// Every lockstep width — chunk-aligned or not, wider than the sample set
/// or not — reproduces the scalar loop bit-for-bit on the Miller deck.
#[test]
fn batched_newton_is_bit_identical_at_any_width() {
    let _guard = BATCH_KNOB.lock().unwrap();

    let reference = {
        std::env::set_var("SPECWISE_BATCH", "1");
        let env = raw::fresh();
        let d = raw::design(&env);
        let points = raw::sample_points(&env, 24, 0xBA7C);
        assert!(
            raw::batched(&env, &d, &points).is_none(),
            "width 1 must disable the batched path"
        );
        raw::scalar_loop(&env, &d, &points)
    };
    assert!(
        reference.iter().filter(|r| r.is_ok()).count() >= 20,
        "sample set must be dominated by convergent points"
    );

    for width in [2_usize, 3, 5, 24, 64] {
        std::env::set_var("SPECWISE_BATCH", width.to_string());
        let env = raw::fresh();
        let d = raw::design(&env);
        let points = raw::sample_points(&env, 24, 0xBA7C);
        let got = raw::batched(&env, &d, &points).expect("batched path engages for width > 1");
        assert_bits_equal(&got, &reference, &format!("width {width}"));
    }
    std::env::remove_var("SPECWISE_BATCH");
}

/// The `EvalService` dispatch seen by Monte-Carlo verification: the
/// parallel scalar path at any worker count and the batched sample path at
/// any width all produce identical bits.
#[test]
fn service_batch_matches_scalar_at_any_worker_count() {
    let _guard = BATCH_KNOB.lock().unwrap();

    let config = |workers: usize| {
        ExecConfig::default()
            .with_workers(workers)
            .with_cache_capacity(0)
    };
    let eval_points = |d: &Arc<DVec>, points: &[(DVec, OperatingPoint)]| -> Vec<EvalPoint> {
        points
            .iter()
            .map(|(s, theta)| EvalPoint::new(Arc::clone(d), s.clone(), *theta))
            .collect()
    };

    // Reference: scalar path, single worker.
    std::env::set_var("SPECWISE_BATCH", "1");
    let env = raw::fresh();
    let d = Arc::new(raw::design(&env));
    let points = raw::sample_points(&env, 16, 0x10C5);
    let svc = EvalService::new(&env, config(1));
    assert!(
        svc.eval_margins_samples(&d, &points).is_none(),
        "the service must propagate the disabled batched path"
    );
    let reference = svc.eval_margins_batch(&eval_points(&d, &points));

    // Scalar path, parallel workers.
    let env = raw::fresh();
    let svc = EvalService::new(&env, config(4));
    let got = svc.eval_margins_batch(&eval_points(&d, &points));
    assert_bits_equal(&got, &reference, "scalar 4 workers");

    // Batched sample path at several widths, both worker counts.
    for (width, workers) in [(2, 1), (8, 1), (8, 4), (64, 4)] {
        std::env::set_var("SPECWISE_BATCH", width.to_string());
        let env = raw::fresh();
        let svc = EvalService::new(&env, config(workers));
        let got = svc
            .eval_margins_samples(&d, &points)
            .expect("batched path engages for width > 1");
        assert_bits_equal(
            &got,
            &reference,
            &format!("width {width}, {workers} workers"),
        );
    }
    std::env::remove_var("SPECWISE_BATCH");
}

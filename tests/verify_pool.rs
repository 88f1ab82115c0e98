//! Monte-Carlo verification on the worker pool: the yield estimators send
//! every sample batch through `EvalService::eval_margins_batch`.
//!
//! Two contracts are pinned here:
//!
//! * the result bits do not depend on the worker count — 1, 2 and 4
//!   workers agree on the yield, its interval, the per-spec counts and the
//!   simulations spent;
//! * the samples go through the pool: one batch for the corner sweep, then
//!   one batch per corner group holding every sample.
//!
//! Every variant runs on a fresh environment, so the warm-start state
//! starts cold on every path.

use specwise::{MonteCarlo, NormMinIs, NormMinOptions, Tracer};
use specwise_ckt::{CircuitEnv, FoldedCascode, MillerOpamp, Testbench};
use specwise_exec::{EvalService, ExecConfig};
use specwise_linalg::DVec;

const SEED: u64 = 2001;
const MC_SAMPLES: usize = 60;
const NORM_MIN_SAMPLES: usize = 60;

fn service(env: &Testbench, workers: usize) -> EvalService<'_, Testbench> {
    // Explicit worker counts: the pool must engage even for small batches.
    EvalService::new(env, ExecConfig::default().with_workers(workers))
}

/// Everything an MC verification reports, as comparable bits.
fn mc_bits<E: CircuitEnv + ?Sized>(env: &E, d: &DVec) -> Vec<u64> {
    let sims = env.sim_count();
    let mc = MonteCarlo {
        n_samples: MC_SAMPLES,
        seed: SEED,
    }
    .run(env, d, &Tracer::disabled())
    .expect("MC verifies");
    let (low, high) = mc.yield_interval();
    let mut bits = vec![
        mc.yield_estimate.value().to_bits(),
        mc.yield_estimate.passed() as u64,
        mc.yield_estimate.total() as u64,
        low.to_bits(),
        high.to_bits(),
        mc.sim_failures as u64,
        mc.degraded_samples as u64,
        env.sim_count() - sims,
    ];
    bits.extend(mc.per_spec_bad.iter().map(|&b| b as u64));
    for m in &mc.per_spec_margins {
        bits.extend([m.count(), m.mean().to_bits(), m.std_dev().to_bits()]);
    }
    bits
}

/// Everything a norm-min verification reports, as comparable bits.
fn norm_min_bits<E: CircuitEnv + ?Sized>(env: &E, d: &DVec) -> Vec<u64> {
    let sims = env.sim_count();
    let options = NormMinOptions {
        n: NORM_MIN_SAMPLES,
        seed: SEED,
        ..NormMinOptions::default()
    };
    let r = NormMinIs { options }
        .run(env, d, &Tracer::disabled())
        .expect("norm-min verifies");
    let (low, high) = r.yield_interval();
    let mut bits = vec![
        r.sampling.yield_value.to_bits(),
        r.sampling.failure_probability.to_bits(),
        r.sampling.std_error.to_bits(),
        r.sampling.effective_sample_size.to_bits(),
        low.to_bits(),
        high.to_bits(),
        r.beta.to_bits(),
        r.critical_spec as u64,
        r.sampling.sim_failures as u64,
        u64::from(r.ess_degraded),
        r.search_sims,
        env.sim_count() - sims,
    ];
    bits.extend(r.shift.iter().map(|x| x.to_bits()));
    bits
}

fn check_worker_independence(make: fn() -> Testbench, label: &str) {
    type Bits = fn(&dyn CircuitEnv, &DVec) -> Vec<u64>;
    let estimators: [(&str, Bits); 2] = [
        ("mc", |env, d| mc_bits(env, d)),
        ("norm-min", |env, d| norm_min_bits(env, d)),
    ];
    for (name, bits) in estimators {
        let serial = make();
        let d = serial.design_space().initial();
        let reference = bits(&service(&serial, 1), &d);
        for workers in [2usize, 4] {
            let env = make();
            let got = bits(&service(&env, workers), &d);
            assert_eq!(
                got, reference,
                "{label} {name}: {workers} workers differ from one worker"
            );
        }
    }
}

#[test]
fn folded_cascode_verification_is_bit_identical_at_any_worker_count() {
    check_worker_independence(FoldedCascode::paper_setup, "folded");
}

#[test]
fn miller_verification_is_bit_identical_at_any_worker_count() {
    check_worker_independence(MillerOpamp::paper_setup, "miller");
}

#[test]
fn verification_samples_go_through_the_pool() {
    for make in [FoldedCascode::paper_setup, MillerOpamp::paper_setup] {
        let env = make();
        let svc = service(&env, 2);
        let d = svc.design_space().initial();
        let corners = svc.operating_range().corners().len() as u64;
        let before = svc.report();

        let mc = MonteCarlo {
            n_samples: MC_SAMPLES,
            seed: SEED,
        }
        .run(&svc, &d, &Tracer::disabled())
        .expect("MC verifies");

        let mut groups = Vec::new();
        for theta in &mc.theta_wc {
            if !groups.contains(theta) {
                groups.push(*theta);
            }
        }
        let groups = groups.len() as u64;
        let after = svc.report();
        assert_eq!(after.batches - before.batches, 1 + groups);
        assert_eq!(
            after.batch_points - before.batch_points,
            corners + groups * MC_SAMPLES as u64,
            "the corner sweep, then every sample once per corner group"
        );
    }
}

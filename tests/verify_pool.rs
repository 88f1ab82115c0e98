//! Monte-Carlo verification on the worker pool: the yield estimators send
//! every sample batch through `EvalService::eval_margins_batch` as
//! unmemoized points.
//!
//! Two contracts are pinned here:
//!
//! * the result bits do not depend on the worker count — 1, 2 and 4
//!   workers agree on the yield, its interval, the per-spec counts and the
//!   simulations spent;
//! * the samples never touch the memo cache: a verification adds no cache
//!   entry and no miss, its only cache traffic is the worst-case-corner
//!   lookup at the nominal statistical point.
//!
//! Every variant runs on a fresh environment, so the warm-start state
//! starts cold on every path.

use specwise::{MonteCarlo, NormMinIs, NormMinOptions, Tracer};
use specwise_ckt::{CircuitEnv, FoldedCascode, MillerOpamp, Testbench};
use specwise_exec::{EvalService, ExecConfig};
use specwise_linalg::DVec;
use specwise_wcd::worst_case_corners;

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
fn verification_samples_leave_the_memo_cache_alone() {
    for make in [FoldedCascode::paper_setup, MillerOpamp::paper_setup] {
        let env = make();
        let svc = service(&env, 2);
        let d = svc.design_space().initial();
        // The optimizer has evaluated the worst-case corners at the nominal
        // statistical point before it verifies; do the same here.
        let corners = svc.operating_range().corners().len() as u64;
        worst_case_corners(&svc, &d, &DVec::zeros(svc.stat_dim())).unwrap();
        let (len, before) = (svc.cache_len(), svc.report());

        mc_bits(&svc, &d);

        let after = svc.report();
        assert_eq!(svc.cache_len(), len, "samples must not be cached");
        assert_eq!(after.cache_misses, before.cache_misses, "no sample misses");
        assert_eq!(
            after.cache_hits,
            before.cache_hits + corners,
            "the corner lookup is the verification's only cache traffic"
        );
        assert!(after.batch_points >= before.batch_points + MC_SAMPLES as u64);
    }
}

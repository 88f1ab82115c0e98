//! Verified optimizer runs served by an `EvalService` with warm starts on
//! (the paper benches' default): the path the `tables` binary and the
//! benchmark's Fig. 6 workloads take.
//!
//! Each pinned run goes through a fresh service, runs one optimizer
//! iteration and verifies every snapshot with one yield estimator: the
//! folded cascode with plain Monte Carlo, the Miller opamp with norm-min
//! and with mean-shift importance sampling. The runs repeat at 1 and 2
//! workers on fresh benches and must give the same bits and the same
//! effort.
//!
//! Each `GOLDEN_*` constant is an FNV-1a hash over every snapshot's design
//! bits and its verification fields (the Monte-Carlo yield, interval,
//! per-spec counts and margin moments, or the tail estimator's summary).
//! The run's total simulation count is asserted next to the hash, not
//! inside it, so a change that only moves the effort shows as a count and
//! leaves the result pin alone.
//!
//! To regenerate after an *intentional* change of the results:
//!
//! ```text
//! cargo test --release --test served_parity -- --ignored regenerate --nocapture
//! ```

use specwise::{EstimatorKind, OptimizationTrace, OptimizerConfig, YieldOptimizer};
use specwise_ckt::{FoldedCascode, MillerOpamp, Testbench};
use specwise_exec::{EvalService, ExecConfig};

/// FNV-1a over a sequence of 64-bit words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn config(estimator: EstimatorKind) -> OptimizerConfig {
    let mut cfg = OptimizerConfig::default();
    cfg.seed = 2001;
    cfg.mc_samples = 2_000;
    cfg.verify_samples = 60;
    cfg.max_iterations = 1;
    cfg.estimator = estimator;
    cfg
}

fn verification_words(trace: &OptimizationTrace) -> Vec<u64> {
    let mut words = Vec::new();
    for snap in trace.snapshots() {
        words.extend(snap.design.iter().map(|v| v.to_bits()));
        if let Some(mc) = &snap.verified {
            let (low, high) = mc.yield_interval();
            words.extend([
                mc.yield_estimate.value().to_bits(),
                mc.yield_estimate.passed() as u64,
                mc.yield_estimate.total() as u64,
                low.to_bits(),
                high.to_bits(),
                mc.sim_failures as u64,
                mc.degraded_samples as u64,
            ]);
            words.extend(mc.per_spec_bad.iter().map(|&b| b as u64));
            for m in &mc.per_spec_margins {
                words.extend([m.count(), m.mean().to_bits(), m.std_dev().to_bits()]);
            }
            for t in &mc.theta_wc {
                words.extend([t.temp_c.to_bits(), t.vdd.to_bits()]);
            }
        }
        if let Some(tail) = &snap.verified_tail {
            words.extend([
                tail.failure_probability.to_bits(),
                tail.yield_value.to_bits(),
                tail.yield_low.to_bits(),
                tail.yield_high.to_bits(),
                tail.effective_sample_size.to_bits(),
                tail.sim_failures as u64,
                u64::from(tail.degraded),
            ]);
        }
    }
    words
}

/// `(verification hash, total simulations)` of one served run on a fresh
/// bench.
fn capture(setup: fn() -> Testbench, estimator: EstimatorKind, workers: usize) -> (u64, u64) {
    let env = setup();
    let svc = EvalService::new(&env, ExecConfig::default().with_workers(workers));
    let trace = YieldOptimizer::new(config(estimator))
        .run(&svc)
        .expect("optimization runs");
    assert!(
        trace.snapshots().iter().all(|s| match estimator {
            EstimatorKind::Mc => s.verified.is_some(),
            _ => s.verified_tail.is_some(),
        }),
        "every snapshot is verified"
    );
    (fnv1a(verification_words(&trace)), trace.total_sims)
}

type Case = (&'static str, fn() -> Testbench, EstimatorKind, (u64, u64));

const GOLDEN_FOLDED_MC: (u64, u64) = (0xc61931825eac3329, 2470);
const GOLDEN_MILLER_NORM_MIN: (u64, u64) = (0x57874e7382c3dccf, 2209);
const GOLDEN_MILLER_IS: (u64, u64) = (0x9ab35bb3c0419bb6, 1885);

const CASES: [Case; 3] = [
    (
        "folded mc",
        FoldedCascode::paper_setup,
        EstimatorKind::Mc,
        GOLDEN_FOLDED_MC,
    ),
    (
        "miller norm-min",
        MillerOpamp::paper_setup,
        EstimatorKind::NormMin,
        GOLDEN_MILLER_NORM_MIN,
    ),
    (
        "miller is",
        MillerOpamp::paper_setup,
        EstimatorKind::MeanShift,
        GOLDEN_MILLER_IS,
    ),
];

fn check(case: usize) {
    let (name, setup, estimator, golden) = CASES[case];
    for workers in [1usize, 2] {
        let (hash, sims) = capture(setup, estimator, workers);
        assert_eq!(
            sims, golden.1,
            "{name} at {workers} workers: simulation count changed"
        );
        assert_eq!(
            hash, golden.0,
            "{name} at {workers} workers: hash {hash:#018x} differs from the pinned {:#018x}",
            golden.0
        );
    }
}

#[test]
fn served_folded_mc_run_matches_golden() {
    check(0);
}

#[test]
fn served_miller_norm_min_run_matches_golden() {
    check(1);
}

#[test]
fn served_miller_is_run_matches_golden() {
    check(2);
}

#[test]
#[ignore = "prints fresh golden constants"]
fn regenerate() {
    for (name, setup, estimator, _) in CASES {
        let (hash, sims) = capture(setup, estimator, 1);
        println!("{name}: ({hash:#018x}, {sims})");
    }
}

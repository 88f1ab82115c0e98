//! Sparse-MNA kernel benchmarks (ISSUE 2): dense-cold vs sparse-cold vs
//! sparse+warm on the two paper circuits, measured on the workload that
//! dominates Table 7 — an MC-verification style stream of performance
//! evaluations at perturbed statistical samples around a fixed design.
//!
//! Variants:
//!
//! * `dense-cold`  — dense LU, every Newton solve from zero,
//! * `sparse-cold` — cached-symbolic sparse LU, Newton from zero,
//! * `sparse-warm` — sparse LU plus the [`WarmStartCache`]: each sample's
//!   DC solves seed from the previous converged operating point (the warm
//!   cache is cleared at the top of every timed iteration so exact-hit
//!   replay never flatters the numbers).
//!
//! Quick mode: set `SPECWISE_BENCH_QUICK=1` to shrink the sample stream and
//! the measurement budget (used by the CI smoke job).
//!
//! Results are recorded in `EXPERIMENTS.md` and `BENCH_sparse.json`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use specwise_ckt::{CircuitEnv, FoldedCascode, MillerOpamp, Testbench};
use specwise_linalg::DVec;
use specwise_mna::SolverChoice;

fn quick() -> bool {
    std::env::var("SPECWISE_BENCH_QUICK").is_ok()
}

/// Deterministic stream of standardized mismatch samples `ŝ ~ N(0, I)`
/// (Box–Muller over the vendored xoshiro generator).
fn sample_stream(dim: usize, count: usize) -> Vec<DVec> {
    let mut rng = StdRng::seed_from_u64(20010618);
    (0..count)
        .map(|_| {
            DVec::from(
                (0..dim)
                    .map(|_| {
                        let u1: f64 = rng.gen::<f64>().max(1e-12);
                        let u2: f64 = rng.gen();
                        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
                    })
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Runs one MC-verification pass: performances at every sample of the
/// stream. Returns a checksum so the work cannot be optimized away.
///
/// Commits the warm-start snapshot between samples (a no-op on disabled
/// caches), so each sample's Newton solves can seed from the previous
/// converged operating point — the serial-stream usage pattern.
fn mc_pass(env: &Testbench, d: &DVec, samples: &[DVec]) -> f64 {
    let theta = env.operating_range().nominal();
    let mut acc = 0.0;
    for s in samples {
        env.warm_commit();
        let perf = env.eval_performances(d, s, &theta).unwrap();
        acc += perf.iter().sum::<f64>();
    }
    acc
}

fn bench_workload(c: &mut Criterion, name: &str, setup: fn() -> Testbench) {
    let n_samples = if quick() { 4 } else { 24 };
    let dense_cold = setup()
        .with_warm_start(false)
        .with_solver(SolverChoice::Dense);
    let sparse_cold = setup()
        .with_warm_start(false)
        .with_solver(SolverChoice::Sparse);
    let sparse_warm = setup()
        .with_warm_start(true)
        .with_solver(SolverChoice::Sparse);
    let d0 = dense_cold.design_space().initial();
    let samples = sample_stream(dense_cold.stat_dim(), n_samples);

    // Parity guard: the two backends must agree on the first sample
    // before any timing is trusted.
    let theta = dense_cold.operating_range().nominal();
    let p_dense = dense_cold
        .eval_performances(&d0, &samples[0], &theta)
        .unwrap();
    let p_sparse = sparse_cold
        .eval_performances(&d0, &samples[0], &theta)
        .unwrap();
    for i in 0..p_dense.len() {
        let err = (p_dense[i] - p_sparse[i]).abs() / (1.0 + p_dense[i].abs());
        assert!(
            err < 1e-6,
            "{name}: dense/sparse disagree on performance {i}: {} vs {}",
            p_dense[i],
            p_sparse[i]
        );
    }

    let mut group = c.benchmark_group(format!("mc_verify_{name}"));
    if quick() {
        group
            .sample_size(3)
            .measurement_time(Duration::from_millis(200));
    } else {
        group
            .sample_size(10)
            .measurement_time(Duration::from_secs(4));
    }

    group.bench_function("dense-cold", |b| {
        b.iter(|| mc_pass(&dense_cold, &d0, &samples));
    });
    group.bench_function("sparse-cold", |b| {
        b.iter(|| mc_pass(&sparse_cold, &d0, &samples));
    });
    group.bench_function("sparse-warm", |b| {
        b.iter(|| {
            // Fresh cache each iteration: within-stream near-hit seeding
            // only, no exact-hit replay between iterations.
            sparse_warm.warm_cache().clear();
            mc_pass(&sparse_warm, &d0, &samples)
        });
    });
    group.finish();
}

fn bench_folded(c: &mut Criterion) {
    bench_workload(c, "folded_cascode", FoldedCascode::paper_setup);
}

fn bench_miller(c: &mut Criterion) {
    bench_workload(c, "miller", MillerOpamp::paper_setup);
}

criterion_group!(benches, bench_folded, bench_miller);
criterion_main!(benches);

//! Benchmarks of the `specwise-exec` evaluation engine: parallel batch
//! fan-out versus serial evaluation on a latency-bound environment.
//!
//! Real SPICE-class simulators spend milliseconds to minutes per operating
//! point, so the win from the worker pool is overlap of *waiting*, not of
//! arithmetic. The analytic test circuits in this workspace solve in
//! microseconds, which would make any threading overhead dominate; to model
//! the intended deployment, the environment here sleeps for a fixed
//! per-evaluation latency. Every benchmark first asserts that the parallel
//! results are bit-identical to the serial ones.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use specwise::{MonteCarlo, Tracer};
use specwise_ckt::{AnalyticEnv, CircuitEnv, DesignParam, DesignSpace, Spec, SpecKind};
use specwise_exec::{EvalService, ExecConfig, RetryPolicy};
use specwise_linalg::DVec;
use specwise_wcd::margins_gradient_d;

/// Simulated per-evaluation solver latency.
const SIM_LATENCY: Duration = Duration::from_micros(500);

/// A latency-bound environment with `n_d` design parameters: every
/// evaluation sleeps for [`SIM_LATENCY`] before returning an analytic
/// margin vector.
fn slow_env(n_d: usize) -> AnalyticEnv {
    let params = (0..n_d)
        .map(|k| DesignParam::new(&format!("d{k}"), "", 0.0, 10.0, 1.0))
        .collect();
    AnalyticEnv::builder()
        .design(DesignSpace::new(params))
        .stat_dim(2)
        .spec(Spec::new("f0", "", SpecKind::LowerBound, 0.0))
        .spec(Spec::new("f1", "", SpecKind::LowerBound, 0.0))
        .performances(move |d, s, _| {
            std::thread::sleep(SIM_LATENCY);
            let sum: f64 = (0..d.len()).map(|k| d[k]).sum();
            DVec::from_slice(&[sum + s[0], 2.0 + s[1] - 0.1 * sum])
        })
        .build()
        .unwrap()
}

fn pool_config(workers: usize) -> ExecConfig {
    ExecConfig::default()
        .with_workers(workers)
        .with_retry(RetryPolicy::none())
}

/// Monte-Carlo verification: N samples per corner group go out as one
/// batch. The acceptance bar is a ≥ 2× speedup at 4+ workers.
fn bench_mc_verification(c: &mut Criterion) {
    let env = slow_env(2);
    let d = env.design_space().initial();
    let mc = MonteCarlo {
        n_samples: 48,
        seed: 42,
    };
    let untraced = Tracer::disabled();

    let serial = mc.run(&env, &d, &untraced).unwrap();
    for workers in [4usize, 8] {
        let svc = EvalService::new(&env, pool_config(workers));
        let par = mc.run(&svc, &d, &untraced).unwrap();
        assert_eq!(
            serial.yield_estimate, par.yield_estimate,
            "parallel MC must be identical"
        );
        assert_eq!(serial.per_spec_bad, par.per_spec_bad);
    }

    let mut group = c.benchmark_group("exec_mc_verify_48_samples");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| mc.run(&env, &d, &untraced).unwrap())
    });
    for workers in [4usize, 8] {
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, &w| {
            let svc = EvalService::new(&env, pool_config(w));
            b.iter(|| mc.run(&svc, &d, &untraced).unwrap())
        });
    }
    group.finish();
}

/// Finite-difference design Jacobian: `n_d + 1` evaluations per call, all
/// independent, issued as one batch.
fn bench_fd_jacobian(c: &mut Criterion) {
    let env = slow_env(11);
    let d = env.design_space().initial();
    let s = DVec::zeros(2);
    let theta = env.operating_range().nominal();

    let (m_serial, j_serial) = margins_gradient_d(&env, &d, &s, &theta, 1e-3).unwrap();
    for workers in [4usize, 8] {
        let svc = EvalService::new(&env, pool_config(workers));
        let (m_par, j_par) = margins_gradient_d(&svc, &d, &s, &theta, 1e-3).unwrap();
        assert_eq!(m_serial, m_par, "parallel Jacobian must be identical");
        for i in 0..j_serial.nrows() {
            for k in 0..j_serial.ncols() {
                assert_eq!(j_serial[(i, k)].to_bits(), j_par[(i, k)].to_bits());
            }
        }
    }

    let mut group = c.benchmark_group("exec_fd_jacobian_12_points");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| margins_gradient_d(&env, &d, &s, &theta, 1e-3).unwrap())
    });
    for workers in [4usize, 8] {
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, &w| {
            let svc = EvalService::new(&env, pool_config(w));
            b.iter(|| margins_gradient_d(&svc, &d, &s, &theta, 1e-3).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mc_verification, bench_fd_jacobian);
criterion_main!(benches);

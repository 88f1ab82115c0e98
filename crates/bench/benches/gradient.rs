//! Gradient-backend benchmarks (ISSUE 7): adjoint sensitivities on cached
//! LU factors vs finite differences.
//!
//! Group `linearize_folded_cascode` — one full spec-wise linearization
//! (`∂m/∂s` + `∂m/∂d` at the initial design, nominal θ, flow-default
//! steps) per iteration:
//!
//! - `fd`      — every perturbation direction fully re-simulated,
//! - `adjoint` — directions priced on the cached factorizations of the
//!   converged base point.
//!
//! Quick mode: set `SPECWISE_BENCH_QUICK=1` to shrink the workloads (used
//! by the CI smoke job). Gate mode: set `SPECWISE_BENCH_GATE=1` to assert
//! the adjoint backend linearizes the folded cascode at least 2x faster
//! than finite differences (the ISSUE 7 acceptance bar) after timing.
//!
//! Results are recorded in `EXPERIMENTS.md` and `BENCH_grad.json`.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use specwise_ckt::{CircuitEnv, FoldedCascode, OperatingPoint};
use specwise_linalg::{DMat, DVec};
use specwise_wcd::{margins_gradient_d_with, margins_gradient_s_with, GradBackend};

fn quick() -> bool {
    std::env::var("SPECWISE_BENCH_QUICK").is_ok()
}

/// One full spec-wise linearization at `(d, ŝ=0, θ_nom)` with the chosen
/// backend; returns a checksum so the work cannot be optimized away.
fn linearize<E: CircuitEnv + Sync>(
    env: &E,
    backend: GradBackend,
    d: &DVec,
    theta: &OperatingPoint,
) -> f64 {
    let s0 = DVec::zeros(env.stat_dim());
    let (base, jac_s) =
        margins_gradient_s_with(env, backend, d, &s0, theta, 0.01).expect("stat gradient");
    let (_, jac_d) =
        margins_gradient_d_with(env, backend, d, &s0, theta, 1e-3).expect("design gradient");
    let mut acc = base.iter().sum::<f64>();
    for j in 0..jac_s.ncols() {
        for i in 0..jac_s.nrows() {
            acc += jac_s[(i, j)];
        }
    }
    for j in 0..jac_d.ncols() {
        for i in 0..jac_d.nrows() {
            acc += jac_d[(i, j)];
        }
    }
    acc
}

fn frob_dev(a: &DMat, b: &DMat) -> f64 {
    let mut diff2 = 0.0;
    let mut norm2 = 0.0;
    for j in 0..b.ncols() {
        for i in 0..b.nrows() {
            diff2 += (a[(i, j)] - b[(i, j)]).powi(2);
            norm2 += b[(i, j)].powi(2);
        }
    }
    diff2.sqrt() / norm2.sqrt().max(1.0)
}

fn bench_linearize(c: &mut Criterion) {
    let env = FoldedCascode::paper_setup();
    let d0 = env.design_space().initial();
    let theta = env.operating_range().nominal();
    let s0 = DVec::zeros(env.stat_dim());

    // Parity guard: the two backends must agree before any timing is
    // trusted (same bar as the adjoint_parity acceptance test).
    let (_, jac_fd) =
        margins_gradient_s_with(&env, GradBackend::Fd, &d0, &s0, &theta, 0.01).unwrap();
    let (_, jac_adj) =
        margins_gradient_s_with(&env, GradBackend::Adjoint, &d0, &s0, &theta, 0.01).unwrap();
    let dev = frob_dev(&jac_adj, &jac_fd);
    assert!(
        dev < 4e-2,
        "fd/adjoint ∂m/∂s disagree: Frobenius dev {dev:e}"
    );

    let mut group = c.benchmark_group("linearize_folded_cascode");
    if quick() {
        group
            .sample_size(3)
            .measurement_time(Duration::from_millis(200));
    } else {
        group
            .sample_size(10)
            .measurement_time(Duration::from_secs(4));
    }
    group.bench_function("fd", |b| {
        b.iter(|| linearize(&env, GradBackend::Fd, &d0, &theta));
    });
    group.bench_function("adjoint", |b| {
        b.iter(|| linearize(&env, GradBackend::Adjoint, &d0, &theta));
    });
    group.finish();

    // Acceptance gate (ISSUE 7): adjoint linearization >= 2x faster than
    // finite differences on the folded cascode. Opt-in so a loaded CI box
    // only pays for it in the dedicated smoke step.
    if std::env::var("SPECWISE_BENCH_GATE").is_ok() {
        let reps = if quick() { 2 } else { 5 };
        let time_backend = |backend: GradBackend| {
            let mut best = Duration::MAX;
            for _ in 0..reps {
                let t0 = Instant::now();
                linearize(&env, backend, &d0, &theta);
                best = best.min(t0.elapsed());
            }
            best
        };
        let fd = time_backend(GradBackend::Fd);
        let adjoint = time_backend(GradBackend::Adjoint);
        let speedup = fd.as_secs_f64() / adjoint.as_secs_f64();
        println!("gate: fd {fd:?} / adjoint {adjoint:?} = {speedup:.2}x");
        assert!(
            speedup >= 2.0,
            "adjoint linearization must be >= 2x faster than FD, got {speedup:.2}x"
        );
    }
}

criterion_group!(benches, bench_linearize);
criterion_main!(benches);

//! Benchmarks of the linearized-model yield estimator: the Eq. 20
//! incremental coordinate update versus full re-evaluation, scaling with
//! the Monte-Carlo sample count, and the one-pass grid scan of a
//! coordinate — the design choices DESIGN.md §5 calls out.
//!
//! The coordinate-search comparison prices one coordinate move over the
//! default 32-point grid two ways:
//!
//! * `coord_probe_incremental_grid32` — 32 × `coord_probe_incremental`,
//!   one `ShiftTracker::estimate_coord` pass over the samples per
//!   candidate,
//! * `coord_scan_grid32` — one `ShiftTracker::scan_coord` over the same 32
//!   values, a single pass over the samples.
//!
//! The `_2threads` rows repeat the scan and the model construction with the
//! sample rows split over two threads (`LinearizedYield::with_threads`), as
//! an optimizer run through a 2-worker evaluation service does. The 4x gate
//! below measures the one-thread model, so it prices the algorithm alone.
//!
//! Quick mode: set `SPECWISE_BENCH_QUICK=1` to shorten the measurements
//! and drop the 100k-sample scaling point (used by the CI smoke job). Gate
//! mode: set `SPECWISE_BENCH_GATE=1` to assert, after timing, that the
//! scan is at least 4x faster than the 32 probes.
//!
//! Results are recorded in `EXPERIMENTS.md`.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use specwise::LinearizedYield;
use specwise_ckt::OperatingPoint;
use specwise_linalg::DVec;
use specwise_wcd::SpecLinearization;

/// A synthetic model set shaped like the folded-cascode problem: 7 models
/// (5 specs + 2 mirrored), 27 statistical dimensions, 10 design dimensions.
fn models() -> Vec<SpecLinearization> {
    let n_s = 27;
    let n_d = 10;
    let mut out = Vec::new();
    for spec in 0..5 {
        let grad_s = DVec::from_fn(n_s, |j| ((spec * 7 + j) as f64 * 0.37).sin() * 0.5);
        let grad_d = DVec::from_fn(n_d, |k| ((spec * 3 + k) as f64 * 0.53).cos());
        let s_wc = grad_s.scaled(-1.2);
        let lin = SpecLinearization {
            spec,
            mirrored: false,
            theta_wc: OperatingPoint::new(25.0, 3.3),
            s_wc,
            d_f: DVec::zeros(n_d),
            margin_at_anchor: 0.0,
            grad_s,
            grad_d,
        };
        if spec == 2 {
            out.push(lin.to_mirrored());
        }
        out.push(lin);
    }
    out
}

fn quick() -> bool {
    std::env::var("SPECWISE_BENCH_QUICK").is_ok()
}

fn bench_estimate_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("linearized_yield_estimate");
    let sizes: &[usize] = if quick() {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    for &n in sizes {
        let model = LinearizedYield::new(models(), 5, n, 7).unwrap();
        let d = DVec::filled(10, 0.3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| model.estimate(&d).unwrap())
        });
    }
    group.finish();
}

fn bench_incremental_vs_full(c: &mut Criterion) {
    let model = LinearizedYield::new(models(), 5, 10_000, 7).unwrap();
    let d0 = DVec::zeros(10);

    // Naive baseline: evaluate every full linear model (27-dim statistical
    // dot product) for every sample — what Eq. 20 avoids by storing the
    // per-sample constant parts.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use specwise_stat::StandardNormal;
    let naive_models = models();
    c.bench_function("coord_probe_naive_per_sample_models", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            let normal = StandardNormal::new();
            let mut d = d0.clone();
            d[3] = 0.7;
            let mut s = DVec::zeros(27);
            let mut pass = 0usize;
            for _ in 0..10_000 {
                normal.fill(&mut rng, s.as_mut_slice());
                if naive_models.iter().all(|m| m.eval(&d, &s) >= 0.0) {
                    pass += 1;
                }
            }
            pass
        })
    });

    // Eq. 20 path A: precomputed sample parts, design shifts rebuilt per
    // candidate (n_d-length dot products).
    c.bench_function("coord_probe_precomputed_parts", |b| {
        b.iter(|| {
            let mut d = d0.clone();
            d[3] = 0.7;
            model.estimate(&d).unwrap()
        })
    });

    // Eq. 20 path B: additionally update only the moved coordinate's term.
    let tracker = model.tracker(&d0).unwrap();
    c.bench_function("coord_probe_incremental", |b| {
        b.iter(|| tracker.estimate_coord(3, 0.7))
    });
}

/// The coordinate search's grid over `[lo, hi]` (same expression as
/// `CoordinateSearch::run`).
fn grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|g| lo + (hi - lo) * g as f64 / (n - 1) as f64)
        .collect()
}

fn probe_grid(tracker: &specwise::ShiftTracker<'_>, k: usize, values: &[f64]) -> Vec<usize> {
    values
        .iter()
        .map(|&v| tracker.estimate_coord(k, v).passed())
        .collect()
}

fn bench_coord_scan(c: &mut Criterion) {
    let model = LinearizedYield::new(models(), 5, 10_000, 7).unwrap();
    let tracker = model.tracker(&DVec::filled(10, 0.3)).unwrap();
    let split = LinearizedYield::with_threads(models(), 5, 10_000, 7, 2).unwrap();
    assert_eq!(split.threads(), 2, "10k rows split over 2 threads");
    let split_tracker = split.tracker(&DVec::filled(10, 0.3)).unwrap();
    let k = 3;
    let values = grid(-1.5, 1.5, 32);

    // Parity guard: the scan must reproduce every probe, on one thread and
    // on two, before any timing is trusted.
    assert_eq!(
        tracker.scan_coord(k, &values),
        probe_grid(&tracker, k, &values),
        "scan_coord disagrees with estimate_coord"
    );
    assert_eq!(
        split_tracker.scan_coord(k, &values),
        tracker.scan_coord(k, &values),
        "the 2-thread scan disagrees with the 1-thread scan"
    );

    let mut group = c.benchmark_group("coordinate_move");
    if quick() {
        group
            .sample_size(5)
            .measurement_time(Duration::from_millis(200));
    } else {
        group
            .sample_size(20)
            .measurement_time(Duration::from_secs(3));
    }
    group.bench_function("coord_probe_incremental_grid32", |b| {
        b.iter(|| probe_grid(&tracker, k, &values))
    });
    group.bench_function("coord_scan_grid32", |b| {
        b.iter(|| tracker.scan_coord(k, &values))
    });
    group.bench_function("coord_scan_grid32_2threads", |b| {
        b.iter(|| split_tracker.scan_coord(k, &values))
    });
    group.finish();

    // Acceptance gate: one scan >= 4x faster than 32 probes. Opt-in so a
    // loaded CI box only pays for it in the dedicated smoke step.
    if std::env::var("SPECWISE_BENCH_GATE").is_ok() {
        let reps = if quick() { 5 } else { 20 };
        let best_of = |f: &dyn Fn() -> Vec<usize>| {
            let mut best = Duration::MAX;
            for _ in 0..reps {
                let t0 = Instant::now();
                std::hint::black_box(f());
                best = best.min(t0.elapsed());
            }
            best
        };
        let probes = best_of(&|| probe_grid(&tracker, k, &values));
        let scan = best_of(&|| tracker.scan_coord(k, &values));
        let speedup = probes.as_secs_f64() / scan.as_secs_f64();
        println!("gate: 32 probes {probes:?} / scan {scan:?} = {speedup:.2}x");
        assert!(
            speedup >= 4.0,
            "scan_coord must be >= 4x faster than 32 estimate_coord probes, got {speedup:.2}x"
        );
    }
}

fn bench_model_construction(c: &mut Criterion) {
    c.bench_function("model_construction_10k_samples", |b| {
        b.iter(|| LinearizedYield::new(models(), 5, 10_000, 7).unwrap())
    });
    c.bench_function("model_construction_10k_samples_2threads", |b| {
        b.iter(|| LinearizedYield::with_threads(models(), 5, 10_000, 7, 2).unwrap())
    });
}

criterion_group!(
    benches,
    bench_estimate_scaling,
    bench_incremental_vs_full,
    bench_coord_scan,
    bench_model_construction
);
criterion_main!(benches);

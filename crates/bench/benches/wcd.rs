//! Benchmarks of the worst-case analysis layer: the worst-case distance
//! search (Eq. 8) and the full per-design-point analysis, on an analytic
//! problem (deterministic, no simulator noise) and on the real circuit.

use criterion::{criterion_group, criterion_main, Criterion};
use specwise_ckt::{
    AnalyticEnv, CircuitEnv, DesignParam, DesignSpace, FoldedCascode, Spec, SpecKind,
};
use specwise_linalg::DVec;
use specwise_wcd::{WcAnalysis, WcOptions, WorstCaseSearch};

/// A 27-dimensional analytic problem shaped like the circuit one.
fn analytic_env() -> AnalyticEnv {
    AnalyticEnv::builder()
        .design(DesignSpace::new(vec![DesignParam::new(
            "d0", "", 0.0, 10.0, 3.0,
        )]))
        .stat_dim(27)
        .spec(Spec::new("lin", "", SpecKind::LowerBound, 0.0))
        .spec(Spec::new("quad", "", SpecKind::LowerBound, 0.0))
        .performances(|d, s, _| {
            let lin: f64 = d[0]
                + s.iter()
                    .enumerate()
                    .map(|(i, &x)| x * 0.2 * ((i + 1) as f64).sqrt())
                    .sum::<f64>()
                    * 0.3;
            let z = s[5] - s[6];
            let quad = d[0] - 0.3 * z * z - 0.2 * z;
            DVec::from_slice(&[lin, quad])
        })
        .build()
        .unwrap()
}

fn bench_wc_search_analytic(c: &mut Criterion) {
    let env = analytic_env();
    let d = DVec::from_slice(&[3.0]);
    let theta = env.operating_range().nominal();
    let search = WorstCaseSearch;
    c.bench_function("wc_distance_linear_27d", |b| {
        b.iter(|| search.run(&env, &d, 0, &theta).unwrap())
    });
    c.bench_function("wc_distance_quadratic_27d", |b| {
        b.iter(|| search.run(&env, &d, 1, &theta).unwrap())
    });
}

fn bench_full_analysis(c: &mut Criterion) {
    let env = analytic_env();
    let d = DVec::from_slice(&[3.0]);
    c.bench_function("wc_analysis_analytic", |b| {
        b.iter(|| WcAnalysis::new(&env, WcOptions::default()).run(&d).unwrap())
    });

    // The real thing: one full worst-case analysis of the folded cascode —
    // the dominant cost of one optimizer iteration.
    let fc = FoldedCascode::paper_setup();
    let d0 = fc.design_space().initial();
    let mut group = c.benchmark_group("wc_analysis_circuit");
    group.sample_size(10);
    group.bench_function("folded_cascode", |b| {
        b.iter(|| WcAnalysis::new(&fc, WcOptions::default()).run(&d0).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_wc_search_analytic, bench_full_analysis);
criterion_main!(benches);

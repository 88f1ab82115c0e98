//! End-to-end benches of the two paper experiments: one full optimizer
//! iteration of the folded-cascode (Table 1) and Miller (Table 6) flows
//! with reduced sample counts. These are the wall-clock numbers behind our
//! Table 7 analogue.

use criterion::{criterion_group, criterion_main, Criterion};
use specwise::{MonteCarlo, OptimizerConfig, Tracer, YieldOptimizer};
use specwise_ckt::{CircuitEnv, FoldedCascode, MillerOpamp};

fn quick_config() -> OptimizerConfig {
    let mut cfg = OptimizerConfig::default();
    cfg.max_iterations = 1;
    cfg.mc_samples = 2_000;
    cfg.verify_samples = 0; // timing the optimization itself, not the MC audit
    cfg
}

fn bench_folded(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimize_one_iteration");
    group.sample_size(10);
    group.bench_function("folded_cascode", |b| {
        b.iter(|| {
            let env = FoldedCascode::paper_setup();
            YieldOptimizer::new(quick_config()).run(&env).unwrap()
        })
    });
    group.bench_function("miller", |b| {
        b.iter(|| {
            let env = MillerOpamp::paper_setup();
            YieldOptimizer::new(quick_config()).run(&env).unwrap()
        })
    });
    group.finish();
}

fn bench_mc_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("mc_verification_300_samples");
    group.sample_size(10);
    let env = FoldedCascode::paper_setup();
    let d0 = env.design_space().initial();
    let mc = MonteCarlo {
        n_samples: 300,
        seed: 42,
    };
    group.bench_function("folded_cascode", |b| {
        b.iter(|| mc.run(&env, &d0, &Tracer::disabled()).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_folded, bench_mc_verification);
criterion_main!(benches);

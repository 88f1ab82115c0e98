//! Estimator-layer parity: the `MonteCarlo` and `MeanShiftIs` verifiers
//! must keep the bits of the original Monte-Carlo and importance-sampling
//! loops they replaced.
//!
//! Each `GOLDEN_*` constant is a pair of FNV-1a hashes, one over every
//! checked field of a Monte-Carlo verification and one over every checked
//! field of an importance-sampling run: yields, per-spec bad counts,
//! streaming margin moments, yield intervals and simulation-failure
//! counters. The hashes were captured while frozen copies of the
//! pre-refactor loops (the exact accumulation order, RNG stream
//! consumption and exclusion rules) still agreed with the estimators bit
//! for bit. Any drift in the shared corner-group batch loop or in an
//! estimator's `run` fails loudly instead of silently changing published
//! yields. Checked per opamp on the bare environments and through an
//! `EvalService` at 1 and 4 workers, together with the journal span
//! shapes.
//!
//! The environments run with the DC warm-start cache off, so every point
//! is solved cold, as the frozen loops solved it. With the cache on, an
//! estimator's bits depend on which points were solved before (a warm
//! Newton start lands on a neighbouring float), and the frozen loops only
//! ever agreed with an estimator that replayed their own cold solutions
//! as exact cache hits.
//!
//! The `GOLDEN_WARM_*` constants pin the same estimators with the cache
//! on, as the optimizer runs them: `MonteCarlo::run` and `NormMinIs::run`
//! at the initial design of the folded cascode and the Miller opamp,
//! behind an `EvalService` at 1 and 2 workers, each on a fresh bench.
//! Every result bit goes into the hash; the simulations each run spent
//! are asserted next to it, not inside it.
//!
//! To regenerate after an *intentional* numerical change:
//!
//! ```text
//! cargo test --release --test estimator_parity -- --ignored regenerate --nocapture
//! ```

use std::sync::Arc;

use specwise::{
    IsResult, McVerification, MeanShiftIs, MonteCarlo, NormMinIs, NormMinOptions, NormMinResult,
};
use specwise_ckt::{CircuitEnv, FiveTransistorOta, FoldedCascode, MillerOpamp, Testbench};
use specwise_exec::{EvalService, ExecConfig};
use specwise_linalg::DVec;
use specwise_trace::{Journal, SpanNode, TraceValue, Tracer};

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

/// Hash of every checked field of a Monte-Carlo verification.
fn mc_hash(r: &McVerification) -> u64 {
    let (low, high) = r.yield_interval();
    let mut words = vec![
        r.yield_estimate.value().to_bits(),
        r.yield_estimate.passed() as u64,
        r.yield_estimate.total() as u64,
    ];
    words.extend(r.per_spec_bad.iter().map(|&b| b as u64));
    for t in &r.theta_wc {
        words.extend([t.temp_c.to_bits(), t.vdd.to_bits()]);
    }
    words.extend([
        r.sim_failures as u64,
        r.degraded_samples as u64,
        low.to_bits(),
        high.to_bits(),
    ]);
    for m in &r.per_spec_margins {
        words.extend([m.count(), m.mean().to_bits(), m.std_dev().to_bits()]);
    }
    fnv1a(words)
}

/// Hash of every checked field of an importance-sampling run.
fn is_hash(r: &IsResult) -> u64 {
    fnv1a([
        r.failure_probability.to_bits(),
        r.yield_value.to_bits(),
        r.std_error.to_bits(),
        r.effective_sample_size.to_bits(),
        r.sim_failures as u64,
        r.degraded_weight.to_bits(),
    ])
}

/// Hash of every result field of a norm-min verification except its
/// simulation count (`search_sims`), which the warm pins assert beside it.
fn norm_min_hash(r: &NormMinResult) -> u64 {
    let (low, high) = r.yield_interval();
    let mut words: Vec<u64> = r.shift.iter().map(|x| x.to_bits()).collect();
    words.extend([
        r.beta.to_bits(),
        r.critical_spec as u64,
        is_hash(&r.sampling),
        r.sampling.n as u64,
        u64::from(r.ess_degraded),
        low.to_bits(),
        high.to_bits(),
    ]);
    fnv1a(words)
}

/// An environment that solves every point cold (see the module docs).
fn cold(env: Testbench) -> Testbench {
    env.with_warm_start(false)
}

/// `(mc_hash, is_hash)` of each opamp at its initial design.
const GOLDEN_MILLER: (u64, u64) = (0x5c58dd69f35a0d77, 0x1af52a5412aceb73);
const GOLDEN_FOLDED: (u64, u64) = (0x2b097eea92f62b0e, 0x0b4f360e47cebdfc);
const GOLDEN_OTA: (u64, u64) = (0x3bde51d0cb48f566, 0x0ce1184e4cc4eb06);

const MC_SAMPLES: usize = 40;
const IS_SAMPLES: usize = 60;
const SEED: u64 = 2001;

/// A small deterministic shift toward each spec's failure side — enough
/// for the IS weight arithmetic to be exercised without needing a true
/// worst-case point.
fn test_shift(dim: usize) -> DVec {
    DVec::from_fn(dim, |i| 0.4 + 0.1 * (i % 3) as f64)
}

/// The options of the MC and IS runs on `env`.
fn options<E: CircuitEnv + ?Sized>(env: &E) -> (MonteCarlo, MeanShiftIs) {
    let mc = MonteCarlo {
        n_samples: MC_SAMPLES,
        seed: SEED,
    };
    let is = MeanShiftIs {
        shift: test_shift(env.stat_dim()),
        n: IS_SAMPLES,
        seed: SEED,
    };
    (mc, is)
}

fn check_env<E: CircuitEnv + Sync>(env: &E, label: &str, golden: (u64, u64)) {
    let d = env.design_space().initial();
    let (mc_options, is_options) = options(env);

    // Bare environment: the pinned bits, and the simulation effort every
    // dispatch below must spend too.
    let sims_before = env.sim_count();
    let got = mc_options
        .run(env, &d, &Tracer::disabled())
        .expect("MC verifies");
    let mc_sims = env.sim_count() - sims_before;
    assert_eq!(mc_hash(&got), golden.0, "{label} bare MC: hash");

    let sims_before = env.sim_count();
    let got = is_options
        .run(env, &d, &Tracer::disabled())
        .expect("IS verifies");
    let is_sims = env.sim_count() - sims_before;
    assert_eq!(is_hash(&got), golden.1, "{label} bare IS: hash");

    // Through the EvalService at 1 and 4 workers: identical results and
    // identical simulation effort regardless of dispatch.
    for workers in [1usize, 4] {
        let svc = EvalService::new(env, ExecConfig::default().with_workers(workers));
        let sims_before = svc.sim_count();
        let got = mc_options
            .run(&svc, &d, &Tracer::disabled())
            .expect("MC verifies via service");
        assert_eq!(
            svc.sim_count() - sims_before,
            mc_sims,
            "{label}: MC sim count at {workers} workers"
        );
        assert_eq!(
            mc_hash(&got),
            golden.0,
            "{label} MC {workers} workers: hash"
        );

        let sims_before = svc.sim_count();
        let got = is_options
            .run(&svc, &d, &Tracer::disabled())
            .expect("IS verifies via service");
        assert_eq!(
            svc.sim_count() - sims_before,
            is_sims,
            "{label}: IS sim count at {workers} workers"
        );
        assert_eq!(
            is_hash(&got),
            golden.1,
            "{label} IS {workers} workers: hash"
        );
    }
}

#[test]
fn miller_ports_match_pre_refactor_bits() {
    check_env(&cold(MillerOpamp::paper_setup()), "miller", GOLDEN_MILLER);
}

#[test]
fn folded_cascode_ports_match_pre_refactor_bits() {
    check_env(&cold(FoldedCascode::paper_setup()), "folded", GOLDEN_FOLDED);
}

#[test]
fn five_transistor_ota_ports_match_pre_refactor_bits() {
    check_env(&cold(FiveTransistorOta::default_setup()), "ota", GOLDEN_OTA);
}

const WARM_MC_SAMPLES: usize = 60;
const WARM_NORM_MIN_SAMPLES: usize = 60;

/// `(mc_hash, mc_sims, norm_min_hash, norm_min search sims, norm_min_sims)`
/// of each opamp at its initial design with warm starts on.
type WarmPin = (u64, u64, u64, u64, u64);

const GOLDEN_WARM_FOLDED: WarmPin = (0x4ffb7540a455abdc, 1104, 0x7f3a08d8b7e74868, 96, 756);
const GOLDEN_WARM_MILLER: WarmPin = (0x3d0320e11dede283, 1104, 0x0a1e71aec65dc088, 108, 1104);

/// The warm pin of a fresh bench behind an `EvalService` at `workers`.
fn warm_pin(make: fn() -> Testbench, workers: usize) -> WarmPin {
    let mc_env = make();
    let svc = EvalService::new(&mc_env, ExecConfig::default().with_workers(workers));
    let d = svc.design_space().initial();
    let mc = MonteCarlo {
        n_samples: WARM_MC_SAMPLES,
        seed: SEED,
    }
    .run(&svc, &d, &Tracer::disabled())
    .expect("MC verifies");
    let mc_sims = svc.sim_count();

    let nm_env = make();
    let svc = EvalService::new(&nm_env, ExecConfig::default().with_workers(workers));
    let nm = NormMinIs {
        options: NormMinOptions {
            n: WARM_NORM_MIN_SAMPLES,
            seed: SEED,
            ..NormMinOptions::default()
        },
    }
    .run(&svc, &d, &Tracer::disabled())
    .expect("norm-min verifies");
    (
        mc_hash(&mc),
        mc_sims,
        norm_min_hash(&nm),
        nm.search_sims,
        svc.sim_count(),
    )
}

fn check_warm(make: fn() -> Testbench, golden: WarmPin) {
    let name = make().name().to_string();
    for workers in [1usize, 2] {
        let got = warm_pin(make, workers);
        assert_eq!(got.0, golden.0, "{name} warm MC {workers} workers: hash");
        assert_eq!(got.1, golden.1, "{name} warm MC {workers} workers: sims");
        assert_eq!(
            got.2, golden.2,
            "{name} warm norm-min {workers} workers: hash"
        );
        assert_eq!(
            (got.3, got.4),
            (golden.3, golden.4),
            "{name} warm norm-min {workers} workers: (search sims, sims)"
        );
    }
}

#[test]
fn folded_cascode_warm_start_bits_are_pinned() {
    check_warm(FoldedCascode::paper_setup, GOLDEN_WARM_FOLDED);
}

#[test]
fn miller_warm_start_bits_are_pinned() {
    check_warm(MillerOpamp::paper_setup, GOLDEN_WARM_MILLER);
}

fn single_span(journal: &Arc<Journal>, name: &str) -> SpanNode {
    let forest = journal.span_tree();
    assert_eq!(forest.len(), 1, "exactly one top-level span");
    let root = forest.into_iter().next().expect("root span");
    assert_eq!(root.span.name, name);
    root
}

fn attr_f64(node: &SpanNode, key: &str) -> f64 {
    match node.span.attr(key) {
        Some(TraceValue::F64(v)) => *v,
        other => panic!("attribute {key} should be an f64, got {other:?}"),
    }
}

/// The shared driver must keep the exact pre-refactor journal span shapes:
/// same span names, same attribute keys in the same order, same values.
#[test]
fn journal_spans_keep_pre_refactor_shapes() {
    let env = cold(MillerOpamp::paper_setup());
    let d = env.design_space().initial();
    let (mc_options, is_options) = options(&env);

    let journal = Arc::new(Journal::in_memory());
    let got = mc_options
        .run(&env, &d, &Tracer::new(Arc::clone(&journal)))
        .expect("traced MC verifies");
    assert_eq!(mc_hash(&got), GOLDEN_MILLER.0, "traced MC: hash");

    let mc = single_span(&journal, "mc_verify");
    let keys: Vec<&str> = mc.span.attrs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "n_samples",
            "passed",
            "yield",
            "sim_failures",
            "degraded_samples",
            "yield_low",
            "yield_high",
            "per_spec_bad",
        ],
        "mc_verify span attribute shape"
    );
    assert_eq!(
        mc.span.attr("n_samples"),
        Some(&TraceValue::U64(MC_SAMPLES as u64))
    );
    assert_eq!(
        attr_f64(&mc, "yield").to_bits(),
        got.yield_estimate.value().to_bits()
    );
    assert!(mc.span.counter("sims").is_some_and(|s| s > 0));

    let journal = Arc::new(Journal::in_memory());
    let got = is_options
        .run(&env, &d, &Tracer::new(Arc::clone(&journal)))
        .expect("traced IS verifies");
    assert_eq!(is_hash(&got), GOLDEN_MILLER.1, "traced IS: hash");

    let is = single_span(&journal, "is_verify");
    let keys: Vec<&str> = is.span.attrs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "n",
            "failure_probability",
            "std_error",
            "variance",
            "effective_sample_size",
            "sim_failures",
            "yield_low",
            "yield_high",
        ],
        "is_verify span attribute shape"
    );
    assert_eq!(
        attr_f64(&is, "failure_probability").to_bits(),
        got.failure_probability.to_bits()
    );
    assert!(is.span.counter("sims").is_some_and(|s| s > 0));
}

/// Prints fresh golden constants (run with `--ignored --nocapture` and paste
/// the output over the `GOLDEN_*` constants above).
#[test]
#[ignore = "prints fresh golden constants"]
fn regenerate() {
    for (name, env) in [
        ("MILLER", MillerOpamp::paper_setup()),
        ("FOLDED", FoldedCascode::paper_setup()),
        ("OTA", FiveTransistorOta::default_setup()),
    ] {
        let env = cold(env);
        let d = env.design_space().initial();
        let (mc, is) = options(&env);
        let mc = mc.run(&env, &d, &Tracer::disabled()).expect("MC verifies");
        let is = is.run(&env, &d, &Tracer::disabled()).expect("IS verifies");
        println!(
            "const GOLDEN_{name}: (u64, u64) = ({:#018x}, {:#018x});",
            mc_hash(&mc),
            is_hash(&is)
        );
    }
    for (name, make) in [
        ("FOLDED", FoldedCascode::paper_setup as fn() -> Testbench),
        ("MILLER", MillerOpamp::paper_setup),
    ] {
        let (mc, mc_sims, nm, search_sims, nm_sims) = warm_pin(make, 1);
        println!(
            "const GOLDEN_WARM_{name}: WarmPin = ({mc:#018x}, {mc_sims}, {nm:#018x}, {search_sims}, {nm_sims});"
        );
    }
}

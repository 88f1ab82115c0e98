//! Norm-min parity: the minimum-norm failure-point estimator's result bits
//! are frozen.
//!
//! `verify_pool.rs` only compares worker counts with each other, so a
//! change that moved every norm-min number the same way would pass it.
//! The `GOLDEN_*` constants below are FNV-1a hashes over the exact bit
//! patterns of every `NormMinResult` field (the proposal shift included),
//! its yield interval and the simulations the verification spent:
//!
//! * on the folded-cascode and Miller paper setups at their initial
//!   designs, with a small sample count;
//! * on an analytic environment with a constant margin, where the search
//!   finds nothing and the ESS guard trips;
//! * on the `norm_min_verify` journal span: its attribute keys in order
//!   (asserted literally), their value bits and its `sims` counter;
//! * on a one-iteration Miller optimizer run per tail estimator
//!   (`EstimatorKind::MeanShift` and `EstimatorKind::NormMin`): every
//!   `TailVerification` field of every snapshot and the final design
//!   bits. This pins the optimizer's choice of the mean-shift proposal
//!   (the smallest-β worst-case point) and its tail summary. The run's
//!   total simulation count is asserted next to the hash, not inside it,
//!   so a change that only moves the effort shows as a count.
//!
//! One check is an equality rather than a hash: the sampling pass behind
//! norm-min is the mean-shift pass, so its sampling fields must equal a
//! `MeanShiftIs` run at the shift the search found, with the same sample
//! count and seed.
//!
//! To regenerate after an *intentional* numerical change:
//!
//! ```text
//! cargo test --release --test norm_min_parity -- --ignored regenerate --nocapture
//! ```

use std::sync::Arc;

use specwise::{
    EstimatorKind, MeanShiftIs, NormMinIs, NormMinOptions, NormMinResult, OptimizerConfig,
    TailVerification, YieldOptimizer,
};
use specwise_ckt::{
    AnalyticEnv, CircuitEnv, DesignParam, DesignSpace, FoldedCascode, MillerOpamp, Spec, SpecKind,
};
use specwise_linalg::DVec;
use specwise_trace::{Journal, TraceValue, Tracer};

const SEED: u64 = 2001;
const SAMPLES: usize = 40;
const GUARD_SAMPLES: usize = 200;

const GOLDEN_FOLDED: u64 = 0x089a1c25d0768789;
const GOLDEN_MILLER: u64 = 0x9c41661ba5a9afb9;
const GOLDEN_GUARD: u64 = 0x3450e6ae3e42f74e;
const GOLDEN_SPAN: u64 = 0xaf0127060c2be73d;
/// `(hash, total simulations)` of each one-iteration optimizer run.
const GOLDEN_RUN_MEAN_SHIFT: (u64, u64) = (0xafdc66196677c3f5, 1507);
const GOLDEN_RUN_NORM_MIN: (u64, u64) = (0xb431544dd688416b, 1753);

/// FNV-1a over a sequence of 64-bit patterns.
fn fnv1a(bits: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bits {
        for byte in b.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn estimator(n: usize) -> NormMinIs {
    NormMinIs {
        options: NormMinOptions {
            n,
            seed: SEED,
            ..NormMinOptions::default()
        },
    }
}

/// Runs norm-min at the initial design, returning the result and the
/// simulations it spent.
fn run<E: CircuitEnv + ?Sized>(env: &E, n: usize, tracer: &Tracer) -> (NormMinResult, u64) {
    let d = env.design_space().initial();
    let sims = env.sim_count();
    let r = estimator(n)
        .run(env, &d, tracer)
        .expect("norm-min verifies");
    (r, env.sim_count() - sims)
}

/// Every field of `r`, its interval and `sims`, as one hash.
fn result_hash(r: &NormMinResult, sims: u64) -> u64 {
    let s = &r.sampling;
    let (low, high) = r.yield_interval();
    let mut bits: Vec<u64> = r.shift.iter().map(|x| x.to_bits()).collect();
    bits.extend([
        r.shift.len() as u64,
        r.beta.to_bits(),
        r.critical_spec as u64,
        s.failure_probability.to_bits(),
        s.yield_value.to_bits(),
        s.std_error.to_bits(),
        s.effective_sample_size.to_bits(),
        s.n as u64,
        s.sim_failures as u64,
        s.degraded_weight.to_bits(),
        u64::from(r.ess_degraded),
        r.search_sims,
        low.to_bits(),
        high.to_bits(),
        sims,
    ]);
    fnv1a(bits)
}

/// margin = b everywhere (the constant env of `norm_min_guard.rs`): no
/// failure region and a zero gradient, so the ESS guard trips.
fn constant_env() -> AnalyticEnv {
    AnalyticEnv::builder()
        .design(DesignSpace::new(vec![DesignParam::new(
            "b", "", 0.0, 20.0, 2.0,
        )]))
        .stat_dim(2)
        .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
        .performances(|d, _, _| DVec::from_slice(&[d[0]]))
        .build()
        .unwrap()
}

fn folded_hash() -> u64 {
    let (r, sims) = run(&FoldedCascode::paper_setup(), SAMPLES, &Tracer::disabled());
    result_hash(&r, sims)
}

fn miller_hash() -> u64 {
    let (r, sims) = run(&MillerOpamp::paper_setup(), SAMPLES, &Tracer::disabled());
    result_hash(&r, sims)
}

fn guard_hash() -> u64 {
    let (r, sims) = run(&constant_env(), GUARD_SAMPLES, &Tracer::disabled());
    assert!(
        r.ess_degraded,
        "the constant margin must trip the ESS guard"
    );
    assert_eq!(r.yield_interval(), (0.0, 1.0));
    result_hash(&r, sims)
}

/// Hash over the `norm_min_verify` span's attribute values (keys checked
/// literally) and its `sims` counter, on the Miller setup.
fn span_hash() -> u64 {
    let journal = Arc::new(Journal::in_memory());
    let env = MillerOpamp::paper_setup();
    run(&env, SAMPLES, &Tracer::new(Arc::clone(&journal)));
    let forest = journal.span_tree();
    assert_eq!(forest.len(), 1, "exactly one top-level span");
    let span = &forest[0].span;
    assert_eq!(span.name, "norm_min_verify");
    let keys: Vec<&str> = span.attrs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "n",
            "beta",
            "critical_spec",
            "failure_probability",
            "std_error",
            "effective_sample_size",
            "sim_failures",
            "ess_degraded",
            "search_sims",
            "yield_low",
            "yield_high",
        ],
        "norm_min_verify span attribute shape"
    );
    let mut bits = Vec::new();
    for (_, v) in &span.attrs {
        match v {
            TraceValue::Bool(b) => bits.extend([0, u64::from(*b)]),
            TraceValue::U64(u) => bits.extend([1, *u]),
            TraceValue::F64(x) => bits.extend([2, x.to_bits()]),
            other => panic!("unexpected attribute value {other:?}"),
        }
    }
    bits.push(span.counter("sims").expect("sims counter"));
    fnv1a(bits)
}

/// Every field of a snapshot's tail summary, as 64-bit words.
fn tail_words(t: &TailVerification) -> [u64; 8] {
    [
        t.estimator as u64,
        t.failure_probability.to_bits(),
        t.yield_value.to_bits(),
        t.yield_low.to_bits(),
        t.yield_high.to_bits(),
        t.effective_sample_size.to_bits(),
        t.sim_failures as u64,
        u64::from(t.degraded),
    ]
}

/// Hash over a one-iteration Miller optimizer run verified by `kind`
/// (each snapshot's tail summary and the final design bits), and the run's
/// total simulations.
fn run_hash(kind: EstimatorKind) -> (u64, u64) {
    let mut cfg = OptimizerConfig::default();
    cfg.seed = SEED;
    cfg.mc_samples = 2_000;
    cfg.verify_samples = SAMPLES;
    cfg.max_iterations = 1;
    cfg.estimator = kind;
    let trace = YieldOptimizer::new(cfg)
        .run(&MillerOpamp::paper_setup())
        .expect("optimization runs");
    let mut bits = Vec::new();
    for snap in trace.snapshots() {
        assert!(snap.verified.is_none(), "a tail run fills `verified_tail`");
        let tail = snap
            .verified_tail
            .as_ref()
            .expect("every snapshot is verified");
        assert_eq!(tail.estimator, kind);
        bits.extend(tail_words(tail));
    }
    bits.push(trace.snapshots().len() as u64);
    bits.extend(trace.final_design().iter().map(|x| x.to_bits()));
    (fnv1a(bits), trace.total_sims)
}

fn check_run(kind: EstimatorKind, golden: (u64, u64)) {
    let (hash, sims) = run_hash(kind);
    assert_eq!(sims, golden.1, "{kind:?}: simulation count changed");
    assert_eq!(hash, golden.0, "{kind:?}: run hash {hash:#018x} changed");
}

#[test]
fn mean_shift_run_matches_golden() {
    check_run(EstimatorKind::MeanShift, GOLDEN_RUN_MEAN_SHIFT);
}

#[test]
fn norm_min_run_matches_golden() {
    check_run(EstimatorKind::NormMin, GOLDEN_RUN_NORM_MIN);
}

#[test]
fn folded_matches_golden() {
    assert_eq!(folded_hash(), GOLDEN_FOLDED);
}

#[test]
fn miller_matches_golden() {
    assert_eq!(miller_hash(), GOLDEN_MILLER);
}

#[test]
fn tripped_guard_matches_golden() {
    assert_eq!(guard_hash(), GOLDEN_GUARD);
}

#[test]
fn span_matches_golden() {
    assert_eq!(span_hash(), GOLDEN_SPAN);
}

/// Norm-min's sampling pass is the mean-shift pass at the shift its
/// search found.
#[test]
fn sampling_equals_mean_shift_at_the_found_shift() {
    let env = FoldedCascode::paper_setup();
    let (r, _) = run(&env, SAMPLES, &Tracer::disabled());
    let d = env.design_space().initial();
    let is = MeanShiftIs {
        shift: r.shift.clone(),
        n: SAMPLES,
        seed: SEED,
    }
    .run(&env, &d, &Tracer::disabled())
    .expect("mean-shift verifies");
    let got = r.sampling;
    assert_eq!(
        got.failure_probability.to_bits(),
        is.failure_probability.to_bits()
    );
    assert_eq!(got.yield_value.to_bits(), is.yield_value.to_bits());
    assert_eq!(got.std_error.to_bits(), is.std_error.to_bits());
    assert_eq!(
        got.effective_sample_size.to_bits(),
        is.effective_sample_size.to_bits()
    );
    assert_eq!(got.n, is.n);
    assert_eq!(got.sim_failures, is.sim_failures);
    assert_eq!(got.degraded_weight.to_bits(), is.degraded_weight.to_bits());
}

/// Prints fresh golden constants (run with `--ignored --nocapture` and paste
/// the output over the `GOLDEN_*` constants above).
#[test]
#[ignore]
fn regenerate() {
    println!("const GOLDEN_FOLDED: u64 = {:#018x};", folded_hash());
    println!("const GOLDEN_MILLER: u64 = {:#018x};", miller_hash());
    println!("const GOLDEN_GUARD: u64 = {:#018x};", guard_hash());
    println!("const GOLDEN_SPAN: u64 = {:#018x};", span_hash());
    for (name, kind) in [
        ("MEAN_SHIFT", EstimatorKind::MeanShift),
        ("NORM_MIN", EstimatorKind::NormMin),
    ] {
        let (hash, sims) = run_hash(kind);
        println!("const GOLDEN_RUN_{name}: (u64, u64) = ({hash:#018x}, {sims});");
    }
}

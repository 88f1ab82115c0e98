//! Estimator-layer parity: the `MonteCarlo` and `MeanShiftIs` verifiers
//! must be bit-for-bit identical to the original Monte-Carlo and
//! importance-sampling loops they replaced.
//!
//! The reference implementations below are frozen copies of the seed code
//! (the exact accumulation order, RNG stream consumption, and exclusion
//! rules), kept here so any future drift in the shared corner-group batch
//! loop or in an estimator's `run` fails loudly with a bit diff instead
//! of silently changing published yields. Checked per
//! opamp: yields, per-spec bad counts, streaming margin moments, yield
//! intervals, simulation counters, and the journal span shapes — on the
//! bare environments and through an `EvalService` at 1 and 4 workers.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use specwise::{IsResult, McVerification, MeanShiftIs, MonteCarlo};
use specwise_ckt::{CircuitEnv, FiveTransistorOta, FoldedCascode, MillerOpamp, OperatingPoint};
use specwise_exec::{EvalService, ExecConfig};
use specwise_linalg::DVec;
use specwise_stat::{RunningMoments, StandardNormal, YieldEstimate};
use specwise_trace::{Journal, SpanNode, TraceValue, Tracer};
use specwise_wcd::worst_case_corners;

const MC_SAMPLES: usize = 40;
const IS_SAMPLES: usize = 60;
const SEED: u64 = 2001;

/// Frozen copy of the pre-refactor Monte-Carlo accumulation loop.
struct ReferenceMc {
    yield_estimate: YieldEstimate,
    per_spec_bad: Vec<usize>,
    per_spec_margins: Vec<RunningMoments>,
    theta_wc: Vec<OperatingPoint>,
    sim_failures: usize,
    degraded_samples: usize,
}

impl ReferenceMc {
    fn yield_interval(&self) -> (f64, f64) {
        let n = self.yield_estimate.total() as f64;
        let low = self.yield_estimate.value();
        let high = (low + self.degraded_samples as f64 / n).min(1.0);
        (low, high)
    }
}

fn corner_groups<E: CircuitEnv + ?Sized>(
    env: &E,
    d: &DVec,
) -> (Vec<OperatingPoint>, Vec<(OperatingPoint, Vec<usize>)>) {
    let corners = worst_case_corners(env, d, &DVec::zeros(env.stat_dim())).expect("corners");
    let theta_wc: Vec<OperatingPoint> = corners.iter().map(|(t, _)| *t).collect();
    let mut groups: Vec<(OperatingPoint, Vec<usize>)> = Vec::new();
    for (i, t) in theta_wc.iter().enumerate() {
        match groups.iter_mut().find(|(g, _)| g == t) {
            Some((_, specs)) => specs.push(i),
            None => groups.push((*t, vec![i])),
        }
    }
    (theta_wc, groups)
}

fn reference_mc<E: CircuitEnv + ?Sized>(env: &E, d: &DVec, options: &MonteCarlo) -> ReferenceMc {
    let n_samples = options.n_samples;
    let n_spec = env.specs().len();
    let (theta_wc, groups) = corner_groups(env, d);

    let mut rng = StdRng::seed_from_u64(options.seed);
    let normal = StandardNormal::new();
    let mut samples = Vec::with_capacity(n_samples);
    for _ in 0..n_samples {
        let mut s = DVec::zeros(env.stat_dim());
        normal.fill(&mut rng, s.as_mut_slice());
        samples.push(s);
    }

    let mut per_spec_bad = vec![0usize; n_spec];
    let mut per_spec_margins = vec![RunningMoments::new(); n_spec];
    let mut ok = vec![true; n_samples];
    let mut violated = vec![false; n_samples];
    let mut degraded = vec![false; n_samples];
    let mut sim_failures = 0usize;

    for (theta, specs) in &groups {
        for (j, s) in samples.iter().enumerate() {
            match env.eval_margins(d, s, theta) {
                Ok(margins) if specs.iter().any(|&i| !margins[i].is_finite()) => {
                    sim_failures += 1;
                    degraded[j] = true;
                    for &i in specs {
                        per_spec_bad[i] += 1;
                        if margins[i].is_finite() {
                            per_spec_margins[i].push(margins[i]);
                        }
                    }
                    ok[j] = false;
                }
                Ok(margins) => {
                    for &i in specs {
                        per_spec_margins[i].push(margins[i]);
                        if margins[i] < 0.0 {
                            per_spec_bad[i] += 1;
                            ok[j] = false;
                            violated[j] = true;
                        }
                    }
                }
                Err(e) if e.is_simulation_failure() => {
                    sim_failures += 1;
                    degraded[j] = true;
                    for &i in specs {
                        per_spec_bad[i] += 1;
                    }
                    ok[j] = false;
                }
                Err(e) => panic!("reference MC hit a non-simulation error: {e}"),
            }
        }
    }

    let passed = ok.iter().filter(|&&x| x).count();
    let degraded_samples = (0..n_samples)
        .filter(|&j| degraded[j] && !violated[j])
        .count();
    ReferenceMc {
        yield_estimate: YieldEstimate::from_counts(passed, n_samples),
        per_spec_bad,
        per_spec_margins,
        theta_wc,
        sim_failures,
        degraded_samples,
    }
}

/// Frozen copy of the pre-refactor importance-sampling loop,
/// including the live-sample short-circuit across corner groups.
struct ReferenceIs {
    failure_probability: f64,
    yield_value: f64,
    std_error: f64,
    effective_sample_size: f64,
    sim_failures: usize,
    degraded_weight: f64,
}

fn reference_is<E: CircuitEnv + ?Sized>(
    env: &E,
    d: &DVec,
    shift: &DVec,
    options: &MeanShiftIs,
) -> ReferenceIs {
    let n = options.n;
    let (_, groups) = corner_groups(env, d);

    let mut rng = StdRng::seed_from_u64(options.seed);
    let normal = StandardNormal::new();
    let half_mu2 = 0.5 * shift.dot(shift);
    let mut samples = Vec::with_capacity(n);
    let mut weights = Vec::with_capacity(n);
    let mut z = DVec::zeros(env.stat_dim());
    for _ in 0..n {
        normal.fill(&mut rng, z.as_mut_slice());
        let s = &z + shift;
        weights.push((half_mu2 - shift.dot(&s)).exp());
        samples.push(s);
    }

    let mut failed = vec![false; n];
    let mut violated = vec![false; n];
    let mut degraded = vec![false; n];
    let mut sim_failures = 0usize;
    for (theta, specs) in &groups {
        let live: Vec<usize> = (0..n).filter(|&j| !failed[j]).collect();
        if live.is_empty() {
            break;
        }
        for &j in &live {
            match env.eval_margins(d, &samples[j], theta) {
                Ok(margins) if specs.iter().any(|&i| !margins[i].is_finite()) => {
                    sim_failures += 1;
                    degraded[j] = true;
                    failed[j] = true;
                }
                Ok(margins) => {
                    if specs.iter().any(|&i| margins[i] < 0.0) {
                        failed[j] = true;
                        violated[j] = true;
                    }
                }
                Err(e) if e.is_simulation_failure() => {
                    sim_failures += 1;
                    degraded[j] = true;
                    failed[j] = true;
                }
                Err(e) => panic!("reference IS hit a non-simulation error: {e}"),
            }
        }
    }

    let mut fail_w = 0.0;
    let mut fail_w2 = 0.0;
    let mut degraded_w = 0.0;
    for j in 0..n {
        if failed[j] {
            fail_w += weights[j];
            fail_w2 += weights[j] * weights[j];
        }
        if degraded[j] && !violated[j] {
            degraded_w += weights[j];
        }
    }

    let nf = n as f64;
    let p_fail = (fail_w / nf).clamp(0.0, 1.0);
    let var = ((fail_w2 / nf) - p_fail * p_fail).max(0.0) / nf;
    let ess = if fail_w2 > 0.0 {
        fail_w * fail_w / fail_w2
    } else {
        0.0
    };
    ReferenceIs {
        failure_probability: p_fail,
        yield_value: 1.0 - p_fail,
        std_error: var.sqrt(),
        effective_sample_size: ess,
        sim_failures,
        degraded_weight: (degraded_w / nf).clamp(0.0, 1.0),
    }
}

fn assert_mc_matches(got: &McVerification, want: &ReferenceMc, label: &str) {
    assert_eq!(
        got.yield_estimate.value().to_bits(),
        want.yield_estimate.value().to_bits(),
        "{label}: yield bits"
    );
    assert_eq!(
        got.yield_estimate.passed(),
        want.yield_estimate.passed(),
        "{label}: passed count"
    );
    assert_eq!(
        got.yield_estimate.total(),
        want.yield_estimate.total(),
        "{label}: total count"
    );
    assert_eq!(got.per_spec_bad, want.per_spec_bad, "{label}: per_spec_bad");
    assert_eq!(got.theta_wc, want.theta_wc, "{label}: theta_wc");
    assert_eq!(got.sim_failures, want.sim_failures, "{label}: sim_failures");
    assert_eq!(
        got.degraded_samples, want.degraded_samples,
        "{label}: degraded_samples"
    );
    let (glo, ghi) = got.yield_interval();
    let (wlo, whi) = want.yield_interval();
    assert_eq!(glo.to_bits(), wlo.to_bits(), "{label}: interval low");
    assert_eq!(ghi.to_bits(), whi.to_bits(), "{label}: interval high");
    for (i, (g, w)) in got
        .per_spec_margins
        .iter()
        .zip(&want.per_spec_margins)
        .enumerate()
    {
        assert_eq!(g.count(), w.count(), "{label}: margin count of spec {i}");
        assert_eq!(
            g.mean().to_bits(),
            w.mean().to_bits(),
            "{label}: margin mean of spec {i}"
        );
        assert_eq!(
            g.std_dev().to_bits(),
            w.std_dev().to_bits(),
            "{label}: margin std-dev of spec {i}"
        );
    }
}

fn assert_is_matches(got: &IsResult, want: &ReferenceIs, label: &str) {
    assert_eq!(
        got.failure_probability.to_bits(),
        want.failure_probability.to_bits(),
        "{label}: failure probability bits"
    );
    assert_eq!(
        got.yield_value.to_bits(),
        want.yield_value.to_bits(),
        "{label}: yield bits"
    );
    assert_eq!(
        got.std_error.to_bits(),
        want.std_error.to_bits(),
        "{label}: std error bits"
    );
    assert_eq!(
        got.effective_sample_size.to_bits(),
        want.effective_sample_size.to_bits(),
        "{label}: ESS bits"
    );
    assert_eq!(got.sim_failures, want.sim_failures, "{label}: sim_failures");
    assert_eq!(
        got.degraded_weight.to_bits(),
        want.degraded_weight.to_bits(),
        "{label}: degraded weight bits"
    );
}

/// A small deterministic shift toward each spec's failure side — enough
/// for the IS weight arithmetic to be exercised without needing a true
/// worst-case point.
fn test_shift(dim: usize) -> DVec {
    DVec::from_fn(dim, |i| 0.4 + 0.1 * (i % 3) as f64)
}

fn check_env<E: CircuitEnv + Sync>(env: &E, label: &str) {
    let d = env.design_space().initial();
    let mc_options = MonteCarlo {
        n_samples: MC_SAMPLES,
        seed: SEED,
    };
    let shift = test_shift(env.stat_dim());
    let is_options = MeanShiftIs {
        shift: shift.clone(),
        n: IS_SAMPLES,
        seed: SEED,
    };
    let want_mc = reference_mc(env, &d, &mc_options);
    let want_is = reference_is(env, &d, &shift, &is_options);

    // Bare environment: the ports must match reference bits *and* spend
    // exactly as many simulations.
    let sims_before = env.sim_count();
    let got = mc_options
        .run(env, &d, &Tracer::disabled())
        .expect("MC verifies");
    let mc_sims = env.sim_count() - sims_before;
    assert_mc_matches(&got, &want_mc, &format!("{label} bare MC"));

    let sims_before = env.sim_count();
    let got = is_options
        .run(env, &d, &Tracer::disabled())
        .expect("IS verifies");
    let is_sims = env.sim_count() - sims_before;
    assert_is_matches(&got, &want_is, &format!("{label} bare IS"));

    // Through the EvalService at 1 and 4 workers: identical results and
    // identical simulation effort regardless of dispatch.
    for workers in [1usize, 4] {
        let svc = EvalService::new(
            env,
            ExecConfig::default()
                .with_workers(workers)
                .with_cache_capacity(0),
        );
        let sims_before = svc.sim_count();
        let got = mc_options
            .run(&svc, &d, &Tracer::disabled())
            .expect("MC verifies via service");
        assert_eq!(
            svc.sim_count() - sims_before,
            mc_sims,
            "{label}: MC sim count at {workers} workers"
        );
        assert_mc_matches(&got, &want_mc, &format!("{label} MC {workers} workers"));

        let sims_before = svc.sim_count();
        let got = is_options
            .run(&svc, &d, &Tracer::disabled())
            .expect("IS verifies via service");
        assert_eq!(
            svc.sim_count() - sims_before,
            is_sims,
            "{label}: IS sim count at {workers} workers"
        );
        assert_is_matches(&got, &want_is, &format!("{label} IS {workers} workers"));
    }
}

#[test]
fn miller_ports_match_pre_refactor_bits() {
    check_env(&MillerOpamp::paper_setup(), "miller");
}

#[test]
fn folded_cascode_ports_match_pre_refactor_bits() {
    check_env(&FoldedCascode::paper_setup(), "folded");
}

#[test]
fn five_transistor_ota_ports_match_pre_refactor_bits() {
    check_env(&FiveTransistorOta::default_setup(), "ota");
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
    let env = MillerOpamp::paper_setup();
    let d = env.design_space().initial();
    let mc_options = MonteCarlo {
        n_samples: MC_SAMPLES,
        seed: SEED,
    };
    let want_mc = reference_mc(&env, &d, &mc_options);

    let journal = Arc::new(Journal::in_memory());
    let got = mc_options
        .run(&env, &d, &Tracer::new(Arc::clone(&journal)))
        .expect("traced MC verifies");
    assert_mc_matches(&got, &want_mc, "traced MC");

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
        want_mc.yield_estimate.value().to_bits()
    );
    assert!(mc.span.counter("sims").is_some_and(|s| s > 0));

    let shift = test_shift(env.stat_dim());
    let is_options = MeanShiftIs {
        shift: shift.clone(),
        n: IS_SAMPLES,
        seed: SEED,
    };
    let want_is = reference_is(&env, &d, &shift, &is_options);

    let journal = Arc::new(Journal::in_memory());
    let got = is_options
        .run(&env, &d, &Tracer::new(Arc::clone(&journal)))
        .expect("traced IS verifies");
    assert_is_matches(&got, &want_is, "traced IS");

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
        want_is.failure_probability.to_bits()
    );
    assert!(is.span.counter("sims").is_some_and(|s| s > 0));
}

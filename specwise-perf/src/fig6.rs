//! The three in-process Fig. 6 workloads: one optimizer run per request,
//! each on a fresh environment and evaluation service, closed loop with
//! one caller.

use std::sync::Arc;
use std::time::Instant;

use specwise::{
    EstimatorKind, IterationSnapshot, Journal, NormMinOptions, OptimizationTrace, OptimizerConfig,
    TailVerification, Tracer, YieldOptimizer,
};
use specwise_ckt::{CircuitEnv, FoldedCascode, MillerOpamp, SimPhase};
use specwise_exec::{EvalService, ExecConfig, ExecReport, RetryPolicy};
use specwise_mna::symbolic_cache_len;

use crate::attrib::{self, Values};
use crate::layers::{CktCounts, CountingEnv};
use crate::metrics::{design_hash, mean, median, Report};
use crate::Opts;

/// Timed runs whose simulation counts and yields make up `sims_per_run`
/// and `yield_final`: a fixed prefix of the seed sequence, so both repeat
/// exactly at one seed. The timed loop runs at least this many.
pub const PREFIX_RUNS: usize = 10;
/// Runs of the traced pass.
pub const TRACED_RUNS: usize = 3;
/// Evaluation worker threads (the benchmark machine's core count).
pub const WORKERS: usize = 2;

/// A Fig. 6 workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig6 {
    /// The paper's Table 1/7 configuration on the folded-cascode.
    Folded,
    /// The same run without simulation-based verification.
    OptimizeFolded,
    /// The Miller opamp verified by norm-min importance sampling.
    TailMiller,
}

impl Fig6 {
    /// The optimizer configuration of run `seed`. The Miller loop stops
    /// after one or two iterations depending on the seed (its linearized
    /// yield saturates), so `TailMiller` caps it at one: every run then
    /// does the same kind of work and the run times stay unimodal.
    fn config(self, seed: u64) -> OptimizerConfig {
        let mut cfg = OptimizerConfig::default();
        cfg.seed = seed;
        match self {
            Fig6::Folded => {}
            Fig6::OptimizeFolded => cfg.verify_samples = 0,
            Fig6::TailMiller => {
                cfg.estimator = EstimatorKind::NormMin;
                cfg.max_iterations = 1;
            }
        }
        cfg
    }
}

/// The evaluation service of every Fig. 6 run.
pub fn exec_config() -> ExecConfig {
    ExecConfig {
        workers: WORKERS,
        cache_capacity: 4096,
        retry: RetryPolicy::default(),
        min_parallel_batch: 2,
    }
}

/// What must repeat exactly between runs of one seed.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    sims: u64,
    phase_sims: [u64; SimPhase::COUNT],
    design: u64,
}

/// A checked run.
#[derive(Debug)]
struct Facts {
    fingerprint: Fingerprint,
    yield_final: f64,
}

fn optimize<E: CircuitEnv + Sync>(
    env: &E,
    cfg: OptimizerConfig,
) -> Result<OptimizationTrace, String> {
    let svc = EvalService::new(env, exec_config());
    YieldOptimizer::new(cfg)
        .run(&svc)
        .map_err(|e| e.to_string())
}

/// One untraced run: build the circuit, optimize, drop. Returns the wall
/// time in seconds and the trace, or the error the run ended with.
fn plain(w: Fig6, seed: u64) -> (f64, Result<OptimizationTrace, String>) {
    let t0 = Instant::now();
    let result = match w {
        Fig6::Folded | Fig6::OptimizeFolded => {
            optimize(&FoldedCascode::paper_setup(), w.config(seed))
        }
        Fig6::TailMiller => optimize(&MillerOpamp::paper_setup(), w.config(seed)),
    };
    (t0.elapsed().as_secs_f64(), result)
}

type TracedParts = (OptimizationTrace, ExecReport, CktCounts);

fn optimize_traced<E: CircuitEnv + Sync>(
    env: &E,
    cfg: OptimizerConfig,
    tracer: Tracer,
) -> Result<TracedParts, String> {
    let counting = CountingEnv::new(env);
    let svc = EvalService::new(&counting, exec_config());
    let trace = YieldOptimizer::new(cfg)
        .with_tracer(tracer)
        .run(&svc)
        .map_err(|e| e.to_string())?;
    let report = trace.exec.clone().unwrap_or_else(|| svc.report());
    Ok((trace, report, counting.counts()))
}

/// One traced run: the optimizer journals into an in-memory journal under
/// a `bench.run` span, and the counting wrapper sits under the service.
/// Returns the wall seconds, and the trace, the per-layer values and the
/// journal as JSONL.
fn traced(w: Fig6, seed: u64) -> (f64, Result<(OptimizationTrace, Values, String), String>) {
    let journal = Arc::new(Journal::in_memory());
    let tracer = Tracer::new(Arc::clone(&journal));
    let t0 = Instant::now();
    let span = tracer.span("bench.run");
    let result = match w {
        Fig6::Folded | Fig6::OptimizeFolded => {
            let env = FoldedCascode::paper_setup();
            optimize_traced(&env, w.config(seed), span.tracer())
                .map(|parts| (parts, env.warm_cache().len()))
        }
        Fig6::TailMiller => {
            let env = MillerOpamp::paper_setup();
            optimize_traced(&env, w.config(seed), span.tracer())
                .map(|parts| (parts, env.warm_cache().len()))
        }
    };
    drop(span);
    let wall = t0.elapsed().as_secs_f64();
    let result = result.and_then(|((trace, report, counts), warm)| {
        let mut values = attrib::span_values(&journal.records())?;
        values.extend(attrib::engine_values(
            &trace, &report, &counts, WORKERS, warm,
        ));
        Ok((trace, values, journal.to_jsonl()))
    });
    (wall, result)
}

fn mc_yield(s: &IterationSnapshot) -> Result<f64, String> {
    s.verified
        .as_ref()
        .map(|v| v.yield_estimate.value())
        .ok_or_else(|| format!("{}: no Monte-Carlo verification", s.label))
}

/// A tail verification must be well-formed, and its ESS guard must agree
/// with its ESS: degraded exactly when the ESS is below the norm-min
/// minimum (then the interval is the whole `[0, 1]`).
fn tail(s: &IterationSnapshot) -> Result<&TailVerification, String> {
    let t = s
        .verified_tail
        .as_ref()
        .ok_or_else(|| format!("{}: no tail verification", s.label))?;
    let unit = |x: f64| (0.0..=1.0).contains(&x);
    if !(unit(t.yield_low)
        && unit(t.yield_high)
        && t.yield_low <= t.yield_value
        && t.yield_value <= t.yield_high)
    {
        return Err(format!(
            "{}: tail yield {} outside its interval [{}, {}]",
            s.label, t.yield_value, t.yield_low, t.yield_high
        ));
    }
    let starved = !(t.effective_sample_size >= NormMinOptions::default().min_ess);
    if t.degraded != starved {
        return Err(format!(
            "{}: degraded={} but ESS {}",
            s.label, t.degraded, t.effective_sample_size
        ));
    }
    Ok(t)
}

/// The correctness checks of one run.
fn check(w: Fig6, trace: &OptimizationTrace) -> Result<Facts, String> {
    if let Some(why) = &trace.aborted {
        return Err(format!("run aborted: {why}"));
    }
    if let Some(s) = trace.snapshots().iter().find(|s| s.collapsed) {
        return Err(format!("{}: snapshot collapsed", s.label));
    }
    let (first, last) = (trace.initial(), trace.final_snapshot());
    let (y0, y1) = match w {
        Fig6::Folded => (mc_yield(first)?, mc_yield(last)?),
        Fig6::OptimizeFolded => (first.estimated_yield.value(), last.estimated_yield.value()),
        Fig6::TailMiller => (tail(first)?.yield_value, tail(last)?.yield_value),
    };
    if !(y1 > y0 && (0.0..=1.0).contains(&y1)) {
        return Err(format!("final yield {y1} does not improve on initial {y0}"));
    }
    Ok(Facts {
        fingerprint: Fingerprint {
            sims: trace.total_sims,
            phase_sims: trace.phase_sims,
            design: design_hash(trace.final_design().as_slice()),
        },
        yield_final: y1,
    })
}

/// Setup: one checked warm-up run at the workload seed, which fills the
/// process-global solver caches. Returns its seconds and its facts.
fn setup(w: Fig6, seed: u64) -> Result<(f64, Facts), String> {
    let (secs, result) = plain(w, seed);
    Ok((secs, result.and_then(|t| check(w, &t))?))
}

/// Setup only; returns its seconds.
///
/// # Errors
///
/// The warm-up run failed or gave a wrong result.
pub fn setup_only(w: Fig6, seed: u64) -> Result<f64, String> {
    setup(w, seed).map(|(secs, _)| secs)
}

/// Runs the workload: setup, timed untraced runs, then (with
/// `opts.layers`) the traced pass. Fills `r`; returns the setup seconds.
pub fn bench(w: Fig6, opts: &Opts, r: &mut Report) -> Option<f64> {
    let (setup_s, reference) = match setup(w, opts.seed) {
        Ok(x) => x,
        Err(e) => {
            r.problem(format!("setup run: {e}"));
            return None;
        }
    };
    let symbolic_after_setup = symbolic_cache_len();

    // Run k optimizes with seed `seed + k`, so the timed runs sample many
    // seeds and their median does not hinge on one trajectory.
    let start = Instant::now();
    let mut runs: Vec<(f64, Option<Facts>)> = Vec::new();
    while runs.len() < PREFIX_RUNS || start.elapsed() < opts.seconds {
        let k = runs.len();
        let (wall, result) = plain(w, opts.seed + k as u64);
        r.attempted += 1;
        let facts = match result {
            Err(e) => {
                r.failed += 1;
                eprintln!("run {k} failed: {e}");
                None
            }
            Ok(trace) => match check(w, &trace) {
                Ok(f) => Some(f),
                Err(e) => {
                    r.problem(format!("run {k}: {e}"));
                    None
                }
            },
        };
        runs.push((wall, facts));
    }
    if let Some(Some(first)) = runs.first().map(|(_, f)| f) {
        if first.fingerprint != reference.fingerprint {
            r.problem(format!(
                "seed {} is not deterministic: warm-up {:?}, timed {:?}",
                opts.seed, reference.fingerprint, first.fingerprint
            ));
        }
    }

    let ok: Vec<f64> = runs
        .iter()
        .filter(|(_, f)| f.is_some())
        .map(|(wall, _)| *wall)
        .collect();
    let busy: f64 = runs.iter().map(|(wall, _)| wall).sum();
    let prefix: Vec<&Facts> = runs[..PREFIX_RUNS]
        .iter()
        .filter_map(|(_, f)| f.as_ref())
        .collect();
    crate::set_latency(r, &ok);
    r.set("jobs_per_min", 60.0 * ok.len() as f64 / busy, runs.len());
    r.set(
        "sims_per_run",
        mean(
            &prefix
                .iter()
                .map(|f| f.fingerprint.sims as f64)
                .collect::<Vec<_>>(),
        ),
        prefix.len(),
    );
    r.set(
        "yield_final",
        mean(&prefix.iter().map(|f| f.yield_final).collect::<Vec<_>>()),
        prefix.len(),
    );
    r.set("ok_frac", ok.len() as f64 / runs.len() as f64, runs.len());

    if opts.layers {
        r.set("mna.symbolic_cache_entries", symbolic_cache_len() as f64, 1);
        r.set(
            "mna.symbolic_cache_growth",
            symbolic_cache_len() as f64 - symbolic_after_setup as f64,
            1,
        );
        traced_pass(w, opts, &runs, r);
    }
    Some(setup_s)
}

/// The traced pass: re-runs the first timed seeds with tracing on, checks
/// they reproduce the untraced runs, and reports the per-layer medians.
fn traced_pass(w: Fig6, opts: &Opts, runs: &[(f64, Option<Facts>)], r: &mut Report) {
    let mut per_run: Vec<Values> = Vec::new();
    let mut overhead = Vec::new();
    for (k, (untraced_wall, untraced)) in runs.iter().enumerate().take(TRACED_RUNS) {
        let (wall, result) = traced(w, opts.seed + k as u64);
        r.attempted += 1;
        let (trace, values, journal) = match result {
            Ok(x) => x,
            Err(e) => {
                r.failed += 1;
                eprintln!("traced run {k} failed: {e}");
                continue;
            }
        };
        match (check(w, &trace), untraced) {
            (Ok(f), Some(u)) if f.fingerprint == u.fingerprint => {}
            (Ok(f), Some(u)) => r.problem(format!(
                "traced run {k} differs from untraced: {:?} vs {:?}",
                f.fingerprint, u.fingerprint
            )),
            (Ok(_), None) => {}
            (Err(e), _) => r.problem(format!("traced run {k}: {e}")),
        }
        if k == 0 {
            crate::save_journal(opts, &journal);
        }
        overhead.push(wall / untraced_wall - 1.0);
        per_run.push(values);
    }
    crate::set_medians(r, &per_run);
    r.set("trace.overhead_frac", median(&overhead), overhead.len());
}

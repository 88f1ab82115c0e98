//! Golden trajectory: the optimizer's path through the design space must
//! stay bit-identical under changes to the linear-model yield kernels.
//!
//! Each `GOLDEN_*` constant is an FNV-1a hash over every snapshot of one
//! run: the design bits, the linearized pass count
//! (`estimated_yield.passed()`) and the per-spec bad-sample bits
//! (`bad_per_mille`). The run's total simulation count is asserted next
//! to the hash, not inside it, so a change that only moves the effort
//! shows as a count and leaves the trajectory pin alone. The runs use
//! seed 2001, 2,000 linear-model samples, no simulation-based verification
//! and two iterations, so the pin covers the feasible start, worst-case
//! analysis, spec-wise linearization, coordinate search and line search of
//! both paper circuits in a few seconds.
//!
//! The pinned runs use a bare environment, which has no worker pool, so
//! the linear-model kernels never split their sample rows there.
//! `worker_pool_keeps_the_trajectory` covers the split: it runs the same
//! configuration at the default sample count through an `EvalService` at 1
//! and 2 workers and requires identical trajectories and effort.
//!
//! To regenerate after an *intentional* change of the trajectory:
//!
//! ```text
//! cargo test --release --test golden_trajectory -- --ignored regenerate --nocapture
//! ```

use std::sync::Arc;

use specwise::{Journal, OptimizationTrace, OptimizerConfig, Tracer, YieldOptimizer};
use specwise_ckt::{FoldedCascode, MillerOpamp, Testbench};
use specwise_exec::{EvalService, ExecConfig};
use specwise_trace::{Record, TraceValue};

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

fn config() -> OptimizerConfig {
    let mut cfg = OptimizerConfig::default();
    cfg.seed = 2001;
    cfg.mc_samples = 2_000;
    cfg.verify_samples = 0;
    cfg.max_iterations = 2;
    cfg
}

fn trajectory_words(trace: &OptimizationTrace) -> Vec<u64> {
    let mut words = Vec::new();
    for snap in trace.snapshots() {
        words.extend(snap.design.iter().map(|v| v.to_bits()));
        words.push(snap.estimated_yield.passed() as u64);
        words.extend(snap.bad_per_mille.iter().map(|v| v.to_bits()));
    }
    words
}

/// `(trajectory hash, total simulations, snapshot count)` of one run.
fn capture(env: &Testbench) -> (u64, u64, usize) {
    let trace = YieldOptimizer::new(config())
        .run(env)
        .expect("optimization runs");
    (
        fnv1a(trajectory_words(&trace)),
        trace.total_sims,
        trace.snapshots().len(),
    )
}

const GOLDEN_FOLDED: (u64, u64, usize) = (0x6d5a6affa6ccd629, 772, 3);
const GOLDEN_MILLER: (u64, u64, usize) = (0xc587fb139ffa30c4, 594, 2);

fn check(name: &str, env: &Testbench, golden: (u64, u64, usize)) {
    let (hash, sims, snaps) = capture(env);
    assert_eq!(snaps, golden.2, "{name}: snapshot count changed");
    assert_eq!(sims, golden.1, "{name}: simulation count changed");
    assert_eq!(
        hash, golden.0,
        "{name}: trajectory hash {hash:#018x} differs from the pinned {:#018x}",
        golden.0
    );
}

#[test]
fn folded_trajectory_matches_golden() {
    check("folded", &FoldedCascode::paper_setup(), GOLDEN_FOLDED);
}

#[test]
fn miller_trajectory_matches_golden() {
    check("miller", &MillerOpamp::paper_setup(), GOLDEN_MILLER);
}

/// `(trajectory words, total simulations)` of one run at the default
/// linear-model sample count through a fresh service with `workers`
/// workers, after checking that every model build ran on
/// `expected_threads` threads.
fn pooled_run(env: &Testbench, workers: usize, expected_threads: u64) -> (Vec<u64>, u64) {
    let mut cfg = config();
    cfg.mc_samples = OptimizerConfig::default().mc_samples;
    let journal = Arc::new(Journal::in_memory());
    let svc = EvalService::new(env, ExecConfig::default().with_workers(workers));
    let trace = YieldOptimizer::new(cfg)
        .with_tracer(Tracer::new(Arc::clone(&journal)))
        .run(&svc)
        .expect("optimization runs");
    let records = journal.records();
    let builds: Vec<_> = records
        .iter()
        .filter_map(|r| match r {
            Record::Span(s) if s.name == "linear_model" => Some(s),
            _ => None,
        })
        .collect();
    assert!(!builds.is_empty(), "no linear_model span");
    for build in builds {
        assert_eq!(
            build.attr("threads"),
            Some(&TraceValue::U64(expected_threads)),
            "{workers} workers"
        );
    }
    (trajectory_words(&trace), trace.total_sims)
}

#[test]
fn worker_pool_keeps_the_trajectory() {
    for (name, setup) in [
        ("folded", FoldedCascode::paper_setup as fn() -> Testbench),
        ("miller", MillerOpamp::paper_setup),
    ] {
        // A fresh environment per run: warm-start state carries over.
        let (words_1, sims_1) = pooled_run(&setup(), 1, 1);
        let (words_2, sims_2) = pooled_run(&setup(), 2, 2);
        assert_eq!(sims_2, sims_1, "{name}: simulation count at 2 workers");
        assert!(
            words_2 == words_1,
            "{name}: trajectory at 2 workers differs from 1 worker"
        );
    }
}

#[test]
#[ignore = "prints fresh golden constants"]
fn regenerate() {
    for (name, env) in [
        ("FOLDED", FoldedCascode::paper_setup()),
        ("MILLER", MillerOpamp::paper_setup()),
    ] {
        let (hash, sims, snaps) = capture(&env);
        println!("const GOLDEN_{name}: (u64, u64, usize) = ({hash:#018x}, {sims}, {snaps});");
    }
}

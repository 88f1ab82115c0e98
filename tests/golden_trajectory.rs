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
//! `forced_completion_order_keeps_the_trajectory` makes a chosen point of
//! every margin batch finish last at 2 workers, each point in turn, so a
//! result that depends on which point finishes last (such as the bench's
//! last measurement, which serves exact repeats) shows as a different
//! trajectory or effort.
//!
//! To regenerate after an *intentional* change of the trajectory:
//!
//! ```text
//! cargo test --release --test golden_trajectory -- --ignored regenerate --nocapture
//! ```

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use specwise::{Journal, OptimizationTrace, OptimizerConfig, Tracer, YieldOptimizer};
use specwise_ckt::{
    CircuitEnv, CktError, DesignSpace, FoldedCascode, MillerOpamp, OperatingPoint, OperatingRange,
    SimPhase, Spec, StatSpace, Testbench,
};
use specwise_exec::{EvalService, ExecConfig};
use specwise_linalg::DVec;
use specwise_trace::{Record, TraceValue};
use specwise_wcd::LinearizationPoint;

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

const GOLDEN_FOLDED: (u64, u64, usize) = (0x6d5a6affa6ccd629, 682, 3);
const GOLDEN_MILLER: (u64, u64, usize) = (0xc587fb139ffa30c4, 534, 2);

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

/// A bench that holds back point `held` of every margin batch until the
/// batch's other `batch_len − 1` points have finished, so at 2 workers a
/// batch completes with that point last instead of in the serial order.
/// A batch is what follows a warm-start commit; the service commits once
/// before each batch and before each sensitivity call, and the latter is
/// marked so the scalar evaluations after it run at once. The runs below
/// send only corner sweeps through margin batches.
struct HoldBack {
    bench: Testbench,
    held: usize,
    batch_len: usize,
    /// Whether the last commit opened a margin batch.
    batch: AtomicBool,
    /// Margin evaluations started since the last commit.
    started: AtomicUsize,
    /// Margin evaluations finished since the last commit.
    finished: Mutex<usize>,
    progress: Condvar,
}

impl HoldBack {
    fn new(bench: Testbench, held: usize, batch_len: usize) -> Self {
        HoldBack {
            bench,
            held,
            batch_len,
            batch: AtomicBool::new(false),
            started: AtomicUsize::new(0),
            finished: Mutex::new(0),
            progress: Condvar::new(),
        }
    }

    fn finished(&self) -> MutexGuard<'_, usize> {
        self.finished
            .lock()
            .expect("no evaluation panics under the lock")
    }
}

impl CircuitEnv for HoldBack {
    fn name(&self) -> &str {
        self.bench.name()
    }

    fn design_space(&self) -> &DesignSpace {
        self.bench.design_space()
    }

    fn stat_space(&self) -> &StatSpace {
        self.bench.stat_space()
    }

    fn stat_dim(&self) -> usize {
        self.bench.stat_dim()
    }

    fn specs(&self) -> &[Spec] {
        self.bench.specs()
    }

    fn operating_range(&self) -> &OperatingRange {
        self.bench.operating_range()
    }

    fn constraint_names(&self) -> Vec<String> {
        self.bench.constraint_names()
    }

    fn eval_performances(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
    ) -> Result<DVec, CktError> {
        let index = self.started.fetch_add(1, Ordering::SeqCst);
        if index == self.held && self.batch.load(Ordering::SeqCst) {
            let (done, wait) = self
                .progress
                .wait_timeout_while(self.finished(), Duration::from_secs(10), |done| {
                    *done + 1 < self.batch_len
                })
                .expect("no evaluation panics under the lock");
            drop(done);
            assert!(
                !wait.timed_out(),
                "a margin batch of fewer than {} points",
                self.batch_len
            );
        }
        let result = self.bench.eval_performances(d, s_hat, theta);
        *self.finished() += 1;
        self.progress.notify_all();
        result
    }

    fn eval_constraints(&self, d: &DVec) -> Result<DVec, CktError> {
        self.batch.store(false, Ordering::SeqCst);
        self.bench.eval_constraints(d)
    }

    fn sim_count(&self) -> u64 {
        self.bench.sim_count()
    }

    fn reset_sim_count(&self) {
        self.bench.reset_sim_count()
    }

    fn set_sim_phase(&self, phase: SimPhase) {
        self.bench.set_sim_phase(phase)
    }

    fn sim_phase_counts(&self) -> [u64; SimPhase::COUNT] {
        self.bench.sim_phase_counts()
    }

    fn warm_commit(&self) {
        *self.finished() = 0;
        self.started.store(0, Ordering::SeqCst);
        self.batch.store(true, Ordering::SeqCst);
        self.bench.warm_commit()
    }

    fn eval_margins_perturbed(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
        directions: &[(DVec, DVec)],
    ) -> Result<Option<(DVec, Vec<DVec>)>, CktError> {
        self.batch.store(false, Ordering::SeqCst);
        self.bench
            .eval_margins_perturbed(d, s_hat, theta, directions)
    }

    fn adjoint_solve_count(&self) -> u64 {
        self.bench.adjoint_solve_count()
    }

    fn fd_sims_avoided(&self) -> u64 {
        self.bench.fd_sims_avoided()
    }
}

/// `(trajectory words, total simulations, served repeats)` of one run on
/// a fresh folded-cascode bench that finishes point `held` of every batch
/// last at more than one worker, through a service with `workers`
/// workers.
fn forced_order_run(
    linearization: LinearizationPoint,
    held: usize,
    workers: usize,
) -> (Vec<u64>, u64, u64) {
    let mut cfg = config();
    cfg.wc_options.linearization_point = linearization;
    let bench = FoldedCascode::paper_setup();
    let corners = bench.operating_range().corners().len();
    // One worker would wait on points that only it can run.
    let held = if workers > 1 { held } else { usize::MAX };
    let env = HoldBack::new(bench, held, corners);
    let svc = EvalService::new(&env, ExecConfig::default().with_workers(workers));
    let trace = YieldOptimizer::new(cfg)
        .run(&svc)
        .expect("optimization runs");
    (
        trajectory_words(&trace),
        trace.total_sims,
        env.bench.measurements_reused(),
    )
}

#[test]
fn forced_completion_order_keeps_the_trajectory() {
    // Worst-case anchoring is the paper's flow; nominal anchoring asks for
    // the ŝ-gradient at a corner point right after the corner batch
    // measured it, so which corner record the bench kept decides whether
    // that repeat is served.
    // The corner sweep is the largest margin batch of these runs.
    let corners = FoldedCascode::paper_setup()
        .operating_range()
        .corners()
        .len();
    for linearization in [LinearizationPoint::WorstCase, LinearizationPoint::Nominal] {
        let (words_1, sims_1, reused_1) = forced_order_run(linearization, 0, 1);
        for held in 0..corners {
            let (words_2, sims_2, reused_2) = forced_order_run(linearization, held, 2);
            assert_eq!(
                (sims_2, reused_2),
                (sims_1, reused_1),
                "{linearization:?}, point {held} last: (simulations, served repeats) at 2 workers"
            );
            assert!(
                words_2 == words_1,
                "{linearization:?}, point {held} last: trajectory at 2 workers differs from 1 worker"
            );
        }
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

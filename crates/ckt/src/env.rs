//! The [`CircuitEnv`] abstraction: what the worst-case analysis and the
//! yield optimizer need from a circuit.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use specwise_linalg::DVec;

use crate::{CktError, DesignSpace, OperatingPoint, OperatingRange, Spec, StatSpace};

/// The algorithmic phase a simulation is charged to.
///
/// The optimizer spends its simulation budget in distinct places —
/// feasibility search, worst-case distance analysis, linearization
/// gradients, line search, and Monte-Carlo verification — and the paper's
/// effort discussion (§7, Table 7) argues about where that budget goes.
/// Tagging each simulation with its phase makes the split reportable.
///
/// The per-phase counts surface in two places: the effort tables of
/// `specwise::effort_breakdown_table`, and — on traced runs — as
/// `sims_<label>` counters on the `run` span of the `specwise-trace`
/// journal (spaces in [`SimPhase::label`] become underscores, e.g.
/// `sims_line_search`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimPhase {
    /// Feasibility search / constraint evaluation (paper §6.1).
    Feasibility,
    /// Worst-case distance analysis: corner sweeps, θ refinement, and the
    /// worst-case point search (paper §4).
    Wcd,
    /// Spec-wise linearization gradients and Jacobians (paper §5).
    Linearization,
    /// Feasibility-guided line search along the ascent direction (paper §6).
    LineSearch,
    /// Monte-Carlo / importance-sampling yield verification (paper §7).
    Verification,
    /// Anything not explicitly attributed.
    #[default]
    Other,
}

impl SimPhase {
    /// Number of phases (length of [`SimPhase::ALL`]).
    pub const COUNT: usize = 6;

    /// Every phase, in display order.
    pub const ALL: [SimPhase; SimPhase::COUNT] = [
        SimPhase::Feasibility,
        SimPhase::Wcd,
        SimPhase::Linearization,
        SimPhase::LineSearch,
        SimPhase::Verification,
        SimPhase::Other,
    ];

    /// Stable index into per-phase arrays.
    pub fn index(self) -> usize {
        match self {
            SimPhase::Feasibility => 0,
            SimPhase::Wcd => 1,
            SimPhase::Linearization => 2,
            SimPhase::LineSearch => 3,
            SimPhase::Verification => 4,
            SimPhase::Other => 5,
        }
    }

    /// Short human-readable label used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            SimPhase::Feasibility => "feasibility",
            SimPhase::Wcd => "wcd",
            SimPhase::Linearization => "linearization",
            SimPhase::LineSearch => "line search",
            SimPhase::Verification => "verification",
            SimPhase::Other => "other",
        }
    }
}

/// A thread-safe counter of circuit-simulation calls — the paper's primary
/// effort metric (Table 7 reports `# Simulations`).
///
/// Besides the total, the counter attributes every increment to the
/// currently active [`SimPhase`], so callers that set the phase around
/// algorithm stages get a per-phase breakdown for free; environments whose
/// evaluation paths funnel through [`SimCounter::add`] need no call-site
/// changes. Traced optimizer runs absorb these counts as span counters,
/// so the journal's `run` span carries the same totals the effort tables
/// print.
#[derive(Debug)]
pub struct SimCounter {
    total: AtomicU64,
    per_phase: [AtomicU64; SimPhase::COUNT],
    current_phase: AtomicUsize,
    adjoint_solves: AtomicU64,
    fd_sims_avoided: AtomicU64,
    measurements_reused: AtomicU64,
}

impl Default for SimCounter {
    fn default() -> Self {
        SimCounter {
            total: AtomicU64::new(0),
            per_phase: std::array::from_fn(|_| AtomicU64::new(0)),
            current_phase: AtomicUsize::new(SimPhase::Other.index()),
            adjoint_solves: AtomicU64::new(0),
            fd_sims_avoided: AtomicU64::new(0),
            measurements_reused: AtomicU64::new(0),
        }
    }
}

impl SimCounter {
    /// Creates a counter at zero, attributing to [`SimPhase::Other`].
    pub fn new() -> Self {
        SimCounter::default()
    }

    /// Increments by `n` simulations, charged to the current phase.
    pub fn add(&self, n: u64) {
        self.total.fetch_add(n, Ordering::Relaxed);
        let phase = self
            .current_phase
            .load(Ordering::Relaxed)
            .min(SimPhase::COUNT - 1);
        self.per_phase[phase].fetch_add(n, Ordering::Relaxed);
    }

    /// Current total count.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Selects the phase subsequent [`SimCounter::add`] calls are charged to.
    pub fn set_phase(&self, phase: SimPhase) {
        self.current_phase.store(phase.index(), Ordering::Relaxed);
    }

    /// The phase increments are currently charged to.
    pub fn phase(&self) -> SimPhase {
        SimPhase::ALL[self
            .current_phase
            .load(Ordering::Relaxed)
            .min(SimPhase::COUNT - 1)]
    }

    /// Counts for every phase, indexed by [`SimPhase::index`].
    pub fn phase_counts(&self) -> [u64; SimPhase::COUNT] {
        std::array::from_fn(|i| self.per_phase[i].load(Ordering::Relaxed))
    }

    /// Records `n` adjoint/sensitivity factorization solves. These are
    /// *not* simulator invocations: they ride on already-factored systems,
    /// so they are tracked beside — never inside — the simulation total
    /// (the per-phase counts must keep partitioning [`SimCounter::count`]).
    pub fn add_adjoint(&self, n: u64) {
        self.adjoint_solves.fetch_add(n, Ordering::Relaxed);
    }

    /// Adjoint/sensitivity solves recorded so far.
    pub fn adjoint_solves(&self) -> u64 {
        self.adjoint_solves.load(Ordering::Relaxed)
    }

    /// Records that `n` finite-difference simulator calls were avoided by
    /// the adjoint gradient path.
    pub fn add_fd_avoided(&self, n: u64) {
        self.fd_sims_avoided.fetch_add(n, Ordering::Relaxed);
    }

    /// Finite-difference simulator calls avoided so far.
    pub fn fd_sims_avoided(&self) -> u64 {
        self.fd_sims_avoided.load(Ordering::Relaxed)
    }

    /// Records one repeated measurement served from the environment's last
    /// measurement instead of being simulated again. A served repeat adds
    /// nothing to the simulation total.
    pub fn add_reused(&self) {
        self.measurements_reused.fetch_add(1, Ordering::Relaxed);
    }

    /// Repeated measurements served so far.
    pub fn measurements_reused(&self) -> u64 {
        self.measurements_reused.load(Ordering::Relaxed)
    }

    /// Resets all counts to zero (the active phase selection is kept).
    pub fn reset(&self) {
        self.total.store(0, Ordering::Relaxed);
        for c in &self.per_phase {
            c.store(0, Ordering::Relaxed);
        }
        self.adjoint_solves.store(0, Ordering::Relaxed);
        self.fd_sims_avoided.store(0, Ordering::Relaxed);
        self.measurements_reused.store(0, Ordering::Relaxed);
    }
}

/// One evaluation request: the full argument triple of
/// [`CircuitEnv::eval_performances`], owned so batches can cross threads.
///
/// The vectors are [`Arc`]-shared: gradient and sampling loops build many
/// points that differ from a base point in only one coordinate block, and
/// sharing the unchanged block avoids one heap allocation + copy per point
/// (cloning an `EvalPoint` is two refcount bumps).
#[derive(Debug, Clone, PartialEq)]
pub struct EvalPoint {
    /// Design point.
    pub d: Arc<DVec>,
    /// Standardized statistical point.
    pub s_hat: Arc<DVec>,
    /// Operating condition.
    pub theta: OperatingPoint,
    /// Whether a memoizing evaluator (`specwise_exec::EvalService`) may
    /// answer this point from, and store it into, its memo cache.
    /// Monte-Carlo samples are effectively unique, so they clear it
    /// ([`EvalPoint::unmemoized`]) instead of evicting the optimizer's
    /// reusable points.
    pub memo: bool,
}

impl EvalPoint {
    /// Creates a request. Accepts owned vectors or pre-shared [`Arc`]s, so
    /// call sites that reuse a base vector across many points pass
    /// `Arc::clone(&base)` and allocate nothing.
    pub fn new(
        d: impl Into<Arc<DVec>>,
        s_hat: impl Into<Arc<DVec>>,
        theta: OperatingPoint,
    ) -> Self {
        EvalPoint {
            d: d.into(),
            s_hat: s_hat.into(),
            theta,
            memo: true,
        }
    }

    /// The same request with memoization off: the service neither looks
    /// the point up nor caches its result.
    pub fn unmemoized(mut self) -> Self {
        self.memo = false;
        self
    }
}

/// Snapshot of an evaluation service's execution statistics (see
/// `specwise_exec::EvalService`).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// Configured worker-pool size.
    pub workers: usize,
    /// Cache lookups answered from memory (simulations saved).
    pub cache_hits: u64,
    /// Cache lookups that fell through to the environment.
    pub cache_misses: u64,
    /// Retry attempts issued for failed simulations.
    pub retries: u64,
    /// Evaluations that failed at first but succeeded on a retry.
    pub recovered: u64,
    /// Evaluations that exhausted retries with a simulation failure.
    pub sim_failures: u64,
    /// Worker panics isolated by `catch_unwind` and degraded to
    /// [`CktError::WorkerPanic`] instead of aborting the process.
    pub panics_caught: u64,
    /// Batch calls served.
    pub batches: u64,
    /// Total points across all batch calls.
    pub batch_points: u64,
    /// Simulations charged to each phase (indexed by [`SimPhase::index`]).
    pub phase_sims: [u64; SimPhase::COUNT],
    /// Wall-clock evaluation time charged to each phase.
    pub phase_wall: [Duration; SimPhase::COUNT],
    /// Total simulations the wrapped environment performed.
    pub total_sims: u64,
    /// Wall-clock time since the service was created (or last reset).
    pub wall: Duration,
}

impl ExecReport {
    /// Cache hit rate in `[0, 1]` (`0` when the cache was never consulted).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Wall-clock time spent evaluating, summed over phases.
    pub fn eval_wall(&self) -> Duration {
        self.phase_wall.iter().sum()
    }

    /// Per-phase rows `(label, simulations, wall time)` for effort tables,
    /// in [`SimPhase::ALL`] order, zero-simulation phases omitted.
    pub fn phase_rows(&self) -> Vec<(String, u64, Duration)> {
        SimPhase::ALL
            .iter()
            .filter(|p| self.phase_sims[p.index()] > 0)
            .map(|p| {
                (
                    p.label().to_string(),
                    self.phase_sims[p.index()],
                    self.phase_wall[p.index()],
                )
            })
            .collect()
    }
}

impl std::fmt::Display for ExecReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "exec: {} sims, {} workers, wall {}",
            self.total_sims,
            self.workers,
            fmt_duration(self.wall)
        )?;
        writeln!(
            f,
            "cache: {} hits / {} misses ({:.1}% hit rate)",
            self.cache_hits,
            self.cache_misses,
            100.0 * self.hit_rate()
        )?;
        writeln!(
            f,
            "robustness: {} retries, {} recovered, {} failures, {} panics caught",
            self.retries, self.recovered, self.sim_failures, self.panics_caught
        )?;
        for (label, sims, wall) in self.phase_rows() {
            writeln!(f, "  {label:<14} {sims:>8} sims  {:>9}", fmt_duration(wall))?;
        }
        Ok(())
    }
}

/// Formats a duration compactly for report tables (`1.23s`, `45.6ms`).
fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{:.0}µs", s * 1e6)
    }
}

/// A circuit under optimization: design space, standardized statistical
/// space, specifications, operating range, and the evaluation functions.
///
/// Performances are evaluated as `f(d, ŝ, θ)` with `ŝ ~ N(0, I)`; the
/// design-dependent covariance `C(d)` (paper Eq. 10) is applied *inside*
/// `eval_performances` — this is the transformed formulation of paper
/// Eqs. 11–14 that lets one machinery handle global and local variations.
pub trait CircuitEnv {
    /// Human-readable circuit name.
    fn name(&self) -> &str;

    /// The design space.
    fn design_space(&self) -> &DesignSpace;

    /// The standardized statistical space.
    fn stat_space(&self) -> &StatSpace;

    /// Dimension of the statistical space.
    fn stat_dim(&self) -> usize {
        self.stat_space().dim()
    }

    /// The performance specifications (order fixed; matches the vector
    /// returned by [`CircuitEnv::eval_performances`]).
    fn specs(&self) -> &[Spec];

    /// The operating range `Θ`.
    fn operating_range(&self) -> &OperatingRange;

    /// Names of the functional constraints, in the order of
    /// [`CircuitEnv::eval_constraints`].
    fn constraint_names(&self) -> Vec<String>;

    /// Evaluates all performances at `(d, ŝ, θ)` in physical units.
    ///
    /// # Errors
    ///
    /// Returns [`CktError`] for dimension mismatches or failed simulations.
    fn eval_performances(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
    ) -> Result<DVec, CktError>;

    /// Evaluates the functional ("sizing rule") constraints `c(d) ≥ 0` at
    /// nominal statistics and nominal operating conditions.
    ///
    /// # Errors
    ///
    /// Returns [`CktError`] for dimension mismatches or failed simulations.
    fn eval_constraints(&self, d: &DVec) -> Result<DVec, CktError>;

    /// Evaluates the margin vector `mᵢ = ±(fᵢ − f_bᵢ)` (positive = pass) at
    /// `(d, ŝ, θ)`.
    ///
    /// # Errors
    ///
    /// Propagates [`CircuitEnv::eval_performances`] errors.
    fn eval_margins(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
    ) -> Result<DVec, CktError> {
        let perf = self.eval_performances(d, s_hat, theta)?;
        Ok(self
            .specs()
            .iter()
            .zip(perf.iter())
            .map(|(spec, &f)| spec.margin(f))
            .collect())
    }

    /// Number of simulator invocations so far.
    fn sim_count(&self) -> u64;

    /// Resets the simulation counter.
    fn reset_sim_count(&self);

    /// Selects the [`SimPhase`] subsequent simulations are charged to.
    ///
    /// Default: no-op, so environments without phase bookkeeping keep
    /// compiling; the bundled environments delegate to their [`SimCounter`].
    fn set_sim_phase(&self, _phase: SimPhase) {}

    /// Per-phase simulation counts, indexed by [`SimPhase::index`].
    ///
    /// Default: all zeros (environment does not attribute phases).
    fn sim_phase_counts(&self) -> [u64; SimPhase::COUNT] {
        [0; SimPhase::COUNT]
    }

    /// Publishes pending warm-start state (see
    /// [`WarmStartCache::commit`](crate::WarmStartCache::commit)).
    ///
    /// Batch evaluators call this exactly once per batch, *before* the
    /// batch runs, so every point is seeded from the same committed
    /// snapshot regardless of worker count or completion order. Default:
    /// no-op (environment has no warm-start cache).
    fn warm_commit(&self) {}

    /// Evaluates margins at every point, returning results in input order.
    /// A failed point yields its error in the corresponding slot; the other
    /// points are unaffected.
    ///
    /// Default: one [`CircuitEnv::warm_commit`], then the points serially.
    /// `specwise_exec::EvalService` fans batches out over a worker pool
    /// with bit-identical results.
    fn eval_margins_batch(&self, points: &[EvalPoint]) -> Vec<Result<DVec, CktError>> {
        self.warm_commit();
        points
            .iter()
            .map(|p| self.eval_margins(&p.d, &p.s_hat, &p.theta))
            .collect()
    }

    /// Evaluates constraints at every design point, in input order.
    fn eval_constraints_batch(&self, designs: &[DVec]) -> Vec<Result<DVec, CktError>> {
        self.warm_commit();
        designs.iter().map(|d| self.eval_constraints(d)).collect()
    }

    /// Evaluates the margin vector at `(d, ŝ, θ)` *plus* a set of perturbed
    /// points `(d′, ŝ′)` sharing the same θ, using sensitivity analysis on
    /// the base point's cached factorizations where the environment
    /// supports it. Returns `(base margins, per-direction margins)`.
    ///
    /// `Ok(None)` means there is no sensitivity shortcut for this point —
    /// or none at all, which is the default — and callers fall back to
    /// independent finite-difference evaluations.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures the finite-difference path would hit
    /// as well (e.g. a failed base-point solve).
    fn eval_margins_perturbed(
        &self,
        _d: &DVec,
        _s_hat: &DVec,
        _theta: &OperatingPoint,
        _directions: &[(DVec, DVec)],
    ) -> Result<Option<(DVec, Vec<DVec>)>, CktError> {
        Ok(None)
    }

    /// Retired sample-batch hook; always `None`, and nothing calls it.
    /// Monte-Carlo samples run through the evaluator's worker pool as
    /// ordinary unmemoized points. No environment in this workspace
    /// answers it any more; only the benchmark's counting wrapper
    /// (`specwise-perf/src/layers.rs`) still forwards it, so the method is
    /// deleted together with that override in the next benchmark change.
    fn eval_margins_samples(
        &self,
        _d: &DVec,
        _points: &[(DVec, OperatingPoint)],
    ) -> Option<Vec<Result<DVec, CktError>>> {
        None
    }

    /// Adjoint/sensitivity solves recorded so far (see
    /// [`SimCounter::adjoint_solves`]). Not part of the simulation total.
    fn adjoint_solve_count(&self) -> u64 {
        0
    }

    /// Finite-difference simulator calls avoided by the sensitivity path
    /// (see [`SimCounter::fd_sims_avoided`]).
    fn fd_sims_avoided(&self) -> u64 {
        0
    }

    /// Execution statistics, when the environment collects them
    /// (`specwise_exec::EvalService` does; plain environments return
    /// `None`).
    fn exec_report(&self) -> Option<ExecReport> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = SimCounter::new();
        assert_eq!(c.count(), 0);
        c.add(3);
        c.add(2);
        assert_eq!(c.count(), 5);
        c.reset();
        assert_eq!(c.count(), 0);
    }

    #[test]
    fn counter_attributes_phases() {
        let c = SimCounter::new();
        assert_eq!(c.phase(), SimPhase::Other);
        c.add(2); // charged to Other
        c.set_phase(SimPhase::Wcd);
        assert_eq!(c.phase(), SimPhase::Wcd);
        c.add(3);
        c.set_phase(SimPhase::Verification);
        c.add(5);
        assert_eq!(c.count(), 10);
        let counts = c.phase_counts();
        assert_eq!(counts[SimPhase::Other.index()], 2);
        assert_eq!(counts[SimPhase::Wcd.index()], 3);
        assert_eq!(counts[SimPhase::Verification.index()], 5);
        assert_eq!(counts[SimPhase::Feasibility.index()], 0);
        let sum: u64 = counts.iter().sum();
        assert_eq!(sum, c.count(), "phase counts must partition the total");
        c.reset();
        assert_eq!(c.phase_counts(), [0; SimPhase::COUNT]);
        // Phase selection survives a reset.
        assert_eq!(c.phase(), SimPhase::Verification);
    }

    #[test]
    fn adjoint_counters_stay_out_of_the_total() {
        let c = SimCounter::new();
        c.add(4);
        c.add_adjoint(3);
        c.add_fd_avoided(12);
        assert_eq!(c.count(), 4, "adjoint solves must not inflate the total");
        assert_eq!(c.adjoint_solves(), 3);
        assert_eq!(c.fd_sims_avoided(), 12);
        let sum: u64 = c.phase_counts().iter().sum();
        assert_eq!(sum, c.count(), "phase counts must keep partitioning");
        c.reset();
        assert_eq!(c.adjoint_solves(), 0);
        assert_eq!(c.fd_sims_avoided(), 0);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
        assert_eq!(fmt_duration(Duration::from_millis(45)), "45.0ms");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12µs");
    }

    #[test]
    fn phase_index_and_all_are_consistent() {
        for (i, p) in SimPhase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert!(!p.label().is_empty());
        }
    }
}

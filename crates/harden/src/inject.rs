//! The [`FaultInjector`] environment wrapper and the [`KillSwitch`] used
//! by interruption tests.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use specwise_ckt::{
    CircuitEnv, CktError, DesignSpace, OperatingPoint, OperatingRange, SimPhase, Spec, StatSpace,
};
use specwise_linalg::DVec;
use specwise_mna::MnaError;
use specwise_trace::Tracer;

use crate::config::{FaultConfig, FaultKind};

/// splitmix64 finalizer: a cheap, high-quality 64-bit mixer.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn fold(h: u64, word: u64) -> u64 {
    mix(h ^ word.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Hashes an evaluation point (exact f64 bits, so one-ulp-apart points
/// fault independently) together with a site tag.
fn point_hash(tag: u64, d: &DVec, s_hat: Option<&DVec>, theta: Option<&OperatingPoint>) -> u64 {
    let mut h = mix(tag);
    for &x in d.iter() {
        h = fold(h, x.to_bits());
    }
    if let Some(s) = s_hat {
        h = fold(h, 0x5eed);
        for &x in s.iter() {
            h = fold(h, x.to_bits());
        }
    }
    if let Some(t) = theta {
        h = fold(h, t.temp_c.to_bits());
        h = fold(h, t.vdd.to_bits());
    }
    h
}

/// Counts of injected faults, per [`FaultKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Injections per kind, indexed by [`FaultKind::index`].
    pub injected: [u64; FaultKind::ALL.len()],
}

impl FaultReport {
    /// Total injected faults across all kinds.
    pub fn total(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Injections of one kind.
    pub fn count(&self, kind: FaultKind) -> u64 {
        self.injected[kind.index()]
    }
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "faults injected: {} total (", self.total())?;
        for (i, kind) in FaultKind::ALL.into_iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", self.injected[kind.index()], kind.token())?;
        }
        write!(f, ")")
    }
}

/// A deterministic, seeded fault-injection layer wrapping any
/// [`CircuitEnv`].
///
/// Whether a given evaluation faults is a pure function of the point and
/// the seed — *not* of call order — so injection is reproducible under
/// parallel batches and across runs. In the default transient mode a point
/// faults only on its first evaluation: a same-point retry (an
/// `EvalService` with `perturb = 0`) then re-evaluates cleanly, which is
/// what makes "retries absorb all faults → final design bit-identical to
/// the fault-free run" a testable property.
///
/// Stacks naturally under the evaluation engine:
/// `EvalService::new(&FaultInjector::new(&env, cfg), exec_cfg)` — the
/// service's retries and `catch_unwind` isolation apply to the injected
/// faults.
pub struct FaultInjector<'e, E: CircuitEnv + ?Sized> {
    env: &'e E,
    config: FaultConfig,
    seen: Mutex<HashSet<u64>>,
    injected: [AtomicU64; FaultKind::ALL.len()],
    tracer: Tracer,
}

impl<E: CircuitEnv + ?Sized> std::fmt::Debug for FaultInjector<'_, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("env", &self.env.name())
            .field("config", &self.config)
            .finish()
    }
}

impl<'e, E: CircuitEnv + ?Sized> FaultInjector<'e, E> {
    /// Wraps `env` with the given fault configuration.
    pub fn new(env: &'e E, config: FaultConfig) -> Self {
        FaultInjector {
            env,
            config,
            seen: Mutex::new(HashSet::new()),
            injected: std::array::from_fn(|_| AtomicU64::new(0)),
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a [`Tracer`]: every injection emits a `fault_injected`
    /// event (kind + site) into the journal.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Counts of injected faults so far.
    pub fn report(&self) -> FaultReport {
        FaultReport {
            injected: std::array::from_fn(|i| self.injected[i].load(Ordering::Relaxed)),
        }
    }

    /// Decides whether this evaluation faults, and with which kind.
    /// `allowed` restricts the kinds that make sense at the call site.
    fn decide(&self, hash: u64, allowed: &[FaultKind]) -> Option<FaultKind> {
        let kinds: Vec<FaultKind> = self
            .config
            .kinds
            .iter()
            .copied()
            .filter(|k| allowed.contains(k))
            .collect();
        if kinds.is_empty() || self.config.rate <= 0.0 {
            return None;
        }
        let h = mix(hash ^ self.config.seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
        // Top 53 bits → uniform in [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u >= self.config.rate {
            return None;
        }
        if self.config.transient && !self.seen.lock().expect("fault set poisoned").insert(hash) {
            return None;
        }
        let kind = kinds[(mix(h) % kinds.len() as u64) as usize];
        self.injected[kind.index()].fetch_add(1, Ordering::Relaxed);
        if self.tracer.is_enabled() {
            self.tracer.event(
                "fault_injected",
                &[("kind", kind.token().into()), ("hash", hash.into())],
            );
        }
        Some(kind)
    }

    fn injected_error(&self) -> CktError {
        CktError::Simulation(MnaError::NoConvergence {
            analysis: "injected fault",
            iterations: 0,
            residual: f64::INFINITY,
        })
    }
}

impl<E: CircuitEnv + ?Sized> CircuitEnv for FaultInjector<'_, E> {
    fn name(&self) -> &str {
        self.env.name()
    }

    fn design_space(&self) -> &DesignSpace {
        self.env.design_space()
    }

    fn stat_space(&self) -> &StatSpace {
        self.env.stat_space()
    }

    fn stat_dim(&self) -> usize {
        // Forward explicitly: the trait's default derives the dimension
        // from the stat space, which would drop a wrapped environment's
        // override (e.g. `AnalyticEnv`'s truncated synthetic space).
        self.env.stat_dim()
    }

    fn specs(&self) -> &[Spec] {
        self.env.specs()
    }

    fn operating_range(&self) -> &OperatingRange {
        self.env.operating_range()
    }

    fn constraint_names(&self) -> Vec<String> {
        self.env.constraint_names()
    }

    fn eval_performances(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
    ) -> Result<DVec, CktError> {
        // Faults short-circuit *before* the wrapped environment runs, so
        // the env's state sequence (sim counters, warm-start caches) is
        // exactly what a retrying engine replays on the clean attempt.
        const PERF_TAG: u64 = 0x9E4F;
        match self.decide(
            point_hash(PERF_TAG, d, Some(s_hat), Some(theta)),
            &FaultKind::ALL,
        ) {
            Some(FaultKind::NonConvergence) => Err(self.injected_error()),
            Some(FaultKind::NanPerformance) => Ok(DVec::filled(self.env.specs().len(), f64::NAN)),
            Some(FaultKind::WorkerPanic) => {
                panic!("injected worker panic (seed {})", self.config.seed)
            }
            Some(FaultKind::LatencySpike) => {
                std::thread::sleep(self.config.latency);
                self.env.eval_performances(d, s_hat, theta)
            }
            None => self.env.eval_performances(d, s_hat, theta),
        }
    }

    fn eval_constraints(&self, d: &DVec) -> Result<DVec, CktError> {
        // NaN constraint vectors are not a realistic simulator failure
        // mode; constraints fault through non-convergence, panics, and
        // latency only.
        const ALLOWED: [FaultKind; 3] = [
            FaultKind::NonConvergence,
            FaultKind::WorkerPanic,
            FaultKind::LatencySpike,
        ];
        const CONS_TAG: u64 = 0xC025;
        match self.decide(point_hash(CONS_TAG, d, None, None), &ALLOWED) {
            Some(FaultKind::NonConvergence) => Err(self.injected_error()),
            Some(FaultKind::WorkerPanic) => {
                panic!("injected worker panic (seed {})", self.config.seed)
            }
            Some(FaultKind::LatencySpike) => {
                std::thread::sleep(self.config.latency);
                self.env.eval_constraints(d)
            }
            _ => self.env.eval_constraints(d),
        }
    }

    fn sim_count(&self) -> u64 {
        self.env.sim_count()
    }

    fn reset_sim_count(&self) {
        self.env.reset_sim_count()
    }

    fn set_sim_phase(&self, phase: SimPhase) {
        self.env.set_sim_phase(phase)
    }

    fn sim_phase_counts(&self) -> [u64; SimPhase::COUNT] {
        self.env.sim_phase_counts()
    }

    fn warm_commit(&self) {
        self.env.warm_commit()
    }

    // `eval_margins_perturbed` keeps its trait default (`None`) on
    // purpose: the sensitivity shortcut would evaluate a whole direction
    // set inside the wrapped environment, bypassing the per-point fault
    // decisions above. Declining it routes every point through the
    // fault-injecting scalar path.

    fn adjoint_solve_count(&self) -> u64 {
        self.env.adjoint_solve_count()
    }

    fn fd_sims_avoided(&self) -> u64 {
        self.env.fd_sims_avoided()
    }
}

/// A sharable evaluation budget: one atomic meter that any number of
/// [`KillSwitch`] wrappers (one per job of a tenant, say) charge together.
///
/// `specwise-serve` hangs one of these on every tenant so concurrent jobs
/// draw from a common allowance, and reads [`SharedBudget::used`] for its
/// per-tenant sim-count metrics.
///
/// The meter also carries an *external* charge count
/// ([`SharedBudget::set_external`]): evaluations performed against the same
/// allowance by other processes, as reported by a durable ledger. The
/// allowance is enforced against `used + external`, which is how
/// `specwise-serve` holds per-tenant budgets across a fleet of daemons
/// sharing one spool — each daemon charges its own meter locally and folds
/// its peers' totals in whenever the spool ledger is reconciled.
#[derive(Debug)]
pub struct SharedBudget {
    budget: u64,
    used: AtomicU64,
    external: AtomicU64,
    tripped: AtomicBool,
}

impl SharedBudget {
    /// A fresh meter allowing `budget` evaluations.
    pub fn new(budget: u64) -> Self {
        SharedBudget {
            budget,
            used: AtomicU64::new(0),
            external: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
        }
    }

    /// The configured allowance.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Evaluations charged locally so far (including any rejected after the
    /// trip). Does not include external charges.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Evaluations charged against the same allowance elsewhere, as last
    /// reported via [`SharedBudget::set_external`].
    pub fn external(&self) -> u64 {
        self.external.load(Ordering::Relaxed)
    }

    /// Local plus external charges — the number the allowance is enforced
    /// against.
    pub fn total_used(&self) -> u64 {
        self.used().saturating_add(self.external())
    }

    /// Fold in evaluations charged by other processes. The stored value is
    /// monotone (ledger totals only grow), so a stale reconciliation can
    /// never un-trip a budget or widen the remaining allowance.
    pub fn set_external(&self, external: u64) {
        self.external.fetch_max(external, Ordering::Relaxed);
        // Trip only when the fleet has over-spent: a total of exactly
        // `budget` mirrors the local rule, where the allowance admits
        // `budget` charges and trips on the first rejected one.
        if self.total_used() > self.budget {
            self.tripped.store(true, Ordering::Relaxed);
        }
    }

    /// Whether the allowance was exhausted at least once.
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }

    /// Charge one evaluation; `false` once the allowance is exhausted
    /// (counting both local and external charges).
    fn charge(&self) -> bool {
        let prior = self.used.fetch_add(1, Ordering::Relaxed);
        if prior.saturating_add(self.external()) >= self.budget {
            self.tripped.store(true, Ordering::Relaxed);
            false
        } else {
            true
        }
    }
}

/// An environment wrapper that turns fatal after a fixed number of
/// simulations — the in-process stand-in for "the job got killed" in
/// checkpoint/resume tests. Once tripped, every evaluation of a
/// [`KillSwitch::new`] wrapper returns a *non-retryable* error
/// (`CktError::InvalidConfig`), so no retry policy can absorb it and the
/// run stops where the budget ran out.
///
/// The [`KillSwitch::soft`] variant instead fails post-budget evaluations
/// with a *retryable* simulation error (the same shape a non-converging
/// solve produces), so downstream layers that tolerate simulation failures
/// — notably the yield estimators' shared degradation ladder (in
/// `specwise`'s `estimator` module), which counts-and-excludes failed
/// samples and widens the reported yield interval for every estimator —
/// degrade gracefully instead of aborting.
pub struct KillSwitch<'e, E: CircuitEnv + ?Sized> {
    env: &'e E,
    budget: std::sync::Arc<SharedBudget>,
    soft: bool,
}

impl<E: CircuitEnv + ?Sized> std::fmt::Debug for KillSwitch<'_, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KillSwitch")
            .field("env", &self.env.name())
            .field("budget", &self.budget.budget())
            .field("used", &self.budget.used())
            .field("soft", &self.soft)
            .finish()
    }
}

impl<'e, E: CircuitEnv + ?Sized> KillSwitch<'e, E> {
    /// Wraps `env`; evaluations beyond `budget` fail fatally.
    pub fn new(env: &'e E, budget: u64) -> Self {
        Self::with_budget(env, std::sync::Arc::new(SharedBudget::new(budget)))
    }

    /// Wraps `env`; evaluations beyond `budget` fail with a retryable
    /// simulation error, so failure-tolerant layers degrade instead of
    /// aborting.
    pub fn soft(env: &'e E, budget: u64) -> Self {
        let mut ks = Self::new(env, budget);
        ks.soft = true;
        ks
    }

    /// Wraps `env` around an externally owned [`SharedBudget`], fatal mode.
    fn with_budget(env: &'e E, budget: std::sync::Arc<SharedBudget>) -> Self {
        KillSwitch {
            env,
            budget,
            soft: false,
        }
    }

    /// Wraps `env` around an externally owned [`SharedBudget`], soft mode.
    pub fn soft_with_budget(env: &'e E, budget: std::sync::Arc<SharedBudget>) -> Self {
        let mut ks = Self::with_budget(env, budget);
        ks.soft = true;
        ks
    }

    /// The budget meter this wrapper charges.
    pub fn budget(&self) -> &std::sync::Arc<SharedBudget> {
        &self.budget
    }

    /// Whether the budget was exhausted at least once.
    pub fn tripped(&self) -> bool {
        self.budget.tripped()
    }

    /// Evaluations charged so far (including any rejected after the trip).
    /// With an unreachable budget the wrapper doubles as a pure
    /// evaluation-call counter, which is how the resume acceptance test
    /// sizes a budget that dies mid-iteration.
    pub fn used(&self) -> u64 {
        self.budget.used()
    }

    fn charge(&self) -> Result<(), CktError> {
        if self.budget.charge() {
            Ok(())
        } else if self.soft {
            Err(CktError::Simulation(MnaError::NoConvergence {
                analysis: "kill switch: simulation budget exhausted",
                iterations: 0,
                residual: f64::INFINITY,
            }))
        } else {
            Err(CktError::InvalidConfig {
                reason: "kill switch tripped: simulation budget exhausted",
            })
        }
    }
}

impl<E: CircuitEnv + ?Sized> CircuitEnv for KillSwitch<'_, E> {
    fn name(&self) -> &str {
        self.env.name()
    }

    fn design_space(&self) -> &DesignSpace {
        self.env.design_space()
    }

    fn stat_space(&self) -> &StatSpace {
        self.env.stat_space()
    }

    fn stat_dim(&self) -> usize {
        // Forward explicitly: the trait's default derives the dimension
        // from the stat space, which would drop a wrapped environment's
        // override (e.g. `AnalyticEnv`'s truncated synthetic space).
        self.env.stat_dim()
    }

    fn specs(&self) -> &[Spec] {
        self.env.specs()
    }

    fn operating_range(&self) -> &OperatingRange {
        self.env.operating_range()
    }

    fn constraint_names(&self) -> Vec<String> {
        self.env.constraint_names()
    }

    fn eval_performances(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
    ) -> Result<DVec, CktError> {
        self.charge()?;
        self.env.eval_performances(d, s_hat, theta)
    }

    fn eval_constraints(&self, d: &DVec) -> Result<DVec, CktError> {
        self.charge()?;
        self.env.eval_constraints(d)
    }

    fn sim_count(&self) -> u64 {
        self.env.sim_count()
    }

    fn reset_sim_count(&self) {
        self.env.reset_sim_count()
    }

    fn set_sim_phase(&self, phase: SimPhase) {
        self.env.set_sim_phase(phase)
    }

    fn sim_phase_counts(&self) -> [u64; SimPhase::COUNT] {
        self.env.sim_phase_counts()
    }

    fn warm_commit(&self) {
        self.env.warm_commit()
    }

    fn eval_margins_perturbed(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
        directions: &[(DVec, DVec)],
    ) -> Result<Option<(DVec, Vec<DVec>)>, CktError> {
        let r = self
            .env
            .eval_margins_perturbed(d, s_hat, theta, directions)?;
        if r.is_some() {
            // The shortcut replaces exactly one base measurement; the
            // perturbations ride on cached factorizations and are not
            // simulator invocations. Charging only on success keeps the
            // meter identical to the per-point path when the environment
            // declines and the caller falls back to finite differences.
            self.charge()?;
        }
        Ok(r)
    }

    fn adjoint_solve_count(&self) -> u64 {
        self.env.adjoint_solve_count()
    }

    fn fd_sims_avoided(&self) -> u64 {
        self.env.fd_sims_avoided()
    }
}

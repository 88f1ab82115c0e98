//! The [`EvalService`] engine.
//!
//! The worst-case analysis, linearization, line search, and Monte-Carlo
//! verification layers program against [`CircuitEnv`], whose batch calls
//! ([`CircuitEnv::eval_margins_batch`] and friends) run serially by
//! default. [`EvalService`] is itself a [`CircuitEnv`]: it wraps an
//! environment and upgrades those batch calls with a scoped-thread worker
//! pool, a bounded memoization cache, and a retry policy for non-converged
//! simulations, while keeping results in input order and bit-identical to
//! the serial path. It calls only the wrapped environment's scalar
//! evaluation methods.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use specwise_ckt::{
    CircuitEnv, CktError, DesignSpace, EvalPoint, ExecReport, OperatingPoint, OperatingRange,
    SimPhase, Spec, StatSpace,
};
use specwise_linalg::DVec;
use specwise_trace::Tracer;

use crate::cache::Cache;
use crate::config::ExecConfig;

/// Renders a vector for error context: up to four components, then an
/// ellipsis with the total length, so annotated errors stay one line even
/// for high-dimensional statistical spaces.
fn summarize_vec(v: &DVec) -> String {
    const SHOWN: usize = 4;
    let mut out = String::from("[");
    for (i, x) in v.iter().take(SHOWN).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{x:.6}"));
    }
    if v.len() > SHOWN {
        out.push_str(&format!(", … ({} total)", v.len()));
    }
    out.push(']');
    out
}

/// The evaluation engine: wraps a [`CircuitEnv`] and serves all
/// simulator-driven loops with parallel batches, memoization, retries,
/// and per-phase accounting. See the [crate docs](crate) for an overview.
pub struct EvalService<'e, E: CircuitEnv + Sync + ?Sized> {
    env: &'e E,
    config: ExecConfig,
    cache: Mutex<Cache>,
    hits: AtomicU64,
    misses: AtomicU64,
    retries: AtomicU64,
    recovered: AtomicU64,
    sim_failures: AtomicU64,
    panics_caught: AtomicU64,
    batches: AtomicU64,
    batch_points: AtomicU64,
    phase: AtomicUsize,
    phase_wall_ns: [AtomicU64; SimPhase::COUNT],
    started: Instant,
    tracer: Tracer,
}

impl<E: CircuitEnv + Sync + ?Sized> std::fmt::Debug for EvalService<'_, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalService")
            .field("env", &self.env.name())
            .field("config", &self.config)
            .finish()
    }
}

impl<'e, E: CircuitEnv + Sync + ?Sized> EvalService<'e, E> {
    /// Wraps `env` with the given configuration.
    pub fn new(env: &'e E, config: ExecConfig) -> Self {
        EvalService {
            env,
            cache: Mutex::new(Cache::new(config.cache_capacity)),
            config,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            sim_failures: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_points: AtomicU64::new(0),
            phase: AtomicUsize::new(SimPhase::Other.index()),
            phase_wall_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            started: Instant::now(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a [`Tracer`]: every batch fan-out emits a `batch` event
    /// (point count + active phase) into the journal. With the default
    /// disabled tracer the emission is a single branch per batch.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// The wrapped environment.
    pub fn env(&self) -> &'e E {
        self.env
    }

    /// Number of memoized evaluations currently held.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().expect("exec cache poisoned").len()
    }

    fn charge_wall(&self, elapsed: Duration) {
        let idx = self.phase.load(Ordering::Relaxed).min(SimPhase::COUNT - 1);
        self.phase_wall_ns[idx].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Performance evaluation with cache and retry, *without* wall-clock
    /// accounting — timed by the public entry points so batch items are
    /// not double-counted. `memo = false` skips both the cache lookup and
    /// the insert (see [`EvalPoint::memo`]).
    fn performances_inner(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
        memo: bool,
    ) -> Result<DVec, CktError> {
        let memo = memo && self.config.cache_capacity > 0;
        if memo {
            if let Some(hit) = self
                .cache
                .lock()
                .expect("exec cache poisoned")
                .get(d, s_hat, theta)
            {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(hit);
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let result = self.evaluate_with_retry(d, s_hat, theta);
        if let (true, Ok(value)) = (memo, &result) {
            self.cache
                .lock()
                .expect("exec cache poisoned")
                .put(d, s_hat, theta, value);
        }
        result
    }

    /// Runs one raw environment call with panic isolation: a panicking
    /// simulation degrades to [`CktError::WorkerPanic`] instead of
    /// unwinding through the worker pool and aborting the process.
    fn call_isolated<T>(&self, f: impl FnOnce() -> Result<T, CktError>) -> Result<T, CktError> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(result) => result,
            Err(payload) => {
                self.panics_caught.fetch_add(1, Ordering::Relaxed);
                let message = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                Err(CktError::WorkerPanic { message })
            }
        }
    }

    fn active_phase(&self) -> SimPhase {
        SimPhase::ALL[self.phase.load(Ordering::Relaxed).min(SimPhase::COUNT - 1)]
    }

    /// Annotates an escaping simulation failure with where it happened, so
    /// a failed run names the offending point instead of a bare
    /// [`CktError::Simulation`]. Non-simulation errors (dimension
    /// mismatches, configuration problems) keep their exact variant —
    /// callers match on those.
    fn annotate_failure(&self, e: CktError, point: String) -> CktError {
        if e.is_simulation_failure() {
            self.sim_failures.fetch_add(1, Ordering::Relaxed);
            e.with_context(format!(
                "evaluation in phase '{}' at {point}",
                self.active_phase().label()
            ))
        } else {
            e
        }
    }

    fn evaluate_with_retry(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
    ) -> Result<DVec, CktError> {
        let mut attempt: u32 = 0;
        loop {
            let result = if attempt == 0 || self.config.retry.perturb == 0.0 {
                // A zero nudge retries the very same point: adding `0.0`
                // would turn a `-0.0` component into `+0.0`.
                self.call_isolated(|| self.env.eval_performances(d, s_hat, theta))
            } else {
                // Deterministic nudge off the failing point; see
                // `RetryPolicy` for the rationale and magnitude.
                let mut nudged = s_hat.clone();
                for v in nudged.iter_mut() {
                    *v += self.config.retry.perturb * attempt as f64;
                }
                self.call_isolated(|| self.env.eval_performances(d, &nudged, theta))
            };
            match result {
                Err(e) if e.is_simulation_failure() && attempt < self.config.retry.max_retries => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    attempt += 1;
                }
                Err(e) => {
                    return Err(self.annotate_failure(
                        e,
                        format!(
                            "d={} ŝ={} θ=({} °C, {} V)",
                            summarize_vec(d),
                            summarize_vec(s_hat),
                            theta.temp_c,
                            theta.vdd
                        ),
                    ));
                }
                Ok(value) => {
                    if attempt > 0 {
                        self.recovered.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(value);
                }
            }
        }
    }

    /// Constraint evaluation with panic isolation and same-point retries
    /// (constraints are d-only; a ŝ-perturbing retry does not apply).
    fn constraints_with_retry(&self, d: &DVec) -> Result<DVec, CktError> {
        let mut attempt: u32 = 0;
        loop {
            let result = self.call_isolated(|| self.env.eval_constraints(d));
            match result {
                Err(e) if e.is_simulation_failure() && attempt < self.config.retry.max_retries => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    attempt += 1;
                }
                Err(e) => {
                    return Err(
                        self.annotate_failure(e, format!("constraints at d={}", summarize_vec(d)))
                    );
                }
                Ok(value) => {
                    if attempt > 0 {
                        self.recovered.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(value);
                }
            }
        }
    }

    fn margins_from_performances(&self, perf: DVec) -> DVec {
        self.env
            .specs()
            .iter()
            .zip(perf.iter())
            .map(|(spec, &f)| spec.margin(f))
            .collect()
    }

    /// Fans `points` out over the worker pool, writing each result into its
    /// input slot. Workers claim point indices one at a time from a shared
    /// counter, so a slow region of the batch does not leave the other
    /// workers idle. `op` must be safe to call concurrently (it is: the env
    /// is `Sync` and the service's shared state is atomics + a mutex).
    fn run_batch<In, Out>(&self, points: &[In], op: impl Fn(&In) -> Out + Sync) -> Vec<Out>
    where
        In: Sync,
        Out: Send,
    {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_points
            .fetch_add(points.len() as u64, Ordering::Relaxed);
        if self.tracer.is_enabled() {
            let phase = SimPhase::ALL[self.phase.load(Ordering::Relaxed).min(SimPhase::COUNT - 1)];
            self.tracer.event(
                "batch",
                &[
                    ("points", points.len().into()),
                    ("phase", phase.label().into()),
                ],
            );
        }
        // Publish the warm-start snapshot exactly once, before fan-out:
        // every point of this batch seeds from the same committed state, so
        // Newton iteration counts do not depend on worker count or
        // completion order.
        self.env.warm_commit();
        let t0 = Instant::now();
        let workers = self.config.workers.clamp(1, points.len().max(1));
        let result = if workers <= 1 || points.len() < self.config.min_parallel_batch {
            points.iter().map(&op).collect()
        } else {
            // `Relaxed` suffices: the counter only hands out distinct
            // indices; the results travel back through `join`.
            let next = AtomicUsize::new(0);
            let claim = || {
                let mut done = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = points.get(i) else { break done };
                    done.push((i, op(p)));
                }
            };
            let mut slots: Vec<Option<Out>> = Vec::with_capacity(points.len());
            slots.resize_with(points.len(), || None);
            std::thread::scope(|scope| {
                let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
                let mine = claim();
                for (i, out) in helpers
                    .into_iter()
                    .flat_map(|h| h.join().expect("batch worker panicked"))
                    .chain(mine)
                {
                    slots[i] = Some(out);
                }
            });
            slots
                .into_iter()
                .map(|s| s.expect("worker filled every slot"))
                .collect()
        };
        self.charge_wall(t0.elapsed());
        result
    }

    /// Snapshot of the execution statistics.
    pub fn report(&self) -> ExecReport {
        ExecReport {
            workers: self.config.workers,
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            sim_failures: self.sim_failures.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batch_points: self.batch_points.load(Ordering::Relaxed),
            phase_sims: self.env.sim_phase_counts(),
            phase_wall: std::array::from_fn(|i| {
                Duration::from_nanos(self.phase_wall_ns[i].load(Ordering::Relaxed))
            }),
            total_sims: self.env.sim_count(),
            wall: self.started.elapsed(),
        }
    }
}

impl<E: CircuitEnv + Sync + ?Sized> CircuitEnv for EvalService<'_, E> {
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
        // from the stat space and would drop the wrapped env's override.
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
        let t0 = Instant::now();
        let result = self.performances_inner(d, s_hat, theta, true);
        self.charge_wall(t0.elapsed());
        result
    }

    fn eval_margins(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
    ) -> Result<DVec, CktError> {
        let t0 = Instant::now();
        let result = self
            .performances_inner(d, s_hat, theta, true)
            .map(|p| self.margins_from_performances(p));
        self.charge_wall(t0.elapsed());
        result
    }

    fn eval_constraints(&self, d: &DVec) -> Result<DVec, CktError> {
        let t0 = Instant::now();
        let result = self.constraints_with_retry(d);
        self.charge_wall(t0.elapsed());
        result
    }

    fn eval_margins_batch(&self, points: &[EvalPoint]) -> Vec<Result<DVec, CktError>> {
        self.run_batch(points, |p| {
            self.performances_inner(&p.d, &p.s_hat, &p.theta, p.memo)
                .map(|perf| self.margins_from_performances(perf))
        })
    }

    fn eval_constraints_batch(&self, designs: &[DVec]) -> Vec<Result<DVec, CktError>> {
        self.run_batch(designs, |d| self.constraints_with_retry(d))
    }

    fn sim_count(&self) -> u64 {
        self.env.sim_count()
    }

    fn reset_sim_count(&self) {
        self.env.reset_sim_count()
    }

    fn set_sim_phase(&self, phase: SimPhase) {
        self.phase.store(phase.index(), Ordering::Relaxed);
        self.env.set_sim_phase(phase);
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
        // Commit first for parity with the finite-difference batch path:
        // the base point seeds from the same snapshot either way.
        self.env.warm_commit();
        let t0 = Instant::now();
        let result =
            self.call_isolated(|| self.env.eval_margins_perturbed(d, s_hat, theta, directions));
        self.charge_wall(t0.elapsed());
        result.map_err(|e| {
            self.annotate_failure(
                e,
                format!(
                    "sensitivity base d={} ŝ={}",
                    summarize_vec(d),
                    summarize_vec(s_hat)
                ),
            )
        })
    }

    fn adjoint_solve_count(&self) -> u64 {
        self.env.adjoint_solve_count()
    }

    fn fd_sims_avoided(&self) -> u64 {
        self.env.fd_sims_avoided()
    }

    fn exec_report(&self) -> Option<ExecReport> {
        Some(self.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RetryPolicy;
    use specwise_ckt::{AnalyticEnv, DesignParam, SpecKind};

    fn env() -> AnalyticEnv {
        AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", -5.0, 5.0, 1.0,
            )]))
            .stat_dim(2)
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, th| {
                DVec::from_slice(&[d[0] + 0.5 * s[0] - 0.25 * s[1] * s[1] + 1e-3 * th.vdd])
            })
            .build()
            .unwrap()
    }

    fn points(n: usize) -> Vec<EvalPoint> {
        let theta = OperatingPoint::new(27.0, 3.3);
        (0..n)
            .map(|i| {
                EvalPoint::new(
                    DVec::from_slice(&[0.1 * i as f64]),
                    DVec::from_slice(&[0.01 * i as f64, -0.02 * i as f64]),
                    theta,
                )
            })
            .collect()
    }

    #[test]
    fn batch_matches_serial_bit_for_bit_across_worker_counts() {
        let e = env();
        let pts = points(23);
        // Reference: the default (serial) batch on the raw env.
        let reference = e.eval_margins_batch(&pts);
        for workers in [1usize, 2, 8] {
            let service = EvalService::new(
                &e,
                ExecConfig::serial()
                    .with_workers(workers)
                    .with_cache_capacity(0),
            );
            let got = service.eval_margins_batch(&pts);
            assert_eq!(got.len(), reference.len());
            for (g, r) in got.iter().zip(reference.iter()) {
                let (g, r) = (g.as_ref().unwrap(), r.as_ref().unwrap());
                assert_eq!(g.as_slice(), r.as_slice(), "workers={workers} diverged");
            }
        }
    }

    #[test]
    fn constraints_batch_matches_serial() {
        let e = AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", -5.0, 5.0, 1.0,
            )]))
            .stat_dim(1)
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, _, _| DVec::from_slice(&[d[0]]))
            .constraints(vec!["c0".into()], |d| DVec::from_slice(&[d[0] - 1.0]))
            .build()
            .unwrap();
        let designs: Vec<DVec> = (0..11)
            .map(|i| DVec::from_slice(&[0.3 * i as f64]))
            .collect();
        let reference = e.eval_constraints_batch(&designs);
        for workers in [1usize, 2, 8] {
            let service = EvalService::new(&e, ExecConfig::serial().with_workers(workers));
            let got = service.eval_constraints_batch(&designs);
            for (g, r) in got.iter().zip(reference.iter()) {
                assert_eq!(
                    g.as_ref().unwrap().as_slice(),
                    r.as_ref().unwrap().as_slice(),
                    "workers={workers}"
                );
            }
        }
    }

    #[test]
    fn cache_saves_simulations_and_returns_identical_values() {
        let e = env();
        let service = EvalService::new(&e, ExecConfig::default().with_workers(1));
        let p = points(1).remove(0);
        let first = service.eval_margins(&p.d, &p.s_hat, &p.theta).unwrap();
        let sims_after_first = service.sim_count();
        let second = service.eval_margins(&p.d, &p.s_hat, &p.theta).unwrap();
        assert_eq!(
            service.sim_count(),
            sims_after_first,
            "hit must not simulate"
        );
        assert_eq!(first.as_slice(), second.as_slice());
        let report = service.report();
        assert_eq!(report.cache_hits, 1);
        assert_eq!(report.cache_misses, 1);
    }

    #[test]
    fn unmemoized_points_never_hit_nor_insert_and_keep_the_bits() {
        let e = env();
        let service = EvalService::new(&e, ExecConfig::default().with_workers(2));
        let pts = points(5);
        let memoized = service.eval_margins_batch(&pts);
        let before = service.report();
        assert_eq!((before.cache_hits, before.cache_misses), (0, 5));
        assert_eq!(service.cache_len(), 5);

        // Every point is cached now, yet an unmemoized batch simulates them
        // all again and leaves the cache and its counters alone.
        let sims = service.sim_count();
        let bare: Vec<EvalPoint> = pts.iter().cloned().map(EvalPoint::unmemoized).collect();
        let fresh = service.eval_margins_batch(&bare);
        assert_eq!(service.sim_count(), sims + 5);
        let after = service.report();
        assert_eq!((after.cache_hits, after.cache_misses), (0, 5));
        assert_eq!(service.cache_len(), 5);
        for (m, f) in memoized.iter().zip(&fresh) {
            assert_eq!(
                m.as_ref().unwrap().as_slice(),
                f.as_ref().unwrap().as_slice()
            );
        }

        // An unmemoized first evaluation does not seed the cache either.
        let cold = EvalService::new(&e, ExecConfig::default().with_workers(1));
        let _ = cold.eval_margins_batch(&bare);
        assert_eq!(cold.cache_len(), 0);
        assert_eq!(cold.report().cache_misses, 0);
    }

    #[test]
    fn pooled_batches_fill_every_input_slot() {
        let e = env();
        for n in [2usize, 3, 23] {
            let pts = points(n);
            let reference = e.eval_margins_batch(&pts);
            for workers in [2usize, 3, 8] {
                let config = ExecConfig::default().with_workers(workers);
                let got = EvalService::new(&e, config).eval_margins_batch(&pts);
                assert_eq!(got.len(), n);
                for (g, r) in got.iter().zip(&reference) {
                    let (g, r) = (g.as_ref().unwrap(), r.as_ref().unwrap());
                    assert_eq!(g.as_slice(), r.as_slice(), "n={n} workers={workers}");
                }
            }
        }
    }

    #[test]
    fn nearby_but_distinct_points_never_alias_through_the_service() {
        let e = env();
        let service = EvalService::new(&e, ExecConfig::default().with_workers(1));
        let theta = OperatingPoint::new(27.0, 3.3);
        let d = DVec::from_slice(&[1.0]);
        let s_a = DVec::from_slice(&[0.5, 0.0]);
        // One ulp away: same quantization bucket, different point.
        let s_b = DVec::from_slice(&[f64::from_bits(0.5f64.to_bits() + 1), 0.0]);
        let m_a = service.eval_margins(&d, &s_a, &theta).unwrap();
        let m_b = service.eval_margins(&d, &s_b, &theta).unwrap();
        let expect_a = e.eval_margins(&d, &s_a, &theta).unwrap();
        let expect_b = e.eval_margins(&d, &s_b, &theta).unwrap();
        assert_eq!(m_a.as_slice(), expect_a.as_slice());
        assert_eq!(m_b.as_slice(), expect_b.as_slice());
        assert_eq!(
            service.report().cache_misses,
            2,
            "both points must evaluate"
        );
    }

    #[test]
    fn retry_recovers_from_point_failures() {
        // Fails exactly at ŝ = (0.5, 0.5); the retry's perturbed point
        // converges.
        let e = AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", -5.0, 5.0, 1.0,
            )]))
            .stat_dim(2)
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| DVec::from_slice(&[d[0] + s[0]]))
            .fail_when_stat(|_, s| s[0] == 0.5 && s[1] == 0.5)
            .build()
            .unwrap();
        let service = EvalService::new(
            &e,
            ExecConfig::default()
                .with_workers(1)
                .with_retry(RetryPolicy {
                    max_retries: 2,
                    perturb: 1e-9,
                }),
        );
        let theta = OperatingPoint::new(27.0, 3.3);
        let m = service
            .eval_margins(
                &DVec::from_slice(&[1.0]),
                &DVec::from_slice(&[0.5, 0.5]),
                &theta,
            )
            .unwrap();
        assert!((m[0] - 1.5).abs() < 1e-6);
        let report = service.report();
        assert_eq!(report.retries, 1);
        assert_eq!(report.recovered, 1);
        assert_eq!(report.sim_failures, 0);
    }

    #[test]
    fn exhausted_retries_surface_the_error_without_poisoning_the_batch() {
        // The whole band s[0] ∈ [0.4, 0.6] fails — retries cannot escape.
        let e = AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", -5.0, 5.0, 1.0,
            )]))
            .stat_dim(1)
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| DVec::from_slice(&[d[0] + s[0]]))
            .fail_when_stat(|_, s| (0.4..=0.6).contains(&s[0]))
            .build()
            .unwrap();
        let service = EvalService::new(&e, ExecConfig::default().with_workers(2));
        let theta = OperatingPoint::new(27.0, 3.3);
        let pts: Vec<EvalPoint> = [0.0, 0.5, 1.0, 0.45, 2.0]
            .iter()
            .map(|&s| EvalPoint::new(DVec::from_slice(&[1.0]), DVec::from_slice(&[s]), theta))
            .collect();
        let results = service.eval_margins_batch(&pts);
        assert!(results[0].is_ok());
        assert!(results[2].is_ok());
        assert!(results[4].is_ok());
        for idx in [1usize, 3] {
            let err = results[idx].as_ref().unwrap_err();
            assert!(err.is_simulation_failure(), "slot {idx}: {err}");
            assert!(matches!(err.root(), CktError::Simulation(_)));
            // The escaping error names the phase and the offending point.
            let msg = err.to_string();
            assert!(msg.contains("phase 'other'"), "{msg}");
            assert!(msg.contains("ŝ="), "{msg}");
        }
        let report = service.report();
        assert_eq!(report.sim_failures, 2);
        assert!(report.retries >= 2);
    }

    #[test]
    fn worker_panic_is_isolated_and_degrades_to_an_error() {
        let e = AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", -5.0, 5.0, 1.0,
            )]))
            .stat_dim(1)
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| {
                assert!(s[0] < 0.75, "poisoned sample");
                DVec::from_slice(&[d[0] + s[0]])
            })
            .build()
            .unwrap();
        let service = EvalService::new(&e, ExecConfig::default().with_workers(2));
        let theta = OperatingPoint::new(27.0, 3.3);
        let pts: Vec<EvalPoint> = [0.0, 0.9, 0.5]
            .iter()
            .map(|&s| EvalPoint::new(DVec::from_slice(&[1.0]), DVec::from_slice(&[s]), theta))
            .collect();
        // Silence the default panic hook for the intentional panic.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let results = service.eval_margins_batch(&pts);
        std::panic::set_hook(prev_hook);
        assert!(results[0].is_ok());
        assert!(results[2].is_ok());
        let err = results[1].as_ref().unwrap_err();
        assert!(matches!(err.root(), CktError::WorkerPanic { .. }), "{err}");
        assert!(err.to_string().contains("poisoned sample"), "{err}");
        let report = service.report();
        assert!(report.panics_caught >= 1);
        assert_eq!(report.sim_failures, 1);
    }

    #[test]
    fn report_tracks_batches_and_phases() {
        let e = env();
        let service = EvalService::new(&e, ExecConfig::default().with_workers(2));
        service.set_sim_phase(SimPhase::Verification);
        let pts = points(6);
        let _ = service.eval_margins_batch(&pts);
        let report = service.report();
        assert_eq!(report.batches, 1);
        assert_eq!(report.batch_points, 6);
        assert_eq!(report.phase_sims[SimPhase::Verification.index()], 6);
        assert!(report.phase_wall[SimPhase::Verification.index()] > Duration::ZERO);
        assert_eq!(report.total_sims, 6);
        assert!(report
            .phase_rows()
            .iter()
            .any(|(l, n, _)| l == "verification" && *n == 6));
    }
}

//! The counting [`CircuitEnv`] wrapper of the traced pass.
//!
//! It sits between the [`EvalService`](specwise_exec::EvalService) and the
//! circuit, forwards every trait method to the wrapped environment, and
//! keeps per-method and per-phase atomic counters (calls, busy time)
//! instead of a span per call. Only the traced pass uses it; the timed
//! pass calls the circuit directly, so the end-to-end numbers never depend
//! on this file. The traced-equals-untraced guard in `main.rs` catches a
//! method this wrapper forgets to forward: the run's simulation count or
//! final design would change.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use specwise_ckt::{
    CircuitEnv, CktError, DesignSpace, OperatingPoint, OperatingRange, SimPhase, Spec, StatSpace,
};
use specwise_linalg::DVec;

/// The evaluation methods of [`CircuitEnv`] the wrapper counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Performances,
    Constraints,
    Margins,
    Perturbed,
    Samples,
}

impl Method {
    pub const ALL: [Method; 5] = [
        Method::Performances,
        Method::Constraints,
        Method::Margins,
        Method::Perturbed,
        Method::Samples,
    ];

    /// The trait method's name, used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Method::Performances => "eval_performances",
            Method::Constraints => "eval_constraints",
            Method::Margins => "eval_margins",
            Method::Perturbed => "eval_margins_perturbed",
            Method::Samples => "eval_margins_samples",
        }
    }
}

/// Counter totals of one traced run.
#[derive(Debug, Clone)]
pub struct CktCounts {
    /// Calls per [`Method`], in [`Method::ALL`] order.
    pub calls: [u64; 5],
    /// Busy nanoseconds per [`Method`], summed over worker threads.
    pub busy_ns: [u64; 5],
    /// Busy nanoseconds per [`SimPhase`] (indexed by [`SimPhase::index`]).
    pub phase_busy_ns: [u64; SimPhase::COUNT],
    /// `eval_margins_perturbed` calls the environment answered.
    pub perturbed_answered: u64,
    /// `eval_margins_samples` calls the environment answered.
    pub samples_answered: u64,
}

impl CktCounts {
    /// Busy nanoseconds over all methods.
    pub fn busy_total_ns(&self) -> u64 {
        self.busy_ns.iter().sum()
    }
}

/// A [`CircuitEnv`] that counts what passes through it.
#[derive(Debug)]
pub struct CountingEnv<'e, E: ?Sized> {
    inner: &'e E,
    calls: [AtomicU64; 5],
    busy_ns: [AtomicU64; 5],
    phase: AtomicUsize,
    phase_busy_ns: [AtomicU64; SimPhase::COUNT],
    perturbed_answered: AtomicU64,
    samples_answered: AtomicU64,
}

impl<'e, E: CircuitEnv + ?Sized> CountingEnv<'e, E> {
    pub fn new(inner: &'e E) -> Self {
        CountingEnv {
            inner,
            calls: Default::default(),
            busy_ns: Default::default(),
            phase: AtomicUsize::new(SimPhase::Other.index()),
            phase_busy_ns: Default::default(),
            perturbed_answered: AtomicU64::new(0),
            samples_answered: AtomicU64::new(0),
        }
    }

    /// A snapshot of the counters.
    pub fn counts(&self) -> CktCounts {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        CktCounts {
            calls: std::array::from_fn(|i| load(&self.calls[i])),
            busy_ns: std::array::from_fn(|i| load(&self.busy_ns[i])),
            phase_busy_ns: std::array::from_fn(|i| load(&self.phase_busy_ns[i])),
            perturbed_answered: load(&self.perturbed_answered),
            samples_answered: load(&self.samples_answered),
        }
    }

    fn timed<T>(&self, method: Method, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        let m = method as usize;
        self.calls[m].fetch_add(1, Ordering::Relaxed);
        self.busy_ns[m].fetch_add(ns, Ordering::Relaxed);
        let phase = self.phase.load(Ordering::Relaxed).min(SimPhase::COUNT - 1);
        self.phase_busy_ns[phase].fetch_add(ns, Ordering::Relaxed);
        out
    }
}

impl<E: CircuitEnv + ?Sized> CircuitEnv for CountingEnv<'_, E> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn design_space(&self) -> &DesignSpace {
        self.inner.design_space()
    }

    fn stat_space(&self) -> &StatSpace {
        self.inner.stat_space()
    }

    fn stat_dim(&self) -> usize {
        self.inner.stat_dim()
    }

    fn specs(&self) -> &[Spec] {
        self.inner.specs()
    }

    fn operating_range(&self) -> &OperatingRange {
        self.inner.operating_range()
    }

    fn constraint_names(&self) -> Vec<String> {
        self.inner.constraint_names()
    }

    fn eval_performances(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
    ) -> Result<DVec, CktError> {
        self.timed(Method::Performances, || {
            self.inner.eval_performances(d, s_hat, theta)
        })
    }

    fn eval_constraints(&self, d: &DVec) -> Result<DVec, CktError> {
        self.timed(Method::Constraints, || self.inner.eval_constraints(d))
    }

    fn eval_margins(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
    ) -> Result<DVec, CktError> {
        self.timed(Method::Margins, || self.inner.eval_margins(d, s_hat, theta))
    }

    fn sim_count(&self) -> u64 {
        self.inner.sim_count()
    }

    fn reset_sim_count(&self) {
        self.inner.reset_sim_count();
    }

    fn set_sim_phase(&self, phase: SimPhase) {
        self.phase.store(phase.index(), Ordering::Relaxed);
        self.inner.set_sim_phase(phase);
    }

    fn sim_phase_counts(&self) -> [u64; SimPhase::COUNT] {
        self.inner.sim_phase_counts()
    }

    fn warm_commit(&self) {
        self.inner.warm_commit();
    }

    fn eval_margins_perturbed(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
        directions: &[(DVec, DVec)],
    ) -> Result<Option<(DVec, Vec<DVec>)>, CktError> {
        let out = self.timed(Method::Perturbed, || {
            self.inner
                .eval_margins_perturbed(d, s_hat, theta, directions)
        });
        if matches!(out, Ok(Some(_))) {
            self.perturbed_answered.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    fn eval_margins_samples(
        &self,
        d: &DVec,
        points: &[(DVec, OperatingPoint)],
    ) -> Option<Vec<Result<DVec, CktError>>> {
        let out = self.timed(Method::Samples, || {
            self.inner.eval_margins_samples(d, points)
        });
        if out.is_some() {
            self.samples_answered.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    fn adjoint_solve_count(&self) -> u64 {
        self.inner.adjoint_solve_count()
    }

    fn fd_sims_avoided(&self) -> u64 {
        self.inner.fd_sims_avoided()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specwise_ckt::FiveTransistorOta;

    #[test]
    fn forwards_accessors_and_counts_calls_by_phase() {
        let ota = FiveTransistorOta::default_setup();
        let env = CountingEnv::new(&ota);
        assert_eq!(env.stat_dim(), ota.stat_dim());
        assert_eq!(env.specs().len(), ota.specs().len());
        let d = ota.design_space().initial();
        let s = DVec::zeros(ota.stat_dim());
        let theta = ota.operating_range().nominal();
        env.set_sim_phase(SimPhase::Wcd);
        env.eval_margins(&d, &s, &theta).unwrap();
        env.set_sim_phase(SimPhase::Feasibility);
        env.eval_constraints(&d).unwrap();
        let c = env.counts();
        assert_eq!(c.calls[Method::Margins as usize], 1);
        assert_eq!(c.calls[Method::Constraints as usize], 1);
        assert_eq!(c.calls[Method::Performances as usize], 0);
        assert!(c.phase_busy_ns[SimPhase::Wcd.index()] > 0);
        assert!(c.phase_busy_ns[SimPhase::Feasibility.index()] > 0);
        assert_eq!(c.busy_total_ns(), c.phase_busy_ns.iter().sum::<u64>());
        assert_eq!(env.sim_count(), ota.sim_count());
        assert_eq!(env.sim_phase_counts(), ota.sim_phase_counts());
    }
}

//! specwise-harden: deterministic fault injection and robustness
//! harnessing for the specwise flow.
//!
//! A production yield-optimization run is thousands of simulator calls
//! (paper Table 7), and any of them can fail mid-flight: a DC solve that
//! does not converge, a measurement that comes back NaN, a worker that
//! panics, a job that is killed outright. The rest of the workspace
//! carries the *mechanisms* that survive those events — per-sample retries
//! and panic isolation in `specwise-exec`, degradation policies and
//! checkpoint/resume in `specwise` (core). This crate carries the
//! *adversary* that proves they work:
//!
//! * [`FaultInjector`] — wraps any [`CircuitEnv`](specwise_ckt::CircuitEnv)
//!   and injects seeded, deterministic faults ([`FaultKind`]: simulation
//!   non-convergence, NaN performances, latency spikes, worker panics).
//!   Fault decisions are pure functions of the evaluation point and the
//!   seed, so injection reproduces exactly under parallel batches. In
//!   transient mode (the default) a point faults only on its first
//!   evaluation, which makes "retries absorb every fault → results
//!   bit-identical to the fault-free run" a provable property rather than
//!   a hope.
//! * [`FaultConfig`] — the `seed:rate:kinds` spec, parseable from the
//!   `SPECWISE_FAULTS` environment variable ([`FAULTS_ENV_VAR`]) so any
//!   test or example can run under chaos without code changes.
//! * [`KillSwitch`] — an environment wrapper that turns fatal after a
//!   fixed simulation budget: the in-process stand-in for "the job got
//!   killed", used by the checkpoint/resume tests.
//!
//! # Example
//!
//! ```
//! use specwise_ckt::{AnalyticEnv, CircuitEnv, DesignParam, DesignSpace, Spec, SpecKind};
//! use specwise_harden::{FaultConfig, FaultInjector, FaultKind};
//! use specwise_linalg::DVec;
//!
//! # fn main() -> Result<(), specwise_ckt::CktError> {
//! let env = AnalyticEnv::builder()
//!     .design(DesignSpace::new(vec![DesignParam::new("d0", "", -10.0, 10.0, 2.0)]))
//!     .stat_dim(1)
//!     .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
//!     .performances(|d, s, _| DVec::from_slice(&[d[0] + s[0]]))
//!     .build()?;
//! // 30% non-convergence faults, transient: the second evaluation of a
//! // faulted point succeeds.
//! let cfg = FaultConfig::new(42, 0.3).with_kinds(&[FaultKind::NonConvergence]);
//! let chaos = FaultInjector::new(&env, cfg);
//! let theta = env.operating_range().nominal();
//! let d = DVec::from_slice(&[2.0]);
//! let s = DVec::from_slice(&[0.25]);
//! let first = chaos.eval_performances(&d, &s, &theta);
//! let second = chaos.eval_performances(&d, &s, &theta);
//! assert!(second.is_ok(), "transient faults clear on retry");
//! # let _ = first;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod inject;

pub use config::{FaultConfig, FaultKind, FAULTS_ENV_VAR};
pub use inject::{FaultInjector, FaultReport, KillSwitch, SharedBudget};

#[cfg(test)]
mod tests {
    use super::*;
    use specwise_ckt::{
        AnalyticEnv, CircuitEnv, CktError, DesignParam, DesignSpace, OperatingPoint, SimPhase,
        Spec, SpecKind,
    };
    use specwise_exec::{EvalPoint, EvalService, ExecConfig, RetryPolicy};
    use specwise_linalg::DVec;

    fn env() -> AnalyticEnv {
        AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", -5.0, 5.0, 1.0,
            )]))
            .stat_dim(2)
            .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| DVec::from_slice(&[d[0] + 0.5 * s[0] - 0.25 * s[1]]))
            .constraints(vec!["c0".into()], |d| DVec::from_slice(&[d[0] + 4.0]))
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
    fn wrappers_forward_accessors_and_counters_to_the_bare_env() {
        // `stat_dim` 2 over a space of 5 globals: a wrapper that fell back
        // to the trait's default `stat_dim` would report 5.
        let e = env();
        assert_ne!(e.stat_dim(), e.stat_space().dim());
        let svc = EvalService::new(&e, ExecConfig::serial());
        let inj = FaultInjector::new(&e, FaultConfig::new(1, 0.0));
        let kill = KillSwitch::new(&e, 100);
        let inj_over_svc = FaultInjector::new(&svc, FaultConfig::new(1, 0.0));
        let stacked = KillSwitch::new(&inj_over_svc, 100);
        let wrappers: [(&str, &dyn CircuitEnv); 4] = [
            ("service", &svc),
            ("injector", &inj),
            ("kill switch", &kill),
            ("kill switch over injector over service", &stacked),
        ];
        let p = &points(1)[0];
        for (label, w) in wrappers {
            assert_eq!(w.name(), e.name(), "{label}");
            assert_eq!(w.stat_dim(), e.stat_dim(), "{label}");
            assert_eq!(w.specs().len(), e.specs().len(), "{label}");
            assert_eq!(w.constraint_names(), e.constraint_names(), "{label}");
            assert_eq!(
                w.operating_range().corners().len(),
                e.operating_range().corners().len(),
                "{label}"
            );
            w.set_sim_phase(SimPhase::Wcd);
            w.eval_margins(&p.d, &p.s_hat, &p.theta).unwrap();
            assert_eq!(w.sim_count(), e.sim_count(), "{label}");
            assert_eq!(w.sim_phase_counts(), e.sim_phase_counts(), "{label}");
        }
        assert_eq!(e.sim_phase_counts()[SimPhase::Wcd.index()], 4);
        assert!(svc.exec_report().is_some() && e.exec_report().is_none());

        // The trait's serial batch default and the service's batch agree.
        let pts = points(9);
        let served = svc.eval_margins_batch(&pts);
        for (b, s) in e.eval_margins_batch(&pts).iter().zip(&served) {
            assert_eq!(
                b.as_ref().unwrap().as_slice(),
                s.as_ref().unwrap().as_slice()
            );
        }
    }

    #[test]
    fn injection_is_deterministic_and_order_independent() {
        let e = env();
        let cfg = FaultConfig::new(7, 0.3)
            .with_kinds(&[FaultKind::NonConvergence])
            .with_transient(false);
        let theta = OperatingPoint::new(27.0, 3.3);
        let probe = |inj: &FaultInjector<AnalyticEnv>, order: &[usize]| -> Vec<bool> {
            let pts = points(40);
            let mut faulted = vec![false; pts.len()];
            for &i in order {
                let p = &pts[i];
                faulted[i] = inj.eval_performances(&p.d, &p.s_hat, &p.theta).is_err();
            }
            let _ = theta;
            faulted
        };
        let fwd: Vec<usize> = (0..40).collect();
        let rev: Vec<usize> = (0..40).rev().collect();
        let a = probe(&FaultInjector::new(&e, cfg.clone()), &fwd);
        let b = probe(&FaultInjector::new(&e, cfg.clone()), &rev);
        assert_eq!(a, b, "fault decisions must not depend on call order");
        let hit = a.iter().filter(|&&x| x).count();
        assert!(hit > 2 && hit < 25, "≈30% of 40 points, got {hit}");
    }

    #[test]
    fn transient_faults_clear_on_the_second_evaluation() {
        let e = env();
        let cfg = FaultConfig::new(3, 1.0).with_kinds(&[FaultKind::NonConvergence]);
        let inj = FaultInjector::new(&e, cfg);
        let theta = OperatingPoint::new(27.0, 3.3);
        let d = DVec::from_slice(&[1.0]);
        let s = DVec::from_slice(&[0.5, -0.5]);
        assert!(inj.eval_performances(&d, &s, &theta).is_err());
        let second = inj.eval_performances(&d, &s, &theta).unwrap();
        let clean = e.eval_performances(&d, &s, &theta).unwrap();
        assert_eq!(second.as_slice(), clean.as_slice());
        assert_eq!(inj.report().count(FaultKind::NonConvergence), 1);
    }

    #[test]
    fn retrying_service_over_injector_is_bit_identical_to_fault_free() {
        let e = env();
        let pts = points(31);
        let clean: Vec<DVec> = e
            .eval_margins_batch(&pts)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        // Transient faults + same-point retries (perturb = 0) + enough
        // retry budget → every point ends up evaluated cleanly.
        let cfg = FaultConfig::new(99, 0.4).with_kinds(&[FaultKind::NonConvergence]);
        let inj = FaultInjector::new(&e, cfg);
        let svc = EvalService::new(
            &inj,
            ExecConfig::default()
                .with_workers(4)
                .with_retry(RetryPolicy {
                    max_retries: 3,
                    perturb: 0.0,
                }),
        );
        let chaotic = svc.eval_margins_batch(&pts);
        assert!(inj.report().total() > 0, "faults must actually fire");
        for (c, r) in chaotic.iter().zip(clean.iter()) {
            assert_eq!(c.as_ref().unwrap().as_slice(), r.as_slice());
        }
        let report = svc.report();
        assert_eq!(report.sim_failures, 0);
        assert_eq!(report.recovered, inj.report().total());
    }

    #[test]
    fn same_point_retry_keeps_negative_zero() {
        // `−0.0 + 0.0` is `+0.0`: a zero nudge that still ran would hand the
        // injector a point with different bits, and a transient fault would
        // fire again on the retry instead of clearing.
        let e = env();
        let cfg = FaultConfig::new(13, 1.0).with_kinds(&[FaultKind::NonConvergence]);
        let inj = FaultInjector::new(&e, cfg);
        let svc = EvalService::new(
            &inj,
            ExecConfig::serial().with_retry(RetryPolicy {
                max_retries: 3,
                perturb: 0.0,
            }),
        );
        let theta = OperatingPoint::new(27.0, 3.3);
        let d = DVec::from_slice(&[1.0]);
        let s = DVec::from_slice(&[-0.0, 0.5]);
        let got = svc.eval_margins(&d, &s, &theta).unwrap();
        assert_eq!(
            got.as_slice(),
            e.eval_margins(&d, &s, &theta).unwrap().as_slice()
        );
        assert_eq!(inj.report().total(), 1, "the retry must hit the same point");
        let report = svc.report();
        assert_eq!((report.retries, report.recovered), (1, 1));
    }

    #[test]
    fn injected_panics_are_contained_by_the_service() {
        let e = env();
        let cfg = FaultConfig::new(5, 0.5).with_kinds(&[FaultKind::WorkerPanic]);
        let inj = FaultInjector::new(&e, cfg);
        let svc = EvalService::new(
            &e,
            ExecConfig::default()
                .with_workers(2)
                .with_retry(RetryPolicy::none()),
        );
        drop(svc);
        let svc = EvalService::new(
            &inj,
            ExecConfig::default()
                .with_workers(2)
                .with_retry(RetryPolicy::none()),
        );
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let results = svc.eval_margins_batch(&points(40));
        std::panic::set_hook(prev_hook);
        let panicked = results
            .iter()
            .filter(|r| {
                matches!(
                    r.as_ref().map_err(CktError::root),
                    Err(CktError::WorkerPanic { .. })
                )
            })
            .count();
        assert!(panicked > 0, "panics must fire at 50% rate over 40 points");
        assert_eq!(svc.report().panics_caught, panicked as u64);
        assert!(results.iter().any(|r| r.is_ok()), "others still evaluate");
    }

    #[test]
    fn nan_faults_poison_performances_not_the_process() {
        let e = env();
        let cfg = FaultConfig::new(11, 1.0).with_kinds(&[FaultKind::NanPerformance]);
        let inj = FaultInjector::new(&e, cfg);
        let theta = OperatingPoint::new(27.0, 3.3);
        let d = DVec::from_slice(&[1.0]);
        let s = DVec::from_slice(&[0.0, 0.0]);
        let perf = inj.eval_performances(&d, &s, &theta).unwrap();
        assert!(perf.iter().all(|x| x.is_nan()));
        // Transient: the next evaluation is clean.
        let perf2 = inj.eval_performances(&d, &s, &theta).unwrap();
        assert!(perf2.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn constraints_fault_and_recover_too() {
        let e = env();
        let cfg = FaultConfig::new(21, 1.0).with_kinds(&[FaultKind::NonConvergence]);
        let inj = FaultInjector::new(&e, cfg);
        let d = DVec::from_slice(&[1.0]);
        assert!(inj.eval_constraints(&d).is_err());
        assert_eq!(
            inj.eval_constraints(&d).unwrap().as_slice(),
            e.eval_constraints(&d).unwrap().as_slice()
        );
    }

    #[test]
    fn kill_switch_trips_fatally_after_budget() {
        let e = env();
        let kill = KillSwitch::new(&e, 3);
        let theta = OperatingPoint::new(27.0, 3.3);
        let d = DVec::from_slice(&[1.0]);
        let s = DVec::from_slice(&[0.0, 0.0]);
        for _ in 0..3 {
            assert!(kill.eval_performances(&d, &s, &theta).is_ok());
        }
        assert!(!kill.tripped());
        let err = kill.eval_performances(&d, &s, &theta).unwrap_err();
        assert!(kill.tripped());
        // Fatal, not retryable: no retry policy may absorb a kill.
        assert!(!err.is_simulation_failure());
    }

    #[test]
    fn external_charges_count_against_the_shared_allowance() {
        let e = env();
        let budget = std::sync::Arc::new(SharedBudget::new(10));
        let kill = KillSwitch::soft_with_budget(&e, std::sync::Arc::clone(&budget));
        let theta = OperatingPoint::new(27.0, 3.3);
        let d = DVec::from_slice(&[1.0]);
        let s = DVec::from_slice(&[0.0, 0.0]);
        for _ in 0..4 {
            assert!(kill.eval_performances(&d, &s, &theta).is_ok());
        }
        // A peer process reports 6 charges against the same allowance:
        // 4 local + 6 external = 10 → the very next charge is rejected.
        budget.set_external(6);
        assert_eq!(budget.total_used(), 10);
        assert!(!budget.tripped(), "at the cap but not yet over");
        let err = kill.eval_performances(&d, &s, &theta).unwrap_err();
        assert!(budget.tripped());
        // Soft mode: retryable, so failure-tolerant layers degrade.
        assert!(err.is_simulation_failure());
        assert_eq!(budget.used(), 5, "local meter keeps local semantics");
        assert_eq!(budget.external(), 6);
    }

    #[test]
    fn external_reconciliation_is_monotone_and_can_trip_directly() {
        let budget = SharedBudget::new(8);
        budget.set_external(5);
        // A stale (smaller) ledger read must never widen the allowance.
        budget.set_external(3);
        assert_eq!(budget.external(), 5);
        assert!(!budget.tripped());
        // Reconciling past the cap trips the meter without a local charge.
        budget.set_external(9);
        assert!(budget.tripped());
        assert_eq!(budget.used(), 0);
    }
}

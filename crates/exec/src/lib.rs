//! specwise-exec: parallel, fault-tolerant evaluation engine for all
//! simulator-driven loops.
//!
//! Every expensive loop in the yield machinery — finite-difference
//! gradients, operating-corner sweeps, Monte-Carlo verification, the
//! per-spec worst-case stage — reduces to "evaluate the circuit at these
//! `N` points". This crate turns that shape into a single choke point:
//!
//! * [`CircuitEnv`](specwise_ckt::CircuitEnv) — the trait those loops
//!   program against. Its batch calls
//!   ([`eval_margins_batch`](specwise_ckt::CircuitEnv::eval_margins_batch),
//!   [`eval_constraints_batch`](specwise_ckt::CircuitEnv::eval_constraints_batch))
//!   default to a serial loop, so plain environments keep working
//!   unchanged.
//! * [`EvalService`] — a `CircuitEnv` that wraps an environment and
//!   upgrades batches with a scoped-thread worker pool (results stay
//!   input-ordered and bit-identical to serial), a deterministic retry
//!   policy for non-converged simulations, and
//!   per-[`SimPhase`](specwise_ckt::SimPhase) simulation counters and
//!   wall-clock timers surfaced as an [`ExecReport`].
//!
//! The service does not memoize. An exact repeat of a point is either
//! never asked for (the worst-case analysis hands its corner sweep's
//! results on to the search and the verification) or served below it, by
//! the environment: a `Testbench` answers a repeat of its last measurement
//! and seeds Newton solves from its warm-start cache.
//!
//! # Example
//!
//! ```
//! use specwise_ckt::{AnalyticEnv, CircuitEnv, DesignParam, DesignSpace, Spec, SpecKind};
//! use specwise_exec::{EvalPoint, EvalService, ExecConfig};
//! use specwise_linalg::DVec;
//!
//! # fn main() -> Result<(), specwise_ckt::CktError> {
//! let env = AnalyticEnv::builder()
//!     .design(DesignSpace::new(vec![DesignParam::new("d0", "", -10.0, 10.0, 2.0)]))
//!     .stat_dim(1)
//!     .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
//!     .performances(|d, s, _| DVec::from_slice(&[d[0] + s[0]]))
//!     .build()?;
//! let service = EvalService::new(&env, ExecConfig::default().with_workers(2));
//! let theta = env.operating_range().nominal();
//! let points: Vec<EvalPoint> = (0..8)
//!     .map(|i| EvalPoint::new(
//!         DVec::from_slice(&[2.0]),
//!         DVec::from_slice(&[0.1 * i as f64]),
//!         theta,
//!     ))
//!     .collect();
//! let margins = service.eval_margins_batch(&points);
//! assert!(margins.iter().all(|m| m.is_ok()));
//! println!("{}", service.report());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod service;

pub use config::{ExecConfig, RetryPolicy};
pub use service::EvalService;
pub use specwise_ckt::{EvalPoint, ExecReport};

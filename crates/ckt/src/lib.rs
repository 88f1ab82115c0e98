//! Circuit library for the `specwise` yield-optimization workspace:
//! a synthetic (but order-realistic) CMOS technology card, statistical
//! parameter spaces with Pelgrom-style local variations, operating ranges,
//! performance extraction, and the two benchmark circuits of the DAC 2001
//! paper — the folded-cascode opamp (Fig. 7) and the Miller opamp (Fig. 8).
//!
//! The central abstraction is [`CircuitEnv`]: the interface consumed by the
//! worst-case analysis (`specwise-wcd`) and the yield optimizer
//! (`specwise`). It evaluates performances `f(d, ŝ, θ)` where
//!
//! * `d` — design parameters (widths/lengths in µm, currents in µA, …),
//! * `ŝ` — *standardized* statistical parameters `~ N(0, I)`; the
//!   design-dependent covariance `C(d)` of paper Eq. 10 is applied inside
//!   the environment (Eq. 14: `f̂(d, ŝ, θ) = f(d, s(ŝ), θ)`),
//! * `θ` — operating conditions (temperature, supply voltage).
//!
//! # Example
//!
//! ```
//! use specwise_ckt::{CircuitEnv, FoldedCascode};
//! use specwise_linalg::DVec;
//!
//! # fn main() -> Result<(), specwise_ckt::CktError> {
//! let env = FoldedCascode::paper_setup();
//! let d0 = env.design_space().initial();
//! let s0 = DVec::zeros(env.stat_dim());
//! let theta = env.operating_range().nominal();
//! let perf = env.eval_performances(&d0, &s0, &theta)?;
//! assert_eq!(perf.len(), env.specs().len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analytic;
mod design;
mod env;
pub mod env_knob;
mod error;
mod folded;
mod measure;
mod miller;
mod operating;
mod ota;
mod spec;
mod stats;
mod tech;
mod testbench;
mod warm;

pub use analytic::{AnalyticEnv, AnalyticEnvBuilder};
pub use design::{DesignParam, DesignSpace};
pub use env::{CircuitEnv, EvalPoint, ExecReport, SimCounter, SimPhase};
pub use error::CktError;
pub use folded::FoldedCascode;
pub use measure::{Measure, MeasureContext, OpampMetrics, SlewRateMethod};
pub use miller::MillerOpamp;
pub use operating::{OperatingPoint, OperatingRange};
pub use ota::FiveTransistorOta;
pub use spec::{Spec, SpecKind};
pub use specwise_mna::DeckLimits;
pub use stats::{CapStat, DeviceStats, StatKind, StatParam, StatSpace};
pub use tech::Technology;
pub use testbench::{DesignBinding, DesignMap, DesignTarget, StatMap, Testbench};
pub use warm::WarmStartCache;

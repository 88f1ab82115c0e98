//! Statistical substrate for the `specwise` yield-optimization workspace.
//!
//! Provides what the DAC 2001 flow needs from probability theory:
//!
//! * [`erf`]/[`erfc`] and the standard normal CDF [`std_normal_cdf`],
//! * standard-normal sampling ([`StandardNormal`], Box–Muller over `rand`),
//! * Monte-Carlo yield estimation ([`YieldEstimate`], paper Eqs. 6–7),
//! * streaming moments ([`RunningMoments`]) for the Table 2 style
//!   mean/variance improvement reports.
//!
//! Every statistical parameter is drawn as an independent standard normal
//! `ŝ`; the variance transform `s = G(d)·ŝ + s0` of paper Eq. 11 is the
//! diagonal Pelgrom `G(d)` that `specwise_ckt::StatSpace` applies per
//! device, so no correlated or non-normal distribution lives here.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use specwise_stat::{StandardNormal, YieldEstimate};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let normal = StandardNormal::new();
//! // Probability that a standard normal exceeds -1 is about 84 %.
//! let est = YieldEstimate::from_trials((0..4000).map(|_| normal.sample(&mut rng) > -1.0));
//! assert!((est.value() - 0.8413).abs() < 0.02);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod erf;
mod moments;
mod sampler;
mod yield_est;

pub use erf::{erf, erfc, std_normal_cdf};
pub use moments::RunningMoments;
pub use sampler::StandardNormal;
pub use yield_est::YieldEstimate;

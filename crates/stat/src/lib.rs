//! Statistical substrate for the `specwise` yield-optimization workspace.
//!
//! Provides what the DAC 2001 flow needs from probability theory:
//!
//! * [`erf`]/[`erfc`], the standard normal CDF [`std_normal_cdf`] and its
//!   inverse [`std_normal_quantile`],
//! * univariate distributions ([`Normal`], [`LogNormal`], [`Uniform`]) with
//!   the normal-space transforms used to reduce every distribution to a
//!   Gaussian (paper Sec. 2, refs [14, 15]),
//! * standard-normal sampling ([`StandardNormal`], Box–Muller over `rand`),
//! * the multivariate normal [`Mvn`] with Cholesky-factor sampling — the
//!   `s = G·ŝ + s0` transform of paper Eq. 11,
//! * Monte-Carlo yield estimation ([`YieldEstimate`]) with Wilson confidence
//!   intervals (paper Eqs. 6–7),
//! * streaming moments ([`RunningMoments`]) for the Table 2 style
//!   mean/variance improvement reports.
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

mod dist;
mod erf;
mod error;
mod moments;
mod mvn;
mod sampler;
mod yield_est;

pub use dist::{LogNormal, Normal, Uniform, UnivariateDistribution};
pub use erf::{erf, erfc, std_normal_cdf, std_normal_pdf, std_normal_quantile};
pub use error::StatError;
pub use moments::RunningMoments;
pub use mvn::Mvn;
pub use sampler::StandardNormal;
pub use yield_est::YieldEstimate;

//! Univariate distributions with normal-space transforms.
//!
//! The paper (Sec. 2, refs [14, 15]) notes that normal, log-normal and
//! uniform statistical parameters "can be transformed into a normal
//! (Gaussian) distribution" so the whole flow only ever handles Gaussians.
//! [`UnivariateDistribution::to_standard_normal`] /
//! [`UnivariateDistribution::from_standard_normal`] implement exactly that
//! transform (the probability-integral / quantile map).

use rand::Rng;

use crate::{std_normal_cdf, std_normal_quantile, StatError};

/// Common interface of the univariate distributions used for statistical
/// circuit parameters.
pub trait UnivariateDistribution {
    /// Cumulative distribution function.
    fn cdf(&self, x: f64) -> f64;

    /// Quantile function (inverse CDF).
    ///
    /// # Panics
    ///
    /// Implementations panic if `p` is outside `(0, 1)`.
    fn quantile(&self, p: f64) -> f64;

    /// Mean of the distribution.
    fn mean(&self) -> f64;

    /// Standard deviation of the distribution.
    fn std_dev(&self) -> f64;

    /// Draws one sample.
    #[allow(clippy::wrong_self_convention)]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64
    where
        Self: Sized,
    {
        self.quantile(rng.gen_range(f64::EPSILON..1.0))
    }

    /// Maps a value of this distribution to the equivalent standard-normal
    /// deviate: `z = Φ⁻¹(F(x))`.
    ///
    /// This is the transform that lets the yield machinery treat every
    /// statistical parameter as Gaussian.
    fn to_standard_normal(&self, x: f64) -> f64 {
        let p = self.cdf(x).clamp(1e-300, 1.0 - 1e-16);
        std_normal_quantile(p)
    }

    /// Inverse of [`UnivariateDistribution::to_standard_normal`]:
    /// `x = F⁻¹(Φ(z))`.
    #[allow(clippy::wrong_self_convention)] // reads "construct x *from* a z-score"
    fn from_standard_normal(&self, z: f64) -> f64 {
        let p = std_normal_cdf(z).clamp(1e-300, 1.0 - 1e-16);
        self.quantile(p)
    }
}

/// Normal distribution `N(µ, σ²)`.
///
/// ```
/// use specwise_stat::{Normal, UnivariateDistribution};
///
/// # fn main() -> Result<(), specwise_stat::StatError> {
/// let d = Normal::new(10.0, 2.0)?;
/// assert!((d.cdf(10.0) - 0.5).abs() < 1e-14);
/// assert!((d.quantile(0.5) - 10.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates `N(mu, sigma²)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatError::InvalidParameter`] unless `sigma > 0` and both
    /// parameters are finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, StatError> {
        if !mu.is_finite() {
            return Err(StatError::InvalidParameter {
                name: "mu",
                value: mu,
            });
        }
        if !(sigma > 0.0) || !sigma.is_finite() {
            return Err(StatError::InvalidParameter {
                name: "sigma",
                value: sigma,
            });
        }
        Ok(Normal { mu, sigma })
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Normal {
            mu: 0.0,
            sigma: 1.0,
        }
    }

    /// Location parameter µ.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Scale parameter σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl UnivariateDistribution for Normal {
    fn cdf(&self, x: f64) -> f64 {
        std_normal_cdf((x - self.mu) / self.sigma)
    }

    fn quantile(&self, p: f64) -> f64 {
        self.mu + self.sigma * std_normal_quantile(p)
    }

    fn mean(&self) -> f64 {
        self.mu
    }

    fn std_dev(&self) -> f64 {
        self.sigma
    }
}

/// Log-normal distribution: `ln X ~ N(µ, σ²)`.
///
/// Typical for strictly positive process parameters such as saturation
/// currents or oxide thickness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with log-space parameters `mu`, `sigma`.
    ///
    /// # Errors
    ///
    /// Returns [`StatError::InvalidParameter`] unless `sigma > 0` and both
    /// parameters are finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, StatError> {
        if !mu.is_finite() {
            return Err(StatError::InvalidParameter {
                name: "mu",
                value: mu,
            });
        }
        if !(sigma > 0.0) || !sigma.is_finite() {
            return Err(StatError::InvalidParameter {
                name: "sigma",
                value: sigma,
            });
        }
        Ok(LogNormal { mu, sigma })
    }

    /// Log-space location parameter.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Log-space scale parameter.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl UnivariateDistribution for LogNormal {
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            std_normal_cdf((x.ln() - self.mu) / self.sigma)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        (self.mu + self.sigma * std_normal_quantile(p)).exp()
    }

    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    fn std_dev(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        (((s2).exp() - 1.0) * (2.0 * self.mu + s2).exp()).sqrt()
    }
}

/// Continuous uniform distribution on `[a, b]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    a: f64,
    b: f64,
}

impl Uniform {
    /// Creates `U[a, b]`.
    ///
    /// # Errors
    ///
    /// Returns [`StatError::InvalidParameter`] unless `a < b` and both are
    /// finite.
    pub fn new(a: f64, b: f64) -> Result<Self, StatError> {
        if !a.is_finite() {
            return Err(StatError::InvalidParameter {
                name: "a",
                value: a,
            });
        }
        if !b.is_finite() || !(b > a) {
            return Err(StatError::InvalidParameter {
                name: "b",
                value: b,
            });
        }
        Ok(Uniform { a, b })
    }

    /// Lower bound.
    pub fn lower(&self) -> f64 {
        self.a
    }

    /// Upper bound.
    pub fn upper(&self) -> f64 {
        self.b
    }
}

impl UnivariateDistribution for Uniform {
    fn cdf(&self, x: f64) -> f64 {
        ((x - self.a) / (self.b - self.a)).clamp(0.0, 1.0)
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile argument {p} outside (0, 1)");
        self.a + p * (self.b - self.a)
    }

    fn mean(&self) -> f64 {
        0.5 * (self.a + self.b)
    }

    fn std_dev(&self) -> f64 {
        (self.b - self.a) / 12.0_f64.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_rejects_bad_sigma() {
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn normal_quantile_roundtrip() {
        let d = Normal::new(-3.0, 0.5).unwrap();
        for p in [0.01, 0.2, 0.5, 0.9, 0.999] {
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn normal_standard_transform_is_zscore() {
        let d = Normal::new(5.0, 2.0).unwrap();
        assert!((d.to_standard_normal(7.0) - 1.0).abs() < 1e-10);
        assert!((d.from_standard_normal(-1.0) - 3.0).abs() < 1e-10);
    }

    #[test]
    fn lognormal_support_and_moments() {
        let d = LogNormal::new(0.0, 0.25).unwrap();
        assert_eq!(d.cdf(-1.0), 0.0);
        assert_eq!(d.cdf(0.0), 0.0);
        assert!((d.cdf(1.0) - 0.5).abs() < 1e-14); // median = e^mu = 1
        assert!((d.mean() - (0.25f64 * 0.25 / 2.0).exp()).abs() < 1e-14);
        assert!(d.std_dev() > 0.0);
    }

    #[test]
    fn lognormal_normal_space_roundtrip() {
        let d = LogNormal::new(1.0, 0.3).unwrap();
        for x in [0.5, 1.0, 3.0, 10.0] {
            let z = d.to_standard_normal(x);
            let back = d.from_standard_normal(z);
            assert!((back / x - 1.0).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    fn uniform_cdf_clamps() {
        let d = Uniform::new(2.0, 4.0).unwrap();
        assert_eq!(d.cdf(1.0), 0.0);
        assert_eq!(d.cdf(5.0), 1.0);
        assert!((d.cdf(3.0) - 0.5).abs() < 1e-15);
        assert!((d.mean() - 3.0).abs() < 1e-15);
    }

    #[test]
    fn uniform_rejects_degenerate() {
        assert!(Uniform::new(1.0, 1.0).is_err());
        assert!(Uniform::new(2.0, 1.0).is_err());
    }

    #[test]
    fn uniform_to_normal_median_maps_to_zero() {
        let d = Uniform::new(0.0, 2.0).unwrap();
        assert!(d.to_standard_normal(1.0).abs() < 1e-12);
        // 97.5 % point of the uniform maps to +1.96 of the normal.
        assert!((d.to_standard_normal(1.95) - 1.959963984540054).abs() < 1e-9);
    }

    #[test]
    fn sampling_matches_distribution_mean() {
        let mut rng = StdRng::seed_from_u64(2024);
        let d = LogNormal::new(0.5, 0.2).unwrap();
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!(
            (mean / d.mean() - 1.0).abs() < 0.02,
            "mean {mean} vs {}",
            d.mean()
        );
    }
}

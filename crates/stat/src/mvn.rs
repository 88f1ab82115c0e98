//! Multivariate normal distribution with Cholesky-factor sampling.

use rand::Rng;
use specwise_linalg::{Cholesky, DMat, DVec};

use crate::{StandardNormal, StatError};

/// A multivariate normal distribution `N(µ, C)` factored as `C = G·Gᵀ`.
///
/// This is the statistical-parameter model of the paper: samples are drawn
/// as `s = G·ŝ + s0` with `ŝ ~ N(0, I)` (Eq. 11) so the probability density
/// becomes the standard normal of Eq. 12, and the same factor maps
/// worst-case points back and forth between the physical and the
/// standardized space.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use specwise_linalg::{DMat, DVec};
/// use specwise_stat::Mvn;
///
/// # fn main() -> Result<(), specwise_stat::StatError> {
/// let mean = DVec::from_slice(&[1.0, -1.0]);
/// let cov = DMat::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]).map_err(specwise_stat::StatError::from)?;
/// let mvn = Mvn::new(mean, &cov)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let s = mvn.sample(&mut rng);
/// assert_eq!(s.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Mvn {
    mean: DVec,
    chol: Cholesky,
}

impl Mvn {
    /// Creates `N(mean, cov)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatError::DimensionMismatch`] if the mean length and the
    /// covariance dimension differ, or [`StatError::Covariance`] if the
    /// covariance is not symmetric positive definite.
    pub fn new(mean: DVec, cov: &DMat) -> Result<Self, StatError> {
        if cov.nrows() != mean.len() {
            return Err(StatError::DimensionMismatch {
                expected: mean.len(),
                found: cov.nrows(),
            });
        }
        let chol = cov.cholesky()?;
        Ok(Mvn { mean, chol })
    }

    /// Creates a standard normal `N(0, I)` of dimension `n`.
    ///
    /// # Errors
    ///
    /// Returns [`StatError::Covariance`] only for `n = 0`.
    pub fn standard(n: usize) -> Result<Self, StatError> {
        Mvn::new(DVec::zeros(n), &DMat::identity(n))
    }

    /// Creates an axis-aligned normal from per-component standard deviations.
    ///
    /// # Errors
    ///
    /// Returns [`StatError::InvalidParameter`] if any `sigma <= 0`, or a
    /// dimension error when lengths differ.
    pub fn from_sigmas(mean: DVec, sigmas: &DVec) -> Result<Self, StatError> {
        if sigmas.len() != mean.len() {
            return Err(StatError::DimensionMismatch {
                expected: mean.len(),
                found: sigmas.len(),
            });
        }
        for &s in sigmas.iter() {
            if !(s > 0.0) || !s.is_finite() {
                return Err(StatError::InvalidParameter {
                    name: "sigma",
                    value: s,
                });
            }
        }
        let cov = DMat::from_diagonal(&sigmas.hadamard(sigmas)?);
        Mvn::new(mean, &cov)
    }

    /// Dimension of the distribution.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Mean vector `µ`.
    pub fn mean(&self) -> &DVec {
        &self.mean
    }

    /// The Cholesky factor `G` with `C = G·Gᵀ`.
    pub fn factor(&self) -> &DMat {
        self.chol.factor()
    }

    /// Maps a standardized vector into the physical space: `s = G·ŝ + µ`.
    fn to_physical(&self, s_hat: &DVec) -> DVec {
        &self.chol.transform(s_hat) + &self.mean
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> DVec {
        let normal = StandardNormal::new();
        let s_hat = DVec::from(normal.sample_vec(rng, self.dim()));
        self.to_physical(&s_hat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn example() -> Mvn {
        let mean = DVec::from_slice(&[1.0, 2.0, -1.0]);
        let cov = DMat::from_rows(&[&[2.0, 0.4, 0.0], &[0.4, 1.0, 0.2], &[0.0, 0.2, 0.5]]).unwrap();
        Mvn::new(mean, &cov).unwrap()
    }

    #[test]
    fn sample_covariance_matches() {
        let mvn = example();
        let mut rng = StdRng::seed_from_u64(17);
        let n = 40_000;
        let samples: Vec<DVec> = (0..n).map(|_| mvn.sample(&mut rng)).collect();
        // Empirical mean.
        let mut mean = DVec::zeros(3);
        for s in &samples {
            mean += s;
        }
        mean *= 1.0 / n as f64;
        for k in 0..3 {
            assert!((mean[k] - mvn.mean()[k]).abs() < 0.05, "mean[{k}]");
        }
        // Empirical covariance vs C = G·Gᵀ.
        let g = mvn.factor();
        let c = g.matmul(&g.transpose()).unwrap();
        for a in 0..3 {
            for b in 0..3 {
                let mut acc = 0.0;
                for s in &samples {
                    acc += (s[a] - mean[a]) * (s[b] - mean[b]);
                }
                let emp = acc / (n - 1) as f64;
                assert!(
                    (emp - c[(a, b)]).abs() < 0.08,
                    "cov[{a}][{b}]: {emp} vs {}",
                    c[(a, b)]
                );
            }
        }
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let mean = DVec::zeros(2);
        let cov = DMat::identity(3);
        assert!(matches!(
            Mvn::new(mean, &cov),
            Err(StatError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_indefinite_covariance() {
        let mean = DVec::zeros(2);
        let cov = DMat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            Mvn::new(mean, &cov),
            Err(StatError::Covariance(_))
        ));
    }

    #[test]
    fn from_sigmas_diagonal() {
        let mvn = Mvn::from_sigmas(DVec::zeros(2), &DVec::from_slice(&[2.0, 3.0])).unwrap();
        let s = mvn.to_physical(&DVec::from_slice(&[1.0, 1.0]));
        assert!((s[0] - 2.0).abs() < 1e-14);
        assert!((s[1] - 3.0).abs() < 1e-14);
        assert!(Mvn::from_sigmas(DVec::zeros(2), &DVec::from_slice(&[1.0, 0.0])).is_err());
    }

    #[test]
    fn standard_constructor() {
        let mvn = Mvn::standard(4).unwrap();
        assert_eq!(mvn.dim(), 4);
        let z = DVec::from_slice(&[1.0, 0.0, 0.0, 0.0]);
        assert_eq!(mvn.to_physical(&z), z);
    }
}

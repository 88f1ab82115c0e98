use crate::{DMat, DVec, LinalgError};

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite matrix.
///
/// In the yield-optimization flow this factors the covariance matrix of the
/// statistical parameters, `C(d) = G(d)·G(d)ᵀ` with `G = L` (paper Eq. 11),
/// so that correlated Gaussian samples can be drawn as `s = L·ŝ + s0` with
/// `ŝ ~ N(0, I)`.
///
/// # Example
///
/// ```
/// use specwise_linalg::{DMat, DVec};
///
/// # fn main() -> Result<(), specwise_linalg::LinalgError> {
/// let c = DMat::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let chol = c.cholesky()?;
/// let l = chol.factor();
/// let rebuilt = l.matmul(&l.transpose())?;
/// assert!((&rebuilt - &c).norm_max() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: DMat,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper triangle
    /// is assumed, not checked.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::NotPositiveDefinite`] when a diagonal pivot is not
    /// strictly positive.
    pub fn new(a: &DMat) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.nrows(),
                cols: a.ncols(),
            });
        }
        let n = a.nrows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let mut l = DMat::zeros(n, n);
        for j in 0..n {
            let mut diag = a[(j, j)];
            for k in 0..j {
                diag -= l[(j, k)] * l[(j, k)];
            }
            if !(diag > 0.0) {
                return Err(LinalgError::NotPositiveDefinite { column: j });
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut acc = a[(i, j)];
                for k in 0..j {
                    acc -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = acc / ljj;
            }
        }
        Ok(Cholesky { l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.nrows()
    }

    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &DMat {
        &self.l
    }

    /// `L·x` — maps a standard-normal vector into the correlated space.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn transform(&self, x: &DVec) -> DVec {
        self.l.matvec(x)
    }

    /// `L⁻¹·x` by forward substitution — maps a correlated deviation back
    /// into the standard-normal space (paper Eq. 11, inverse direction).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on length mismatch.
    pub fn inverse_transform(&self, x: &DVec) -> Result<DVec, LinalgError> {
        let n = self.dim();
        if x.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky inverse_transform",
                expected: n,
                found: x.len(),
            });
        }
        let mut y = x.clone();
        for i in 0..n {
            let mut acc = y[i];
            for j in 0..i {
                acc -= self.l[(i, j)] * y[j];
            }
            y[i] = acc / self.l[(i, i)];
        }
        Ok(y)
    }

    /// Solves `A·x = b` via the two triangular solves.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on length mismatch.
    pub fn solve(&self, b: &DVec) -> Result<DVec, LinalgError> {
        let n = self.dim();
        let y = self.inverse_transform(b)?;
        // Backward substitution with Lᵀ.
        let mut x = y;
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.l[(j, i)] * x[j];
            }
            x[i] = acc / self.l[(i, i)];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_example() -> DMat {
        DMat::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]]).unwrap()
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd_example();
        let c = a.cholesky().unwrap();
        let rebuilt = c.factor().matmul(&c.factor().transpose()).unwrap();
        assert!((&rebuilt - &a).norm_max() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let a = DMat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            a.cholesky(),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        assert!(matches!(
            DMat::zeros(2, 3).cholesky(),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn solve_matches_lu() {
        let a = spd_example();
        let b = DVec::from_slice(&[1.0, 2.0, 3.0]);
        let x_chol = a.cholesky().unwrap().solve(&b).unwrap();
        let x_lu = a.lu().unwrap().solve(&b).unwrap();
        assert!((&x_chol - &x_lu).norm_inf() < 1e-10);
    }

    #[test]
    fn transform_roundtrip() {
        let a = spd_example();
        let c = a.cholesky().unwrap();
        let x = DVec::from_slice(&[0.3, -1.2, 0.5]);
        let y = c.transform(&x);
        let back = c.inverse_transform(&y).unwrap();
        assert!((&back - &x).norm_inf() < 1e-12);
    }

    #[test]
    fn identity_transform_is_id() {
        let c = DMat::identity(4).cholesky().unwrap();
        let x = DVec::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.transform(&x), x);
    }
}

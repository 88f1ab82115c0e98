use crate::{DMat, DVec, LinalgError, SparseScalar};

/// Dense LU factorization with partial (row) pivoting: `P·A = L·U`, generic
/// over the real and complex scalars of [`SparseScalar`].
///
/// This is the dense workhorse of the circuit simulator: the real MNA
/// Jacobian is factored once per Newton step, the complex matrix `G + jωC`
/// once per AC frequency point. The slice solves mirror
/// [`SparseLu::solve_slice`](crate::SparseLu::solve_slice) and
/// [`SparseLu::solve_transposed_slice`](crate::SparseLu::solve_transposed_slice),
/// so callers drive either backend through one set of reusable buffers.
///
/// # Example
///
/// ```
/// use specwise_linalg::{DMat, DVec};
///
/// # fn main() -> Result<(), specwise_linalg::LinalgError> {
/// let a = DMat::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]])?; // needs pivoting
/// let lu = a.lu()?;
/// let x = lu.solve(&DVec::from_slice(&[2.0, 2.0]))?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu<T = f64> {
    n: usize,
    /// Packed row-major L (unit lower, below diagonal) and U (upper,
    /// including diagonal).
    lu: Vec<T>,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
}

/// Relative pivot threshold below which a matrix is declared singular.
const PIVOT_REL_TOL: f64 = 1e-300;

fn check_lens<T>(op: &'static str, n: usize, slices: [&[T]; 3]) -> Result<(), LinalgError> {
    match slices.iter().find(|s| s.len() != n) {
        Some(s) => Err(LinalgError::DimensionMismatch {
            op,
            expected: n,
            found: s.len(),
        }),
        None => Ok(()),
    }
}

impl<T: SparseScalar> Lu<T> {
    /// Factors the `n × n` matrix whose row-major entries are `a`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for `n == 0`,
    /// [`LinalgError::DimensionMismatch`] when `a.len() != n²`, and
    /// [`LinalgError::Singular`] when a pivot underflows the threshold.
    pub fn factor(n: usize, a: &[T]) -> Result<Self, LinalgError> {
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        if a.len() != n * n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu values",
                expected: n * n,
                found: a.len(),
            });
        }
        let mut lu = a.to_vec();
        let mut perm: Vec<usize> = (0..n).collect();
        let scale = a.iter().fold(0.0_f64, |m, v| m.max(v.modulus())).max(1.0);

        for k in 0..n {
            // Find pivot row.
            let mut p = k;
            let mut pmax = lu[k * n + k].modulus();
            for i in (k + 1)..n {
                let v = lu[i * n + k].modulus();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if !(pmax > scale * PIVOT_REL_TOL) {
                return Err(LinalgError::Singular { pivot: k });
            }
            if p != k {
                let (upper, lower) = lu.split_at_mut(p * n);
                upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
                perm.swap(k, p);
            }
            let (upper, lower) = lu.split_at_mut((k + 1) * n);
            let urow = &upper[k * n..];
            let pivot = urow[k];
            for row in lower.chunks_exact_mut(n) {
                let factor = row[k] / pivot;
                row[k] = factor;
                if factor != T::ZERO {
                    for (a, &u) in row[k + 1..].iter_mut().zip(&urow[k + 1..]) {
                        *a = *a - factor * u;
                    }
                }
            }
        }
        Ok(Lu { n, lu, perm })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A·x = b` using slices, with caller-provided scratch of
    /// length `n` (no allocation).
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] on length mismatches.
    pub fn solve_slice(&self, b: &[T], x: &mut [T], scratch: &mut [T]) -> Result<(), LinalgError> {
        let n = self.n;
        check_lens("lu solve", n, [b, x, scratch])?;
        // Apply permutation, then forward substitution with unit-lower L.
        for (y, &p) in scratch.iter_mut().zip(&self.perm) {
            *y = b[p];
        }
        for i in 1..n {
            let mut acc = scratch[i];
            for (&l, &y) in self.lu[i * n..i * n + i].iter().zip(&scratch[..i]) {
                acc = acc - l * y;
            }
            scratch[i] = acc;
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            let row = &self.lu[i * n..(i + 1) * n];
            let mut acc = scratch[i];
            for (&u, &y) in row[i + 1..].iter().zip(&scratch[i + 1..]) {
                acc = acc - u * y;
            }
            scratch[i] = acc / row[i];
        }
        x.copy_from_slice(scratch);
        Ok(())
    }

    /// Solves the (unconjugated) transposed system `Aᵀ·y = c` on the same
    /// factors, with caller-provided scratch of length `n`.
    ///
    /// With `P·A = L·U` this is `Uᵀ·(Lᵀ·(P·y)) = c`: one forward sweep with
    /// `Uᵀ` and one backward sweep with `Lᵀ`, then the row permutation is
    /// undone. No new factorization — this is what makes adjoint sensitivity
    /// analysis O(n²) per right-hand side instead of O(n³).
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] on length mismatches.
    pub fn solve_transposed_slice(
        &self,
        c: &[T],
        y: &mut [T],
        scratch: &mut [T],
    ) -> Result<(), LinalgError> {
        let n = self.n;
        check_lens("lu transposed solve", n, [c, y, scratch])?;
        // Forward substitution with Uᵀ (lower triangular, non-unit diagonal).
        for i in 0..n {
            let mut acc = c[i];
            for (j, &w) in scratch[..i].iter().enumerate() {
                acc = acc - self.lu[j * n + i] * w;
            }
            scratch[i] = acc / self.lu[i * n + i];
        }
        // Backward substitution with Lᵀ (unit upper triangular).
        for i in (0..n).rev() {
            let mut acc = scratch[i];
            for (j, &w) in scratch.iter().enumerate().skip(i + 1) {
                acc = acc - self.lu[j * n + i] * w;
            }
            scratch[i] = acc;
        }
        // Undo the row permutation: the permuted solve produced y[perm[i]].
        for (&w, &p) in scratch.iter().zip(&self.perm) {
            y[p] = w;
        }
        Ok(())
    }
}

impl Lu<f64> {
    /// Factors a square real matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if `a` is not square, otherwise as
    /// [`Lu::factor`].
    pub fn new(a: &DMat) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.nrows(),
                cols: a.ncols(),
            });
        }
        Lu::factor(a.nrows(), a.as_slice())
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &DVec) -> Result<DVec, LinalgError> {
        let mut x = DVec::zeros(self.n);
        let mut scratch = vec![0.0; self.n];
        self.solve_slice(b.as_slice(), x.as_mut_slice(), &mut scratch)?;
        Ok(x)
    }

    /// Solves the transposed system `Aᵀ·y = c` (see
    /// [`Lu::solve_transposed_slice`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `c.len() != dim()`.
    pub fn solve_transposed(&self, c: &DVec) -> Result<DVec, LinalgError> {
        let mut y = DVec::zeros(self.n);
        let mut scratch = vec![0.0; self.n];
        self.solve_transposed_slice(c.as_slice(), y.as_mut_slice(), &mut scratch)?;
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    fn residual(a: &DMat, x: &DVec, b: &DVec) -> f64 {
        (&a.matvec(x) - b).norm_inf()
    }

    /// Deterministic pseudo-random values in `[-1, 1)` (LCG, no rand
    /// dependency here).
    fn lcg(mut state: u64) -> impl FnMut() -> f64 {
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        }
    }

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    /// A diagonally dominant random complex matrix, row-major.
    fn complex_matrix(n: usize, next: &mut impl FnMut() -> f64) -> Vec<Complex64> {
        let mut a: Vec<Complex64> = (0..n * n).map(|_| c(next(), next())).collect();
        for i in 0..n {
            a[i * n + i] += c(n as f64, 0.0);
        }
        a
    }

    fn complex_solve(lu: &Lu<Complex64>, b: &[Complex64], transposed: bool) -> Vec<Complex64> {
        let n = b.len();
        let (mut x, mut scratch) = (vec![Complex64::ZERO; n], vec![Complex64::ZERO; n]);
        if transposed {
            lu.solve_transposed_slice(b, &mut x, &mut scratch).unwrap();
        } else {
            lu.solve_slice(b, &mut x, &mut scratch).unwrap();
        }
        x
    }

    #[test]
    fn solves_diagonal() {
        let a = DMat::from_diagonal(&DVec::from_slice(&[2.0, 4.0]));
        let x = a
            .lu()
            .unwrap()
            .solve(&DVec::from_slice(&[2.0, 8.0]))
            .unwrap();
        assert_eq!(x.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn solves_with_pivoting() {
        let a = DMat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let b = DVec::from_slice(&[3.0, 7.0]);
        let x = a.lu().unwrap().solve(&b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-14);
    }

    #[test]
    fn rejects_singular() {
        let a = DMat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(a.lu(), Err(LinalgError::Singular { .. })));
        assert!(matches!(
            Lu::factor(2, &[Complex64::ZERO; 4]),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn rejects_non_square_and_bad_lengths() {
        assert!(matches!(
            DMat::zeros(2, 3).lu(),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(matches!(
            Lu::factor(2, &[1.0; 3]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(matches!(Lu::<f64>::factor(0, &[]), Err(LinalgError::Empty)));
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let lu = DMat::identity(3).lu().unwrap();
        assert!(matches!(
            lu.solve(&DVec::zeros(2)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            lu.solve_transposed(&DVec::zeros(2)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn transposed_solve_matches_explicit_transpose() {
        let a = DMat::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, 1.0, -3.0], &[4.0, 0.5, 2.0]]).unwrap();
        let c = DVec::from_slice(&[1.0, -2.0, 0.5]);
        let y = a.lu().unwrap().solve_transposed(&c).unwrap();
        // Oracle: factor Aᵀ explicitly and solve the plain system.
        let want = a.transpose().lu().unwrap().solve(&c).unwrap();
        assert!((&y - &want).norm_inf() < 1e-12);
    }

    #[test]
    fn random_real_systems_both_directions() {
        let mut next = lcg(987654321);
        for n in [1usize, 2, 5, 13, 20] {
            let mut a = DMat::from_fn(n, n, |_, _| next());
            for i in 0..n {
                a[(i, i)] += n as f64; // diagonal dominance => nonsingular
            }
            let lu = a.lu().unwrap();
            let xtrue = DVec::from_fn(n, |i| (i + 1) as f64);
            let x = lu.solve(&a.matvec(&xtrue)).unwrap();
            assert!((&x - &xtrue).norm_inf() < 1e-9, "n={n}");
            let ytrue = DVec::from_fn(n, |i| (i as f64) - 2.0);
            let y = lu.solve_transposed(&a.transpose().matvec(&ytrue)).unwrap();
            assert!((&y - &ytrue).norm_inf() < 1e-9, "n={n}");
        }
    }

    #[test]
    fn complex_pivoting_handles_zero_diagonal() {
        let a = [
            Complex64::ZERO,
            Complex64::ONE,
            Complex64::ONE,
            Complex64::ZERO,
        ];
        let lu = Lu::factor(2, &a).unwrap();
        let x = complex_solve(&lu, &[c(5.0, 0.0), c(7.0, 0.0)], false);
        assert!((x[0] - c(7.0, 0.0)).abs() < 1e-14);
        assert!((x[1] - c(5.0, 0.0)).abs() < 1e-14);
    }

    #[test]
    fn complex_rc_impedance_divider() {
        // Voltage divider: R in series with C at ω=1/(RC) gives |H| = 1/√2.
        // Node equation form: single unknown node v_out,
        // (v_in - v_out)/R = jωC v_out.
        let r = 1.0e3;
        let cap = 1.0e-6;
        let omega = 1.0 / (r * cap);
        let lu = Lu::factor(1, &[c(1.0 / r, omega * cap)]).unwrap();
        let x = complex_solve(&lu, &[c(1.0 / r, 0.0)], false);
        assert!((x[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((x[0].arg() + std::f64::consts::FRAC_PI_4).abs() < 1e-12);
    }

    #[test]
    fn random_complex_systems_both_directions() {
        let mut next = lcg(4242);
        for n in [1usize, 2, 6, 11] {
            let a = complex_matrix(n, &mut next);
            let lu = Lu::factor(n, &a).unwrap();
            let xtrue: Vec<Complex64> = (0..n).map(|_| c(next(), next())).collect();
            // b = A·x and rhs = Aᵀ·x (unconjugated).
            let mut b = vec![Complex64::ZERO; n];
            let mut rhs = vec![Complex64::ZERO; n];
            for i in 0..n {
                for j in 0..n {
                    b[i] += a[i * n + j] * xtrue[j];
                    rhs[j] += a[i * n + j] * xtrue[i];
                }
            }
            for (transposed, rhs) in [(false, &b), (true, &rhs)] {
                let x = complex_solve(&lu, rhs, transposed);
                for i in 0..n {
                    assert!((x[i] - xtrue[i]).abs() < 1e-10, "n={n} component {i}");
                }
            }
        }
    }
}

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::{DVec, LinalgError, Lu};

/// A dense, row-major real matrix.
///
/// # Example
///
/// ```
/// use specwise_linalg::{DMat, DVec};
///
/// # fn main() -> Result<(), specwise_linalg::LinalgError> {
/// let a = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let x = DVec::from_slice(&[1.0, 1.0]);
/// assert_eq!(a.matvec(&x).as_slice(), &[3.0, 7.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DMat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMat {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DMat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// ```
    /// use specwise_linalg::DMat;
    /// let i = DMat::identity(2);
    /// assert_eq!(i[(0, 0)], 1.0);
    /// assert_eq!(i[(0, 1)], 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = DMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a generator function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = DMat::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty row list and
    /// [`LinalgError::RaggedRows`] when rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::Empty);
        }
        let cols = rows[0].len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::RaggedRows { row: i });
            }
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(DMat {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a diagonal matrix from a vector of diagonal entries.
    pub fn from_diagonal(diag: &DVec) -> Self {
        let n = diag.len();
        let mut m = DMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = diag[i];
        }
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Row `i` as a newly allocated vector.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> DVec {
        assert!(i < self.rows, "row index {i} out of range");
        DVec::from_slice(&self.data[i * self.cols..(i + 1) * self.cols])
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols()`.
    pub fn matvec(&self, x: &DVec) -> DVec {
        assert_eq!(x.len(), self.cols, "matvec: length mismatch");
        DVec::from_fn(self.rows, |i| {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            row.iter().zip(x.iter()).map(|(a, b)| a * b).sum()
        })
    }

    /// Transpose.
    pub fn transpose(&self) -> DMat {
        DMat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Sets every entry to `value` in place (no reallocation).
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::Singular`] when a pivot vanishes.
    pub fn lu(&self) -> Result<Lu, LinalgError> {
        Lu::new(self)
    }

    /// Raw row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

impl Index<(usize, usize)> for DMat {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for DMat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for DMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6e}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matvec_is_id() {
        let i3 = DMat::identity(3);
        let x = DVec::from_slice(&[1.0, -2.0, 3.0]);
        assert_eq!(i3.matvec(&x), x);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(matches!(
            DMat::from_rows(&[&[1.0, 2.0], &[3.0]]),
            Err(LinalgError::RaggedRows { row: 1 })
        ));
        assert!(matches!(DMat::from_rows(&[]), Err(LinalgError::Empty)));
    }

    #[test]
    fn transpose_involution() {
        let a = DMat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn diagonal_constructor() {
        let d = DMat::from_diagonal(&DVec::from_slice(&[2.0, 3.0]));
        let x = DVec::from_slice(&[1.0, 1.0]);
        assert_eq!(d.matvec(&x).as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn row_reads_one_row() {
        let a = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.row(1).as_slice(), &[3.0, 4.0]);
    }
}

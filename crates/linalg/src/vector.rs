use std::fmt;
use std::iter::FromIterator;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign};

/// A dense, heap-allocated real vector.
///
/// `DVec` is the currency of the whole workspace: design-parameter vectors
/// `d`, statistical-parameter vectors `s`, gradients and Newton updates are
/// all `DVec`s.
///
/// # Example
///
/// ```
/// use specwise_linalg::DVec;
///
/// let a = DVec::from_slice(&[1.0, 2.0, 2.0]);
/// assert_eq!(a.norm2(), 3.0);
/// assert_eq!(a.dot(&a), 9.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DVec {
    data: Vec<f64>,
}

impl DVec {
    /// Creates a zero vector of length `n`.
    ///
    /// ```
    /// use specwise_linalg::DVec;
    /// assert_eq!(DVec::zeros(3).len(), 3);
    /// ```
    pub fn zeros(n: usize) -> Self {
        DVec { data: vec![0.0; n] }
    }

    /// Creates a vector with every component equal to `value`.
    pub fn filled(n: usize, value: f64) -> Self {
        DVec {
            data: vec![value; n],
        }
    }

    /// Creates a vector by copying a slice.
    pub fn from_slice(values: &[f64]) -> Self {
        DVec {
            data: values.to_vec(),
        }
    }

    /// Creates a vector from a generator function of the index.
    ///
    /// ```
    /// use specwise_linalg::DVec;
    /// let v = DVec::from_fn(3, |i| i as f64);
    /// assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    /// ```
    pub fn from_fn(n: usize, mut f: impl FnMut(usize) -> f64) -> Self {
        DVec {
            data: (0..n).map(&mut f).collect(),
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the vector has no components.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// View of the components as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the components.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterator over the components.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Mutable iterator over the components.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f64> {
        self.data.iter_mut()
    }

    /// Euclidean inner product.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &DVec) -> f64 {
        assert_eq!(self.len(), other.len(), "dot: length mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Euclidean (2-)norm.
    pub fn norm2(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Maximum absolute component (∞-norm); `0.0` for the empty vector.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// `self + alpha * other` (BLAS `axpy`), returning a new vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn axpy(&self, alpha: f64, other: &DVec) -> DVec {
        assert_eq!(self.len(), other.len(), "axpy: length mismatch");
        DVec::from_fn(self.len(), |i| self.data[i] + alpha * other.data[i])
    }

    /// In-place scaling by a scalar.
    pub fn scale_mut(&mut self, alpha: f64) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Returns a copy scaled by `alpha`.
    pub fn scaled(&self, alpha: f64) -> DVec {
        DVec::from_fn(self.len(), |i| alpha * self.data[i])
    }

    /// `true` when every component is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Sum of all components.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Componentwise clamp into `[lo, hi]` (both inclusive, per component).
    ///
    /// # Panics
    ///
    /// Panics if the three lengths differ or any `lo[i] > hi[i]`.
    pub fn clamped(&self, lo: &DVec, hi: &DVec) -> DVec {
        assert_eq!(self.len(), lo.len(), "clamped: lo length mismatch");
        assert_eq!(self.len(), hi.len(), "clamped: hi length mismatch");
        DVec::from_fn(self.len(), |i| {
            assert!(lo[i] <= hi[i], "clamped: lo > hi at index {i}");
            self.data[i].clamp(lo[i], hi[i])
        })
    }
}

impl fmt::Display for DVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.6e}")?;
        }
        write!(f, "]")
    }
}

impl Index<usize> for DVec {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for DVec {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl From<Vec<f64>> for DVec {
    fn from(data: Vec<f64>) -> Self {
        DVec { data }
    }
}

impl FromIterator<f64> for DVec {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        DVec {
            data: iter.into_iter().collect(),
        }
    }
}

impl Extend<f64> for DVec {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

impl<'a> IntoIterator for &'a DVec {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl IntoIterator for DVec {
    type Item = f64;
    type IntoIter = std::vec::IntoIter<f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.into_iter()
    }
}

impl Add for &DVec {
    type Output = DVec;
    fn add(self, rhs: &DVec) -> DVec {
        assert_eq!(self.len(), rhs.len(), "add: length mismatch");
        DVec::from_fn(self.len(), |i| self[i] + rhs[i])
    }
}

impl Sub for &DVec {
    type Output = DVec;
    fn sub(self, rhs: &DVec) -> DVec {
        assert_eq!(self.len(), rhs.len(), "sub: length mismatch");
        DVec::from_fn(self.len(), |i| self[i] - rhs[i])
    }
}

impl Neg for &DVec {
    type Output = DVec;
    fn neg(self) -> DVec {
        DVec::from_fn(self.len(), |i| -self[i])
    }
}

impl Mul<f64> for &DVec {
    type Output = DVec;
    fn mul(self, rhs: f64) -> DVec {
        self.scaled(rhs)
    }
}

impl AddAssign<&DVec> for DVec {
    fn add_assign(&mut self, rhs: &DVec) {
        assert_eq!(self.len(), rhs.len(), "add_assign: length mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&DVec> for DVec {
    fn sub_assign(&mut self, rhs: &DVec) {
        assert_eq!(self.len(), rhs.len(), "sub_assign: length mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl MulAssign<f64> for DVec {
    fn mul_assign(&mut self, rhs: f64) {
        self.scale_mut(rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_len() {
        let v = DVec::zeros(4);
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        assert!(v.iter().all(|&x| x == 0.0));
        assert!(DVec::zeros(0).is_empty());
    }

    #[test]
    fn dot_and_norms() {
        let a = DVec::from_slice(&[3.0, -4.0]);
        assert_eq!(a.dot(&a), 25.0);
        assert_eq!(a.norm2(), 5.0);
        assert_eq!(a.norm_inf(), 4.0);
    }

    #[test]
    fn arithmetic_ops() {
        let a = DVec::from_slice(&[1.0, 2.0]);
        let b = DVec::from_slice(&[3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 7.0]);
        c -= &b;
        assert_eq!(c.as_slice(), &[1.0, 2.0]);
        c *= 3.0;
        assert_eq!(c.as_slice(), &[3.0, 6.0]);
    }

    #[test]
    fn axpy_matches_manual() {
        let a = DVec::from_slice(&[1.0, 1.0]);
        let b = DVec::from_slice(&[2.0, -1.0]);
        assert_eq!(a.axpy(0.5, &b).as_slice(), &[2.0, 0.5]);
    }

    #[test]
    fn clamp_within_bounds() {
        let x = DVec::from_slice(&[-2.0, 0.5, 9.0]);
        let lo = DVec::from_slice(&[0.0, 0.0, 0.0]);
        let hi = DVec::from_slice(&[1.0, 1.0, 1.0]);
        assert_eq!(x.clamped(&lo, &hi).as_slice(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn collect_from_iterator() {
        let v: DVec = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut v = DVec::zeros(2);
        assert!(v.is_finite());
        v[1] = f64::NAN;
        assert!(!v.is_finite());
    }

    #[test]
    fn display_is_nonempty() {
        let v = DVec::from_slice(&[1.0]);
        assert!(!format!("{v}").is_empty());
    }
}

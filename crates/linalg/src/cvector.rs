use std::ops::{Index, IndexMut};

use crate::Complex64;

/// A dense complex vector, used for AC small-signal solution vectors
/// (node phasors).
///
/// # Example
///
/// ```
/// use specwise_linalg::{Complex64, CVec};
///
/// let mut v = CVec::zeros(2);
/// v[0] = Complex64::new(1.0, 1.0);
/// assert!((v.norm2() - 2f64.sqrt()).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CVec {
    data: Vec<Complex64>,
}

impl CVec {
    /// Creates a zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        CVec {
            data: vec![Complex64::ZERO; n],
        }
    }

    /// Creates a vector by copying a slice.
    pub fn from_slice(values: &[Complex64]) -> Self {
        CVec {
            data: values.to_vec(),
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when there are no components.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// View of the components.
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Euclidean norm `√(Σ|zᵢ|²)`.
    pub fn norm2(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Maximum component magnitude.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, z| m.max(z.abs()))
    }

    /// Iterator over the components.
    pub fn iter(&self) -> std::slice::Iter<'_, Complex64> {
        self.data.iter()
    }
}

impl Index<usize> for CVec {
    type Output = Complex64;
    fn index(&self, i: usize) -> &Complex64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for CVec {
    fn index_mut(&mut self, i: usize) -> &mut Complex64 {
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_and_indexing() {
        let mut v = CVec::zeros(3);
        v[1] = Complex64::new(3.0, 4.0);
        v[2] = Complex64::new(0.0, -1.0);
        assert_eq!(v.len(), 3);
        assert!((v.norm2() - 26f64.sqrt()).abs() < 1e-15);
        assert_eq!(v.norm_inf(), 5.0);
        assert_eq!(CVec::from_slice(v.as_slice()), v);
    }
}

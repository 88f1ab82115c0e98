use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number.
///
/// Implemented locally (rather than pulling in `num-complex`) to keep the
/// dependency surface of the workspace at the approved-crate minimum. Only
/// the operations needed by small-signal AC analysis are provided.
///
/// # Example
///
/// ```
/// use specwise_linalg::Complex64;
///
/// let j = Complex64::I;
/// let z = Complex64::new(3.0, 4.0);
/// assert_eq!(z.abs(), 5.0);
/// assert_eq!((j * j).re, -1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular coordinates.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real number.
    pub const fn from_real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates.
    ///
    /// ```
    /// use specwise_linalg::Complex64;
    /// let z = Complex64::from_polar(2.0, std::f64::consts::FRAC_PI_2);
    /// assert!(z.re.abs() < 1e-15);
    /// assert!((z.im - 2.0).abs() < 1e-15);
    /// ```
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex64 {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// Magnitude `|z|`, computed with `hypot` for robustness.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²`.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Principal argument in `(-π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    pub fn conj(self) -> Complex64 {
        Complex64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// `true` when both parts are finite.
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64::from_real(re)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    fn mul(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re * rhs, self.im * rhs)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    fn div(self, rhs: Complex64) -> Complex64 {
        // Smith's algorithm: scale by the dominant component.
        if rhs.re.abs() >= rhs.im.abs() {
            let r = rhs.im / rhs.re;
            let den = rhs.re + rhs.im * r;
            Complex64::new((self.re + self.im * r) / den, (self.im - self.re * r) / den)
        } else {
            let r = rhs.re / rhs.im;
            let den = rhs.re * r + rhs.im;
            Complex64::new((self.re * r + self.im) / den, (self.im * r - self.re) / den)
        }
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    fn div(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    fn add_assign(&mut self, rhs: Complex64) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    fn sub_assign(&mut self, rhs: Complex64) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(2.0, -3.0);
        assert_eq!(z + Complex64::ZERO, z);
        assert_eq!(z * Complex64::ONE, z);
        assert_eq!(z - z, Complex64::ZERO);
        assert_eq!(-z + z, Complex64::ZERO);
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(Complex64::I * Complex64::I, Complex64::new(-1.0, 0.0));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex64::new(1.5, -2.5);
        let b = Complex64::new(-0.5, 4.0);
        let q = (a * b) / b;
        assert!((q - a).abs() < 1e-14);
    }

    #[test]
    fn division_with_small_real_part() {
        let a = Complex64::ONE;
        let b = Complex64::new(1e-200, 1.0);
        let q = a / b;
        assert!(q.is_finite());
        assert!((q.abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn conj_and_norms() {
        let z = Complex64::new(3.0, 4.0);
        assert_eq!(z.conj(), Complex64::new(3.0, -4.0));
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!((z * z.conj()).re, 25.0);
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex64::from_polar(2.0, 0.7);
        assert!((z.abs() - 2.0).abs() < 1e-14);
        assert!((z.arg() - 0.7).abs() < 1e-14);
    }
}

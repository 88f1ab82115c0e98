//! Dense linear-algebra kernels for the `specwise` analog yield-optimization
//! workspace.
//!
//! The crate provides exactly the operations the rest of the workspace needs,
//! implemented from scratch with no external dependencies:
//!
//! * [`DVec`] / [`DMat`] — dense real vectors and (row-major) matrices,
//! * [`Lu`] — dense LU factorization with partial pivoting, real or complex
//!   (the dense workhorse of the circuit simulator's DC Newton iteration and
//!   AC frequency points),
//! * [`Complex64`], [`CVec`] — complex arithmetic and phasor vectors for
//!   small-signal AC analysis,
//! * [`SparsePattern`], [`SparseSymbolic`], [`SparseLu`] —
//!   sparse CSC assembly and a fill-reducing sparse LU (real and complex)
//!   with a cached symbolic/numeric split for repeated factorizations of
//!   one circuit topology.
//!
//! The paper's variance transform `s = G(d)·ŝ + s0` (Eq. 11) needs no
//! factorization here: `G(d)` is the diagonal Pelgrom bound that
//! `specwise_ckt::StatSpace` applies per device.
//!
//! # Example
//!
//! ```
//! use specwise_linalg::{DMat, DVec};
//!
//! # fn main() -> Result<(), specwise_linalg::LinalgError> {
//! let a = DMat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let b = DVec::from_slice(&[1.0, 2.0]);
//! let x = a.lu()?.solve(&b)?;
//! let r = &a.matvec(&x) - &b;
//! assert!(r.norm2() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod complex;
mod cvector;
mod error;
mod lu;
mod matrix;
mod sparse;
mod vector;

pub use complex::Complex64;
pub use cvector::CVec;
pub use error::LinalgError;
pub use lu::Lu;
pub use matrix::DMat;
pub use sparse::{SparseLu, SparsePattern, SparseScalar, SparseSymbolic};
pub use vector::DVec;

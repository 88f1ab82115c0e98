use std::error::Error;
use std::fmt;

/// Errors produced by the dense linear-algebra kernels.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Operand dimensions are incompatible for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Dimension expected by the operation.
        expected: usize,
        /// Dimension actually provided.
        found: usize,
    },
    /// The matrix is (numerically) singular; factorization or solve failed.
    Singular {
        /// Pivot index at which a zero (or tiny) pivot was found.
        pivot: usize,
    },
    /// A matrix that must be square is not.
    NotSquare {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// Rows of different lengths were supplied to a constructor.
    RaggedRows {
        /// Index of the first row whose length differs from row 0.
        row: usize,
    },
    /// An empty matrix or vector was supplied where data is required.
    Empty,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch {
                op,
                expected,
                found,
            } => {
                write!(
                    f,
                    "dimension mismatch in {op}: expected {expected}, found {found}"
                )
            }
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular (zero pivot at index {pivot})")
            }
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, got {rows}x{cols}")
            }
            LinalgError::RaggedRows { row } => {
                write!(f, "row {row} has a different length than row 0")
            }
            LinalgError::Empty => write!(f, "empty matrix or vector supplied"),
        }
    }
}

impl Error for LinalgError {}

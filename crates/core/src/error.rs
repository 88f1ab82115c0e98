use std::error::Error;
use std::fmt;

use specwise_ckt::CktError;
use specwise_wcd::WcdError;

/// Errors produced by the yield-optimization core.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpecwiseError {
    /// Worst-case analysis failed.
    WorstCase(WcdError),
    /// Circuit evaluation failed.
    Circuit(CktError),
    /// No feasible starting point could be found.
    NoFeasibleStart {
        /// Largest remaining constraint violation.
        worst_violation: f64,
    },
    /// Invalid configuration value.
    InvalidConfig {
        /// What was wrong.
        reason: &'static str,
    },
    /// Dimension mismatch between model pieces.
    DimensionMismatch {
        /// What the vector represents.
        what: &'static str,
        /// Expected length.
        expected: usize,
        /// Provided length.
        found: usize,
    },
}

impl fmt::Display for SpecwiseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecwiseError::WorstCase(e) => write!(f, "worst-case analysis failed: {e}"),
            SpecwiseError::Circuit(e) => write!(f, "circuit evaluation failed: {e}"),
            SpecwiseError::NoFeasibleStart { worst_violation } => {
                write!(
                    f,
                    "no feasible starting point found (violation {worst_violation:.3e})"
                )
            }
            SpecwiseError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            SpecwiseError::DimensionMismatch {
                what,
                expected,
                found,
            } => {
                write!(f, "{what} vector has length {found}, expected {expected}")
            }
        }
    }
}

impl Error for SpecwiseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SpecwiseError::WorstCase(e) => Some(e),
            SpecwiseError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WcdError> for SpecwiseError {
    fn from(e: WcdError) -> Self {
        SpecwiseError::WorstCase(e)
    }
}

impl From<CktError> for SpecwiseError {
    fn from(e: CktError) -> Self {
        SpecwiseError::Circuit(e)
    }
}

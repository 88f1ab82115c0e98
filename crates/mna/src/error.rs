use std::error::Error;
use std::fmt;

use specwise_linalg::LinalgError;

/// Errors produced by the circuit simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MnaError {
    /// An element value is invalid (negative resistance, zero length, …).
    InvalidValue {
        /// Element name.
        element: String,
        /// What was wrong.
        reason: &'static str,
    },
    /// Two elements share the same name.
    DuplicateName {
        /// The offending name.
        name: String,
    },
    /// An element or node name was not found.
    NotFound {
        /// The name that failed to resolve.
        name: String,
    },
    /// The DC Newton iteration failed to converge even with homotopy fallbacks.
    NoConvergence {
        /// Analysis that failed ("dc", "transient step", …).
        analysis: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
        /// Final residual ∞-norm, if meaningful.
        residual: f64,
    },
    /// The MNA matrix is singular — usually a floating node or a voltage
    /// source loop.
    SingularMatrix {
        /// Analysis during which the factorization failed.
        analysis: &'static str,
    },
    /// An invalid analysis request (bad frequency, non-positive time step, …).
    InvalidRequest {
        /// What was wrong.
        reason: &'static str,
    },
}

impl fmt::Display for MnaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MnaError::InvalidValue { element, reason } => {
                write!(f, "invalid value for element {element}: {reason}")
            }
            MnaError::DuplicateName { name } => write!(f, "duplicate element name {name}"),
            MnaError::NotFound { name } => write!(f, "element or node {name} not found"),
            MnaError::NoConvergence {
                analysis,
                iterations,
                residual,
            } => write!(
                f,
                "{analysis} analysis failed to converge after {iterations} iterations \
                 (residual {residual:.3e})"
            ),
            MnaError::SingularMatrix { analysis } => {
                write!(
                    f,
                    "singular MNA matrix in {analysis} analysis (floating node?)"
                )
            }
            MnaError::InvalidRequest { reason } => write!(f, "invalid analysis request: {reason}"),
        }
    }
}

impl Error for MnaError {}

impl From<LinalgError> for MnaError {
    fn from(e: LinalgError) -> Self {
        match e {
            LinalgError::Singular { .. } => MnaError::SingularMatrix {
                analysis: "linear solve",
            },
            _ => MnaError::InvalidRequest {
                reason: "linear algebra dimension error",
            },
        }
    }
}

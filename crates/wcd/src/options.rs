//! Tuning of the worst-case analysis: the fixed settings of the Eq. 8
//! search and the linearization, and the two ablation switches callers set.

/// Finite-difference step in the standardized statistical space (units of
/// σ) of the worst-case search and the nominal-anchored models.
pub const FD_STEP_S: f64 = 0.01;

/// Relative finite-difference step in the design space: the design
/// gradients of Eq. 16 and the constraint Jacobians of Eq. 15 and the
/// feasible-start search.
pub const FD_STEP_D: f64 = 1e-3;

/// Maximum SQP iterations of the worst-case distance search.
pub const MAX_SQP_ITERS: usize = 8;

/// Cap on `‖ŝ_wc‖`: specs that cannot fail within this many sigmas are
/// treated as uncritical (β_wc clamped to this value).
pub const BETA_MAX: f64 = 8.0;

/// Convergence of the worst-case search: the margin at the worst-case
/// point must shrink below `MARGIN_TOL_REL · ‖∇margin‖` (≈ that many sigmas
/// of residual distance error).
pub const MARGIN_TOL_REL: f64 = 5e-3;

/// Where the spec-wise performance linearizations are anchored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinearizationPoint {
    /// At the per-spec worst-case point `ŝ_wc⁽ⁱ⁾` (the paper's method).
    WorstCase,
    /// At the nominal point `ŝ = 0` — the Table 4 ablation, which the paper
    /// shows fails to improve the true yield.
    Nominal,
}

/// Options of the worst-case analysis: the switches of the Table 4 and
/// mirrored-model ablations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WcOptions {
    /// Anchoring of the linearizations.
    pub linearization_point: LinearizationPoint,
    /// Whether to add mirrored models at `−ŝ_wc` for performances with
    /// semidefinite-quadratic (mismatch) behaviour (paper Eqs. 21–22).
    pub mirrored_models: bool,
}

impl Default for WcOptions {
    fn default() -> Self {
        WcOptions {
            linearization_point: LinearizationPoint::WorstCase,
            mirrored_models: true,
        }
    }
}

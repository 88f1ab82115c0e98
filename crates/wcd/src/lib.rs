//! Worst-case analysis and spec-wise linearization for the `specwise`
//! yield-optimization workspace (paper Secs. 2, 3 and 5.2).
//!
//! Pipeline per specification `i`:
//!
//! 1. [`worst_case_corners`] — find the worst-case operating point
//!    `θ_wc⁽ⁱ⁾ = argmin_θ f⁽ⁱ⁾` by corner enumeration (paper Eq. 2),
//! 2. [`WorstCaseSearch`] — solve `min ‖ŝ‖² s.t. margin⁽ⁱ⁾(ŝ) = 0`
//!    (paper Eq. 8) with an SQP-style iteration of hyperplane projections,
//!    yielding the worst-case point `ŝ_wc⁽ⁱ⁾` and the signed worst-case
//!    distance `β_wc⁽ⁱ⁾`,
//! 3. [`WcAnalysis`] — build the spec-wise linear model (paper Eq. 16) of
//!    each margin in `(d, ŝ)` at `(d_f, ŝ_wc⁽ⁱ⁾)` with finite-difference
//!    gradients, adding a mirrored model at `−ŝ_wc` when the performance
//!    shows the semidefinite-quadratic mismatch behaviour (paper
//!    Eqs. 21–22).
//!
//! The resulting [`SpecLinearization`]s are what the yield estimator and the
//! optimizer in the `specwise` core crate consume.
//!
//! # Example
//!
//! ```no_run
//! use specwise_ckt::{CircuitEnv, FoldedCascode};
//! use specwise_wcd::{WcAnalysis, WcOptions};
//!
//! # fn main() -> Result<(), specwise_wcd::WcdError> {
//! let env = FoldedCascode::paper_setup();
//! let d0 = env.design_space().initial();
//! let result = WcAnalysis::new(&env, WcOptions::default()).run(&d0)?;
//! for wc in result.worst_case_points() {
//!     println!("{}: beta_wc = {:.2}", env.specs()[wc.spec].name(), wc.beta_wc);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod analysis;
mod corners;
mod error;
mod gradient;
mod linearize;
mod options;
mod quadratic;
mod wc_point;

pub use analysis::{WcAnalysis, WcResult};
pub use corners::worst_case_corners;
pub use error::WcdError;
pub use gradient::{
    constraint_jacobian, margins_gradient_d, margins_gradient_d_with, margins_gradient_s,
    margins_gradient_s_with, GradBackend,
};
pub use linearize::SpecLinearization;
pub use options::{
    LinearizationPoint, WcOptions, BETA_MAX, FD_STEP_D, FD_STEP_S, MARGIN_TOL_REL, MAX_SQP_ITERS,
};
pub use quadratic::QuadraticMarginModel;
pub use wc_point::{WorstCasePoint, WorstCaseSearch};

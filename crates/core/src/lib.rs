//! `specwise` — direct yield optimization of analog integrated circuits by
//! **spec-wise linearization and feasibility-guided search**, a reproduction
//! of Schenkel et al., DAC 2001.
//!
//! The crate implements the paper's contribution on top of the workspace
//! substrates (`specwise-mna` simulator, `specwise-ckt` circuits,
//! `specwise-wcd` worst-case analysis):
//!
//! * [`LinearizedYield`] — Monte-Carlo yield estimate `Ȳ` over the
//!   spec-wise linear models with the incremental per-sample update
//!   (paper Eqs. 17–20),
//! * [`LinearConstraints`] / [`find_feasible_start`] — the linearized
//!   feasibility region (Eq. 15) and the feasible-start search (Sec. 5.5),
//! * [`CoordinateSearch`] — constrained coordinate-wise maximization of
//!   `Ȳ` (Eq. 19),
//! * [`line_search_feasible`] — the simulation-based pull-back into the
//!   feasibility region (Eq. 23),
//! * [`YieldOptimizer`] — the full loop of Fig. 6 with per-iteration trace
//!   records matching the paper's Tables 1/3/4/6,
//! * [`MonteCarlo::run`] — the simulation-based Monte-Carlo verification
//!   at per-spec worst-case operating points (Eqs. 6–7);
//!   [`MeanShiftIs::run`] and [`NormMinIs::run`] verify multi-sigma tails
//!   by importance sampling (an extension beyond the paper),
//! * [`MismatchAnalysis`] — the mismatch measure `m_kl` (Eq. 9) with the
//!   `Φ` selector and the `η` robustness weight, ranking mismatch-critical
//!   transistor pairs (Table 5).
//!
//! # Quickstart
//!
//! ```no_run
//! use specwise::{OptimizerConfig, YieldOptimizer};
//! use specwise_ckt::FoldedCascode;
//!
//! # fn main() -> Result<(), specwise::SpecwiseError> {
//! let env = FoldedCascode::paper_setup();
//! let trace = YieldOptimizer::new(OptimizerConfig::default()).run(&env)?;
//! for snap in trace.snapshots() {
//!     println!("{}", snap.label);
//!     if let Some(mc) = &snap.verified {
//!         println!("  verified yield: {}", mc.yield_estimate);
//!     }
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod checkpoint;
mod coordinate_search;
mod error;
mod estimator;
mod feasibility;
mod importance;
mod line_search;
mod mc_verify;
mod mismatch;
mod norm_min;
mod optimizer;
mod quad_yield;
mod report;
mod wcd_max;
mod yield_model;

pub use checkpoint::{Checkpoint, CheckpointError, CheckpointMeta, CHECKPOINT_VERSION};
pub use coordinate_search::{CoordinateSearch, GRID_POINTS, MAX_SWEEPS};
pub use error::SpecwiseError;
pub use estimator::{EstimatorKind, TailVerification};
pub use feasibility::{find_feasible_start, LinearConstraints};
pub use importance::{IsResult, MeanShiftIs};
pub use line_search::{line_search_feasible, LINE_SEARCH_EVALS};
pub use mc_verify::{McVerification, MonteCarlo};
pub use mismatch::{eta, phi, MismatchAnalysis, MismatchEntry, PHI_DELTA1, PHI_DELTA2};
pub use norm_min::{NormMinIs, NormMinOptions, NormMinResult};
pub use optimizer::{
    IterationSnapshot, Objective, OptimizationTrace, OptimizerConfig, YieldOptimizer,
};
pub use quad_yield::QuadraticYield;
pub use report::{
    effort_breakdown_table, effort_table, improvement_table, iteration_table, mismatch_table,
    run_report,
};
// Re-exported so downstream users can enable run journaling without naming
// `specwise-trace` directly (`YieldOptimizer::with_tracer(Tracer::from_env())`).
pub use specwise_trace::{Journal, Tracer};
pub use wcd_max::WcdMaximizer;
pub use yield_model::{LinearizedYield, ShiftTracker, MIN_CHUNK_ROWS};

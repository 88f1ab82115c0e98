//! A from-scratch analog circuit simulator based on modified nodal analysis
//! (MNA), standing in for the Infineon TITAN simulator used in the DAC 2001
//! paper (see DESIGN.md §2 for the substitution argument).
//!
//! Capabilities:
//!
//! * [`Circuit`] — netlist builder: resistors, capacitors, independent
//!   voltage/current sources, controlled sources, and Level-1 MOSFETs with
//!   temperature dependence and per-instance statistical deviations,
//! * [`DcOp`] — DC operating point by damped Newton–Raphson with gmin
//!   stepping and source stepping fallbacks,
//! * [`AcSolver`] — small-signal AC analysis around the operating point
//!   (complex MNA), including Meyer-style MOSFET capacitances,
//! * [`Transient`] — fixed-step trapezoidal/backward-Euler transient with a
//!   Newton solve per time step,
//! * [`DcSensitivity`] — frozen-Jacobian re-solves of perturbed circuits.
//!
//! One element pass turns a netlist into matrices for every analysis: it
//! stamps the Jacobian `G` and, for AC and transient, hands over each
//! capacitor and each MOSFET's Meyer capacitances in the region the same
//! pass has just evaluated.
//!
//! # Example — an RC low-pass filter
//!
//! ```
//! use specwise_mna::{AcSolver, Circuit, DcOp};
//!
//! # fn main() -> Result<(), specwise_mna::MnaError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let vout = ckt.node("out");
//! ckt.voltage_source("VIN", vin, Circuit::GROUND, 1.0)?;
//! ckt.set_ac("VIN", 1.0)?;
//! ckt.resistor("R1", vin, vout, 1.0e3)?;
//! ckt.capacitor("C1", vout, Circuit::GROUND, 1.0e-6)?;
//!
//! let op = DcOp::new(&ckt).solve()?;
//! assert!((op.voltage(vout) - 1.0).abs() < 1e-9);
//!
//! let ac = AcSolver::new(&ckt, &op);
//! let f3db = 1.0 / (2.0 * std::f64::consts::PI * 1.0e3 * 1.0e-6);
//! let h = ac.solve(f3db)?.voltage(vout);
//! assert!((h.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ac;
mod dc;
mod error;
mod mosfet;
mod netlist;
mod parser;
mod sens;
mod solver;
mod transient;

pub use ac::{AcDelta, AcFactor, AcSolution, AcSolver};
pub use dc::{DcOp, DcSolution, MosOpInfo};
pub use error::MnaError;
pub use mosfet::{MosEval, MosPolarity, MosRegion, MosfetModel, MosfetParams};
pub use netlist::{Circuit, ElementId, NodeId, Stimulus};
pub use parser::{
    parse_deck, parse_deck_ast, parse_deck_ast_limited, DeckAst, DeckElement, DeckElementKind,
    DeckLimits, DeckValue, DesignDirective, MatchDirective, ParseDeckError, RangeDirective,
    SpecDirective, TbDirective,
};
pub use sens::DcSensitivity;
pub use solver::{clear_symbolic_cache, symbolic_cache_len, SolverChoice, SPARSE_AUTO_THRESHOLD};
pub use transient::{Integrator, Transient, TransientOptions, TransientResult, Waveform};

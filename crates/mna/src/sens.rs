//! Semi-analytic DC sensitivity on the cached operating-point Jacobian.
//!
//! At a converged DC operating point `x` the Newton Jacobian `J = ∂F/∂x`
//! is factored once. A perturbed circuit of identical topology (shifted
//! device geometry, threshold, bias, …) is then re-solved with one
//! frozen-Jacobian Newton step
//!
//! ```text
//! x′ = x − J⁻¹ · F_perturbed(x)
//! ```
//!
//! — a single residual stamp plus one pair of triangular solves instead of
//! a full Newton run. For a linear circuit the step is exact; for the
//! MOSFET decks the error is second order in the perturbation, which is
//! the same order as the finite-difference truncation error the adjoint
//! gradient path replaces.

use std::sync::Mutex;

use specwise_linalg::DVec;

use crate::dc::{residual_at, stamp_system, DcOp, DcSolution, GMIN};
use crate::solver::{Analysis, SystemSolver};
use crate::{Circuit, MnaError};

/// Factored DC operating-point Jacobian for semi-analytic re-solves of
/// perturbed circuits (see the module docs).
pub struct DcSensitivity {
    x: DVec,
    sys: Mutex<SystemSolver>,
}

impl std::fmt::Debug for DcSensitivity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DcSensitivity")
            .field("n", &self.x.len())
            .finish_non_exhaustive()
    }
}

impl DcSensitivity {
    /// Stamps and factors the Jacobian of `circuit` at the converged
    /// operating point `op`, with the gmin the DC solve converged with, so
    /// `F(x) ≈ 0` at the base point.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidRequest`] on a size mismatch and
    /// [`MnaError::SingularMatrix`] when the Jacobian cannot be factored
    /// (callers fall back to finite differences).
    pub fn new(circuit: &Circuit, op: &DcSolution) -> Result<Self, MnaError> {
        let n = circuit.num_unknowns();
        if op.unknowns().len() != n {
            return Err(MnaError::InvalidRequest {
                reason: "operating point does not match circuit size",
            });
        }
        let mut sys = SystemSolver::new(circuit, Analysis::Dc);
        let mut res = DVec::zeros(n);
        stamp_system(circuit, op.unknowns(), GMIN, 1.0, None, &mut sys, &mut res);
        sys.factor("dc sensitivity")?;
        Ok(DcSensitivity {
            x: op.unknowns().clone(),
            sys: Mutex::new(sys),
        })
    }

    /// Solves the operating point of a perturbed circuit of identical
    /// topology with one frozen-Jacobian Newton step (see module docs).
    /// The returned solution carries re-derived MOSFET operating records
    /// and branch currents, so every downstream measure evaluates on it
    /// transparently.
    ///
    /// # Errors
    ///
    /// As [`DcSensitivity::perturbed_unknowns`].
    pub fn solve_perturbed(&self, perturbed: &Circuit) -> Result<DcSolution, MnaError> {
        let xp = self.perturbed_unknowns(perturbed)?;
        Ok(DcOp::new(perturbed).finish(xp, 1))
    }

    /// The unknown vector [`DcSensitivity::solve_perturbed`] wraps, without
    /// the operating records: for callers that only linearize at it (see
    /// [`crate::AcSolver::delta`]).
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidRequest`] on a size mismatch and
    /// [`MnaError::NoConvergence`] when the perturbed residual is
    /// non-finite; propagates triangular-solve errors.
    pub fn perturbed_unknowns(&self, perturbed: &Circuit) -> Result<DVec, MnaError> {
        let n = self.x.len();
        if perturbed.num_unknowns() != n {
            return Err(MnaError::InvalidRequest {
                reason: "perturbed circuit does not match base circuit size",
            });
        }
        let mut res = DVec::zeros(n);
        residual_at(perturbed, &self.x, GMIN, &mut res);
        if !res.is_finite() {
            return Err(MnaError::NoConvergence {
                analysis: "dc sensitivity",
                iterations: 0,
                residual: f64::NAN,
            });
        }
        let mut sys = self.sys.lock().expect("sensitivity workspace poisoned");
        let delta = DVec::from_slice(sys.solve(|i| res[i])?);
        Ok(&self.x - &delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DcOp, MosfetModel, MosfetParams};

    fn divider(volts: f64, r1: f64) -> (Circuit, crate::NodeId) {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        ckt.voltage_source("V1", vin, Circuit::GROUND, volts)
            .unwrap();
        ckt.resistor("R1", vin, mid, r1).unwrap();
        ckt.resistor("R2", mid, Circuit::GROUND, 1e3).unwrap();
        (ckt, mid)
    }

    #[test]
    fn exact_for_bias_perturbations() {
        // Only the right-hand side changes when a source value shifts, so
        // the frozen-Jacobian step is exact (up to roundoff) on a linear
        // circuit.
        let (base, _) = divider(2.0, 1e3);
        let op = DcOp::new(&base).solve().unwrap();
        let sens = DcSensitivity::new(&base, &op).unwrap();

        let (pert, mid_p) = divider(2.3, 1e3);
        let fast = sens.solve_perturbed(&pert).unwrap();
        let full = DcOp::new(&pert).solve().unwrap();
        assert!((fast.voltage(mid_p) - full.voltage(mid_p)).abs() < 1e-12);
        assert!(
            (fast.branch_current("V1").unwrap() - full.branch_current("V1").unwrap()).abs() < 1e-15
        );
    }

    #[test]
    fn second_order_in_element_perturbations() {
        // An element change also perturbs the Jacobian, so the frozen step
        // leaves an O(Δp²) error: 10× smaller perturbation, ~100× smaller
        // error.
        let (base, _) = divider(2.0, 1e3);
        let op = DcOp::new(&base).solve().unwrap();
        let sens = DcSensitivity::new(&base, &op).unwrap();
        let mut errs = Vec::new();
        for rel in [1e-2, 1e-3] {
            let (pert, mid_p) = divider(2.0, 1e3 * (1.0 + rel));
            let fast = sens.solve_perturbed(&pert).unwrap();
            let full = DcOp::new(&pert).solve().unwrap();
            errs.push((fast.voltage(mid_p) - full.voltage(mid_p)).abs());
        }
        assert!(
            errs[1] < errs[0] / 50.0,
            "errors not second order: {errs:?}"
        );
    }

    fn common_source(width: f64) -> (Circuit, crate::NodeId) {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let gate = ckt.node("g");
        let out = ckt.node("out");
        ckt.voltage_source("VDD", vdd, Circuit::GROUND, 3.0)
            .unwrap();
        ckt.voltage_source("VG", gate, Circuit::GROUND, 1.0)
            .unwrap();
        ckt.resistor("RD", vdd, out, 20e3).unwrap();
        let params = MosfetParams::new(MosfetModel::default_nmos(), width, 1e-6);
        ckt.mosfet("M1", out, gate, Circuit::GROUND, Circuit::GROUND, params)
            .unwrap();
        (ckt, out)
    }

    #[test]
    fn second_order_accurate_on_mosfet_deck() {
        let (base, out) = common_source(10e-6);
        let op = DcOp::new(&base).solve().unwrap();
        let sens = DcSensitivity::new(&base, &op).unwrap();

        // Relative width perturbations: the one-step error must shrink
        // quadratically.
        let mut errs = Vec::new();
        for rel in [1e-2, 1e-3] {
            let (pert, out_p) = common_source(10e-6 * (1.0 + rel));
            let fast = sens.solve_perturbed(&pert).unwrap();
            let full = DcOp::new(&pert).solve().unwrap();
            errs.push((fast.voltage(out_p) - full.voltage(out_p)).abs());
            // Sanity: the perturbation actually moves the output.
            assert!((full.voltage(out_p) - op.voltage(out)).abs() > 1e-6);
        }
        // 10× smaller perturbation → ≥ ~50× smaller error (quadratic, with
        // slack for roundoff).
        assert!(
            errs[1] < errs[0] / 50.0,
            "errors not second order: {errs:?}"
        );
        // And the step error itself is far below the signal at 1e-3.
        assert!(errs[1] < 1e-6, "one-step error too large: {errs:?}");
    }

    #[test]
    fn mosfet_records_rederived_on_perturbed_point() {
        let (base, _) = common_source(10e-6);
        let op = DcOp::new(&base).solve().unwrap();
        let sens = DcSensitivity::new(&base, &op).unwrap();
        let (pert, _) = common_source(10e-6 * 1.001);
        let fast = sens.solve_perturbed(&pert).unwrap();
        let full = DcOp::new(&pert).solve().unwrap();
        let a = fast.mosfet_op("M1").unwrap();
        let b = full.mosfet_op("M1").unwrap();
        // One-step node-voltage error is O(Δp²) ≈ 1e-8 V at Δp = 1e-3,
        // which maps to ~1e-6 relative error in the device records.
        assert!((a.id - b.id).abs() < 1e-5 * b.id.abs().max(1e-12));
        assert!((a.gm - b.gm).abs() < 1e-4 * b.gm.abs().max(1e-12));
    }

    #[test]
    fn rejects_size_mismatch() {
        let (base, _) = common_source(10e-6);
        let op = DcOp::new(&base).solve().unwrap();
        let sens = DcSensitivity::new(&base, &op).unwrap();
        let mut tiny = Circuit::new();
        let a = tiny.node("a");
        tiny.voltage_source("V1", a, Circuit::GROUND, 1.0).unwrap();
        assert!(matches!(
            sens.solve_perturbed(&tiny),
            Err(MnaError::InvalidRequest { .. })
        ));
    }
}

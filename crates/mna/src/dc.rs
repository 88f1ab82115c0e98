//! DC operating-point analysis: damped Newton–Raphson on the MNA equations
//! with gmin-stepping and source-stepping homotopy fallbacks.

use std::collections::HashMap;

use specwise_linalg::DVec;

use crate::mosfet::{eval_nmos_frame, MosPolarity, MosRegion};
use crate::netlist::ElementKind;
use crate::solver::{Analysis, Stamper, SystemSolver};
use crate::{Circuit, ElementId, MnaError, NodeId};

/// Tuning knobs of the Newton iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Maximum Newton iterations per homotopy stage.
    pub max_iterations: usize,
    /// Absolute node-voltage convergence tolerance \[V\].
    pub vntol: f64,
    /// Relative convergence tolerance.
    pub reltol: f64,
    /// Residual convergence tolerance (KCL rows in amps, branch rows in volts).
    pub restol: f64,
    /// Maximum node-voltage change per damped Newton step \[V\].
    pub damping_vmax: f64,
    /// Minimum shunt conductance from every node to ground \[S\].
    pub gmin: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iterations: 150,
            vntol: 1e-9,
            reltol: 1e-9,
            restol: 1e-9,
            damping_vmax: 0.5,
            gmin: 1e-12,
        }
    }
}

/// Operating-point record of one MOSFET.
///
/// `vsat_margin` is the quantity the paper's *functional constraints* are
/// built from: `v_DS − v_Dsat` in the device's forward frame, positive when
/// the transistor is safely saturated.
#[derive(Debug, Clone, PartialEq)]
pub struct MosOpInfo {
    /// Element id within the circuit.
    pub element: ElementId,
    /// Instance name.
    pub name: String,
    /// Operating region.
    pub region: MosRegion,
    /// Drain current \[A\], conventional current into the drain terminal
    /// (negative for PMOS in normal operation).
    pub id: f64,
    /// Gate-source voltage in the real frame \[V\].
    pub vgs: f64,
    /// Drain-source voltage in the real frame \[V\].
    pub vds: f64,
    /// Bulk-source voltage in the real frame \[V\].
    pub vbs: f64,
    /// Overdrive `|V_GS| − |V_th|` in the forward frame \[V\].
    pub vov: f64,
    /// Saturation margin `|V_DS| − V_ov` in the forward frame \[V\].
    pub vsat_margin: f64,
    /// Transconductance \[S\].
    pub gm: f64,
    /// Output conductance \[S\].
    pub gds: f64,
    /// Body transconductance \[S\].
    pub gmb: f64,
    /// Effective threshold (forward frame, magnitude) \[V\].
    pub vth: f64,
}

/// A converged DC solution: node voltages, branch currents, and per-MOSFET
/// operating details.
#[derive(Debug, Clone)]
pub struct DcSolution {
    x: DVec,
    num_nodes: usize,
    mos_ops: Vec<MosOpInfo>,
    branch_of: HashMap<String, usize>,
    branch_base: usize,
    iterations: usize,
}

impl DcSolution {
    /// Voltage of a node \[V\] (ground reads 0).
    pub fn voltage(&self, n: NodeId) -> f64 {
        if n.is_ground() {
            0.0
        } else {
            self.x[n.index() - 1]
        }
    }

    /// Current through a voltage source or VCVS, flowing from the + terminal
    /// through the source to the − terminal \[A\].
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::NotFound`] when the name is not a branch element.
    pub fn branch_current(&self, name: &str) -> Result<f64, MnaError> {
        let branch = self.branch_of.get(name).ok_or_else(|| MnaError::NotFound {
            name: name.to_string(),
        })?;
        Ok(self.x[self.branch_base + branch])
    }

    /// Operating info of a MOSFET by name.
    pub fn mosfet_op(&self, name: &str) -> Option<&MosOpInfo> {
        self.mos_ops.iter().find(|m| m.name == name)
    }

    /// Operating info of every MOSFET, in netlist order.
    pub fn mosfet_ops(&self) -> &[MosOpInfo] {
        &self.mos_ops
    }

    /// The raw unknown vector (node voltages then branch currents).
    pub fn unknowns(&self) -> &DVec {
        &self.x
    }

    /// Newton iterations spent (across the successful homotopy stage).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Number of nodes (including ground) of the circuit this solves.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }
}

/// DC operating-point analysis of a [`Circuit`].
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Clone)]
pub struct DcOp<'c> {
    circuit: &'c Circuit,
    options: NewtonOptions,
}

impl<'c> DcOp<'c> {
    /// Creates an analysis with default [`NewtonOptions`].
    pub fn new(circuit: &'c Circuit) -> Self {
        DcOp {
            circuit,
            options: NewtonOptions::default(),
        }
    }

    /// Creates an analysis with custom options.
    pub fn with_options(circuit: &'c Circuit, options: NewtonOptions) -> Self {
        DcOp { circuit, options }
    }

    /// Solves for the operating point from a flat (all-zero) initial guess.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::NoConvergence`] when direct Newton, gmin stepping
    /// and source stepping all fail, or [`MnaError::SingularMatrix`] for a
    /// structurally singular circuit.
    pub fn solve(&self) -> Result<DcSolution, MnaError> {
        self.solve_from(&DVec::zeros(self.circuit.num_unknowns()))
    }

    /// Solves starting from a previous solution's unknown vector (warm start).
    ///
    /// # Errors
    ///
    /// Same as [`DcOp::solve`]; additionally [`MnaError::InvalidRequest`]
    /// when the initial guess has the wrong length.
    pub fn solve_from(&self, initial: &DVec) -> Result<DcSolution, MnaError> {
        let n = self.circuit.num_unknowns();
        if initial.len() != n {
            return Err(MnaError::InvalidRequest {
                reason: "initial guess length mismatch",
            });
        }
        if n == 0 {
            return Err(MnaError::InvalidRequest {
                reason: "circuit has no unknowns",
            });
        }

        // One workspace for the whole solve: the assembly buffer and (on
        // the sparse backend) the numeric factorization survive every
        // Newton iteration and homotopy stage below.
        let mut sys = SystemSolver::new(self.circuit, Analysis::Dc);

        // Stage 1: plain Newton.
        if let Ok((x, iters)) = self.newton(&mut sys, initial.clone(), self.options.gmin, 1.0) {
            return Ok(self.finish(x, iters));
        }

        // Stage 2: gmin stepping.
        let mut x = initial.clone();
        let mut ok = true;
        let mut g = 1e-2;
        let mut total_iters = 0;
        while g > self.options.gmin {
            match self.newton(&mut sys, x.clone(), g, 1.0) {
                Ok((xg, it)) => {
                    x = xg;
                    total_iters += it;
                }
                Err(_) => {
                    ok = false;
                    break;
                }
            }
            g *= 0.1;
        }
        if ok {
            if let Ok((xf, it)) = self.newton(&mut sys, x.clone(), self.options.gmin, 1.0) {
                return Ok(self.finish(xf, total_iters + it));
            }
        }

        // Stage 3: source stepping.
        let mut x = DVec::zeros(n);
        let mut total_iters = 0;
        let steps = 20;
        for k in 1..=steps {
            let alpha = k as f64 / steps as f64;
            match self.newton(&mut sys, x.clone(), self.options.gmin, alpha) {
                Ok((xa, it)) => {
                    x = xa;
                    total_iters += it;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(self.finish(x, total_iters))
    }

    /// Wraps an already-converged unknown vector as a [`DcSolution`] without
    /// running Newton.
    ///
    /// This is the exact-hit path of warm-start caches: when a caller knows
    /// `x` is the converged solution of this very circuit (bit-identical
    /// parameter signature), re-deriving the operating records from `x` is
    /// deterministic and skips the solve entirely.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidRequest`] when `x` has the wrong length.
    pub fn solution_from(&self, x: DVec) -> Result<DcSolution, MnaError> {
        if x.len() != self.circuit.num_unknowns() {
            return Err(MnaError::InvalidRequest {
                reason: "solution vector length mismatch",
            });
        }
        Ok(self.finish(x, 0))
    }

    /// One Newton solve at fixed shunt conductance and source scale.
    fn newton(
        &self,
        sys: &mut SystemSolver,
        mut x: DVec,
        gshunt: f64,
        scale: f64,
    ) -> Result<(DVec, usize), MnaError> {
        let n = self.circuit.num_unknowns();
        let damping_vmax = damping_for(self.circuit, &self.options);
        let mut res = DVec::zeros(n);
        for iter in 0..self.options.max_iterations {
            match newton_iteration(
                self.circuit,
                &self.options,
                sys,
                &mut x,
                &mut res,
                gshunt,
                scale,
                damping_vmax,
            ) {
                NewtonStep::Converged => return Ok((x, iter + 1)),
                NewtonStep::Continue => {}
                NewtonStep::NonFinite => {
                    return Err(MnaError::NoConvergence {
                        analysis: "dc",
                        iterations: iter,
                        residual: f64::NAN,
                    })
                }
                NewtonStep::Failed(e) => return Err(e),
            }
        }
        stamp_system(
            self.circuit,
            &x,
            gshunt,
            scale,
            None,
            sys.stamper(),
            &mut res,
        );
        Err(MnaError::NoConvergence {
            analysis: "dc",
            iterations: self.options.max_iterations,
            residual: res.norm_inf(),
        })
    }

    pub(crate) fn finish(&self, x: DVec, iterations: usize) -> DcSolution {
        let mos_ops = mosfet_operating_points(self.circuit, &x);
        let mut branch_of = HashMap::new();
        for (idx, kind) in self.circuit.kinds().iter().enumerate() {
            match kind {
                ElementKind::VoltageSource { branch, .. } | ElementKind::Vcvs { branch, .. } => {
                    branch_of.insert(
                        self.circuit.element_name(ElementId(idx)).to_string(),
                        *branch,
                    );
                }
                _ => {}
            }
        }
        DcSolution {
            x,
            num_nodes: self.circuit.num_nodes(),
            mos_ops,
            branch_of,
            branch_base: self.circuit.num_nodes() - 1,
            iterations,
        }
    }
}

/// Damping bound for one Newton solve of `circuit`.
///
/// Purely linear circuits solve exactly in one Newton step; damping would
/// only slow (or for large node voltages, prevent) convergence.
pub(crate) fn damping_for(circuit: &Circuit, options: &NewtonOptions) -> f64 {
    let has_nonlinear = circuit
        .kinds()
        .iter()
        .any(|k| matches!(k, ElementKind::Mosfet { .. } | ElementKind::Diode { .. }));
    if has_nonlinear {
        options.damping_vmax
    } else {
        f64::INFINITY
    }
}

/// Outcome of one Newton iteration ([`newton_iteration`]).
pub(crate) enum NewtonStep {
    /// Converged: `x` holds the accepted solution.
    Converged,
    /// Not converged yet; iterate again.
    Continue,
    /// Residual or Jacobian went non-finite.
    NonFinite,
    /// The linear solve failed.
    Failed(MnaError),
}

/// One iteration of the damped Newton loop: stamp, factor, solve, damp,
/// update, check convergence. [`DcOp`]'s plain-Newton and homotopy stages
/// all step through it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn newton_iteration(
    circuit: &Circuit,
    options: &NewtonOptions,
    sys: &mut SystemSolver,
    x: &mut DVec,
    res: &mut DVec,
    gshunt: f64,
    scale: f64,
    damping_vmax: f64,
) -> NewtonStep {
    let nv = circuit.num_nodes() - 1;
    stamp_system(circuit, x, gshunt, scale, None, sys.stamper(), res);
    if !res.is_finite() || !sys.is_finite() {
        return NewtonStep::NonFinite;
    }
    let mut delta = match sys.factor_solve(res, "dc") {
        Ok(d) => d,
        Err(e) => return NewtonStep::Failed(e),
    };
    let mut vmax = 0.0_f64;
    for i in 0..nv {
        vmax = vmax.max(delta[i].abs());
    }
    // Residual-based acceptance: when the KCL residual is already far below
    // tolerance and the proposed update is sub-µV, the point is converged
    // even if a near-singular Jacobian (cut-off devices hanging on gmin)
    // keeps Δv from meeting the strict voltage criterion.
    if res.norm_inf() < options.restol && vmax < 1e-6 {
        return NewtonStep::Converged;
    }
    // Damp: bound the node-voltage update.
    if vmax > damping_vmax {
        delta *= damping_vmax / vmax;
    }
    *x += &delta;

    // Convergence: voltage update small and residual small.
    let mut dv_ok = true;
    for i in 0..nv {
        if delta[i].abs() > options.vntol + options.reltol * x[i].abs() {
            dv_ok = false;
            break;
        }
    }
    if dv_ok {
        stamp_system(circuit, x, gshunt, scale, None, sys.stamper(), res);
        if res.norm_inf() < options.restol {
            return NewtonStep::Converged;
        }
    }
    NewtonStep::Continue
}

/// A [`Stamper`] that discards every Jacobian entry — used for
/// residual-only evaluations (sensitivity right-hand sides).
pub(crate) struct NullStamper;

impl Stamper for NullStamper {
    fn clear(&mut self) {}
    fn add(&mut self, _r: usize, _c: usize, _v: f64) {}
}

/// Residual of the MNA system of `circuit` at a fixed unknown vector `x`
/// (no Jacobian assembly). The sensitivity right-hand side is the difference
/// of two of these between a perturbed and a base circuit.
pub(crate) fn residual_at(circuit: &Circuit, x: &DVec, gshunt: f64, res: &mut DVec) {
    stamp_system(circuit, x, gshunt, 1.0, None, &mut NullStamper, res);
}

/// Voltage of node `n` given the unknown vector.
fn vnode(x: &DVec, ckt: &Circuit, n: NodeId) -> f64 {
    match ckt.node_unknown(n) {
        Some(i) => x[i],
        None => 0.0,
    }
}

/// Effective-frame MOSFET evaluation shared by DC, AC and transient.
///
/// Returns `(effective_drain, effective_source, sign, eval)` where the
/// current `sign·eval.id` flows from `effective_drain` to `effective_source`
/// in the real frame.
pub(crate) fn eval_mosfet_at(
    ckt: &Circuit,
    x: &DVec,
    d: NodeId,
    g: NodeId,
    s: NodeId,
    b: NodeId,
    params: &crate::MosfetParams,
) -> (NodeId, NodeId, f64, crate::mosfet::MosEval) {
    let sgn = match params.model.polarity {
        MosPolarity::Nmos => 1.0,
        MosPolarity::Pmos => -1.0,
    };
    let vd = sgn * vnode(x, ckt, d);
    let vg = sgn * vnode(x, ckt, g);
    let vs = sgn * vnode(x, ckt, s);
    let vb = sgn * vnode(x, ckt, b);
    // Forward frame: if the reflected drain sits below the reflected source,
    // the device conducts in reverse — swap the roles so the square-law
    // formulas stay in their valid region (standard SPICE treatment).
    let (ed, es, vgs, vds, vbs) = if vd >= vs {
        (d, s, vg - vs, vd - vs, vb - vs)
    } else {
        (s, d, vg - vd, vs - vd, vb - vd)
    };
    let ev = eval_nmos_frame(params, vgs, vds, vbs, ckt.temperature());
    (ed, es, sgn, ev)
}

/// Stamps the full nonlinear system at `x` into `jac` and `res`.
///
/// `res` is the KCL residual (currents leaving each node) plus the branch
/// voltage equations; `jac` its Jacobian, written through the [`Stamper`]
/// abstraction (dense matrix, sparse value array, or pattern collector).
/// Both targets are zeroed in place first. `stimulus_time` selects transient
/// stimulus values for voltage sources when `Some`.
pub(crate) fn stamp_system(
    ckt: &Circuit,
    x: &DVec,
    gshunt: f64,
    source_scale: f64,
    stimulus_time: Option<f64>,
    jac: &mut dyn Stamper,
    res: &mut DVec,
) {
    let n = ckt.num_unknowns();
    jac.clear();
    if res.len() != n {
        *res = DVec::zeros(n);
    } else {
        res.as_mut_slice().fill(0.0);
    }
    let nv = ckt.num_nodes() - 1;

    // Shunt conductance from every node to ground (gmin / homotopy).
    for i in 0..nv {
        jac.add(i, i, gshunt);
        res[i] += gshunt * x[i];
    }

    let add_res = |res: &mut DVec, node: NodeId, val: f64| {
        if let Some(i) = ckt.node_unknown(node) {
            res[i] += val;
        }
    };
    let add_jac = |jac: &mut dyn Stamper, row: Option<usize>, col: Option<usize>, val: f64| {
        if let (Some(r), Some(c)) = (row, col) {
            jac.add(r, c, val);
        }
    };

    for kind in ckt.kinds() {
        match kind {
            ElementKind::Resistor { a, b, ohms } => {
                let g = 1.0 / ohms;
                let i_ab = g * (vnode(x, ckt, *a) - vnode(x, ckt, *b));
                add_res(res, *a, i_ab);
                add_res(res, *b, -i_ab);
                let (ia, ib) = (ckt.node_unknown(*a), ckt.node_unknown(*b));
                add_jac(jac, ia, ia, g);
                add_jac(jac, ia, ib, -g);
                add_jac(jac, ib, ia, -g);
                add_jac(jac, ib, ib, g);
            }
            ElementKind::Capacitor { .. } => {
                // Open circuit in DC; transient adds companion stamps itself.
            }
            ElementKind::CurrentSource { p, n: nn, dc, .. } => {
                let i = source_scale * dc;
                add_res(res, *p, i);
                add_res(res, *nn, -i);
            }
            ElementKind::VoltageSource {
                p,
                n: nn,
                dc,
                stimulus,
                branch,
                ..
            } => {
                let value = match (stimulus_time, stimulus) {
                    (Some(t), Some(stim)) => stim.at(t),
                    _ => *dc,
                } * source_scale;
                let br = ckt.branch_unknown(*branch);
                let i_br = x[br];
                add_res(res, *p, i_br);
                add_res(res, *nn, -i_br);
                let (ip, inn) = (ckt.node_unknown(*p), ckt.node_unknown(*nn));
                add_jac(jac, ip, Some(br), 1.0);
                add_jac(jac, inn, Some(br), -1.0);
                // Branch equation: v(p) − v(n) − V = 0.
                res[br] = vnode(x, ckt, *p) - vnode(x, ckt, *nn) - value;
                add_jac(jac, Some(br), ip, 1.0);
                add_jac(jac, Some(br), inn, -1.0);
            }
            ElementKind::Vccs {
                p,
                n: nn,
                cp,
                cn,
                gm,
            } => {
                let i = gm * (vnode(x, ckt, *cp) - vnode(x, ckt, *cn));
                add_res(res, *p, i);
                add_res(res, *nn, -i);
                let (ip, inn) = (ckt.node_unknown(*p), ckt.node_unknown(*nn));
                let (icp, icn) = (ckt.node_unknown(*cp), ckt.node_unknown(*cn));
                add_jac(jac, ip, icp, *gm);
                add_jac(jac, ip, icn, -gm);
                add_jac(jac, inn, icp, -gm);
                add_jac(jac, inn, icn, *gm);
            }
            ElementKind::Vcvs {
                p,
                n: nn,
                cp,
                cn,
                gain,
                branch,
            } => {
                let br = ckt.branch_unknown(*branch);
                let i_br = x[br];
                add_res(res, *p, i_br);
                add_res(res, *nn, -i_br);
                let (ip, inn) = (ckt.node_unknown(*p), ckt.node_unknown(*nn));
                let (icp, icn) = (ckt.node_unknown(*cp), ckt.node_unknown(*cn));
                add_jac(jac, ip, Some(br), 1.0);
                add_jac(jac, inn, Some(br), -1.0);
                res[br] = vnode(x, ckt, *p)
                    - vnode(x, ckt, *nn)
                    - gain * (vnode(x, ckt, *cp) - vnode(x, ckt, *cn));
                add_jac(jac, Some(br), ip, 1.0);
                add_jac(jac, Some(br), inn, -1.0);
                add_jac(jac, Some(br), icp, -gain);
                add_jac(jac, Some(br), icn, *gain);
            }
            ElementKind::Diode {
                a,
                k,
                is_sat,
                ideality,
            } => {
                // i = Is·(exp(x) − 1), x = v/(n·V_T); the exponential is
                // continued linearly above x = 40 so Newton iterates cannot
                // overflow (value and derivative stay continuous).
                let vt = 8.617_333e-5 * ckt.temperature();
                let v = vnode(x, ckt, *a) - vnode(x, ckt, *k);
                let arg = v / (ideality * vt);
                const XM: f64 = 40.0;
                let (e, de) = if arg <= XM {
                    let e = arg.exp();
                    (e, e)
                } else {
                    let em = XM.exp();
                    (em * (1.0 + (arg - XM)), em)
                };
                let i = is_sat * (e - 1.0);
                let gd = is_sat * de / (ideality * vt);
                add_res(res, *a, i);
                add_res(res, *k, -i);
                let (ia, ik) = (ckt.node_unknown(*a), ckt.node_unknown(*k));
                add_jac(jac, ia, ia, gd);
                add_jac(jac, ia, ik, -gd);
                add_jac(jac, ik, ia, -gd);
                add_jac(jac, ik, ik, gd);
            }
            ElementKind::Mosfet { d, g, s, b, params } => {
                let (ed, es, sgn, ev) = eval_mosfet_at(ckt, x, *d, *g, *s, *b, params);
                let i_real = sgn * ev.id;
                add_res(res, ed, i_real);
                add_res(res, es, -i_real);
                let (ied, ies) = (ckt.node_unknown(ed), ckt.node_unknown(es));
                let (ig, ib) = (ckt.node_unknown(*g), ckt.node_unknown(*b));
                // ∂i_real/∂v: polarity signs cancel (sgn² = 1).
                let gsum = ev.gm + ev.gds + ev.gmb;
                add_jac(jac, ied, ig, ev.gm);
                add_jac(jac, ied, ied, ev.gds);
                add_jac(jac, ied, ib, ev.gmb);
                add_jac(jac, ied, ies, -gsum);
                add_jac(jac, ies, ig, -ev.gm);
                add_jac(jac, ies, ied, -ev.gds);
                add_jac(jac, ies, ib, -ev.gmb);
                add_jac(jac, ies, ies, gsum);
            }
        }
    }
}

/// Computes per-MOSFET operating records at a converged solution.
pub(crate) fn mosfet_operating_points(ckt: &Circuit, x: &DVec) -> Vec<MosOpInfo> {
    let mut out = Vec::new();
    for (idx, kind) in ckt.kinds().iter().enumerate() {
        if let ElementKind::Mosfet { d, g, s, b, params } = kind {
            let (ed, _es, sgn, ev) = eval_mosfet_at(ckt, x, *d, *g, *s, *b, params);
            let vd = vnode(x, ckt, *d);
            let vg = vnode(x, ckt, *g);
            let vs = vnode(x, ckt, *s);
            let vb = vnode(x, ckt, *b);
            // Real-frame drain current: i_real flows ed→es; current into the
            // original drain terminal:
            let i_real = sgn * ev.id;
            let id_drain = if ed == *d { i_real } else { -i_real };
            // Forward-frame vds for the saturation margin.
            let vds_fwd = (sgn * (vd - vs)).abs();
            out.push(MosOpInfo {
                element: ElementId(idx),
                name: ckt.element_name(ElementId(idx)).to_string(),
                region: ev.region,
                id: id_drain,
                vgs: vg - vs,
                vds: vd - vs,
                vbs: vb - vs,
                vov: ev.vov,
                vsat_margin: vds_fwd - ev.vov.max(0.0),
                gm: ev.gm,
                gds: ev.gds,
                gmb: ev.gmb,
                vth: ev.vth,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MosfetModel, MosfetParams};
    use specwise_linalg::DMat;

    #[test]
    fn resistive_divider() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let mid = ckt.node("mid");
        ckt.voltage_source("V1", a, Circuit::GROUND, 3.0).unwrap();
        ckt.resistor("R1", a, mid, 2e3).unwrap();
        ckt.resistor("R2", mid, Circuit::GROUND, 1e3).unwrap();
        let op = DcOp::new(&ckt).solve().unwrap();
        assert!((op.voltage(mid) - 1.0).abs() < 1e-8);
        // Source current: 3V over 3k = 1 mA flowing out of + through circuit,
        // so the branch current (through the source, + to −) is −1 mA.
        assert!((op.branch_current("V1").unwrap() + 1e-3).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        // 1 mA pulled out of node a through the source into ground.
        ckt.current_source("I1", a, Circuit::GROUND, 1e-3).unwrap();
        ckt.resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        let op = DcOp::new(&ckt).solve().unwrap();
        assert!(
            (op.voltage(a) + 1.0).abs() < 1e-8,
            "v(a) = {}",
            op.voltage(a)
        );
    }

    #[test]
    fn vccs_gain_stage() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.voltage_source("VIN", inp, Circuit::GROUND, 0.1)
            .unwrap();
        ckt.vccs("G1", out, Circuit::GROUND, inp, Circuit::GROUND, 1e-3)
            .unwrap();
        ckt.resistor("RL", out, Circuit::GROUND, 10e3).unwrap();
        let op = DcOp::new(&ckt).solve().unwrap();
        // i = gm·vin = 0.1 mA out of node `out` → v(out) = −i·RL = −1 V.
        assert!((op.voltage(out) + 1.0).abs() < 1e-8);
    }

    #[test]
    fn vcvs_amplifier() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.voltage_source("VIN", inp, Circuit::GROUND, 0.25)
            .unwrap();
        ckt.vcvs("E1", out, Circuit::GROUND, inp, Circuit::GROUND, 4.0)
            .unwrap();
        ckt.resistor("RL", out, Circuit::GROUND, 1e3).unwrap();
        let op = DcOp::new(&ckt).solve().unwrap();
        assert!((op.voltage(out) - 1.0).abs() < 1e-8);
    }

    #[test]
    fn diode_connected_nmos_settles() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let d = ckt.node("d");
        ckt.voltage_source("VDD", vdd, Circuit::GROUND, 3.0)
            .unwrap();
        ckt.resistor("R1", vdd, d, 10e3).unwrap();
        let params = MosfetParams::new(MosfetModel::default_nmos(), 20e-6, 2e-6);
        ckt.mosfet("M1", d, d, Circuit::GROUND, Circuit::GROUND, params)
            .unwrap();
        let op = DcOp::new(&ckt).solve().unwrap();
        let m = op.mosfet_op("M1").unwrap();
        assert_eq!(
            m.region,
            MosRegion::Saturation,
            "diode device must saturate"
        );
        // KCL: resistor current equals drain current.
        let ir = (3.0 - op.voltage(d)) / 10e3;
        assert!((ir - m.id).abs() < 1e-9, "ir={ir} id={}", m.id);
        assert!(m.vgs > m.vth, "must be on");
    }

    #[test]
    fn nmos_common_source_gain_stage() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let gate = ckt.node("g");
        let out = ckt.node("out");
        ckt.voltage_source("VDD", vdd, Circuit::GROUND, 3.0)
            .unwrap();
        ckt.voltage_source("VG", gate, Circuit::GROUND, 1.0)
            .unwrap();
        ckt.resistor("RD", vdd, out, 20e3).unwrap();
        let params = MosfetParams::new(MosfetModel::default_nmos(), 10e-6, 1e-6);
        ckt.mosfet("M1", out, gate, Circuit::GROUND, Circuit::GROUND, params)
            .unwrap();
        let op = DcOp::new(&ckt).solve().unwrap();
        let m = op.mosfet_op("M1").unwrap();
        assert!(op.voltage(out) > 0.0 && op.voltage(out) < 3.0);
        assert!(m.id > 0.0);
        // KCL at the output node.
        let ir = (3.0 - op.voltage(out)) / 20e3;
        assert!((ir - m.id).abs() < 1e-9);
    }

    #[test]
    fn pmos_source_follower_polarity() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let out = ckt.node("out");
        let gate = ckt.node("g");
        ckt.voltage_source("VDD", vdd, Circuit::GROUND, 3.0)
            .unwrap();
        ckt.voltage_source("VG", gate, Circuit::GROUND, 1.0)
            .unwrap();
        // PMOS: source at VDD, drain to ground through resistor.
        let params = MosfetParams::new(MosfetModel::default_pmos(), 20e-6, 1e-6);
        ckt.mosfet("M1", out, gate, vdd, vdd, params).unwrap();
        ckt.resistor("RD", out, Circuit::GROUND, 10e3).unwrap();
        let op = DcOp::new(&ckt).solve().unwrap();
        let m = op.mosfet_op("M1").unwrap();
        // PMOS drain current is negative (current flows out of the drain node
        // into the resistor → into the drain terminal it is negative).
        assert!(m.id < 0.0, "PMOS id = {}", m.id);
        assert!(op.voltage(out) > 0.0);
        let ir = op.voltage(out) / 10e3;
        assert!((ir + m.id).abs() < 1e-9, "KCL at out");
    }

    #[test]
    fn nmos_reverse_conduction_swaps_terminals() {
        // Put the "drain" below the "source": device must conduct backwards.
        let mut ckt = Circuit::new();
        let hi = ckt.node("hi");
        let gate = ckt.node("g");
        ckt.voltage_source("VHI", hi, Circuit::GROUND, 2.0).unwrap();
        ckt.voltage_source("VG", gate, Circuit::GROUND, 2.0)
            .unwrap();
        let params = MosfetParams::new(MosfetModel::default_nmos(), 10e-6, 1e-6);
        // Terminals: d = ground side via resistor, s = hi. vds < 0 initially.
        let d = ckt.node("d");
        ckt.mosfet("M1", d, gate, hi, Circuit::GROUND, params)
            .unwrap();
        ckt.resistor("R1", d, Circuit::GROUND, 10e3).unwrap();
        let op = DcOp::new(&ckt).solve().unwrap();
        // Current must flow from hi (acting drain) to d (acting source) and
        // down the resistor: v(d) > 0.
        assert!(op.voltage(d) > 0.1, "v(d) = {}", op.voltage(d));
    }

    #[test]
    fn floating_node_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let fl = ckt.node("floating");
        ckt.voltage_source("V1", a, Circuit::GROUND, 1.0).unwrap();
        ckt.resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        // `floating` has only one capacitor — no DC path.
        ckt.capacitor("C1", fl, a, 1e-12).unwrap();
        // With the default gmin shunt the matrix is technically nonsingular;
        // the node just reads ~0. Accept either behaviour but require no panic.
        let r = DcOp::new(&ckt).solve();
        if let Ok(op) = r {
            assert!(op.voltage(fl).abs() < 1.0);
        }
    }

    #[test]
    fn warm_start_converges_faster() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let d = ckt.node("d");
        ckt.voltage_source("VDD", vdd, Circuit::GROUND, 3.0)
            .unwrap();
        ckt.resistor("R1", vdd, d, 10e3).unwrap();
        let params = MosfetParams::new(MosfetModel::default_nmos(), 20e-6, 2e-6);
        ckt.mosfet("M1", d, d, Circuit::GROUND, Circuit::GROUND, params)
            .unwrap();
        let cold = DcOp::new(&ckt).solve().unwrap();
        let warm = DcOp::new(&ckt).solve_from(cold.unknowns()).unwrap();
        assert!(warm.iterations() <= cold.iterations());
        assert!((warm.voltage(d) - cold.voltage(d)).abs() < 1e-9);
    }

    #[test]
    fn kcl_residual_zero_at_solution() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let out = ckt.node("out");
        let gate = ckt.node("g");
        ckt.voltage_source("VDD", vdd, Circuit::GROUND, 3.0)
            .unwrap();
        ckt.voltage_source("VG", gate, Circuit::GROUND, 1.1)
            .unwrap();
        ckt.resistor("RD", vdd, out, 15e3).unwrap();
        let params = MosfetParams::new(MosfetModel::default_nmos(), 10e-6, 1e-6);
        ckt.mosfet("M1", out, gate, Circuit::GROUND, Circuit::GROUND, params)
            .unwrap();
        let op = DcOp::new(&ckt).solve().unwrap();
        let n = ckt.num_unknowns();
        let mut jac = DMat::zeros(n, n);
        let mut res = DVec::zeros(n);
        stamp_system(&ckt, op.unknowns(), 1e-12, 1.0, None, &mut jac, &mut res);
        assert!(res.norm_inf() < 1e-9, "residual {}", res.norm_inf());
    }

    #[test]
    fn initial_guess_length_checked() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.voltage_source("V1", a, Circuit::GROUND, 1.0).unwrap();
        ckt.resistor("R1", a, Circuit::GROUND, 1.0e3).unwrap();
        assert!(matches!(
            DcOp::new(&ckt).solve_from(&DVec::zeros(1)),
            Err(MnaError::InvalidRequest { .. })
        ));
    }
}

#[cfg(test)]
mod diode_tests {
    use super::*;

    #[test]
    fn forward_biased_diode_drops_about_600mv() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let d = ckt.node("d");
        ckt.voltage_source("V1", a, Circuit::GROUND, 3.0).unwrap();
        ckt.resistor("R1", a, d, 1e3).unwrap();
        ckt.diode("D1", d, Circuit::GROUND, 1e-14, 1.0).unwrap();
        let op = DcOp::new(&ckt).solve().unwrap();
        let vd = op.voltage(d);
        assert!(vd > 0.5 && vd < 0.8, "forward drop {vd}");
        // The diode current satisfies the exponential law at the solution.
        let vt = 8.617_333e-5 * ckt.temperature();
        let i_diode = 1e-14 * ((vd / vt).exp() - 1.0);
        let i_res = (3.0 - vd) / 1e3;
        assert!(
            (i_diode / i_res - 1.0).abs() < 1e-6,
            "KCL: {i_diode} vs {i_res}"
        );
    }

    #[test]
    fn reverse_biased_diode_blocks() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let d = ckt.node("d");
        ckt.voltage_source("V1", a, Circuit::GROUND, -3.0).unwrap();
        ckt.resistor("R1", a, d, 1e3).unwrap();
        ckt.diode("D1", d, Circuit::GROUND, 1e-14, 1.0).unwrap();
        let op = DcOp::new(&ckt).solve().unwrap();
        // Almost the full supply appears across the diode; the current is
        // just the (tiny) saturation current.
        let i = (op.voltage(a) - op.voltage(d)).abs() / 1e3;
        assert!(i < 1e-11, "reverse current {i}");
        assert!(op.voltage(d) < -2.9);
    }

    #[test]
    fn ideality_factor_shifts_the_knee() {
        let drop = |n: f64| {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            let d = ckt.node("d");
            ckt.voltage_source("V1", a, Circuit::GROUND, 3.0).unwrap();
            ckt.resistor("R1", a, d, 10e3).unwrap();
            ckt.diode("D1", d, Circuit::GROUND, 1e-14, n).unwrap();
            let op = DcOp::new(&ckt).solve().unwrap();
            op.voltage(d)
        };
        assert!(
            drop(2.0) > drop(1.0) + 0.3,
            "n=2 roughly doubles the knee voltage"
        );
    }

    #[test]
    fn diode_rejects_bad_parameters() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        assert!(ckt.diode("D", a, Circuit::GROUND, 0.0, 1.0).is_err());
        assert!(ckt.diode("D", a, Circuit::GROUND, 1e-14, -1.0).is_err());
    }

    #[test]
    fn diode_small_signal_conductance_in_ac() {
        // AC through a forward diode: gd = I/(n·Vt) appears in the G matrix,
        // forming a divider with the series resistor.
        use crate::AcSolver;
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let d = ckt.node("d");
        ckt.voltage_source("V1", a, Circuit::GROUND, 3.0).unwrap();
        ckt.set_ac("V1", 1.0).unwrap();
        ckt.resistor("R1", a, d, 1e3).unwrap();
        ckt.diode("D1", d, Circuit::GROUND, 1e-14, 1.0).unwrap();
        let op = DcOp::new(&ckt).solve().unwrap();
        let vt = 8.617_333e-5 * ckt.temperature();
        let i = (3.0 - op.voltage(d)) / 1e3;
        let rd = vt / i; // small-signal resistance ≈ 11 Ω at 2.4 mA
        let ac = AcSolver::new(&ckt, &op);
        let h = ac.solve(0.0).unwrap().voltage(d).abs();
        let expected = rd / (rd + 1e3);
        assert!(
            (h / expected - 1.0).abs() < 0.01,
            "divider {h} vs {expected}"
        );
    }
}

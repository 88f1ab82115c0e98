//! Small-signal AC analysis: the circuit is linearized at a DC operating
//! point and the complex MNA system `(G + jωC)·x = b` is solved per
//! frequency.

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use specwise_linalg::{CVec, Complex64, DMat, DVec};

use crate::dc::{stamp_system, DcSolution, GMIN};
use crate::netlist::{ElementKind, NameTable};
use crate::solver::{stamp_pair, Analysis, Stamper, SystemSolver};
use crate::{Circuit, MnaError, NodeId};

/// Phasor solution of one AC frequency point.
#[derive(Debug, Clone)]
pub struct AcSolution {
    x: CVec,
    names: Arc<NameTable>,
    branch_base: usize,
    freq: f64,
}

impl AcSolution {
    /// Complex node voltage (phasor); ground reads 0.
    pub fn voltage(&self, n: NodeId) -> Complex64 {
        if n.is_ground() {
            Complex64::ZERO
        } else {
            self.x[n.index() - 1]
        }
    }

    /// Complex branch current of a voltage source or VCVS.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::NotFound`] when the name is not a branch element.
    pub fn branch_current(&self, name: &str) -> Result<Complex64, MnaError> {
        Ok(self.x[self.branch_base + self.names.branch(name)?])
    }

    /// The analysis frequency \[Hz\].
    pub fn frequency(&self) -> f64 {
        self.freq
    }

    /// The raw complex unknown vector (node voltages then branch currents).
    ///
    /// Adjoint sensitivity analysis consumes this as the forward solution
    /// `y` in the bilinear form `−λᵀ·ΔA·y`.
    pub fn unknowns(&self) -> &CVec {
        &self.x
    }
}

/// `G + jωC` factored at one frequency ([`AcSolver::factor`]), held for
/// forward and adjoint solves on the same factors.
pub struct AcFactor<'a> {
    ac: &'a AcSolver,
    sys: MutexGuard<'a, SystemSolver<Complex64>>,
    freq: f64,
}

impl fmt::Debug for AcFactor<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AcFactor")
            .field("freq", &self.freq)
            .finish_non_exhaustive()
    }
}

impl AcFactor<'_> {
    /// Solves `(G + jωC)·x = b` against a stimulus vector (see
    /// [`AcSolver::drive`]).
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidRequest`] when `b` has the wrong length.
    pub fn solve_driven(&mut self, b: &DVec) -> Result<AcSolution, MnaError> {
        self.ac.check_stimulus(b)?;
        let x = CVec::from_slice(self.sys.solve(|i| Complex64::from_real(b[i]))?);
        Ok(AcSolution {
            x,
            names: Arc::clone(&self.ac.names),
            branch_base: self.ac.branch_base,
            freq: self.freq,
        })
    }

    /// Solves the adjoint system `(G + jωC)ᵀ·λ = rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidRequest`] when `rhs` has the wrong length.
    pub fn solve_adjoint(&mut self, rhs: &CVec) -> Result<CVec, MnaError> {
        self.ac.check_adjoint_rhs(rhs)?;
        Ok(CVec::from_slice(self.sys.solve_transposed(|i| rhs[i])?))
    }
}

/// Small-signal AC solver bound to a circuit and its DC operating point.
///
/// The real conductance matrix `G` (the DC Jacobian at the operating point),
/// the capacitance matrix `C` (linear capacitors plus Meyer MOSFET
/// capacitances) and the stimulus vector are built once; each
/// [`AcSolver::solve`] then fills `G + jωC` into one reused complex
/// workspace and factors it. On the sparse backend the cached symbolic
/// factorization of the circuit topology is shared across every frequency
/// point, and the numeric factorization of one frequency refactors in place
/// for the next.
pub struct AcSolver {
    g: DMat,
    c: DMat,
    b: DVec,
    /// `G` and `C` in the workspace's value layout.
    g_vals: Vec<f64>,
    c_vals: Vec<f64>,
    names: Arc<NameTable>,
    branch_base: usize,
    sys: Mutex<SystemSolver<Complex64>>,
}

impl fmt::Debug for AcSolver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AcSolver")
            .field("n", &self.g.nrows())
            .finish_non_exhaustive()
    }
}

/// The small-signal conductance and capacitance matrices `(G, C)`: the
/// target of one element pass that wants capacitances.
struct GcTarget {
    g: DMat,
    c: DMat,
}

impl Stamper for GcTarget {
    fn clear(&mut self) {
        self.g.fill(0.0);
        self.c.fill(0.0);
    }
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        self.g[(r, c)] += v;
    }
    fn wants_caps(&self) -> bool {
        true
    }
    fn cap(&mut self, a: Option<usize>, b: Option<usize>, farads: f64) {
        stamp_pair(a, b, farads, |r, c, v| self.c[(r, c)] += v);
    }
}

/// Stamps the small-signal conductance matrix `G` (the DC Jacobian at the
/// operating point, including the gmin shunt) and the capacitance matrix
/// `C` (linear capacitors plus Meyer MOSFET capacitances) in one element
/// pass, and the stimulus vector `b` from the netlist's AC magnitudes, all
/// linearized at the operating-point unknowns `x`.
fn stamp_gcb(circuit: &Circuit, x: &DVec) -> (DMat, DMat, DVec) {
    let n = circuit.num_unknowns();
    let mut gc = GcTarget {
        g: DMat::zeros(n, n),
        c: DMat::zeros(n, n),
    };
    let mut res = DVec::zeros(n);
    stamp_system(circuit, x, GMIN, 1.0, None, &mut gc, &mut res);

    let mut b = DVec::zeros(n);
    for kind in circuit.kinds() {
        match kind {
            ElementKind::VoltageSource { ac, branch, .. } if *ac != 0.0 => {
                b[circuit.branch_unknown(*branch)] = *ac;
            }
            ElementKind::CurrentSource { p, n: nn, ac, .. } if *ac != 0.0 => {
                if let Some(i) = circuit.node_unknown(*p) {
                    b[i] -= ac;
                }
                if let Some(i) = circuit.node_unknown(*nn) {
                    b[i] += ac;
                }
            }
            _ => {}
        }
    }
    (gc.g, gc.c, b)
}

/// The nonzero entries of a small-signal matrix perturbation
/// `ΔA = (G′ − G) + jω(C′ − C)`, row by row with columns ascending (see
/// [`AcSolver::delta`]).
///
/// The deltas are formed entry-wise before any product, so nearly
/// identical matrices do not cancel catastrophically. An entry is kept when
/// `G′ − G` or `C′ − C` compares unequal to zero (NaN included).
#[derive(Debug, Clone)]
pub struct AcDelta {
    /// Row `i`'s entries are `entries[row_start[i]..row_start[i + 1]]`.
    row_start: Vec<usize>,
    /// Per entry: column, `G′ − G` and `C′ − C`.
    entries: Vec<(usize, f64, f64)>,
}

impl AcDelta {
    /// The entries of `(gp − g, cp − c)` for square matrices of one size.
    fn between(g: &DMat, c: &DMat, gp: &DMat, cp: &DMat) -> Self {
        let n = g.nrows();
        let mut row_start = Vec::with_capacity(n + 1);
        let mut entries = Vec::with_capacity(4 * n);
        row_start.push(0);
        // The matrices are row-major: walk the four in lockstep, row by row.
        let [g, c, gp, cp] = [g, c, gp, cp].map(|m| m.as_slice().chunks_exact(n.max(1)));
        for (((g, c), gp), cp) in g.zip(c).zip(gp).zip(cp) {
            for (j, (((&g, &c), &gp), &cp)) in g.iter().zip(c).zip(gp).zip(cp).enumerate() {
                let (dg, dc) = (gp - g, cp - c);
                if dg != 0.0 || dc != 0.0 {
                    entries.push((j, dg, dc));
                }
            }
            row_start.push(entries.len());
        }
        AcDelta { row_start, entries }
    }

    /// The first-order transfer-function perturbation `λᵀ·ΔA·y` at
    /// frequency `freq` \[Hz\], for an adjoint solution `λ` and a forward
    /// solution `y` of the base system (`ΔH = −λᵀ·ΔA·y`).
    ///
    /// Rows with `λᵢ = 0` are skipped; every other row is summed over its
    /// entries in column order and then added as `λᵢ·row`. This is the
    /// accumulation order of the dense double loop over all `n²` entries,
    /// so both give the same bits.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` or `y` is shorter than the system size.
    pub fn bilinear(&self, freq: f64, lambda: &CVec, y: &CVec) -> Complex64 {
        let omega = 2.0 * std::f64::consts::PI * freq;
        let mut acc = Complex64::ZERO;
        for (i, span) in self.row_start.windows(2).enumerate() {
            let li = lambda[i];
            if li == Complex64::ZERO {
                continue;
            }
            let mut row = Complex64::ZERO;
            for &(j, dg, dc) in &self.entries[span[0]..span[1]] {
                row += Complex64::new(dg, omega * dc) * y[j];
            }
            acc += li * row;
        }
        acc
    }
}

/// Rejects a negative or non-finite analysis frequency.
fn check_freq(freq: f64) -> Result<(), MnaError> {
    if !freq.is_finite() || freq < 0.0 {
        return Err(MnaError::InvalidRequest {
            reason: "frequency must be finite and >= 0",
        });
    }
    Ok(())
}

impl AcSolver {
    /// Builds the AC system for `circuit` linearized at `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` does not belong to a circuit of the same size.
    pub fn new(circuit: &Circuit, op: &DcSolution) -> Self {
        let n = circuit.num_unknowns();
        assert_eq!(
            op.unknowns().len(),
            n,
            "operating point does not match circuit size"
        );

        let (g, c, b) = stamp_gcb(circuit, op.unknowns());

        // The AC pattern of the sparse backend is a superset of both
        // matrices' nonzeros: it includes every capacitance pair over all
        // MOSFET regions.
        let sys = SystemSolver::new(circuit, Analysis::Ac);
        AcSolver {
            g_vals: sys.gather(&g),
            c_vals: sys.gather(&c),
            g,
            c,
            b,
            names: Arc::clone(circuit.names()),
            branch_base: circuit.num_nodes() - 1,
            sys: Mutex::new(sys),
        }
    }

    /// Extracts the small-signal matrix perturbation
    /// `ΔA = (G′ − G) + jω(C′ − C)` of `perturbed`, linearized at its
    /// operating-point unknowns `x`, against this solver's `(G, C)`: its
    /// nonzero entries, once, for every bilinear form and frequency
    /// ([`AcDelta::bilinear`]) to read.
    ///
    /// # Panics
    ///
    /// Panics if `perturbed` or `x` does not match this solver's size.
    pub fn delta(&self, perturbed: &Circuit, x: &DVec) -> AcDelta {
        let n = self.g.nrows();
        assert!(
            perturbed.num_unknowns() == n && x.len() == n,
            "perturbed circuit does not match the solver size"
        );
        let (gp, cp, _) = stamp_gcb(perturbed, x);
        AcDelta::between(&self.g, &self.c, &gp, &cp)
    }

    /// Builds a stimulus vector from `(voltage-source name, AC magnitude)`
    /// pairs, equivalent to cloning the circuit, clearing every AC
    /// magnitude and calling `set_ac` per source — without the clone or the
    /// solver rebuild.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::NotFound`] when a name is not a branch element
    /// (voltage source or VCVS).
    pub fn drive(&self, sources: &[(&str, f64)]) -> Result<DVec, MnaError> {
        let mut b = DVec::zeros(self.g.nrows());
        for (name, mag) in sources {
            b[self.branch_base + self.names.branch(name)?] = *mag;
        }
        Ok(b)
    }

    /// Solves the complex system at frequency `freq` \[Hz\].
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidRequest`] for negative or non-finite
    /// frequency and [`MnaError::SingularMatrix`] when the complex MNA
    /// matrix cannot be factored.
    pub fn solve(&self, freq: f64) -> Result<AcSolution, MnaError> {
        self.solve_driven(freq, &self.b)
    }

    /// Solves the complex system at `freq` against an explicit stimulus
    /// vector (see [`AcSolver::drive`]). The system matrix `G + jωC` does
    /// not depend on the stimulus, so differential-mode, common-mode and
    /// supply drives share one factorization per frequency point instead
    /// of rebuilding a solver per drive.
    ///
    /// # Errors
    ///
    /// As [`AcSolver::solve`], plus [`MnaError::InvalidRequest`] when `b`
    /// has the wrong length.
    pub fn solve_driven(&self, freq: f64, b: &DVec) -> Result<AcSolution, MnaError> {
        check_freq(freq)?;
        self.check_stimulus(b)?;
        self.factor(freq)?.solve_driven(b)
    }

    /// Solves the transposed system `(G + jωC)ᵀ·λ = rhs` on the same
    /// factors as the forward solve — the adjoint solve of sensitivity
    /// analysis. One factorization serves both directions, so a margin
    /// gradient costs one extra triangular solve per output instead of a
    /// full simulation per parameter.
    ///
    /// # Errors
    ///
    /// As [`AcSolver::solve_driven`].
    pub fn solve_adjoint(&self, freq: f64, rhs: &CVec) -> Result<CVec, MnaError> {
        check_freq(freq)?;
        self.check_adjoint_rhs(rhs)?;
        self.factor(freq)?.solve_adjoint(rhs)
    }

    /// Fills and factors `G + jωC` at `freq` \[Hz\] and holds the factors
    /// for any number of forward and adjoint solves, so stimuli that share
    /// a frequency share one factorization. The solver's workspace stays
    /// locked until the returned [`AcFactor`] is dropped.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::InvalidRequest`] for negative or non-finite
    /// frequency and [`MnaError::SingularMatrix`] when the complex MNA
    /// matrix cannot be factored.
    pub fn factor(&self, freq: f64) -> Result<AcFactor<'_>, MnaError> {
        check_freq(freq)?;
        let mut sys = self.sys.lock().expect("ac workspace poisoned");
        self.fill_factor(&mut sys, freq)?;
        Ok(AcFactor {
            ac: self,
            sys,
            freq,
        })
    }

    /// Rejects a stimulus vector whose length is not the system size.
    fn check_stimulus(&self, b: &DVec) -> Result<(), MnaError> {
        if b.len() != self.g.nrows() {
            return Err(MnaError::InvalidRequest {
                reason: "stimulus vector length does not match system size",
            });
        }
        Ok(())
    }

    /// Rejects an adjoint right-hand side whose length is not the system
    /// size.
    fn check_adjoint_rhs(&self, rhs: &CVec) -> Result<(), MnaError> {
        if rhs.len() != self.g.nrows() {
            return Err(MnaError::InvalidRequest {
                reason: "adjoint rhs length does not match system size",
            });
        }
        Ok(())
    }

    /// Fills `G + jωC` at `freq` \[Hz\] into a held workspace and factors it.
    fn fill_factor(&self, sys: &mut SystemSolver<Complex64>, freq: f64) -> Result<(), MnaError> {
        let omega = 2.0 * std::f64::consts::PI * freq;
        for (z, (&g, &c)) in sys
            .values_mut()
            .iter_mut()
            .zip(self.g_vals.iter().zip(&self.c_vals))
        {
            *z = Complex64::new(g, omega * c);
        }
        sys.factor("ac")
    }

    /// Evaluates `λᵀ·C·y` — the frequency-derivative bilinear form:
    /// `∂H/∂f = −j2π·λᵀ·C·y` at the evaluation frequency of `λ` and `y`.
    pub fn cap_bilinear(&self, lambda: &CVec, y: &CVec) -> Complex64 {
        let n = self.g.nrows();
        let mut acc = Complex64::ZERO;
        for i in 0..n {
            let li = lambda[i];
            if li == Complex64::ZERO {
                continue;
            }
            let mut row = Complex64::ZERO;
            for j in 0..n {
                let cij = self.c[(i, j)];
                if cij != 0.0 {
                    row += y[j] * cij;
                }
            }
            acc += li * row;
        }
        acc
    }

    /// Finds the frequency where the magnitude of the node voltage crosses
    /// `target` (e.g. 1.0 for the unity-gain frequency), by decade scan
    /// followed by bisection on `log f`.
    ///
    /// Returns `None` when the magnitude never crosses the target within
    /// `[f_lo, f_hi]`.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn find_crossing(
        &self,
        node: NodeId,
        target: f64,
        f_lo: f64,
        f_hi: f64,
    ) -> Result<Option<f64>, MnaError> {
        self.find_crossing_driven(node, target, f_lo, f_hi, &self.b)
    }

    /// [`AcSolver::find_crossing`] against an explicit stimulus vector
    /// (see [`AcSolver::drive`]), sharing this solver's factorization
    /// state across drives.
    ///
    /// The search holds the workspace lock throughout, and each probe reads
    /// `|V(node)|` straight from the solve buffer: no allocation per probe,
    /// and the same bits as [`AcSolver::solve_driven`] at each frequency.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn find_crossing_driven(
        &self,
        node: NodeId,
        target: f64,
        f_lo: f64,
        f_hi: f64,
        b: &DVec,
    ) -> Result<Option<f64>, MnaError> {
        if !(f_lo > 0.0) || !(f_hi > f_lo) {
            return Err(MnaError::InvalidRequest {
                reason: "need 0 < f_lo < f_hi",
            });
        }
        self.check_stimulus(b)?;
        let mut sys = self.sys.lock().expect("ac workspace poisoned");
        let mut mag = |freq: f64| -> Result<f64, MnaError> {
            check_freq(freq)?;
            self.fill_factor(&mut sys, freq)?;
            let x = sys.solve(|i| Complex64::from_real(b[i]))?;
            Ok(if node.is_ground() {
                0.0
            } else {
                x[node.index() - 1].abs()
            })
        };
        if mag(f_lo)? < target {
            return Ok(None); // already below target at the low end
        }
        // Scan upward in fractional decades until the magnitude drops below
        // the target.
        let steps_per_decade = 4.0;
        let ratio = 10f64.powf(1.0 / steps_per_decade);
        let mut f = f_lo * ratio;
        let mut prev_f = f_lo;
        let mut bracket = None;
        while f <= f_hi * (1.0 + 1e-12) {
            let m = mag(f)?;
            if m < target {
                bracket = Some((prev_f, f));
                break;
            }
            prev_f = f;
            f *= ratio;
        }
        let (mut lo, mut hi) = match bracket {
            Some(b) => b,
            None => return Ok(None),
        };
        // Bisection on log-frequency.
        for _ in 0..80 {
            let mid = (lo * hi).sqrt();
            let m = mag(mid)?;
            if m >= target {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi / lo < 1.0 + 1e-12 {
                break;
            }
        }
        Ok(Some((lo * hi).sqrt()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DcOp, MosfetModel, MosfetParams};

    fn rc_lowpass() -> (Circuit, NodeId) {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.voltage_source("VIN", vin, Circuit::GROUND, 0.0)
            .unwrap();
        ckt.set_ac("VIN", 1.0).unwrap();
        ckt.resistor("R1", vin, vout, 1e3).unwrap();
        ckt.capacitor("C1", vout, Circuit::GROUND, 1e-9).unwrap();
        (ckt, vout)
    }

    #[test]
    fn rc_pole_frequency() {
        let (ckt, vout) = rc_lowpass();
        let op = DcOp::new(&ckt).solve().unwrap();
        let ac = AcSolver::new(&ckt, &op);
        let f3db = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
        let h = ac.solve(f3db).unwrap().voltage(vout);
        assert!((h.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
        assert!((h.arg().to_degrees() + 45.0).abs() < 1e-6);
        // Low-frequency gain ~ 1, 20 dB/dec rolloff far above the pole.
        let lo = ac.solve(1.0).unwrap().voltage(vout).abs();
        assert!((lo - 1.0).abs() < 1e-6);
        let m1 = ac.solve(100.0 * f3db).unwrap().voltage(vout).abs();
        let m2 = ac.solve(1000.0 * f3db).unwrap().voltage(vout).abs();
        assert!((m1 / m2 - 10.0).abs() < 0.1);
    }

    #[test]
    fn dc_frequency_allowed() {
        let (ckt, vout) = rc_lowpass();
        let op = DcOp::new(&ckt).solve().unwrap();
        let ac = AcSolver::new(&ckt, &op);
        let h = ac.solve(0.0).unwrap().voltage(vout);
        assert!((h.abs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn negative_frequency_rejected() {
        let (ckt, _) = rc_lowpass();
        let op = DcOp::new(&ckt).solve().unwrap();
        let ac = AcSolver::new(&ckt, &op);
        assert!(matches!(
            ac.solve(-1.0),
            Err(MnaError::InvalidRequest { .. })
        ));
    }

    #[test]
    fn find_crossing_locates_unity_gain() {
        // Integrator-like: gain 100 at DC, single pole; crossing where |H|=1.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.voltage_source("VIN", vin, Circuit::GROUND, 0.0)
            .unwrap();
        ckt.set_ac("VIN", 1.0).unwrap();
        // VCCS driving an RC load: H(0) = gm·R = 100.
        ckt.vccs("G1", vout, Circuit::GROUND, Circuit::GROUND, vin, 1e-3)
            .unwrap();
        ckt.resistor("RL", vout, Circuit::GROUND, 100e3).unwrap();
        ckt.capacitor("CL", vout, Circuit::GROUND, 1e-9).unwrap();
        let op = DcOp::new(&ckt).solve().unwrap();
        let ac = AcSolver::new(&ckt, &op);
        // (tolerance accounts for the gmin shunt at the output node)
        assert!((ac.solve(0.0).unwrap().voltage(vout).abs() - 100.0).abs() < 1e-3);
        let fu = ac.find_crossing(vout, 1.0, 1.0, 1e12).unwrap().unwrap();
        // Analytic: |H| = 100/√(1+(2πf RC)²) = 1 → 2πf RC = √9999.
        let fexp = (9999.0f64).sqrt() / (2.0 * std::f64::consts::PI * 100e3 * 1e-9);
        assert!((fu / fexp - 1.0).abs() < 1e-3, "fu={fu} expected {fexp}");
    }

    #[test]
    fn find_crossing_none_when_below_target() {
        let (ckt, vout) = rc_lowpass();
        let op = DcOp::new(&ckt).solve().unwrap();
        let ac = AcSolver::new(&ckt, &op);
        // Max gain is 1; never crosses 2.
        assert!(ac.find_crossing(vout, 2.0, 1.0, 1e9).unwrap().is_none());
    }

    #[test]
    fn common_source_amplifier_gain_and_rolloff() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let gate = ckt.node("g");
        let out = ckt.node("out");
        ckt.voltage_source("VDD", vdd, Circuit::GROUND, 3.0)
            .unwrap();
        ckt.voltage_source("VG", gate, Circuit::GROUND, 1.0)
            .unwrap();
        ckt.set_ac("VG", 1.0).unwrap();
        ckt.resistor("RD", vdd, out, 20e3).unwrap();
        ckt.capacitor("CL", out, Circuit::GROUND, 1e-12).unwrap();
        let params = MosfetParams::new(MosfetModel::default_nmos(), 10e-6, 1e-6);
        ckt.mosfet("M1", out, gate, Circuit::GROUND, Circuit::GROUND, params)
            .unwrap();
        let op = DcOp::new(&ckt).solve().unwrap();
        let m = op.mosfet_op("M1").unwrap().clone();
        let ac = AcSolver::new(&ckt, &op);
        let h0 = ac.solve(0.0).unwrap().voltage(out);
        // Common source: Av ≈ −gm·(RD ∥ 1/gds); phase ≈ 180°.
        let rd_eff = 1.0 / (1.0 / 20e3 + m.gds);
        let av = m.gm * rd_eff;
        assert!(h0.re < 0.0, "inverting stage");
        assert!(
            (h0.abs() / av - 1.0).abs() < 0.05,
            "|H|={} vs {av}",
            h0.abs()
        );
        // Gain must fall at high frequency (CL + device caps).
        let hf = ac.solve(10e9).unwrap().voltage(out).abs();
        assert!(hf < h0.abs());
    }

    #[test]
    fn driven_solve_is_bit_identical_to_rebuilt_solver() {
        // The clone + clear_ac + set_ac + AcSolver::new path must give the
        // same bits as drive() + solve_driven() on the shared solver — the
        // system matrix does not depend on the stimulus magnitudes.
        let (ckt, vout) = rc_lowpass();
        let op = DcOp::new(&ckt).solve().unwrap();
        let shared = AcSolver::new(&ckt, &op);
        let b_half = shared.drive(&[("VIN", 0.5)]).unwrap();

        let mut ckt2 = ckt.clone();
        ckt2.clear_ac();
        ckt2.set_ac("VIN", 0.5).unwrap();
        let rebuilt = AcSolver::new(&ckt2, &op);

        for f in [0.0, 10.0, 159154.9, 1e8] {
            let a = shared.solve_driven(f, &b_half).unwrap().voltage(vout);
            let want = rebuilt.solve(f).unwrap().voltage(vout);
            assert_eq!(a.re.to_bits(), want.re.to_bits(), "f={f}");
            assert_eq!(a.im.to_bits(), want.im.to_bits(), "f={f}");
        }
    }

    #[test]
    fn adjoint_gain_identity() {
        // With Aᵀλ = e_out, the gain is h = e_outᵀ·x = λᵀ·b.
        let (ckt, vout) = rc_lowpass();
        let op = DcOp::new(&ckt).solve().unwrap();
        let ac = AcSolver::new(&ckt, &op);
        let n = ckt.num_unknowns();
        for f in [0.0, 1e3, 159154.9, 1e7] {
            let h = ac.solve(f).unwrap().voltage(vout);
            let mut e_out = CVec::zeros(n);
            e_out[vout.index() - 1] = Complex64::ONE;
            let lambda = ac.solve_adjoint(f, &e_out).unwrap();
            let mut h_adj = Complex64::ZERO;
            for i in 0..n {
                h_adj += lambda[i] * Complex64::from_real(ac.b[i]);
            }
            assert!((h_adj - h).abs() <= 1e-12 * h.abs().max(1.0), "f={f}");
        }
    }

    #[test]
    fn delta_predicts_perturbed_gain_first_order() {
        // Perturb R by 0.1%: ΔH ≈ −λᵀ·ΔA·y must match the recomputed gain
        // to first order (error O(‖ΔA‖²) ≈ 1e-6 relative).
        let (ckt, vout) = rc_lowpass();
        let op = DcOp::new(&ckt).solve().unwrap();
        let ac = AcSolver::new(&ckt, &op);
        let n = ckt.num_unknowns();

        let mut pert = Circuit::new();
        let vin = pert.node("in");
        let vo = pert.node("out");
        pert.voltage_source("VIN", vin, Circuit::GROUND, 0.0)
            .unwrap();
        pert.set_ac("VIN", 1.0).unwrap();
        pert.resistor("R1", vin, vo, 1e3 * 1.001).unwrap();
        pert.capacitor("C1", vo, Circuit::GROUND, 1e-9).unwrap();
        let op_p = DcOp::new(&pert).solve().unwrap();
        let delta = ac.delta(&pert, op_p.unknowns());
        let exact = AcSolver::new(&pert, &op_p);

        let f3db = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
        for f in [f3db, 10.0 * f3db] {
            let sol = ac.solve(f).unwrap();
            let h = sol.voltage(vout);
            let mut e_out = CVec::zeros(n);
            e_out[vout.index() - 1] = Complex64::ONE;
            let lambda = ac.solve_adjoint(f, &e_out).unwrap();
            let dh = -delta.bilinear(f, &lambda, sol.unknowns());
            let h_exact = exact.solve(f).unwrap().voltage(vout);
            let err = ((h + dh) - h_exact).abs();
            assert!(err < 1e-5 * h.abs(), "f={f} err={err}");
        }
    }

    /// The dense referee of [`AcDelta::bilinear`]: the double loop over
    /// all `n²` entries of `ΔA`, forming each delta on the fly.
    fn dense_delta_bilinear(
        (g, c, gp, cp): (&DMat, &DMat, &DMat, &DMat),
        freq: f64,
        lambda: &CVec,
        y: &CVec,
    ) -> Complex64 {
        let omega = 2.0 * std::f64::consts::PI * freq;
        let n = g.nrows();
        let mut acc = Complex64::ZERO;
        for i in 0..n {
            let li = lambda[i];
            if li == Complex64::ZERO {
                continue;
            }
            let mut row = Complex64::ZERO;
            for j in 0..n {
                let dg = gp[(i, j)] - g[(i, j)];
                let dc = cp[(i, j)] - c[(i, j)];
                if dg != 0.0 || dc != 0.0 {
                    row += Complex64::new(dg, omega * dc) * y[j];
                }
            }
            acc += li * row;
        }
        acc
    }

    /// Bit equality, except that any NaN equals any NaN: Rust leaves the
    /// sign and payload of a NaN an operation produces unspecified, and the
    /// compiler may swap the operands of a commutative operation.
    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Maps a drawn `(code, value)` pair onto a matrix or vector entry:
    /// mostly ordinary values, with exact zeros of both signs, NaN and
    /// infinities mixed in.
    fn special(code: u32, value: f64) -> f64 {
        match code {
            0..=2 => 0.0,
            3 => -0.0,
            4 => f64::NAN,
            5 => f64::INFINITY,
            6 => f64::NEG_INFINITY,
            7 => value * 1e-300,
            _ => value,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        /// The entry-based kernel gives the dense double loop's bits: empty
        /// deltas, rows with `λᵢ = 0`, ±0.0, NaN and ±inf entries, at
        /// ω = 0 and ω > 0.
        #[test]
        fn entry_bilinear_matches_dense_bits(
            n in 1usize..7,
            draws in proptest::prelude::prop::collection::vec(
                (0u32..24, -2.0..2.0f64),
                6 * 7 * 7,
            ),
            unchanged in 0u32..4,
            freq_code in 0u32..3,
            freq in 1.0..1e9f64,
        ) {
            let mut it = draws.iter().map(|&(k, v)| special(k, v));
            let mut draw_mat = |base: Option<&DMat>| {
                let mut m = DMat::zeros(n, n);
                for i in 0..n {
                    for j in 0..n {
                        let v = it.next().unwrap();
                        m[(i, j)] = match base {
                            // Perturbed entries equal the base entry
                            // unless the draw says otherwise.
                            Some(b) if v == 0.0 || unchanged == 0 => b[(i, j)],
                            Some(b) => b[(i, j)] + v,
                            None => v,
                        };
                    }
                }
                m
            };
            let g = draw_mat(None);
            let c = draw_mat(None);
            let gp = draw_mat(Some(&g));
            let cp = draw_mat(Some(&c));
            let mut vec_of = |len: usize| {
                let mut v = CVec::zeros(len);
                for i in 0..len {
                    let (re, im) = (it.next().unwrap(), it.next().unwrap());
                    v[i] = Complex64::new(re, im);
                }
                v
            };
            let lambda = vec_of(n);
            let y = vec_of(n);
            let freq = if freq_code == 0 { 0.0 } else { freq };

            let delta = AcDelta::between(&g, &c, &gp, &cp);
            let finite = |m: &DMat| m.as_slice().iter().all(|v| v.is_finite());
            if unchanged == 0 && finite(&g) && finite(&c) {
                // An unperturbed finite system has an empty delta.
                proptest::prop_assert_eq!(delta.entries.len(), 0);
            }
            let got = delta.bilinear(freq, &lambda, &y);
            let want = dense_delta_bilinear((&g, &c, &gp, &cp), freq, &lambda, &y);
            proptest::prop_assert!(same_bits(got.re, want.re), "re {got:?} vs {want:?}");
            proptest::prop_assert!(same_bits(got.im, want.im), "im {got:?} vs {want:?}");
        }
    }

    #[test]
    fn delta_extracted_from_a_circuit_matches_the_dense_referee() {
        // Perturb R and C of the RC low-pass: the extracted entries and the
        // dense loop over freshly stamped matrices agree bit for bit.
        let (ckt, vout) = rc_lowpass();
        let op = DcOp::new(&ckt).solve().unwrap();
        let ac = AcSolver::new(&ckt, &op);
        let mut pert = ckt.clone();
        let r1 = pert.find("R1").unwrap();
        let c1 = pert.find("C1").unwrap();
        pert.set_value(r1, 1.2e3).unwrap();
        pert.set_value(c1, 0.9e-9).unwrap();
        let op_p = DcOp::new(&pert).solve().unwrap();
        let (gp, cp, _) = stamp_gcb(&pert, op_p.unknowns());
        let delta = ac.delta(&pert, op_p.unknowns());
        assert!(!delta.entries.is_empty());
        let n = ckt.num_unknowns();
        let mut e_out = CVec::zeros(n);
        e_out[vout.index() - 1] = Complex64::ONE;
        for f in [0.0, 1e3, 159154.9] {
            let y = ac.solve(f).unwrap().unknowns().clone();
            let lambda = ac.solve_adjoint(f, &e_out).unwrap();
            let got = delta.bilinear(f, &lambda, &y);
            let want = dense_delta_bilinear((&ac.g, &ac.c, &gp, &cp), f, &lambda, &y);
            assert_eq!(got.re.to_bits(), want.re.to_bits(), "f={f}");
            assert_eq!(got.im.to_bits(), want.im.to_bits(), "f={f}");
        }
    }

    #[test]
    fn cap_bilinear_matches_frequency_derivative() {
        // ∂H/∂f = −j2π·λᵀ·C·y, checked against a central difference.
        let (ckt, vout) = rc_lowpass();
        let op = DcOp::new(&ckt).solve().unwrap();
        let ac = AcSolver::new(&ckt, &op);
        let n = ckt.num_unknowns();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
        let sol = ac.solve(f0).unwrap();
        let mut e_out = CVec::zeros(n);
        e_out[vout.index() - 1] = Complex64::ONE;
        let lambda = ac.solve_adjoint(f0, &e_out).unwrap();
        let dhdf = -(Complex64::I * (2.0 * std::f64::consts::PI))
            * ac.cap_bilinear(&lambda, sol.unknowns());
        let df = f0 * 1e-6;
        let hp = ac.solve(f0 + df).unwrap().voltage(vout);
        let hm = ac.solve(f0 - df).unwrap().voltage(vout);
        let fd = (hp - hm) * (1.0 / (2.0 * df));
        assert!(
            (dhdf - fd).abs() < 1e-6 * fd.abs(),
            "dhdf={dhdf:?} fd={fd:?}"
        );
    }

    #[test]
    fn drive_rejects_unknown_source() {
        let (ckt, _) = rc_lowpass();
        let op = DcOp::new(&ckt).solve().unwrap();
        let ac = AcSolver::new(&ckt, &op);
        assert!(matches!(
            ac.drive(&[("NOPE", 1.0)]),
            Err(MnaError::NotFound { .. })
        ));
    }

    #[test]
    fn branch_current_through_source() {
        let (ckt, _) = rc_lowpass();
        let op = DcOp::new(&ckt).solve().unwrap();
        let ac = AcSolver::new(&ckt, &op);
        let f3db = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
        let i = ac.solve(f3db).unwrap().branch_current("VIN").unwrap();
        // |I| = |V| / |Z|, Z = R + 1/(jωC) with |Z| = √2·R at the pole.
        let want = 1.0 / (2f64.sqrt() * 1e3);
        assert!((i.abs() / want - 1.0).abs() < 1e-9);
    }
}

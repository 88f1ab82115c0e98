//! Shared opamp measurement harness — open-loop gain, unity-gain frequency,
//! phase margin, CMRR, slew rate and power from MNA simulations — plus the
//! [`Measure`] vocabulary that maps deck `.spec` lines onto the harness.
//!
//! # Measurement methodology
//!
//! Opamps cannot be simulated open-loop at DC — the operating point is
//! exponentially sensitive to input offset. The harness therefore runs two
//! configurations per evaluation:
//!
//! 1. **Feedback configuration** (unity buffer, output wired to the
//!    inverting gate): yields the true operating point, the power, the
//!    saturation margins for the functional constraints, and the (optional)
//!    large-signal slew-rate transient.
//! 2. **Open-loop configuration**: the inverting input is driven by an
//!    ideal source at exactly the output voltage found in step 1 (gates
//!    draw no DC current, so this reproduces the same operating point),
//!    after which small-signal AC analyses measure the differential and
//!    common-mode transfer functions.
//!
//! Simulation counting: every DC solve, AC analysis (all frequency points of
//! one stimulus configuration) and transient run counts as one simulator
//! call — mirroring how the paper's Table 7 counts TITAN invocations.

use std::sync::Arc;

use specwise_linalg::{CVec, Complex64, DVec};
use specwise_mna::{
    AcSolver, Circuit, DcSensitivity, DcSolution, NodeId, Stimulus, Transient, TransientOptions,
};

use crate::warm::{WarmConfig, WarmKey, WarmStartCache};
use crate::{CktError, OperatingPoint, SimCounter};

/// Everything a [`Measure`] can read: the harness metrics plus the feedback
/// configuration's netlist and DC operating point.
#[derive(Debug)]
pub struct MeasureContext<'a> {
    /// The metrics extracted by the measurement harness.
    pub metrics: &'a OpampMetrics,
    /// The feedback-configuration DC operating point.
    pub op: &'a DcSolution,
    /// The feedback-configuration netlist (for node lookups).
    pub circuit: &'a Circuit,
}

/// A user-provided measurement function: the payload of [`Measure::Custom`]
/// and the argument of `Testbench::with_custom_measure`.
pub type MeasureFn = Arc<dyn Fn(&MeasureContext) -> Result<f64, CktError> + Send + Sync>;

/// One named measurement of a deck-driven testbench: what a `.spec` line's
/// `<measure>` token selects.
#[derive(Clone)]
pub enum Measure {
    /// Open-loop DC gain \[dB\] (`dcgain`).
    DcGain,
    /// Unity-gain frequency \[Hz\] (`ugf`).
    UnityGainFreq,
    /// Phase margin \[degrees\] (`pm`).
    PhaseMargin,
    /// Common-mode rejection ratio \[dB\] (`cmrr`).
    Cmrr,
    /// Power-supply rejection ratio \[dB\] (`psrr`).
    Psrr,
    /// Positive slew rate \[V/s\] (`slew`).
    SlewRate,
    /// Total supply power \[W\] (`power`).
    Power,
    /// DC voltage of a node in the feedback configuration
    /// (`vdc(<node>)`).
    DcNodeVoltage(String),
    /// User escape hatch: an arbitrary function of the measurement context,
    /// attached programmatically via `Testbench::with_custom_measure`.
    Custom(MeasureFn),
}

impl std::fmt::Debug for Measure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Measure::DcGain => write!(f, "DcGain"),
            Measure::UnityGainFreq => write!(f, "UnityGainFreq"),
            Measure::PhaseMargin => write!(f, "PhaseMargin"),
            Measure::Cmrr => write!(f, "Cmrr"),
            Measure::Psrr => write!(f, "Psrr"),
            Measure::SlewRate => write!(f, "SlewRate"),
            Measure::Power => write!(f, "Power"),
            Measure::DcNodeVoltage(node) => write!(f, "DcNodeVoltage({node:?})"),
            Measure::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

impl Measure {
    /// Parses a `.spec` measure token (`dcgain`, `ugf`, `pm`, `cmrr`,
    /// `psrr`, `slew`, `power`, `vdc(<node>)`); `None` for unknown tokens.
    pub fn parse(token: &str) -> Option<Self> {
        match token.to_ascii_lowercase().as_str() {
            "dcgain" => Some(Measure::DcGain),
            "ugf" => Some(Measure::UnityGainFreq),
            "pm" => Some(Measure::PhaseMargin),
            "cmrr" => Some(Measure::Cmrr),
            "psrr" => Some(Measure::Psrr),
            "slew" => Some(Measure::SlewRate),
            "power" => Some(Measure::Power),
            lower => {
                // `vdc(<node>)` keeps the node name's original case.
                let inner = lower.strip_prefix("vdc(")?.strip_suffix(')')?;
                if inner.is_empty() {
                    return None;
                }
                let node = &token[4..4 + inner.len()];
                Some(Measure::DcNodeVoltage(node.to_string()))
            }
        }
    }

    /// Evaluates the measurement in SI units.
    ///
    /// # Errors
    ///
    /// Returns a [`CktError`] when a referenced node does not exist or a
    /// custom closure fails.
    pub fn eval(&self, ctx: &MeasureContext) -> Result<f64, CktError> {
        match self {
            Measure::DcGain => Ok(ctx.metrics.a0_db),
            Measure::UnityGainFreq => Ok(ctx.metrics.ft_hz),
            Measure::PhaseMargin => Ok(ctx.metrics.phase_margin_deg),
            Measure::Cmrr => Ok(ctx.metrics.cmrr_db),
            Measure::Psrr => Ok(ctx.metrics.psrr_db),
            Measure::SlewRate => Ok(ctx.metrics.slew_v_per_s),
            Measure::Power => Ok(ctx.metrics.power_w),
            Measure::DcNodeVoltage(node) => {
                let id = ctx.circuit.find_node(node).map_err(CktError::from)?;
                Ok(ctx.op.voltage(id))
            }
            Measure::Custom(f) => f(ctx),
        }
    }
}

/// How the slew rate is extracted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SlewRateMethod {
    /// `SR = I_tail / C_slew` from the DC operating point — the textbook
    /// large-signal limit; fast enough for the optimizer's inner loop.
    Analytic,
    /// Large-signal step transient on the unity-feedback configuration;
    /// reads the maximum output `|dv/dt|`.
    Transient {
        /// Time step \[s\].
        dt: f64,
        /// Stop time \[s\].
        t_stop: f64,
        /// Input step amplitude around the common mode \[V\].
        step: f64,
    },
}

/// The measured performance set of an opamp evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpampMetrics {
    /// Open-loop DC gain \[dB\].
    pub a0_db: f64,
    /// Unity-gain (transit) frequency \[Hz\].
    pub ft_hz: f64,
    /// Phase margin \[degrees\].
    pub phase_margin_deg: f64,
    /// Common-mode rejection ratio \[dB\].
    pub cmrr_db: f64,
    /// Positive slew rate \[V/s\].
    pub slew_v_per_s: f64,
    /// Total supply power \[W\].
    pub power_w: f64,
    /// Power-supply rejection ratio (DC, positive supply) \[dB\].
    pub psrr_db: f64,
}

/// A fully built opamp netlist plus the handles the harness needs.
#[derive(Debug)]
pub(crate) struct BuiltOpamp {
    /// The netlist (temperature already set from θ).
    pub circuit: Circuit,
    /// Name of the non-inverting input voltage source.
    pub vinp_src: String,
    /// Name of the inverting input voltage source (absent in feedback
    /// configuration, where the gate is wired to the output node).
    pub vinn_src: Option<String>,
    /// Output node.
    pub out: NodeId,
    /// Name of the supply voltage source.
    pub vdd_src: String,
    /// Input common-mode voltage \[V\].
    pub vcm: f64,
    /// Capacitance that limits slewing \[F\].
    pub slew_cap: f64,
    /// Name of the tail-current device (its |I_D| limits slewing).
    pub tail_device: String,
}

/// Netlist factory implemented by each opamp topology.
pub(crate) trait OpampBuilder {
    /// Builds the netlist at `(d, ŝ, θ)`.
    ///
    /// With `feedback == true` the output node is wired to the inverting
    /// gate (unity buffer) and `vinn_dc` is ignored; otherwise the inverting
    /// input is driven by an ideal source at `vinn_dc`.
    fn build(
        &self,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
        feedback: bool,
        vinn_dc: f64,
    ) -> Result<BuiltOpamp, CktError>;
}

/// Value returned when the gain never reaches unity (degenerate design):
/// pessimistic but finite, so the optimizer sees a very bad margin rather
/// than an error.
const DEGENERATE_FT_HZ: f64 = 1.0;

/// The harness output: metrics plus the feedback configuration's netlist
/// and operating point (what node-level measures read).
#[derive(Debug)]
pub(crate) struct Measured {
    /// The extracted metrics.
    pub metrics: OpampMetrics,
    /// The feedback-configuration netlist.
    pub fb_circuit: Circuit,
    /// The feedback-configuration DC operating point.
    pub op_fb: DcSolution,
}

/// The shared-solver AC stage output. One [`AcSolver`] built on the
/// open-loop circuit serves the differential, common-mode and supply
/// stimuli — the small-signal system matrices are stimulus-independent,
/// only the right-hand side differs — and the forward solutions and
/// complex gains are kept for the adjoint direction pass to reuse.
struct AcStage {
    ac: AcSolver,
    h0: Complex64,
    y_dm0: CVec,
    a0_db: f64,
    /// `Some(ft)` when the magnitude crossed unity; `None` is the
    /// degenerate case reported as [`DEGENERATE_FT_HZ`].
    crossing: Option<f64>,
    h_t: Complex64,
    y_t: Option<CVec>,
    ft_hz: f64,
    phase_margin_deg: f64,
    h_cm0: Complex64,
    y_cm0: CVec,
    cmrr_db: f64,
    h_ps0: Complex64,
    y_ps0: CVec,
    psrr_db: f64,
}

/// Runs the three small-signal analyses on one shared solver. The counter
/// increments (dm gain, crossing search, cm, ps) and every metric formula
/// match the historical per-stimulus-solver flow exactly.
fn ac_stage(
    ol: &BuiltOpamp,
    vinn: &str,
    op_ol: &DcSolution,
    counter: &SimCounter,
) -> Result<AcStage, CktError> {
    let ac = AcSolver::new(&ol.circuit, op_ol);

    // Differential drive: +1/2 on vinp, −1/2 on vinn.
    let b_dm = ac
        .drive(&[(&ol.vinp_src, 0.5), (vinn, -0.5)])
        .map_err(CktError::from)?;
    let sol_dm0 = ac.solve_driven(0.0, &b_dm).map_err(CktError::from)?;
    let h0 = sol_dm0.voltage(ol.out);
    counter.add(1);
    let adm0 = h0.abs();
    let a0_db = 20.0 * adm0.max(1e-30).log10();

    // Unity-gain frequency and phase margin.
    let crossing = ac
        .find_crossing_driven(ol.out, 1.0, 1.0, 20e9, &b_dm)
        .map_err(CktError::from)?;
    let (h_t, y_t, ft_hz, phase_margin_deg) = match crossing {
        Some(ft) => {
            let sol_t = ac.solve_driven(ft, &b_dm).map_err(CktError::from)?;
            let at_ft = sol_t.voltage(ol.out);
            // Phase margin relative to the stage's own low-frequency phase:
            // the excess phase lag accumulated up to ft determines stability
            // in unity feedback.
            let phase_lag = (h0.arg() - at_ft.arg()).rem_euclid(2.0 * std::f64::consts::PI);
            (
                at_ft,
                Some(sol_t.unknowns().clone()),
                ft,
                180.0 - phase_lag.to_degrees(),
            )
        }
        None => (Complex64::ZERO, None, DEGENERATE_FT_HZ, 0.0),
    };
    counter.add(1);

    // Common-mode drive: +1 on both inputs.
    let b_cm = ac
        .drive(&[(&ol.vinp_src, 1.0), (vinn, 1.0)])
        .map_err(CktError::from)?;
    let sol_cm0 = ac.solve_driven(0.0, &b_cm).map_err(CktError::from)?;
    let h_cm0 = sol_cm0.voltage(ol.out);
    counter.add(1);
    let acm0 = h_cm0.abs();
    let cmrr_db = if acm0 <= 0.0 {
        200.0
    } else {
        (20.0 * (adm0 / acm0).log10()).min(200.0)
    };

    // Supply drive: +1 on VDD, inputs quiet — PSRR = Adm/Apsr.
    let b_ps = ac.drive(&[(&ol.vdd_src, 1.0)]).map_err(CktError::from)?;
    let sol_ps0 = ac.solve_driven(0.0, &b_ps).map_err(CktError::from)?;
    let h_ps0 = sol_ps0.voltage(ol.out);
    counter.add(1);
    let apsr0 = h_ps0.abs();
    let psrr_db = if apsr0 <= 0.0 {
        200.0
    } else {
        (20.0 * (adm0 / apsr0).log10()).min(200.0)
    };

    Ok(AcStage {
        ac,
        h0,
        y_dm0: sol_dm0.unknowns().clone(),
        a0_db,
        crossing,
        h_t,
        y_t,
        ft_hz,
        phase_margin_deg,
        h_cm0,
        y_cm0: sol_cm0.unknowns().clone(),
        cmrr_db,
        h_ps0,
        y_ps0: sol_ps0.unknowns().clone(),
        psrr_db,
    })
}

/// Extracts the slew rate from the feedback configuration.
fn slew_rate(
    fb: &BuiltOpamp,
    op_fb: &DcSolution,
    sr_method: SlewRateMethod,
    counter: &SimCounter,
) -> Result<f64, CktError> {
    match sr_method {
        SlewRateMethod::Analytic => {
            let tail = op_fb
                .mosfet_op(&fb.tail_device)
                .ok_or(CktError::Extraction {
                    performance: "slew rate",
                    reason: "tail device not found",
                })?;
            Ok(tail.id.abs() / fb.slew_cap)
        }
        SlewRateMethod::Transient { dt, t_stop, step } => {
            let mut tr_ckt = fb.circuit.clone();
            tr_ckt
                .set_stimulus(
                    &fb.vinp_src,
                    Stimulus::Step {
                        v0: fb.vcm,
                        v1: fb.vcm + step,
                        t0: 4.0 * dt,
                        t_rise: dt,
                    },
                )
                .map_err(CktError::from)?;
            let result = Transient::new(&tr_ckt, TransientOptions::new(dt, t_stop))
                .run()
                .map_err(CktError::from)?;
            counter.add(1);
            Ok(result.max_slope(fb.out))
        }
    }
}

/// Everything the base measurement pass computed, shared between the scalar
/// metric extraction ([`measure`]) and the adjoint direction pass
/// ([`measure_with_directions`]).
struct MeasureState {
    fb: BuiltOpamp,
    op_fb: DcSolution,
    slew_v_per_s: f64,
    power_w: f64,
    slew_is_transient: bool,
    ol: BuiltOpamp,
    op_ol: DcSolution,
    acs: AcStage,
}

impl MeasureState {
    fn metrics(&self) -> OpampMetrics {
        OpampMetrics {
            a0_db: self.acs.a0_db,
            ft_hz: self.acs.ft_hz,
            phase_margin_deg: self.acs.phase_margin_deg,
            cmrr_db: self.acs.cmrr_db,
            slew_v_per_s: self.slew_v_per_s,
            power_w: self.power_w,
            psrr_db: self.acs.psrr_db,
        }
    }

    fn into_measured(self) -> Measured {
        let metrics = self.metrics();
        Measured {
            metrics,
            fb_circuit: self.fb.circuit,
            op_fb: self.op_fb,
        }
    }
}

/// The base measurement flow, keeping every intermediate the adjoint
/// direction pass needs.
#[allow(clippy::too_many_arguments)]
fn measure_full(
    builder: &dyn OpampBuilder,
    identity: u64,
    d: &DVec,
    s_hat: &DVec,
    theta: &OperatingPoint,
    sr_method: SlewRateMethod,
    counter: &SimCounter,
    warm: &WarmStartCache,
) -> Result<MeasureState, CktError> {
    // 1. Feedback configuration: operating point, power, slew.
    let fb = builder.build(d, s_hat, theta, true, 0.0)?;
    let op_fb = warm
        .solve(
            &fb.circuit,
            WarmKey::new(identity, WarmConfig::Feedback, d, s_hat, theta, &[]),
        )
        .map_err(CktError::from)?;
    counter.add(1);
    let vout_fb = op_fb.voltage(fb.out);
    let i_vdd = op_fb.branch_current(&fb.vdd_src).map_err(CktError::from)?;
    let power_w = theta.vdd * i_vdd.abs();
    let slew_v_per_s = slew_rate(&fb, &op_fb, sr_method, counter)?;

    // 2. Open-loop configuration biased by the feedback result.
    let ol = builder.build(d, s_hat, theta, false, vout_fb)?;
    let vinn = ol.vinn_src.clone().ok_or(CktError::Extraction {
        performance: "open-loop analysis",
        reason: "builder did not provide an inverting input source",
    })?;
    let op_ol = warm
        .solve(
            &ol.circuit,
            WarmKey::new(identity, WarmConfig::OpenLoop, d, s_hat, theta, &[vout_fb]),
        )
        .map_err(CktError::from)?;
    counter.add(1);

    let acs = ac_stage(&ol, &vinn, &op_ol, counter)?;
    Ok(MeasureState {
        fb,
        op_fb,
        slew_v_per_s,
        power_w,
        slew_is_transient: matches!(sr_method, SlewRateMethod::Transient { .. }),
        ol,
        op_ol,
        acs,
    })
}

/// Runs the full measurement flow. `identity` namespaces the warm-start
/// cache entries per environment/netlist.
#[allow(clippy::too_many_arguments)]
pub(crate) fn measure(
    builder: &dyn OpampBuilder,
    identity: u64,
    d: &DVec,
    s_hat: &DVec,
    theta: &OperatingPoint,
    sr_method: SlewRateMethod,
    counter: &SimCounter,
    warm: &WarmStartCache,
) -> Result<Measured, CktError> {
    measure_full(builder, identity, d, s_hat, theta, sr_method, counter, warm)
        .map(MeasureState::into_measured)
}

/// Runs the base measurement flow once, then evaluates every perturbed
/// point in `directions` (full `(d′, ŝ′)` pairs) by sensitivity analysis on
/// the base factorizations instead of re-simulating: one frozen-Jacobian
/// Newton step per DC configuration ([`DcSensitivity`]) and first-order
/// transfer-function updates `ΔH = −λᵀ·ΔA·y` from the two cached AC
/// adjoint solves (λ at DC and at the unity-gain crossing). The crossing
/// itself shifts by `Δft = −Δ|H|(ft) / (∂|H|/∂f)` with
/// `∂H/∂f = −j2π·λᵀCy`.
///
/// Returns `Ok(None)` when the shortcut does not apply — transient slew
/// extraction, degenerate unity-gain crossing, ill-conditioned magnitude
/// slope, or a sensitivity factorization/solve failure — so callers fall
/// back to finite differences.
#[allow(clippy::too_many_arguments)]
pub(crate) fn measure_with_directions(
    builder: &dyn OpampBuilder,
    identity: u64,
    d: &DVec,
    s_hat: &DVec,
    theta: &OperatingPoint,
    sr_method: SlewRateMethod,
    counter: &SimCounter,
    warm: &WarmStartCache,
    directions: &[(DVec, DVec)],
) -> Result<Option<(Measured, Vec<Measured>)>, CktError> {
    let state = measure_full(builder, identity, d, s_hat, theta, sr_method, counter, warm)?;
    if state.slew_is_transient {
        // A large-signal transient has no small-signal shortcut.
        return Ok(None);
    }
    let Some(ft) = state.acs.crossing else {
        // Degenerate crossing: ft is a sentinel, not a smooth function.
        return Ok(None);
    };
    let y_t = state
        .acs
        .y_t
        .as_ref()
        .expect("crossing implies a stored solution");

    let n_ol = state.ol.circuit.num_unknowns();
    let mut e_out = CVec::zeros(n_ol);
    e_out[state.ol.out.index() - 1] = Complex64::ONE;
    let ac = &state.acs.ac;
    let (lam0, lam_t) = match (ac.solve_adjoint(0.0, &e_out), ac.solve_adjoint(ft, &e_out)) {
        (Ok(a), Ok(b)) => (a, b),
        _ => return Ok(None),
    };
    let dhdf_t = -(Complex64::I * (2.0 * std::f64::consts::PI)) * ac.cap_bilinear(&lam_t, y_t);
    let h_t = state.acs.h_t;
    let slope = (h_t.conj() * dhdf_t).re / h_t.abs();
    if !slope.is_finite() || slope.abs() * ft < 1e-9 {
        // |H| locally flat in f: the crossing shift is ill-conditioned.
        return Ok(None);
    }
    let (sens_fb, sens_ol) = match (
        DcSensitivity::new(&state.fb.circuit, &state.op_fb),
        DcSensitivity::new(&state.ol.circuit, &state.op_ol),
    ) {
        (Ok(a), Ok(b)) => (a, b),
        _ => return Ok(None),
    };
    // Two DC factorizations plus two AC adjoint solves, amortized over
    // every direction.
    counter.add_adjoint(4);

    let mut perturbed = Vec::with_capacity(directions.len());
    for (dp, sp) in directions {
        let fbp = builder.build(dp, sp, theta, true, 0.0)?;
        let Ok(op_fbp) = sens_fb.solve_perturbed(&fbp.circuit) else {
            return Ok(None);
        };
        let vout_fbp = op_fbp.voltage(fbp.out);
        let i_vddp = op_fbp
            .branch_current(&fbp.vdd_src)
            .map_err(CktError::from)?;
        let power_wp = theta.vdd * i_vddp.abs();
        let slewp = slew_rate(&fbp, &op_fbp, SlewRateMethod::Analytic, counter)?;

        // The open-loop bias tracks the perturbed feedback output — an
        // RHS-only change the frozen-Jacobian step resolves exactly.
        let olp = builder.build(dp, sp, theta, false, vout_fbp)?;
        let Ok(op_olp) = sens_ol.solve_perturbed(&olp.circuit) else {
            return Ok(None);
        };
        let (gp, cp) = AcSolver::small_signal_matrices(&olp.circuit, &op_olp);

        let dh0 = -ac.delta_bilinear(&gp, &cp, 0.0, &lam0, &state.acs.y_dm0);
        let h0p = state.acs.h0 + dh0;
        let adm0p = h0p.abs();
        let a0p_db = 20.0 * adm0p.max(1e-30).log10();

        let dht = -ac.delta_bilinear(&gp, &cp, ft, &lam_t, y_t);
        let dmag = (h_t.conj() * dht).re / h_t.abs();
        let dft = -dmag / slope;
        let ftp = ft + dft;
        if !ftp.is_finite() || ftp <= 0.0 {
            // The first-order step left the model's validity range.
            return Ok(None);
        }
        let h_tp = h_t + dht + dhdf_t * dft;
        let phase_lagp = (h0p.arg() - h_tp.arg()).rem_euclid(2.0 * std::f64::consts::PI);
        let pmp = 180.0 - phase_lagp.to_degrees();

        let dhcm = -ac.delta_bilinear(&gp, &cp, 0.0, &lam0, &state.acs.y_cm0);
        let acm0p = (state.acs.h_cm0 + dhcm).abs();
        let cmrrp = if acm0p <= 0.0 {
            200.0
        } else {
            (20.0 * (adm0p / acm0p).log10()).min(200.0)
        };

        let dhps = -ac.delta_bilinear(&gp, &cp, 0.0, &lam0, &state.acs.y_ps0);
        let apsr0p = (state.acs.h_ps0 + dhps).abs();
        let psrrp = if apsr0p <= 0.0 {
            200.0
        } else {
            (20.0 * (adm0p / apsr0p).log10()).min(200.0)
        };

        perturbed.push(Measured {
            metrics: OpampMetrics {
                a0_db: a0p_db,
                ft_hz: ftp,
                phase_margin_deg: pmp,
                cmrr_db: cmrrp,
                slew_v_per_s: slewp,
                power_w: power_wp,
                psrr_db: psrrp,
            },
            fb_circuit: fbp.circuit,
            op_fb: op_fbp,
        });
    }
    // Each direction would otherwise have cost a full measurement: two DC
    // solves and four AC analyses.
    counter.add_fd_avoided(6 * directions.len() as u64);
    Ok(Some((state.into_measured(), perturbed)))
}

/// Builds the functional-constraint vector from the feedback operating
/// point: for every MOSFET, `vsat_margin − vsat_min`, `vov − vov_min` and
/// `vov_max − vov` (paper Sec. 5.1: "all transistors must be in saturation"
/// plus the lower/upper overdrive sizing rules of the feasibility-region
/// literature — the upper bound is what keeps every device in a healthy
/// gm/I_D regime, making performances weakly nonlinear inside the region,
/// cf. the paper's Fig. 4 argument).
pub(crate) fn saturation_constraints(
    op: &DcSolution,
    vsat_min: f64,
    vov_min: f64,
    vov_max: f64,
) -> DVec {
    let mut c = Vec::with_capacity(3 * op.mosfet_ops().len());
    for m in op.mosfet_ops() {
        c.push(m.vsat_margin - vsat_min);
        c.push(m.vov - vov_min);
        c.push(vov_max - m.vov);
    }
    DVec::from(c)
}

/// Helper used by topologies: pretty errors for simulation failures during
/// constraint evaluation. The solve is warm-started from the cache under the
/// constraint-configuration key derived from the design vector and θ.
pub(crate) fn dc_solve_counted(
    circuit: &Circuit,
    identity: u64,
    counter: &SimCounter,
    warm: &WarmStartCache,
    d: &DVec,
    theta: &OperatingPoint,
) -> Result<DcSolution, CktError> {
    let key = WarmKey::new(
        identity,
        WarmConfig::Constraint,
        d,
        &DVec::zeros(0),
        theta,
        &[],
    );
    let op = warm.solve(circuit, key);
    counter.add(1);
    op.map_err(CktError::from)
}

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
//!
//! # The last measurement
//!
//! Each bench keeps its last measurement as one record ([`LastMeasurement`])
//! and serves an exact repeat of it to an adjoint request
//! ([`measure_with_directions`]) without simulating: the worst-case search
//! checks convergence with a plain measurement at ŝ and then takes its
//! gradient at the same ŝ, and the Eq. 16 design gradient follows the
//! search's final ŝ gradient at the same point. A repeat is served only
//! when recomputing it would give the same bits (see
//! [`LastMeasurement::take_repeat`]), simulates nothing and counts no
//! simulations.

use std::sync::{Arc, Mutex};

use specwise_linalg::{CVec, Complex64, DVec};
use specwise_mna::{
    AcSolver, Circuit, DcSensitivity, DcSolution, NodeId, Stimulus, Transient, TransientOptions,
};

use crate::warm::{WarmConfig, WarmKey};
use crate::{CktError, OperatingPoint, SimCounter, Testbench};

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

/// One named measurement of a deck-driven testbench: what a `.spec` line's
/// `<measure>` token selects.
#[derive(Debug, Clone)]
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
    /// Returns a [`CktError`] when a referenced node does not exist.
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

/// A fully built opamp netlist plus the handles the harness needs; the
/// names are borrowed from the testbench.
#[derive(Debug)]
pub(crate) struct BuiltOpamp<'a> {
    /// The netlist (temperature already set from θ).
    pub circuit: Circuit,
    /// Name of the non-inverting input voltage source.
    pub vinp_src: &'a str,
    /// Name of the inverting input voltage source (absent in feedback
    /// configuration, where the gate is wired to the output node).
    pub vinn_src: Option<&'a str>,
    /// Output node.
    pub out: NodeId,
    /// Name of the supply voltage source.
    pub vdd_src: &'a str,
    /// Input common-mode voltage \[V\].
    pub vcm: f64,
    /// Capacitance that limits slewing \[F\].
    pub slew_cap: f64,
    /// Name of the tail-current device (its |I_D| limits slewing).
    pub tail_device: &'a str,
}

/// Value returned when the gain never reaches unity (degenerate design):
/// pessimistic but finite, so the optimizer sees a very bad margin rather
/// than an error.
const DEGENERATE_FT_HZ: f64 = 1.0;

/// The feedback configuration's netlist and DC operating point: what
/// node-level measures read.
#[derive(Debug)]
pub(crate) struct Feedback {
    /// The feedback-configuration netlist.
    pub circuit: Circuit,
    /// The feedback-configuration DC operating point.
    pub op: DcSolution,
}

/// The harness output: metrics plus the feedback configuration, shared with
/// the bench's last-measurement record.
#[derive(Debug)]
pub(crate) struct Measured {
    /// The extracted metrics.
    pub metrics: OpampMetrics,
    /// The feedback configuration.
    pub fb: Arc<Feedback>,
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
    /// The output adjoints `(λ(0), λ(ft))` when they were asked for, the
    /// gain crossed unity and both transposed solves succeeded.
    adjoints: Option<(CVec, CVec)>,
}

/// Runs the three small-signal analyses on one shared solver. The dm, cm
/// and ps stimuli at 0 Hz share one factorization, and the output
/// adjoints (with `adjoint`) are taken on the factors of the 0 Hz and the
/// final crossing solve. Results are unwrapped and counted in the
/// historical order (dm gain, crossing search, cm, ps), so the counter and
/// the error a failure reports match the one-solve-per-stimulus flow.
fn ac_stage(
    ol: &BuiltOpamp<'_>,
    vinn: &str,
    op_ol: &DcSolution,
    counter: &SimCounter,
    adjoint: bool,
) -> Result<AcStage, CktError> {
    let ac = AcSolver::new(&ol.circuit, op_ol);
    // The output selector of the adjoint solves. A grounded output never
    // crosses unity, so it needs none.
    let e_out = match ol.out.index().checked_sub(1) {
        Some(k) if adjoint => {
            let mut e = CVec::zeros(ol.circuit.num_unknowns());
            e[k] = Complex64::ONE;
            Some(e)
        }
        _ => None,
    };

    // Differential drive: +1/2 on vinp, −1/2 on vinn; common-mode drive:
    // +1 on both inputs; supply drive: +1 on VDD, inputs quiet.
    let b_dm = ac
        .drive(&[(ol.vinp_src, 0.5), (vinn, -0.5)])
        .map_err(CktError::from)?;
    let mut at_dc = ac.factor(0.0).map_err(CktError::from)?;
    let sol_dm0 = at_dc.solve_driven(&b_dm).map_err(CktError::from)?;
    let sol_cm0 = ac
        .drive(&[(ol.vinp_src, 1.0), (vinn, 1.0)])
        .and_then(|b| at_dc.solve_driven(&b));
    let sol_ps0 = ac
        .drive(&[(ol.vdd_src, 1.0)])
        .and_then(|b| at_dc.solve_driven(&b));
    let lam0 = e_out.as_ref().map(|e| at_dc.solve_adjoint(e));
    drop(at_dc);

    let h0 = sol_dm0.voltage(ol.out);
    counter.add(1);
    let adm0 = h0.abs();
    let a0_db = 20.0 * adm0.max(1e-30).log10();

    // Unity-gain frequency and phase margin.
    let crossing = ac
        .find_crossing_driven(ol.out, 1.0, 1.0, 20e9, &b_dm)
        .map_err(CktError::from)?;
    let (h_t, y_t, ft_hz, phase_margin_deg, lam_t) = match crossing {
        Some(ft) => {
            let mut at_ft = ac.factor(ft).map_err(CktError::from)?;
            let sol_t = at_ft.solve_driven(&b_dm).map_err(CktError::from)?;
            let lam_t = e_out.as_ref().map(|e| at_ft.solve_adjoint(e));
            let h_ft = sol_t.voltage(ol.out);
            // Phase margin relative to the stage's own low-frequency phase:
            // the excess phase lag accumulated up to ft determines stability
            // in unity feedback.
            let phase_lag = (h0.arg() - h_ft.arg()).rem_euclid(2.0 * std::f64::consts::PI);
            (
                h_ft,
                Some(sol_t.unknowns().clone()),
                ft,
                180.0 - phase_lag.to_degrees(),
                lam_t,
            )
        }
        None => (Complex64::ZERO, None, DEGENERATE_FT_HZ, 0.0, None),
    };
    counter.add(1);

    let sol_cm0 = sol_cm0.map_err(CktError::from)?;
    let h_cm0 = sol_cm0.voltage(ol.out);
    counter.add(1);
    let acm0 = h_cm0.abs();
    let cmrr_db = if acm0 <= 0.0 {
        200.0
    } else {
        (20.0 * (adm0 / acm0).log10()).min(200.0)
    };

    // PSRR = Adm/Apsr.
    let sol_ps0 = sol_ps0.map_err(CktError::from)?;
    let h_ps0 = sol_ps0.voltage(ol.out);
    counter.add(1);
    let apsr0 = h_ps0.abs();
    let psrr_db = if apsr0 <= 0.0 {
        200.0
    } else {
        (20.0 * (adm0 / apsr0).log10()).min(200.0)
    };

    let adjoints = match (lam0, lam_t) {
        (Some(Ok(l0)), Some(Ok(lt))) => Some((l0, lt)),
        _ => None,
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
        adjoints,
    })
}

/// Extracts the slew rate from the feedback configuration.
fn slew_rate(
    fb: &BuiltOpamp<'_>,
    op_fb: &DcSolution,
    sr_method: SlewRateMethod,
    counter: &SimCounter,
) -> Result<f64, CktError> {
    match sr_method {
        SlewRateMethod::Analytic => {
            let tail = op_fb
                .mosfet_op(fb.tail_device)
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
                    fb.vinp_src,
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

/// Everything one base measurement computed: what [`measure`] returns, and
/// what the adjoint direction pass ([`measure_with_directions`]) reads.
/// The bench keeps the last one ([`LastMeasurement`]).
struct MeasureRecord {
    /// The feedback-configuration warm-start key: the bits of `(d, ŝ, θ)`.
    key: WarmKey,
    /// Whether an adjoint request made (or was served) this record.
    adjoint: bool,
    fb: Arc<Feedback>,
    vout_fb: f64,
    slew_v_per_s: f64,
    power_w: f64,
    ol_circuit: Circuit,
    op_ol: DcSolution,
    acs: AcStage,
}

impl MeasureRecord {
    fn measured(&self) -> Measured {
        Measured {
            metrics: OpampMetrics {
                a0_db: self.acs.a0_db,
                ft_hz: self.acs.ft_hz,
                phase_margin_deg: self.acs.phase_margin_deg,
                cmrr_db: self.acs.cmrr_db,
                slew_v_per_s: self.slew_v_per_s,
                power_w: self.power_w,
                psrr_db: self.acs.psrr_db,
            },
            fb: Arc::clone(&self.fb),
        }
    }

    /// Whether measuring the record's point again on `tb` would give its
    /// bits: both DC solves would replay the record's vectors (see
    /// `WarmStartCache::replays`), and everything after them is a pure
    /// function of the two netlists and solutions.
    fn reproducible(&self, tb: &Testbench) -> bool {
        tb.warm.replays(&self.key, self.fb.op.unknowns())
            && tb
                .warm
                .replays(&self.key.open_loop(self.vout_fb), self.op_ol.unknowns())
    }
}

/// The bench's last measurement, kept so an adjoint request at the same
/// point is served without simulating. Which record the slot holds does
/// not depend on the worker count:
///
/// * an adjoint request takes the slot first ([`take_repeat`]);
/// * every measurement, measured or served, then offers its record
///   ([`offer`]). An adjoint record always replaces the slot. A plain one
///   replaces an adjoint record, a record offered before the last
///   warm-start commit, or a record with a larger signature — so a batch
///   leaves the smallest signature it measured, the order-independent
///   tie-break the warm-start commit uses within one window. Forgetting
///   earlier windows also keeps a record from before a checkpoint out of
///   the first batch after it, so a resumed run, whose slot starts empty,
///   serves the repeats the uninterrupted run serves.
///
/// [`take_repeat`]: LastMeasurement::take_repeat
/// [`offer`]: LastMeasurement::offer
#[derive(Default)]
pub(crate) struct LastMeasurement(Mutex<Slot>);

#[derive(Default)]
struct Slot {
    record: Option<Box<MeasureRecord>>,
    /// Set by a warm-start commit, cleared by the next offer.
    stale: bool,
}

impl std::fmt::Debug for LastMeasurement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let slot = self.0.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("LastMeasurement")
            .field("held", &slot.record.is_some())
            .field("stale", &slot.stale)
            .finish()
    }
}

impl LastMeasurement {
    /// Marks the held record as measured before the current warm-start
    /// window (called on every commit).
    pub(crate) fn commit(&self) {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).stale = true;
    }

    /// Empties the slot and returns its record when it is a repeat of
    /// `key` that `tb` would reproduce bit for bit.
    fn take_repeat(&self, tb: &Testbench, key: &WarmKey) -> Option<Box<MeasureRecord>> {
        let held = self
            .0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record
            .take()?;
        (held.key == *key && held.reproducible(tb)).then_some(held)
    }

    /// Offers a finished measurement to the slot (see the type docs).
    fn offer(&self, record: Box<MeasureRecord>) {
        let mut slot = self.0.lock().unwrap_or_else(|e| e.into_inner());
        let replace = record.adjoint
            || slot.stale
            || slot
                .record
                .as_ref()
                .is_none_or(|held| held.adjoint || record.key.bits() < held.key.bits());
        if replace {
            slot.stale = false;
            let old = slot.record.replace(record);
            // Free the replaced record outside the lock.
            drop(slot);
            drop(old);
        }
    }
}

/// The feedback-configuration warm-start key of `(d, ŝ, θ)` on `tb`.
fn feedback_key(tb: &Testbench, d: &DVec, s_hat: &DVec, theta: &OperatingPoint) -> WarmKey {
    WarmKey::new(tb.identity, WarmConfig::Feedback, d, s_hat, theta, &[])
}

/// The base measurement flow, keeping every intermediate the adjoint
/// direction pass needs. With an analytic slew rate it always takes the AC
/// output adjoints, so a plain measurement can serve a later adjoint
/// request.
fn measure_full(
    tb: &Testbench,
    d: &DVec,
    s_hat: &DVec,
    theta: &OperatingPoint,
    key: WarmKey,
    adjoint: bool,
) -> Result<Box<MeasureRecord>, CktError> {
    let (identity, counter, warm) = (tb.identity, &tb.counter, &tb.warm);
    // 1. Feedback configuration: operating point, power, slew.
    let fb = tb.build(d, s_hat, theta, true, 0.0)?;
    let op_fb = warm
        .solve(&fb.circuit, key.clone())
        .map_err(CktError::from)?;
    counter.add(1);
    let vout_fb = op_fb.voltage(fb.out);
    let i_vdd = op_fb.branch_current(fb.vdd_src).map_err(CktError::from)?;
    let power_w = theta.vdd * i_vdd.abs();
    let slew_v_per_s = slew_rate(&fb, &op_fb, tb.sr_method, counter)?;

    // 2. Open-loop configuration biased by the feedback result.
    let ol = tb.build(d, s_hat, theta, false, vout_fb)?;
    let vinn = ol.vinn_src.ok_or(CktError::Extraction {
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

    let analytic = !matches!(tb.sr_method, SlewRateMethod::Transient { .. });
    let acs = ac_stage(&ol, vinn, &op_ol, counter, analytic)?;
    Ok(Box::new(MeasureRecord {
        key,
        adjoint,
        fb: Arc::new(Feedback {
            circuit: fb.circuit,
            op: op_fb,
        }),
        vout_fb,
        slew_v_per_s,
        power_w,
        ol_circuit: ol.circuit,
        op_ol,
        acs,
    }))
}

/// Runs the full measurement flow on the bench's netlist, simulation
/// counter and warm-start cache, and offers the result to the bench's
/// last-measurement slot.
pub(crate) fn measure(
    tb: &Testbench,
    d: &DVec,
    s_hat: &DVec,
    theta: &OperatingPoint,
) -> Result<Measured, CktError> {
    let record = measure_full(
        tb,
        d,
        s_hat,
        theta,
        feedback_key(tb, d, s_hat, theta),
        false,
    )?;
    let measured = record.measured();
    tb.last.offer(record);
    Ok(measured)
}

/// Runs the base measurement flow once, then evaluates every perturbed
/// point in `directions` (full `(d′, ŝ′)` pairs) by sensitivity analysis on
/// the base factorizations instead of re-simulating: one frozen-Jacobian
/// Newton step per DC configuration ([`DcSensitivity`]) and first-order
/// transfer-function updates `ΔH = −λᵀ·ΔA·y` from the two AC adjoint
/// solves the base pass took on its 0 Hz and crossing factors (λ at DC and
/// at the unity-gain crossing). Each direction's `ΔA` is extracted once
/// and read by all four of its bilinear forms. The crossing
/// itself shifts by `Δft = −Δ|H|(ft) / (∂|H|/∂f)` with
/// `∂H/∂f = −j2π·λᵀCy`.
///
/// The base measurement is served from the bench's last measurement when
/// that is an exact repeat it would reproduce (see [`LastMeasurement`]).
///
/// Returns `Ok(None)` when the shortcut does not apply — transient slew
/// extraction, degenerate unity-gain crossing, ill-conditioned magnitude
/// slope, or a sensitivity factorization/solve failure — so callers fall
/// back to finite differences.
pub(crate) fn measure_with_directions(
    tb: &Testbench,
    d: &DVec,
    s_hat: &DVec,
    theta: &OperatingPoint,
    directions: &[(DVec, DVec)],
) -> Result<Option<(Measured, Vec<Measured>)>, CktError> {
    let key = feedback_key(tb, d, s_hat, theta);
    let mut record = match tb.last.take_repeat(tb, &key) {
        Some(served) => {
            tb.counter.add_reused();
            served
        }
        None => measure_full(tb, d, s_hat, theta, key, true)?,
    };
    record.adjoint = true;
    let result = directions_pass(tb, &record, theta, directions);
    tb.last.offer(record);
    result
}

/// The adjoint direction pass of [`measure_with_directions`] on one base
/// measurement.
fn directions_pass(
    tb: &Testbench,
    base: &MeasureRecord,
    theta: &OperatingPoint,
    directions: &[(DVec, DVec)],
) -> Result<Option<(Measured, Vec<Measured>)>, CktError> {
    let counter = &tb.counter;
    if matches!(tb.sr_method, SlewRateMethod::Transient { .. }) {
        // A large-signal transient has no small-signal shortcut.
        return Ok(None);
    }
    let acs = &base.acs;
    let Some(ft) = acs.crossing else {
        // Degenerate crossing: ft is a sentinel, not a smooth function.
        return Ok(None);
    };
    let y_t = acs
        .y_t
        .as_ref()
        .expect("crossing implies a stored solution");
    let Some((lam0, lam_t)) = &acs.adjoints else {
        return Ok(None);
    };
    let ac = &acs.ac;
    let dhdf_t = -(Complex64::I * (2.0 * std::f64::consts::PI)) * ac.cap_bilinear(lam_t, y_t);
    let h_t = acs.h_t;
    let slope = (h_t.conj() * dhdf_t).re / h_t.abs();
    if !slope.is_finite() || slope.abs() * ft < 1e-9 {
        // |H| locally flat in f: the crossing shift is ill-conditioned.
        return Ok(None);
    }
    let (sens_fb, sens_ol) = match (
        DcSensitivity::new(&base.fb.circuit, &base.fb.op),
        DcSensitivity::new(&base.ol_circuit, &base.op_ol),
    ) {
        (Ok(a), Ok(b)) => (a, b),
        _ => return Ok(None),
    };
    // Two DC factorizations plus two AC adjoint solves, amortized over
    // every direction.
    counter.add_adjoint(4);

    let mut perturbed = Vec::with_capacity(directions.len());
    for (dp, sp) in directions {
        let fbp = tb.build(dp, sp, theta, true, 0.0)?;
        let Ok(op_fbp) = sens_fb.solve_perturbed(&fbp.circuit) else {
            return Ok(None);
        };
        let vout_fbp = op_fbp.voltage(fbp.out);
        let i_vddp = op_fbp.branch_current(fbp.vdd_src).map_err(CktError::from)?;
        let power_wp = theta.vdd * i_vddp.abs();
        let slewp = slew_rate(&fbp, &op_fbp, SlewRateMethod::Analytic, counter)?;

        // The open-loop bias tracks the perturbed feedback output — an
        // RHS-only change the frozen-Jacobian step resolves exactly.
        let olp = tb.build(dp, sp, theta, false, vout_fbp)?;
        let Ok(x_olp) = sens_ol.perturbed_unknowns(&olp.circuit) else {
            return Ok(None);
        };
        // ΔA is extracted once and read by all four bilinear forms.
        let delta = ac.delta(&olp.circuit, &x_olp);

        let dh0 = -delta.bilinear(0.0, lam0, &acs.y_dm0);
        let h0p = acs.h0 + dh0;
        let adm0p = h0p.abs();
        let a0p_db = 20.0 * adm0p.max(1e-30).log10();

        let dht = -delta.bilinear(ft, lam_t, y_t);
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

        let dhcm = -delta.bilinear(0.0, lam0, &acs.y_cm0);
        let acm0p = (acs.h_cm0 + dhcm).abs();
        let cmrrp = if acm0p <= 0.0 {
            200.0
        } else {
            (20.0 * (adm0p / acm0p).log10()).min(200.0)
        };

        let dhps = -delta.bilinear(0.0, lam0, &acs.y_ps0);
        let apsr0p = (acs.h_ps0 + dhps).abs();
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
            fb: Arc::new(Feedback {
                circuit: fbp.circuit,
                op: op_fbp,
            }),
        });
    }
    // Each direction would otherwise have cost a full measurement: two DC
    // solves and four AC analyses.
    counter.add_fd_avoided(6 * directions.len() as u64);
    Ok(Some((base.measured(), perturbed)))
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

/// Counted DC solve of a constraint-configuration netlist of `tb`,
/// warm-started from the bench's cache under the key derived from the
/// design vector and θ.
pub(crate) fn dc_solve_counted(
    tb: &Testbench,
    circuit: &Circuit,
    d: &DVec,
    theta: &OperatingPoint,
) -> Result<DcSolution, CktError> {
    let key = WarmKey::new(
        tb.identity,
        WarmConfig::Constraint,
        d,
        &DVec::zeros(0),
        theta,
        &[],
    );
    let op = tb.warm.solve(circuit, key);
    tb.counter.add(1);
    op.map_err(CktError::from)
}

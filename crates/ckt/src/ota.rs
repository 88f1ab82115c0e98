//! A five-transistor OTA — the minimal reference deck for a
//! [`crate::CircuitEnv`], intended as the template for plugging your own
//! circuit into the yield-optimization flow.
//!
//! Topology (NMOS input pair, PMOS mirror load, single-ended output):
//!
//! ```text
//!  VDD ──────┬──────────────┐
//!           M3 (diode) ──── M4
//!            │x1             │
//!  inp ─g M1─┘     out ──────┴──┬── CL
//!  inn ─g M2───────out          │
//!        tail ── MT ── gnd     gnd
//!  bias: IB1 → MB1 (diode) → gate of MT
//! ```
//!
//! Compared to the paper's two benchmark circuits this one is deliberately
//! small: six devices, six design parameters, and relaxed specifications —
//! it optimizes in well under a second and is used by the quick-start
//! documentation and smoke tests.
//!
//! The circuit is a deck, not a type: [`FiveTransistorOta::default_setup`]
//! compiles it into a [`Testbench`]. `examples/custom_circuit.rs` applies
//! the same pattern to a circuit of its own.

use crate::Testbench;

/// The annotated deck defining the environment.
const DECK: &str = "\
.name five-transistor OTA
.nodes vdd inp out x1 tail vbn
.design w1 um 2.0 200.0 6.0
.design l1 um 0.6 10.0 1.0
.design w3 um 2.0 200.0 12.0
.design l3 um 0.6 10.0 2.0
.design wt um 2.0 200.0 20.0
.design ib uA 1.0 100.0 5.0
.range temp -40.0 125.0
.range vdd 3.0 3.6
.spec A0 dB min 30.0 dcgain
.spec ft MHz min 4.0 ugf
.spec CMRR dB min 55.0 cmrr
.spec SRp V/us min 4.0 slew
.spec Power mW max 0.5 power
.match m1 m2
.match m3 m4
.match mt
.match mb1
.tb vinp VINP
.tb vinn VINN
.tb out out
.tb vdd VDD
.tb tail mt
.tb slewcap CL
VDD vdd 0 {vdd}
VINP inp 0 {vcm}
VINN inn 0 {vcm}
IB1 vdd vbn {ib}
m1 x1 inp tail 0 NMOS W={w1} L={l1}
m2 out inn tail 0 NMOS W={w1} L={l1}
m3 x1 x1 vdd vdd PMOS W={w3} L={l3}
m4 out x1 vdd vdd PMOS W={w3} L={l3}
mt tail vbn 0 0 NMOS W={wt} L=2e-6
mb1 vbn vbn 0 0 NMOS W=10e-6 L=2e-6
CL out 0 2.0e-12
.end
";

/// The five-transistor OTA: a namespace for its deck and the
/// [`Testbench`] compiled from it.
///
/// # Example
///
/// ```
/// use specwise_ckt::{CircuitEnv, FiveTransistorOta};
/// use specwise_linalg::DVec;
///
/// # fn main() -> Result<(), specwise_ckt::CktError> {
/// let env = FiveTransistorOta::default_setup();
/// let perf = env.eval_performances(
///     &env.design_space().initial(),
///     &DVec::zeros(env.stat_dim()),
///     &env.operating_range().nominal(),
/// )?;
/// assert_eq!(perf.len(), env.specs().len());
/// # Ok(())
/// # }
/// ```
pub enum FiveTransistorOta {}

impl FiveTransistorOta {
    /// A modest default setup: every spec passes at the nominal point with
    /// a small margin, so the optimizer has work to do on the tails.
    pub fn default_setup() -> Testbench {
        Testbench::from_deck(DECK).expect("embedded OTA deck is valid")
    }

    /// The annotated deck this environment is compiled from.
    pub fn deck() -> &'static str {
        DECK
    }
}

#[cfg(test)]
mod tests {
    use specwise_linalg::DVec;

    use super::*;
    use crate::CircuitEnv;

    fn env() -> Testbench {
        FiveTransistorOta::default_setup()
    }

    #[test]
    fn nominal_design_simulates_sensibly() {
        let e = env();
        let m = e
            .metrics(
                &e.design_space().initial(),
                &DVec::zeros(e.stat_dim()),
                &e.operating_range().nominal(),
            )
            .unwrap();
        assert!(m.a0_db > 30.0 && m.a0_db < 70.0, "A0 = {}", m.a0_db);
        assert!(m.ft_hz > 1e6 && m.ft_hz < 100e6, "ft = {}", m.ft_hz);
        assert!(m.cmrr_db > 40.0, "CMRR = {}", m.cmrr_db);
        assert!(m.power_w < 0.5e-3, "P = {}", m.power_w);
    }

    #[test]
    fn initial_design_feasible() {
        let e = env();
        let c = e.eval_constraints(&e.design_space().initial()).unwrap();
        for (i, name) in e.constraint_names().iter().enumerate() {
            assert!(c[i] >= 0.0, "constraint {name} violated: {}", c[i]);
        }
    }

    #[test]
    fn stat_dimensions() {
        let e = env();
        // 5 globals + 2 locals per device (six matched devices).
        assert_eq!(e.stat_dim(), 5 + 2 * 6);
    }

    #[test]
    fn mirror_mismatch_degrades_cmrr() {
        let e = env();
        let d0 = e.design_space().initial();
        let theta = e.operating_range().nominal();
        let base = e
            .metrics(&d0, &DVec::zeros(e.stat_dim()), &theta)
            .unwrap()
            .cmrr_db;
        let mut s = DVec::zeros(e.stat_dim());
        s[e.stat_space().index_of("vth_m3").unwrap()] = 2.5;
        s[e.stat_space().index_of("vth_m4").unwrap()] = -2.5;
        let worse = e.metrics(&d0, &s, &theta).unwrap().cmrr_db;
        assert!(
            worse < base,
            "mirror mismatch must reduce CMRR: {worse} vs {base}"
        );
    }

    #[test]
    fn bigger_input_pair_raises_ft() {
        let e = env();
        let theta = e.operating_range().nominal();
        let s0 = DVec::zeros(e.stat_dim());
        let d0 = e.design_space().initial();
        let mut d_big = d0.clone();
        d_big[0] *= 3.0;
        let ft0 = e.metrics(&d0, &s0, &theta).unwrap().ft_hz;
        let ft1 = e.metrics(&d_big, &s0, &theta).unwrap().ft_hz;
        assert!(ft1 > ft0, "wider input pair must raise ft: {ft1} vs {ft0}");
    }
}

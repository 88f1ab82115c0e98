//! The Miller (two-stage) operational amplifier of the paper's Fig. 8,
//! modeled with global process variations only (as in the paper's Table 6).
//!
//! Topology (PMOS input variant):
//!
//! ```text
//!  VDD ──┬──────────┬──────────────┬───────────┐
//!       MB2(diode)  MT (tail)      │           M7 (PMOS load)
//!        │vbp ───────┴── gates ────┘            │
//!        ⇓ IB2      tail                        │
//!  inn ─g M1─┐x1          x2┌─ M2 g─ inp       out ──┬── CL
//!            M3(diode)── M4─┘                   │     │
//!            └─gnd        └─gnd     x2 ─ Cc+Rz ─┘    gnd
//!                                   x2 ─ g M6 (NMOS, d=out, s=gnd)
//! ```
//!
//! * M1/M2 — PMOS input pair, * M3/M4 — NMOS mirror load,
//! * M6 — NMOS second stage, * M7 — PMOS current-source load,
//! * MT — PMOS tail, * MB2 — PMOS bias diode, * Cc + Rz — Miller
//!   compensation with nulling resistor.
//!
//! Specifications (paper Table 6): `A0 ≥ 80 dB`, `ft ≥ 1.3 MHz`,
//! `Φm ≥ 60°`, `SR ≥ 3 V/µs`, `P ≤ 1.3 mW`.
//!
//! The circuit is a deck, not a type: the whole setup — topology, design
//! space, specs, operating range, harness wiring — lives in the annotated
//! deck returned by [`MillerOpamp::deck`], and
//! [`MillerOpamp::paper_setup`] compiles it into a [`Testbench`].

use crate::Testbench;

/// The annotated deck defining the environment. No `.match` groups: the
/// paper's Table 6 experiment uses global variations only.
const DECK: &str = "\
.name Miller opamp
.nodes vdd inp out x1 x2 xz tail vbp
.design w1 um 2.0 400.0 8.0
.design l1 um 0.6 10.0 2.0
.design w3 um 2.0 400.0 2.5
.design l3 um 0.6 10.0 2.0
.design w6 um 2.0 400.0 30.0
.design l6 um 0.6 10.0 1.0
.design w7 um 2.0 800.0 180.0
.design wt um 2.0 400.0 17.0
.design ib uA 1.0 100.0 10.0
.design cc pF 0.5 30.0 3.0
.range temp -40.0 125.0
.range vdd 4.5 5.5
.spec A0 dB min 80.0 dcgain
.spec ft MHz min 1.3 ugf
.spec PM deg min 60.0 pm
.spec SRp V/us min 3.0 slew
.spec Power mW max 1.3 power
.tb vinp VINP
.tb vinn VINN
.tb out out
.tb vdd VDD
.tb tail mt
.tb slewcap CC
VDD vdd 0 {vdd}
VINP inp 0 {vcm}
VINN inn 0 {vcm}
IB2 vbp 0 {ib}
m1 x1 inn tail vdd PMOS W={w1} L={l1}
m2 x2 inp tail vdd PMOS W={w1} L={l1}
m3 x1 x1 0 0 NMOS W={w3} L={l3}
m4 x2 x1 0 0 NMOS W={w3} L={l3}
m6 out x2 0 0 NMOS W={w6} L={l6}
m7 out vbp vdd vdd PMOS W={w7} L=2e-6
mt tail vbp vdd vdd PMOS W={wt} L=2e-6
mb2 vbp vbp vdd vdd PMOS W=20e-6 L=2e-6
RZ x2 xz 1.2e3
CC xz out {cc}
CL out 0 40.0e-12
.end
";

/// The Miller two-stage opamp of paper Fig. 8: a namespace for its deck
/// and the [`Testbench`] compiled from it.
///
/// # Example
///
/// ```
/// use specwise_ckt::{CircuitEnv, MillerOpamp};
/// use specwise_linalg::DVec;
///
/// # fn main() -> Result<(), specwise_ckt::CktError> {
/// let env = MillerOpamp::paper_setup();
/// // Global variations only: five statistical parameters.
/// assert_eq!(env.stat_dim(), 5);
/// let perf = env.eval_performances(
///     &env.design_space().initial(),
///     &DVec::zeros(5),
///     &env.operating_range().nominal(),
/// )?;
/// assert_eq!(perf.len(), 5);
/// # Ok(())
/// # }
/// ```
pub enum MillerOpamp {}

impl MillerOpamp {
    /// The paper's experimental setup: the initial design has a mid-range
    /// yield (Table 6 "Initial": 33.7 %), marginally failing the slew-rate
    /// specification and sitting close to the phase-margin bound.
    pub fn paper_setup() -> Testbench {
        Testbench::from_deck(DECK).expect("embedded Miller deck is valid")
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
        MillerOpamp::paper_setup()
    }

    #[test]
    fn nominal_design_simulates() {
        let e = env();
        let m = e
            .metrics(
                &e.design_space().initial(),
                &DVec::zeros(e.stat_dim()),
                &e.operating_range().nominal(),
            )
            .unwrap();
        assert!(m.a0_db > 60.0, "A0 = {} dB", m.a0_db);
        assert!(m.ft_hz > 0.3e6 && m.ft_hz < 50e6, "ft = {}", m.ft_hz);
        assert!(m.phase_margin_deg > 20.0, "PM = {}", m.phase_margin_deg);
        assert!(m.power_w < 1.3e-3, "P = {}", m.power_w);
    }

    #[test]
    fn initial_design_is_feasible() {
        let e = env();
        let c = e.eval_constraints(&e.design_space().initial()).unwrap();
        for (i, name) in e.constraint_names().iter().enumerate() {
            assert!(c[i] >= 0.0, "constraint {name} violated: {}", c[i]);
        }
    }

    #[test]
    fn global_vth_shift_moves_performances() {
        let e = env();
        let d0 = e.design_space().initial();
        let theta = e.operating_range().nominal();
        let base = e.eval_performances(&d0, &DVec::zeros(5), &theta).unwrap();
        let mut s = DVec::zeros(5);
        s[e.stat_space().index_of("vthn_glob").unwrap()] = 3.0;
        let shifted = e.eval_performances(&d0, &s, &theta).unwrap();
        let diff = (&shifted - &base).norm_inf();
        assert!(
            diff > 1e-3,
            "global shift must move performances, diff = {diff}"
        );
    }

    #[test]
    fn compensation_cap_controls_ft() {
        let e = env();
        let theta = e.operating_range().nominal();
        let s0 = DVec::zeros(5);
        let d0 = e.design_space().initial();
        let mut d_big_cc = d0.clone();
        d_big_cc[9] = 2.0 * d0[9];
        let ft0 = e.metrics(&d0, &s0, &theta).unwrap().ft_hz;
        let ft1 = e.metrics(&d_big_cc, &s0, &theta).unwrap().ft_hz;
        assert!(ft1 < ft0, "doubling Cc must reduce ft: {ft1} vs {ft0}");
    }

    #[test]
    fn slew_rate_tracks_tail_over_cc() {
        let e = env();
        let theta = e.operating_range().nominal();
        let s0 = DVec::zeros(5);
        let d0 = e.design_space().initial();
        let m = e.metrics(&d0, &s0, &theta).unwrap();
        // SR (analytic) must equal I_tail / Cc to within mirror accuracy.
        let i_tail_approx = d0[8] * 1e-6 * d0[7] / 20.0;
        let sr_approx = i_tail_approx / (d0[9] * 1e-12);
        assert!(
            (m.slew_v_per_s / sr_approx - 1.0).abs() < 0.5,
            "SR {} vs rough {}",
            m.slew_v_per_s,
            sr_approx
        );
    }

    #[test]
    fn design_map_reflects_deck_bindings() {
        let e = env();
        let map_env = Testbench::from_deck(MillerOpamp::deck()).unwrap();
        let cc = map_env.design_map().bindings_of("cc");
        assert_eq!(cc.len(), 1);
        assert_eq!(cc[0].element, "CC");
        let w1 = map_env.design_map().bindings_of("w1");
        assert_eq!(w1.len(), 2, "w1 drives m1 and m2");
        assert_eq!(e.design_space().dim(), map_env.design_space().dim());
    }
}

//! The folded-cascode operational amplifier of the paper's Fig. 7,
//! modeled with both global and local (mismatch) variations.
//!
//! Topology (NMOS input variant):
//!
//! ```text
//!             VDD ──────┬────────────┬──────────┬─────────┐
//!                      MB2(diode)   M3          M4        MT? (no: tail is NMOS)
//!                       │ vbp────────┴─(gates)──┘
//!                       ⇓ IB2
//!  vcasc = VDD − 1.5 ── gates of M5, M6 (PMOS cascodes)
//!
//!   inp ──g M1─┐f1── s M5 d ──o1──┐            f2 ── s M6 d ── out ──┬── CL
//!   inn ──g M2─┘f2                M7(diode)────gate────M8            │
//!        tail──MT──gnd            └── gnd       └── gnd             gnd
//! ```
//!
//! * M1/M2 — NMOS input pair (matching pair **P1** of the paper's Table 5),
//! * M3/M4 — PMOS current sources (pair P2),
//! * M5/M6 — PMOS cascodes,
//! * M7/M8 — NMOS mirror (pair P3),
//! * MT — NMOS tail source mirrored from the MB1/IB1 reference,
//! * MB1/MB2 — bias diodes.
//!
//! Specifications (paper Table 1): `A0 ≥ 40 dB`, `ft ≥ 40 MHz`,
//! `CMRR ≥ 80 dB`, `SR ≥ 35 V/µs`, `P ≤ 3.5 mW`.
//!
//! The circuit is a deck, not a type: [`FoldedCascode::paper_setup`]
//! compiles it into a [`Testbench`]. The `.match` groups reproduce the
//! seed's per-device mismatch ordering (every device carries local
//! parameters, pairs declared jointly).

use crate::Testbench;

/// The annotated deck defining the environment. The `.match` flattening
/// order (m1 m2 m3 m4 m5 m6 m7 m8 mt mb1 mb2) fixes the statistical
/// parameter ordering.
const DECK: &str = "\
.name folded-cascode opamp
.nodes vdd inp out f1 f2 o1 tail vbn vbp vcp
.design w1 um 4.0 400.0 36.0
.design l1 um 0.6 10.0 1.0
.design w3 um 4.0 400.0 70.0
.design l3 um 0.6 10.0 1.0
.design w5 um 4.0 400.0 60.0
.design l5 um 0.6 10.0 0.8
.design w7 um 4.0 400.0 11.0
.design l7 um 0.6 10.0 1.0
.design wt um 4.0 400.0 36.0
.design ib uA 2.0 200.0 10.0
.range temp -40.0 125.0
.range vdd 3.0 3.6
.spec A0 dB min 40.0 dcgain
.spec ft MHz min 40.0 ugf
.spec CMRR dB min 80.0 cmrr
.spec SRp V/us min 35.0 slew
.spec Power mW max 3.5 power
.match m1 m2
.match m3 m4
.match m5 m6
.match m7 m8
.match mt
.match mb1
.match mb2
.tb vinp VINP
.tb vinn VINN
.tb out out
.tb vdd VDD
.tb tail mt
.tb slewcap CL
VDD vdd 0 {vdd}
VINP inp 0 {vcm}
VINN inn 0 {vcm}
VCASC vdd vcp 1.5
IB1 vdd vbn {ib}
IB2 vbp 0 {ib}
m1 f1 inp tail 0 NMOS W={w1} L={l1}
m2 f2 inn tail 0 NMOS W={w1} L={l1}
m3 f1 vbp vdd vdd PMOS W={w3} L={l3}
m4 f2 vbp vdd vdd PMOS W={w3} L={l3}
m5 o1 vcp f1 vdd PMOS W={w5} L={l5}
m6 out vcp f2 vdd PMOS W={w5} L={l5}
m7 o1 o1 0 0 NMOS W={w7} L={l7}
m8 out o1 0 0 NMOS W={w7} L={l7}
mt tail vbn 0 0 NMOS W={wt} L=1e-6
mb1 vbn vbn 0 0 NMOS W=10e-6 L=2e-6
mb2 vbp vbp vdd vdd PMOS W=20e-6 L=2e-6
CL out 0 2.0e-12
.end
";

/// The folded-cascode opamp of paper Fig. 7: a namespace for its deck and
/// the [`Testbench`] compiled from it.
///
/// # Example
///
/// ```
/// use specwise_ckt::{CircuitEnv, FoldedCascode};
/// use specwise_linalg::DVec;
///
/// # fn main() -> Result<(), specwise_ckt::CktError> {
/// let env = FoldedCascode::paper_setup();
/// let perf = env.eval_performances(
///     &env.design_space().initial(),
///     &DVec::zeros(env.stat_dim()),
///     &env.operating_range().nominal(),
/// )?;
/// // A0 of the nominal initial design is comfortably above 40 dB.
/// assert!(perf[0] > 40.0);
/// # Ok(())
/// # }
/// ```
pub enum FoldedCascode {}

impl FoldedCascode {
    /// The paper's experimental setup: initial sizing chosen so that the
    /// initial design is feasible w.r.t. the functional constraints but
    /// violates the ft and CMRR specs at the worst-case operating corner
    /// (Table 1, "Initial" rows).
    pub fn paper_setup() -> Testbench {
        Testbench::from_deck(DECK).expect("embedded folded-cascode deck is valid")
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
    use crate::{CircuitEnv, CktError};

    fn env() -> Testbench {
        FoldedCascode::paper_setup()
    }

    #[test]
    fn nominal_design_simulates() {
        let e = env();
        let d0 = e.design_space().initial();
        let s0 = DVec::zeros(e.stat_dim());
        let theta = e.operating_range().nominal();
        let m = e.metrics(&d0, &s0, &theta).unwrap();
        assert!(m.a0_db > 40.0, "A0 = {} dB", m.a0_db);
        assert!(m.ft_hz > 10e6, "ft = {} Hz", m.ft_hz);
        assert!(m.cmrr_db > 40.0, "CMRR = {} dB", m.cmrr_db);
        assert!(m.power_w > 0.0 && m.power_w < 3.5e-3, "P = {} W", m.power_w);
        assert!(m.slew_v_per_s > 10e6, "SR = {} V/s", m.slew_v_per_s);
    }

    #[test]
    fn initial_design_is_feasible() {
        let e = env();
        let c = e.eval_constraints(&e.design_space().initial()).unwrap();
        let names = e.constraint_names();
        assert_eq!(c.len(), names.len());
        for (i, name) in names.iter().enumerate() {
            assert!(c[i] >= 0.0, "constraint {name} violated: {}", c[i]);
        }
    }

    #[test]
    fn sim_counter_increments() {
        let e = env();
        e.reset_sim_count();
        let _ = e
            .eval_performances(
                &e.design_space().initial(),
                &DVec::zeros(e.stat_dim()),
                &e.operating_range().nominal(),
            )
            .unwrap();
        assert!(e.sim_count() >= 5, "count = {}", e.sim_count());
    }

    #[test]
    fn stat_space_order_matches_seed_layout() {
        // 5 globals, then vth/beta locals for every device in netlist order.
        let e = env();
        assert_eq!(e.stat_dim(), 5 + 2 * 11);
        assert_eq!(e.stat_space().index_of("vth_m1"), Some(5));
        assert_eq!(e.stat_space().index_of("beta_mb2"), Some(5 + 2 * 11 - 1));
        let pairs = Testbench::from_deck(FoldedCascode::deck())
            .unwrap()
            .stat_map()
            .pairs()
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect::<Vec<_>>();
        assert_eq!(
            pairs,
            vec![
                ("m1".to_string(), "m2".to_string()),
                ("m3".to_string(), "m4".to_string()),
                ("m5".to_string(), "m6".to_string()),
                ("m7".to_string(), "m8".to_string()),
            ]
        );
    }

    #[test]
    fn mismatch_degrades_cmrr() {
        let e = env();
        let d0 = e.design_space().initial();
        let theta = e.operating_range().nominal();
        let s0 = DVec::zeros(e.stat_dim());
        let base = e.metrics(&d0, &s0, &theta).unwrap().cmrr_db;
        // Push the mirror pair apart along the mismatch line. (Input-pair
        // Vth mismatch is largely absorbed as input offset; the mirror and
        // current-source pairs are the CMRR-critical ones.)
        let mut s = DVec::zeros(e.stat_dim());
        s[e.stat_space().index_of("vth_m7").unwrap()] = 3.0;
        s[e.stat_space().index_of("vth_m8").unwrap()] = -3.0;
        let worse = e.metrics(&d0, &s, &theta).unwrap().cmrr_db;
        assert!(worse < base, "mismatch must reduce CMRR: {worse} vs {base}");
    }

    #[test]
    fn neutral_direction_is_benign() {
        let e = env();
        let d0 = e.design_space().initial();
        let theta = e.operating_range().nominal();
        let s0 = DVec::zeros(e.stat_dim());
        let base = e.metrics(&d0, &s0, &theta).unwrap().cmrr_db;
        let mut s_ml = DVec::zeros(e.stat_dim());
        s_ml[e.stat_space().index_of("vth_m7").unwrap()] = 2.0;
        s_ml[e.stat_space().index_of("vth_m8").unwrap()] = -2.0;
        let ml = e.metrics(&d0, &s_ml, &theta).unwrap().cmrr_db;
        let mut s_nl = DVec::zeros(e.stat_dim());
        s_nl[e.stat_space().index_of("vth_m7").unwrap()] = 2.0;
        s_nl[e.stat_space().index_of("vth_m8").unwrap()] = 2.0;
        let nl = e.metrics(&d0, &s_nl, &theta).unwrap().cmrr_db;
        // Neutral-line deviation must hurt far less than mismatch-line.
        assert!(
            base - nl < 0.5 * (base - ml),
            "NL drop {} vs ML drop {}",
            base - nl,
            base - ml
        );
    }

    #[test]
    fn wrong_dimensions_rejected() {
        let e = env();
        let theta = e.operating_range().nominal();
        assert!(matches!(
            e.eval_performances(&DVec::zeros(3), &DVec::zeros(e.stat_dim()), &theta),
            Err(CktError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            e.eval_performances(&e.design_space().initial(), &DVec::zeros(2), &theta),
            Err(CktError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn margins_match_specs() {
        let e = env();
        let d0 = e.design_space().initial();
        let s0 = DVec::zeros(e.stat_dim());
        let theta = e.operating_range().nominal();
        let perf = e.eval_performances(&d0, &s0, &theta).unwrap();
        let margins = e.eval_margins(&d0, &s0, &theta).unwrap();
        for (i, spec) in e.specs().iter().enumerate() {
            assert!((margins[i] - spec.margin(perf[i])).abs() < 1e-12);
        }
    }
}

//! Symbolic-cache regression: reusing the cached symbolic factorization
//! across a parameter sweep must produce solutions bit-identical to
//! factoring fresh every time.
//!
//! The cache is process-wide and this test counts its entries, so it lives
//! in a test binary of its own where no other test fills the cache.

use specwise_mna::{
    clear_symbolic_cache, symbolic_cache_len, Circuit, DcOp, MosfetModel, MosfetParams,
    SolverChoice,
};

/// Five-transistor OTA on the sparse backend: NMOS differential pair, PMOS
/// mirror load, resistive tail.
fn ota(vdd_v: f64) -> Circuit {
    let mut ckt = Circuit::new();
    ckt.set_solver(SolverChoice::Sparse);
    let vdd = ckt.node("vdd");
    let inp = ckt.node("inp");
    let inn = ckt.node("inn");
    let tail = ckt.node("tail");
    let d1 = ckt.node("d1");
    let out = ckt.node("out");
    ckt.voltage_source("VDD", vdd, Circuit::GROUND, vdd_v)
        .unwrap();
    ckt.voltage_source("VINP", inp, Circuit::GROUND, 1.2)
        .unwrap();
    ckt.voltage_source("VINN", inn, Circuit::GROUND, 1.2)
        .unwrap();
    let nmos = |w: f64| MosfetParams::new(MosfetModel::default_nmos(), w, 1e-6);
    let pmos = |w: f64| MosfetParams::new(MosfetModel::default_pmos(), w, 1e-6);
    ckt.mosfet("M1", d1, inp, tail, Circuit::GROUND, nmos(20e-6))
        .unwrap();
    ckt.mosfet("M2", out, inn, tail, Circuit::GROUND, nmos(20e-6))
        .unwrap();
    ckt.mosfet("M3", d1, d1, vdd, vdd, pmos(40e-6)).unwrap();
    ckt.mosfet("M4", out, d1, vdd, vdd, pmos(40e-6)).unwrap();
    ckt.resistor("RT", tail, Circuit::GROUND, 20e3).unwrap();
    ckt.capacitor("CL", out, Circuit::GROUND, 1e-12).unwrap();
    ckt
}

fn solve(vdd_v: f64) -> Vec<f64> {
    DcOp::new(&ota(vdd_v))
        .solve()
        .unwrap()
        .unknowns()
        .as_slice()
        .to_vec()
}

#[test]
fn symbolic_cache_reuse_is_bit_identical_across_sweep() {
    let vdds = [2.7, 2.85, 3.0, 3.15, 3.3];

    // Pass 1: the symbolic factorization is computed once and reused for
    // every sweep point (all five circuits share one topology).
    clear_symbolic_cache();
    let cached: Vec<Vec<f64>> = vdds.iter().map(|&v| solve(v)).collect();
    assert_eq!(symbolic_cache_len(), 1, "one topology, one DC cache entry");

    // Pass 2: force a fresh symbolic analysis before every point.
    let fresh: Vec<Vec<f64>> = vdds
        .iter()
        .map(|&v| {
            clear_symbolic_cache();
            solve(v)
        })
        .collect();

    for (k, (a, b)) in cached.iter().zip(&fresh).enumerate() {
        assert_eq!(a, b, "sweep point {k} not bit-identical");
    }
}

//! Dense-vs-sparse backend parity on a MOSFET circuit large enough to take
//! the sparse path under `Auto`. The backend is a property of each circuit,
//! so every test forces it on its own clone and the tests run concurrently.

use std::sync::Barrier;

use specwise_mna::{
    AcSolver, Circuit, DcOp, MosfetModel, MosfetParams, SolverChoice, Transient, TransientOptions,
    Waveform,
};

/// A clone of `ckt` that solves on the given backend.
fn on(ckt: &Circuit, choice: SolverChoice) -> Circuit {
    let mut ckt = ckt.clone();
    ckt.set_solver(choice);
    ckt
}

/// Five-transistor OTA: NMOS differential pair, PMOS mirror load, resistive
/// tail — 6 non-ground nodes + 3 source branches = 9 MNA unknowns, above the
/// sparse auto-threshold.
fn ota(vdd_v: f64, w_scale: f64) -> Circuit {
    let mut ckt = Circuit::new();
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
    ckt.set_ac("VINP", 1.0).unwrap();
    ckt.voltage_source("VINN", inn, Circuit::GROUND, 1.2)
        .unwrap();
    let nmos = |w: f64| MosfetParams::new(MosfetModel::default_nmos(), w * w_scale, 1e-6);
    let pmos = |w: f64| MosfetParams::new(MosfetModel::default_pmos(), w * w_scale, 1e-6);
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

#[test]
fn ota_takes_sparse_path_under_auto() {
    let ckt = ota(3.0, 1.0);
    assert!(ckt.num_unknowns() >= 8, "n = {}", ckt.num_unknowns());
    assert_eq!(ckt.solver(), SolverChoice::Auto);
    assert!(ckt.solver().uses_sparse(ckt.num_unknowns()));
    assert!(!SolverChoice::Auto.uses_sparse(2));
}

#[test]
fn dc_sparse_matches_dense() {
    let ckt = ota(3.0, 1.0);
    let dense = DcOp::new(&on(&ckt, SolverChoice::Dense)).solve().unwrap();
    let sparse = DcOp::new(&on(&ckt, SolverChoice::Sparse)).solve().unwrap();
    for i in 0..dense.unknowns().len() {
        assert!(
            (dense.unknowns()[i] - sparse.unknowns()[i]).abs() < 1e-8,
            "unknown {i}: dense {} sparse {}",
            dense.unknowns()[i],
            sparse.unknowns()[i]
        );
    }
    for (md, ms) in dense.mosfet_ops().iter().zip(sparse.mosfet_ops()) {
        assert_eq!(md.region, ms.region, "{}", md.name);
        assert!(
            (md.id - ms.id).abs() < 1e-12 * (1.0 + md.id.abs()),
            "{}",
            md.name
        );
    }
}

#[test]
fn ac_sparse_matches_dense() {
    let ckt = ota(3.0, 1.0);
    let out = ckt.find_node("out").unwrap();
    let run = |choice| {
        let ckt = on(&ckt, choice);
        let op = DcOp::new(&ckt).solve().unwrap();
        let ac = AcSolver::new(&ckt, &op);
        [1.0, 1e3, 1e6, 1e9]
            .iter()
            .map(|&f| ac.solve(f).unwrap().voltage(out))
            .collect::<Vec<_>>()
    };
    let dense = run(SolverChoice::Dense);
    let sparse = run(SolverChoice::Sparse);
    for (hd, hs) in dense.iter().zip(&sparse) {
        let err = (*hd - *hs).abs() / (1.0 + hd.abs());
        assert!(err < 1e-9, "dense {hd:?} sparse {hs:?}");
    }
}

#[test]
fn transient_sparse_matches_dense() {
    let mut ckt = ota(3.0, 1.0);
    ckt.set_stimulus(
        "VINP",
        Waveform::Step {
            v0: 1.2,
            v1: 1.3,
            t0: 5e-9,
            t_rise: 1e-9,
        },
    )
    .unwrap();
    let out = ckt.find_node("out").unwrap();
    let run = |choice| {
        Transient::new(&on(&ckt, choice), TransientOptions::new(0.5e-9, 50e-9))
            .run()
            .unwrap()
            .voltage(out)
    };
    let dense = run(SolverChoice::Dense);
    let sparse = run(SolverChoice::Sparse);
    assert_eq!(dense.len(), sparse.len());
    for (k, (vd, vs)) in dense.iter().zip(&sparse).enumerate() {
        assert!((vd - vs).abs() < 1e-7, "step {k}: dense {vd} sparse {vs}");
    }
}

/// DC unknowns and AC output phasors of the OTA, as raw bits.
fn dc_ac_bits(ckt: &Circuit) -> Vec<u64> {
    let out = ckt.find_node("out").unwrap();
    let op = DcOp::new(ckt).solve().unwrap();
    let ac = AcSolver::new(ckt, &op);
    let mut bits: Vec<u64> = op.unknowns().iter().map(|v| v.to_bits()).collect();
    for f in [1.0, 1e3, 1e6, 1e9] {
        let h = ac.solve(f).unwrap().voltage(out);
        bits.extend([h.re.to_bits(), h.im.to_bits()]);
    }
    bits
}

#[test]
fn concurrent_backends_match_their_serial_runs() {
    let ckt = ota(3.0, 1.0);
    let dense = on(&ckt, SolverChoice::Dense);
    let sparse = on(&ckt, SolverChoice::Sparse);
    let want_dense = dc_ac_bits(&dense);
    let want_sparse = dc_ac_bits(&sparse);
    assert_ne!(
        want_dense, want_sparse,
        "the two backends round differently"
    );

    let start = Barrier::new(2);
    let race = |ckt: &Circuit| {
        start.wait();
        (0..20).map(|_| dc_ac_bits(ckt)).collect::<Vec<_>>()
    };
    let (got_dense, got_sparse) = std::thread::scope(|s| {
        let d = s.spawn(|| race(&dense));
        let p = s.spawn(|| race(&sparse));
        (d.join().unwrap(), p.join().unwrap())
    });
    for (k, (d, p)) in got_dense.iter().zip(&got_sparse).enumerate() {
        assert_eq!(
            d, &want_dense,
            "dense round {k} differs from its serial run"
        );
        assert_eq!(
            p, &want_sparse,
            "sparse round {k} differs from its serial run"
        );
    }
}

#[test]
fn solution_from_reconstructs_operating_records() {
    let ckt = ota(3.0, 1.0);
    let solved = DcOp::new(&on(&ckt, SolverChoice::Sparse)).solve().unwrap();
    let rebuilt = DcOp::new(&ckt)
        .solution_from(solved.unknowns().clone())
        .unwrap();
    assert_eq!(rebuilt.iterations(), 0);
    assert_eq!(
        solved.unknowns().as_slice(),
        rebuilt.unknowns().as_slice(),
        "unknowns pass through untouched"
    );
    for (a, b) in solved.mosfet_ops().iter().zip(rebuilt.mosfet_ops()) {
        assert_eq!(a.region, b.region);
        assert_eq!(a.id, b.id, "{}: bit-identical op records", a.name);
    }
}

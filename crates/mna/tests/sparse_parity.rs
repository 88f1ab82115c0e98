//! Dense-vs-sparse backend parity on a MOSFET circuit large enough to take
//! the sparse path under `Auto`. The backend is a property of each circuit,
//! so every test forces it on its own clone and the tests run concurrently.

use std::collections::HashSet;
use std::sync::Barrier;

use specwise_linalg::{CVec, Complex64, DVec};
use specwise_mna::{
    AcSolver, Circuit, DcOp, DcSensitivity, Integrator, MnaError, MosRegion, MosfetModel,
    MosfetParams, NodeId, SolverChoice, Transient, TransientOptions, Waveform,
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
        assert_eq!(md.region, ms.region, "{:?}", md.element);
        assert!(
            (md.id - ms.id).abs() < 1e-12 * (1.0 + md.id.abs()),
            "{:?}",
            md.element
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

/// Frequencies of the AC forward and adjoint checks, DC included.
const FREQS: [f64; 4] = [0.0, 1e3, 1e6, 1e9];

/// Supply nudge of the DC-sensitivity checks.
const VDD_NUDGE: f64 = 1e-3;

/// Unit adjoint stimulus on the OTA output.
fn output_selector(ckt: &Circuit) -> CVec {
    let mut e = CVec::zeros(ckt.num_unknowns());
    e[ckt.find_node("out").unwrap().index() - 1] = Complex64::ONE;
    e
}

/// Every MNA solve of the OTA at supply `vdd_v`, as raw bits: the DC
/// unknowns, the AC output phasors, the unity-gain crossing, the adjoint
/// solutions at [`FREQS`], and the frozen-Jacobian re-solve of a
/// [`VDD_NUDGE`] supply step.
fn dc_ac_bits(ckt: &Circuit, vdd_v: f64) -> Vec<u64> {
    let out = ckt.find_node("out").unwrap();
    let op = DcOp::new(ckt).solve().unwrap();
    let ac = AcSolver::new(ckt, &op);
    let mut bits: Vec<u64> = op.unknowns().iter().map(|v| v.to_bits()).collect();
    let mut push = |z: Complex64| bits.extend([z.re.to_bits(), z.im.to_bits()]);
    for f in [1.0, 1e3, 1e6, 1e9] {
        push(ac.solve(f).unwrap().voltage(out));
    }
    let ft = ac.find_crossing(out, 1.0, 1.0, 20e9).unwrap();
    push(Complex64::from_real(ft.unwrap_or(-1.0)));
    let e_out = output_selector(ckt);
    for f in FREQS {
        ac.solve_adjoint(f, &e_out)
            .unwrap()
            .iter()
            .for_each(|&z| push(z));
    }
    let mut nudged = ckt.clone();
    nudged.set_dc("VDD", vdd_v + VDD_NUDGE).unwrap();
    let sens = DcSensitivity::new(ckt, &op).unwrap();
    let xp = sens.solve_perturbed(&nudged).unwrap();
    bits.extend(xp.unknowns().iter().map(|v| v.to_bits()));
    bits
}

/// FNV-1a over a sequence of 64-bit words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// `(vdd, width scale)` of the three pinned OTA operating points.
const PINNED_POINTS: [(f64, f64); 3] = [(3.0, 1.0), (2.7, 0.8), (3.3, 1.25)];

/// FNV-1a of [`dc_ac_bits`] at [`PINNED_POINTS`], per backend, captured
/// before the dense and sparse solves were merged into one workspace.
const GOLDEN_DENSE: [u64; 3] = [0xd566150ebc53dc47, 0xedd974d174bd9430, 0xae3a1758377ce0f0];
const GOLDEN_SPARSE: [u64; 3] = [0xb0d979202a752162, 0x76ba7f8ad1c4e86a, 0x121b018e6b184717];

#[test]
fn backend_bits_match_golden() {
    for (choice, golden) in [
        (SolverChoice::Dense, GOLDEN_DENSE),
        (SolverChoice::Sparse, GOLDEN_SPARSE),
    ] {
        let got: Vec<u64> = PINNED_POINTS
            .iter()
            .map(|&(vdd, w)| fnv1a(dc_ac_bits(&on(&ota(vdd, w), choice), vdd)))
            .collect();
        assert_eq!(got, golden, "{choice:?}: {got:#018x?}");
    }
}

/// The OTA with its positive input biased at `vinp` and stepped to 1.3 V.
fn stepped_ota(vinp: f64) -> Circuit {
    let mut ckt = ota(3.0, 1.0);
    ckt.set_dc("VINP", vinp).unwrap();
    let step = Waveform::Step {
        v0: vinp,
        v1: 1.3,
        t0: 5e-9,
        t_rise: 1e-9,
    };
    ckt.set_stimulus("VINP", step).unwrap();
    ckt
}

/// Every node voltage at every time point of a transient under both
/// integrators, as raw bits.
fn transient_bits(ckt: &Circuit) -> Vec<u64> {
    let mut bits = Vec::new();
    for integrator in [Integrator::Trapezoidal, Integrator::BackwardEuler] {
        let mut opts = TransientOptions::new(0.5e-9, 30e-9);
        opts.integrator = integrator;
        let tr = Transient::new(ckt, opts).run().unwrap();
        bits.extend(tr.times().iter().map(|t| t.to_bits()));
        for name in ["vdd", "inp", "inn", "tail", "d1", "out"] {
            let v = tr.voltage(ckt.find_node(name).unwrap());
            bits.extend(v.iter().map(|v| v.to_bits()));
        }
    }
    bits
}

/// Positive-input biases of the pinned transients.
const TRAN_BIASES: [f64; 2] = [0.6, 1.2];

/// FNV-1a of [`transient_bits`] of [`stepped_ota`] at [`TRAN_BIASES`], per
/// backend.
const GOLDEN_TRAN_DENSE: [u64; 2] = [0xef8241e08e693e51, 0x8ada40cae9944e4d];
const GOLDEN_TRAN_SPARSE: [u64; 2] = [0x8e9d15d10ceb8c88, 0x8e5f339138adbdfd];

#[test]
fn transient_bits_match_golden() {
    // Between them the initial operating points hold devices in cutoff,
    // triode and saturation, so every Meyer region's capacitances count.
    let regions: HashSet<MosRegion> = TRAN_BIASES
        .iter()
        .flat_map(|&v| {
            let op = DcOp::new(&stepped_ota(v)).solve().unwrap();
            op.mosfet_ops().iter().map(|m| m.region).collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(regions.len(), 3, "regions {regions:?}");
    for (choice, golden) in [
        (SolverChoice::Dense, GOLDEN_TRAN_DENSE),
        (SolverChoice::Sparse, GOLDEN_TRAN_SPARSE),
    ] {
        let got: Vec<u64> = TRAN_BIASES
            .iter()
            .map(|&v| fnv1a(transient_bits(&on(&stepped_ota(v), choice))))
            .collect();
        assert_eq!(got, golden, "{choice:?}: {got:#018x?}");
    }
}

/// The unity-gain search of [`AcSolver::find_crossing_driven`] written as
/// a plain loop over [`AcSolver::solve_driven`]: quarter-decade scan, then
/// log-frequency bisection.
fn crossing_by_solves(
    ac: &AcSolver,
    node: NodeId,
    target: f64,
    (f_lo, f_hi): (f64, f64),
    b: &DVec,
) -> Result<Option<f64>, MnaError> {
    let mag = |f: f64| -> Result<f64, MnaError> { Ok(ac.solve_driven(f, b)?.voltage(node).abs()) };
    if mag(f_lo)? < target {
        return Ok(None);
    }
    let ratio = 10f64.powf(1.0 / 4.0);
    let (mut lo, mut f) = (f_lo, f_lo * ratio);
    let mut hi = loop {
        if f > f_hi * (1.0 + 1e-12) {
            return Ok(None);
        }
        if mag(f)? < target {
            break f;
        }
        lo = f;
        f *= ratio;
    };
    for _ in 0..80 {
        let mid = (lo * hi).sqrt();
        if mag(mid)? >= target {
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

#[test]
fn crossing_matches_a_loop_over_solve_driven() {
    for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
        for (vdd, w) in PINNED_POINTS {
            let ckt = on(&ota(vdd, w), choice);
            let out = ckt.find_node("out").unwrap();
            let op = DcOp::new(&ckt).solve().unwrap();
            let ac = AcSolver::new(&ckt, &op);
            let drives = [
                ac.drive(&[("VINP", 1.0)]).unwrap(),
                ac.drive(&[("VINP", 0.5), ("VINN", -0.5)]).unwrap(),
                ac.drive(&[("VDD", 1.0)]).unwrap(),
            ];
            for b in &drives {
                // Crossings, a target never reached, and a search that
                // scans past every finite frequency and errors.
                for (target, bounds) in [
                    (1.0, (1.0, 20e9)),
                    (0.1, (10.0, 1e12)),
                    (1e9, (1.0, 20e9)),
                    (0.0, (1.0, f64::INFINITY)),
                ] {
                    let got = ac.find_crossing_driven(out, target, bounds.0, bounds.1, b);
                    let want = crossing_by_solves(&ac, out, target, bounds, b);
                    let bits = |r: &Result<Option<f64>, MnaError>| match r {
                        Ok(f) => Ok(f.map(f64::to_bits)),
                        Err(e) => Err(e.clone()),
                    };
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{choice:?} vdd={vdd} target={target}"
                    );
                    assert_eq!(got.is_err(), target == 0.0);
                }
            }
            let short = DVec::zeros(ckt.num_unknowns() - 1);
            assert!(matches!(
                ac.find_crossing_driven(out, 1.0, 1.0, 20e9, &short),
                Err(MnaError::InvalidRequest { .. })
            ));
            assert!(matches!(
                ac.find_crossing_driven(out, 1.0, 0.0, 20e9, &drives[0]),
                Err(MnaError::InvalidRequest { .. })
            ));
        }
    }
}

#[test]
fn adjoint_sparse_matches_dense() {
    let ckt = ota(3.0, 1.0);
    let run = |choice| {
        let ckt = on(&ckt, choice);
        let op = DcOp::new(&ckt).solve().unwrap();
        let ac = AcSolver::new(&ckt, &op);
        let e_out = output_selector(&ckt);
        FREQS
            .iter()
            .map(|&f| ac.solve_adjoint(f, &e_out).unwrap())
            .collect::<Vec<_>>()
    };
    let dense = run(SolverChoice::Dense);
    let sparse = run(SolverChoice::Sparse);
    for (f, (ld, ls)) in FREQS.iter().zip(dense.iter().zip(&sparse)) {
        for (zd, zs) in ld.iter().zip(ls.iter()) {
            let err = (*zd - *zs).abs() / (1.0 + zd.abs());
            assert!(err < 1e-9, "f = {f}: dense {zd:?} sparse {zs:?}");
        }
    }
}

#[test]
fn sensitivity_sparse_matches_dense() {
    let ckt = ota(3.0, 1.0);
    let run = |choice| {
        let ckt = on(&ckt, choice);
        let op = DcOp::new(&ckt).solve().unwrap();
        let mut nudged = ckt.clone();
        nudged.set_dc("VDD", 3.0 + VDD_NUDGE).unwrap();
        DcSensitivity::new(&ckt, &op)
            .unwrap()
            .solve_perturbed(&nudged)
            .unwrap()
            .unknowns()
            .clone()
    };
    let dense = run(SolverChoice::Dense);
    let sparse = run(SolverChoice::Sparse);
    for i in 0..dense.len() {
        let err = (dense[i] - sparse[i]).abs() / (1.0 + dense[i].abs());
        assert!(
            err < 1e-9,
            "unknown {i}: dense {} sparse {}",
            dense[i],
            sparse[i]
        );
    }
}

#[test]
fn concurrent_backends_match_their_serial_runs() {
    let ckt = ota(3.0, 1.0);
    let dense = on(&ckt, SolverChoice::Dense);
    let sparse = on(&ckt, SolverChoice::Sparse);
    let want_dense = dc_ac_bits(&dense, 3.0);
    let want_sparse = dc_ac_bits(&sparse, 3.0);
    assert_ne!(
        want_dense, want_sparse,
        "the two backends round differently"
    );

    let start = Barrier::new(2);
    let race = |ckt: &Circuit| {
        start.wait();
        (0..20).map(|_| dc_ac_bits(ckt, 3.0)).collect::<Vec<_>>()
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
        assert_eq!(a.id, b.id, "{:?}: bit-identical op records", a.element);
    }
}

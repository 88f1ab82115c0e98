//! Benchmarks of the MNA simulator substrate: DC operating point, AC
//! solve, and a full opamp performance evaluation — the unit costs behind
//! every number in the paper's Table 7.

use criterion::{criterion_group, criterion_main, Criterion};
use specwise_ckt::{CircuitEnv, FoldedCascode, MillerOpamp};
use specwise_linalg::DVec;
use specwise_mna::{AcSolver, Circuit, DcOp, MosfetModel, MosfetParams, SolverChoice};

fn common_source() -> Circuit {
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
    let m = MosfetParams::new(MosfetModel::default_nmos(), 10e-6, 1e-6);
    ckt.mosfet("M1", out, gate, Circuit::GROUND, Circuit::GROUND, m)
        .unwrap();
    ckt
}

fn bench_dc(c: &mut Criterion) {
    let ckt = common_source();
    c.bench_function("dc_op_common_source", |b| {
        b.iter(|| DcOp::new(&ckt).solve().unwrap())
    });

    let env = FoldedCascode::paper_setup();
    let d0 = env.design_space().initial();
    c.bench_function("dc_constraints_folded_cascode", |b| {
        b.iter(|| env.eval_constraints(&d0).unwrap())
    });
}

fn bench_ac(c: &mut Criterion) {
    let ckt = common_source();
    let op = DcOp::new(&ckt).solve().unwrap();
    let ac = AcSolver::new(&ckt, &op);
    c.bench_function("ac_single_frequency", |b| b.iter(|| ac.solve(1e6).unwrap()));
    let out = ckt.find_node("out").unwrap();
    c.bench_function("ac_find_unity_crossing", |b| {
        b.iter(|| ac.find_crossing(out, 1.0, 1e3, 1e12).unwrap())
    });

    // The same search on the sparse complex LU (refactor per probe), which
    // the opamp testbenches take under `Auto`.
    let mut sparse = ckt.clone();
    sparse.set_solver(SolverChoice::Sparse);
    let op = DcOp::new(&sparse).solve().unwrap();
    let ac = AcSolver::new(&sparse, &op);
    c.bench_function("ac_find_unity_crossing_sparse", |b| {
        b.iter(|| ac.find_crossing(out, 1.0, 1e3, 1e12).unwrap())
    });
}

fn bench_full_eval(c: &mut Criterion) {
    let env = FoldedCascode::paper_setup();
    let d0 = env.design_space().initial();
    let s0 = DVec::zeros(env.stat_dim());
    let theta = env.operating_range().nominal();
    c.bench_function("eval_performances_folded_cascode", |b| {
        b.iter(|| env.eval_performances(&d0, &s0, &theta).unwrap())
    });

    let miller = MillerOpamp::paper_setup();
    let dm = miller.design_space().initial();
    let sm = DVec::zeros(miller.stat_dim());
    let tm = miller.operating_range().nominal();
    c.bench_function("eval_performances_miller", |b| {
        b.iter(|| miller.eval_performances(&dm, &sm, &tm).unwrap())
    });
}

/// One adjoint ŝ gradient of the worst-case search: the base measurement,
/// then every ŝ direction (27 on the folded cascode) priced on the base
/// factorizations instead of re-simulated.
fn bench_perturbed(c: &mut Criterion) {
    for (name, env) in [
        (
            "eval_margins_perturbed_folded",
            FoldedCascode::paper_setup(),
        ),
        ("eval_margins_perturbed_miller", MillerOpamp::paper_setup()),
    ] {
        let d0 = env.design_space().initial();
        let s0 = DVec::zeros(env.stat_dim());
        let theta = env.operating_range().nominal();
        let directions: Vec<(DVec, DVec)> = (0..env.stat_dim())
            .map(|j| {
                let mut s = s0.clone();
                s[j] += 0.01;
                (d0.clone(), s)
            })
            .collect();
        let answer = env
            .eval_margins_perturbed(&d0, &s0, &theta, &directions)
            .unwrap();
        assert!(answer.is_some(), "{name}: the shortcut must answer");
        c.bench_function(name, |b| {
            b.iter(|| {
                env.eval_margins_perturbed(&d0, &s0, &theta, &directions)
                    .unwrap()
            })
        });
    }
}

criterion_group!(
    benches,
    bench_dc,
    bench_ac,
    bench_full_eval,
    bench_perturbed
);
criterion_main!(benches);

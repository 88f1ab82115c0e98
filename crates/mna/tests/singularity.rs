//! Failure-hygiene properties: structurally singular and near-singular MNA
//! systems must come back as clean [`MnaError`]s — never a panic — through
//! BOTH the dense and the sparse LU backend, and the two backends must agree
//! on whether a given system is solvable.

use proptest::prelude::*;
use specwise_mna::{Circuit, DcOp, DcSolution, MnaError, SolverChoice};

/// Solves the DC operating point of a clone of `ckt` on the given backend.
fn solve_on(ckt: &Circuit, choice: SolverChoice) -> Result<DcSolution, MnaError> {
    let mut ckt = ckt.clone();
    ckt.set_solver(choice);
    DcOp::new(&ckt).solve()
}

/// A resistive ladder driven by one voltage source, with optional extras
/// appended by the individual properties.
fn ladder(resistors: &[f64], v1: f64) -> Circuit {
    let mut ckt = Circuit::new();
    let top = ckt.node("n0");
    ckt.voltage_source("V1", top, Circuit::GROUND, v1).unwrap();
    let mut prev = top;
    for (k, &r) in resistors.iter().enumerate() {
        let n = ckt.node(&format!("n{}", k + 1));
        ckt.resistor(&format!("Rs{k}"), prev, n, r).unwrap();
        ckt.resistor(&format!("Rp{k}"), n, Circuit::GROUND, 2.0 * r)
            .unwrap();
        prev = n;
    }
    ckt
}

/// A singular or non-converging system must be reported as such — not as a
/// panic, not as `InvalidValue`/`NotFound` noise.
fn clean_failure(e: &MnaError) -> bool {
    matches!(
        e,
        MnaError::SingularMatrix { .. } | MnaError::NoConvergence { .. }
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Two voltage sources across the same node pair make the MNA branch
    /// columns linearly dependent whatever their values are — gmin stepping
    /// cannot regularize that. Both backends must refuse with a clean error.
    #[test]
    fn voltage_source_loop_fails_cleanly_on_both_backends(
        resistors in prop::collection::vec(10.0..10_000.0f64, 1..6),
        v1 in -5.0..5.0f64,
        v2 in -5.0..5.0f64,
    ) {
        let mut ckt = ladder(&resistors, v1);
        let top = ckt.find_node("n0").unwrap();
        ckt.voltage_source("V2", top, Circuit::GROUND, v2).unwrap();
        for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
            let r = solve_on(&ckt, choice);
            match r {
                Err(e) => prop_assert!(
                    clean_failure(&e),
                    "{choice:?}: expected singular/no-convergence, got {e}"
                ),
                Ok(_) => prop_assert!(false, "{choice:?}: solved a VS loop"),
            }
        }
    }

    /// A node hanging on a near-infinite resistance (conductance at or below
    /// the gmin shunt) is the classic near-singular system. Whatever each
    /// backend decides, it must decide cleanly — and the two must agree on
    /// solvability, producing finite voltages when they solve.
    #[test]
    fn nearly_floating_node_agrees_across_backends(
        resistors in prop::collection::vec(10.0..10_000.0f64, 1..5),
        v1 in 0.5..5.0f64,
        rexp in 10.0..15.0f64,
    ) {
        let mut ckt = ladder(&resistors, v1);
        let top = ckt.find_node("n0").unwrap();
        let dangling = ckt.node("dangling");
        ckt.resistor("Rbig", top, dangling, 10f64.powf(rexp)).unwrap();
        let dense = solve_on(&ckt, SolverChoice::Dense);
        let sparse = solve_on(&ckt, SolverChoice::Sparse);
        prop_assert_eq!(
            dense.is_ok(),
            sparse.is_ok(),
            "backends disagree: dense {:?} sparse {:?}",
            dense.as_ref().err(),
            sparse.as_ref().err()
        );
        for (label, r) in [("dense", &dense), ("sparse", &sparse)] {
            match r {
                Ok(op) => {
                    let v = op.voltage(dangling);
                    prop_assert!(v.is_finite(), "{label}: non-finite v(dangling) {v}");
                }
                Err(e) => prop_assert!(clean_failure(e), "{label}: dirty error {e}"),
            }
        }
    }

    /// A current source feeding a node whose only other path to ground is
    /// the gmin shunt: solvable only thanks to the regularization, at node
    /// voltages around I/gmin. No panic, matching verdicts, finite results.
    #[test]
    fn current_fed_island_never_panics(
        resistors in prop::collection::vec(10.0..10_000.0f64, 1..5),
        v1 in -5.0..5.0f64,
        i in -1e-6..1e-6f64,
    ) {
        let mut ckt = ladder(&resistors, v1);
        let island = ckt.node("island");
        ckt.current_source("Iisl", Circuit::GROUND, island, i).unwrap();
        let dense = solve_on(&ckt, SolverChoice::Dense);
        let sparse = solve_on(&ckt, SolverChoice::Sparse);
        prop_assert_eq!(
            dense.is_ok(),
            sparse.is_ok(),
            "backends disagree: dense {:?} sparse {:?}",
            dense.as_ref().err(),
            sparse.as_ref().err()
        );
        for (label, r) in [("dense", &dense), ("sparse", &sparse)] {
            match r {
                Ok(op) => prop_assert!(
                    op.voltage(island).is_finite(),
                    "{label}: non-finite island voltage"
                ),
                Err(e) => prop_assert!(clean_failure(e), "{label}: dirty error {e}"),
            }
        }
    }
}

//! Environment isolation: library calls read no `SPECWISE_*` variable.
//!
//! Only the explicit `from_env` constructors read the process environment,
//! and only programs call them. This test records a small OTA run, a
//! margin Jacobian and a default job resolution in a clean environment,
//! then sets the knobs that library calls once read — a checkpoint path
//! holding another configuration's checkpoint, the FD gradient backend,
//! cold DC starts and the norm-min estimator — and requires every result
//! to stay bit-identical on freshly built benches.
//!
//! It is the only test in its binary, so `set_var` cannot race another
//! test.

use specwise::{EstimatorKind, OptimizerConfig, YieldOptimizer};
use specwise_ckt::{CircuitEnv, FiveTransistorOta};
use specwise_linalg::DVec;
use specwise_serve::JobRequest;
use specwise_wcd::margins_gradient_s;

/// `(variable, value)` pairs the library must ignore; the checkpoint path
/// is filled in at run time.
const KNOBS: [(&str, &str); 3] = [
    ("SPECWISE_GRAD", "fd"),
    ("SPECWISE_WARM_START", "0"),
    ("SPECWISE_ESTIMATOR", "norm-min"),
];

fn config() -> OptimizerConfig {
    let mut cfg = OptimizerConfig::default();
    cfg.mc_samples = 500;
    cfg.verify_samples = 30;
    cfg.max_iterations = 1;
    cfg
}

/// Everything a stray knob could move, as raw bits.
#[derive(Debug, PartialEq)]
struct Observed {
    design: Vec<u64>,
    total_sims: u64,
    verified_yield: u64,
    resumed: bool,
    warm_start: bool,
    jacobian: Vec<u64>,
    adjoint_solves: u64,
    estimator: EstimatorKind,
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn observe() -> Observed {
    let bench = FiveTransistorOta::default_setup();
    let trace = YieldOptimizer::new(config())
        .run(&bench)
        .expect("OTA run completes");
    let verified = trace
        .snapshots()
        .last()
        .and_then(|s| s.verified.as_ref())
        .expect("final snapshot is verified");

    let grad_bench = FiveTransistorOta::default_setup();
    let d = grad_bench.design_space().initial();
    let s = DVec::zeros(grad_bench.stat_dim());
    let theta = grad_bench.operating_range().nominal();
    let (_, jac) =
        margins_gradient_s(&grad_bench, &d, &s, &theta, 0.01).expect("gradient evaluates");

    let options = JobRequest::new("deck".into(), "tenant".into())
        .resolve()
        .expect("default request resolves");

    Observed {
        design: bits(trace.final_design().as_slice()),
        total_sims: trace.total_sims,
        verified_yield: verified.yield_estimate.value().to_bits(),
        resumed: trace.resumed,
        warm_start: bench.warm_cache().is_enabled(),
        jacobian: bits(jac.as_slice()),
        adjoint_solves: grad_bench.adjoint_solve_count(),
        estimator: options.estimator,
    }
}

#[test]
fn library_calls_ignore_specwise_knobs() {
    let ckpt = std::env::temp_dir().join(format!(
        "specwise-env-isolation-{}.ckpt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&ckpt);
    std::env::remove_var("SPECWISE_CHECKPOINT");
    for (name, _) in KNOBS {
        std::env::remove_var(name);
    }

    let reference = observe();
    assert!(!reference.resumed);
    assert!(reference.warm_start);
    assert!(
        reference.adjoint_solves > 0,
        "the OTA takes the adjoint path"
    );
    assert_eq!(reference.estimator, EstimatorKind::Mc);

    // A checkpoint from another configuration at the same seed and design
    // dimension: resuming it would splice a foreign run into this one.
    let mut foreign = config();
    foreign.use_constraints = false;
    YieldOptimizer::new(foreign)
        .with_checkpoint(&ckpt)
        .run(&FiveTransistorOta::default_setup())
        .expect("foreign run completes");
    assert!(ckpt.exists(), "the foreign run writes its checkpoint");

    std::env::set_var("SPECWISE_CHECKPOINT", &ckpt);
    for (name, value) in KNOBS {
        std::env::set_var(name, value);
    }
    let knobbed = observe();
    let _ = std::fs::remove_file(&ckpt);

    let mut moved = Vec::new();
    if knobbed.resumed {
        moved.push("SPECWISE_CHECKPOINT: the run resumed a checkpoint it was never given");
    }
    if !knobbed.warm_start {
        moved.push("SPECWISE_WARM_START: a fresh bench came up with its warm-start cache off");
    }
    if knobbed.adjoint_solves == 0 || knobbed.jacobian != reference.jacobian {
        moved.push("SPECWISE_GRAD: margins_gradient_s left the adjoint backend");
    }
    if knobbed.estimator != EstimatorKind::Mc {
        moved.push("SPECWISE_ESTIMATOR: a job with no estimator resolved away from mc");
    }
    if (&knobbed.design, knobbed.total_sims, knobbed.verified_yield)
        != (
            &reference.design,
            reference.total_sims,
            reference.verified_yield,
        )
    {
        moved.push("run: final design, total_sims or verified yield changed");
    }
    assert!(moved.is_empty(), "{}", moved.join("\n"));
    assert_eq!(knobbed, reference);
}

//! Chaos acceptance test: the Miller Table 6 flow must complete under a 10%
//! injected simulation-failure rate, and when per-point retries absorb every
//! fault the final design must be bit-identical to the fault-free run.
//! Injected worker panics must never abort the process.

use specwise::{OptimizerConfig, YieldOptimizer};
use specwise_ckt::MillerOpamp;
use specwise_exec::{EvalService, ExecConfig, RetryPolicy};
use specwise_harden::{FaultConfig, FaultInjector, FaultKind};

fn quick_config() -> OptimizerConfig {
    let mut cfg = OptimizerConfig::default();
    cfg.mc_samples = 2_000;
    cfg.verify_samples = 150;
    cfg.max_iterations = 1;
    cfg
}

fn exec_config() -> ExecConfig {
    // Same-point retries: a transient fault clears on the second attempt
    // and the clean evaluation is exactly what the fault-free run computed.
    ExecConfig::default()
        .with_workers(4)
        .with_retry(RetryPolicy {
            max_retries: 3,
            perturb: 0.0,
        })
}

#[test]
fn miller_flow_under_ten_percent_faults_matches_fault_free_run() {
    // Fault-free reference, through the same evaluation engine and the same
    // injector at rate 0, so the two runs differ only in the injected
    // faults. The injector must observe every evaluation point, so it
    // declines the adjoint shortcut (see `FaultInjector`'s `CircuitEnv`
    // impl) at any rate: both runs take the finite-difference path and
    // compute identical floats — this test is about retry absorption, not
    // gradient backends.
    let clean_env = MillerOpamp::paper_setup();
    let clean_inj = FaultInjector::new(&clean_env, FaultConfig::new(0x5EC5, 0.0));
    let clean_svc = EvalService::new(&clean_inj, exec_config());
    let clean = YieldOptimizer::new(quick_config())
        .run(&clean_svc)
        .expect("fault-free run completes");

    // Chaotic run: 10% of evaluation points fault on first contact, split
    // between simulator non-convergence and worker panics. Faults are
    // transient and short-circuit *before* the wrapped environment runs, so
    // the retry's clean attempt replays the exact fault-free sim stream.
    let env = MillerOpamp::paper_setup();
    let faults = FaultConfig::new(0x5EC5, 0.10)
        .with_kinds(&[FaultKind::NonConvergence, FaultKind::WorkerPanic]);
    let inj = FaultInjector::new(&env, faults);
    let svc = EvalService::new(&inj, exec_config());

    // Injected panics are noisy by design; keep CI logs readable while
    // still asserting they fired and were contained.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let chaotic = YieldOptimizer::new(quick_config()).run(&svc);
    std::panic::set_hook(prev_hook);

    // The process is still alive here: every injected panic was contained.
    let chaotic = chaotic.expect("chaotic run completes");
    let injected = inj.report();
    assert!(
        injected.count(FaultKind::NonConvergence) > 0,
        "non-convergence faults must fire at 10% over a full flow"
    );
    assert!(
        injected.count(FaultKind::WorkerPanic) > 0,
        "worker panics must fire at 10% over a full flow"
    );
    let report = svc.report();
    assert_eq!(report.panics_caught, injected.count(FaultKind::WorkerPanic));
    assert_eq!(
        report.sim_failures, 0,
        "retries must absorb every transient fault"
    );
    assert_eq!(report.recovered, injected.total());

    // Retries absorbed everything, so the flow saw identical numbers: the
    // final design and both yield estimates are bit-identical.
    assert_eq!(
        clean.final_design().as_slice(),
        chaotic.final_design().as_slice(),
        "final design must be bit-identical to the fault-free run"
    );
    for (c, f) in clean.snapshots().iter().zip(chaotic.snapshots()) {
        assert_eq!(c.label, f.label);
        assert_eq!(
            c.estimated_yield.value().to_bits(),
            f.estimated_yield.value().to_bits(),
            "estimated yield at {}",
            c.label
        );
        match (&c.verified, &f.verified) {
            (Some(a), Some(b)) => assert_eq!(
                a.yield_estimate.value().to_bits(),
                b.yield_estimate.value().to_bits(),
                "verified yield at {}",
                c.label
            ),
            (None, None) => {}
            _ => panic!("verification presence differs at {}", c.label),
        }
    }
}

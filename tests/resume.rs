//! Kill-and-resume acceptance test: interrupt a checkpointed Miller run
//! mid-iteration, resume it in a "fresh process" (new environment, new
//! optimizer), and require the resumed run to reproduce the uninterrupted
//! run's final design, yield estimates, and journal span structure
//! bit-for-bit.
//!
//! A second case anchors the linearization at the nominal point (the
//! Table 4 ablation), whose first gradient after a checkpoint is taken at
//! a point the worst-case corner batch just measured. A resumed process
//! starts with an empty last-measurement slot, so it must serve exactly
//! the repeats the uninterrupted run serves and spend the same
//! simulations.

use std::sync::Arc;

use specwise::{Journal, OptimizerConfig, Tracer, YieldOptimizer};
use specwise_ckt::{MillerOpamp, Testbench};
use specwise_harden::KillSwitch;
use specwise_trace::SpanNode;
use specwise_wcd::LinearizationPoint;

fn quick_config() -> OptimizerConfig {
    let mut cfg = OptimizerConfig::default();
    cfg.mc_samples = 2_000;
    cfg.verify_samples = 150;
    cfg.max_iterations = 2;
    cfg
}

/// Checkpoints restore the optimizer's state, not the warm-start cache; a
/// resumed process re-solves from cold starts, which is convergence-
/// equivalent but not bit-identical. Bit-for-bit reproduction is asserted
/// with the cache off.
fn env() -> Testbench {
    MillerOpamp::paper_setup().with_warm_start(false)
}

fn unique_ckpt(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("specwise-resume-{tag}-{}.ckpt", std::process::id()))
}

/// The timing-free shape of a span subtree: names, attributes, and counters,
/// recursively — everything the journal records except ids and clocks.
fn shape(node: &SpanNode) -> String {
    let mut out = format!(
        "{}{:?}{:?}[",
        node.span.name, node.span.attrs, node.span.counters
    );
    for c in &node.children {
        out.push_str(&shape(c));
        out.push(',');
    }
    out.push(']');
    out
}

/// The `iteration` spans under the run root with `iter >= from`, in order.
fn iterations_from(roots: &[SpanNode], from: u64) -> Vec<SpanNode> {
    let run = roots
        .iter()
        .find(|r| r.span.name == "run")
        .expect("run span");
    run.children
        .iter()
        .filter(|c| {
            c.span.name == "iteration"
                && c.span
                    .attr("iter")
                    .and_then(|v| match v {
                        specwise_trace::TraceValue::U64(n) => Some(*n),
                        specwise_trace::TraceValue::I64(n) => Some(*n as u64),
                        _ => None,
                    })
                    .is_some_and(|i| i >= from)
        })
        .cloned()
        .collect()
}

#[test]
fn killed_run_resumes_bit_for_bit() {
    let ckpt = unique_ckpt("killed");
    let _ = std::fs::remove_file(&ckpt);

    // Uninterrupted reference run, journaled. The pass-through KillSwitch
    // (unreachable budget) counts evaluation calls, which is the unit the
    // kill budget below is expressed in.
    let ref_env = env();
    let probe = KillSwitch::new(&ref_env, u64::MAX);
    let ref_journal = Arc::new(Journal::in_memory());
    let reference = YieldOptimizer::new(quick_config())
        .with_tracer(Tracer::new(Arc::clone(&ref_journal)))
        .run(&probe)
        .expect("reference run completes");
    let n_iters = reference.snapshots().len() as u64 - 1;
    assert!(n_iters >= 1, "need an iteration to kill inside");

    // Killed run: the evaluation budget runs out inside the last journaled
    // iteration (its verification runs ≥ `verify_samples` evaluations),
    // after an earlier iteration's checkpoint was written.
    let budget = probe.used() - 60;
    let kill_env = env();
    let kill = KillSwitch::new(&kill_env, budget);
    let killed = YieldOptimizer::new(quick_config())
        .with_checkpoint(&ckpt)
        .run(&kill);
    assert!(killed.is_err(), "the kill switch must abort the run");
    assert!(kill.tripped());
    assert!(ckpt.exists(), "a checkpoint must survive the kill");

    // Resume in a fresh "process": new environment, new optimizer.
    let res_journal = Arc::new(Journal::in_memory());
    let resumed = YieldOptimizer::new(quick_config())
        .with_checkpoint(&ckpt)
        .with_tracer(Tracer::new(Arc::clone(&res_journal)))
        .run(&env())
        .expect("resumed run completes");
    assert!(
        resumed.resumed,
        "the run must have picked up the checkpoint"
    );

    // Final design and yields reproduce the uninterrupted run bit-for-bit.
    assert_eq!(
        reference.final_design().as_slice(),
        resumed.final_design().as_slice()
    );
    assert_eq!(reference.total_sims, resumed.total_sims);
    assert_eq!(reference.phase_sims, resumed.phase_sims);
    assert_eq!(reference.snapshots().len(), resumed.snapshots().len());
    for (a, b) in reference.snapshots().iter().zip(resumed.snapshots()) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.sim_count, b.sim_count, "sim accounting at {}", a.label);
        assert_eq!(
            a.estimated_yield.value().to_bits(),
            b.estimated_yield.value().to_bits(),
            "estimated yield at {}",
            a.label
        );
        match (&a.verified, &b.verified) {
            (Some(x), Some(y)) => assert_eq!(
                x.yield_estimate.value().to_bits(),
                y.yield_estimate.value().to_bits(),
                "verified yield at {}",
                a.label
            ),
            (None, None) => {}
            _ => panic!("verification presence differs at {}", a.label),
        }
    }

    // Journal span structure: the resumed run re-executes exactly the
    // iterations after the checkpoint, and their span subtrees (names,
    // attributes, counters) match the tail of the reference's bit-for-bit.
    let ref_iters = iterations_from(&ref_journal.span_tree(), 0);
    let res_iters = iterations_from(&res_journal.span_tree(), 0);
    assert!(!res_iters.is_empty(), "the resumed run re-ran an iteration");
    assert!(
        res_iters.len() <= ref_iters.len(),
        "resume must not invent iterations"
    );
    let tail = &ref_iters[ref_iters.len() - res_iters.len()..];
    for (a, b) in tail.iter().zip(&res_iters) {
        assert_eq!(shape(a), shape(b), "span structure diverged");
    }

    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn nominal_anchored_run_resumes_with_the_same_sims() {
    let ckpt = unique_ckpt("nominal");
    let _ = std::fs::remove_file(&ckpt);
    let config = || {
        let mut cfg = quick_config();
        cfg.max_iterations = 1;
        cfg.wc_options.linearization_point = LinearizationPoint::Nominal;
        cfg
    };

    let ref_env = env();
    let probe = KillSwitch::new(&ref_env, u64::MAX);
    let reference = YieldOptimizer::new(config())
        .run(&probe)
        .expect("reference run completes");
    assert!(ref_env.measurements_reused() > 0, "the run serves repeats");

    // Killed inside the iteration's verification, after the initial
    // checkpoint was written.
    let kill_env = env();
    let kill = KillSwitch::new(&kill_env, probe.used() - 60);
    assert!(YieldOptimizer::new(config())
        .with_checkpoint(&ckpt)
        .run(&kill)
        .is_err());

    let resumed = YieldOptimizer::new(config())
        .with_checkpoint(&ckpt)
        .run(&env())
        .expect("resumed run completes");
    assert!(resumed.resumed);
    assert_eq!(
        reference.final_design().as_slice(),
        resumed.final_design().as_slice()
    );
    assert_eq!(reference.total_sims, resumed.total_sims);
    assert_eq!(reference.phase_sims, resumed.phase_sims);

    let _ = std::fs::remove_file(&ckpt);
}

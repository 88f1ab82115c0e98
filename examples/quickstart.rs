//! Quickstart: estimate and improve the yield of an analog circuit in a few
//! lines.
//!
//! The example runs the full DAC 2001 flow on the folded-cascode opamp with
//! reduced sample counts so it finishes in seconds:
//!
//! 1. evaluate the initial design (margins at the worst-case operating
//!    corners),
//! 2. verify its yield by simulation-based Monte Carlo,
//! 3. run one iteration of spec-wise-linearized yield optimization,
//! 4. verify the improvement.
//!
//! Run with `cargo run --release --example quickstart`.
//! Set `SPECWISE_EXAMPLE_QUICK=1` for an even faster smoke-test run and
//! `SPECWISE_TRACE=run.jsonl` to journal every flow phase to disk.

use std::error::Error;

use specwise::{MonteCarlo, OptimizerConfig, Tracer, YieldOptimizer};
use specwise_ckt::{CircuitEnv, FoldedCascode};
use specwise_linalg::DVec;

fn main() -> Result<(), Box<dyn Error>> {
    // The circuit environment: the folded-cascode opamp of the paper's
    // Fig. 7, with global + local (mismatch) process variations.
    let quick = std::env::var("SPECWISE_EXAMPLE_QUICK").is_ok();
    let env = FoldedCascode::paper_setup();
    let d0 = env.design_space().initial();
    let nominal_stats = DVec::zeros(env.stat_dim());

    // 1. Nominal performances at the nominal operating point.
    let theta = env.operating_range().nominal();
    let perf = env.eval_performances(&d0, &nominal_stats, &theta)?;
    println!("Initial nominal performances:");
    for (spec, value) in env.specs().iter().zip(perf.iter()) {
        println!(
            "  {:<22} measured {:>9.2} {}",
            spec.to_string(),
            value,
            spec.unit()
        );
    }

    // 2. Simulation-based Monte-Carlo yield of the initial design
    //    (evaluated at each spec's worst-case operating corner, Eqs. 6-7).
    let tracer = Tracer::from_env();
    let mc = MonteCarlo {
        n_samples: if quick { 50 } else { 200 },
        seed: 7,
    };
    let before = mc.run(&env, &d0, &tracer)?;
    println!("\nInitial verified yield: {}", before.yield_estimate);

    // 3. One iteration of the paper's optimization loop (Fig. 6).
    let mut config = OptimizerConfig::default();
    config.max_iterations = 1;
    config.mc_samples = if quick { 500 } else { 4_000 };
    config.verify_samples = if quick { 50 } else { 200 };
    let trace = YieldOptimizer::new(config)
        .with_tracer(tracer.clone())
        .run(&env)?;

    // 4. The improvement.
    let after = trace.final_snapshot();
    println!(
        "After one iteration:    {}",
        after
            .verified
            .as_ref()
            .expect("verification enabled")
            .yield_estimate
    );
    println!(
        "({} simulator calls, {:.1} s)",
        trace.total_sims,
        trace.wall_time.as_secs_f64()
    );
    if let Some(journal) = tracer.journal() {
        journal.flush();
        println!("\n{}", journal.summary());
    }
    Ok(())
}

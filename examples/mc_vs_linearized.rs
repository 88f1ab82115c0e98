//! Accuracy of the spec-wise linearized yield estimate (paper Sec. 5.2
//! claims 1-2 % agreement with full Monte Carlo).
//!
//! Builds the linearized models of the folded-cascode opamp at the initial
//! design, estimates the yield with 10,000 cheap samples on the models, and
//! compares against a simulation-based Monte-Carlo verification at several
//! design points along a line in the design space.
//!
//! Run with `cargo run --release --example mc_vs_linearized`.
//! Set `SPECWISE_EXAMPLE_QUICK=1` for a fast smoke-test configuration and
//! `SPECWISE_TRACE=run.jsonl` to journal the analysis and MC phases.

use std::error::Error;

use specwise::{LinearizedYield, MonteCarlo, Tracer};
use specwise_ckt::{CircuitEnv, FoldedCascode};
use specwise_wcd::{WcAnalysis, WcOptions};

fn main() -> Result<(), Box<dyn Error>> {
    let quick = std::env::var("SPECWISE_EXAMPLE_QUICK").is_ok();
    let (model_samples, verify_samples) = if quick { (1_000, 50) } else { (10_000, 300) };
    let env = FoldedCascode::paper_setup();
    let d0 = env.design_space().initial();
    let tracer = Tracer::from_env();

    println!("Building spec-wise linearizations at the initial design…");
    let analysis = WcAnalysis::new(&env, WcOptions::default())
        .with_tracer(tracer.clone())
        .run(&d0)?;
    println!(
        "  {} linear models ({} mirrored twins for mismatch-shaped specs)",
        analysis.linearizations().len(),
        analysis
            .linearizations()
            .iter()
            .filter(|l| l.mirrored)
            .count(),
    );
    let model = LinearizedYield::new(
        analysis.linearizations().to_vec(),
        env.specs().len(),
        model_samples,
        2001,
    )?;

    // Compare Ȳ (linearized) against Ỹ (simulation MC) at the anchor and at
    // perturbed designs along the w1 axis.
    println!(
        "\n{:>10} {:>18} {:>18}",
        "w1 [um]", "linearized Ybar", "simulated Ytilde"
    );
    for scale in [1.0, 1.2, 1.5, 2.0] {
        let mut d = d0.clone();
        d[0] *= scale;
        let linearized = model.estimate(&d)?;
        let mc = MonteCarlo {
            n_samples: verify_samples,
            seed: 42,
        };
        let simulated = mc.run(&env, &d, &tracer)?;
        println!(
            "{:>10.1} {:>17.1}% {:>17.1}%",
            d[0],
            linearized.percent(),
            simulated.yield_estimate.percent()
        );
    }
    println!("\nNear the anchor the linearized estimate tracks the simulation MC");
    println!("closely at a tiny fraction of the cost; far from the anchor the");
    println!("models are re-linearized by the optimizer (Fig. 6 loop).");
    if let Some(journal) = tracer.journal() {
        journal.flush();
        println!("\n{}", journal.summary());
    }
    Ok(())
}

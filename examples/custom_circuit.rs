//! Bring your own circuit — without writing a single line of circuit Rust.
//!
//! This example defines a *new* environment (a PMOS-input five-transistor
//! OTA, the complement of the built-in NMOS `FiveTransistorOta`) entirely
//! as an annotated SPICE deck and pushes it through the complete flow:
//! deck → [`Testbench`] → worst-case distances → spec-wise linearization →
//! feasibility-guided yield optimization → importance-sampled verification.
//!
//! The deck carries everything the three built-in environments used to
//! hand-code:
//!
//! * `.design`  — design variables with units, bounds, initial sizing;
//!   `{name}` placeholders substitute them into the netlist,
//! * `.range`   — the operating region Θ (temperature, supply),
//! * `.spec`    — specifications bound to measurements (`dcgain`, `ugf`,
//!   `pm`, `cmrr`, `psrr`, `slew`, `power`, `vdc(<node>)`),
//! * `.match`   — mismatch groups: members get Pelgrom local parameters
//!   with design-dependent σ = A/√(W·L),
//! * `.tb`      — harness wiring (input/supply sources, output node, tail
//!   device and slewing capacitor).
//!
//! Run with `cargo run --release --example custom_circuit`.
//! Set `SPECWISE_EXAMPLE_QUICK=1` for a fast smoke-test configuration and
//! `SPECWISE_TRACE=run.jsonl` to journal every flow phase to disk.

use std::error::Error;

use specwise::{run_report, MeanShiftIs, OptimizerConfig, Tracer, YieldOptimizer};
use specwise_ckt::{CircuitEnv, Testbench};
use specwise_linalg::DVec;

/// A PMOS-input five-transistor OTA: PMOS differential pair (m1/m2) with a
/// PMOS tail current source (mt, mirrored from the mb1 diode), an NMOS
/// current-mirror load (m3/m4), single-ended output into CL.
const DECK: &str = "\
.name pmos-input OTA
.nodes vdd inp out x1 tail vbp
.design w1 um 4.0 400.0 16.0
.design l1 um 0.6 10.0 1.0
.design w3 um 2.0 200.0 8.0
.design l3 um 0.6 10.0 1.5
.design wt um 4.0 400.0 40.0
.design ib uA 1.0 100.0 5.0
.range temp -40.0 125.0
.range vdd 3.0 3.6
.spec A0 dB min 40.0 dcgain
.spec ft MHz min 3.5 ugf
.spec CMRR dB min 60.0 cmrr
.spec SRp V/us min 2.5 slew
.spec Power mW max 0.08 power
.spec Vout V min 1.3 vdc(out)
.match m1 m2
.match m3 m4
.match mt
.match mb1
.tb vinp VINP
.tb vinn VINN
.tb out out
.tb vdd VDD
.tb tail mt
.tb slewcap CL
VDD vdd 0 {vdd}
VINP inp 0 {vcm}
VINN inn 0 {vcm}
IB1 vbp 0 {ib}
m1 x1 inp tail vdd PMOS W={w1} L={l1}
m2 out inn tail vdd PMOS W={w1} L={l1}
m3 x1 x1 0 0 NMOS W={w3} L={l3}
m4 out x1 0 0 NMOS W={w3} L={l3}
mt tail vbp vdd vdd PMOS W={wt} L=2e-6
mb1 vbp vbp vdd vdd PMOS W=20e-6 L=2e-6
CL out 0 3.0e-12
.end
";

fn main() -> Result<(), Box<dyn Error>> {
    let quick = std::env::var("SPECWISE_EXAMPLE_QUICK").is_ok();

    let env = Testbench::from_deck(DECK)?;
    println!(
        "{}: {} design parameters, {} statistical parameters, {} specs, {} sizing rules",
        env.name(),
        env.design_space().dim(),
        env.stat_dim(),
        env.specs().len(),
        env.constraint_names().len()
    );

    // The compiler records where every design variable lands …
    println!("\ndesign variable bindings:");
    for (var, bindings) in env.design_map().iter() {
        let sites: Vec<String> = bindings
            .iter()
            .map(|b| format!("{}:{:?}", b.element, b.target))
            .collect();
        println!("  {var:<4} -> {}", sites.join(", "));
    }
    // … and which devices carry Pelgrom mismatch parameters.
    println!("mismatch pairs: {:?}", env.stat_map().pairs());

    // Sanity: nominal point.
    let d0 = env.design_space().initial();
    let s0 = DVec::zeros(env.stat_dim());
    let theta = env.operating_range().nominal();
    let perf = env.eval_performances(&d0, &s0, &theta)?;
    println!("\nnominal performances:");
    for (spec, value) in env.specs().iter().zip(perf.iter()) {
        println!(
            "  {:<6} = {:>8.3} {} (spec {} {})",
            spec.name(),
            value,
            spec.unit(),
            if spec.satisfied(*value) {
                "met:"
            } else {
                "MISSED:"
            },
            spec.bound()
        );
    }

    // The full WCD → linearize → optimize → Monte-Carlo loop.
    let mut cfg = OptimizerConfig::default();
    if quick {
        cfg.mc_samples = 500;
        cfg.verify_samples = 0;
        cfg.max_iterations = 1;
    } else {
        cfg.mc_samples = 5_000;
        cfg.verify_samples = 300;
    }
    let tracer = Tracer::from_env();
    let trace = YieldOptimizer::new(cfg)
        .with_tracer(tracer.clone())
        .run(&env)?;
    println!();
    print!("{}", run_report(&env, &trace, &tracer));

    if !quick {
        // After optimization the failure probability is usually too small
        // for plain Monte Carlo — verify with importance sampling shifted
        // to the most critical spec's worst-case point.
        let final_snap = trace.final_snapshot();
        let critical = final_snap
            .wc_points
            .iter()
            .min_by(|a, b| a.beta_wc.partial_cmp(&b.beta_wc).expect("finite distances"))
            .expect("at least one spec");
        println!(
            "most critical spec after optimization: {} (beta_wc = {:.2})",
            env.specs()[critical.spec].name(),
            critical.beta_wc
        );
        let is = MeanShiftIs {
            shift: critical.s_wc.clone(),
            n: 2_000,
            seed: 99,
        }
        .run(&env, &final_snap.design, &tracer)?;
        println!(
            "importance-sampled failure probability: {:.3e} (std err {:.1e}, ESS {:.0})",
            is.failure_probability, is.std_error, is.effective_sample_size
        );
    }
    Ok(())
}

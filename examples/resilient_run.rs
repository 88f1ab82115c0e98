//! Robustness demo: the Miller Table 6 flow hardened against simulator
//! failures, worker panics, and job kills.
//!
//! Run with `cargo run --release --example resilient_run`. Everything is
//! driven by environment knobs, so the same binary serves as the CI chaos
//! and resume smoke test:
//!
//! * `SPECWISE_FAULTS=seed:rate:kinds` — inject deterministic faults into
//!   every evaluation (e.g. `7:0.1:nonconv,panic`); the retrying engine
//!   absorbs them and reports what it recovered.
//! * `SPECWISE_CHECKPOINT=path` — write an atomic checkpoint after every
//!   iteration and resume from it when the file already exists. The bench
//!   always runs with cold DC starts, so a resumed run reproduces the
//!   uninterrupted one bit for bit.
//! * `SPECWISE_KILL_AFTER=n` — die fatally after `n` evaluation calls (the
//!   in-process stand-in for a killed job).
//! * `SPECWISE_EXAMPLE_QUICK=1` — reduced sample counts.

use std::error::Error;

use specwise::{run_report, OptimizerConfig, Tracer, YieldOptimizer};
use specwise_ckt::env_knob::parse_env_knob;
use specwise_ckt::{CircuitEnv, MillerOpamp};
use specwise_exec::{EvalService, ExecConfig};
use specwise_harden::{FaultConfig, FaultInjector, KillSwitch};

fn main() -> Result<(), Box<dyn Error>> {
    // Cold starts: warm-start seeds live in memory only, so a resumed run
    // would seed its solves differently from the uninterrupted one.
    let base = MillerOpamp::paper_setup().with_warm_start(false);
    let tracer = Tracer::from_env();
    let mut config = OptimizerConfig::default();
    if std::env::var("SPECWISE_EXAMPLE_QUICK").is_ok() {
        config.mc_samples = 500;
        config.verify_samples = 100;
        config.max_iterations = 2;
    }

    // Optional chaos layer: deterministic, seeded faults on every
    // evaluation point.
    let injector = FaultConfig::from_env().map(|faults| {
        println!("fault injection on: {faults:?}");
        FaultInjector::new(&base as &(dyn CircuitEnv + Sync), faults)
    });
    let env: &(dyn CircuitEnv + Sync) = match &injector {
        Some(i) => i,
        None => &base,
    };

    // Kill switch: a pass-through evaluation counter by default, fatal
    // after `SPECWISE_KILL_AFTER` evaluations when set.
    let kill_after = parse_env_knob::<u64>("SPECWISE_KILL_AFTER");
    if let Some(n) = kill_after {
        println!("kill switch armed: fatal after {n} evaluation calls");
    }
    let kill = KillSwitch::new(env, kill_after.unwrap_or(u64::MAX));

    // The retrying, panic-isolating evaluation engine in front of it all.
    let service = EvalService::new(&kill, ExecConfig::from_env());

    let mut optimizer = YieldOptimizer::new(config).with_tracer(tracer.clone());
    if let Some(path) = std::env::var("SPECWISE_CHECKPOINT")
        .ok()
        .filter(|s| !s.trim().is_empty())
    {
        optimizer = optimizer.with_checkpoint(path.trim());
    }
    let result = optimizer.run(&service);
    println!("evaluation calls: {}", kill.used());
    if let Some(i) = &injector {
        println!("injected faults: {}", i.report());
    }
    println!("engine report: {}", service.report());

    match result {
        Ok(trace) => {
            print!("{}", run_report(&base, &trace, &tracer));
            // One stable, full-precision line for the CI resume smoke test
            // to diff between an uninterrupted and a killed-then-resumed
            // run.
            println!("final design (raw): {:?}", trace.final_design().as_slice());
            Ok(())
        }
        Err(e) => {
            if kill.tripped() {
                eprintln!("run killed by the kill switch: {e}");
                eprintln!("(a checkpoint, if configured, resumes this run)");
            }
            Err(e.into())
        }
    }
}

//! `specwise-perf`: the end-to-end and per-layer benchmark of the specwise
//! workspace. See README.md for the workloads, the metrics, and how to
//! read them.
//!
//! ```text
//! specwise-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! Exit status: 0 on success, 1 when a correctness check failed, 2 on bad
//! usage or when a `SPECWISE_*` variable is set.

mod attrib;
mod fig6;
mod layers;
mod metrics;
mod serve;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use fig6::Fig6;
use metrics::{MetricDef, Report};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "fig6-folded",
    "optimize-folded",
    "tail-miller",
    "serve-mixed",
];

/// Cold setups per run, including the measured workload's own: the
/// reported `setup_s` is their median.
const SETUP_SAMPLES: usize = 3;

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Option<&'static str>,
    pub seed: u64,
    pub seconds: Duration,
    /// Report the end-to-end metrics.
    pub e2e: bool,
    /// Run the traced pass and report the per-layer metrics.
    pub layers: bool,
    pub out: PathBuf,
    /// Set up once, print the setup time, and exit (used by re-execution).
    setup_probe: bool,
}

const USAGE: &str = "usage: specwise-perf [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out DIR]";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let out = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("specwise-perf");
    let mut opts = Opts {
        workload: None,
        seed: 2001,
        seconds: Duration::from_secs(15),
        e2e: true,
        layers: true,
        out,
        setup_probe: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            opts.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                opts.workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds must be in (0, 3600], got {value}"));
                }
                opts.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => match value.as_str() {
                "0" => (opts.e2e, opts.layers) = (true, false),
                "1" => (opts.e2e, opts.layers) = (false, true),
                _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
            },
            "--out" => opts.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(opts)
}

/// `SPECWISE_*` variables change what the program does (solver backend,
/// gradients, batching, warm start, checkpoint resume), so a stray one
/// would make two commits measure different programs.
fn stray_knobs() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SPECWISE_"))
        .collect();
    names.sort();
    names
}

/// Sets `run_s_p50` and `run_s_p75` from per-request seconds.
pub fn set_latency(r: &mut Report, secs: &[f64]) {
    r.set("run_s_p50", metrics::median(secs), secs.len());
    r.set("run_s_p75", metrics::percentile(secs, 75.0), secs.len());
    if !metrics::tail_resolved(secs.len(), 75.0) {
        eprintln!(
            "note: run_s_p75 has fewer than ten of {} samples beyond it",
            secs.len()
        );
    }
}

/// Sets each per-layer metric to its median over the traced runs.
pub fn set_medians(r: &mut Report, runs: &[attrib::Values]) {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for values in runs {
        for (name, v) in values {
            by_name.entry(name).or_default().push(*v);
        }
    }
    for (name, vs) in by_name {
        r.set(name, metrics::median(&vs), vs.len());
    }
}

/// Writes the first traced run's journal (JSONL) beside the results.
pub fn save_journal(opts: &Opts, jsonl: &str) {
    let name = opts.workload.unwrap_or("all");
    let path = opts.out.join(format!("{name}.trace.jsonl"));
    if let Err(e) = std::fs::write(&path, jsonl) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

/// Runs `workload`'s setup in a fresh process and reads back its seconds.
fn setup_probe(opts: &Opts, workload: &str) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &opts.seed.to_string()])
        .arg("--out")
        .arg(&opts.out)
        .arg("--setup-probe")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .find_map(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse().ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("setup probe failed ({})", out.status))
}

fn fig6_of(workload: &str) -> Option<Fig6> {
    match workload {
        "fig6-folded" => Some(Fig6::Folded),
        "optimize-folded" => Some(Fig6::OptimizeFolded),
        "tail-miller" => Some(Fig6::TailMiller),
        _ => None,
    }
}

/// Measures one workload in this process and prints its result.
fn run_workload(opts: &Opts, workload: &'static str) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("cannot create {}: {e}", opts.out.display());
        return ExitCode::from(2);
    }
    if opts.setup_probe {
        let secs = match fig6_of(workload) {
            Some(w) => fig6::setup_only(w, opts.seed),
            None => serve::setup_only(opts),
        };
        return match secs {
            Ok(s) => {
                println!("setup_s {s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("setup failed: {e}");
                ExitCode::from(1)
            }
        };
    }

    let mut r = Report::default();
    let setup_s = match fig6_of(workload) {
        Some(w) => fig6::bench(w, opts, &mut r),
        None => serve::bench(opts, &mut r),
    };
    r.set("peak_rss_mb", metrics::peak_rss_mb(), 1);
    if let (Some(own), true) = (setup_s, opts.e2e) {
        let mut samples = vec![own];
        for _ in 1..SETUP_SAMPLES {
            match setup_probe(opts, workload) {
                Ok(s) => samples.push(s),
                Err(e) => r.problem(e),
            }
        }
        r.set("setup_s", metrics::median(&samples), samples.len());
    }

    let mut defs: Vec<MetricDef> = Vec::new();
    if opts.e2e {
        defs.extend(metrics::end_to_end());
    }
    if opts.layers {
        defs.extend(metrics::per_layer());
    }
    for p in &r.problems {
        eprintln!("{workload}: check failed: {p}");
    }
    let result = r.emit(workload, &defs);
    let path = opts.out.join(format!("{workload}.json"));
    let body = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"result\":{result}}}\n",
        opts.seed,
        opts.seconds.as_secs_f64()
    );
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every workload in a fresh process of its own (so set-up, memory
/// and the process-global solver caches start cold), then merges their
/// result files into `results.json`.
fn run_all(opts: &Opts, args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot re-execute: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0u8;
    let mut merged = String::from("{");
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let status = Command::new(&exe)
            .args(args)
            .args(["--workload", workload])
            .status();
        let code = match status {
            Ok(s) => s.code().map_or(1, |c| c.clamp(0, 255) as u8),
            Err(e) => {
                eprintln!("cannot run {workload}: {e}");
                1
            }
        };
        worst = worst.max(code);
        let file = opts.out.join(format!("{workload}.json"));
        let body = std::fs::read_to_string(&file).unwrap_or_else(|_| "null".into());
        if i > 0 {
            merged.push(',');
        }
        merged.push_str(&format!("\"{workload}\":{}", body.trim()));
    }
    merged.push_str("}\n");
    let path = opts.out.join("results.json");
    if let Err(e) = std::fs::write(&path, merged) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    ExitCode::from(worst)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let stray = stray_knobs();
    if !stray.is_empty() {
        eprintln!(
            "refusing to run with {} set: unset them so every run measures the same program",
            stray.join(", ")
        );
        return ExitCode::from(2);
    }
    match opts.workload {
        Some(w) => run_workload(&opts, w),
        None => run_all(&opts, &args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specwise::{OptimizerConfig, Tracer, YieldOptimizer};
    use specwise_ckt::{CircuitEnv, FiveTransistorOta};
    use specwise_exec::EvalService;
    use std::sync::Arc;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let o = parse_args(&args(
            "--workload tail-miller --seed 7 --seconds 2.5 --trace 1 --out x",
        ))
        .unwrap();
        assert_eq!(o.workload, Some("tail-miller"));
        assert_eq!(o.seed, 7);
        assert_eq!(o.seconds, Duration::from_millis(2500));
        assert!(!o.e2e && o.layers);
        assert_eq!(o.out, PathBuf::from("x"));
        let o = parse_args(&[]).unwrap();
        assert!(o.e2e && o.layers && o.workload.is_none());
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed",
            "--seconds 0",
            "--bogus 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    /// A tiny OTA run, untraced and then traced through the counting
    /// wrapper, must give identical simulation counts and design bits: the
    /// wrapper forwards every method it must.
    #[test]
    fn traced_ota_run_matches_untraced() {
        let mut cfg = OptimizerConfig::default();
        cfg.mc_samples = 500;
        cfg.verify_samples = 30;
        cfg.max_iterations = 1;
        let ota = FiveTransistorOta::default_setup();
        let plain = YieldOptimizer::new(cfg)
            .run(&EvalService::new(&ota, fig6::exec_config()))
            .unwrap();

        let ota = FiveTransistorOta::default_setup();
        let counting = layers::CountingEnv::new(&ota);
        let journal = Arc::new(specwise::Journal::in_memory());
        let traced = YieldOptimizer::new(cfg)
            .with_tracer(Tracer::new(Arc::clone(&journal)))
            .run(&EvalService::new(&counting, fig6::exec_config()))
            .unwrap();

        assert_eq!(plain.total_sims, traced.total_sims);
        assert_eq!(plain.phase_sims, traced.phase_sims);
        assert_eq!(
            metrics::design_hash(plain.final_design().as_slice()),
            metrics::design_hash(traced.final_design().as_slice())
        );
        let counts = counting.counts();
        assert!(counts.calls.iter().sum::<u64>() > 0);
        assert_eq!(counting.sim_count(), ota.sim_count());
        let values = attrib::span_values(&journal.records()).unwrap();
        assert!(values
            .iter()
            .any(|(n, v)| n == "core.run_coverage" && *v > 0.5));
    }
}

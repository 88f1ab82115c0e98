//! Text renderings of the paper's result tables.
//!
//! Each function produces a plain-text table matching the structure of the
//! corresponding table in the paper (Tables 1–7); the benchmark harness
//! prints these next to the paper's reference values.

use std::fmt::Write as _;

use specwise_ckt::CircuitEnv;
use specwise_trace::Tracer;

use crate::{IterationSnapshot, MismatchEntry, OptimizationTrace};

/// Renders an optimization trace in the layout of the paper's
/// Tables 1/3/4/6: per snapshot the margins `f − f_b`, the bad samples in
/// the linearized models (‰), and the verified yield `Ỹ`.
pub fn iteration_table(env: &dyn CircuitEnv, trace: &OptimizationTrace) -> String {
    let specs = env.specs();
    let mut out = String::new();
    let _ = write!(out, "{:<14}", "Performance");
    for s in specs {
        let _ = write!(out, "{:>12}", format!("{} [{}]", s.name(), s.unit()));
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<14}", "Spec");
    for s in specs {
        let op = match s.kind() {
            specwise_ckt::SpecKind::LowerBound => ">",
            specwise_ckt::SpecKind::UpperBound => "<",
        };
        let _ = write!(out, "{:>12}", format!("{op} {}", s.bound()));
    }
    let _ = writeln!(out);
    for snap in trace.snapshots() {
        if snap.collapsed {
            let _ = writeln!(
                out,
                "--- {} (collapsed: unsimulatable design) ---",
                snap.label
            );
        } else {
            let _ = writeln!(out, "--- {} ---", snap.label);
        }
        let _ = write!(out, "{:<14}", "f - fb");
        for i in 0..specs.len() {
            let _ = write!(out, "{:>12.3}", snap.nominal_margins[i]);
        }
        let _ = writeln!(out);
        let _ = write!(out, "{:<14}", "bad [permil]");
        for i in 0..specs.len() {
            let _ = write!(out, "{:>12.1}", snap.bad_per_mille[i]);
        }
        let _ = writeln!(out);
        match &snap.verified {
            Some(mc) => {
                let _ = writeln!(
                    out,
                    "{:<14}{:.1}%",
                    "Y (verified)",
                    mc.yield_estimate.percent()
                );
            }
            None if snap.verified_tail.is_some() => {
                let t = snap.verified_tail.as_ref().unwrap();
                let _ = writeln!(
                    out,
                    "{:<14}{:.4}% ({})",
                    "Y (verified)",
                    100.0 * t.yield_value,
                    t.estimator
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "{:<14}{:.1}% (linearized)",
                    "Y (estimate)",
                    snap.estimated_yield.percent()
                );
            }
        }
    }
    out
}

/// Renders the paper's Table 2: between two snapshots, the relative change
/// of the margin mean `Δµ_f/(µ_f − f_b)` and of the performance standard
/// deviation `Δσ_f/σ_f`, per spec, in percent.
///
/// Returns `None` when either snapshot lacks verification data.
pub fn improvement_table(
    env: &dyn CircuitEnv,
    from: &IterationSnapshot,
    to: &IterationSnapshot,
) -> Option<String> {
    let a = from.verified.as_ref()?;
    let b = to.verified.as_ref()?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14}{:>16}{:>16}",
        "Performance", "d_mu/(mu-fb) %", "d_sigma/sigma %"
    );
    for (i, s) in env.specs().iter().enumerate() {
        let mu1 = a.per_spec_margins[i].mean();
        let mu2 = b.per_spec_margins[i].mean();
        let s1 = a.per_spec_margins[i].std_dev();
        let s2 = b.per_spec_margins[i].std_dev();
        let dmu = if mu1.abs() > 1e-30 {
            100.0 * (mu2 - mu1) / mu1
        } else {
            f64::NAN
        };
        let dsig = if s1.abs() > 1e-30 {
            100.0 * (s2 - s1) / s1
        } else {
            f64::NAN
        };
        let _ = writeln!(out, "{:<14}{:>16.1}{:>16.1}", s.name(), dmu, dsig);
    }
    Some(out)
}

/// Renders the paper's Table 5: the top mismatch pairs with their measure,
/// resolving statistical-parameter indices to names.
pub fn mismatch_table(env: &dyn CircuitEnv, entries: &[MismatchEntry], top: usize) -> String {
    let names = env.stat_space().names();
    let mut out = String::new();
    let _ = writeln!(out, "{:<10}{:<28}{:>10}", "Spec", "Pair", "m_kl");
    for e in entries.iter().take(top) {
        let spec_name = env.specs()[e.spec].name();
        let k = names.get(e.k).copied().unwrap_or("?");
        let l = names.get(e.l).copied().unwrap_or("?");
        let _ = writeln!(
            out,
            "{:<10}{:<28}{:>10.2}",
            spec_name,
            format!("{k} / {l}"),
            e.measure
        );
    }
    out
}

/// Renders the paper's Table 7: per-circuit simulation counts and wall
/// times.
pub fn effort_table(rows: &[(String, u64, std::time::Duration)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22}{:>14}{:>18}",
        "Circuit", "# Simulations", "Wall Clock Time"
    );
    for (name, sims, wall) in rows {
        let _ = writeln!(out, "{:<22}{:>14}{:>17.1}s", name, sims, wall.as_secs_f64());
    }
    out
}

/// Renders the extended Table 7 breakdown: per run, the simulation count of
/// every algorithm phase, plus — when the run went through an
/// [`EvalService`](specwise_exec::EvalService) — the cache hit rate and the
/// worker count of the parallel engine.
pub fn effort_breakdown_table(rows: &[(String, &OptimizationTrace)]) -> String {
    use specwise_ckt::SimPhase;
    let mut out = String::new();
    let short = ["Feas", "Wcd", "Lin", "LineS", "Verify", "Other"];
    let _ = write!(out, "{:<22}{:>9}", "Circuit", "Total");
    for label in short {
        let _ = write!(out, "{:>9}", label);
    }
    let _ = writeln!(out, "{:>9}{:>9}{:>10}", "Hit %", "Workers", "Wall");
    for (name, trace) in rows {
        let _ = write!(out, "{:<22}{:>9}", name, trace.total_sims);
        for phase in SimPhase::ALL {
            let _ = write!(out, "{:>9}", trace.phase_sims[phase.index()]);
        }
        match &trace.exec {
            Some(r) => {
                let _ = write!(out, "{:>8.1}%{:>9}", 100.0 * r.hit_rate(), r.workers);
            }
            None => {
                let _ = write!(out, "{:>9}{:>9}", "-", "1");
            }
        }
        let _ = writeln!(out, "{:>9.2}s", trace.wall_time.as_secs_f64());
    }
    out
}

/// Renders the complete end-of-run report the examples print: the
/// iteration table, the final design, the simulation effort line, and —
/// when `tracer` is enabled — the journal path and the per-phase span
/// summary of the run (flushing the journal first so the JSONL file is
/// complete on disk by the time the path is shown).
///
/// When the journal is backed by a file (`SPECWISE_TRACE=run.jsonl`), a
/// `run.jsonl.chrome.json` sidecar in Chrome Trace Event format is written
/// next to it, ready to load in `chrome://tracing` or Perfetto.
pub fn run_report(env: &dyn CircuitEnv, trace: &OptimizationTrace, tracer: &Tracer) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", iteration_table(env, trace));
    let _ = writeln!(out, "final design:");
    for (p, v) in env
        .design_space()
        .params()
        .iter()
        .zip(trace.final_design().iter())
    {
        let _ = writeln!(out, "  {:<4} = {:>8.2} {}", p.name, v, p.unit);
    }
    let _ = writeln!(
        out,
        "\neffort: {} simulator calls, {:.1} s wall clock (cf. paper Table 7)",
        trace.total_sims,
        trace.wall_time.as_secs_f64()
    );
    if trace.adjoint_solves > 0 {
        let _ = writeln!(
            out,
            "adjoint shortcut: {} sensitivity solves on cached factors, \
             {} full simulations avoided",
            trace.adjoint_solves, trace.fd_sims_avoided
        );
    }
    if trace.resumed {
        let _ = writeln!(out, "resumed from checkpoint (effort counts continued)");
    }
    if let Some(reason) = &trace.aborted {
        let _ = writeln!(out, "RUN ABORTED EARLY: {reason}");
        let _ = writeln!(
            out,
            "  (snapshots up to the abort point are reported above)"
        );
    }
    // Which estimator verified the run — mixed-estimator runs must be
    // distinguishable from the logs alone. Tail estimators also report
    // their effective sample size next to the interval.
    if trace.final_snapshot().verified.is_some() {
        let _ = writeln!(out, "estimator: mc");
    }
    if let Some(t) = &trace.final_snapshot().verified_tail {
        let _ = writeln!(
            out,
            "estimator: {} (yield interval [{:.4} %, {:.4} %], ESS {:.1}{})",
            t.estimator,
            100.0 * t.yield_low,
            100.0 * t.yield_high,
            t.effective_sample_size,
            if t.degraded { ", DEGRADED" } else { "" }
        );
    }
    // Verification robustness: surface the degraded-sample yield interval
    // whenever degradation widened it beyond the point estimate.
    if let Some(v) = &trace.final_snapshot().verified {
        let (lo, hi) = v.yield_interval();
        if v.degraded_samples > 0 {
            let _ = writeln!(
                out,
                "verified yield interval: [{:.1} %, {:.1} %] ({} samples excluded after \
                 exhausting retries, {} simulation failures)",
                100.0 * lo,
                100.0 * hi,
                v.degraded_samples,
                v.sim_failures
            );
        }
    }
    if let Some(report) = &trace.exec {
        let _ = writeln!(out, "\n{report}");
    }
    if let Some(journal) = tracer.journal() {
        journal.flush();
        let _ = writeln!(out);
        out.push_str(&journal.summary());
        if let Some(path) = journal.path() {
            let mut chrome = path.as_os_str().to_owned();
            chrome.push(".chrome.json");
            match journal.write_chrome_trace(&chrome) {
                Ok(()) => {
                    let _ = writeln!(
                        out,
                        "chrome trace:  {} (load in chrome://tracing or Perfetto)",
                        std::path::Path::new(&chrome).display()
                    );
                }
                Err(err) => {
                    let _ = writeln!(
                        out,
                        "chrome trace:  export failed ({}): {err}",
                        std::path::Path::new(&chrome).display()
                    );
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OptimizerConfig, YieldOptimizer};
    use specwise_ckt::{AnalyticEnv, DesignParam, DesignSpace, Spec, SpecKind};
    use specwise_linalg::DVec;

    fn env() -> AnalyticEnv {
        AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "d0", "", 0.0, 10.0, 1.0,
            )]))
            .stat_dim(1)
            .spec(Spec::new("gain", "dB", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| DVec::from_slice(&[d[0] - 2.0 + s[0]]))
            .build()
            .unwrap()
    }

    fn trace() -> (AnalyticEnv, OptimizationTrace) {
        let e = env();
        let mut cfg = OptimizerConfig::default();
        cfg.mc_samples = 2_000;
        cfg.verify_samples = 400;
        let t = YieldOptimizer::new(cfg).run(&e).unwrap();
        (e, t)
    }

    #[test]
    fn iteration_table_contains_rows() {
        let (e, t) = trace();
        let s = iteration_table(&e, &t);
        assert!(s.contains("gain"));
        assert!(s.contains("Initial"));
        assert!(s.contains("f - fb"));
        assert!(s.contains("bad [permil]"));
        assert!(s.contains('%'));
    }

    #[test]
    fn improvement_table_between_snapshots() {
        let (e, t) = trace();
        if t.snapshots().len() >= 2 {
            let s = improvement_table(&e, t.initial(), t.final_snapshot()).unwrap();
            assert!(s.contains("gain"));
            assert!(s.contains("d_mu"));
        }
    }

    #[test]
    fn improvement_table_none_without_verification() {
        let (e, t) = trace();
        let mut s0 = t.initial().clone();
        s0.verified = None;
        assert!(improvement_table(&e, &s0, t.final_snapshot()).is_none());
    }

    #[test]
    fn mismatch_table_resolves_names() {
        let (e, t) = trace();
        let analysis = crate::MismatchAnalysis::new();
        let entries = analysis.rank_all(&t.initial().wc_points, -1.0);
        let s = mismatch_table(&e, &entries, 3);
        assert!(s.contains("m_kl"));
    }

    #[test]
    fn collapsed_snapshots_are_marked() {
        // An environment that stops simulating once the design leaves
        // [0, 2]: the unconstrained optimizer walks into the fail region
        // and must record a collapsed snapshot.
        let e = AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "d0", "", 0.0, 10.0, 1.0,
            )]))
            .stat_dim(1)
            .spec(Spec::new("gain", "dB", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| DVec::from_slice(&[d[0] - 2.0 + s[0]]))
            .fail_when(|d| d[0] > 2.0)
            .build()
            .unwrap();
        let mut cfg = OptimizerConfig::default();
        cfg.mc_samples = 1_000;
        cfg.verify_samples = 100;
        cfg.use_constraints = false;
        cfg.max_iterations = 1;
        let t = YieldOptimizer::new(cfg).run(&e).unwrap();
        assert!(
            t.final_snapshot().collapsed,
            "optimizer must record the collapse"
        );
        let s = iteration_table(&e, &t);
        assert!(
            s.contains("collapsed"),
            "table must mark the collapsed row:\n{s}"
        );
    }

    #[test]
    fn effort_breakdown_covers_phases_and_engine() {
        let (_, t) = trace();
        let s = effort_breakdown_table(&[("Analytic".to_string(), &t)]);
        assert!(s.contains("Wcd"), "phase columns expected:\n{s}");
        assert!(s.contains("Verify"), "phase columns expected:\n{s}");
        assert!(s.contains("Analytic"));
        // Bare-env run: no cache column value, worker count 1.
        assert!(s.contains('-'));
    }

    #[test]
    fn effort_table_lists_rows() {
        let rows = vec![
            (
                "Folded-Cascode".to_string(),
                689u64,
                std::time::Duration::from_secs(60),
            ),
            (
                "Miller".to_string(),
                627u64,
                std::time::Duration::from_secs(30),
            ),
        ];
        let s = effort_table(&rows);
        assert!(s.contains("689"));
        assert!(s.contains("Miller"));
    }
}

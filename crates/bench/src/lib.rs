//! Shared experiment runners for the `specwise` benchmark harness.
//!
//! Every table and figure of the DAC 2001 paper has a runner here; the
//! `tables` binary prints them next to the paper's reference values and the
//! Criterion benches time the underlying machinery. See DESIGN.md §4 for
//! the experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use specwise::{
    MismatchAnalysis, MismatchEntry, OptimizationTrace, OptimizerConfig, SpecwiseError,
    YieldOptimizer,
};
use specwise_ckt::{CircuitEnv, CktError, FoldedCascode, MillerOpamp, Testbench};
use specwise_exec::{EvalService, ExecConfig};
use specwise_linalg::DVec;
use specwise_wcd::LinearizationPoint;

/// Runs the Table 1 experiment: folded-cascode yield optimization with
/// functional constraints and worst-case linearization.
///
/// # Errors
///
/// Propagates optimizer errors.
pub fn run_table1() -> Result<(Testbench, OptimizationTrace), SpecwiseError> {
    let env = FoldedCascode::paper_setup();
    let trace = YieldOptimizer::new(OptimizerConfig::default()).run(&env)?;
    Ok((env, trace))
}

/// Runs the Table 1 optimization through an [`EvalService`] so the trace
/// carries the execution-engine report (per-phase simulation counts,
/// retries, parallel wall time) under `exec`.
///
/// # Errors
///
/// Propagates optimizer errors.
pub fn run_table1_exec(exec: ExecConfig) -> Result<(Testbench, OptimizationTrace), SpecwiseError> {
    let env = FoldedCascode::paper_setup();
    let service = EvalService::new(&env, exec);
    let trace = YieldOptimizer::new(OptimizerConfig::default()).run(&service)?;
    Ok((env, trace))
}

/// Runs the Table 6 optimization through an [`EvalService`]; see
/// [`run_table1_exec`].
///
/// # Errors
///
/// Propagates optimizer errors.
pub fn run_table6_exec(exec: ExecConfig) -> Result<(Testbench, OptimizationTrace), SpecwiseError> {
    let env = MillerOpamp::paper_setup();
    let service = EvalService::new(&env, exec);
    let trace = YieldOptimizer::new(OptimizerConfig::default()).run(&service)?;
    Ok((env, trace))
}

/// Runs the Table 3 ablation: no functional constraints.
///
/// # Errors
///
/// Propagates optimizer errors.
pub fn run_table3() -> Result<(Testbench, OptimizationTrace), SpecwiseError> {
    let env = FoldedCascode::paper_setup();
    let mut cfg = OptimizerConfig::default();
    cfg.use_constraints = false;
    cfg.max_iterations = 1;
    let trace = YieldOptimizer::new(cfg).run(&env)?;
    Ok((env, trace))
}

/// Runs the Table 4 ablation: linearization at the nominal point.
///
/// # Errors
///
/// Propagates optimizer errors.
pub fn run_table4() -> Result<(Testbench, OptimizationTrace), SpecwiseError> {
    let env = FoldedCascode::paper_setup();
    let mut cfg = OptimizerConfig::default();
    cfg.wc_options.linearization_point = LinearizationPoint::Nominal;
    cfg.max_iterations = 1;
    let trace = YieldOptimizer::new(cfg).run(&env)?;
    Ok((env, trace))
}

/// Runs the Table 5 experiment: mismatch ranking at the initial design.
///
/// # Errors
///
/// Propagates analysis errors.
pub fn run_table5() -> Result<(Testbench, Vec<MismatchEntry>), SpecwiseError> {
    let env = FoldedCascode::paper_setup();
    let d0 = env.design_space().initial();
    let analysis =
        specwise_wcd::WcAnalysis::new(&env, specwise_wcd::WcOptions::default()).run(&d0)?;
    let entries = MismatchAnalysis::new().rank_all(analysis.worst_case_points(), 0.01);
    Ok((env, entries))
}

/// Runs the Table 6 experiment: Miller opamp optimization under global
/// variations.
///
/// # Errors
///
/// Propagates optimizer errors.
pub fn run_table6() -> Result<(Testbench, OptimizationTrace), SpecwiseError> {
    let env = MillerOpamp::paper_setup();
    let trace = YieldOptimizer::new(OptimizerConfig::default()).run(&env)?;
    Ok((env, trace))
}

/// One row of a surface CSV: `(x, y, value)`.
pub type SurfacePoint = (f64, f64, f64);

/// Generates the Fig. 1 surface: CMRR over the mirror pair's local Vth
/// deviations at the initial design, `n × n` grid over ±3σ.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn run_fig1(n: usize) -> Result<Vec<SurfacePoint>, CktError> {
    let env = FoldedCascode::paper_setup();
    let d0 = env.design_space().initial();
    let theta = env.operating_range().nominal();
    let k = env
        .stat_space()
        .index_of("vth_m7")
        .expect("mirror pair exists");
    let l = env
        .stat_space()
        .index_of("vth_m8")
        .expect("mirror pair exists");
    let mut out = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            let a = -3.0 + 6.0 * i as f64 / (n - 1) as f64;
            let b = -3.0 + 6.0 * j as f64 / (n - 1) as f64;
            let mut s = DVec::zeros(env.stat_dim());
            s[k] = a;
            s[l] = b;
            let cmrr = env.eval_performances(&d0, &s, &theta)?[2];
            out.push((a, b, cmrr));
        }
    }
    Ok(out)
}

/// Generates the Fig. 2 series: the mismatch-line selector `Φ(α)`.
pub fn run_fig2(n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|i| {
            let a = -std::f64::consts::FRAC_PI_2 + std::f64::consts::PI * i as f64 / (n - 1) as f64;
            (a, specwise::phi(a))
        })
        .collect()
}

/// Generates the Fig. 3 series: the robustness weight `η(β_wc)`.
pub fn run_fig3(n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|i| {
            let b = -6.0 + 12.0 * i as f64 / (n - 1) as f64;
            (b, specwise::eta(b))
        })
        .collect()
}

/// Generates the Fig. 4 surface: A0 over a 2-D cut (w3, wt) of the design
/// space together with the minimum functional-constraint value — the
/// feasibility region (`min c ≥ 0`) over which A0 is weakly nonlinear.
///
/// Returns `(w3, wt, a0_db, min_constraint)` tuples; points where the
/// circuit does not simulate are skipped.
///
/// # Errors
///
/// Propagates evaluation errors other than per-point simulation failures.
pub fn run_fig4(n: usize) -> Result<Vec<(f64, f64, f64, f64)>, CktError> {
    let env = FoldedCascode::paper_setup();
    let d0 = env.design_space().initial();
    let theta = env.operating_range().nominal();
    let s0 = DVec::zeros(env.stat_dim());
    let mut out = Vec::new();
    for i in 0..n {
        for j in 0..n {
            let w3 = 20.0 + (160.0 - 20.0) * i as f64 / (n - 1) as f64;
            let wt = 10.0 + (90.0 - 10.0) * j as f64 / (n - 1) as f64;
            let mut d = d0.clone();
            d[2] = w3;
            d[8] = wt;
            let c = match env.eval_constraints(&d) {
                Ok(c) => c,
                Err(e) if e.is_simulation_failure() => continue,
                Err(e) => return Err(e),
            };
            let min_c = c.iter().fold(f64::INFINITY, |m, &x| m.min(x));
            let a0 = match env.eval_performances(&d, &s0, &theta) {
                Ok(p) => p[0],
                Err(e) if e.is_simulation_failure() => continue,
                Err(e) => return Err(e),
            };
            out.push((w3, wt, a0, min_c));
        }
    }
    Ok(out)
}

/// Generates the Fig. 5 series: the linearized yield estimate `Ȳ` over one
/// design parameter (`w1`) between its bounds — non-monotonic with flat
/// zero-yield stretches.
///
/// # Errors
///
/// Propagates analysis errors.
pub fn run_fig5(n: usize) -> Result<Vec<(f64, f64)>, SpecwiseError> {
    let env = FoldedCascode::paper_setup();
    let d0 = env.design_space().initial();
    let analysis =
        specwise_wcd::WcAnalysis::new(&env, specwise_wcd::WcOptions::default()).run(&d0)?;
    let model = specwise::LinearizedYield::new(
        analysis.linearizations().to_vec(),
        env.specs().len(),
        10_000,
        2001,
    )?;
    let p = &env.design_space().params()[0];
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let w1 = p.lower + (p.upper - p.lower) * i as f64 / (n - 1) as f64;
        let mut d = d0.clone();
        d[0] = w1;
        out.push((w1, model.estimate(&d)?.value()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_selector_peaks_on_mismatch_line() {
        let series = run_fig2(181);
        let peak = series
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .copied()
            .unwrap();
        assert_eq!(peak.1, 1.0);
        // `max_by` returns the last element of the Φ = 1 plateau, which
        // extends delta1 (5°) past the mismatch line.
        assert!((peak.0 + std::f64::consts::FRAC_PI_4).abs() < 0.1);
    }

    #[test]
    fn fig3_weight_monotone_decreasing() {
        let series = run_fig3(101);
        for w in series.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12);
        }
        assert!(series[0].1 > 0.85);
        assert!(series.last().unwrap().1 < 0.1);
    }

    #[test]
    fn fig1_small_grid_has_ridge() {
        let pts = run_fig1(5).unwrap();
        assert_eq!(pts.len(), 25);
        // Mismatch corner (−3, +3) must be markedly worse than the
        // neutral corner (+3, +3).
        let get = |a: f64, b: f64| {
            pts.iter()
                .find(|(x, y, _)| (x - a).abs() < 1e-9 && (y - b).abs() < 1e-9)
                .map(|(_, _, c)| *c)
                .unwrap()
        };
        assert!(get(-3.0, 3.0) < get(3.0, 3.0) - 3.0);
    }
}

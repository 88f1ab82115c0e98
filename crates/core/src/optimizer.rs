//! The full yield-optimization loop of the paper's Fig. 6.
//!
//! Per iteration:
//!
//! 1. linearize the functional constraints at the feasible point `d_f`
//!    (Eq. 15) — or skip them entirely for the Table 3 ablation,
//! 2. run the worst-case analysis and build the spec-wise linear margin
//!    models (Eq. 16, mirrored twins per Eqs. 21–22) — anchored at the
//!    nominal point instead for the Table 4 ablation,
//! 3. maximize the Monte-Carlo yield estimate over the models with the
//!    constrained coordinate search (Eqs. 17–20, 19),
//! 4. pull the result back into the true feasibility region with a
//!    simulation line search (Eq. 23),
//! 5. record a snapshot (margins, bad samples, estimated and verified
//!    yield) and repeat until the estimate stops improving.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use specwise_ckt::{CircuitEnv, ExecReport, SimPhase};
use specwise_linalg::DVec;
use specwise_stat::YieldEstimate;
use specwise_trace::{Span, Tracer};
use specwise_wcd::{WcAnalysis, WcOptions, WcResult, WorstCasePoint};

use crate::{
    find_feasible_start, line_search_feasible, Checkpoint, CoordinateSearch, EstimatorKind,
    IsResult, LinearConstraints, LinearizedYield, McVerification, MeanShiftIs, MonteCarlo,
    NormMinIs, NormMinOptions, SpecwiseError, TailVerification, WcdMaximizer, CHECKPOINT_VERSION,
    LINE_SEARCH_EVALS,
};

/// The objective maximized by the inner coordinate search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// The paper's choice: the Monte-Carlo yield estimate over the
    /// spec-wise linear models (Eqs. 17-19). Accounts for performance
    /// correlations through the joint samples.
    #[default]
    DirectYield,
    /// The predecessor objective (paper ref \[10\]): maximize the smallest
    /// linearized worst-case distance. Cheaper, but blind to correlations
    /// between specifications.
    MinWorstCaseDistance,
}

/// Configuration of the yield optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Worst-case analysis options (linearization point, mirrored models).
    pub wc_options: WcOptions,
    /// Monte-Carlo samples evaluated on the linear models (the paper used
    /// 10,000).
    pub mc_samples: usize,
    /// Simulation-based verification samples per snapshot (the paper used
    /// 300); 0 disables verification.
    pub verify_samples: usize,
    /// RNG seed (sample sets are redrawn per iteration from this).
    pub seed: u64,
    /// Maximum optimizer iterations (the paper ran 2).
    pub max_iterations: usize,
    /// Consider the functional constraints (disable for the Table 3
    /// ablation).
    pub use_constraints: bool,
    /// The inner-loop objective.
    pub objective: Objective,
    /// Run-level degradation budget: the run stops (with a partial trace
    /// whose [`OptimizationTrace::aborted`] names the reason) once the
    /// cumulative count of absorbed degradation events — simulation
    /// failures surviving retries, caught worker panics, worst-case
    /// searches that fell back to stale points — exceeds this bound.
    /// `None` (the default) never aborts on degradations.
    pub failure_budget: Option<u64>,
    /// Which yield estimator verifies each snapshot (plain Monte Carlo by
    /// default; a program may take it from `SPECWISE_ESTIMATOR` with
    /// [`EstimatorKind::from_env`]). Non-MC estimators fill
    /// [`IterationSnapshot::verified_tail`] instead of
    /// [`IterationSnapshot::verified`].
    pub estimator: EstimatorKind,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            wc_options: WcOptions::default(),
            mc_samples: 10_000,
            verify_samples: 300,
            seed: 2001,
            max_iterations: 2,
            use_constraints: true,
            objective: Objective::DirectYield,
            failure_budget: None,
            estimator: EstimatorKind::Mc,
        }
    }
}

/// State of the optimization at one point of the trace — one row group of
/// the paper's Tables 1/3/4/6.
#[derive(Debug, Clone)]
pub struct IterationSnapshot {
    /// `"Initial"`, `"1st Iter."`, `"2nd Iter."`, …
    pub label: String,
    /// The design point.
    pub design: DVec,
    /// Per-spec nominal margins `f⁽ⁱ⁾ − f_b⁽ⁱ⁾` at the worst-case corners.
    pub nominal_margins: DVec,
    /// Per-spec bad samples (‰) in the linearized models at this point.
    pub bad_per_mille: Vec<f64>,
    /// Yield estimate `Ȳ` over the linearized models.
    pub estimated_yield: YieldEstimate,
    /// Simulation-based verification `Ỹ` (when enabled and
    /// [`OptimizerConfig::estimator`] is [`EstimatorKind::Mc`]).
    pub verified: Option<McVerification>,
    /// Tail-estimator verification summary (when enabled and the
    /// configured estimator is [`EstimatorKind::MeanShift`] or
    /// [`EstimatorKind::NormMin`]).
    pub verified_tail: Option<TailVerification>,
    /// Per-spec worst-case points of the analysis at this design.
    pub wc_points: Vec<WorstCasePoint>,
    /// Cumulative simulator calls when the snapshot was taken.
    pub sim_count: u64,
    /// `true` when the design could not be simulated at all (the circuit is
    /// nonfunctional) — possible only in ablation runs that bypass the
    /// feasibility machinery; margins read NaN and the yield is 0.
    pub collapsed: bool,
}

/// The record of a full optimization run.
#[derive(Debug, Clone)]
pub struct OptimizationTrace {
    snapshots: Vec<IterationSnapshot>,
    /// Total wall-clock time of the run.
    pub wall_time: Duration,
    /// Total simulator calls of the run.
    pub total_sims: u64,
    /// Simulator calls attributed to each algorithm phase (indexed by
    /// [`SimPhase::index`]).
    pub phase_sims: [u64; SimPhase::COUNT],
    /// Adjoint/sensitivity solves on cached factorizations performed by
    /// this process during the run. Tracked *beside* — never inside —
    /// [`OptimizationTrace::total_sims`]: the phase counts must keep
    /// partitioning the total.
    pub adjoint_solves: u64,
    /// Full simulator invocations the adjoint gradient shortcut avoided
    /// in this process (6 per perturbation direction it priced from the
    /// cached factorizations).
    pub fd_sims_avoided: u64,
    /// Execution-engine report (retries, batches, parallel wall time)
    /// when the run went through an
    /// [`EvalService`](specwise_exec::EvalService); `None` on a bare
    /// environment.
    pub exec: Option<ExecReport>,
    /// `Some(reason)` when the run stopped early because the configured
    /// [`failure budget`](OptimizerConfig::failure_budget) was exhausted.
    /// The snapshots up to the abort point are intact — callers get a
    /// partial but well-formed trace instead of an opaque error.
    pub aborted: Option<String>,
    /// `true` when this trace continued from the checkpoint file attached
    /// with [`YieldOptimizer::with_checkpoint`] instead of starting fresh.
    pub resumed: bool,
}

impl OptimizationTrace {
    /// All snapshots, starting with `"Initial"`.
    pub fn snapshots(&self) -> &[IterationSnapshot] {
        &self.snapshots
    }

    /// The initial snapshot.
    ///
    /// # Panics
    ///
    /// Never panics for traces produced by [`YieldOptimizer::run`].
    pub fn initial(&self) -> &IterationSnapshot {
        self.snapshots
            .first()
            .expect("trace has an initial snapshot")
    }

    /// The final snapshot.
    ///
    /// # Panics
    ///
    /// Never panics for traces produced by [`YieldOptimizer::run`].
    pub fn final_snapshot(&self) -> &IterationSnapshot {
        self.snapshots.last().expect("trace has a final snapshot")
    }

    /// The optimized design.
    pub fn final_design(&self) -> &DVec {
        &self.final_snapshot().design
    }
}

/// The yield optimizer (paper Fig. 6).
#[derive(Clone, Debug)]
pub struct YieldOptimizer {
    config: OptimizerConfig,
    tracer: Tracer,
    checkpoint: Option<PathBuf>,
    checkpoint_owner: Option<String>,
}

impl YieldOptimizer {
    /// Creates an optimizer.
    pub fn new(config: OptimizerConfig) -> Self {
        YieldOptimizer {
            config,
            tracer: Tracer::disabled(),
            checkpoint: None,
            checkpoint_owner: None,
        }
    }

    /// Attaches a checkpoint file: the run writes its state there after
    /// every completed iteration (atomically — temp file + rename), and a
    /// later run pointed at the same file resumes from the last completed
    /// iteration, reproducing the uninterrupted run bit-for-bit. Without
    /// this call the run writes no checkpoint and never resumes.
    ///
    /// An unreadable or incompatible checkpoint file degrades to a fresh
    /// run with a warning; a failed checkpoint *write* warns and continues
    /// (the optimization never dies for its life insurance).
    #[must_use]
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Stamps every checkpoint this run writes with an owner identity
    /// ([`Checkpoint::owner`]). Resume eligibility is unaffected — the
    /// stamp is observability: when a different process later resumes the
    /// checkpoint (a `specwise-serve` peer stealing an expired job lease),
    /// the `resumed` journal event reports whose work was taken over.
    #[must_use]
    pub fn with_checkpoint_owner(mut self, owner: impl Into<String>) -> Self {
        self.checkpoint_owner = Some(owner.into());
        self
    }

    /// Attaches a [`Tracer`]: the run then emits the full Fig. 6 span
    /// hierarchy (`run` → `feasible_start` / `wc_analysis` /
    /// `linear_model` / per-iteration `iteration` with `constraints`,
    /// `coordinate_search`, `line_search` children / `mc_verify`) into the
    /// tracer's journal. The default
    /// disabled tracer records nothing and costs one branch per phase.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Runs the optimization from the environment's initial design.
    ///
    /// # Errors
    ///
    /// Propagates evaluation/analysis errors and feasible-start failure.
    pub fn run<E: CircuitEnv + ?Sized>(&self, env: &E) -> Result<OptimizationTrace, SpecwiseError> {
        let cfg = &self.config;
        if cfg.mc_samples == 0 {
            return Err(SpecwiseError::InvalidConfig {
                reason: "mc_samples must be > 0",
            });
        }
        if cfg.max_iterations == 0 {
            return Err(SpecwiseError::InvalidConfig {
                reason: "max_iterations must be > 0",
            });
        }
        let start = Instant::now();
        env.reset_sim_count();
        let n_spec = env.specs().len();
        // The linear-model kernels split their sample rows over the worker
        // pool the run was given; a bare environment has none.
        let threads = env.exec_report().map_or(1, |r| r.workers);

        let mut run_span = self.tracer.span("run");
        if run_span.is_enabled() {
            run_span.set_attr("env", env.name());
            run_span.set_attr("n_specs", n_spec);
            run_span.set_attr("mc_samples", cfg.mc_samples);
            run_span.set_attr("max_iterations", cfg.max_iterations);
            run_span.set_attr("use_constraints", cfg.use_constraints);
        }
        let tr = run_span.tracer();

        // Checkpoint/resume: a loadable checkpoint at the attached path
        // resumes the run from its last completed iteration; anything else
        // degrades to a fresh run.
        let ckpt_path = self.checkpoint.as_deref();
        let resume = ckpt_path.and_then(|p| self.try_resume(env, p, &tr));
        let resumed = resume.is_some();
        if run_span.is_enabled() {
            run_span.set_attr("resumed", resumed);
        }

        // Degradation events observed by *this* process (restored
        // snapshots are not re-counted against the budget on resume).
        let mut degradation_events: u64 = 0;
        let mut aborted: Option<String> = None;

        let (mut d_f, mut analysis, mut model, mut snapshots, first_iter, sim_base, phase_base) =
            match resume {
                Some(ck) => {
                    // The model RNG stream is a pure function of (seed,
                    // iteration), so restoring the iteration count restores
                    // the stream position.
                    let model = self.linear_model(
                        &tr,
                        &ck.analysis,
                        n_spec,
                        cfg.seed.wrapping_add(ck.iteration as u64),
                        threads,
                    )?;
                    (
                        ck.d_f,
                        ck.analysis,
                        model,
                        ck.snapshots,
                        ck.iteration + 1,
                        ck.sim_count,
                        ck.phase_sims,
                    )
                }
                None => {
                    // Step 0 (Sec. 5.5): feasible starting point.
                    let d0 = env.design_space().initial();
                    let d_f = {
                        let mut span = tr.span("feasible_start");
                        let sims_before = env.sim_count();
                        let d_f = if cfg.use_constraints {
                            find_feasible_start(env, &d0)?
                        } else {
                            env.design_space().project(&d0)?
                        };
                        span.add_count("sims", env.sim_count() - sims_before);
                        d_f
                    };
                    let analysis = WcAnalysis::new(env, cfg.wc_options)
                        .with_tracer(tr.clone())
                        .run(&d_f)?;
                    let model = self.linear_model(&tr, &analysis, n_spec, cfg.seed, threads)?;
                    let snapshots =
                        vec![self.snapshot(env, "Initial", &d_f, &analysis, &model, &tr, 0)?];
                    (
                        d_f,
                        analysis,
                        model,
                        snapshots,
                        1,
                        0u64,
                        [0u64; SimPhase::COUNT],
                    )
                }
            };

        if !resumed {
            degradation_events += snapshot_degradations(snapshots.last());
            self.save_checkpoint(
                ckpt_path,
                env,
                0,
                &d_f,
                &analysis,
                &snapshots,
                sim_base,
                &phase_base,
                &tr,
            );
            aborted = self.budget_exceeded(env, degradation_events, &tr);
        }

        for iter in first_iter..=cfg.max_iterations {
            if aborted.is_some() {
                break;
            }
            let mut iter_span = tr.span("iteration");
            if iter_span.is_enabled() {
                iter_span.set_attr("iter", iter);
                iter_span.set_attr("accepted", true);
            }
            let itr = iter_span.tracer();

            // Feasibility region linearization (Eq. 15) or box-only ablation.
            let constraints = {
                let mut span = itr.span("constraints");
                let sims_before = env.sim_count();
                let constraints = if cfg.use_constraints {
                    LinearConstraints::linearize(env, &d_f)?
                } else {
                    LinearConstraints::box_only(
                        &d_f,
                        env.design_space().lower(),
                        env.design_space().upper(),
                    )
                };
                span.add_count("sims", env.sim_count() - sims_before);
                constraints
            };

            // Inner maximization over the linear models.
            let mut search_span = itr.span("coordinate_search");
            let d_star = match cfg.objective {
                Objective::DirectYield => {
                    // Coordinate search on the MC yield estimate (Eq. 19).
                    let base = model.estimate(&d_f)?;
                    let (d_star, best) = CoordinateSearch.run(&model, &constraints, &d_f)?;
                    if search_span.is_enabled() {
                        search_span.set_attr("base_passed", base.passed());
                        search_span.set_attr("best_passed", best.passed());
                    }
                    drop(search_span);
                    if best.passed() <= base.passed() {
                        iter_span.set_attr("accepted", false);
                        break; // Ȳ cannot be improved further (Fig. 6 exit).
                    }
                    d_star
                }
                Objective::MinWorstCaseDistance => {
                    let maximizer = WcdMaximizer::from_analysis(
                        analysis.worst_case_points(),
                        analysis.linearizations(),
                    )?;
                    let base = maximizer.min_beta(&d_f);
                    let (d_star, best) = maximizer.run(&constraints, &d_f)?;
                    if search_span.is_enabled() {
                        search_span.set_attr("base_min_beta", base);
                        search_span.set_attr("best_min_beta", best);
                    }
                    drop(search_span);
                    if best <= base + 1e-9 {
                        iter_span.set_attr("accepted", false);
                        break; // min-beta cannot be improved further
                    }
                    d_star
                }
            };

            // Line search back into the true feasibility region (Eq. 23).
            let d_new = if cfg.use_constraints {
                let mut span = itr.span("line_search");
                let sims_before = env.sim_count();
                let (d_new, gamma) = line_search_feasible(env, &d_f, &d_star)?;
                if span.is_enabled() {
                    span.set_attr("gamma", gamma);
                    span.set_attr("max_evals", LINE_SEARCH_EVALS);
                    span.add_count("sims", env.sim_count() - sims_before);
                }
                d_new
            } else {
                d_star
            };
            if (&d_new - &d_f).norm_inf() < 1e-12 {
                iter_span.set_attr("accepted", false);
                break; // constraint pull-back cancelled the whole move
            }
            d_f = d_new;

            // Re-linearize at the new point and take a snapshot.
            let label = match iter {
                1 => "1st Iter.".to_string(),
                2 => "2nd Iter.".to_string(),
                3 => "3rd Iter.".to_string(),
                n => format!("{n}th Iter."),
            };
            // The previous analysis arms the degradation ladder: a failed
            // per-spec search falls back to its last-known worst-case data
            // instead of killing the run.
            match WcAnalysis::new(env, cfg.wc_options)
                .with_tracer(itr.clone())
                .with_fallback(&analysis)
                .run(&d_f)
            {
                Ok(a) => {
                    analysis = a;
                    degradation_events += analysis.fallback_specs().len() as u64;
                    model = self.linear_model(
                        &itr,
                        &analysis,
                        n_spec,
                        cfg.seed.wrapping_add(iter as u64),
                        threads,
                    )?;
                    snapshots
                        .push(self.snapshot(env, &label, &d_f, &analysis, &model, &itr, sim_base)?);
                    degradation_events += snapshot_degradations(snapshots.last());
                    drop(iter_span);
                    self.save_checkpoint(
                        ckpt_path,
                        env,
                        iter,
                        &d_f,
                        &analysis,
                        &snapshots,
                        sim_base,
                        &phase_base,
                        &tr,
                    );
                    aborted = self.budget_exceeded(env, degradation_events, &tr);
                }
                Err(e) if is_simulation_failure(&e) => {
                    // The move produced a nonfunctional circuit (possible
                    // only without the feasibility machinery — the Table 3
                    // ablation). Record it as a dead design and stop.
                    iter_span.set_attr("collapsed", true);
                    snapshots.push(collapsed_snapshot(
                        &label,
                        &d_f,
                        n_spec,
                        cfg.mc_samples,
                        sim_base + env.sim_count(),
                    ));
                    break;
                }
                Err(e) => return Err(e.into()),
            }
        }

        finish_run_span(&mut run_span, env);
        drop(run_span);
        if let Some(journal) = self.tracer.journal() {
            journal.flush();
        }

        let mut phase_sims = env.sim_phase_counts();
        for (total, base) in phase_sims.iter_mut().zip(&phase_base) {
            *total += base;
        }
        Ok(OptimizationTrace {
            snapshots,
            wall_time: start.elapsed(),
            total_sims: sim_base + env.sim_count(),
            phase_sims,
            adjoint_solves: env.adjoint_solve_count(),
            fd_sims_avoided: env.fd_sims_avoided(),
            exec: env.exec_report(),
            aborted,
            resumed,
        })
    }

    /// Attempts to load and validate a checkpoint; any problem degrades to
    /// a fresh run with a warning (stderr + journal), never an error.
    fn try_resume<E: CircuitEnv + ?Sized>(
        &self,
        env: &E,
        path: &Path,
        tr: &Tracer,
    ) -> Option<Checkpoint> {
        if !path.exists() {
            return None;
        }
        let reject = |why: String| {
            eprintln!("specwise: ignoring checkpoint {path:?}: {why}; starting fresh");
            tr.warn(
                "checkpoint rejected",
                &[
                    ("path", path.display().to_string().into()),
                    ("reason", why.into()),
                ],
            );
            None
        };
        let ck = match Checkpoint::load(path) {
            Ok(ck) => ck,
            Err(e) => return reject(e.to_string()),
        };
        if ck.seed != self.config.seed {
            return reject(format!(
                "checkpoint seed {} does not match configured seed {}",
                ck.seed, self.config.seed
            ));
        }
        if ck.d_f.len() != env.design_space().dim() {
            return reject(format!(
                "checkpoint design has {} parameters, environment has {}",
                ck.d_f.len(),
                env.design_space().dim()
            ));
        }
        if ck.snapshots.is_empty() {
            return reject("checkpoint has no snapshots".to_string());
        }
        let mut attrs: Vec<(&str, specwise_trace::json::TraceValue)> = vec![
            ("path", path.display().to_string().into()),
            ("iteration", ck.iteration.into()),
            ("sim_count", ck.sim_count.into()),
        ];
        // When the checkpoint was written by someone else (a serve peer
        // whose lease expired), name them: this is the takeover record.
        if let Some(previous) = &ck.owner {
            if self.checkpoint_owner.as_deref() != Some(previous.as_str()) {
                attrs.push(("previous_owner", previous.clone().into()));
            }
        }
        tr.event("resumed", &attrs);
        Some(ck)
    }

    /// Writes a checkpoint; a failed write warns and continues (the run
    /// never dies for its life insurance).
    #[allow(clippy::too_many_arguments)]
    fn save_checkpoint<E: CircuitEnv + ?Sized>(
        &self,
        path: Option<&Path>,
        env: &E,
        iteration: usize,
        d_f: &DVec,
        analysis: &WcResult,
        snapshots: &[IterationSnapshot],
        sim_base: u64,
        phase_base: &[u64; SimPhase::COUNT],
        tr: &Tracer,
    ) {
        let Some(path) = path else { return };
        let mut phase_sims = env.sim_phase_counts();
        for (total, base) in phase_sims.iter_mut().zip(phase_base) {
            *total += base;
        }
        let ck = Checkpoint {
            version: CHECKPOINT_VERSION,
            seed: self.config.seed,
            iteration,
            d_f: d_f.clone(),
            sim_count: sim_base + env.sim_count(),
            phase_sims,
            analysis: analysis.clone(),
            snapshots: snapshots.to_vec(),
            owner: self.checkpoint_owner.clone(),
        };
        if let Err(e) = ck.save(path) {
            eprintln!("specwise: checkpoint write to {path:?} failed: {e}; continuing without");
            tr.warn(
                "checkpoint write failed",
                &[
                    ("path", path.display().to_string().into()),
                    ("error", e.to_string().into()),
                ],
            );
        }
    }

    /// Checks the cumulative degradation count against the configured
    /// failure budget; `Some(reason)` aborts the loop.
    fn budget_exceeded<E: CircuitEnv + ?Sized>(
        &self,
        env: &E,
        events: u64,
        tr: &Tracer,
    ) -> Option<String> {
        let budget = self.config.failure_budget?;
        let exec = env
            .exec_report()
            .map(|r| r.sim_failures + r.panics_caught)
            .unwrap_or(0);
        let total = events + exec;
        if total <= budget {
            return None;
        }
        let reason =
            format!("failure budget exhausted: {total} degradation events (budget {budget})");
        tr.warn(
            "run aborted",
            &[("reason", reason.as_str().into()), ("events", total.into())],
        );
        Some(reason)
    }

    /// Draws the Eq. 17 sample model of `analysis`'s linearizations under a
    /// `linear_model` span.
    fn linear_model(
        &self,
        tracer: &Tracer,
        analysis: &WcResult,
        n_spec: usize,
        seed: u64,
        threads: usize,
    ) -> Result<LinearizedYield, SpecwiseError> {
        let mut span = tracer.span("linear_model");
        let model = LinearizedYield::with_threads(
            analysis.linearizations().to_vec(),
            n_spec,
            self.config.mc_samples,
            seed,
            threads,
        )?;
        if span.is_enabled() {
            span.set_attr("samples", model.n_samples());
            span.set_attr("models", model.models().len());
            span.set_attr("threads", model.threads());
        }
        Ok(model)
    }

    #[allow(clippy::too_many_arguments)]
    fn snapshot<E: CircuitEnv + ?Sized>(
        &self,
        env: &E,
        label: &str,
        d_f: &DVec,
        analysis: &WcResult,
        model: &LinearizedYield,
        tracer: &Tracer,
        sim_base: u64,
    ) -> Result<IterationSnapshot, SpecwiseError> {
        let estimated_yield = model.estimate(d_f)?;
        let bad_per_mille = model.bad_per_mille(d_f)?;
        let mut verified = None;
        let mut verified_tail = None;
        let n = self.config.verify_samples;
        let seed = self.config.seed ^ 0xABCD;
        // The analysis just swept the corners at this design.
        let corners = Some(analysis.nominal_corners());
        if n > 0 {
            match self.config.estimator {
                EstimatorKind::Mc => {
                    let mc = MonteCarlo { n_samples: n, seed };
                    verified = Some(mc.run_with(env, d_f, corners, tracer)?);
                }
                EstimatorKind::MeanShift => {
                    // Shift to the dominant worst-case point: the s_wc of
                    // the spec with the smallest sigma-distance.
                    let shift = analysis
                        .worst_case_points()
                        .iter()
                        .min_by(|a, b| a.beta_wc.total_cmp(&b.beta_wc))
                        .map(|p| p.s_wc.clone())
                        .unwrap_or_else(|| DVec::zeros(env.stat_dim()));
                    let r = MeanShiftIs { shift, n, seed }.run_with(env, d_f, corners, tracer)?;
                    verified_tail = Some(tail_summary(EstimatorKind::MeanShift, &r, false));
                }
                EstimatorKind::NormMin => {
                    let options = NormMinOptions {
                        n,
                        seed,
                        ..NormMinOptions::default()
                    };
                    let r = NormMinIs { options }.run_with(env, d_f, corners, tracer)?;
                    verified_tail = Some(tail_summary(
                        EstimatorKind::NormMin,
                        &r.sampling,
                        r.ess_degraded,
                    ));
                }
            }
        }
        Ok(IterationSnapshot {
            label: label.to_string(),
            design: d_f.clone(),
            nominal_margins: analysis.nominal_margins().clone(),
            bad_per_mille,
            estimated_yield,
            verified,
            verified_tail,
            wc_points: analysis.worst_case_points().to_vec(),
            sim_count: sim_base + env.sim_count(),
            collapsed: false,
        })
    }
}

/// The snapshot summary of an importance-sampling verification whose
/// quality guard tripped when `degraded`.
fn tail_summary(estimator: EstimatorKind, r: &IsResult, degraded: bool) -> TailVerification {
    let (yield_low, yield_high) = r.guarded_interval(degraded);
    TailVerification {
        estimator,
        failure_probability: r.failure_probability,
        yield_value: r.yield_value,
        yield_low,
        yield_high,
        effective_sample_size: r.effective_sample_size,
        sim_failures: r.sim_failures,
        degraded,
    }
}

/// Degradations recorded in one snapshot: verification samples that failed
/// to simulate (and were counted-and-excluded instead of aborting).
fn snapshot_degradations(snapshot: Option<&IterationSnapshot>) -> u64 {
    let Some(s) = snapshot else { return 0 };
    let mc = s.verified.as_ref().map(|v| v.sim_failures as u64);
    let tail = s.verified_tail.as_ref().map(|v| v.sim_failures as u64);
    mc.or(tail).unwrap_or(0)
}

/// Attaches the end-of-run accounting to the root `run` span: total and
/// per-phase simulation counts (the `SimCounter` attribution), plus the
/// engine counters (retries, batches) when the run went through
/// an [`EvalService`](specwise_exec::EvalService).
fn finish_run_span<E: CircuitEnv + ?Sized>(span: &mut Span, env: &E) {
    if !span.is_enabled() {
        return;
    }
    span.add_count("sims", env.sim_count());
    let adjoint = env.adjoint_solve_count();
    if adjoint > 0 {
        span.add_count("adjoint_solves", adjoint);
        span.add_count("fd_sims_avoided", env.fd_sims_avoided());
    }
    let per_phase = env.sim_phase_counts();
    for phase in SimPhase::ALL {
        let n = per_phase[phase.index()];
        if n > 0 {
            span.add_count(&format!("sims_{}", phase.label().replace(' ', "_")), n);
        }
    }
    if let Some(report) = env.exec_report() {
        span.set_attr("workers", report.workers);
        span.add_count("retries", report.retries);
        span.add_count("recovered", report.recovered);
        span.add_count("sim_failures", report.sim_failures);
        span.add_count("panics_caught", report.panics_caught);
        span.add_count("batches", report.batches);
        span.add_count("batch_points", report.batch_points);
    }
}

/// `true` for errors caused by an unsimulatable circuit (as opposed to
/// configuration or dimension errors, which must propagate).
fn is_simulation_failure(e: &specwise_wcd::WcdError) -> bool {
    matches!(e, specwise_wcd::WcdError::Circuit(c) if c.is_simulation_failure())
}

/// Snapshot of a nonfunctional design: NaN margins, every sample bad,
/// zero yield.
fn collapsed_snapshot(
    label: &str,
    d_f: &DVec,
    n_spec: usize,
    mc_samples: usize,
    sim_count: u64,
) -> IterationSnapshot {
    IterationSnapshot {
        label: label.to_string(),
        design: d_f.clone(),
        nominal_margins: DVec::filled(n_spec, f64::NAN),
        bad_per_mille: vec![1000.0; n_spec],
        estimated_yield: YieldEstimate::from_counts(0, mc_samples),
        verified: None,
        verified_tail: None,
        wc_points: Vec::new(),
        sim_count,
        collapsed: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specwise_ckt::{AnalyticEnv, DesignParam, DesignSpace, Spec, SpecKind};
    use specwise_wcd::LinearizationPoint;

    /// A two-spec analytic problem with a feasibility constraint:
    ///
    /// * f0 = d0 − 2 + s0 ≥ 0 — fails at the initial d0 = 1,
    /// * f1 = 6 − d0 + s1 ≥ 0 — caps d0 from above,
    /// * constraint: d0 ≤ 5 (c = 5 − d0).
    fn env() -> AnalyticEnv {
        AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "d0", "", 0.0, 10.0, 1.0,
            )]))
            .stat_dim(2)
            .spec(Spec::new("f0", "", SpecKind::LowerBound, 0.0))
            .spec(Spec::new("f1", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| DVec::from_slice(&[d[0] - 2.0 + s[0], 6.0 - d[0] + s[1]]))
            .constraints(vec!["c".into()], |d| DVec::from_slice(&[5.0 - d[0]]))
            .build()
            .unwrap()
    }

    fn quick_config() -> OptimizerConfig {
        let mut cfg = OptimizerConfig::default();
        cfg.mc_samples = 4_000;
        cfg.verify_samples = 500;
        cfg.max_iterations = 3;
        cfg
    }

    #[test]
    fn improves_yield_on_analytic_problem() {
        let e = env();
        let trace = YieldOptimizer::new(quick_config()).run(&e).unwrap();
        let y0 = trace
            .initial()
            .verified
            .as_ref()
            .unwrap()
            .yield_estimate
            .value();
        let y1 = trace
            .final_snapshot()
            .verified
            .as_ref()
            .unwrap()
            .yield_estimate
            .value();
        // Initial: P(Z > 1) ≈ 16 %. Optimum (d0 ≈ 4): ≈ 97 %.
        assert!(y0 < 0.25, "initial yield {y0}");
        assert!(y1 > 0.9, "final yield {y1}");
        // The optimizer must respect the true constraint d0 ≤ 5.
        assert!(trace.final_design()[0] <= 5.0 + 1e-9);
    }

    #[test]
    fn trace_has_monotone_sim_counts_and_labels() {
        let e = env();
        let trace = YieldOptimizer::new(quick_config()).run(&e).unwrap();
        assert!(trace.snapshots().len() >= 2);
        assert_eq!(trace.initial().label, "Initial");
        for w in trace.snapshots().windows(2) {
            assert!(w[1].sim_count >= w[0].sim_count);
        }
        assert!(trace.total_sims > 0);
    }

    #[test]
    fn snapshot_fields_consistent() {
        let e = env();
        let trace = YieldOptimizer::new(quick_config()).run(&e).unwrap();
        for s in trace.snapshots() {
            assert_eq!(s.nominal_margins.len(), 2);
            assert_eq!(s.bad_per_mille.len(), 2);
            assert_eq!(s.wc_points.len(), 2);
            assert!((0.0..=1.0).contains(&s.estimated_yield.value()));
        }
    }

    #[test]
    fn nominal_linearization_mode_runs() {
        let e = env();
        let mut cfg = quick_config();
        cfg.wc_options.linearization_point = LinearizationPoint::Nominal;
        let trace = YieldOptimizer::new(cfg).run(&e).unwrap();
        // On this *linear* problem nominal anchoring is as good — the run
        // must simply complete and produce snapshots.
        assert!(!trace.snapshots().is_empty());
    }

    #[test]
    fn unconstrained_mode_can_overshoot() {
        let e = env();
        let mut cfg = quick_config();
        cfg.use_constraints = false;
        let trace = YieldOptimizer::new(cfg).run(&e).unwrap();
        // Without the constraint the search balances the two specs at
        // d0 ≈ 4 anyway (spec f1 caps it) — the run completes and the final
        // design may violate c(d) ≥ 0 … here it does not exceed 10 (box).
        assert!(trace.final_design()[0] <= 10.0);
    }

    #[test]
    fn rejects_bad_config() {
        let e = env();
        let mut cfg = quick_config();
        cfg.mc_samples = 0;
        assert!(YieldOptimizer::new(cfg).run(&e).is_err());
        let mut cfg = quick_config();
        cfg.max_iterations = 0;
        assert!(YieldOptimizer::new(cfg).run(&e).is_err());
    }

    #[test]
    fn run_through_eval_service_matches_bare_env_and_reports() {
        let e = env();
        let trace = YieldOptimizer::new(quick_config()).run(&e).unwrap();
        assert!(trace.exec.is_none(), "bare env has no exec report");
        // The phase attribution must cover every simulation of the run.
        let attributed: u64 = trace.phase_sims.iter().sum();
        assert_eq!(attributed, trace.total_sims);
        // Nothing lands in the unattributed bucket.
        assert_eq!(trace.phase_sims[specwise_ckt::SimPhase::Other.index()], 0);
        for phase in [
            specwise_ckt::SimPhase::Feasibility,
            specwise_ckt::SimPhase::Wcd,
            specwise_ckt::SimPhase::Linearization,
            specwise_ckt::SimPhase::Verification,
        ] {
            assert!(trace.phase_sims[phase.index()] > 0, "no sims in {phase:?}");
        }

        let e2 = env();
        let svc = specwise_exec::EvalService::new(
            &e2,
            specwise_exec::ExecConfig::default().with_workers(4),
        );
        let t2 = YieldOptimizer::new(quick_config()).run(&svc).unwrap();
        // Identical trajectory and yields through the parallel service.
        assert_eq!(trace.final_design(), t2.final_design());
        assert_eq!(
            trace
                .final_snapshot()
                .verified
                .as_ref()
                .unwrap()
                .yield_estimate,
            t2.final_snapshot()
                .verified
                .as_ref()
                .unwrap()
                .yield_estimate
        );
        // The service simulates exactly the points the bare env does.
        assert_eq!(t2.total_sims, trace.total_sims);
        let report = t2.exec.expect("EvalService attaches a report");
        assert!(report.batches > 0, "batched loops must have fanned out");
    }

    fn unique_ckpt(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("specwise-optimizer-ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn checkpoint_resume_reproduces_uninterrupted_run_bit_for_bit() {
        let e = env();
        let reference = YieldOptimizer::new(quick_config()).run(&e).unwrap();
        assert!(!reference.resumed);

        // "Kill" a checkpointed run after its first iteration…
        let path = unique_ckpt("resume");
        let mut short = quick_config();
        short.max_iterations = 1;
        let e2 = env();
        let partial = YieldOptimizer::new(short)
            .with_checkpoint(&path)
            .run(&e2)
            .unwrap();
        assert_eq!(partial.snapshots().len(), 2);
        assert!(path.exists(), "checkpoint must be on disk");

        // …and resume with the full iteration budget.
        let e3 = env();
        let resumed = YieldOptimizer::new(quick_config())
            .with_checkpoint(&path)
            .run(&e3)
            .unwrap();
        assert!(resumed.resumed);
        assert_eq!(resumed.snapshots().len(), reference.snapshots().len());
        for (a, b) in resumed.snapshots().iter().zip(reference.snapshots()) {
            assert_eq!(a.label, b.label);
            assert_eq!(
                a.design
                    .as_slice()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                b.design
                    .as_slice()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                "design at {} must be bit-identical",
                a.label
            );
            assert_eq!(a.estimated_yield, b.estimated_yield);
            assert_eq!(
                a.verified.as_ref().map(|v| v.yield_estimate),
                b.verified.as_ref().map(|v| v.yield_estimate)
            );
            assert_eq!(a.sim_count, b.sim_count, "sim accounting at {}", a.label);
        }
        assert_eq!(resumed.total_sims, reference.total_sims);
        assert_eq!(resumed.phase_sims, reference.phase_sims);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mismatched_checkpoint_degrades_to_fresh_run() {
        let path = unique_ckpt("mismatch");
        let e = env();
        let mut cfg = quick_config();
        cfg.seed = 7;
        YieldOptimizer::new(cfg)
            .with_checkpoint(&path)
            .run(&e)
            .unwrap();
        // A different seed must refuse the checkpoint and start fresh
        // (not error, not silently resume a diverging stream).
        let e2 = env();
        let trace = YieldOptimizer::new(quick_config())
            .with_checkpoint(&path)
            .run(&e2)
            .unwrap();
        assert!(!trace.resumed);
        assert_eq!(trace.initial().label, "Initial");
        // Corrupt bytes degrade the same way.
        std::fs::write(&path, "definitely not a checkpoint").unwrap();
        let e3 = env();
        let trace = YieldOptimizer::new(quick_config())
            .with_checkpoint(&path)
            .run(&e3)
            .unwrap();
        assert!(!trace.resumed);
        std::fs::remove_file(&path).unwrap();
    }

    /// Runs a checkpointed quick config against `path` and returns the
    /// trace plus every "checkpoint rejected" journal warning's reason.
    fn run_with_journal(path: &std::path::Path) -> (OptimizationTrace, Vec<String>) {
        let journal = std::sync::Arc::new(specwise_trace::Journal::in_memory());
        let e = env();
        let trace = YieldOptimizer::new(quick_config())
            .with_checkpoint(path)
            .with_tracer(Tracer::new(std::sync::Arc::clone(&journal)))
            .run(&e)
            .unwrap();
        let reasons = journal
            .records()
            .iter()
            .filter_map(|r| match r {
                specwise_trace::Record::Event(ev) if ev.name == "warn" => {
                    let msg = ev.attrs.iter().find(|(k, _)| k == "message")?;
                    let reason = ev.attrs.iter().find(|(k, _)| k == "reason")?;
                    match (&msg.1, &reason.1) {
                        (
                            specwise_trace::TraceValue::Str(m),
                            specwise_trace::TraceValue::Str(why),
                        ) if m == "checkpoint rejected" => Some(why.clone()),
                        _ => None,
                    }
                }
                _ => None,
            })
            .collect();
        (trace, reasons)
    }

    #[test]
    fn future_version_and_corrupt_checkpoints_degrade_to_fresh_with_warning() {
        let path = unique_ckpt("future-version");
        let e = env();
        YieldOptimizer::new(quick_config())
            .with_checkpoint(&path)
            .run(&e)
            .unwrap();

        // Bump the on-disk version to a future layout, as a newer build
        // would write. The loader must degrade to a fresh run and say why
        // in the journal — not abort, not resume garbage.
        let text = std::fs::read_to_string(&path).unwrap();
        let marker = format!("\"version\":{CHECKPOINT_VERSION}");
        assert!(text.contains(&marker), "checkpoint layout changed?");
        let future = CHECKPOINT_VERSION + 41;
        std::fs::write(
            &path,
            text.replacen(&marker, &format!("\"version\":{future}"), 1),
        )
        .unwrap();
        let (trace, reasons) = run_with_journal(&path);
        assert!(!trace.resumed, "future version must not resume");
        assert_eq!(reasons.len(), 1, "warnings: {reasons:?}");
        assert!(
            reasons[0].contains(&future.to_string()) && reasons[0].contains("newer build"),
            "reason: {}",
            reasons[0]
        );

        // A corrupt file takes the same degrade path with its own reason.
        std::fs::write(&path, "definitely not a checkpoint").unwrap();
        let (trace, reasons) = run_with_journal(&path);
        assert!(!trace.resumed, "corrupt file must not resume");
        assert_eq!(reasons.len(), 1, "warnings: {reasons:?}");
        assert!(
            reasons[0].contains("malformed checkpoint"),
            "reason: {}",
            reasons[0]
        );

        // An intact checkpoint still resumes (the happy path is untouched).
        let e2 = env();
        YieldOptimizer::new(quick_config())
            .with_checkpoint(&path)
            .run(&e2)
            .unwrap();
        let (trace, reasons) = run_with_journal(&path);
        assert!(trace.resumed);
        assert!(reasons.is_empty(), "warnings: {reasons:?}");
        std::fs::remove_file(&path).unwrap();
    }

    /// The optimizer test env with a failing corner of the sample space
    /// that only Monte-Carlo verification visits: the worst-case searches
    /// and mirror probes move along one coordinate at a time (the other
    /// stays ≈ 0), so they never enter `s0 > 1.2 ∧ s1 > 1.2`.
    fn flaky_env() -> AnalyticEnv {
        AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "d0", "", 0.0, 10.0, 1.0,
            )]))
            .stat_dim(2)
            .spec(Spec::new("f0", "", SpecKind::LowerBound, 0.0))
            .spec(Spec::new("f1", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| DVec::from_slice(&[d[0] - 2.0 + s[0], 6.0 - d[0] + s[1]]))
            .constraints(vec!["c".into()], |d| DVec::from_slice(&[5.0 - d[0]]))
            .fail_when_stat(|_, s| s[0] > 1.2 && s[1] > 1.2)
            .build()
            .unwrap()
    }

    #[test]
    fn failure_budget_aborts_with_partial_trace() {
        let mut cfg = quick_config();
        cfg.failure_budget = Some(2);
        let trace = YieldOptimizer::new(cfg).run(&flaky_env()).unwrap();
        let reason = trace.aborted.as_ref().expect("budget must trip");
        assert!(reason.contains("failure budget"), "reason: {reason}");
        // Partial but well-formed: at least the initial snapshot, with its
        // verification interval reflecting the excluded samples.
        assert!(!trace.snapshots().is_empty());
        let v = trace.initial().verified.as_ref().unwrap();
        assert!(v.sim_failures > 2, "got {} failures", v.sim_failures);
        let (lo, hi) = v.yield_interval();
        assert!(hi >= lo);
        // An unlimited budget lets the same degraded run finish.
        let trace = YieldOptimizer::new(quick_config())
            .run(&flaky_env())
            .unwrap();
        assert!(trace.aborted.is_none());
        assert!(trace.snapshots().len() > 1);
    }

    #[test]
    fn verification_disabled_when_zero_samples() {
        let e = env();
        let mut cfg = quick_config();
        cfg.verify_samples = 0;
        let trace = YieldOptimizer::new(cfg).run(&e).unwrap();
        assert!(trace.snapshots().iter().all(|s| s.verified.is_none()));
    }
}

//! Job model: what a tenant submits, what the daemon persists in its
//! spool, and what comes back when the optimization settles.
//!
//! A job is the full Fig. 6 flow — feasible start, worst-case analysis,
//! spec-wise linearization, coordinate search, Monte-Carlo verification —
//! over a deck compiled at the untrusted boundary by
//! [`Testbench::from_deck_limited`]. Results are serialized with
//! [`json::write_f64`], whose shortest-round-trip float format preserves
//! every design component bit-for-bit across the wire; the end-to-end
//! tests compare daemon results against library-direct runs with `==` on
//! the raw `f64` bits.

use std::sync::Arc;

use specwise::{EstimatorKind, OptimizerConfig, Tracer, YieldOptimizer};
use specwise_ckt::Testbench;
use specwise_exec::EvalService;
use specwise_harden::{KillSwitch, SharedBudget};
use specwise_trace::json::{self, Json};
use specwise_trace::Journal;

use crate::daemon::ServeConfig;

/// Largest `mc_samples` or `verify_samples` a submitted job may ask for.
/// The linearized-yield model allocates `mc_samples × models` floats up
/// front, so an unbounded count from the wire could ask for more memory
/// than the machine has, and a failed allocation aborts the daemon.
const MAX_SAMPLES: u64 = 1_000_000;

/// The submit-time payload: a deck plus optional config overrides.
/// Unset fields fall back to [`JobOptions::default`] when the job is
/// accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRequest {
    /// The annotated circuit deck (PR 3 testbench IR).
    pub deck: String,
    /// Tenant name; jobs of one tenant share one simulation budget.
    pub tenant: String,
    /// RNG seed override.
    pub seed: Option<u64>,
    /// Monte-Carlo samples on the linearized models.
    pub mc_samples: Option<u64>,
    /// Simulation-based verification samples per snapshot (0 disables).
    pub verify_samples: Option<u64>,
    /// Optimizer iterations.
    pub max_iterations: Option<u64>,
    /// Verification estimator override (`mc` | `is` | `norm-min`). Unset
    /// takes the paper default, plain Monte Carlo.
    pub estimator: Option<String>,
}

impl JobRequest {
    /// A request with no overrides.
    pub fn new(deck: String, tenant: String) -> JobRequest {
        JobRequest {
            deck,
            tenant,
            seed: None,
            mc_samples: None,
            verify_samples: None,
            max_iterations: None,
            estimator: None,
        }
    }

    /// Resolves the overrides against the [`JobOptions`] defaults (an unset
    /// estimator is plain Monte Carlo).
    ///
    /// # Errors
    ///
    /// Rejects an unknown estimator name — a typo in a submitted job must
    /// fail at accept time, not silently verify with the wrong estimator —
    /// and sample counts outside `mc_samples ∈ 1..=1_000_000`,
    /// `verify_samples ∈ 0..=1_000_000`.
    pub fn resolve(&self) -> Result<JobOptions, String> {
        let d = JobOptions::default();
        let estimator = match &self.estimator {
            Some(name) => name.parse::<EstimatorKind>()?,
            None => d.estimator,
        };
        if let Some(n) = self.mc_samples.filter(|n| !(1..=MAX_SAMPLES).contains(n)) {
            return Err(format!("mc_samples {n} is outside 1..={MAX_SAMPLES}"));
        }
        if let Some(n) = self.verify_samples.filter(|&n| n > MAX_SAMPLES) {
            return Err(format!("verify_samples {n} is outside 0..={MAX_SAMPLES}"));
        }
        Ok(JobOptions {
            seed: self.seed.unwrap_or(d.seed),
            mc_samples: self.mc_samples.map_or(d.mc_samples, |n| n as usize),
            verify_samples: self.verify_samples.map_or(d.verify_samples, |n| n as usize),
            max_iterations: self.max_iterations.map_or(d.max_iterations, |n| n as usize),
            estimator,
        })
    }
}

/// Resolved per-job optimizer knobs (the subset of [`OptimizerConfig`]
/// exposed on the wire; everything else keeps the paper defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobOptions {
    /// RNG seed.
    pub seed: u64,
    /// Monte-Carlo samples on the linearized models.
    pub mc_samples: usize,
    /// Verification samples per snapshot.
    pub verify_samples: usize,
    /// Optimizer iterations.
    pub max_iterations: usize,
    /// Which estimator verifies the snapshots.
    pub estimator: EstimatorKind,
}

impl Default for JobOptions {
    fn default() -> Self {
        let cfg = OptimizerConfig::default();
        JobOptions {
            seed: cfg.seed,
            mc_samples: cfg.mc_samples,
            verify_samples: cfg.verify_samples,
            max_iterations: cfg.max_iterations,
            estimator: cfg.estimator,
        }
    }
}

impl JobOptions {
    /// The full optimizer configuration for this job.
    pub fn optimizer_config(&self) -> OptimizerConfig {
        let mut cfg = OptimizerConfig::default();
        cfg.seed = self.seed;
        cfg.mc_samples = self.mc_samples;
        cfg.verify_samples = self.verify_samples;
        cfg.max_iterations = self.max_iterations;
        cfg.estimator = self.estimator;
        cfg
    }
}

/// An accepted job as persisted in the spool (`<id>.req`): the request
/// with its id and fully resolved options. Re-parsing this file after a
/// daemon restart reproduces the job bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Daemon-assigned id (`job-0001`, …).
    pub id: String,
    /// Tenant name.
    pub tenant: String,
    /// The annotated circuit deck.
    pub deck: String,
    /// Resolved optimizer knobs.
    pub options: JobOptions,
}

impl JobSpec {
    /// The spec as a single JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"id\":");
        json::write_json_string(&mut out, &self.id);
        out.push_str(",\"tenant\":");
        json::write_json_string(&mut out, &self.tenant);
        out.push_str(",\"deck\":");
        json::write_json_string(&mut out, &self.deck);
        out.push_str(&format!(
            ",\"seed\":{},\"mc_samples\":{},\"verify_samples\":{},\"max_iterations\":{},\
             \"estimator\":\"{}\"}}",
            self.options.seed,
            self.options.mc_samples,
            self.options.verify_samples,
            self.options.max_iterations,
            self.options.estimator
        ));
        out
    }

    /// Parses a spec from its [`JobSpec::to_json`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or ill-typed field.
    pub fn from_json_str(text: &str) -> Result<JobSpec, String> {
        let j = json::parse(text).map_err(|e| format!("invalid job spec JSON: {e}"))?;
        let field = |key: &str| -> Result<String, String> {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("job spec missing string field {key:?}"))
        };
        let num = |key: &str| -> Result<u64, String> {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("job spec missing integer field {key:?}"))
        };
        Ok(JobSpec {
            id: field("id")?,
            tenant: field("tenant")?,
            deck: field("deck")?,
            options: JobOptions {
                seed: num("seed")?,
                mc_samples: num("mc_samples")? as usize,
                verify_samples: num("verify_samples")? as usize,
                max_iterations: num("max_iterations")? as usize,
                // Spool files written before the estimator layer carry no
                // estimator field; those jobs verified with plain MC.
                estimator: match j.get("estimator").and_then(Json::as_str) {
                    Some(name) => name.parse::<EstimatorKind>()?,
                    None => EstimatorKind::Mc,
                },
            },
        })
    }
}

/// The settled result of a job, as persisted in the spool (`<id>.out`)
/// and returned to clients.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The optimized design point (bit-exact across the wire).
    pub design: Vec<f64>,
    /// Yield estimate `Ȳ` over the linearized models at the final design.
    pub estimated_yield: f64,
    /// Simulation-verified yield `Ỹ` (when verification ran).
    pub verified_yield: Option<f64>,
    /// `[low, high]` verified-yield interval; degraded samples (budget
    /// exhaustion, non-converged solves) widen it instead of biasing it.
    pub yield_interval: Option<(f64, f64)>,
    /// Name of the estimator that verified the run (`mc` | `is` |
    /// `norm-min`).
    pub estimator: String,
    /// Effective sample size of the importance-sampled verification
    /// (`None` for plain Monte Carlo).
    pub ess: Option<f64>,
    /// Total simulator calls of the run.
    pub total_sims: u64,
    /// Adjoint/sensitivity solves on cached factorizations (tracked beside,
    /// never inside, [`JobOutcome::total_sims`]).
    pub adjoint_solves: u64,
    /// Full simulator invocations the adjoint gradient shortcut avoided.
    pub fd_sims_avoided: u64,
    /// `true` when the run continued from a checkpoint after a restart.
    pub resumed: bool,
    /// Evaluation-cache hits during the run.
    pub cache_hits: u64,
    /// Evaluation-cache misses during the run.
    pub cache_misses: u64,
}

impl JobOutcome {
    /// The outcome as a single JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"design\":[");
        for (i, x) in self.design.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_f64(&mut out, *x);
        }
        out.push_str("],\"estimated_yield\":");
        json::write_f64(&mut out, self.estimated_yield);
        if let Some(y) = self.verified_yield {
            out.push_str(",\"verified_yield\":");
            json::write_f64(&mut out, y);
        }
        if let Some((lo, hi)) = self.yield_interval {
            out.push_str(",\"yield_interval\":[");
            json::write_f64(&mut out, lo);
            out.push(',');
            json::write_f64(&mut out, hi);
            out.push(']');
        }
        out.push_str(",\"estimator\":");
        json::write_json_string(&mut out, &self.estimator);
        if let Some(ess) = self.ess {
            out.push_str(",\"ess\":");
            json::write_f64(&mut out, ess);
        }
        out.push_str(&format!(
            ",\"total_sims\":{},\"adjoint_solves\":{},\"fd_sims_avoided\":{},\
             \"resumed\":{},\"cache_hits\":{},\"cache_misses\":{}}}",
            self.total_sims,
            self.adjoint_solves,
            self.fd_sims_avoided,
            self.resumed,
            self.cache_hits,
            self.cache_misses
        ));
        out
    }

    /// Parses an outcome from its [`JobOutcome::to_json`] form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or ill-typed field.
    pub fn from_json(j: &Json) -> Result<JobOutcome, String> {
        let design = j
            .get("design")
            .and_then(Json::as_arr)
            .ok_or("job outcome missing array field \"design\"")?
            .iter()
            .map(|x| x.as_f64().ok_or("non-numeric design component"))
            .collect::<Result<Vec<f64>, _>>()?;
        let f64_field = |key: &str| -> Option<f64> { j.get(key).and_then(Json::as_f64) };
        let interval = match j.get("yield_interval").and_then(Json::as_arr) {
            Some([lo, hi]) => Some((
                lo.as_f64().ok_or("non-numeric yield_interval low")?,
                hi.as_f64().ok_or("non-numeric yield_interval high")?,
            )),
            Some(_) => return Err("yield_interval must have two entries".into()),
            None => None,
        };
        Ok(JobOutcome {
            design,
            estimated_yield: f64_field("estimated_yield")
                .ok_or("job outcome missing number field \"estimated_yield\"")?,
            verified_yield: f64_field("verified_yield"),
            yield_interval: interval,
            // Spool files written before the estimator layer carry no
            // estimator name; those runs verified with plain MC.
            estimator: j
                .get("estimator")
                .and_then(Json::as_str)
                .unwrap_or("mc")
                .to_owned(),
            ess: f64_field("ess"),
            total_sims: j
                .get("total_sims")
                .and_then(Json::as_u64)
                .ok_or("job outcome missing integer field \"total_sims\"")?,
            // Spool files written before the adjoint backend carry neither
            // counter; default to zero rather than rejecting them.
            adjoint_solves: j.get("adjoint_solves").and_then(Json::as_u64).unwrap_or(0),
            fd_sims_avoided: j.get("fd_sims_avoided").and_then(Json::as_u64).unwrap_or(0),
            resumed: matches!(j.get("resumed"), Some(Json::Bool(true))),
            cache_hits: j.get("cache_hits").and_then(Json::as_u64).unwrap_or(0),
            cache_misses: j.get("cache_misses").and_then(Json::as_u64).unwrap_or(0),
        })
    }

    /// Parses an outcome from a JSON string.
    ///
    /// # Errors
    ///
    /// See [`JobOutcome::from_json`].
    pub fn from_json_str(text: &str) -> Result<JobOutcome, String> {
        let j = json::parse(text).map_err(|e| format!("invalid job outcome JSON: {e}"))?;
        JobOutcome::from_json(&j)
    }
}

/// Runs one job to completion on the calling worker thread.
///
/// The deck compiles through the hardened limited parser, evaluates under
/// the tenant's shared [`KillSwitch`] budget (soft mode: exhaustion reads
/// as a retryable simulation failure, so the verification estimator's
/// shared accumulator policy excludes the starved samples and widens the
/// yield interval instead of crashing the job), and executes on an
/// [`EvalService`] sharded across the
/// daemon's job slots. The optimizer checkpoints into the spool after
/// every iteration, so a daemon restart resumes mid-flight jobs
/// bit-for-bit. The journal is mirrored into the spool, from where any
/// daemon streams it to subscribed clients.
///
/// # Errors
///
/// Returns a human-readable reason: deck rejection, infeasible start, or
/// an optimizer abort. The daemon keeps the job's `.req`/`.ckpt` spool
/// entries so a restart can retry it.
pub fn run_job(
    spec: &JobSpec,
    cfg: &ServeConfig,
    budget: &Arc<SharedBudget>,
    journal: &Arc<Journal>,
) -> Result<JobOutcome, String> {
    // Mirror the journal into the spool: every daemon serves `subscribe`
    // from this file. A mirror failure costs the stream, never the run.
    if let Err(e) = journal.attach_jsonl(cfg.journal_path(&spec.id)) {
        eprintln!("specwise-serve: journal mirror for {} failed: {e}", spec.id);
    }
    let tb = Testbench::from_deck_limited(&spec.deck, &cfg.deck_limits)
        .map_err(|e| format!("deck rejected: {e}"))?
        .with_warm_start(cfg.warm_start);
    let kill = KillSwitch::soft_with_budget(&tb, Arc::clone(budget));
    let svc = EvalService::new(&kill, cfg.exec.clone().into_shard(cfg.slots));
    let trace = YieldOptimizer::new(spec.options.optimizer_config())
        .with_checkpoint(cfg.checkpoint_path(&spec.id))
        .with_checkpoint_owner(cfg.owner.clone())
        .with_tracer(Tracer::new(Arc::clone(journal)))
        .run(&svc)
        .map_err(|e| e.to_string())?;
    let report = trace.exec.clone().unwrap_or_else(|| svc.report());
    let last = trace.final_snapshot();
    let tail = last.verified_tail.as_ref();
    Ok(JobOutcome {
        design: trace.final_design().as_slice().to_vec(),
        estimated_yield: last.estimated_yield.value(),
        verified_yield: last
            .verified
            .as_ref()
            .map(|v| v.yield_estimate.value())
            .or_else(|| tail.map(|t| t.yield_value)),
        yield_interval: last
            .verified
            .as_ref()
            .map(|v| v.yield_interval())
            .or_else(|| tail.map(|t| (t.yield_low, t.yield_high))),
        estimator: spec.options.estimator.to_string(),
        ess: tail.map(|t| t.effective_sample_size),
        total_sims: trace.total_sims,
        adjoint_solves: trace.adjoint_solves,
        fd_sims_avoided: trace.fd_sims_avoided,
        resumed: trace.resumed,
        cache_hits: report.cache_hits,
        cache_misses: report.cache_misses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spec_round_trips_with_a_multiline_deck() {
        let spec = JobSpec {
            id: "job-0042".into(),
            tenant: "acme".into(),
            deck: "* title\nvdd vdd 0 3.3\nm1 d g s b nch W={w1} L=1u\n.end\n".into(),
            options: JobOptions {
                seed: 7,
                mc_samples: 2000,
                verify_samples: 150,
                max_iterations: 2,
                estimator: EstimatorKind::NormMin,
            },
        };
        assert_eq!(JobSpec::from_json_str(&spec.to_json()).unwrap(), spec);
    }

    #[test]
    fn pre_estimator_spool_specs_default_to_mc() {
        let text = "{\"id\":\"job-0001\",\"tenant\":\"t\",\"deck\":\"* d\",\
                    \"seed\":1,\"mc_samples\":10,\"verify_samples\":0,\"max_iterations\":1}";
        let spec = JobSpec::from_json_str(text).unwrap();
        assert_eq!(spec.options.estimator, EstimatorKind::Mc);
    }

    #[test]
    fn job_outcome_round_trips_bit_for_bit() {
        let outcome = JobOutcome {
            design: vec![
                1.0,
                -0.1,
                std::f64::consts::PI,
                1.0000000000000002,
                6.02e23,
                5e-324,
            ],
            estimated_yield: 0.9785,
            verified_yield: Some(2.0 / 3.0),
            yield_interval: Some((2.0 / 3.0, 0.71)),
            estimator: "norm-min".into(),
            ess: Some(123.456),
            total_sims: 12_345,
            adjoint_solves: 44,
            fd_sims_avoided: 660,
            resumed: true,
            cache_hits: 99,
            cache_misses: 1,
        };
        let back = JobOutcome::from_json_str(&outcome.to_json()).unwrap();
        for (a, b) in outcome.design.iter().zip(back.design.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "design must survive the wire");
        }
        assert_eq!(back, outcome);
        // Optional fields may be absent entirely.
        let minimal = JobOutcome {
            verified_yield: None,
            yield_interval: None,
            ess: None,
            ..outcome
        };
        assert_eq!(
            JobOutcome::from_json_str(&minimal.to_json()).unwrap(),
            minimal
        );
    }

    #[test]
    fn pre_estimator_spool_outcomes_default_to_mc() {
        let text = "{\"design\":[1.5],\"estimated_yield\":0.5,\"total_sims\":3}";
        let outcome = JobOutcome::from_json_str(text).unwrap();
        assert_eq!(outcome.estimator, "mc");
        assert_eq!(outcome.ess, None);
    }

    #[test]
    fn request_resolution_fills_paper_defaults() {
        let req = JobRequest::new("deck".into(), "t".into());
        let opts = req.resolve().unwrap();
        let cfg = OptimizerConfig::default();
        assert_eq!(opts.seed, cfg.seed);
        assert_eq!(opts.mc_samples, cfg.mc_samples);
        assert_eq!(opts.estimator, EstimatorKind::Mc);
        let mut req = req;
        req.mc_samples = Some(500);
        req.estimator = Some("norm-min".into());
        let opts = req.resolve().unwrap();
        assert_eq!(opts.mc_samples, 500);
        assert_eq!(opts.estimator, EstimatorKind::NormMin);
        let cfg = opts.optimizer_config();
        assert_eq!(cfg.mc_samples, 500);
        assert_eq!(cfg.estimator, EstimatorKind::NormMin);
        req.estimator = Some("bogus".into());
        assert!(req.resolve().is_err(), "unknown estimator must be rejected");
    }

    #[test]
    fn request_resolution_bounds_sample_counts() {
        let mut req = JobRequest::new("deck".into(), "t".into());
        req.mc_samples = Some(MAX_SAMPLES);
        req.verify_samples = Some(MAX_SAMPLES);
        assert!(req.resolve().is_ok());
        req.verify_samples = Some(0);
        assert!(
            req.resolve().is_ok(),
            "verify_samples 0 disables verification"
        );
        for n in [0, MAX_SAMPLES + 1, 10_000_000_000, u64::MAX] {
            req.mc_samples = Some(n);
            assert!(req.resolve().is_err(), "mc_samples {n} must be rejected");
        }
        req.mc_samples = None;
        for n in [MAX_SAMPLES + 1, u64::MAX] {
            req.verify_samples = Some(n);
            assert!(
                req.resolve().is_err(),
                "verify_samples {n} must be rejected"
            );
        }
    }
}

//! The full worst-case analysis of one design point: per-spec worst-case
//! operating corners, worst-case points, spec-wise linearizations and
//! mirrored (quadratic) models.

use specwise_ckt::{CircuitEnv, OperatingPoint, SimPhase};
use specwise_linalg::DVec;
use specwise_trace::Tracer;

use crate::corners::worst_case_corners;
use crate::gradient::margins_gradient_d;
use crate::wc_point::{WorstCasePoint, WorstCaseSearch};
use crate::{
    LinearizationPoint, SpecLinearization, WcOptions, WcdError, BETA_MAX, FD_STEP_D, FD_STEP_S,
};

/// Result of a worst-case analysis at one design point.
#[derive(Debug, Clone)]
pub struct WcResult {
    d_f: DVec,
    wc_points: Vec<WorstCasePoint>,
    linearizations: Vec<SpecLinearization>,
    nominal_margins: DVec,
    nominal_corners: Vec<OperatingPoint>,
    fallbacks: Vec<usize>,
}

impl WcResult {
    /// Reassembles a result from its parts — the checkpoint/resume path of
    /// the yield optimizer deserializes analyses through this. `fallbacks`
    /// lists the specs whose worst-case data was carried over from an
    /// earlier analysis (see [`WcAnalysis::with_fallback`]).
    ///
    /// The corners of [`WcResult::nominal_corners`] are taken from the
    /// worst-case points. They equal the sweep's corners except for a
    /// fallback spec, whose point keeps the corner of the analysis it came
    /// from.
    pub fn from_parts(
        d_f: DVec,
        wc_points: Vec<WorstCasePoint>,
        linearizations: Vec<SpecLinearization>,
        nominal_margins: DVec,
        fallbacks: Vec<usize>,
    ) -> Self {
        let nominal_corners = wc_points.iter().map(|p| p.theta_wc).collect();
        WcResult {
            d_f,
            wc_points,
            linearizations,
            nominal_margins,
            nominal_corners,
            fallbacks,
        }
    }

    /// The analyzed design point.
    pub fn design(&self) -> &DVec {
        &self.d_f
    }

    /// Worst-case points, one per specification (in spec order).
    pub fn worst_case_points(&self) -> &[WorstCasePoint] {
        &self.wc_points
    }

    /// All linear margin models (one per spec, plus mirrored twins).
    pub fn linearizations(&self) -> &[SpecLinearization] {
        &self.linearizations
    }

    /// Margins at the nominal statistical point, each at its spec's
    /// worst-case operating corner — the `f⁽ⁱ⁾ − f_b⁽ⁱ⁾` rows of the
    /// paper's tables.
    pub fn nominal_margins(&self) -> &DVec {
        &self.nominal_margins
    }

    /// The worst-case operating corner `θ_wc` of each spec (in spec order)
    /// that the corner sweep at the nominal statistical point found — the
    /// corners at which [`WcResult::nominal_margins`] were measured, and
    /// the corners a yield verification of this design evaluates at.
    pub fn nominal_corners(&self) -> &[OperatingPoint] {
        &self.nominal_corners
    }

    /// Specs whose worst-case search failed and fell back to last-known
    /// points (empty on a fully clean analysis).
    pub fn fallback_specs(&self) -> &[usize] {
        &self.fallbacks
    }
}

/// Orchestrates the worst-case analysis (paper Secs. 2, 5.2).
///
/// Generic over the [`CircuitEnv`], so the same analysis runs against a bare
/// environment or an [`EvalService`](specwise_exec::EvalService) with
/// parallel batches.
pub struct WcAnalysis<'e, E: CircuitEnv + ?Sized> {
    env: &'e E,
    options: WcOptions,
    tracer: Tracer,
    fallback: Option<WcFallback>,
}

/// Last-known worst-case data used when a per-spec search fails.
#[derive(Debug, Clone)]
struct WcFallback {
    wc_points: Vec<WorstCasePoint>,
    linearizations: Vec<SpecLinearization>,
}

impl<E: CircuitEnv + ?Sized> Clone for WcAnalysis<'_, E> {
    fn clone(&self) -> Self {
        WcAnalysis {
            env: self.env,
            options: self.options,
            tracer: self.tracer.clone(),
            fallback: self.fallback.clone(),
        }
    }
}

impl<E: CircuitEnv + ?Sized> std::fmt::Debug for WcAnalysis<'_, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WcAnalysis")
            .field("env", &self.env.name())
            .field("options", &self.options)
            .finish()
    }
}

impl<'e, E: CircuitEnv + ?Sized> WcAnalysis<'e, E> {
    /// Creates an analysis bound to an evaluator.
    pub fn new(env: &'e E, options: WcOptions) -> Self {
        WcAnalysis {
            env,
            options,
            tracer: Tracer::disabled(),
            fallback: None,
        }
    }

    /// Arms the degradation ladder with the last successful analysis:
    /// when a per-spec worst-case search (or its linearization batch)
    /// fails with a *simulation* error, the analysis falls back to that
    /// spec's last-known `θ_wc`/`ŝ_wc` — and, if even re-linearizing there
    /// fails, to the previous linear models — instead of aborting the
    /// whole iteration. Every fallback emits a `warn` event into the
    /// journal and is listed in [`WcResult::fallback_specs`]. Errors that
    /// are not simulation failures still propagate.
    #[must_use]
    pub fn with_fallback(mut self, previous: &WcResult) -> Self {
        self.fallback = Some(WcFallback {
            wc_points: previous.wc_points.clone(),
            linearizations: previous.linearizations.clone(),
        });
        self
    }

    /// Attaches a [`Tracer`]: the analysis then records one `wc_analysis`
    /// span with a `corners` child plus, per specification, a `wcd_spec`
    /// span (carrying `θ_wc`, `ŝ_wc`, `β_wc` and the Eq. 8 search's
    /// simulation count) and a `linearize` span for the design-gradient
    /// finite-difference batch of Eq. 16.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Runs the analysis at the design point `d_f`.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors. A
    /// [`WcdError::DegenerateGradient`] from a single spec is tolerated by
    /// anchoring that spec's model at the nominal point instead.
    pub fn run(&self, d_f: &DVec) -> Result<WcResult, WcdError> {
        let env = self.env;
        let n_spec = env.specs().len();
        env.set_sim_phase(SimPhase::Wcd);

        let mut analysis_span = self.tracer.span("wc_analysis");
        let tr = analysis_span.tracer();

        // Per-spec worst-case operating corners (shared corner sweep).
        let corners = {
            let mut span = tr.span("corners");
            let sims_before = env.sim_count();
            let corners = worst_case_corners(env, d_f, &DVec::zeros(env.stat_dim()))?;
            span.add_count("sims", env.sim_count() - sims_before);
            corners
        };
        let nominal_margins: DVec = corners.iter().map(|(_, m)| *m).collect();
        let nominal_corners: Vec<OperatingPoint> = corners.iter().map(|(t, _)| *t).collect();

        let mut wc_points = Vec::with_capacity(n_spec);
        let mut linearizations = Vec::new();
        let mut fallbacks: Vec<usize> = Vec::new();

        for spec in 0..n_spec {
            let (theta_wc, nominal_margin) = corners[spec];

            env.set_sim_phase(SimPhase::Wcd);
            let mut wcd_span = tr.span("wcd_spec");
            let sims_before = env.sim_count();
            let mut fell_back = false;
            let wc = match self.options.linearization_point {
                LinearizationPoint::WorstCase => {
                    match WorstCaseSearch.run(env, d_f, spec, &theta_wc, nominal_margin) {
                        Ok(wc) => wc,
                        Err(WcdError::DegenerateGradient { .. }) => {
                            // Spec insensitive to ŝ: anchor at nominal.
                            self.nominal_anchor(d_f, spec, theta_wc, nominal_margin)?
                        }
                        // First rung of the degradation ladder: a failed
                        // search falls back to the spec's last-known
                        // worst-case point instead of aborting.
                        Err(e) if e.is_simulation_failure() && self.last_point(spec).is_some() => {
                            tr.warn(
                                "worst-case search failed; falling back to last-known point",
                                &[
                                    ("spec", spec.into()),
                                    ("name", env.specs()[spec].name().into()),
                                    ("error", e.to_string().into()),
                                ],
                            );
                            let mut prev = self.last_point(spec).expect("checked").clone();
                            prev.nominal_margin = nominal_margin;
                            prev.converged = false;
                            fell_back = true;
                            prev
                        }
                        Err(e) => return Err(e),
                    }
                }
                LinearizationPoint::Nominal => {
                    self.nominal_anchor(d_f, spec, theta_wc, nominal_margin)?
                }
            };
            if fell_back {
                fallbacks.push(spec);
            }
            if wcd_span.is_enabled() {
                wcd_span.set_attr("spec", spec);
                wcd_span.set_attr("name", env.specs()[spec].name());
                wcd_span.set_attr("theta_wc", vec![wc.theta_wc.temp_c, wc.theta_wc.vdd]);
                wcd_span.set_attr("s_wc", wc.s_wc.as_slice());
                wcd_span.set_attr("beta_wc", wc.beta_wc);
                wcd_span.set_attr("converged", wc.converged);
                wcd_span.set_attr("fallback", fell_back);
                wcd_span.add_count("sims", env.sim_count() - sims_before);
            }
            drop(wcd_span);

            // Design-space gradient at the anchor.
            env.set_sim_phase(SimPhase::Linearization);
            let mut lin_span = tr.span("linearize");
            let sims_before = env.sim_count();
            let gradient = margins_gradient_d(env, d_f, &wc.s_wc, &wc.theta_wc, FD_STEP_D);
            let (margins_anchor, jac_d) = match gradient {
                Ok(parts) => parts,
                // Second rung: even the fallback anchor cannot be
                // linearized — reuse the spec's previous linear models
                // verbatim (stale, but a usable direction) with a warning.
                Err(e) if e.is_simulation_failure() && self.has_last_models(spec) => {
                    tr.warn(
                        "linearization failed; reusing previous spec models",
                        &[
                            ("spec", spec.into()),
                            ("name", env.specs()[spec].name().into()),
                            ("error", e.to_string().into()),
                        ],
                    );
                    if !fell_back {
                        fallbacks.push(spec);
                    }
                    if lin_span.is_enabled() {
                        lin_span.set_attr("spec", spec);
                        lin_span.set_attr("fallback", true);
                        lin_span.add_count("sims", env.sim_count() - sims_before);
                    }
                    drop(lin_span);
                    let fallback = self.fallback.as_ref().expect("checked");
                    linearizations.extend(
                        fallback
                            .linearizations
                            .iter()
                            .filter(|l| l.spec == spec)
                            .cloned(),
                    );
                    wc_points.push(wc);
                    continue;
                }
                Err(e) => return Err(e),
            };
            let lin = SpecLinearization {
                spec,
                mirrored: false,
                theta_wc: wc.theta_wc,
                s_wc: wc.s_wc.clone(),
                d_f: d_f.clone(),
                margin_at_anchor: margins_anchor[spec],
                grad_s: wc.grad_s.clone(),
                grad_d: jac_d.row(spec),
            };

            // Mismatch-shaped (semidefinite quadratic) detection: evaluate
            // once at −ŝ_wc (paper: "only one additional simulation"). For a
            // linear performance the margin there would be ≈ 2·m(0); if it
            // is much lower, the performance degrades on both sides of the
            // nominal point and a mirrored model is added (Eqs. 21–22).
            let mut mirrored = false;
            if self.options.mirrored_models
                && matches!(
                    self.options.linearization_point,
                    LinearizationPoint::WorstCase
                )
                && wc.s_wc.norm2() > 1e-9
            {
                match env.eval_margins(d_f, &(-&wc.s_wc), &wc.theta_wc) {
                    Ok(m) => {
                        let m_mirror = m[wc.spec];
                        let linear_expectation = 2.0 * wc.nominal_margin - lin.margin_at_anchor;
                        if m_mirror < 0.5 * linear_expectation {
                            linearizations.push(lin.to_mirrored());
                            mirrored = true;
                        }
                    }
                    // The probe is an optimization; losing it degrades the
                    // model (no mirrored twin), not the analysis.
                    Err(e) if e.is_simulation_failure() => {
                        tr.warn(
                            "mirror probe failed; skipping mirrored-model detection",
                            &[("spec", spec.into()), ("error", e.to_string().into())],
                        );
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            if lin_span.is_enabled() {
                lin_span.set_attr("spec", spec);
                lin_span.set_attr("mirrored", mirrored);
                lin_span.add_count("sims", env.sim_count() - sims_before);
            }
            drop(lin_span);

            linearizations.push(lin);
            wc_points.push(wc);
        }

        if analysis_span.is_enabled() {
            analysis_span.set_attr("n_specs", n_spec);
            analysis_span.set_attr("n_models", linearizations.len());
            analysis_span.set_attr("n_fallbacks", fallbacks.len());
        }

        Ok(WcResult {
            d_f: d_f.clone(),
            wc_points,
            linearizations,
            nominal_margins,
            nominal_corners,
            fallbacks,
        })
    }

    /// The last-known worst-case point of `spec`, when armed.
    fn last_point(&self, spec: usize) -> Option<&WorstCasePoint> {
        self.fallback
            .as_ref()
            .and_then(|f| f.wc_points.iter().find(|p| p.spec == spec))
    }

    /// Whether previous linear models exist for `spec`.
    fn has_last_models(&self, spec: usize) -> bool {
        self.fallback
            .as_ref()
            .is_some_and(|f| f.linearizations.iter().any(|l| l.spec == spec))
    }

    /// Builds a nominal-anchored pseudo worst-case point (for the Table 4
    /// ablation and for ŝ-insensitive specs).
    fn nominal_anchor(
        &self,
        d_f: &DVec,
        spec: usize,
        theta_wc: OperatingPoint,
        nominal_margin: f64,
    ) -> Result<WorstCasePoint, WcdError> {
        let s0 = DVec::zeros(self.env.stat_dim());
        let (margins, jac) =
            crate::gradient::margins_gradient_s(self.env, d_f, &s0, &theta_wc, FD_STEP_S)?;
        Ok(WorstCasePoint {
            spec,
            theta_wc,
            s_wc: s0,
            beta_wc: if nominal_margin >= 0.0 {
                BETA_MAX
            } else {
                -BETA_MAX
            },
            nominal_margin,
            margin_at_wc: margins[spec],
            grad_s: jac.row(spec),
            converged: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specwise_ckt::{AnalyticEnv, DesignParam, DesignSpace, Spec, SpecKind};

    /// Two specs: a linear one and a mismatch-shaped (concave quadratic) one.
    fn env() -> AnalyticEnv {
        AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", 0.0, 10.0, 3.0,
            )]))
            .stat_dim(2)
            .spec(Spec::new("lin", "", SpecKind::LowerBound, 0.0))
            .spec(Spec::new("quad", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| {
                DVec::from_slice(&[
                    d[0] + 2.0 * s[0] + s[1],
                    // Mismatch-shaped: degrades along s0 − s1 in both
                    // directions (cf. Fig. 1's CMRR ridge).
                    d[0] - 0.4 * (s[0] - s[1]) * (s[0] - s[1]) - 0.3 * (s[0] - s[1]),
                ])
            })
            .build()
            .unwrap()
    }

    #[test]
    fn analysis_produces_models_per_spec() {
        let e = env();
        let d = DVec::from_slice(&[3.0]);
        let res = WcAnalysis::new(&e, WcOptions::default()).run(&d).unwrap();
        assert_eq!(res.worst_case_points().len(), 2);
        // The quadratic spec must have received a mirrored twin.
        let mirrored: Vec<_> = res.linearizations().iter().filter(|l| l.mirrored).collect();
        assert_eq!(mirrored.len(), 1, "expected exactly one mirrored model");
        assert_eq!(mirrored[0].spec, 1);
        // The linear spec must not.
        assert!(res
            .linearizations()
            .iter()
            .filter(|l| l.spec == 0)
            .all(|l| !l.mirrored));
    }

    #[test]
    fn linear_spec_distance_correct() {
        let e = env();
        let d = DVec::from_slice(&[3.0]);
        let res = WcAnalysis::new(&e, WcOptions::default()).run(&d).unwrap();
        let wc = &res.worst_case_points()[0];
        // margin = 3 + 2 s0 + s1 → distance 3/√5.
        assert!(
            (wc.beta_wc - 3.0 / 5f64.sqrt()).abs() < 1e-3,
            "beta {}",
            wc.beta_wc
        );
        assert!((res.nominal_margins()[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn nominal_corners_come_from_the_sweep() {
        let e = env();
        let d = DVec::from_slice(&[3.0]);
        let res = WcAnalysis::new(&e, WcOptions::default()).run(&d).unwrap();
        let sweep = worst_case_corners(&e, &d, &DVec::zeros(2)).unwrap();
        let corners: Vec<OperatingPoint> = sweep.iter().map(|(t, _)| *t).collect();
        assert_eq!(res.nominal_corners(), corners.as_slice());
        // A restored result takes its corners from the worst-case points.
        let restored = WcResult::from_parts(
            res.design().clone(),
            res.worst_case_points().to_vec(),
            res.linearizations().to_vec(),
            res.nominal_margins().clone(),
            Vec::new(),
        );
        assert_eq!(restored.nominal_corners(), res.nominal_corners());
    }

    #[test]
    fn linearization_reproduces_margin_locally() {
        let e = env();
        let d = DVec::from_slice(&[3.0]);
        let res = WcAnalysis::new(&e, WcOptions::default()).run(&d).unwrap();
        let lin = res
            .linearizations()
            .iter()
            .find(|l| l.spec == 0 && !l.mirrored)
            .unwrap();
        // For the exactly linear margin, the model is globally exact.
        let theta = lin.theta_wc;
        for (dd, s0, s1) in [(3.0, 0.0, 0.0), (4.0, 1.0, -2.0), (2.5, -0.3, 0.7)] {
            let dv = DVec::from_slice(&[dd]);
            let sv = DVec::from_slice(&[s0, s1]);
            let truth = e.eval_margins(&dv, &sv, &theta).unwrap()[0];
            let model = lin.eval(&dv, &sv);
            assert!((truth - model).abs() < 1e-2, "{truth} vs {model}");
        }
    }

    #[test]
    fn nominal_mode_anchors_at_zero() {
        let e = env();
        let d = DVec::from_slice(&[3.0]);
        let mut opts = WcOptions::default();
        opts.linearization_point = LinearizationPoint::Nominal;
        let res = WcAnalysis::new(&e, opts).run(&d).unwrap();
        for wc in res.worst_case_points() {
            assert!(wc.s_wc.norm2() < 1e-12, "nominal anchoring expected");
        }
        // No mirrored models in nominal mode.
        assert!(res.linearizations().iter().all(|l| !l.mirrored));
        assert_eq!(res.linearizations().len(), 2);
    }

    #[test]
    fn failed_search_falls_back_to_previous_points() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let flag = Arc::new(AtomicBool::new(false));
        let probe = Arc::clone(&flag);
        let e = AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", 0.0, 10.0, 3.0,
            )]))
            .stat_dim(2)
            .spec(Spec::new("lin", "", SpecKind::LowerBound, 0.0))
            .spec(Spec::new("quad", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| {
                DVec::from_slice(&[
                    d[0] + 2.0 * s[0] + s[1],
                    d[0] - 0.4 * (s[0] - s[1]) * (s[0] - s[1]) - 0.3 * (s[0] - s[1]),
                ])
            })
            // Once armed, every evaluation away from the nominal point
            // fails — the worst-case searches cannot reach their anchors.
            .fail_when_stat(move |_, s| probe.load(Ordering::Relaxed) && s.norm2() > 0.25)
            .build()
            .unwrap();
        let d = DVec::from_slice(&[3.0]);
        let clean = WcAnalysis::new(&e, WcOptions::default()).run(&d).unwrap();
        assert!(clean.fallback_specs().is_empty());

        flag.store(true, Ordering::Relaxed);
        // Without a fallback armed the failure propagates.
        let err = WcAnalysis::new(&e, WcOptions::default())
            .run(&d)
            .unwrap_err();
        assert!(err.is_simulation_failure());
        // With the previous result armed, the analysis degrades instead:
        // stale worst-case points and stale linear models, flagged.
        let res = WcAnalysis::new(&e, WcOptions::default())
            .with_fallback(&clean)
            .run(&d)
            .unwrap();
        assert_eq!(res.fallback_specs(), &[0, 1]);
        for (wc, prev) in res
            .worst_case_points()
            .iter()
            .zip(clean.worst_case_points())
        {
            assert_eq!(wc.s_wc.as_slice(), prev.s_wc.as_slice());
            assert_eq!(wc.theta_wc, prev.theta_wc);
            assert!(!wc.converged, "fallback points must be marked stale");
        }
        assert_eq!(res.linearizations().len(), clean.linearizations().len());
    }

    #[test]
    fn failed_mirror_probe_degrades_to_no_mirrored_model() {
        // Fails exactly in the quadrant the linear spec's mirror probe
        // lands in (−ŝ_wc ∝ +(2, 1)); the searches themselves move the
        // other way and never touch it.
        let e = AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", 0.0, 10.0, 3.0,
            )]))
            .stat_dim(2)
            .spec(Spec::new("lin", "", SpecKind::LowerBound, 0.0))
            .spec(Spec::new("quad", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| {
                DVec::from_slice(&[
                    d[0] + 2.0 * s[0] + s[1],
                    d[0] - 0.4 * (s[0] - s[1]) * (s[0] - s[1]) - 0.3 * (s[0] - s[1]),
                ])
            })
            .fail_when_stat(|_, s| s[0] > 0.3 && s[1] > 0.1)
            .build()
            .unwrap();
        let d = DVec::from_slice(&[3.0]);
        // Losing the probe costs at most a mirrored twin, never the run.
        let res = WcAnalysis::new(&e, WcOptions::default()).run(&d).unwrap();
        assert!(res.fallback_specs().is_empty());
        assert!(res
            .linearizations()
            .iter()
            .filter(|l| l.spec == 0)
            .all(|l| !l.mirrored));
        // The quadratic spec's probe lands elsewhere and still mirrors.
        assert!(res
            .linearizations()
            .iter()
            .any(|l| l.spec == 1 && l.mirrored));
    }

    #[test]
    fn insensitive_spec_tolerated() {
        let e = AnalyticEnv::builder()
            .design(DesignSpace::new(vec![DesignParam::new(
                "a", "", 0.0, 10.0, 3.0,
            )]))
            .stat_dim(1)
            .spec(Spec::new("dead", "", SpecKind::LowerBound, 0.0))
            .spec(Spec::new("live", "", SpecKind::LowerBound, 0.0))
            .performances(|d, s, _| DVec::from_slice(&[d[0], d[0] + s[0]]))
            .build()
            .unwrap();
        let res = WcAnalysis::new(&e, WcOptions::default())
            .run(&DVec::from_slice(&[3.0]))
            .unwrap();
        assert_eq!(res.worst_case_points().len(), 2);
        assert!(!res.worst_case_points()[0].converged);
        assert!((res.worst_case_points()[1].beta_wc - 3.0).abs() < 1e-3);
    }
}

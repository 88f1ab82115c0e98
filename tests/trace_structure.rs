//! Regression test: a traced optimizer run produces the span hierarchy of
//! the paper's Fig. 6 flow — feasibility search, per-spec worst-case
//! analysis, spec-wise linearization, optimizer iterations with constraint
//! setup / coordinate search / feasibility line search, and Monte-Carlo
//! verification — with the simulation effort attributed to the spans.

use std::sync::Arc;

use specwise::{Journal, OptimizerConfig, Tracer, YieldOptimizer};
use specwise_ckt::{CircuitEnv, MillerOpamp};
use specwise_trace::{SpanNode, TraceValue};

fn traced_quick_run(journal: &Arc<Journal>) -> SpanNode {
    let env = MillerOpamp::paper_setup();
    let mut cfg = OptimizerConfig::default();
    cfg.mc_samples = 500;
    cfg.verify_samples = 50;
    cfg.max_iterations = 1;
    YieldOptimizer::new(cfg)
        .with_tracer(Tracer::new(Arc::clone(journal)))
        .run(&env)
        .expect("optimization runs");

    let forest = journal.span_tree();
    assert_eq!(forest.len(), 1, "exactly one top-level span");
    forest.into_iter().next().expect("root span")
}

#[test]
fn traced_run_matches_fig6_span_hierarchy() {
    let journal = Arc::new(Journal::in_memory());
    let root = traced_quick_run(&journal);

    // Top level: the run span wraps the whole Fig. 6 loop.
    assert_eq!(root.span.name, "run");
    let children = root.child_names();
    assert!(
        children.starts_with(&[
            "feasible_start",
            "wc_analysis",
            "linear_model",
            "mc_verify",
            "iteration"
        ]),
        "run children should follow the Fig. 6 order, got {children:?}"
    );

    // Worst-case analysis: corner search, then one (wcd_spec, linearize)
    // pair per specification of the Miller environment.
    let env = MillerOpamp::paper_setup();
    let n_specs = env.specs().len();
    let wc = root.find("wc_analysis").expect("wc_analysis span");
    let wc_children = wc.child_names();
    assert_eq!(wc_children[0], "corners");
    assert_eq!(
        wc_children.iter().filter(|n| **n == "wcd_spec").count(),
        n_specs,
        "one wcd_spec span per spec"
    );
    assert_eq!(
        wc_children.iter().filter(|n| **n == "linearize").count(),
        n_specs,
        "one linearize span per spec"
    );

    // Every wcd_spec span records the Eq. 2 / Eq. 8 worst-case data.
    for node in &wc.children {
        if node.span.name != "wcd_spec" {
            continue;
        }
        assert!(node.span.attr("spec").is_some());
        assert!(node.span.attr("name").is_some());
        assert!(node.span.attr("beta_wc").is_some());
        assert!(node.span.attr("converged").is_some());
        match node.span.attr("theta_wc") {
            Some(TraceValue::List(theta)) => assert_eq!(theta.len(), 2, "theta = (temp, vdd)"),
            other => panic!("theta_wc should be a list, got {other:?}"),
        }
        match node.span.attr("s_wc") {
            Some(TraceValue::List(s)) => assert_eq!(s.len(), env.stat_dim()),
            other => panic!("s_wc should be a list, got {other:?}"),
        }
    }

    // The iteration span wraps constraint setup, the Ȳ coordinate search,
    // the Eq. 23 feasibility line search and the re-linearization.
    let iter = root.find("iteration").expect("iteration span");
    let iter_children = iter.child_names();
    assert!(
        iter_children.starts_with(&["constraints", "coordinate_search"]),
        "iteration children should start with constraints + search, got {iter_children:?}"
    );
    assert!(iter_children.contains(&"wc_analysis"), "re-linearization");
    assert!(iter_children.contains(&"linear_model"), "model rebuild");

    // Every model build records its size and the threads it ran on; a bare
    // environment has no worker pool, so it stays on one.
    let model = root.find("linear_model").expect("linear_model span");
    assert_eq!(model.span.attr("samples"), Some(&TraceValue::U64(500)));
    assert!(model.span.attr("models").is_some());
    assert_eq!(model.span.attr("threads"), Some(&TraceValue::U64(1)));
    assert!(iter.span.attr("accepted").is_some());

    // MC verification spans carry sample counts and the yield estimate.
    let mc = root.find("mc_verify").expect("mc_verify span");
    assert_eq!(mc.span.attr("n_samples"), Some(&TraceValue::U64(50)));
    assert!(mc.span.attr("yield").is_some());
    assert!(mc.span.attr("sim_failures").is_some());
    assert!(mc.span.counter("sims").is_some_and(|s| s > 0));
}

#[test]
fn run_span_absorbs_simulation_effort_counters() {
    let journal = Arc::new(Journal::in_memory());
    let root = traced_quick_run(&journal);

    // The run span absorbs the SimCounter totals: overall effort plus the
    // per-phase attribution used by the paper's Table 7 effort breakdown.
    let total = root.span.counter("sims").expect("total sims counter");
    assert!(total > 0);
    let per_phase: u64 = root
        .span
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("sims_"))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(per_phase, total, "phase attribution must cover every sim");
    for key in ["sims_feasibility", "sims_wcd", "sims_linearization"] {
        assert!(
            root.span.counter(key).is_some_and(|v| v > 0),
            "expected counter {key} on the run span, got {:?}",
            root.span.counters
        );
    }

    // Child spans attribute their own sims; each child's count is bounded
    // by the run total.
    let wc = root.find("wc_analysis").expect("wc_analysis span");
    for node in &wc.children {
        if let Some(sims) = node.span.counter("sims") {
            assert!(sims <= total);
        }
    }
}

#[test]
fn traced_and_untraced_runs_agree() {
    let env = MillerOpamp::paper_setup();
    let mut cfg = OptimizerConfig::default();
    cfg.mc_samples = 500;
    cfg.verify_samples = 50;
    cfg.max_iterations = 1;

    let plain = YieldOptimizer::new(cfg).run(&env).expect("untraced run");
    let journal = Arc::new(Journal::in_memory());
    let env2 = MillerOpamp::paper_setup();
    let traced = YieldOptimizer::new(cfg)
        .with_tracer(Tracer::new(Arc::clone(&journal)))
        .run(&env2)
        .expect("traced run");

    // Tracing is pure observation: identical designs and sample counts.
    assert_eq!(plain.final_design(), traced.final_design());
    assert_eq!(plain.total_sims, traced.total_sims);
    assert!(!journal.is_empty());
}

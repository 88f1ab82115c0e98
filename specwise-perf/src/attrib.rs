//! Per-layer attribution of one traced run: the Fig. 6 span tree of the
//! journal (layers `core` and `wcd`), the evaluation engine's report
//! (`exec`), and the counting wrapper's totals (`ckt`).
//!
//! Self time is a span's duration minus the union of its children's
//! intervals (clipped to the span); `core.unattributed_ms` is the self time
//! of the optimizer's `run` span, the part of a run no phase span covers.

use specwise::OptimizationTrace;
use specwise_ckt::SimPhase;
use specwise_exec::ExecReport;
use specwise_trace::{Record, SpanRecord};

use crate::layers::{CktCounts, Method};
use crate::metrics::{phase_key, ratio};

/// One traced run's per-layer values, by metric name.
pub type Values = Vec<(String, f64)>;

fn ms(us: u64) -> f64 {
    us as f64 / 1e3
}

/// Self time of `span` in microseconds: its duration minus the union of
/// the `children` intervals clipped to it.
pub fn self_time_us(span: &SpanRecord, children: &[&SpanRecord]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_us.max(span.start_us), c.end_us.min(span.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        covered += cb - ca;
    }
    span.duration_us().saturating_sub(covered)
}

/// The spans of a journal.
pub fn spans(records: &[Record]) -> Vec<&SpanRecord> {
    records
        .iter()
        .filter_map(|r| match r {
            Record::Span(s) => Some(s),
            Record::Event(_) => None,
        })
        .collect()
}

/// The optimizer's `run` span: the one span of that name in the journal.
pub fn run_span<'a>(spans: &[&'a SpanRecord]) -> Result<&'a SpanRecord, String> {
    let mut runs = spans.iter().filter(|s| s.name == "run");
    match (runs.next(), runs.next()) {
        (Some(run), None) => Ok(run),
        _ => Err("journal must hold exactly one `run` span".into()),
    }
}

/// `core` and `wcd` metrics from the Fig. 6 span tree of one run.
///
/// # Errors
///
/// A journal without exactly one `run` span.
pub fn span_values(records: &[Record]) -> Result<Values, String> {
    let spans = spans(records);
    let run = run_span(&spans)?;
    let children: Vec<&SpanRecord> = spans
        .iter()
        .copied()
        .filter(|s| s.parent == Some(run.id))
        .collect();
    let total_ms = |names: &[&str]| -> f64 {
        spans
            .iter()
            .filter(|s| names.contains(&s.name.as_str()))
            .map(|s| ms(s.duration_us()))
            .sum()
    };
    let sims = |names: &[&str]| -> f64 {
        spans
            .iter()
            .filter(|s| names.contains(&s.name.as_str()))
            .map(|s| s.counter("sims").unwrap_or(0) as f64)
            .sum()
    };
    let covered: u64 = children.iter().map(|c| c.duration_us()).sum();
    Ok(vec![
        (
            "core.coordinate_search_ms".into(),
            total_ms(&["coordinate_search"]),
        ),
        (
            "core.verify_ms".into(),
            total_ms(&["mc_verify", "is_verify", "norm_min_verify"]),
        ),
        ("core.line_search_ms".into(), total_ms(&["line_search"])),
        ("core.constraints_ms".into(), total_ms(&["constraints"])),
        (
            "core.feasible_start_ms".into(),
            total_ms(&["feasible_start"]),
        ),
        (
            "core.unattributed_ms".into(),
            ms(self_time_us(run, &children)),
        ),
        (
            "core.iterations".into(),
            spans.iter().filter(|s| s.name == "iteration").count() as f64,
        ),
        (
            "core.run_coverage".into(),
            ratio(covered as f64, run.duration_us() as f64),
        ),
        ("wcd.analysis_ms".into(), total_ms(&["wc_analysis"])),
        ("wcd.spec_search_ms".into(), total_ms(&["wcd_spec"])),
        ("wcd.linearize_ms".into(), total_ms(&["linearize"])),
        ("wcd.corners_ms".into(), total_ms(&["corners"])),
        (
            "wcd.sims".into(),
            sims(&["corners", "wcd_spec", "linearize"]),
        ),
        ("wcd.linearization_sims".into(), sims(&["linearize"])),
    ])
}

/// `exec` and `ckt` metrics of one traced run through the counting
/// wrapper; `workers` is the evaluation service's pool size and
/// `warm_entries` the environment's warm-start cache size after the run.
pub fn engine_values(
    trace: &OptimizationTrace,
    report: &ExecReport,
    counts: &CktCounts,
    workers: usize,
    warm_entries: usize,
) -> Values {
    let mut v: Values = vec![
        ("exec.cache_hit_rate".into(), report.hit_rate()),
        ("exec.cache_hits".into(), report.cache_hits as f64),
        ("exec.cache_misses".into(), report.cache_misses as f64),
        ("exec.batches".into(), report.batches as f64),
        (
            "exec.points_per_batch".into(),
            ratio(report.batch_points as f64, report.batches as f64),
        ),
    ];
    for phase in SimPhase::ALL {
        v.push((
            format!("exec.eval_ms.{}", phase_key(phase)),
            report.phase_wall[phase.index()].as_secs_f64() * 1e3,
        ));
    }
    v.push((
        "exec.parallel_efficiency".into(),
        ratio(
            counts.busy_total_ns() as f64,
            workers as f64 * report.eval_wall().as_nanos() as f64,
        ),
    ));
    v.push(("exec.retries".into(), report.retries as f64));
    v.push(("exec.sim_failures".into(), report.sim_failures as f64));
    v.push(("exec.panics_caught".into(), report.panics_caught as f64));

    for m in Method::ALL {
        let i = m as usize;
        v.push((format!("ckt.calls.{}", m.label()), counts.calls[i] as f64));
        v.push((
            format!("ckt.busy_ms.{}", m.label()),
            counts.busy_ns[i] as f64 / 1e6,
        ));
    }
    for phase in SimPhase::ALL {
        let key = phase_key(phase);
        let sims = trace.phase_sims[phase.index()] as f64;
        let busy_ns = counts.phase_busy_ns[phase.index()] as f64;
        v.push((format!("ckt.sims.{key}"), sims));
        v.push((format!("ckt.busy_ms.{key}"), busy_ns / 1e6));
        v.push((format!("ckt.us_per_sim.{key}"), ratio(busy_ns / 1e3, sims)));
    }
    v.push((
        "ckt.perturbed_served_frac".into(),
        ratio(
            counts.perturbed_answered as f64,
            counts.calls[Method::Perturbed as usize] as f64,
        ),
    ));
    v.push((
        "ckt.samples_batched_frac".into(),
        ratio(
            counts.samples_answered as f64,
            counts.calls[Method::Samples as usize] as f64,
        ),
    ));
    v.push(("ckt.adjoint_solves".into(), trace.adjoint_solves as f64));
    v.push(("ckt.fd_sims_avoided".into(), trace.fd_sims_avoided as f64));
    v.push(("ckt.warm_cache_entries".into(), warm_entries as f64));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.into(),
            thread: 0,
            start_us: start,
            end_us: end,
            attrs: Vec::new(),
            counters: vec![("sims".into(), end - start)],
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span(1, None, "run", 100, 200);
        let a = span(2, Some(1), "a", 110, 150);
        let b = span(3, Some(1), "b", 140, 160); // overlaps a
        let c = span(4, Some(1), "c", 190, 250); // runs past the parent
        assert_eq!(self_time_us(&parent, &[]), 100);
        assert_eq!(self_time_us(&parent, &[&a]), 60);
        assert_eq!(self_time_us(&parent, &[&b, &a]), 50);
        assert_eq!(self_time_us(&parent, &[&a, &b, &c]), 40);
    }

    #[test]
    fn span_values_read_the_fig6_tree() {
        let records: Vec<Record> = [
            span(2, Some(1), "feasible_start", 0, 10),
            span(4, Some(3), "corners", 10, 12),
            span(5, Some(3), "wcd_spec", 12, 20),
            span(6, Some(3), "linearize", 20, 30),
            span(3, Some(1), "wc_analysis", 10, 30),
            span(8, Some(7), "coordinate_search", 30, 70),
            span(7, Some(1), "iteration", 30, 90),
            span(1, None, "run", 0, 100),
        ]
        .into_iter()
        .map(Record::Span)
        .collect();
        let v = span_values(&records).unwrap();
        let get = |k: &str| v.iter().find(|(n, _)| n == k).unwrap().1;
        assert_eq!(get("core.coordinate_search_ms"), 0.04);
        assert_eq!(get("core.iterations"), 1.0);
        assert_eq!(get("core.unattributed_ms"), 0.01);
        assert_eq!(get("core.run_coverage"), 0.9);
        assert_eq!(get("wcd.sims"), 20.0);
        assert_eq!(get("wcd.linearization_sims"), 10.0);
        assert!(span_values(&records[..3]).is_err(), "no run span");
    }
}

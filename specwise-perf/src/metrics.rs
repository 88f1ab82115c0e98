//! The metric registry, the percentile helpers, and the result record one
//! workload run fills and prints.
//!
//! The registry is the single list of metric names, units, directions and
//! bounds; `BENCHMARK.json` at the repository root must declare exactly
//! the same set (a unit test checks both directions).

use std::collections::BTreeMap;

use specwise_ckt::SimPhase;
use specwise_trace::json;

use crate::layers::Method;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Regression bound as a share of the parent's median; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &str, better: Better, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit: unit.into(),
        better,
        bound,
    }
}

/// The end-to-end metrics: what a user of a Fig. 6 run or of the daemon
/// sees. Measured with tracing off.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    vec![
        def("setup_s", "s", Lower, Some(0.25)),
        def("run_s_p50", "s", Lower, Some(0.25)),
        def("run_s_p75", "s", Lower, Some(0.25)),
        def("jobs_per_min", "1/min", Higher, Some(0.25)),
        def("sims_per_run", "count", Lower, Some(0.10)),
        def("yield_final", "fraction", Higher, Some(0.03)),
        def("ok_frac", "fraction", Higher, Some(0.01)),
        def("peak_rss_mb", "MiB", Lower, Some(0.20)),
    ]
}

/// Metric-name suffix of a phase (`line search` → `line_search`).
pub fn phase_key(phase: SimPhase) -> String {
    phase.label().replace(' ', "_")
}

/// The per-layer metrics of the traced pass, layer by layer.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut v = Vec::new();
    for name in [
        "coordinate_search_ms",
        "verify_ms",
        "line_search_ms",
        "constraints_ms",
        "feasible_start_ms",
        "unattributed_ms",
    ] {
        v.push(def(format!("core.{name}"), "ms", Lower, None));
    }
    v.push(def("core.iterations", "count", Lower, None));
    v.push(def("core.run_coverage", "fraction", Higher, None));

    for name in [
        "analysis_ms",
        "spec_search_ms",
        "linearize_ms",
        "corners_ms",
    ] {
        v.push(def(format!("wcd.{name}"), "ms", Lower, None));
    }
    v.push(def("wcd.sims", "count", Lower, None));
    v.push(def("wcd.linearization_sims", "count", Lower, None));

    v.push(def("exec.cache_hit_rate", "fraction", Higher, None));
    v.push(def("exec.cache_hits", "count", Higher, None));
    v.push(def("exec.cache_misses", "count", Lower, None));
    v.push(def("exec.batches", "count", Lower, None));
    v.push(def("exec.points_per_batch", "count", Higher, None));
    for phase in SimPhase::ALL {
        v.push(def(
            format!("exec.eval_ms.{}", phase_key(phase)),
            "ms",
            Lower,
            None,
        ));
    }
    v.push(def("exec.parallel_efficiency", "fraction", Higher, None));
    v.push(def("exec.retries", "count", Lower, None));
    v.push(def("exec.sim_failures", "count", Lower, None));
    v.push(def("exec.panics_caught", "count", Lower, None));

    for m in Method::ALL {
        v.push(def(
            format!("ckt.calls.{}", m.label()),
            "count",
            Lower,
            None,
        ));
        v.push(def(format!("ckt.busy_ms.{}", m.label()), "ms", Lower, None));
    }
    for phase in SimPhase::ALL {
        let key = phase_key(phase);
        v.push(def(format!("ckt.sims.{key}"), "count", Lower, None));
        v.push(def(format!("ckt.busy_ms.{key}"), "ms", Lower, None));
        v.push(def(format!("ckt.us_per_sim.{key}"), "us", Lower, None));
    }
    v.push(def("ckt.perturbed_served_frac", "fraction", Higher, None));
    v.push(def("ckt.samples_batched_frac", "fraction", Higher, None));
    v.push(def("ckt.adjoint_solves", "count", Lower, None));
    v.push(def("ckt.fd_sims_avoided", "count", Higher, None));
    v.push(def("ckt.warm_cache_entries", "count", Higher, None));

    v.push(def("mna.symbolic_cache_entries", "count", Lower, None));
    v.push(def("mna.symbolic_cache_growth", "count", Lower, None));

    for name in ["submit", "queue", "compute", "overhead"] {
        v.push(def(format!("serve.{name}_ms_p50"), "ms", Lower, None));
    }
    v.push(def("serve.spool_bytes_per_job", "bytes", Lower, None));
    v.push(def("serve.journal_records_per_job", "count", Lower, None));
    v.push(def("serve.cache_hit_rate", "fraction", Higher, None));

    v.push(def("trace.overhead_frac", "fraction", Lower, None));
    v
}

/// 1-based nearest rank of percentile `p` (in `(0, 100]`) among `n`
/// samples.
pub fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `samples` (any order); `0` when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// Median by nearest rank.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// `true` when at least ten of `n` samples lie beyond percentile `p` —
/// the condition for reporting that percentile as a tail latency.
pub fn tail_resolved(n: usize, p: f64) -> bool {
    n >= 1 && n - rank(n, p) >= 10
}

/// Arithmetic mean; `0` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or `0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a hash of a design's raw `f64` bits.
pub fn design_hash(design: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in design {
        for byte in x.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric name → (value, sample count).
    values: BTreeMap<String, (f64, usize)>,
    /// Runs or jobs attempted after setup.
    pub attempted: u64,
    /// Attempts that errored.
    pub failed: u64,
    /// Failed correctness checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64, n: usize) {
        // `+ 0.0` turns the `-0.0` of an empty float sum into `0`.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.values.insert(name.into(), (value, n));
    }

    /// Records a failed correctness check.
    pub fn problem(&mut self, why: impl Into<String>) {
        self.problems.push(why.into());
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Prints one `workload metric value unit n=<samples>` line per
    /// metric of `defs`, then the result object as the last line. Also
    /// returns the object with the sample counts, for the results file.
    pub fn emit(&self, workload: &str, defs: &[MetricDef]) -> String {
        let mut line = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut file = line.clone();
        for (i, d) in defs.iter().enumerate() {
            let (value, n) = self.values.get(&d.name).copied().unwrap_or((0.0, 0));
            println!("{workload} {} {value} {} n={n}", d.name, d.unit);
            if i > 0 {
                line.push(',');
                file.push(',');
            }
            for out in [&mut line, &mut file] {
                json::write_json_string(out, &d.name);
                out.push_str(":{\"value\":");
                json::write_f64(out, value);
                out.push_str(",\"unit\":");
                json::write_json_string(out, &d.unit);
            }
            line.push('}');
            file.push_str(&format!(",\"n\":{n}}}"));
        }
        line.push_str("}}");
        file.push_str("}}");
        println!("{line}");
        file
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specwise_trace::json::Json;

    /// `true` when `name` is a valid metric name: starts with a letter or a
    /// digit, at most 64 characters from `[A-Za-z0-9_.-]`.
    pub fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 75.0), 8.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.5], 75.0), 7.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        assert!(!tail_resolved(39, 75.0));
        assert!(tail_resolved(40, 75.0));
        assert!(!tail_resolved(99, 90.0));
        assert!(tail_resolved(100, 90.0));
        assert!(tail_resolved(20, 50.0));
        assert!(!tail_resolved(19, 50.0));
        assert!(!tail_resolved(0, 50.0));
    }

    #[test]
    fn metric_names_are_unique_and_use_the_allowed_charset() {
        assert!(valid_name("exec.eval_ms.line_search"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("with space"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
        let mut seen = std::collections::HashSet::new();
        for d in end_to_end().into_iter().chain(per_layer()) {
            assert!(valid_name(&d.name), "bad name {:?}", d.name);
            assert!(seen.insert(d.name.clone()), "duplicate {:?}", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                d.unit
            );
        }
        assert!(per_layer().len() <= 128);
    }

    fn declared(bench: &Json, key: &str) -> Vec<MetricDef> {
        bench
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                let better = match s("better").as_str() {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => panic!("bad direction {other}"),
                };
                def(
                    s("name"),
                    &s("unit"),
                    better,
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_registry_in_both_directions() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let bench = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, registry) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let file = declared(&bench, key);
            for d in &registry {
                assert!(file.contains(d), "{key}: {d:?} missing from BENCHMARK.json");
            }
            for d in &file {
                assert!(registry.contains(d), "{key}: {d:?} not in the registry");
            }
        }
        let workloads: Vec<&str> = bench
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn design_hash_sees_every_bit() {
        let a = design_hash(&[1.0, 2.0]);
        assert_eq!(a, design_hash(&[1.0, 2.0]));
        assert_ne!(a, design_hash(&[1.0, f64::from_bits(2.0f64.to_bits() + 1)]));
        assert_ne!(a, design_hash(&[2.0, 1.0]));
    }
}

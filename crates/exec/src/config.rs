//! Configuration for the evaluation service: worker pool size and the
//! retry policy for non-converged simulations.

use specwise_ckt::env_knob::{parse_env_knob, warn_retired_knobs, Finite};

/// Retry policy for evaluations that fail with a simulation error
/// (typically a non-converged DC solve).
///
/// Each retry re-evaluates at a deterministically perturbed statistical
/// point: attempt `k` adds `perturb · k` to every component of `ŝ`. The
/// perturbation is far below the resolution the optimizer cares about
/// (default 1e-9 on standardized-Gaussian axes), but often enough to move a
/// Newton solve off a singular operating point. Constraint evaluations are
/// retried at the unchanged design point, covering transient failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum number of retries after the first failed attempt.
    pub max_retries: u32,
    /// Magnitude added to each `ŝ` component per retry attempt; `0.0`
    /// retries the very same point, bit for bit.
    pub perturb: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            perturb: 1e-9,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            perturb: 0.0,
        }
    }
}

/// Configuration of an [`EvalService`](crate::EvalService).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecConfig {
    /// Number of worker threads for batch evaluations. `1` means serial.
    pub workers: usize,
    /// Retired: the service no longer memoizes, and nothing reads this
    /// field. It stays only so struct literals that still name it compile,
    /// until the benchmark package drops it.
    pub cache_capacity: usize,
    /// Retry policy for failed simulations.
    pub retry: RetryPolicy,
    /// Minimum batch size before the worker pool is engaged; smaller
    /// batches run serially (thread spawn costs more than it saves).
    pub min_parallel_batch: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cache_capacity: 0,
            retry: RetryPolicy::default(),
            min_parallel_batch: 2,
        }
    }
}

impl ExecConfig {
    /// A fully serial configuration with retries disabled — behaves
    /// exactly like calling the environment directly.
    pub fn serial() -> Self {
        ExecConfig {
            workers: 1,
            cache_capacity: 0,
            retry: RetryPolicy::none(),
            min_parallel_batch: usize::MAX,
        }
    }

    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Divides this configuration's worker threads across `shards`
    /// concurrent services (minimum one thread each), so a pool of
    /// side-by-side jobs — `specwise-serve`'s worker slots — shares the
    /// machine instead of oversubscribing it `shards`-fold. Worker count
    /// never changes results (the engine is bit-identical at any worker
    /// count), only scheduling.
    pub fn into_shard(mut self, shards: usize) -> Self {
        self.workers = (self.workers / shards.max(1)).max(1);
        self
    }

    /// Reads the configuration from the environment, starting from the
    /// defaults:
    ///
    /// * `SPECWISE_WORKERS` — worker thread count,
    /// * `SPECWISE_RETRIES` — max retries for failed simulations,
    /// * `SPECWISE_RETRY_PERTURB` — per-retry `ŝ` perturbation.
    ///
    /// Unset variables keep their defaults; a set-but-malformed value also
    /// keeps the default, after a one-line stderr warning naming the
    /// variable and the rejected value (a silent fallback here once meant a
    /// typo'd `SPECWISE_WORKERS=8x` quietly ran serial); `nan` and `inf`
    /// are malformed. A set retired knob (`SPECWISE_BATCH`, `SPECWISE_GRAD`,
    /// `SPECWISE_WARM_START`, `SPECWISE_CACHE_CAP`) prints a one-line
    /// notice saying it is no longer read.
    pub fn from_env() -> Self {
        warn_retired_knobs(RETIRED_KNOBS);
        let mut cfg = ExecConfig::default();
        if let Some(n) = parse_env_knob::<usize>("SPECWISE_WORKERS") {
            cfg.workers = n.max(1);
        }
        if let Some(n) = parse_env_knob::<u32>("SPECWISE_RETRIES") {
            cfg.retry.max_retries = n;
        }
        if let Some(Finite(x)) = parse_env_knob("SPECWISE_RETRY_PERTURB") {
            cfg.retry.perturb = x;
        }
        cfg
    }
}

/// Knobs the workspace no longer reads, each with a one-line hint naming
/// what replaced it; [`ExecConfig::from_env`] warns when one is set.
const RETIRED_KNOBS: &[(&str, &str)] = &[
    (
        "SPECWISE_BATCH",
        "Monte-Carlo verification runs on the SPECWISE_WORKERS pool",
    ),
    (
        "SPECWISE_GRAD",
        "margin gradients always use adjoint sensitivities",
    ),
    (
        "SPECWISE_WARM_START",
        "benches warm-start by default; Testbench::with_warm_start(false) runs cold",
    ),
    (
        "SPECWISE_CACHE_CAP",
        "the evaluation service no longer memoizes; the corner sweep's results are handed on",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use specwise_ckt::env_knob::{parse_knob_checked, retired_knob_notice};

    #[test]
    fn defaults_are_sane() {
        let cfg = ExecConfig::default();
        assert!(cfg.workers >= 1);
        assert_eq!(cfg.retry.max_retries, 2);
    }

    #[test]
    fn serial_disables_everything() {
        let cfg = ExecConfig::serial();
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.retry.max_retries, 0);
    }

    #[test]
    fn builder_setters() {
        let cfg = ExecConfig::default()
            .with_workers(3)
            .with_retry(RetryPolicy {
                max_retries: 5,
                perturb: 1e-6,
            });
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.retry.max_retries, 5);
    }

    #[test]
    fn sharding_divides_workers_with_a_floor_of_one() {
        let base = ExecConfig::default().with_workers(8);
        assert_eq!(base.clone().into_shard(2).workers, 4);
        assert_eq!(base.clone().into_shard(3).workers, 2);
        assert_eq!(base.clone().into_shard(100).workers, 1);
        assert_eq!(base.clone().into_shard(0).workers, 8, "0 shards ≡ 1");
        // Only the worker count changes.
        let sharded = base.clone().into_shard(2);
        assert_eq!(sharded.retry, base.retry);
    }

    #[test]
    fn malformed_env_values_warn_and_name_the_variable() {
        let err = parse_knob_checked::<usize>("SPECWISE_WORKERS", "8x").unwrap_err();
        assert!(err.contains("SPECWISE_WORKERS"), "{err}");
        assert!(err.contains("8x"), "{err}");
        assert!(err.contains("keeping default"), "{err}");
        // Well-formed values (with surrounding whitespace) still parse.
        assert_eq!(
            parse_knob_checked::<usize>("SPECWISE_WORKERS", " 8 "),
            Ok(8)
        );
        assert_eq!(
            parse_knob_checked::<f64>("SPECWISE_RETRY_PERTURB", "1e-9"),
            Ok(1e-9)
        );
    }

    #[test]
    fn retired_batch_knob_gets_one_notice_line() {
        let names: Vec<&str> = RETIRED_KNOBS.iter().map(|&(name, _)| name).collect();
        assert_eq!(
            names,
            [
                "SPECWISE_BATCH",
                "SPECWISE_GRAD",
                "SPECWISE_WARM_START",
                "SPECWISE_CACHE_CAP"
            ]
        );
        for &(name, hint) in RETIRED_KNOBS {
            assert_eq!(retired_knob_notice(name, hint, None), None);
            let notice = retired_knob_notice(name, hint, Some("64")).unwrap();
            assert!(notice.contains(&format!("{name}=\"64\"")), "{notice}");
            assert!(notice.contains("no longer read"), "{notice}");
            assert!(!notice.contains('\n'), "{notice}");
        }
        assert!(RETIRED_KNOBS[0].1.contains("SPECWISE_WORKERS pool"));
    }

    #[test]
    fn retired_cache_capacity_knob_says_the_service_no_longer_memoizes() {
        let &(name, hint) = RETIRED_KNOBS
            .iter()
            .find(|&&(name, _)| name == "SPECWISE_CACHE_CAP")
            .expect("SPECWISE_CACHE_CAP is retired");
        let notice = retired_knob_notice(name, hint, Some("8192")).unwrap();
        assert_eq!(
            notice,
            "specwise: SPECWISE_CACHE_CAP=\"8192\" is no longer read; \
             the evaluation service no longer memoizes; the corner sweep's results are handed on"
        );
    }
}

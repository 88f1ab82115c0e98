//! Budget exhaustion mid-batch: when a tenant's simulation budget runs
//! out inside a Monte-Carlo verification batch, the starved samples must
//! be excluded cleanly — a partial yield estimate with a widened
//! interval, not a crash — and the *count* of excluded samples must be
//! identical at any worker count (which samples starve depends on
//! scheduling; how many cannot).
//!
//! This is the serving-path contract: `specwise-serve` wraps every job in
//! a soft [`KillSwitch`] shared across the tenant's jobs, so one tenant
//! hitting its quota degrades its own yield intervals and nothing else.

use std::sync::Arc;

use specwise::{MonteCarlo, Tracer};
use specwise_ckt::{AnalyticEnv, DesignParam, DesignSpace, Spec, SpecKind};
use specwise_exec::{EvalService, ExecConfig, RetryPolicy};
use specwise_harden::{KillSwitch, SharedBudget};
use specwise_linalg::DVec;

const N_SAMPLES: usize = 40;

fn env() -> AnalyticEnv {
    // Margin 8 + s ⇒ a clean sample fails with probability Φ(−8) ≈ 6e−16:
    // every sample that actually simulates passes, so the verified yield
    // counts exactly the starved samples.
    AnalyticEnv::builder()
        .design(DesignSpace::new(vec![DesignParam::new(
            "d0", "", -10.0, 10.0, 8.0,
        )]))
        .stat_dim(1)
        .spec(Spec::new("f", "", SpecKind::LowerBound, 0.0))
        .performances(|d, s, _| DVec::from_slice(&[d[0] + s[0]]))
        .build()
        .unwrap()
}

fn exec_cfg(workers: usize) -> ExecConfig {
    // No cache (a hit would bypass the budget charge) and no retries (a
    // starved sample would just charge again and fail again).
    ExecConfig::default()
        .with_workers(workers)
        .with_cache_capacity(0)
        .with_retry(RetryPolicy::none())
}

fn mc_options() -> MonteCarlo {
    MonteCarlo {
        n_samples: N_SAMPLES,
        seed: 2001,
    }
}

/// Evaluation calls consumed by a full verification with `n` samples.
fn probe_calls(n: usize) -> u64 {
    let e = env();
    let probe = KillSwitch::soft(&e, u64::MAX);
    let svc = EvalService::new(&probe, exec_cfg(1));
    let opts = MonteCarlo {
        n_samples: n,
        seed: 2001,
    };
    opts.run(&svc, &DVec::from_slice(&[8.0]), &Tracer::disabled())
        .expect("probe run completes");
    probe.used()
}

/// A budget that starves exactly the last `N_SAMPLES / 2` samples'
/// worth of evaluation calls, measured rather than assumed (worst-case
/// corner discovery costs a few calls before the sample batch starts).
fn half_starving_budget() -> u64 {
    let u1 = probe_calls(N_SAMPLES);
    let u2 = probe_calls(2 * N_SAMPLES);
    let per_sample = (u2 - u1) / N_SAMPLES as u64;
    assert!(per_sample >= 1, "samples must cost evaluation calls");
    u1 - per_sample * (N_SAMPLES as u64 / 2)
}

#[test]
fn soft_budget_exhaustion_mid_batch_degrades_cleanly_at_any_worker_count() {
    let budget = half_starving_budget();
    let d = DVec::from_slice(&[8.0]);
    let mut baseline = None;
    for workers in [1usize, 2, 8] {
        let e = env();
        let shared = Arc::new(SharedBudget::new(budget));
        let kill = KillSwitch::soft_with_budget(&e, Arc::clone(&shared));
        let svc = EvalService::new(&kill, exec_cfg(workers));
        let mc = mc_options()
            .run(&svc, &d, &Tracer::disabled())
            .expect("budget exhaustion must degrade, not crash");

        assert!(shared.tripped(), "the budget must actually run out");
        assert_eq!(
            mc.sim_failures,
            N_SAMPLES / 2,
            "exactly the starved samples are excluded (workers = {workers})"
        );
        assert_eq!(mc.degraded_samples, N_SAMPLES / 2);
        assert_eq!(mc.yield_estimate.total(), N_SAMPLES);
        // Every sample that simulated passed; the starved half widens the
        // interval instead of biasing the point estimate.
        assert_eq!(mc.yield_estimate.value(), 0.5, "workers = {workers}");
        assert_eq!(mc.yield_interval(), (0.5, 1.0), "workers = {workers}");

        let key = (
            mc.sim_failures,
            mc.degraded_samples,
            mc.per_spec_bad.clone(),
        );
        match &baseline {
            None => baseline = Some(key),
            Some(expected) => assert_eq!(
                &key, expected,
                "exclusion counts must not depend on the worker count"
            ),
        }
    }
}

/// The fleet version of the soft-exhaustion contract: the spend daemon A
/// published to the spool ledger counts against daemon B's meter for the
/// same tenant, so B starves exactly as if A's simulations had run in
/// B's own process — independent of B's worker count *and* of how many
/// peer daemons A's spend is split across.
#[test]
fn fleet_ledger_starves_peer_daemons_exactly_like_local_spend() {
    use specwise_serve::TenantLedger;

    let spool = std::env::temp_dir().join(format!("specwise-budget-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    std::fs::create_dir_all(&spool).unwrap();

    let u1 = probe_calls(N_SAMPLES);
    let h = half_starving_budget();
    // Cap = one full run (spent remotely) + a half-starving remainder.
    let cap = u1 + h;
    let d = DVec::from_slice(&[8.0]);

    // A's full-run spend, split over one peer daemon or over two — the
    // ledger sums owners, so the split must be invisible to B.
    let splits: [&[u64]; 2] = [&[u1], &[u1 / 2, u1 - u1 / 2]];
    let mut baseline = None;
    for (t, split) in splits.iter().enumerate() {
        let tenant = format!("acme-{t}");
        for (i, spend) in split.iter().enumerate() {
            let peer = TenantLedger::open(&spool, &format!("peer-{t}-{i}")).unwrap();
            peer.record(&tenant, *spend).unwrap();
        }
        for workers in [1usize, 2, 8] {
            let e = env();
            let shared = Arc::new(SharedBudget::new(cap));
            let ledger_b = TenantLedger::open(&spool, "daemon-b").unwrap();
            // What the fleet loop does at claim/heartbeat time. B never
            // records its own spend here so every iteration of this loop
            // sees the identical remote total.
            shared.set_external(ledger_b.others_used(&tenant));
            assert_eq!(shared.external(), u1, "the ledger sums every peer");
            assert!(!shared.tripped(), "remote spend alone is under the cap");

            let kill = KillSwitch::soft_with_budget(&e, Arc::clone(&shared));
            let svc = EvalService::new(&kill, exec_cfg(workers));
            let mc = mc_options()
                .run(&svc, &d, &Tracer::disabled())
                .expect("fleet exhaustion must degrade, not crash");
            assert!(shared.tripped(), "the fleet-wide cap must run out");
            assert_eq!(
                mc.sim_failures,
                N_SAMPLES / 2,
                "remote spend starves like local spend (workers = {workers})"
            );
            assert_eq!(mc.yield_interval(), (0.5, 1.0), "workers = {workers}");

            let key = (
                mc.sim_failures,
                mc.degraded_samples,
                mc.per_spec_bad.clone(),
            );
            match &baseline {
                None => baseline = Some(key),
                Some(expected) => assert_eq!(
                    &key, expected,
                    "exclusion counts must not depend on worker or daemon count"
                ),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn hard_budget_exhaustion_aborts_the_verification() {
    // The hard kill switch models "the job was killed", not "the tenant
    // ran dry": its error is non-retryable and must abort the run so
    // checkpoint/resume takes over — the opposite contract of soft mode.
    let budget = half_starving_budget();
    let e = env();
    let kill = KillSwitch::new(&e, budget);
    let svc = EvalService::new(&kill, exec_cfg(1));
    let err = mc_options()
        .run(&svc, &DVec::from_slice(&[8.0]), &Tracer::disabled())
        .expect_err("a hard kill must abort mc verification");
    assert!(kill.tripped());
    let msg = err.to_string();
    assert!(
        msg.contains("kill switch"),
        "the abort must name the kill switch, got: {msg}"
    );
}

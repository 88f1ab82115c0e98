//! Shared daemon state: the job table, the FIFO queue the worker pool
//! drains, per-tenant simulation budgets, and service metrics.
//!
//! One mutex guards the whole state (job turnover is a few per minute —
//! contention is not a concern); two condvars signal the two things
//! threads wait for: queued work (worker pool) and settled jobs
//! (`result --wait` connections).

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

use specwise_harden::SharedBudget;
use specwise_trace::json::{self};

use crate::job::{JobOutcome, JobSpec};
use crate::protocol::WireError;

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting for a worker slot.
    Queued,
    /// A worker is running the optimization.
    Running,
    /// A peer daemon holds the job's spool lease and is running it; this
    /// daemon tracks it and settles it from the spool when the peer's
    /// outcome lands (or re-queues it when the peer's lease expires).
    Remote,
    /// Settled successfully; the outcome is available.
    Done,
    /// Settled with an error.
    Failed,
}

impl JobState {
    /// The state's wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Remote => "remote",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// `true` once the job can no longer change state.
    pub fn settled(&self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }
}

/// The state, outcome and error of a job settled with `result`.
fn settled(result: Result<JobOutcome, String>) -> (JobState, Option<JobOutcome>, Option<String>) {
    match result {
        Ok(outcome) => (JobState::Done, Some(outcome), None),
        Err(reason) => (JobState::Failed, None, Some(reason)),
    }
}

/// One job's full record in the table.
#[derive(Debug, Clone)]
pub struct JobEntry {
    /// The accepted spec.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// The result, once [`JobState::Done`].
    pub outcome: Option<JobOutcome>,
    /// The failure reason, once [`JobState::Failed`].
    pub error: Option<String>,
    /// The daemon owner id running the job, once known: this daemon's
    /// own id for local runs, the lease holder's for [`JobState::Remote`]
    /// jobs. Reported in the `status` job rows.
    pub holder: Option<String>,
}

/// Service-level counters reported by `status`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Jobs accepted since daemon start (including recovered ones).
    pub jobs_submitted: u64,
    /// Jobs settled successfully by this daemon's own workers.
    pub jobs_done: u64,
    /// Jobs settled with an error.
    pub jobs_failed: u64,
    /// Jobs settled from the spool after a peer daemon ran them (their
    /// sims/cache counters belong to the peer and are *not* folded into
    /// this daemon's totals).
    pub jobs_remote: u64,
    /// Evaluation-cache hits summed over settled jobs.
    pub cache_hits: u64,
    /// Evaluation-cache misses summed over settled jobs.
    pub cache_misses: u64,
    /// Simulator calls summed over settled jobs.
    pub total_sims: u64,
    /// Adjoint/sensitivity solves summed over settled jobs (tracked
    /// beside, never inside, [`Metrics::total_sims`]).
    pub adjoint_solves: u64,
    /// Full simulations the adjoint shortcut avoided, summed over settled
    /// jobs.
    pub fd_sims_avoided: u64,
}

impl Metrics {
    /// Cache hit rate over settled jobs (`None` before any lookup).
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }
}

/// Fleet-level figures assembled by the daemon (lease registry, liveness
/// files, spool ledger) and rendered into the `status` response.
#[derive(Debug, Clone, Default)]
pub struct FleetStatus {
    /// This daemon's owner id.
    pub owner: String,
    /// Daemons with a fresh liveness file in the spool (incl. this one).
    pub daemons_live: usize,
    /// Leases this daemon currently holds.
    pub leases_held: usize,
    /// Leases this daemon stole from expired holders since start.
    pub leases_stolen: u64,
    /// Expired peer leases this daemon observed (and re-queued) since
    /// start.
    pub leases_expired: u64,
    /// Leases this daemon lost to a thief while running (paused past the
    /// expiry window) since start.
    pub leases_lost: u64,
    /// Fleet-wide cumulative sim charges per tenant, from the spool
    /// ledger (covers tenants active on *any* daemon, sorted by name).
    pub tenants_fleet: Vec<(String, u64)>,
}

#[derive(Debug)]
struct Inner {
    jobs: HashMap<String, JobEntry>,
    /// Submission order, for a stable `status` listing.
    order: Vec<String>,
    queue: VecDeque<String>,
    tenants: HashMap<String, Arc<SharedBudget>>,
    /// Per-tenant `(adjoint_solves, fd_sims_avoided)` sums over settled
    /// jobs, reported in the `status` tenant rows.
    tenant_adjoint: HashMap<String, (u64, u64)>,
    metrics: Metrics,
    next_id: u64,
    shutdown: bool,
}

/// The daemon's shared state. All methods are safe to call from any
/// connection-handler or worker thread.
#[derive(Debug)]
pub struct ServeState {
    inner: Mutex<Inner>,
    queue_cv: Condvar,
    done_cv: Condvar,
    tenant_budget: u64,
}

impl ServeState {
    /// Creates empty state; each new tenant gets a fresh simulation
    /// budget of `tenant_budget` evaluation calls.
    pub fn new(tenant_budget: u64) -> ServeState {
        ServeState {
            inner: Mutex::new(Inner {
                jobs: HashMap::new(),
                order: Vec::new(),
                queue: VecDeque::new(),
                tenants: HashMap::new(),
                tenant_adjoint: HashMap::new(),
                metrics: Metrics::default(),
                next_id: 1,
                shutdown: false,
            }),
            queue_cv: Condvar::new(),
            done_cv: Condvar::new(),
            tenant_budget,
        }
    }

    /// Allocates the next job id (`job-0001`, `job-0002`, …).
    pub fn next_id(&self) -> String {
        let mut inner = self.inner.lock().unwrap();
        let id = inner.next_id;
        inner.next_id += 1;
        format!("job-{id:04}")
    }

    /// Ensures future [`ServeState::next_id`] calls start above `seen`
    /// (used when recovering spooled jobs after a restart).
    pub fn reserve_ids_through(&self, seen: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.next_id = inner.next_id.max(seen + 1);
    }

    /// Inserts a job and queues it for the worker pool, unless the id is
    /// already known: then nothing changes and `false` is returned.
    ///
    /// Both the submit path and the spool scan (which discovers jobs a
    /// peer submitted to the shared spool) call this. The submit path
    /// spools the job first, so a scan may queue the id in between; the
    /// job is then listed, queued and counted once.
    pub fn enqueue(&self, spec: JobSpec) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if inner.jobs.contains_key(&spec.id) {
            return false;
        }
        let id = spec.id.clone();
        inner.jobs.insert(
            id.clone(),
            JobEntry {
                spec,
                state: JobState::Queued,
                outcome: None,
                error: None,
                holder: None,
            },
        );
        inner.order.push(id.clone());
        inner.queue.push_back(id);
        inner.metrics.jobs_submitted += 1;
        drop(inner);
        self.queue_cv.notify_one();
        true
    }

    /// `true` when the job id is in the table (any state).
    pub fn known(&self, id: &str) -> bool {
        self.inner.lock().unwrap().jobs.contains_key(id)
    }

    /// Inserts a job recovered from the spool already settled: with the
    /// outcome a previous process or a peer daemon wrote to its `.out`, so
    /// clients can still fetch it, or with the failure its `.fail` marker
    /// kept, so clients get the failure instead of an automatic — and
    /// likely identical — re-run. Counted as remote work: this process did
    /// not run it, so `jobs_done` — runs completed *here* — is untouched
    /// and stays fleet-additive.
    pub fn insert_settled(&self, spec: JobSpec, result: Result<JobOutcome, String>) {
        let mut inner = self.inner.lock().unwrap();
        inner.metrics.jobs_submitted += 1;
        inner.metrics.jobs_remote += 1;
        inner.metrics.jobs_failed += u64::from(result.is_err());
        let (state, outcome, error) = settled(result);
        let id = spec.id.clone();
        inner.jobs.insert(
            id.clone(),
            JobEntry {
                spec,
                state,
                outcome,
                error,
                holder: None,
            },
        );
        inner.order.push(id);
    }

    /// Blocks until a job is queued (returning its spec and the tenant's
    /// budget) or the daemon shuts down (returning `None`).
    pub fn claim(&self) -> Option<(JobSpec, Arc<SharedBudget>)> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.shutdown {
                return None;
            }
            if let Some(id) = inner.queue.pop_front() {
                let budget_cap = self.tenant_budget;
                let entry = inner.jobs.get_mut(&id).expect("queued job has an entry");
                entry.state = JobState::Running;
                let spec = entry.spec.clone();
                let budget = Arc::clone(
                    inner
                        .tenants
                        .entry(spec.tenant.clone())
                        .or_insert_with(|| Arc::new(SharedBudget::new(budget_cap))),
                );
                return Some((spec, budget));
            }
            inner = self.queue_cv.wait(inner).unwrap();
        }
    }

    /// Settles a job with its result and wakes `result --wait` clients.
    pub fn finish(&self, id: &str, result: Result<JobOutcome, String>) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(entry) = inner.jobs.get_mut(id) {
            match result {
                Ok(outcome) => {
                    entry.state = JobState::Done;
                    entry.outcome = Some(outcome.clone());
                    let tenant = entry.spec.tenant.clone();
                    inner.metrics.jobs_done += 1;
                    inner.metrics.cache_hits += outcome.cache_hits;
                    inner.metrics.cache_misses += outcome.cache_misses;
                    inner.metrics.total_sims += outcome.total_sims;
                    inner.metrics.adjoint_solves += outcome.adjoint_solves;
                    inner.metrics.fd_sims_avoided += outcome.fd_sims_avoided;
                    let t = inner.tenant_adjoint.entry(tenant).or_default();
                    t.0 += outcome.adjoint_solves;
                    t.1 += outcome.fd_sims_avoided;
                }
                Err(reason) => {
                    entry.state = JobState::Failed;
                    entry.error = Some(reason);
                    inner.metrics.jobs_failed += 1;
                }
            }
        }
        drop(inner);
        self.done_cv.notify_all();
    }

    /// Marks a claimed-but-not-runnable job as held by a peer daemon:
    /// the worker popped it from the queue, tried the spool lease, and
    /// found `holder`'s fresh lease on it. The fleet loop settles it from
    /// the spool (peer finished) or re-queues it (peer's lease expired).
    pub fn mark_remote(&self, id: &str, holder: String) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(entry) = inner.jobs.get_mut(id) {
            if !entry.state.settled() {
                entry.state = JobState::Remote;
                entry.holder = Some(holder);
            }
        }
    }

    /// Records which daemon is running a job (local claims stamp their
    /// own owner id here, so `status` shows the holder of every job).
    pub fn set_holder(&self, id: &str, holder: String) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(entry) = inner.jobs.get_mut(id) {
            entry.holder = Some(holder);
        }
    }

    /// Puts a [`JobState::Remote`] job back in the queue — its holder's
    /// lease expired, so a local worker should try to steal it.
    pub fn requeue(&self, id: &str) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(entry) = inner.jobs.get_mut(id) {
            if entry.state == JobState::Remote {
                entry.state = JobState::Queued;
                entry.holder = None;
                inner.queue.push_back(id.to_string());
                drop(inner);
                self.queue_cv.notify_one();
            }
        }
    }

    /// Settles a remote job with the outcome or the failure its peer wrote
    /// to the spool and wakes `result --wait` clients. Unlike
    /// [`ServeState::finish`], the peer's sim/cache counters are *not*
    /// folded into this daemon's metrics — they are the peer's work.
    pub fn settle_remote(&self, id: &str, result: Result<JobOutcome, String>) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(entry) = inner.jobs.get_mut(id) {
            if !entry.state.settled() {
                let failed = u64::from(result.is_err());
                (entry.state, entry.outcome, entry.error) = settled(result);
                inner.metrics.jobs_remote += 1;
                inner.metrics.jobs_failed += failed;
            }
        }
        drop(inner);
        self.done_cv.notify_all();
    }

    /// Ids of jobs currently in [`JobState::Remote`].
    pub fn remote_jobs(&self) -> Vec<String> {
        let inner = self.inner.lock().unwrap();
        inner
            .order
            .iter()
            .filter(|id| inner.jobs[*id].state == JobState::Remote)
            .cloned()
            .collect()
    }

    /// Snapshot of every tenant budget this daemon has instantiated
    /// (the fleet loop reconciles each against the spool ledger).
    pub fn tenant_budgets(&self) -> Vec<(String, Arc<SharedBudget>)> {
        let inner = self.inner.lock().unwrap();
        inner
            .tenants
            .iter()
            .map(|(tenant, budget)| (tenant.clone(), Arc::clone(budget)))
            .collect()
    }

    /// Blocks for up to `timeout` or until shutdown; `true` on shutdown.
    /// The fleet loop's tick timer, so a shutting-down daemon never waits
    /// out a full heartbeat interval.
    pub fn wait_shutdown(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.inner.lock().unwrap();
        while !inner.shutdown {
            let now = std::time::Instant::now();
            let Some(remaining) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return false;
            };
            let (guard, _) = self.done_cv.wait_timeout(inner, remaining).unwrap();
            inner = guard;
        }
        true
    }

    /// A snapshot of one job's entry.
    ///
    /// # Errors
    ///
    /// `"unknown-job"` when the id was never accepted.
    pub fn entry(&self, id: &str) -> Result<JobEntry, WireError> {
        let inner = self.inner.lock().unwrap();
        inner
            .jobs
            .get(id)
            .cloned()
            .ok_or_else(|| WireError::new("unknown-job", format!("no such job {id:?}")))
    }

    /// Blocks until the job settles, then returns its entry.
    ///
    /// # Errors
    ///
    /// `"unknown-job"` when the id was never accepted.
    pub fn wait_settled(&self, id: &str) -> Result<JobEntry, WireError> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            match inner.jobs.get(id) {
                None => return Err(WireError::new("unknown-job", format!("no such job {id:?}"))),
                Some(entry) if entry.state.settled() => return Ok(entry.clone()),
                Some(_) => inner = self.done_cv.wait(inner).unwrap(),
            }
        }
    }

    /// Signals shutdown: wakes the worker pool (which exits after its
    /// current jobs) and any waiting clients.
    pub fn shutdown(&self) {
        self.inner.lock().unwrap().shutdown = true;
        self.queue_cv.notify_all();
        self.done_cv.notify_all();
    }

    /// `true` once [`ServeState::shutdown`] was called.
    pub fn is_shutdown(&self) -> bool {
        self.inner.lock().unwrap().shutdown
    }

    /// A snapshot of the service metrics.
    pub fn metrics(&self) -> Metrics {
        self.inner.lock().unwrap().metrics
    }

    /// The `status` response: job table, metrics with cache hit rate, and
    /// per-tenant simulation counts (the tenant budget is reported only
    /// when finite). Job rows carry the holding daemon once a lease is
    /// held, tenant rows carry fleet-wide sim totals, and a `fleet` object
    /// reports the [`FleetStatus`] lease/liveness figures.
    pub fn status_line(&self, fleet: &FleetStatus) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::from("{\"ok\":true,\"jobs\":[");
        for (i, id) in inner.order.iter().enumerate() {
            let entry = &inner.jobs[id];
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"job\":");
            json::write_json_string(&mut out, id);
            out.push_str(",\"tenant\":");
            json::write_json_string(&mut out, &entry.spec.tenant);
            out.push_str(",\"state\":");
            json::write_json_string(&mut out, entry.state.as_str());
            out.push_str(",\"estimator\":");
            json::write_json_string(&mut out, &entry.spec.options.estimator.to_string());
            if let Some(holder) = &entry.holder {
                out.push_str(",\"holder\":");
                json::write_json_string(&mut out, holder);
            }
            if let Some(ess) = entry.outcome.as_ref().and_then(|o| o.ess) {
                out.push_str(",\"ess\":");
                json::write_f64(&mut out, ess);
            }
            out.push('}');
        }
        let m = &inner.metrics;
        out.push_str(&format!(
            "],\"metrics\":{{\"jobs_submitted\":{},\"jobs_done\":{},\"jobs_failed\":{},\
             \"jobs_remote\":{},\
             \"queue_depth\":{},\"cache_hits\":{},\"cache_misses\":{},\"cache_hit_rate\":",
            m.jobs_submitted,
            m.jobs_done,
            m.jobs_failed,
            m.jobs_remote,
            inner.queue.len(),
            m.cache_hits,
            m.cache_misses,
        ));
        match m.cache_hit_rate() {
            Some(rate) => json::write_f64(&mut out, rate),
            None => out.push_str("null"),
        }
        out.push_str(&format!(
            ",\"total_sims\":{},\"adjoint_solves\":{},\"fd_sims_avoided\":{},\"tenants\":[",
            m.total_sims, m.adjoint_solves, m.fd_sims_avoided
        ));
        let mut tenants: Vec<_> = inner.tenants.iter().collect();
        tenants.sort_by(|a, b| a.0.cmp(b.0));
        for (i, (tenant, budget)) in tenants.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"tenant\":");
            json::write_json_string(&mut out, tenant);
            out.push_str(&format!(
                ",\"sims\":{},\"sims_fleet\":{}",
                budget.used(),
                budget.total_used()
            ));
            let (adj, avoided) = inner
                .tenant_adjoint
                .get(tenant)
                .copied()
                .unwrap_or_default();
            out.push_str(&format!(
                ",\"adjoint_solves\":{adj},\"fd_sims_avoided\":{avoided}"
            ));
            if budget.budget() != u64::MAX {
                out.push_str(&format!(",\"budget\":{}", budget.budget()));
            }
            out.push_str(&format!(",\"tripped\":{}}}", budget.tripped()));
        }
        out.push_str("]},\"fleet\":{\"owner\":");
        json::write_json_string(&mut out, &fleet.owner);
        out.push_str(&format!(
            ",\"daemons_live\":{},\"leases_held\":{},\"leases_stolen\":{},\
             \"leases_expired\":{},\"leases_lost\":{},\"tenants\":[",
            fleet.daemons_live,
            fleet.leases_held,
            fleet.leases_stolen,
            fleet.leases_expired,
            fleet.leases_lost
        ));
        for (i, (tenant, sims)) in fleet.tenants_fleet.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"tenant\":");
            json::write_json_string(&mut out, tenant);
            out.push_str(&format!(",\"sims\":{sims}}}"));
        }
        out.push_str("]}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobOptions;

    fn spec(id: &str, tenant: &str) -> JobSpec {
        JobSpec {
            id: id.into(),
            tenant: tenant.into(),
            deck: "vdd vdd 0 3.3".into(),
            options: JobOptions::default(),
        }
    }

    fn outcome() -> JobOutcome {
        JobOutcome {
            design: vec![1.0],
            estimated_yield: 0.9,
            verified_yield: None,
            yield_interval: None,
            estimator: "mc".into(),
            ess: None,
            total_sims: 10,
            adjoint_solves: 4,
            fd_sims_avoided: 12,
            resumed: false,
            cache_hits: 3,
            cache_misses: 1,
        }
    }

    #[test]
    fn jobs_flow_queued_running_done_and_wake_waiters() {
        let state = Arc::new(ServeState::new(u64::MAX));
        state.enqueue(spec("job-0001", "a"));
        let (claimed, budget) = state.claim().unwrap();
        assert_eq!(claimed.id, "job-0001");
        assert_eq!(state.entry("job-0001").unwrap().state, JobState::Running);
        assert_eq!(budget.budget(), u64::MAX);

        let waiter = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || state.wait_settled("job-0001").unwrap())
        };
        state.finish("job-0001", Ok(outcome()));
        let entry = waiter.join().unwrap();
        assert_eq!(entry.state, JobState::Done);
        assert_eq!(entry.outcome.unwrap().total_sims, 10);
        let m = state.metrics();
        assert_eq!((m.jobs_done, m.cache_hits, m.cache_misses), (1, 3, 1));
        assert_eq!(m.cache_hit_rate(), Some(0.75));
    }

    #[test]
    fn tenants_share_one_budget_and_ids_respect_recovery() {
        let state = ServeState::new(100);
        state.enqueue(spec("job-0001", "acme"));
        state.enqueue(spec("job-0002", "acme"));
        state.enqueue(spec("job-0003", "other"));
        let (_, b1) = state.claim().unwrap();
        let (_, b2) = state.claim().unwrap();
        let (_, b3) = state.claim().unwrap();
        assert!(Arc::ptr_eq(&b1, &b2), "same tenant ⇒ same budget");
        assert!(!Arc::ptr_eq(&b1, &b3), "different tenant ⇒ own budget");
        assert_eq!(b1.budget(), 100);

        state.reserve_ids_through(7);
        assert_eq!(state.next_id(), "job-0008");
    }

    #[test]
    fn unknown_jobs_and_shutdown_are_clean() {
        let state = ServeState::new(u64::MAX);
        assert_eq!(state.entry("job-9999").unwrap_err().kind, "unknown-job");
        assert_eq!(
            state.wait_settled("job-9999").unwrap_err().kind,
            "unknown-job"
        );
        state.shutdown();
        assert!(state.claim().is_none(), "shutdown unblocks the pool");
        assert!(state.is_shutdown());
    }

    #[test]
    fn status_line_is_valid_json_with_tenant_rows() {
        let state = ServeState::new(50);
        state.enqueue(spec("job-0001", "acme"));
        let (_, budget) = state.claim().unwrap();
        let _ = budget;
        state.finish("job-0001", Err("deck rejected: bad".into()));
        let j = json::parse(&state.status_line(&FleetStatus::default())).unwrap();
        let jobs = j.get("jobs").and_then(|x| x.as_arr()).unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(
            jobs[0].get("estimator").and_then(|x| x.as_str()),
            Some("mc")
        );
        let metrics = j.get("metrics").unwrap();
        assert_eq!(metrics.get("jobs_failed").and_then(|x| x.as_u64()), Some(1));
        let tenants = metrics.get("tenants").and_then(|x| x.as_arr()).unwrap();
        assert_eq!(
            tenants[0].get("tenant").and_then(|x| x.as_str()),
            Some("acme")
        );
        assert_eq!(tenants[0].get("budget").and_then(|x| x.as_u64()), Some(50));
    }

    #[test]
    fn status_line_reports_ess_of_settled_is_jobs() {
        let state = ServeState::new(u64::MAX);
        let mut is_spec = spec("job-0001", "acme");
        is_spec.options.estimator = specwise::EstimatorKind::NormMin;
        state.enqueue(is_spec);
        let _ = state.claim().unwrap();
        state.finish(
            "job-0001",
            Ok(JobOutcome {
                estimator: "norm-min".into(),
                ess: Some(44.5),
                ..outcome()
            }),
        );
        let j = json::parse(&state.status_line(&FleetStatus::default())).unwrap();
        let jobs = j.get("jobs").and_then(|x| x.as_arr()).unwrap();
        assert_eq!(
            jobs[0].get("estimator").and_then(|x| x.as_str()),
            Some("norm-min")
        );
        assert_eq!(jobs[0].get("ess").and_then(|x| x.as_f64()), Some(44.5));
    }

    #[test]
    fn remote_jobs_settle_without_polluting_local_counters() {
        let state = Arc::new(ServeState::new(u64::MAX));
        state.enqueue(spec("job-0001", "acme"));
        let _ = state.claim().unwrap();
        // The worker lost the lease race: the job is a peer's now.
        state.mark_remote("job-0001", "peer-1".into());
        assert_eq!(state.entry("job-0001").unwrap().state, JobState::Remote);
        assert_eq!(state.remote_jobs(), vec!["job-0001".to_string()]);

        let waiter = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || state.wait_settled("job-0001").unwrap())
        };
        state.settle_remote("job-0001", Ok(outcome()));
        let entry = waiter.join().unwrap();
        assert_eq!(entry.state, JobState::Done);
        assert_eq!(entry.holder.as_deref(), Some("peer-1"));
        let m = state.metrics();
        assert_eq!(m.jobs_remote, 1);
        assert_eq!(m.jobs_done, 0, "the peer's work is not local work");
        assert_eq!(m.total_sims, 0);
    }

    #[test]
    fn expired_remote_jobs_requeue_for_a_local_steal() {
        let state = ServeState::new(u64::MAX);
        state.enqueue(spec("job-0001", "acme"));
        let _ = state.claim().unwrap();
        state.mark_remote("job-0001", "peer-1".into());
        state.requeue("job-0001");
        let entry = state.entry("job-0001").unwrap();
        assert_eq!(entry.state, JobState::Queued);
        assert_eq!(entry.holder, None);
        // And it is actually claimable again.
        let (claimed, _) = state.claim().unwrap();
        assert_eq!(claimed.id, "job-0001");
        // requeue on a non-Remote job is a no-op.
        state.requeue("job-0001");
        assert_eq!(state.entry("job-0001").unwrap().state, JobState::Running);
    }

    #[test]
    fn a_submission_the_spool_scan_adopted_first_is_listed_once() {
        // The submit path spools `<id>.req` before it enqueues, so a
        // concurrent spool scan can adopt the job in between. The job
        // must still be listed, queued and counted once.
        let state = ServeState::new(u64::MAX);
        assert!(state.enqueue(spec("job-0001", "a")));
        assert!(!state.enqueue(spec("job-0001", "a")));
        let j = json::parse(&state.status_line(&FleetStatus::default())).unwrap();
        let jobs = j.get("jobs").and_then(|x| x.as_arr()).unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(state.metrics().jobs_submitted, 1);
        let (claimed, _) = state.claim().unwrap();
        assert_eq!(claimed.id, "job-0001");
        assert_eq!(state.inner.lock().unwrap().queue.len(), 0, "queued twice");
    }

    #[test]
    fn adoption_skips_known_ids_and_failures_persist() {
        let state = ServeState::new(u64::MAX);
        assert!(state.enqueue(spec("job-0001", "a")));
        assert!(!state.enqueue(spec("job-0001", "a")), "already known");
        assert!(state.known("job-0001"));
        state.insert_settled(spec("job-0002", "a"), Err("diverged".into()));
        let entry = state.entry("job-0002").unwrap();
        assert_eq!(entry.state, JobState::Failed);
        assert_eq!(entry.error.as_deref(), Some("diverged"));
        assert_eq!(state.metrics().jobs_failed, 1);
    }

    #[test]
    fn status_line_renders_fleet_and_holder_fields() {
        let state = ServeState::new(50);
        state.enqueue(spec("job-0001", "acme"));
        let (_, budget) = state.claim().unwrap();
        state.set_holder("job-0001", "d-1".into());
        budget.set_external(7);
        let fleet = FleetStatus {
            owner: "d-1".into(),
            daemons_live: 2,
            leases_held: 1,
            leases_stolen: 3,
            leases_expired: 4,
            leases_lost: 0,
            tenants_fleet: vec![("acme".into(), 7)],
        };
        let j = json::parse(&state.status_line(&fleet)).unwrap();
        let jobs = j.get("jobs").and_then(|x| x.as_arr()).unwrap();
        assert_eq!(jobs[0].get("holder").and_then(|x| x.as_str()), Some("d-1"));
        let tenants = j
            .get("metrics")
            .and_then(|m| m.get("tenants"))
            .and_then(|x| x.as_arr())
            .unwrap();
        assert_eq!(
            tenants[0].get("sims_fleet").and_then(|x| x.as_u64()),
            Some(7)
        );
        let f = j.get("fleet").unwrap();
        assert_eq!(f.get("owner").and_then(|x| x.as_str()), Some("d-1"));
        assert_eq!(f.get("daemons_live").and_then(|x| x.as_u64()), Some(2));
        assert_eq!(f.get("leases_stolen").and_then(|x| x.as_u64()), Some(3));
        let ft = f.get("tenants").and_then(|x| x.as_arr()).unwrap();
        assert_eq!(ft[0].get("sims").and_then(|x| x.as_u64()), Some(7));
    }
}

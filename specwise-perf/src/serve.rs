//! The `serve-mixed` workload: an in-process daemon on a fresh spool,
//! driven over its TCP wire protocol by closed-loop clients submitting a
//! seeded mix of the three bundled decks.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use specwise::{Journal, OptimizationTrace, Tracer, YieldOptimizer};
use specwise_ckt::{DeckLimits, FiveTransistorOta, FoldedCascode, MillerOpamp, Testbench};
use specwise_exec::{EvalService, ExecReport};
use specwise_mna::symbolic_cache_len;
use specwise_serve::{Client, Daemon, JobOutcome, JobRequest, ServeConfig, SubmitOptions};
use specwise_trace::json::Json;
use specwise_trace::Record;

use crate::attrib::{self, Values};
use crate::fig6::exec_config;
use crate::layers::{CktCounts, CountingEnv};
use crate::metrics::{design_hash, mean, median, Report};
use crate::Opts;

/// Concurrent job slots of the daemon; its two evaluation workers are
/// divided among them, so each job runs on one worker.
const SLOTS: usize = 2;
/// Closed-loop clients of the timed loop, each with one job in flight.
const CLIENTS: usize = 2;
/// Timed jobs whose simulation counts and yields make up `sims_per_run`
/// and `yield_final` (twelve blocks of the three decks; a job's verified
/// yield rests on only 150 samples, so it takes many to average out).
const PREFIX_JOBS: usize = 36;
/// Jobs of the setup (one per deck) and of the traced pass.
const WARMUP_JOBS: usize = 3;
const TRACED_JOBS: usize = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Deck {
    Ota,
    Miller,
    Folded,
}

impl Deck {
    fn text(self) -> &'static str {
        match self {
            Deck::Ota => FiveTransistorOta::deck(),
            Deck::Miller => MillerOpamp::deck(),
            Deck::Folded => FoldedCascode::deck(),
        }
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Job `i` of the plan at `seed`: its deck and optimizer seed `seed + i`.
/// Every block of three consecutive jobs holds each deck once, in an
/// order drawn from the seed, so any run of whole blocks has the same mix.
fn plan(seed: u64, i: usize) -> (Deck, u64) {
    let mut decks = [Deck::Ota, Deck::Miller, Deck::Folded];
    let mut x = splitmix(seed ^ splitmix((i / 3) as u64));
    for j in (1..decks.len()).rev() {
        decks.swap(j, (x % (j as u64 + 1)) as usize);
        x = splitmix(x);
    }
    (decks[i % 3], seed + i as u64)
}

fn submit_options(seed: u64) -> SubmitOptions {
    SubmitOptions {
        tenant: "bench".into(),
        seed: Some(seed),
        mc_samples: Some(2000),
        verify_samples: Some(150),
        max_iterations: Some(1),
        estimator: Some("mc".into()),
    }
}

/// The request the daemon builds from [`submit_options`], for the
/// in-process replay.
fn job_request(deck: Deck, seed: u64) -> JobRequest {
    let opts = submit_options(seed);
    let mut request = JobRequest::new(deck.text().to_owned(), opts.tenant);
    request.seed = opts.seed;
    request.mc_samples = opts.mc_samples;
    request.verify_samples = opts.verify_samples;
    request.max_iterations = opts.max_iterations;
    request.estimator = opts.estimator;
    request
}

fn serve_config(spool: &Path) -> ServeConfig {
    let mut cfg = ServeConfig::default();
    cfg.addr = "127.0.0.1:0".into();
    cfg.spool = spool.to_path_buf();
    cfg.owner = format!("specwise-perf-{}", std::process::id());
    cfg.lease_expiry = Duration::from_secs(30);
    cfg.heartbeat = Duration::from_secs(3);
    cfg.slots = SLOTS;
    cfg.tenant_budget = u64::MAX;
    cfg.max_line_bytes = 4 << 20;
    cfg.deck_limits = DeckLimits::default();
    cfg.warm_start = false;
    cfg.exec = exec_config();
    cfg
}

/// One served job as a client saw it.
#[derive(Debug)]
struct Job {
    index: usize,
    latency_s: f64,
    outcome: Result<JobOutcome, String>,
    /// The job's journal, fetched with `subscribe` in the traced pass.
    records: Vec<Record>,
}

/// Submits and awaits job `i`; with a tracer, wraps the calls in
/// `bench.submit` / `bench.result_wait` spans and fetches the journal.
fn one_job(client: &mut Client, seed: u64, i: usize, tracer: &Tracer) -> Job {
    let (deck, job_seed) = plan(seed, i);
    let t0 = Instant::now();
    let submitted = {
        let _span = tracer.span("bench.submit");
        client.submit(deck.text(), &submit_options(job_seed))
    };
    let outcome = submitted.and_then(|id| {
        let _span = tracer.span("bench.result_wait");
        client.result_wait(&id).map(|o| (id, o))
    });
    let latency_s = t0.elapsed().as_secs_f64();
    let (outcome, records) = match outcome {
        Ok((id, o)) if tracer.is_enabled() => match client.subscribe(&id) {
            Ok((records, _)) => (Ok(o), records),
            Err(e) => (Err(format!("subscribe: {e}")), Vec::new()),
        },
        Ok((_, o)) => (Ok(o), Vec::new()),
        Err(e) => (Err(e.to_string()), Vec::new()),
    };
    Job {
        index: i,
        latency_s,
        outcome,
        records,
    }
}

/// Closed loop: each of `clients` claims the next job index while
/// `more(i)` holds, submits it, and waits for its result. Jobs come back in
/// index order.
fn drive(
    addr: SocketAddr,
    seed: u64,
    clients: usize,
    more: impl Fn(usize) -> bool + Sync,
    tracer: &Tracer,
) -> Vec<Job> {
    let next = AtomicUsize::new(0);
    let jobs = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut client = Client::connect(addr);
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if !more(i) {
                        break;
                    }
                    let c = match &mut client {
                        Ok(c) => c,
                        Err(e) => {
                            let job = Job {
                                index: i,
                                latency_s: 0.0,
                                outcome: Err(format!("connect: {e}")),
                                records: Vec::new(),
                            };
                            jobs.lock().expect("job list").push(job);
                            break;
                        }
                    };
                    let job = one_job(c, seed, i, tracer);
                    // A broken connection ends this client; a failed job
                    // does not.
                    let broken = matches!(&job.outcome, Err(e) if !e.starts_with("server error"));
                    jobs.lock().expect("job list").push(job);
                    if broken {
                        break;
                    }
                }
            });
        }
    });
    let mut jobs = jobs.into_inner().expect("job list");
    jobs.sort_by_key(|j| j.index);
    jobs
}

/// What must repeat exactly between runs of one job.
fn fingerprint(o: &JobOutcome) -> (u64, u64) {
    (o.total_sims, design_hash(&o.design))
}

/// Every job must settle with a verified yield in `[0, 1]`.
fn check(o: &JobOutcome) -> Result<(), String> {
    match o.verified_yield {
        Some(y) if (0.0..=1.0).contains(&y) => Ok(()),
        other => Err(format!("verified yield {other:?} outside [0, 1]")),
    }
}

/// A running daemon on its own spool.
struct Served {
    daemon: Daemon,
    spool: PathBuf,
}

impl Served {
    fn start(spool: PathBuf) -> Result<Served, String> {
        let _ = std::fs::remove_dir_all(&spool);
        let daemon = Daemon::start(serve_config(&spool)).map_err(|e| format!("daemon: {e}"))?;
        Ok(Served { daemon, spool })
    }

    fn addr(&self) -> SocketAddr {
        self.daemon.local_addr()
    }

    fn stop(self) {
        self.daemon.shutdown();
        let _ = std::fs::remove_dir_all(&self.spool);
    }
}

/// Setup: start the daemon and run one job per deck (the first block of
/// the plan), so the process-global solver caches are filled. One client
/// runs them one after another, so the setup time does not depend on the
/// seeded deck order.
fn setup(spool: PathBuf, seed: u64) -> Result<(Served, Vec<Job>), String> {
    let served = Served::start(spool)?;
    let jobs = drive(
        served.addr(),
        seed,
        1,
        |i| i < WARMUP_JOBS,
        &Tracer::disabled(),
    );
    for job in &jobs {
        if let Err(e) = job.outcome.as_ref().map_err(String::clone).and_then(check) {
            served.stop();
            return Err(format!("warm-up job {}: {e}", job.index));
        }
    }
    Ok((served, jobs))
}

fn spool_dir(opts: &Opts) -> PathBuf {
    opts.out.join(format!("spool-{}", std::process::id()))
}

/// Setup only; returns its seconds.
///
/// # Errors
///
/// The daemon did not start or a warm-up job failed.
pub fn setup_only(opts: &Opts) -> Result<f64, String> {
    let t0 = Instant::now();
    let (served, _) = setup(spool_dir(opts), opts.seed)?;
    let secs = t0.elapsed().as_secs_f64();
    served.stop();
    Ok(secs)
}

/// Runs the workload; fills `r` and returns the setup seconds.
pub fn bench(opts: &Opts, r: &mut Report) -> Option<f64> {
    let t0 = Instant::now();
    let setup = setup(spool_dir(opts), opts.seed);
    let setup_s = t0.elapsed().as_secs_f64();
    let symbolic_after_setup = symbolic_cache_len();
    let (served, warm) = match setup {
        Ok(x) => x,
        Err(e) => {
            r.problem(format!("setup: {e}"));
            return None;
        }
    };

    let start = Instant::now();
    let jobs = drive(
        served.addr(),
        opts.seed,
        CLIENTS,
        |i| i < PREFIX_JOBS || start.elapsed() < opts.seconds,
        &Tracer::disabled(),
    );
    let wall = start.elapsed().as_secs_f64();
    r.attempted += jobs.len() as u64;
    let mut latencies = Vec::new();
    for job in &jobs {
        match &job.outcome {
            Ok(o) => match check(o) {
                Ok(()) => latencies.push(job.latency_s),
                Err(e) => r.problem(format!("job {}: {e}", job.index)),
            },
            Err(e) => {
                r.failed += 1;
                eprintln!("job {} failed: {e}", job.index);
            }
        }
    }
    for (w, j) in warm.iter().zip(&jobs) {
        if let (Ok(a), Ok(b)) = (&w.outcome, &j.outcome) {
            if fingerprint(a) != fingerprint(b) {
                r.problem(format!("job {} is not deterministic", j.index));
            }
        }
    }
    let prefix: Vec<&JobOutcome> = jobs
        .iter()
        .take(PREFIX_JOBS)
        .filter_map(|j| j.outcome.as_ref().ok())
        .collect();
    crate::set_latency(r, &latencies);
    r.set(
        "jobs_per_min",
        60.0 * latencies.len() as f64 / wall,
        jobs.len(),
    );
    r.set(
        "sims_per_run",
        mean(
            &prefix
                .iter()
                .map(|o| o.total_sims as f64)
                .collect::<Vec<_>>(),
        ),
        prefix.len(),
    );
    r.set(
        "yield_final",
        mean(
            &prefix
                .iter()
                .map(|o| o.verified_yield.unwrap_or(0.0))
                .collect::<Vec<_>>(),
        ),
        prefix.len(),
    );
    r.set(
        "ok_frac",
        latencies.len() as f64 / jobs.len().max(1) as f64,
        jobs.len(),
    );

    if opts.layers {
        r.set("mna.symbolic_cache_entries", symbolic_cache_len() as f64, 1);
        r.set(
            "mna.symbolic_cache_growth",
            symbolic_cache_len() as f64 - symbolic_after_setup as f64,
            1,
        );
        traced_pass(&served, opts, &jobs, r);
    }
    served.stop();
    Some(setup_s)
}

/// The traced pass: re-submits the first jobs of the plan with bench spans
/// around the client calls, fetches each job's journal, replays each job
/// in-process through the counting wrapper, and checks that both
/// reproduce the untraced job bit for bit.
fn traced_pass(served: &Served, opts: &Opts, untraced: &[Job], r: &mut Report) {
    let journal = Arc::new(Journal::in_memory());
    let tracer = Tracer::new(Arc::clone(&journal));
    let jobs = drive(
        served.addr(),
        opts.seed,
        CLIENTS,
        |i| i < TRACED_JOBS,
        &tracer,
    );
    r.attempted += jobs.len() as u64;

    let mut per_job: Vec<Values> = Vec::new();
    let mut overhead = Vec::new();
    for (job, plain) in jobs.iter().zip(untraced) {
        let o = match &job.outcome {
            Ok(o) => o,
            Err(e) => {
                r.failed += 1;
                eprintln!("traced job {} failed: {e}", job.index);
                continue;
            }
        };
        if let Ok(p) = &plain.outcome {
            if fingerprint(o) != fingerprint(p) {
                r.problem(format!("traced job {} differs from untraced", job.index));
            }
        }
        let mut values = match attrib::span_values(&job.records) {
            Ok(v) => v,
            Err(e) => {
                r.problem(format!("traced job {}: {e}", job.index));
                continue;
            }
        };
        let spans = attrib::spans(&job.records);
        let run = attrib::run_span(&spans).expect("span_values found the run span");
        let compute_ms = run.duration_us() as f64 / 1e3;
        values.push(("serve.queue_ms_p50".into(), run.start_us as f64 / 1e3));
        values.push(("serve.compute_ms_p50".into(), compute_ms));
        values.push((
            "serve.overhead_ms_p50".into(),
            job.latency_s * 1e3 - compute_ms,
        ));
        values.push((
            "serve.journal_records_per_job".into(),
            job.records.len() as f64,
        ));
        match replay(opts.seed, job.index) {
            Ok((trace, report, counts)) => {
                let replayed = (
                    trace.total_sims,
                    design_hash(trace.final_design().as_slice()),
                );
                if replayed != fingerprint(o) {
                    r.problem(format!(
                        "in-process replay of job {} differs from the served job",
                        job.index
                    ));
                }
                values.extend(attrib::engine_values(&trace, &report, &counts, 1, 0));
            }
            Err(e) => r.problem(format!("replay of job {}: {e}", job.index)),
        }
        if job.index == 0 {
            let text: String = job.records.iter().map(|rec| rec.to_json() + "\n").collect();
            crate::save_journal(opts, &text);
        }
        overhead.push(job.latency_s / plain.latency_s - 1.0);
        per_job.push(values);
    }
    crate::set_medians(r, &per_job);
    r.set("trace.overhead_frac", median(&overhead), overhead.len());

    let submits: Vec<f64> = attrib::spans(&journal.records())
        .iter()
        .filter(|s| s.name == "bench.submit")
        .map(|s| s.duration_us() as f64 / 1e3)
        .collect();
    r.set("serve.submit_ms_p50", median(&submits), submits.len());
    let submitted = (WARMUP_JOBS + untraced.len() + jobs.len()) as f64;
    r.set(
        "serve.spool_bytes_per_job",
        dir_bytes(&served.spool) as f64 / submitted,
        submitted as usize,
    );
    match Client::connect(served.addr()).and_then(|mut c| c.status()) {
        Ok(status) => {
            let rate = status
                .get("metrics")
                .and_then(|m| m.get("cache_hit_rate"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            r.set("serve.cache_hit_rate", rate, 1);
        }
        Err(e) => r.problem(format!("status: {e}")),
    }
}

/// Runs job `i` of the plan in-process the way the daemon does (same
/// deck compiler, options, warm-start setting and per-job worker share),
/// with the counting wrapper under the evaluation service.
fn replay(seed: u64, i: usize) -> Result<(OptimizationTrace, ExecReport, CktCounts), String> {
    let (deck, job_seed) = plan(seed, i);
    let options = job_request(deck, job_seed).resolve()?;
    let tb = Testbench::from_deck_limited(deck.text(), &DeckLimits::default())
        .map_err(|e| e.to_string())?
        .with_warm_start(false);
    let counting = CountingEnv::new(&tb);
    let svc = EvalService::new(&counting, exec_config().into_shard(SLOTS));
    let trace = YieldOptimizer::new(options.optimizer_config())
        .run(&svc)
        .map_err(|e| e.to_string())?;
    let report = trace.exec.clone().unwrap_or_else(|| svc.report());
    Ok((trace, report, counting.counts()))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_of_the_plan_holds_each_deck_once() {
        for seed in [2001, 2002, 7] {
            for block in 0..20 {
                let decks: Vec<Deck> = (0..3).map(|k| plan(seed, 3 * block + k).0).collect();
                for deck in [Deck::Ota, Deck::Miller, Deck::Folded] {
                    assert!(
                        decks.contains(&deck),
                        "seed {seed} block {block}: {decks:?}"
                    );
                }
            }
            assert_eq!(plan(seed, 5).1, seed + 5);
        }
        let orders: std::collections::HashSet<Vec<u64>> = (0..30)
            .map(|b| (0..3).map(|k| plan(2001, 3 * b + k).0 as u64).collect())
            .collect();
        assert!(orders.len() > 1, "the seed must shuffle the decks");
    }
}

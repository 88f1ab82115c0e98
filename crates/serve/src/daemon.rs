//! The daemon: a TCP accept loop (thread per connection) over a shared
//! job scheduler drained by a sharded worker pool.
//!
//! Life of a job: a client submits an annotated deck; the handler
//! compiles it through the hardened limited parser *before* accepting
//! (malformed and oversized decks bounce with a structured error and the
//! daemon keeps serving), persists the spec to the spool as `<id>.req`,
//! and queues it. A worker slot claims the job, takes its spool lease
//! (see [`crate::lease`]), runs the full Fig. 6 flow under the tenant's
//! shared simulation budget, checkpoints into the spool after every
//! iteration, and mirrors its run journal into the spool. The
//! settled outcome lands in `<id>.out` (atomically, tmp + rename);
//! failures persist as `<id>.fail` so no daemon re-runs a
//! deterministically failing job. On restart the daemon rescans the
//! spool: specs with an outcome are served from it, specs without one
//! re-enter the queue and — thanks to their checkpoints — resume
//! bit-for-bit.
//!
//! # Fleet mode
//!
//! Any number of daemons may share one spool directory. The lease file
//! (`<id>.lease`) arbitrates who runs each job; a fleet loop per daemon
//! heartbeats held leases and its own liveness file, reconciles the
//! per-tenant budget ledger (see [`crate::ledger`]), adopts jobs that
//! peers spooled, and settles or re-queues jobs whose holder finished or
//! died. A job a peer holds reports as `"remote"` in `status`.
//! `subscribe` works on every daemon for every job the same way: it
//! tails the `<id>.journal` mirror the running daemon writes into the
//! spool.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use specwise::{Checkpoint, Tracer};
use specwise_ckt::env_knob::{parse_env_knob, warn_retired_knobs, Secs, Switch};
use specwise_ckt::{DeckLimits, Testbench};
use specwise_exec::ExecConfig;
use specwise_trace::{json, Journal};

use crate::job::{run_job, JobOutcome, JobRequest, JobSpec};
use crate::lease::{self, create_exclusive, unique_suffix, Acquire, Lease};
use crate::ledger::TenantLedger;
use crate::protocol::{end_marker, read_line_bounded, write_line, LineRead, Request, WireError};
use crate::state::{FleetStatus, ServeState};

/// Daemon configuration. Every field has a `SPECWISE_SERVE_*`
/// environment knob read by [`ServeConfig::from_env`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`SPECWISE_SERVE_ADDR`). Port `0` picks a free
    /// port; [`Daemon::local_addr`] reports the bound one.
    pub addr: String,
    /// Spool directory for `.req`/`.ckpt`/`.out`/`.fail`/`.lease`/
    /// `.journal` job files (`SPECWISE_SERVE_SPOOL`). Daemons sharing a
    /// spool form a fleet.
    pub spool: PathBuf,
    /// This daemon's fleet identity (`SPECWISE_SERVE_OWNER`): stamped
    /// into leases, checkpoints, and the budget ledger. The default is
    /// unique per daemon instance (pid plus an in-process counter);
    /// set it explicitly for stable names in operations tooling.
    pub owner: String,
    /// Lease expiry window (`SPECWISE_SERVE_LEASE_EXPIRY`, seconds): a
    /// lease not heartbeated for this long counts as dead and may be
    /// stolen. Must be much larger than [`ServeConfig::heartbeat`].
    pub lease_expiry: Duration,
    /// Lease/liveness heartbeat and fleet-tick interval
    /// (`SPECWISE_SERVE_HEARTBEAT`, seconds).
    pub heartbeat: Duration,
    /// Concurrent job slots; the evaluation worker pool is divided
    /// across them (`SPECWISE_SERVE_SLOTS`).
    pub slots: usize,
    /// Per-tenant simulation budget in evaluation calls
    /// (`SPECWISE_SERVE_TENANT_BUDGET`; `0` means unlimited). Enforced
    /// fleet-wide through the spool ledger.
    pub tenant_budget: u64,
    /// Maximum request line length in bytes (`SPECWISE_SERVE_MAX_LINE`).
    pub max_line_bytes: usize,
    /// Deck ingestion limits; `SPECWISE_SERVE_MAX_DECK` overrides the
    /// byte cap.
    pub deck_limits: DeckLimits,
    /// Enable the warm-start cache (`SPECWISE_SERVE_WARM_START`:
    /// `1`/`on`/`true` or `0`/`off`/`false`; anything else warns and keeps
    /// the default).
    /// Off by default: checkpoints restore optimizer state, not solver
    /// caches, and bit-for-bit resume after a restart requires cold
    /// starts.
    pub warm_start: bool,
    /// Evaluation-engine base configuration (shared `SPECWISE_WORKERS`
    /// etc. knobs), sharded [`ServeConfig::slots`] ways per job.
    pub exec: ExecConfig,
}

fn default_owner() -> String {
    format!("d{}", unique_suffix())
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7601".into(),
            spool: std::env::temp_dir().join("specwise-spool"),
            owner: default_owner(),
            lease_expiry: Duration::from_secs(30),
            heartbeat: Duration::from_secs(3),
            slots: 2,
            tenant_budget: u64::MAX,
            max_line_bytes: 4 << 20,
            deck_limits: DeckLimits::default(),
            warm_start: false,
            exec: ExecConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Reads the configuration from the environment, starting from the
    /// defaults. Set-but-malformed values keep their default after a
    /// one-line stderr warning naming the variable; a duration that is
    /// negative, non-finite or too long for [`Duration`] is malformed. The
    /// daemon no longer reads `SPECWISE_ESTIMATOR` (each job names its own
    /// estimator), so a set value prints a one-line notice.
    pub fn from_env() -> ServeConfig {
        warn_retired_knobs(&[(
            "SPECWISE_ESTIMATOR",
            "set each job's `estimator` field (default mc)",
        )]);
        let mut cfg = ServeConfig::default();
        if let Some(addr) = std::env::var("SPECWISE_SERVE_ADDR")
            .ok()
            .filter(|s| !s.trim().is_empty())
        {
            cfg.addr = addr.trim().to_owned();
        }
        if let Some(spool) = std::env::var("SPECWISE_SERVE_SPOOL")
            .ok()
            .filter(|s| !s.trim().is_empty())
        {
            cfg.spool = PathBuf::from(spool.trim());
        }
        if let Some(owner) = std::env::var("SPECWISE_SERVE_OWNER")
            .ok()
            .filter(|s| !s.trim().is_empty())
        {
            cfg.owner = owner.trim().to_owned();
        }
        if let Some(Secs(expiry)) = parse_env_knob("SPECWISE_SERVE_LEASE_EXPIRY") {
            cfg.lease_expiry = expiry.max(Duration::from_millis(50));
        }
        if let Some(Secs(heartbeat)) = parse_env_knob("SPECWISE_SERVE_HEARTBEAT") {
            cfg.heartbeat = heartbeat.max(Duration::from_millis(10));
        }
        if let Some(n) = parse_env_knob::<usize>("SPECWISE_SERVE_SLOTS") {
            cfg.slots = n.max(1);
        }
        if let Some(n) = parse_env_knob::<u64>("SPECWISE_SERVE_TENANT_BUDGET") {
            cfg.tenant_budget = if n == 0 { u64::MAX } else { n };
        }
        if let Some(n) = parse_env_knob::<usize>("SPECWISE_SERVE_MAX_LINE") {
            cfg.max_line_bytes = n.max(1024);
        }
        if let Some(n) = parse_env_knob::<usize>("SPECWISE_SERVE_MAX_DECK") {
            cfg.deck_limits.max_bytes = n;
        }
        if let Some(Switch(on)) = parse_env_knob("SPECWISE_SERVE_WARM_START") {
            cfg.warm_start = on;
        }
        cfg.exec = ExecConfig::from_env();
        cfg
    }

    /// The spool path of a job's checkpoint.
    pub fn checkpoint_path(&self, id: &str) -> PathBuf {
        self.spool.join(format!("{id}.ckpt"))
    }

    /// The spool path of a job's accepted spec.
    pub fn req_path(&self, id: &str) -> PathBuf {
        self.spool.join(format!("{id}.req"))
    }

    /// The spool path of a job's settled outcome.
    pub fn out_path(&self, id: &str) -> PathBuf {
        self.spool.join(format!("{id}.out"))
    }

    /// The spool path of a job's persisted failure reason. Its presence
    /// stops every daemon from re-running a deterministically failing
    /// job after restarts or lease takeovers.
    pub fn fail_path(&self, id: &str) -> PathBuf {
        self.spool.join(format!("{id}.fail"))
    }

    /// The spool path of a job's mirrored run journal, written by the
    /// lease holder so peer daemons can serve `subscribe` for it.
    pub fn journal_path(&self, id: &str) -> PathBuf {
        self.spool.join(format!("{id}.journal"))
    }
}

/// Atomic file write: unique temp file in the same directory, then
/// rename (unique so two daemons writing the same target — an idempotent
/// re-run after a lease steal — never interleave in one temp file).
fn write_atomic(path: &std::path::Path, contents: &str) -> io::Result<()> {
    let tmp = path.with_extension(format!("tmp-{}", unique_suffix()));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Fleet bookkeeping shared by the workers, the fleet loop, and the
/// `status` handler: the held-lease registry, steal/loss counters, and
/// the durable tenant ledger.
#[derive(Debug)]
struct FleetShared {
    /// Job id → the lease the local worker currently holds for it.
    leases: Mutex<HashMap<String, Arc<Lease>>>,
    /// Leases taken over from expired holders since daemon start.
    stolen: AtomicU64,
    /// Expired peer leases observed (and re-queued) since daemon start.
    expired: AtomicU64,
    /// Own leases lost to a thief while running, since daemon start.
    lost: AtomicU64,
    ledger: TenantLedger,
}

/// A running daemon. Dropping the handle does **not** stop it; call
/// [`Daemon::shutdown`] (tests) or [`Daemon::join`] (the binary).
#[derive(Debug)]
pub struct Daemon {
    state: Arc<ServeState>,
    cfg: Arc<ServeConfig>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    fleet_thread: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts the daemon: creates the spool, recovers spooled jobs from
    /// a previous process, binds the listener, and spawns the accept
    /// loop, `cfg.slots` worker threads, and the fleet loop.
    ///
    /// # Errors
    ///
    /// Propagates spool-creation and socket-bind failures.
    pub fn start(cfg: ServeConfig) -> io::Result<Daemon> {
        std::fs::create_dir_all(&cfg.spool)?;
        let state = Arc::new(ServeState::new(cfg.tenant_budget));
        let cfg = Arc::new(cfg);
        let fleet = Arc::new(FleetShared {
            leases: Mutex::new(HashMap::new()),
            stolen: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            lost: AtomicU64::new(0),
            ledger: TenantLedger::open(&cfg.spool, &cfg.owner)?,
        });
        scan_spool(&cfg, &state, &mut HashSet::new());
        let _ = lease::touch_alive(&cfg.spool, &cfg.owner);

        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;

        let workers = (0..cfg.slots)
            .map(|slot| {
                let state = Arc::clone(&state);
                let cfg = Arc::clone(&cfg);
                let fleet = Arc::clone(&fleet);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{slot}"))
                    .spawn(move || worker_loop(&state, &cfg, &fleet))
                    .expect("spawn worker thread")
            })
            .collect();

        let fleet_thread = {
            let state = Arc::clone(&state);
            let cfg = Arc::clone(&cfg);
            let fleet = Arc::clone(&fleet);
            std::thread::Builder::new()
                .name("serve-fleet".into())
                .spawn(move || fleet_loop(&state, &cfg, &fleet))
                .expect("spawn fleet thread")
        };

        let accept = {
            let state = Arc::clone(&state);
            let cfg = Arc::clone(&cfg);
            let fleet = Arc::clone(&fleet);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if state.is_shutdown() {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let state = Arc::clone(&state);
                        let cfg = Arc::clone(&cfg);
                        let fleet = Arc::clone(&fleet);
                        // Handler threads are detached: they end at peer
                        // EOF, and at shutdown they die with the process
                        // (tests) or the failing socket.
                        let _ = std::thread::Builder::new().name("serve-conn".into()).spawn(
                            move || {
                                let _ = handle_connection(stream, &state, &cfg, &fleet);
                            },
                        );
                    }
                })
                .expect("spawn accept thread")
        };

        Ok(Daemon {
            state,
            cfg,
            local_addr,
            accept: Some(accept),
            workers,
            fleet_thread: Some(fleet_thread),
        })
    }

    /// The bound listen address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared scheduler state (used by in-process tests).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// The effective configuration (owner id, spool paths, knobs).
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Graceful stop: drains nothing — workers finish their current job
    /// and exit, queued jobs stay in the spool for the next start (or
    /// for a peer daemon to steal after the lease expiry).
    pub fn shutdown(mut self) {
        self.state.shutdown();
        // Unblock the accept loop with a no-op connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(fleet) = self.fleet_thread.take() {
            let _ = fleet.join();
        }
    }

    /// Blocks the caller until the accept loop exits (the binary's main
    /// thread parks here; the daemon runs until the process is killed).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Scans the spool for job specs this daemon does not know yet: settled
/// ones (`.out`/`.fail` present) are inserted as settled, the rest enter
/// the queue in job-id order (their checkpoints make a re-run resume,
/// not restart). Runs at startup (classic crash recovery) and on every
/// fleet tick (adopting jobs peers spooled). `warned` suppresses repeat
/// warnings about unreadable or corrupt entries across ticks.
fn scan_spool(cfg: &ServeConfig, state: &ServeState, warned: &mut HashSet<String>) {
    let Ok(entries) = std::fs::read_dir(&cfg.spool) else {
        return;
    };
    let mut ids: Vec<String> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            name.strip_suffix(".req").map(str::to_owned)
        })
        .filter(|id| !state.known(id))
        .collect();
    ids.sort();
    let mut max_seen = 0u64;
    for id in ids {
        let text = match std::fs::read_to_string(cfg.req_path(&id)) {
            Ok(text) => text,
            Err(e) => {
                if warned.insert(id.clone()) {
                    eprintln!("specwise-serve: skipping unreadable spool entry {id}: {e}");
                }
                continue;
            }
        };
        let spec = match JobSpec::from_json_str(&text) {
            Ok(spec) => spec,
            Err(e) => {
                if warned.insert(id.clone()) {
                    eprintln!("specwise-serve: skipping corrupt spool entry {id}: {e}");
                }
                continue;
            }
        };
        if let Some(n) = id.strip_prefix("job-").and_then(|s| s.parse::<u64>().ok()) {
            max_seen = max_seen.max(n);
        }
        match spooled_result(&id, cfg) {
            Some(result) => state.insert_settled(spec, result),
            None => {
                state.enqueue(spec);
            }
        }
    }
    state.reserve_ids_through(max_seen);
}

/// A client may ask any fleet member about any job, and an id this
/// daemon has not seen yet may still be in the shared spool (submitted
/// to a peer moments ago). One scan adopts it before answering, so
/// `result`/`subscribe` work fleet-wide without waiting a fleet tick.
fn ensure_known(job: &str, state: &ServeState, cfg: &ServeConfig) {
    if !state.known(job) {
        scan_spool(cfg, state, &mut HashSet::new());
    }
}

/// The settled result a job's spool files hold: a valid `.out` wins,
/// else the `.fail` reason, else `None` (the job has not settled). A
/// corrupt `.out` is skipped with a warning.
fn spooled_result(id: &str, cfg: &ServeConfig) -> Option<Result<JobOutcome, String>> {
    if let Ok(text) = std::fs::read_to_string(cfg.out_path(id)) {
        match JobOutcome::from_json_str(&text) {
            Ok(outcome) => return Some(Ok(outcome)),
            Err(e) => eprintln!("specwise-serve: ignoring corrupt outcome of {id}: {e}"),
        }
    }
    let reason = std::fs::read_to_string(cfg.fail_path(id)).ok()?;
    Some(Err(reason.trim_end().to_string()))
}

/// Settles a known job from the spool files a peer (or a previous
/// process) left. Returns `true` when settled.
fn settle_from_spool(id: &str, state: &ServeState, cfg: &ServeConfig) -> bool {
    let Some(result) = spooled_result(id, cfg) else {
        return false;
    };
    state.settle_remote(id, result);
    true
}

fn worker_loop(state: &ServeState, cfg: &ServeConfig, fleet: &FleetShared) {
    while let Some((spec, budget)) = state.claim() {
        // A peer may have settled the job while it sat in our queue.
        if settle_from_spool(&spec.id, state, cfg) {
            continue;
        }
        // The run's journal lives until the job settles; subscribers read
        // its spool mirror, which `run_job` attaches.
        let journal = Arc::new(Journal::in_memory());
        let held = match lease::acquire(&cfg.spool, &spec.id, &cfg.owner, cfg.lease_expiry) {
            Ok(Acquire::Acquired { lease, stolen }) => {
                if let Some(previous) = stolen {
                    fleet.stolen.fetch_add(1, Ordering::Relaxed);
                    let tracer = Tracer::new(Arc::clone(&journal));
                    let iteration = Checkpoint::peek(&cfg.checkpoint_path(&spec.id))
                        .map(|meta| meta.iteration as u64)
                        .unwrap_or(0);
                    tracer.event(
                        "lease-takeover",
                        &[
                            ("previous_owner", previous.owner.clone().into()),
                            ("epoch", lease.info().epoch.into()),
                            ("checkpoint_iteration", iteration.into()),
                        ],
                    );
                }
                Some(Arc::new(lease))
            }
            Ok(Acquire::HeldByPeer(info)) => {
                state.mark_remote(&spec.id, info.owner);
                continue;
            }
            Err(e) => {
                // Lease I/O failure must not kill the single-daemon
                // story; run leaseless (peers may duplicate the work,
                // which the deterministic flow makes harmless).
                eprintln!(
                    "specwise-serve: lease on {} failed ({e}); running leaseless",
                    spec.id
                );
                None
            }
        };
        // The previous holder writes `.out` before releasing its lease,
        // so a settled job can slip in between our settle check above
        // and the claim. Re-check while holding the lease: a `.out`
        // present now is final (nobody else can be running the job).
        if settle_from_spool(&spec.id, state, cfg) {
            if let Some(lease) = held {
                lease.release();
            }
            continue;
        }
        if let Some(lease) = &held {
            fleet
                .leases
                .lock()
                .unwrap()
                .insert(spec.id.clone(), Arc::clone(lease));
        }
        state.set_holder(&spec.id, cfg.owner.clone());
        let result = run_job(&spec, cfg, &budget, &journal);
        // Closes the mirror: every record is on disk before the job settles.
        drop(journal);
        // Publish this run's charges before the outcome: a peer must
        // never observe a finished job whose sims are not yet on the
        // ledger.
        fleet.ledger.reconcile(&spec.tenant, &budget);
        match &result {
            Ok(outcome) => {
                if let Err(e) = write_atomic(&cfg.out_path(&spec.id), &outcome.to_json()) {
                    eprintln!(
                        "specwise-serve: failed to spool outcome of {}: {e}",
                        spec.id
                    );
                }
            }
            Err(reason) => {
                if let Err(e) = write_atomic(&cfg.fail_path(&spec.id), reason) {
                    eprintln!(
                        "specwise-serve: failed to spool failure of {}: {e}",
                        spec.id
                    );
                }
            }
        }
        if let Some(lease) = held {
            fleet.leases.lock().unwrap().remove(&spec.id);
            if lease.is_lost() {
                fleet.lost.fetch_add(1, Ordering::Relaxed);
            }
            lease.release();
        }
        state.finish(&spec.id, result);
    }
}

/// The per-daemon fleet tick: heartbeats held leases and the liveness
/// file, reconciles tenant budgets against the spool ledger, settles or
/// re-queues jobs a peer holds, and adopts jobs peers spooled. Runs
/// every [`ServeConfig::heartbeat`] until shutdown.
fn fleet_loop(state: &ServeState, cfg: &ServeConfig, fleet: &FleetShared) {
    let mut warned = HashSet::new();
    loop {
        if let Err(e) = lease::touch_alive(&cfg.spool, &cfg.owner) {
            eprintln!("specwise-serve: liveness touch failed: {e}");
        }
        let held: Vec<Arc<Lease>> = fleet.leases.lock().unwrap().values().cloned().collect();
        for lease in held {
            match lease.heartbeat() {
                Ok(_) => {} // a lost lease is counted when the worker releases it
                Err(e) => eprintln!(
                    "specwise-serve: heartbeat on {} failed: {e}",
                    lease.info().job
                ),
            }
        }
        for (tenant, budget) in state.tenant_budgets() {
            fleet.ledger.reconcile(&tenant, &budget);
        }
        for id in state.remote_jobs() {
            if settle_from_spool(&id, state, cfg) {
                continue;
            }
            match lease::inspect(&cfg.spool, &id, cfg.lease_expiry) {
                Some((_, false)) => {} // holder is alive
                // Lease expired or vanished without an outcome: the
                // holder died. Re-queue so a local worker can steal it
                // and resume from the checkpoint.
                _ => {
                    fleet.expired.fetch_add(1, Ordering::Relaxed);
                    state.requeue(&id);
                }
            }
        }
        scan_spool(cfg, state, &mut warned);
        if state.wait_shutdown(cfg.heartbeat) {
            break;
        }
    }
    lease::remove_alive(&cfg.spool, &cfg.owner);
}

/// Assembles the `status` fleet figures from the lease registry, the
/// liveness files, and the spool ledger.
fn fleet_status(state: &ServeState, cfg: &ServeConfig, fleet: &FleetShared) -> FleetStatus {
    let local: HashMap<String, u64> = state
        .tenant_budgets()
        .into_iter()
        .map(|(tenant, budget)| (tenant, budget.used()))
        .collect();
    let mut tenants = fleet.ledger.tenants();
    tenants.extend(local.keys().cloned());
    tenants.sort();
    tenants.dedup();
    let tenants_fleet = tenants
        .into_iter()
        .map(|tenant| {
            let used = fleet
                .ledger
                .fleet_used(&tenant, local.get(&tenant).copied().unwrap_or(0));
            (tenant, used)
        })
        .collect();
    FleetStatus {
        owner: cfg.owner.clone(),
        daemons_live: lease::live_daemons(&cfg.spool, cfg.lease_expiry),
        leases_held: fleet.leases.lock().unwrap().len(),
        leases_stolen: fleet.stolen.load(Ordering::Relaxed),
        leases_expired: fleet.expired.load(Ordering::Relaxed),
        leases_lost: fleet.lost.load(Ordering::Relaxed),
        tenants_fleet,
    }
}

fn handle_connection(
    stream: TcpStream,
    state: &Arc<ServeState>,
    cfg: &ServeConfig,
    fleet: &FleetShared,
) -> io::Result<()> {
    // Each framed message must leave at once; a failure to set this is
    // only slower, so it does not drop the connection.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut buf = Vec::new();
    loop {
        match read_line_bounded(&mut reader, cfg.max_line_bytes, &mut buf)? {
            LineRead::Eof => return Ok(()),
            LineRead::Oversized => {
                let err = WireError::new(
                    "oversized",
                    format!(
                        "request line exceeds {} bytes; submit a smaller deck",
                        cfg.max_line_bytes
                    ),
                );
                write_line(&mut writer, &err.to_line())?;
            }
            LineRead::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                match Request::parse(&line) {
                    Err(err) => write_line(&mut writer, &err.to_line())?,
                    Ok(req) => dispatch(req, &mut writer, state, cfg, fleet)?,
                }
            }
        }
    }
}

fn dispatch(
    req: Request,
    writer: &mut TcpStream,
    state: &Arc<ServeState>,
    cfg: &ServeConfig,
    fleet: &FleetShared,
) -> io::Result<()> {
    match req {
        Request::Submit(request) => match accept_job(request, state, cfg) {
            Ok(id) => {
                let mut line = String::from("{\"ok\":true,\"job\":");
                json::write_json_string(&mut line, &id);
                line.push('}');
                write_line(writer, &line)
            }
            Err(err) => write_line(writer, &err.to_line()),
        },
        Request::Status => {
            let snapshot = fleet_status(state, cfg, fleet);
            write_line(writer, &state.status_line(&snapshot))
        }
        Request::Result { job, wait } => {
            ensure_known(&job, state, cfg);
            let entry = if wait {
                state.wait_settled(&job)
            } else {
                state.entry(&job)
            };
            match entry {
                Err(err) => write_line(writer, &err.to_line()),
                Ok(entry) => {
                    let mut line = String::from("{\"ok\":true,\"job\":");
                    json::write_json_string(&mut line, &job);
                    line.push_str(",\"state\":");
                    json::write_json_string(&mut line, entry.state.as_str());
                    match (&entry.outcome, &entry.error) {
                        (Some(outcome), _) => {
                            line.push_str(",\"outcome\":");
                            line.push_str(&outcome.to_json());
                        }
                        (None, Some(reason)) => {
                            line.push_str(",\"error\":{\"kind\":\"job-failed\",\"message\":");
                            json::write_json_string(&mut line, reason);
                            line.push('}');
                        }
                        (None, None) => {}
                    }
                    line.push('}');
                    write_line(writer, &line)
                }
            }
        }
        Request::Subscribe { job } => {
            ensure_known(&job, state, cfg);
            match state.entry(&job) {
                Err(err) => write_line(writer, &err.to_line()),
                Ok(_) => {
                    let mut line = String::from("{\"ok\":true,\"job\":");
                    json::write_json_string(&mut line, &job);
                    line.push('}');
                    write_line(writer, &line)?;
                    stream_journal(&job, writer, state, cfg)
                }
            }
        }
    }
}

/// Validates and accepts a submission: the deck must compile through the
/// limited parser *now* (the untrusted boundary — a hostile deck is
/// rejected synchronously with a structured error and never reaches a
/// worker), then the spec is spooled and queued. The spool write is
/// exclusive-create, so two daemons sharing the spool can never hand out
/// the same job id — a collision just advances to the next id.
fn accept_job(
    request: JobRequest,
    state: &ServeState,
    cfg: &ServeConfig,
) -> Result<String, WireError> {
    if let Err(e) = Testbench::from_deck_limited(&request.deck, &cfg.deck_limits) {
        return Err(WireError::new("deck", format!("deck rejected: {e}")));
    }
    let options = request
        .resolve()
        .map_err(|e| WireError::new("bad-request", e))?;
    for _ in 0..10_000 {
        let spec = JobSpec {
            id: state.next_id(),
            tenant: request.tenant.clone(),
            deck: request.deck.clone(),
            options,
        };
        match create_exclusive(&cfg.req_path(&spec.id), &spec.to_json()) {
            Ok(()) => {
                let id = spec.id.clone();
                state.enqueue(spec);
                return Ok(id);
            }
            // A peer daemon spooled this id first; take the next one.
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
            Err(e) => {
                return Err(WireError::new(
                    "bad-request",
                    format!("failed to spool job: {e}"),
                ))
            }
        }
    }
    Err(WireError::new(
        "bad-request",
        "failed to spool job: id space exhausted".to_string(),
    ))
}

/// Streams the job's journal to the peer from its `<id>.journal` spool
/// mirror, whichever daemon writes it. The subscription starts with the
/// mirror's backlog (late subscribers see the whole run), then polls it
/// every 50 ms for new complete lines until the job settles, and ends
/// with the `{"end":...}` marker. The connection then returns to
/// request/response mode.
///
/// Each poll reads the job's state *before* the mirror: a run writes its
/// last record before its job settles, so the lines read after seeing a
/// settled state are complete.
fn stream_journal(
    job: &str,
    writer: &mut TcpStream,
    state: &ServeState,
    cfg: &ServeConfig,
) -> io::Result<()> {
    let path = cfg.journal_path(job);
    let mut offset = 0;
    loop {
        let Ok(entry) = state.entry(job) else {
            return Ok(());
        };
        offset = replay_journal_file(&path, offset, writer)?;
        if entry.state.settled() {
            return write_line(writer, &end_marker(job, entry.state.as_str()));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Writes the complete lines of a journal mirror starting at byte
/// `offset`; returns the offset one past the last complete line. A line
/// still being written (a torn multi-byte character included) waits for
/// the next poll, and a missing mirror reads as empty.
fn replay_journal_file(path: &Path, offset: usize, writer: &mut impl Write) -> io::Result<usize> {
    let (offset, bytes) = read_journal_tail(path, offset);
    // A continued read starts with the line end just before `offset`.
    let chunk = &bytes[usize::from(offset > 0)..];
    let complete = chunk.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let text = String::from_utf8_lossy(&chunk[..complete]);
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        write_line(writer, line)?;
    }
    Ok(offset + complete)
}

/// Reads a journal mirror for a poll at byte `offset`: returns the offset
/// the replay continues from and the bytes read. A poll reads only from
/// byte `offset − 1` on, which must still end a line. When it does not, or
/// the mirror is shorter than `offset`, the holder (re)attached and
/// rewrote the mirror: the whole file is read from 0, replaying its fresh
/// backlog. A missing or unreadable mirror reads as empty.
fn read_journal_tail(path: &Path, offset: usize) -> (usize, Vec<u8>) {
    let read_from = |start: usize| {
        let mut bytes = Vec::new();
        let read = std::fs::File::open(path).and_then(|mut file| {
            file.seek(SeekFrom::Start(start as u64))?;
            file.read_to_end(&mut bytes)
        });
        if read.is_err() {
            bytes.clear();
        }
        bytes
    };
    if offset > 0 {
        let bytes = read_from(offset - 1);
        if bytes.first() == Some(&b'\n') {
            return (offset, bytes);
        }
    }
    (0, read_from(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_paths_and_defaults() {
        let cfg = ServeConfig::default();
        assert!(!cfg.warm_start, "bit-for-bit resume needs cold starts");
        assert!(cfg.slots >= 1);
        assert!(
            cfg.lease_expiry >= cfg.heartbeat * 4,
            "expiry must dwarf the heartbeat or live leases get stolen"
        );
        assert_eq!(
            cfg.checkpoint_path("job-0001"),
            cfg.spool.join("job-0001.ckpt")
        );
        assert_eq!(cfg.req_path("j").extension().unwrap(), "req");
        assert_eq!(cfg.out_path("j").extension().unwrap(), "out");
        assert_eq!(cfg.fail_path("j").extension().unwrap(), "fail");
        assert_eq!(cfg.journal_path("j").extension().unwrap(), "journal");
        let other = ServeConfig::default();
        assert_ne!(cfg.owner, other.owner, "default owner ids are unique");
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let dir = std::env::temp_dir().join(format!("specwise-serve-aw-{}", unique_suffix()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.out");
        write_atomic(&path, "one").unwrap();
        write_atomic(&path, "two").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "two");
        let leftovers = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .count();
        assert_eq!(leftovers, 0, "temp files never outlive the rename");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Polls `path` once from `offset`, returning the new offset and the
    /// lines streamed.
    fn poll(path: &Path, offset: usize) -> (usize, Vec<String>) {
        let mut out = Vec::new();
        let offset = replay_journal_file(path, offset, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        (offset, text.lines().map(str::to_string).collect())
    }

    #[test]
    fn a_torn_trailing_character_is_streamed_once() {
        let dir = std::env::temp_dir().join(format!("specwise-serve-rj-{}", unique_suffix()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.journal");
        let full = "{\"msg\":\"a…\"}\n{\"spec\":\"ŝ\"}\n";
        // The second line stops inside the two bytes of `ŝ`.
        let torn = full.find('ŝ').unwrap() + 1;
        let mut streamed = Vec::new();
        let mut offset = 0;
        for end in [full.find('\n').unwrap() + 1, torn, full.len()] {
            std::fs::write(&path, &full.as_bytes()[..end]).unwrap();
            let (next, lines) = poll(&path, offset);
            offset = next;
            streamed.extend(lines);
        }
        assert_eq!(streamed, ["{\"msg\":\"a…\"}", "{\"spec\":\"ŝ\"}"]);
        assert_eq!(offset, full.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_poll_reads_only_the_new_bytes_and_the_line_end_before_them() {
        let dir = std::env::temp_dir().join(format!("specwise-serve-rj-{}", unique_suffix()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.journal");
        let backlog = "{\"a\":1}\n{\"b\":2}\n";
        std::fs::write(&path, backlog).unwrap();
        let (offset, lines) = poll(&path, 0);
        assert_eq!((offset, lines.len()), (backlog.len(), 2));
        let appended = "{\"c\":3}\n{\"d\"";
        std::fs::write(&path, format!("{backlog}{appended}")).unwrap();
        let (start, bytes) = read_journal_tail(&path, offset);
        assert_eq!(start, offset);
        assert_eq!(bytes, format!("\n{appended}").as_bytes());
        let (offset, lines) = poll(&path, offset);
        assert_eq!(lines, ["{\"c\":3}"]);
        assert_eq!(offset, backlog.len() + "{\"c\":3}\n".len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_longer_recreated_mirror_restarts_from_zero() {
        let dir = std::env::temp_dir().join(format!("specwise-serve-rj-{}", unique_suffix()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.journal");
        std::fs::write(&path, "abc\n").unwrap();
        let (offset, lines) = poll(&path, 0);
        assert_eq!((offset, lines), (4, vec!["abc".to_string()]));
        // Re-created longer: byte 4 falls inside the second `ŝ`.
        std::fs::write(&path, "xŝŝ\nyz\n").unwrap();
        let (offset, lines) = poll(&path, offset);
        assert_eq!(lines, ["xŝŝ", "yz"]);
        assert_eq!(offset, "xŝŝ\nyz\n".len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupt_outcome_beside_a_failure_settles_as_failed() {
        let mut cfg = ServeConfig::default();
        cfg.spool = std::env::temp_dir().join(format!("specwise-serve-sr-{}", unique_suffix()));
        std::fs::create_dir_all(&cfg.spool).unwrap();
        let spec = JobSpec {
            id: "job-0001".into(),
            tenant: "acme".into(),
            deck: "vdd vdd 0 3.3".into(),
            options: crate::job::JobOptions::default(),
        };
        std::fs::write(cfg.req_path(&spec.id), spec.to_json()).unwrap();
        std::fs::write(cfg.out_path(&spec.id), "{\"design\":[1.0,").unwrap();
        assert!(
            spooled_result(&spec.id, &cfg).is_none(),
            "nothing settled yet"
        );
        std::fs::write(cfg.fail_path(&spec.id), "diverged\n").unwrap();
        assert_eq!(
            spooled_result(&spec.id, &cfg).unwrap().unwrap_err(),
            "diverged"
        );

        // Startup recovery and a peer settle read the same files the
        // same way: the job is failed, not queued for a re-run.
        let recovered = ServeState::new(u64::MAX);
        scan_spool(&cfg, &recovered, &mut HashSet::new());
        let entry = recovered.entry(&spec.id).unwrap();
        assert_eq!(entry.state, crate::state::JobState::Failed);
        assert_eq!(entry.error.as_deref(), Some("diverged"));

        let peer = ServeState::new(u64::MAX);
        peer.enqueue(spec.clone());
        assert!(settle_from_spool(&spec.id, &peer, &cfg));
        assert_eq!(
            peer.entry(&spec.id).unwrap().error.as_deref(),
            Some("diverged")
        );
        let _ = std::fs::remove_dir_all(&cfg.spool);
    }

    #[test]
    fn exclusive_writes_collide_exactly_once_per_path() {
        let dir = std::env::temp_dir().join(format!("specwise-serve-xw-{}", unique_suffix()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job-0001.req");
        create_exclusive(&path, "first").unwrap();
        let err = create_exclusive(&path, "second").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

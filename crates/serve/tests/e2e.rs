//! End-to-end tests of the daemon over real sockets.
//!
//! The fast tests run the daemon in-process: hostile input stays
//! rejected-but-alive, and a submitted job streams its Fig. 6 span tree
//! and reproduces a library-direct run bit-for-bit. The `#[ignore]`d
//! test (run by the CI `serve` job in release mode) spawns the actual
//! `specwise-serve` binary, submits three opamp decks concurrently,
//! kills the daemon mid-run, restarts it on the same spool, and requires
//! every resumed job to settle bit-identical to a direct run.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use specwise::{OptimizerConfig, YieldOptimizer};
use specwise_ckt::{FiveTransistorOta, FoldedCascode, MillerOpamp, Testbench};
use specwise_exec::{EvalService, ExecConfig};
use specwise_serve::{Client, ClientError, Daemon, JobOutcome, ServeConfig, SubmitOptions};
use specwise_trace::Record;

fn unique_spool(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("specwise-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn local_config(tag: &str, slots: usize) -> ServeConfig {
    let mut cfg = ServeConfig::default();
    cfg.addr = "127.0.0.1:0".into();
    cfg.spool = unique_spool(tag);
    cfg.slots = slots;
    cfg
}

/// A library-direct run with the exact evaluation stack the daemon uses
/// (deck → testbench, cold starts, sharded service) — the bit-for-bit
/// reference for wire results.
fn direct_run(deck: &str, opts: &SubmitOptions, shards: usize) -> (Vec<f64>, f64, Option<f64>) {
    let tb = Testbench::from_deck(deck)
        .expect("reference deck compiles")
        .with_warm_start(false);
    let svc = EvalService::new(&tb, ExecConfig::default().into_shard(shards));
    let mut cfg = OptimizerConfig::default();
    if let Some(seed) = opts.seed {
        cfg.seed = seed;
    }
    if let Some(n) = opts.mc_samples {
        cfg.mc_samples = n as usize;
    }
    if let Some(n) = opts.verify_samples {
        cfg.verify_samples = n as usize;
    }
    if let Some(n) = opts.max_iterations {
        cfg.max_iterations = n as usize;
    }
    let trace = YieldOptimizer::new(cfg)
        .run(&svc)
        .expect("direct run completes");
    let last = trace.final_snapshot();
    (
        trace.final_design().as_slice().to_vec(),
        last.estimated_yield.value(),
        last.verified.as_ref().map(|v| v.yield_estimate.value()),
    )
}

fn assert_bits_equal(wire: &[f64], direct: &[f64], what: &str) {
    assert_eq!(wire.len(), direct.len(), "{what}: design arity");
    for (i, (w, d)) in wire.iter().zip(direct.iter()).enumerate() {
        assert_eq!(
            w.to_bits(),
            d.to_bits(),
            "{what}: design[{i}] differs ({w} vs {d})"
        );
    }
}

#[test]
fn hostile_submissions_bounce_while_the_daemon_keeps_serving() {
    let cfg = local_config("hostile", 1);
    let spool = cfg.spool.clone();
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let addr = daemon.local_addr();
    let mut client = Client::connect(addr).expect("client connects");

    // Garbage, truncated, and brace-bomb decks: structured "deck" errors.
    for deck in [
        "\u{0}\u{1}\u{2} total garbage \u{fffd}",
        "m1 d g s", // truncated element line
        "* bomb\nvdd vdd 0 3.3\nm1 d g s b nch W={{w1}} L=1u\n.end\n",
    ] {
        match client.submit(deck, &SubmitOptions::default()) {
            Err(ClientError::Server { kind, .. }) => assert_eq!(kind, "deck"),
            other => panic!("hostile deck must bounce with a deck error, got {other:?}"),
        }
    }
    // A deck over the ingestion byte limit bounces the same way.
    let huge = format!("* pad\n{}\n.end\n", "* x\n".repeat(400_000));
    match client.submit(&huge, &SubmitOptions::default()) {
        Err(ClientError::Server { kind, message }) => {
            assert_eq!(kind, "deck");
            assert!(message.contains("bytes"), "{message}");
        }
        other => panic!("oversized deck must bounce, got {other:?}"),
    }

    // Raw protocol abuse on a separate connection: invalid JSON, then an
    // oversized request line; both answered, connection still usable.
    {
        let raw = TcpStream::connect(addr).expect("raw connect");
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        let mut writer = raw;
        let mut line = String::new();
        writer.write_all(b"this is not json\n").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"malformed\""), "{line}");
        let mut big = vec![b'z'; (4 << 20) + 64];
        big.push(b'\n');
        writer.write_all(&big).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"oversized\""), "{line}");
        line.clear();
        writer.write_all(b"{\"cmd\":\"status\"}\n").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");
    }

    // Unknown-job queries are structured errors too.
    match client.poll("job-9999") {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, "unknown-job"),
        other => panic!("unknown job must be an unknown-job error, got {other:?}"),
    }

    // After all that abuse the daemon still accepts and runs a real job.
    let mut opts = SubmitOptions::default();
    opts.mc_samples = Some(200);
    opts.verify_samples = Some(0);
    opts.max_iterations = Some(1);
    let job = client
        .submit(FiveTransistorOta::deck(), &opts)
        .expect("valid deck accepted after hostile traffic");
    let outcome = client.result_wait(&job).expect("job settles");
    assert!(!outcome.design.is_empty());
    assert!(outcome.total_sims > 0);

    let status = client.status().expect("status");
    let jobs = status.get("jobs").and_then(|j| j.as_arr()).unwrap();
    assert_eq!(jobs.len(), 1, "only the valid submission became a job");

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(spool);
}

#[test]
fn submitted_job_streams_fig6_spans_and_matches_a_direct_run() {
    let cfg = local_config("stream", 2);
    let spool = cfg.spool.clone();
    let slots = cfg.slots;
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let mut client = Client::connect(daemon.local_addr()).expect("client connects");

    let mut opts = SubmitOptions::default();
    opts.tenant = "acme".into();
    opts.mc_samples = Some(600);
    opts.verify_samples = Some(80);
    opts.max_iterations = Some(2);
    let job = client
        .submit(MillerOpamp::deck(), &opts)
        .expect("submit accepted");

    // Subscribe from a second connection while the job runs; the stream
    // ends only when the job settles.
    let (records, final_state) = Client::connect(daemon.local_addr())
        .expect("subscriber connects")
        .subscribe(&job)
        .expect("subscription streams to completion");
    assert_eq!(final_state, "done");

    // The Fig. 6 phases arrive as spans. Records are emitted at span
    // *close* (the run root closes last), but ids are assigned at open
    // time in deterministic order — so the flow order is the id order.
    let mut ids: HashMap<&str, Vec<u64>> = HashMap::new();
    for record in &records {
        if let Record::Span(span) = record {
            ids.entry(span.name.as_str()).or_default().push(span.id);
        }
    }
    for name in ["run", "wc_analysis", "iteration", "mc_verify"] {
        assert!(ids.contains_key(name), "missing span {name:?}");
    }
    let first = |name: &str| *ids[name].iter().min().unwrap();
    assert!(
        first("run") < first("wc_analysis") && first("wc_analysis") < first("iteration"),
        "span stream out of order: {ids:?}"
    );
    // Each iteration ends in its own verification (the Initial snapshot
    // verifies before the first iteration opens, hence "some", not "min").
    assert!(
        ids["mc_verify"].iter().any(|&id| id > first("iteration")),
        "no per-iteration mc_verify after the first iteration: {ids:?}"
    );

    let outcome = client.result_wait(&job).expect("job settles");
    assert!(!outcome.resumed, "no restart happened");

    // A subscription after the job settled replays exactly what the live
    // one streamed.
    let (replayed, replayed_state) = client.subscribe(&job).expect("settled replay");
    assert_eq!(replayed_state, "done");
    assert_eq!(
        replayed, records,
        "settled replay differs from the live stream"
    );

    // Bit-for-bit parity with the library-direct run.
    let (design, estimated, verified) = direct_run(MillerOpamp::deck(), &opts, slots);
    assert_bits_equal(&outcome.design, &design, "miller over the wire");
    assert_eq!(outcome.estimated_yield, estimated);
    assert_eq!(outcome.verified_yield, verified);
    assert!(outcome.yield_interval.is_some(), "verification ran");

    // Status reports the cache hit rate and the tenant's sim count.
    let status = client.status().expect("status");
    let metrics = status.get("metrics").unwrap();
    assert!(
        metrics
            .get("cache_hit_rate")
            .and_then(|x| x.as_f64())
            .is_some(),
        "cache hit rate must be reported after a cached run"
    );
    let tenants = metrics.get("tenants").and_then(|t| t.as_arr()).unwrap();
    let acme = tenants
        .iter()
        .find(|t| t.get("tenant").and_then(|x| x.as_str()) == Some("acme"))
        .expect("tenant row");
    assert!(acme.get("sims").and_then(|x| x.as_u64()).unwrap() > 0);

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(spool);
}

/// Small request/response round trips on one connection must not stall
/// on the peer's delayed ACK (about 40 ms each when a message leaves in
/// two writes with Nagle's algorithm on).
#[test]
fn sequential_status_round_trips_do_not_stall() {
    let cfg = local_config("round-trips", 1);
    let spool = cfg.spool.clone();
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let mut client = Client::connect(daemon.local_addr()).expect("client connects");
    let start = Instant::now();
    for _ in 0..40 {
        client.status().expect("status");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "40 status round trips took {elapsed:?}"
    );
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(spool);
}

/// A subscription to a job that has already settled replays the backlog
/// and ends at once, without waiting out a live-stream poll.
#[test]
fn subscriptions_to_a_settled_job_end_at_once() {
    let cfg = local_config("settled-subscribe", 1);
    let spool = cfg.spool.clone();
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let mut client = Client::connect(daemon.local_addr()).expect("client connects");
    let mut opts = SubmitOptions::default();
    opts.mc_samples = Some(200);
    opts.verify_samples = Some(0);
    opts.max_iterations = Some(1);
    let job = client
        .submit(FiveTransistorOta::deck(), &opts)
        .expect("submit accepted");
    client.result_wait(&job).expect("job settles");

    let start = Instant::now();
    let (first, state) = client.subscribe(&job).expect("subscription ends");
    assert_eq!(state, "done");
    assert!(!first.is_empty(), "the backlog holds the run's records");
    for _ in 0..4 {
        let (records, state) = client.subscribe(&job).expect("subscription ends");
        assert_eq!(state, "done");
        assert_eq!(records, first, "every replay carries the same records");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(150),
        "five settled subscriptions took {elapsed:?}"
    );
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(spool);
}

/// A settled job keeps no file open: its journal lives on only as the
/// spool mirror, so a long-lived daemon does not run out of descriptors.
#[cfg(target_os = "linux")]
#[test]
fn settled_jobs_hold_no_journal_file_open() {
    let cfg = local_config("no-open-journals", 1);
    let spool = cfg.spool.clone();
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let mut client = Client::connect(daemon.local_addr()).expect("client connects");
    let mut opts = SubmitOptions::default();
    opts.mc_samples = Some(200);
    opts.verify_samples = Some(0);
    opts.max_iterations = Some(1);
    for _ in 0..8 {
        let job = client
            .submit(FiveTransistorOta::deck(), &opts)
            .expect("submit accepted");
        client.result_wait(&job).expect("job settles");
    }
    // Other tests in this binary run daemons of their own, so count only
    // descriptors on this daemon's spool.
    let open: Vec<PathBuf> = std::fs::read_dir("/proc/self/fd")
        .expect("procfs lists descriptors")
        .flatten()
        .filter_map(|fd| std::fs::read_link(fd.path()).ok())
        .filter(|target| {
            target.starts_with(&spool) && target.to_string_lossy().ends_with(".journal")
        })
        .collect();
    assert!(
        open.is_empty(),
        "{} journal files still open after every job settled: {open:?}",
        open.len()
    );
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(spool);
}

/// Reads the handshake line from a freshly spawned daemon binary and
/// returns the bound address.
fn spawn_daemon(spool: &Path, slots: usize) -> (std::process::Child, String) {
    let exe = env!("CARGO_BIN_EXE_specwise-serve");
    let mut child = std::process::Command::new(exe)
        .env("SPECWISE_SERVE_ADDR", "127.0.0.1:0")
        .env("SPECWISE_SERVE_SPOOL", spool)
        .env("SPECWISE_SERVE_SLOTS", slots.to_string())
        // Short lease windows so a restarted daemon steals a dead
        // holder's jobs in seconds instead of the production default.
        .env("SPECWISE_SERVE_LEASE_EXPIRY", "2")
        .env("SPECWISE_SERVE_HEARTBEAT", "0.25")
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("daemon binary spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("handshake line");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .expect("address in handshake")
        .to_owned();
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    (child, addr)
}

/// Polls every millisecond until `job` has written its first checkpoint.
fn wait_for_checkpoint(spool: &Path, job: &str, timeout: Duration) {
    let start = Instant::now();
    while !spool.join(format!("{job}.ckpt")).exists() {
        assert!(
            start.elapsed() < timeout,
            "{job}: no checkpoint within {timeout:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The acceptance test of the serving tentpole: three opamp decks
/// submitted concurrently over the wire, the daemon killed mid-run,
/// restarted on the same spool, and every job's final design bit-identical
/// to a library-direct run. Release-mode only (`--include-ignored`).
#[test]
#[ignore = "release-mode e2e: run via cargo test --release -- --include-ignored"]
fn three_decks_concurrent_kill_restart_resume_bit_for_bit() {
    let spool = unique_spool("killrestart");
    std::fs::create_dir_all(&spool).unwrap();
    // Slowest deck first: the folded cascode has the most work left after
    // its first checkpoint, the OTA the least.
    let decks: [(&str, &str); 3] = [
        ("folded", FoldedCascode::deck()),
        ("miller", MillerOpamp::deck()),
        ("ota", FiveTransistorOta::deck()),
    ];
    // Paper-scale sampling: enough work per job that the kill below lands
    // mid-run (the first checkpoint is written after the Initial snapshot,
    // with two full iterations still ahead).
    let mut opts = SubmitOptions::default();
    opts.mc_samples = Some(10_000);
    opts.verify_samples = Some(300);
    opts.max_iterations = Some(2);

    let (mut child, addr) = spawn_daemon(&spool, 3);

    // Staggered submissions on three connections: each job is submitted
    // once the one before it has checkpointed, and the daemon is killed as
    // soon as the last, fastest job checkpoints. The jobs then run
    // concurrently on three slots, and each earlier job has more work left
    // after its first checkpoint than the later ones need to reach theirs.
    // Submitting all three at once let the OTA job settle before the
    // folded cascode's first checkpoint.
    let jobs: Vec<String> = decks
        .iter()
        .map(|(tenant, deck)| {
            let mut opts = opts.clone();
            opts.tenant = (*tenant).to_owned();
            let job = Client::connect(addr.as_str())
                .expect("client connects")
                .submit(deck, &opts)
                .expect("submit accepted");
            wait_for_checkpoint(&spool, &job, Duration::from_secs(120));
            job
        })
        .collect();
    child.kill().expect("daemon killed");
    let _ = child.wait();
    for job in &jobs {
        assert!(
            !spool.join(format!("{job}.out")).exists(),
            "{job} settled before the kill — the kill must land mid-run"
        );
    }

    // Restart on the same spool: recovery re-enqueues the jobs in id
    // order and their checkpoints resume the runs.
    let (mut child, addr) = spawn_daemon(&spool, 3);
    let mut outcomes: Vec<JobOutcome> = Vec::new();
    {
        let mut client = Client::connect(addr.as_str()).expect("client reconnects");
        for job in &jobs {
            outcomes.push(client.result_wait(job).expect("resumed job settles"));
        }
    }
    child.kill().expect("second daemon stopped");
    let _ = child.wait();

    for ((tenant, deck), outcome) in decks.iter().zip(&outcomes) {
        assert!(
            outcome.resumed,
            "{tenant}: the restarted daemon must resume, not restart"
        );
        let (design, estimated, verified) = direct_run(deck, &opts, 3);
        assert_bits_equal(&outcome.design, &design, tenant);
        assert_eq!(outcome.estimated_yield, estimated, "{tenant}");
        assert_eq!(outcome.verified_yield, verified, "{tenant}");
    }
    let _ = std::fs::remove_dir_all(spool);
}

/// Wire-level hostile input while another tenant's job is in flight: torn
/// mid-line writes, an oversized frame followed by a valid request on the
/// same connection, and garbage interleaved around a subscribe handshake.
/// The daemon must resync every time and the other tenant's job must
/// settle untouched. (The `specwise-fuzz` wire campaign randomizes these
/// same attacks; this is the deterministic regression version.)
#[test]
fn wire_level_hostile_input_resyncs_and_spares_other_tenants() {
    let cfg = local_config("hostile-wire", 1);
    let spool = cfg.spool.clone();
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let addr = daemon.local_addr();

    // The victim: a real job from a well-behaved tenant, submitted first.
    let mut opts = SubmitOptions::default();
    opts.tenant = "victim".into();
    opts.seed = Some(11);
    opts.mc_samples = Some(100);
    opts.verify_samples = Some(0);
    opts.max_iterations = Some(1);
    let victim_job = Client::connect(addr)
        .expect("victim connects")
        .submit(MillerOpamp::deck(), &opts)
        .expect("victim submit accepted");

    // Attack 1: a valid status request torn into 1–3 byte writes with a
    // flush between each — the framing layer must reassemble it.
    {
        let raw = TcpStream::connect(addr).expect("torn connect");
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        let mut writer = raw;
        for chunk in b"{\"cmd\":\"status\"}\n".chunks(3) {
            writer.write_all(chunk).unwrap();
            writer.flush().unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("\"ok\":true"),
            "torn request not reassembled: {line}"
        );
    }

    // Attack 2: a mid-line cut — half a request, then the connection is
    // dropped on the floor. The daemon must not block or leak the reader.
    {
        let mut writer = TcpStream::connect(addr).expect("cut connect");
        writer.write_all(b"{\"cmd\":\"sub").unwrap();
        writer.flush().unwrap();
        // Dropped without a newline; the daemon's read loop sees EOF.
    }

    // Attack 3: oversized frame, then TWO valid requests on the same
    // connection — resync must hold beyond the first follow-up.
    {
        let raw = TcpStream::connect(addr).expect("big connect");
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        let mut writer = raw;
        let mut big = vec![b'{'; (4 << 20) + 128];
        big.push(b'\n');
        writer.write_all(&big).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"oversized\""), "{line}");
        for _ in 0..2 {
            line.clear();
            writer.write_all(b"{\"cmd\":\"status\"}\n").unwrap();
            reader.read_line(&mut line).unwrap();
            assert!(
                line.contains("\"ok\":true"),
                "no resync after oversized frame: {line}"
            );
        }
    }

    // Attack 4: garbage interleaved on a subscribe connection. Subscribing
    // to an unknown job answers a typed error and keeps the connection in
    // the request loop; the garbage that follows must bounce as malformed,
    // not wedge the stream.
    {
        let raw = TcpStream::connect(addr).expect("subscribe connect");
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        let mut writer = raw;
        let mut line = String::new();
        writer
            .write_all(b"{\"cmd\":\"subscribe\",\"job\":\"job-bogus\"}\n")
            .unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("unknown-job"), "{line}");
        line.clear();
        writer.write_all(b"\x00\xffgarbage\x01\n").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"malformed\""), "{line}");
        line.clear();
        writer.write_all(b"{\"cmd\":\"status\"}\n").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");
    }

    // The victim's job settles with a real outcome, and the job table
    // holds exactly that one job — no hostile connection became a job.
    let mut client = Client::connect(addr).expect("client connects");
    let outcome = client
        .result_wait(&victim_job)
        .expect("victim job settles despite hostile traffic");
    assert!(!outcome.design.is_empty());
    assert!(outcome.total_sims > 0);
    let status = client.status().expect("status");
    let jobs = status.get("jobs").and_then(|j| j.as_arr()).unwrap();
    assert_eq!(jobs.len(), 1, "hostile traffic must not create jobs");

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(spool);
}

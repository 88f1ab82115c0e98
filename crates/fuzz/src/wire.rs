//! Wire-level protocol fuzzing against a live `specwise-serve` daemon.
//!
//! The other oracles exercise library boundaries; this one exercises the
//! deployed boundary — raw bytes on a TCP socket. An in-process daemon is
//! started on a loopback port, one *victim* job is submitted under its own
//! tenant, and then each iteration throws one attack at the socket:
//!
//! * random byte bursts (slammed and abandoned),
//! * mutated deck submissions wrapped in well-formed JSON,
//! * oversized (> 4 MiB) lines followed by a valid request on the same
//!   connection (the framing layer must resync),
//! * torn writes — a valid request dribbled one byte at a time across
//!   flushes,
//! * garbage injected after a subscribe handshake.
//!
//! After every attack a fresh connection issues `{"cmd":"status"}`; the
//! daemon must answer `ok`. At the end the victim job must still settle
//! with a result — hostile connections must never take down the listener
//! or drop another tenant's job.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use rand::{rngs::StdRng, Rng, SeedableRng};
use specwise_ckt::MillerOpamp;
use specwise_serve::{Client, Daemon, ServeConfig, SubmitOptions};
use specwise_trace::json::write_json_string;

use crate::mutate::mutate_n;

/// Attack labels, indexed by the operator draw.
pub const ATTACKS: &[&str] = &[
    "byte-burst",
    "mutated-submit",
    "oversized-resync",
    "torn-write",
    "subscribe-garbage",
];

/// Wire campaign outcome.
#[derive(Debug, Default)]
pub struct WireReport {
    /// Attacks delivered.
    pub attacks: usize,
    /// Per-attack counts, parallel to [`ATTACKS`].
    pub by_attack: [usize; 5],
    /// Protocol-level failures (daemon unreachable, bad resync, dropped
    /// victim job). Empty means the daemon survived everything.
    pub findings: Vec<String>,
}

fn raw_conn(addr: std::net::SocketAddr) -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((reader, stream))
}

fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<String> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    Ok(line)
}

/// Runs one wire-fuzz campaign. Starts its own daemon, attacks it for
/// `iters` iterations, and verifies liveness plus victim-job survival.
///
/// # Panics
///
/// Panics only on harness setup failures (cannot bind loopback, cannot
/// create the spool); attack-path failures are reported as findings.
pub fn run_wire_campaign(seed: u64, iters: usize, log: impl Fn(&str)) -> WireReport {
    let spool =
        std::env::temp_dir().join(format!("specwise-fuzz-wire-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let mut cfg = ServeConfig::default();
    cfg.addr = "127.0.0.1:0".into();
    cfg.spool = spool.clone();
    cfg.slots = 1;
    let daemon = Daemon::start(cfg).expect("start fuzz daemon");
    let addr = daemon.local_addr();

    let mut report = WireReport::default();
    let mut rng = StdRng::seed_from_u64(seed);

    // The victim: a real job under its own tenant, kept small so it
    // settles within the campaign. Its survival is the cross-tenant
    // isolation check.
    let mut opts = SubmitOptions::default();
    opts.tenant = "victim".into();
    opts.seed = Some(7);
    opts.mc_samples = Some(16);
    opts.verify_samples = Some(0);
    opts.max_iterations = Some(1);
    let victim_job = Client::connect(addr)
        .expect("victim connect")
        .submit(MillerOpamp::deck(), &opts)
        .expect("victim submit");

    let seed_deck = MillerOpamp::deck();
    for i in 0..iters {
        let attack = rng.gen_range(0..ATTACKS.len());
        report.attacks += 1;
        report.by_attack[attack] += 1;
        let outcome: Result<(), String> = (|| {
            match attack {
                // Random byte burst, connection abandoned without reading.
                0 => {
                    let (_, mut w) = raw_conn(addr).map_err(|e| format!("connect: {e}"))?;
                    let len = rng.gen_range(1..2048usize);
                    let burst: Vec<u8> =
                        (0..len).map(|_| (rng.gen::<u32>() & 0xff) as u8).collect();
                    let _ = w.write_all(&burst);
                    let _ = w.flush();
                }
                // A mutated deck inside well-formed JSON: the daemon must
                // answer with ok or a typed error, never hang or die.
                1 => {
                    let n = rng.gen_range(1..4usize);
                    let deck = mutate_n(seed_deck, &mut rng, n);
                    let (mut r, mut w) = raw_conn(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut req =
                        String::from("{\"cmd\":\"submit\",\"tenant\":\"fuzzer\",\"deck\":");
                    write_json_string(&mut req, &deck);
                    req.push_str("}\n");
                    w.write_all(req.as_bytes())
                        .map_err(|e| format!("write: {e}"))?;
                    let resp = read_response(&mut r).map_err(|e| format!("read: {e}"))?;
                    if !resp.contains("\"ok\"") {
                        return Err(format!("submit response not a protocol reply: {resp:?}"));
                    }
                }
                // Oversized frame; the same connection must resync and
                // answer the follow-up status.
                2 => {
                    let (mut r, mut w) = raw_conn(addr).map_err(|e| format!("connect: {e}"))?;
                    let extra = rng.gen_range(1..4096usize);
                    let mut big = vec![b'z'; (4 << 20) + extra];
                    big.push(b'\n');
                    w.write_all(&big).map_err(|e| format!("write big: {e}"))?;
                    let resp = read_response(&mut r).map_err(|e| format!("read big: {e}"))?;
                    if !resp.contains("oversized") {
                        return Err(format!("expected oversized error, got {resp:?}"));
                    }
                    w.write_all(b"{\"cmd\":\"status\"}\n")
                        .map_err(|e| format!("write status: {e}"))?;
                    let resp = read_response(&mut r).map_err(|e| format!("read status: {e}"))?;
                    if !resp.contains("\"ok\":true") {
                        return Err(format!("no resync after oversized frame: {resp:?}"));
                    }
                }
                // Torn write: a valid request dribbled byte-by-byte.
                3 => {
                    let (mut r, mut w) = raw_conn(addr).map_err(|e| format!("connect: {e}"))?;
                    let req = b"{\"cmd\":\"status\"}\n";
                    for chunk in req.chunks(rng.gen_range(1..5usize)) {
                        w.write_all(chunk).map_err(|e| format!("torn write: {e}"))?;
                        w.flush().map_err(|e| format!("torn flush: {e}"))?;
                    }
                    let resp = read_response(&mut r).map_err(|e| format!("torn read: {e}"))?;
                    if !resp.contains("\"ok\":true") {
                        return Err(format!("torn status failed: {resp:?}"));
                    }
                }
                // Subscribe to a bogus job, then shove garbage down the
                // same connection.
                _ => {
                    let (mut r, mut w) = raw_conn(addr).map_err(|e| format!("connect: {e}"))?;
                    w.write_all(b"{\"cmd\":\"subscribe\",\"job\":\"no-such-job\"}\n")
                        .map_err(|e| format!("subscribe write: {e}"))?;
                    let resp = read_response(&mut r).map_err(|e| format!("subscribe read: {e}"))?;
                    if !resp.contains("\"ok\"") {
                        return Err(format!("subscribe reply not protocol-shaped: {resp:?}"));
                    }
                    let garbage: Vec<u8> = (0..rng.gen_range(1..256usize))
                        .map(|_| (rng.gen::<u32>() & 0xff) as u8)
                        .collect();
                    let _ = w.write_all(&garbage);
                    let _ = w.write_all(b"\n");
                }
            }
            Ok(())
        })();
        if let Err(detail) = outcome {
            report
                .findings
                .push(format!("attack {} ({}): {detail}", i, ATTACKS[attack]));
        }
        // Liveness probe after every attack.
        match Client::connect(addr).and_then(|mut c| c.status()) {
            Ok(_) => {}
            Err(e) => {
                report.findings.push(format!(
                    "daemon unhealthy after {} attack: {e}",
                    ATTACKS[attack]
                ));
                break;
            }
        }
        if i % 50 == 0 {
            log(&format!(
                "wire: {i}/{iters} attacks, {} findings",
                report.findings.len()
            ));
        }
    }

    // The victim job must still settle with a result.
    match Client::connect(addr).and_then(|mut c| c.result_wait(&victim_job)) {
        Ok(_) => {}
        Err(e) => report
            .findings
            .push(format!("victim job lost after wire fuzzing: {e}")),
    }
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
    report
}

//! Daemon throughput benchmark: starts an in-process `specwise-serve`
//! daemon, pushes a batch of opamp decks through the full wire path
//! (submit → queue → sharded workers → result), and records jobs/min
//! plus the evaluation-cache hit rate in `BENCH_serve.json`.
//!
//! Run with `cargo run --release --example serve_bench`.
//! Set `SPECWISE_EXAMPLE_QUICK=1` for the CI smoke configuration, which
//! prints its JSON record to stdout and leaves `BENCH_serve.json` as it is.

use std::error::Error;
use std::io::Write as _;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use specwise_ckt::{FiveTransistorOta, FoldedCascode, MillerOpamp};
use specwise_serve::{Client, Daemon, ServeConfig, SubmitOptions};
use specwise_trace::json::write_f64;

/// Civil date from a unix timestamp (Howard Hinnant's algorithm), so the
/// report carries its date without a clock/calendar dependency.
fn civil_date() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = secs as i64 / 86_400 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

fn main() -> Result<(), Box<dyn Error>> {
    let quick = std::env::var("SPECWISE_EXAMPLE_QUICK").is_ok();
    let decks: Vec<(&str, &str)> = vec![
        ("ota", FiveTransistorOta::deck()),
        ("miller", MillerOpamp::deck()),
        ("folded", FoldedCascode::deck()),
    ];
    let (rounds, mc_samples, verify_samples, max_iterations) = if quick {
        (1, 500, 0, 1)
    } else {
        (2, 2_000, 150, 2)
    };
    let n_jobs = rounds * decks.len();

    let mut cfg = ServeConfig::default();
    cfg.addr = "127.0.0.1:0".into();
    cfg.spool = std::env::temp_dir().join(format!("specwise-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cfg.spool);
    cfg.slots = decks.len().min(std::thread::available_parallelism()?.get());
    let slots = cfg.slots;
    let spool = cfg.spool.clone();

    let daemon = Daemon::start(cfg)?;
    let addr = daemon.local_addr();
    println!(
        "serve_bench: {n_jobs} jobs ({n_decks} decks x {rounds}) on {slots} slots, \
         mc={mc_samples} verify={verify_samples} iters={max_iterations}",
        n_decks = decks.len()
    );

    let start = Instant::now();
    let mut client = Client::connect(addr)?;
    let mut jobs = Vec::new();
    for round in 0..rounds {
        for (tenant, deck) in &decks {
            let mut opts = SubmitOptions::default();
            opts.tenant = (*tenant).to_owned();
            // A fresh seed per round keeps rounds from being pure cache
            // replays of each other.
            opts.seed = Some(2001 + round as u64);
            opts.mc_samples = Some(mc_samples);
            opts.verify_samples = Some(verify_samples);
            opts.max_iterations = Some(max_iterations);
            jobs.push(client.submit(deck, &opts)?);
        }
    }
    let mut total_sims = 0u64;
    for job in &jobs {
        let outcome = client.result_wait(job)?;
        total_sims += outcome.total_sims;
        println!(
            "  {job}: estimated yield {:.4}, {} sims{}",
            outcome.estimated_yield,
            outcome.total_sims,
            outcome
                .verified_yield
                .map(|y| format!(", verified {y:.4}"))
                .unwrap_or_default()
        );
    }
    let wall_s = start.elapsed().as_secs_f64();
    let jobs_per_min = n_jobs as f64 / wall_s * 60.0;
    let metrics = daemon.state().metrics();
    let hit_rate = metrics.cache_hit_rate().unwrap_or(0.0);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(spool);

    println!(
        "serve_bench: {n_jobs} jobs in {wall_s:.2}s = {jobs_per_min:.1} jobs/min, \
         cache hit rate {:.1}%, {total_sims} sims",
        hit_rate * 100.0
    );

    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"examples/serve_bench.rs\",\n");
    out.push_str(&format!("  \"date\": \"{}\",\n", civil_date()));
    out.push_str("  \"command\": \"cargo run --release --example serve_bench\",\n");
    out.push_str(&format!(
        "  \"workload\": \"{n_jobs} yield-optimization jobs ({} opamp decks x {rounds} rounds) \
         submitted over the wire to an in-process daemon with {slots} job slots; \
         mc_samples={mc_samples}, verify_samples={verify_samples}, \
         max_iterations={max_iterations}, quick={quick}\",\n",
        decks.len()
    ));
    out.push_str("  \"units\": \"jobs per minute, end to end over the wire protocol\",\n");
    out.push_str("  \"results\": {\n");
    out.push_str(&format!("    \"jobs\": {n_jobs},\n"));
    out.push_str(&format!("    \"slots\": {slots},\n"));
    out.push_str("    \"wall_s\": ");
    write_f64(&mut out, (wall_s * 1000.0).round() / 1000.0);
    out.push_str(",\n    \"jobs_per_min\": ");
    write_f64(&mut out, (jobs_per_min * 10.0).round() / 10.0);
    out.push_str(",\n    \"cache_hit_rate\": ");
    write_f64(&mut out, (hit_rate * 1000.0).round() / 1000.0);
    out.push_str(&format!(",\n    \"total_sims\": {total_sims}\n  }}\n}}\n"));

    // A quick run is a smoke test: its record goes to stdout and the
    // tracked file keeps the full run's numbers.
    if quick {
        print!("{out}");
        return Ok(());
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_serve.json");
    let mut file = std::fs::File::create(&path)?;
    file.write_all(out.as_bytes())?;
    println!("serve_bench: wrote {}", path.display());
    Ok(())
}

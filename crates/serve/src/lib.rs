//! specwise-serve: yield optimization as a service.
//!
//! A zero-external-dependency daemon (std [`TcpListener`] +
//! thread-per-connection over a shared job scheduler) that accepts
//! annotated circuit decks over line-delimited JSON, compiles them at an
//! untrusted-input boundary through the hardened limited deck parser, and
//! runs the paper's full Fig. 6 flow — worst-case analysis, spec-wise
//! linearization, feasibility-guided search, Monte-Carlo verification —
//! as queued jobs across a sharded worker pool on `specwise-exec`.
//!
//! Per job, the daemon
//!
//! * charges every simulator call against a per-tenant evaluation budget
//!   (a soft [`KillSwitch`](specwise_harden::KillSwitch): exhaustion
//!   degrades Monte-Carlo samples into a wider yield interval instead of
//!   crashing the run),
//! * persists the optimizer state as a checkpoint after every iteration,
//!   so killing and restarting the daemon resumes in-flight jobs
//!   **bit-for-bit** (warm starts are off by default for exactly this
//!   reason), and
//! * mirrors the run journal — the Fig. 6 span tree — into the spool,
//!   from where any daemon streams it to every subscribed client,
//!   backlog included.
//!
//! `status` reports the job table, the service's simulation totals, and
//! per-tenant simulation counts.
//!
//! # Wire protocol
//!
//! One JSON object per line in both directions (see [`protocol`]):
//!
//! ```text
//! → {"cmd":"submit","deck":"...","tenant":"acme","mc_samples":2000}
//! ← {"ok":true,"job":"job-0001"}
//! → {"cmd":"result","job":"job-0001","wait":true}
//! ← {"ok":true,"job":"job-0001","state":"done","outcome":{"design":[...],...}}
//! → {"cmd":"subscribe","job":"job-0001"}
//! ← {"ok":true,"job":"job-0001"}
//! ← {"type":"span","name":"run",...}            (journal records …)
//! ← {"end":true,"job":"job-0001","state":"done"}
//! ```
//!
//! Malformed requests and hostile decks (oversized, brace bombs,
//! truncated bytes) get structured `{"ok":false,"error":{...}}` responses
//! while the daemon keeps serving.
//!
//! # In-process use
//!
//! The daemon also embeds directly (the end-to-end tests and the
//! `serve-mixed` benchmark workload run it in-process):
//!
//! ```no_run
//! use specwise_serve::{Client, Daemon, ServeConfig, SubmitOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut cfg = ServeConfig::default();
//! cfg.addr = "127.0.0.1:0".into(); // pick a free port
//! let daemon = Daemon::start(cfg)?;
//! let mut client = Client::connect(daemon.local_addr())?;
//! let job = client.submit(specwise_ckt::MillerOpamp::deck(), &SubmitOptions::default())?;
//! let outcome = client.result_wait(&job)?;
//! println!("optimized design: {:?}", outcome.design);
//! daemon.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! [`TcpListener`]: std::net::TcpListener

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod daemon;
pub mod job;
pub mod lease;
pub mod ledger;
pub mod protocol;
pub mod state;

pub use client::{Client, ClientError, SubmitOptions};
pub use daemon::{Daemon, ServeConfig};
pub use job::{run_job, JobOptions, JobOutcome, JobRequest, JobSpec};
pub use lease::{Acquire, Lease, LeaseInfo};
pub use ledger::TenantLedger;
pub use protocol::{Request, WireError};
pub use state::{FleetStatus, JobState, Metrics, ServeState};

//! A blocking client for the daemon's wire protocol, used by the
//! end-to-end tests and by scripts driving a long-lived daemon.

use std::io::{self, BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};

use specwise_trace::json::{self, Json};
use specwise_trace::Record;

use crate::job::{JobOutcome, JobRequest};
use crate::protocol::{is_end_marker, write_line, Request};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The daemon sent something the client cannot interpret.
    Protocol(String),
    /// The daemon answered with a structured error.
    Server {
        /// Machine-readable category (see
        /// [`WireError`](crate::protocol::WireError)).
        kind: String,
        /// Human-readable detail.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "I/O error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { kind, message } => write!(f, "server error ({kind}): {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Per-submission options; unset fields take the daemon's defaults.
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Tenant name (`"default"` when empty); jobs of one tenant share
    /// one simulation budget.
    pub tenant: String,
    /// RNG seed override.
    pub seed: Option<u64>,
    /// Monte-Carlo samples on the linearized models.
    pub mc_samples: Option<u64>,
    /// Verification samples per snapshot (0 disables).
    pub verify_samples: Option<u64>,
    /// Optimizer iterations.
    pub max_iterations: Option<u64>,
    /// Verification estimator (`"mc"` | `"is"` | `"norm-min"`); unset
    /// takes plain Monte Carlo.
    pub estimator: Option<String>,
}

/// A connected client. One request runs at a time per connection; open
/// several clients for concurrent submissions.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a daemon. The socket sends each framed message at
    /// once (`TCP_NODELAY`): the protocol frames its own messages, so
    /// Nagle's algorithm would only add delay.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        write_line(&mut self.writer, &req.to_line())?;
        Ok(())
    }

    fn read_json(&mut self) -> Result<Json, ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Protocol("daemon closed the connection".into()));
        }
        json::parse(line.trim_end())
            .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))
    }

    /// Reads one response and converts `{"ok":false,...}` into
    /// [`ClientError::Server`].
    fn read_ok(&mut self) -> Result<Json, ClientError> {
        let j = self.read_json()?;
        match j.get("ok") {
            Some(Json::Bool(true)) => Ok(j),
            Some(Json::Bool(false)) => {
                let err = j.get("error");
                let get = |key: &str| {
                    err.and_then(|e| e.get(key))
                        .and_then(Json::as_str)
                        .unwrap_or("unknown")
                        .to_owned()
                };
                Err(ClientError::Server {
                    kind: get("kind"),
                    message: get("message"),
                })
            }
            _ => Err(ClientError::Protocol(
                "response is missing the \"ok\" field".into(),
            )),
        }
    }

    /// Submits a deck; returns the daemon-assigned job id.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] of kind `"deck"` when the deck is
    /// rejected at the ingestion boundary.
    pub fn submit(&mut self, deck: &str, opts: &SubmitOptions) -> Result<String, ClientError> {
        let tenant = if opts.tenant.is_empty() {
            "default".to_owned()
        } else {
            opts.tenant.clone()
        };
        let mut request = JobRequest::new(deck.to_owned(), tenant);
        request.seed = opts.seed;
        request.mc_samples = opts.mc_samples;
        request.verify_samples = opts.verify_samples;
        request.max_iterations = opts.max_iterations;
        request.estimator = opts.estimator.clone();
        self.send(&Request::Submit(request))?;
        let j = self.read_ok()?;
        j.get("job")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| ClientError::Protocol("submit response lacks a job id".into()))
    }

    /// Fetches the parsed `status` response (job table + metrics).
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn status(&mut self) -> Result<Json, ClientError> {
        self.send(&Request::Status)?;
        self.read_ok()
    }

    /// Polls a job without blocking: its state string plus the outcome
    /// once done.
    ///
    /// # Errors
    ///
    /// `"unknown-job"` for never-submitted ids.
    pub fn poll(&mut self, job: &str) -> Result<(String, Option<JobOutcome>), ClientError> {
        self.send(&Request::Result {
            job: job.to_owned(),
            wait: false,
        })?;
        let j = self.read_ok()?;
        let state = j
            .get("state")
            .and_then(Json::as_str)
            .ok_or_else(|| ClientError::Protocol("result response lacks a state".into()))?
            .to_owned();
        let outcome = match j.get("outcome") {
            Some(out) => Some(JobOutcome::from_json(out).map_err(ClientError::Protocol)?),
            None => None,
        };
        Ok((state, outcome))
    }

    /// Blocks until the job settles and returns its outcome.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] of kind `"job-failed"` when the job
    /// settled with an error, `"unknown-job"` for never-submitted ids.
    pub fn result_wait(&mut self, job: &str) -> Result<JobOutcome, ClientError> {
        self.send(&Request::Result {
            job: job.to_owned(),
            wait: true,
        })?;
        let j = self.read_ok()?;
        match j.get("outcome") {
            Some(out) => JobOutcome::from_json(out).map_err(ClientError::Protocol),
            None => {
                let message = j
                    .get("error")
                    .and_then(|e| e.get("message"))
                    .and_then(Json::as_str)
                    .unwrap_or("job settled without an outcome")
                    .to_owned();
                Err(ClientError::Server {
                    kind: "job-failed".into(),
                    message,
                })
            }
        }
    }

    /// Subscribes to a job's journal and collects the streamed records
    /// until the end-of-stream marker: the run's full Fig. 6 span tree
    /// (backlog plus live records, loss-free and in emission order). The
    /// daemon reads them from the job's spool mirror, polling every
    /// 50 ms. Returns the records and the job's final state string.
    ///
    /// # Errors
    ///
    /// `"unknown-job"` for never-submitted ids; protocol errors for
    /// undecodable records.
    pub fn subscribe(&mut self, job: &str) -> Result<(Vec<Record>, String), ClientError> {
        self.send(&Request::Subscribe {
            job: job.to_owned(),
        })?;
        self.read_ok()?;
        let mut records = Vec::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(ClientError::Protocol(
                    "stream ended without an end marker".into(),
                ));
            }
            let text = line.trim_end();
            if text.is_empty() {
                continue;
            }
            let j = json::parse(text)
                .map_err(|e| ClientError::Protocol(format!("unparseable stream line: {e}")))?;
            if is_end_marker(&j) {
                let state = j
                    .get("state")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_owned();
                return Ok((records, state));
            }
            let record = Record::from_json_str(text)
                .map_err(|e| ClientError::Protocol(format!("undecodable record: {e}")))?;
            records.push(record);
        }
    }
}

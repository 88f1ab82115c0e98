//! The wire protocol: line-delimited JSON over TCP.
//!
//! Every client→daemon request is one JSON object on one line; every
//! daemon→client response is one JSON object on one line carrying an
//! `"ok"` field. A [`Request::Subscribe`] additionally switches the
//! connection into streaming mode: the daemon forwards journal records
//! (one [`Record`](specwise_trace::Record) JSON line each, the exact
//! schema of the JSONL journal writer) until the job settles, then sends
//! an `{"end":true,...}` marker and returns to request/response mode.
//!
//! This is an untrusted-input boundary. Request lines are read through
//! [`read_line_bounded`] so a hostile peer cannot balloon memory with an
//! endless line, and [`Request::parse`] turns every malformed line into a
//! structured [`WireError`] instead of a panic or a dropped connection.

use std::io::{self, BufRead, Write};

use specwise_trace::json::{self, Json};

use crate::job::JobRequest;

/// Canonical command names of the wire protocol, in the order
/// `docs/PROTOCOL.md` documents them. [`Request::parse`] accepts exactly
/// these; the `protocol_docs` test cross-checks the document against
/// this list so the reference can never silently drift.
pub const COMMANDS: [&str; 4] = ["submit", "status", "result", "subscribe"];

/// Canonical error `kind` values a response can carry, in the order
/// `docs/PROTOCOL.md` documents them. Cross-checked by the
/// `protocol_docs` test like [`COMMANDS`].
pub const ERROR_KINDS: [&str; 6] = [
    "malformed",
    "bad-request",
    "oversized",
    "deck",
    "unknown-job",
    "job-failed",
];

/// Wire names of the job lifecycle states (see
/// [`JobState::as_str`](crate::state::JobState::as_str)), in lifecycle
/// order. Cross-checked by the `protocol_docs` test like [`COMMANDS`].
pub const JOB_STATES: [&str; 5] = ["queued", "running", "remote", "done", "failed"];

/// A structured protocol-level error, serialized on the wire as
/// `{"ok":false,"error":{"kind":...,"message":...}}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Stable machine-readable category: `"malformed"`, `"oversized"`,
    /// `"deck"`, `"unknown-job"`, `"bad-request"`, or `"job-failed"`.
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Creates an error of the given kind.
    pub fn new(kind: &str, message: impl Into<String>) -> WireError {
        WireError {
            kind: kind.into(),
            message: message.into(),
        }
    }

    /// The error as a one-line response (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = String::from("{\"ok\":false,\"error\":{\"kind\":");
        json::write_json_string(&mut out, &self.kind);
        out.push_str(",\"message\":");
        json::write_json_string(&mut out, &self.message);
        out.push_str("}}");
        out
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl std::error::Error for WireError {}

/// Outcome of one bounded line read.
#[derive(Debug)]
pub enum LineRead {
    /// A complete line within the size bound (terminator stripped).
    Line(String),
    /// The line exceeded the bound; the excess was drained up to the next
    /// terminator so the connection can keep serving requests.
    Oversized,
    /// The peer closed the connection.
    Eof,
}

/// Reads one `\n`-terminated line of at most `max_bytes` bytes.
///
/// Unlike [`BufRead::read_line`], this never buffers more than
/// `max_bytes + 1` bytes no matter what the peer sends. An oversized line
/// is consumed (discarded) through its terminator, so the caller can
/// report a structured error and continue with the next request.
///
/// # Errors
///
/// Propagates I/O errors from the underlying reader.
pub fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    max_bytes: usize,
    buf: &mut Vec<u8>,
) -> io::Result<LineRead> {
    buf.clear();
    let n = std::io::Read::take(&mut *reader, max_bytes as u64 + 1).read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    if buf.len() > max_bytes && !buf.ends_with(b"\n") {
        // Drain the rest of the oversized line so the stream re-syncs at
        // the next terminator.
        loop {
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                break;
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    reader.consume(pos + 1);
                    break;
                }
                None => {
                    let len = chunk.len();
                    reader.consume(len);
                }
            }
        }
        return Ok(LineRead::Oversized);
    }
    while buf.last() == Some(&b'\n') || buf.last() == Some(&b'\r') {
        buf.pop();
    }
    Ok(LineRead::Line(String::from_utf8_lossy(buf).into_owned()))
}

/// Writes one framed message: `line` and its `\n` terminator leave in a
/// single `write_all` of one buffer, then the writer is flushed.
///
/// A terminator sent in a separate small write would be held back by
/// Nagle's algorithm until the peer ACKs the line, and the peer delays
/// that ACK because it is still waiting for the terminator.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_line<W: Write>(w: &mut W, line: &str) -> io::Result<()> {
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    w.write_all(&framed)?;
    w.flush()
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit an annotated deck as a new job.
    Submit(JobRequest),
    /// Daemon status: job table, cache hit rate, per-tenant sim counts.
    Status,
    /// Fetch a job's result, optionally blocking until it settles.
    Result {
        /// Job id returned by submit.
        job: String,
        /// Block until the job is done or failed.
        wait: bool,
    },
    /// Stream the job's journal records (backlog + live) to this client,
    /// read from the job's spool mirror.
    Subscribe {
        /// Job id returned by submit.
        job: String,
    },
}

fn req_str(j: &Json, key: &str) -> Option<String> {
    j.get(key).and_then(Json::as_str).map(str::to_owned)
}

fn req_u64(j: &Json, key: &str, out: &mut Option<u64>) -> Result<(), WireError> {
    match j.get(key) {
        None | Some(Json::Null) => Ok(()),
        Some(v) => match v.as_u64() {
            Some(n) => {
                *out = Some(n);
                Ok(())
            }
            None => Err(WireError::new(
                "bad-request",
                format!("field {key:?} must be a non-negative integer"),
            )),
        },
    }
}

fn req_bool(j: &Json, key: &str, default: bool) -> Result<bool, WireError> {
    match j.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(WireError::new(
            "bad-request",
            format!("field {key:?} must be a boolean"),
        )),
    }
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] of kind `"malformed"` for invalid JSON and
    /// `"bad-request"` for a valid object with a missing/unknown `cmd` or
    /// ill-typed fields. Never panics on any input.
    pub fn parse(line: &str) -> Result<Request, WireError> {
        let j = json::parse(line)
            .map_err(|e| WireError::new("malformed", format!("invalid JSON request: {e}")))?;
        let cmd = req_str(&j, "cmd")
            .ok_or_else(|| WireError::new("bad-request", "missing string field \"cmd\""))?;
        match cmd.as_str() {
            "submit" => {
                let deck = req_str(&j, "deck").ok_or_else(|| {
                    WireError::new("bad-request", "submit requires a string field \"deck\"")
                })?;
                let tenant = req_str(&j, "tenant").unwrap_or_else(|| "default".to_owned());
                let mut req = JobRequest::new(deck, tenant);
                req_u64(&j, "seed", &mut req.seed)?;
                req_u64(&j, "mc_samples", &mut req.mc_samples)?;
                req_u64(&j, "verify_samples", &mut req.verify_samples)?;
                req_u64(&j, "max_iterations", &mut req.max_iterations)?;
                match j.get("estimator") {
                    None | Some(Json::Null) => {}
                    Some(v) => match v.as_str() {
                        Some(name) => req.estimator = Some(name.to_owned()),
                        None => {
                            return Err(WireError::new(
                                "bad-request",
                                "field \"estimator\" must be a string (mc | is | norm-min)",
                            ))
                        }
                    },
                }
                Ok(Request::Submit(req))
            }
            "status" => Ok(Request::Status),
            "result" => {
                let job = req_str(&j, "job").ok_or_else(|| {
                    WireError::new("bad-request", "result requires a string field \"job\"")
                })?;
                let wait = req_bool(&j, "wait", false)?;
                Ok(Request::Result { job, wait })
            }
            "subscribe" => {
                let job = req_str(&j, "job").ok_or_else(|| {
                    WireError::new("bad-request", "subscribe requires a string field \"job\"")
                })?;
                Ok(Request::Subscribe { job })
            }
            other => Err(WireError::new(
                "bad-request",
                format!("unknown cmd {other:?} (expected submit/status/result/subscribe)"),
            )),
        }
    }

    /// The request as a one-line JSON string (no trailing newline) — the
    /// inverse of [`Request::parse`], used by the client.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        match self {
            Request::Submit(req) => {
                out.push_str("{\"cmd\":\"submit\",\"deck\":");
                json::write_json_string(&mut out, &req.deck);
                out.push_str(",\"tenant\":");
                json::write_json_string(&mut out, &req.tenant);
                for (key, val) in [
                    ("seed", req.seed),
                    ("mc_samples", req.mc_samples),
                    ("verify_samples", req.verify_samples),
                    ("max_iterations", req.max_iterations),
                ] {
                    if let Some(n) = val {
                        out.push_str(&format!(",\"{key}\":{n}"));
                    }
                }
                if let Some(name) = &req.estimator {
                    out.push_str(",\"estimator\":");
                    json::write_json_string(&mut out, name);
                }
                out.push('}');
            }
            Request::Status => out.push_str("{\"cmd\":\"status\"}"),
            Request::Result { job, wait } => {
                out.push_str("{\"cmd\":\"result\",\"job\":");
                json::write_json_string(&mut out, job);
                out.push_str(&format!(",\"wait\":{wait}}}"));
            }
            Request::Subscribe { job } => {
                out.push_str("{\"cmd\":\"subscribe\",\"job\":");
                json::write_json_string(&mut out, job);
                out.push('}');
            }
        }
        out
    }
}

/// `true` when a streamed line is the `{"end":...}` marker that closes a
/// subscription, rather than a journal record.
pub fn is_end_marker(j: &Json) -> bool {
    matches!(j.get("end"), Some(Json::Bool(true)))
}

/// Renders the end-of-stream marker for a settled job.
pub fn end_marker(job: &str, state: &str) -> String {
    let mut out = String::from("{\"end\":true,\"job\":");
    json::write_json_string(&mut out, job);
    out.push_str(",\"state\":");
    json::write_json_string(&mut out, state);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn bounded_reader_accepts_small_rejects_huge_and_resyncs() {
        let mut input = Vec::new();
        input.extend_from_slice(b"short line\n");
        input.extend_from_slice(&vec![b'x'; 5000]);
        input.extend_from_slice(b"\nafter\n");
        let mut r = BufReader::new(&input[..]);
        let mut buf = Vec::new();
        assert!(matches!(
            read_line_bounded(&mut r, 1024, &mut buf).unwrap(),
            LineRead::Line(ref s) if s == "short line"
        ));
        assert!(matches!(
            read_line_bounded(&mut r, 1024, &mut buf).unwrap(),
            LineRead::Oversized
        ));
        // The oversized line was drained: the next read sees "after".
        assert!(matches!(
            read_line_bounded(&mut r, 1024, &mut buf).unwrap(),
            LineRead::Line(ref s) if s == "after"
        ));
        assert!(matches!(
            read_line_bounded(&mut r, 1024, &mut buf).unwrap(),
            LineRead::Eof
        ));
    }

    #[test]
    fn bounded_reader_edge_cases() {
        // Exactly max bytes + newline is fine.
        let input = b"aaaa\n";
        let mut r = BufReader::new(&input[..]);
        let mut buf = Vec::new();
        assert!(matches!(
            read_line_bounded(&mut r, 4, &mut buf).unwrap(),
            LineRead::Line(ref s) if s == "aaaa"
        ));
        // An unterminated final line within bounds still parses.
        let input = b"tail";
        let mut r = BufReader::new(&input[..]);
        assert!(matches!(
            read_line_bounded(&mut r, 16, &mut buf).unwrap(),
            LineRead::Line(ref s) if s == "tail"
        ));
        // An unterminated oversized line hits EOF while draining.
        let input = [b'y'; 64];
        let mut r = BufReader::new(&input[..]);
        assert!(matches!(
            read_line_bounded(&mut r, 8, &mut buf).unwrap(),
            LineRead::Oversized
        ));
        assert!(matches!(
            read_line_bounded(&mut r, 8, &mut buf).unwrap(),
            LineRead::Eof
        ));
    }

    #[test]
    fn requests_round_trip_through_their_lines() {
        let mut req = JobRequest::new("vdd vdd 0 3.3".to_owned(), "acme".to_owned());
        req.seed = Some(7);
        req.mc_samples = Some(2000);
        req.estimator = Some("norm-min".to_owned());
        let reqs = [
            Request::Submit(req),
            Request::Status,
            Request::Result {
                job: "job-0001".into(),
                wait: true,
            },
            Request::Subscribe {
                job: "job-0002".into(),
            },
        ];
        for r in &reqs {
            assert_eq!(&Request::parse(&r.to_line()).unwrap(), r);
        }
    }

    #[test]
    fn hostile_request_lines_yield_structured_errors() {
        for (line, kind) in [
            ("not json at all", "malformed"),
            ("{\"cmd\":42}", "bad-request"),
            ("{\"no\":\"cmd\"}", "bad-request"),
            ("{\"cmd\":\"launch-missiles\"}", "bad-request"),
            ("{\"cmd\":\"submit\"}", "bad-request"),
            (
                "{\"cmd\":\"submit\",\"deck\":\"x\",\"seed\":\"NaN\"}",
                "bad-request",
            ),
            (
                "{\"cmd\":\"submit\",\"deck\":\"x\",\"estimator\":42}",
                "bad-request",
            ),
            ("{\"cmd\":\"result\"}", "bad-request"),
            (
                "{\"cmd\":\"result\",\"job\":\"j\",\"wait\":\"yes\"}",
                "bad-request",
            ),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.kind, kind, "line {line:?}");
            // The error itself serializes to a parseable response line.
            let j = json::parse(&err.to_line()).unwrap();
            assert_eq!(j.get("ok"), Some(&Json::Bool(false)));
        }
    }

    #[test]
    fn canonical_name_tables_match_the_implementation() {
        // Every canonical command is recognized (it may still want more
        // fields, but never bounces as an unknown command) …
        for cmd in COMMANDS {
            if let Err(e) = Request::parse(&format!("{{\"cmd\":\"{cmd}\"}}")) {
                assert!(!e.message.contains("unknown cmd"), "{cmd}: {e}");
            }
        }
        // … and the unknown-command error names exactly the table.
        let err = Request::parse("{\"cmd\":\"nope\"}").unwrap_err();
        for cmd in COMMANDS {
            assert!(err.message.contains(cmd), "error must list {cmd:?}: {err}");
        }
        use crate::state::JobState;
        assert_eq!(
            JOB_STATES,
            [
                JobState::Queued,
                JobState::Running,
                JobState::Remote,
                JobState::Done,
                JobState::Failed
            ]
            .map(|s| s.as_str())
        );
    }

    /// Counts `write` calls and keeps what they carried.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
        flushes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn write_line_frames_each_message_in_one_write() {
        let mut w = CountingWriter::default();
        write_line(&mut w, "{\"cmd\":\"status\"}").unwrap();
        write_line(&mut w, "").unwrap();
        assert_eq!(
            w.writes,
            vec![b"{\"cmd\":\"status\"}\n".to_vec(), b"\n".to_vec()]
        );
        assert_eq!(w.flushes, 2);
    }

    #[test]
    fn end_marker_is_recognizable() {
        let j = json::parse(&end_marker("job-0003", "done")).unwrap();
        assert!(is_end_marker(&j));
        assert_eq!(j.get("state").and_then(Json::as_str), Some("done"));
        let rec = json::parse("{\"type\":\"span\",\"name\":\"run\"}").unwrap();
        assert!(!is_end_marker(&rec));
    }
}

//! The journal sink: an append-only, thread-safe record store with an
//! optional streaming JSONL writer and export helpers.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use crate::json::{self, Json, TraceValue};

/// A completed span: a named, timed slice of the flow with attributes and
/// counters. Spans form a tree via [`SpanRecord::parent`]; the specwise
/// flow's span hierarchy mirrors the phase structure of the paper's Fig. 6
/// (see the crate-level docs).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Journal-unique id, assigned at span *open* time in a deterministic
    /// sequence (serial control flow ⇒ identical ids across runs).
    pub id: u64,
    /// Id of the enclosing span, `None` for a root span.
    pub parent: Option<u64>,
    /// Span name (e.g. `"wcd_spec"`, `"iteration"`, `"mc_verify"`).
    pub name: String,
    /// Small per-journal thread index (0 = first thread that emitted).
    pub thread: u64,
    /// Microseconds since journal creation when the span opened.
    pub start_us: u64,
    /// Microseconds since journal creation when the span closed.
    pub end_us: u64,
    /// Typed attributes (worst-case points, flags, estimator statistics …).
    pub attrs: Vec<(String, TraceValue)>,
    /// Monotonic counters accumulated over the span (e.g. `sims`,
    /// `cache_hits`, `retries`). Fixed settings such as the line search's
    /// `max_evals` are attributes, not counters.
    pub counters: Vec<(String, u64)>,
}

impl SpanRecord {
    /// Span duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&TraceValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Look up a counter by key.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
    }
}

/// A point-in-time event, optionally attached to an enclosing span
/// (e.g. one batch dispatched by the evaluation engine).
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Id of the span this event occurred inside, if any.
    pub span: Option<u64>,
    /// Event name (e.g. `"batch"`, `"step_rejected"`).
    pub name: String,
    /// Small per-journal thread index.
    pub thread: u64,
    /// Microseconds since journal creation.
    pub ts_us: u64,
    /// Typed attributes.
    pub attrs: Vec<(String, TraceValue)>,
}

/// One journal entry: either a completed [`SpanRecord`] or an [`EventRecord`].
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A completed span (recorded when the span closes).
    Span(SpanRecord),
    /// An instantaneous event.
    Event(EventRecord),
}

impl Record {
    /// The record as a single JSON line — the same schema the JSONL writer
    /// streams and [`Journal::from_jsonl`] parses (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_record_json(&mut out, self);
        out
    }

    /// Parse one record from its [`Record::to_json`] line.
    pub fn from_json_str(text: &str) -> Result<Record, JournalParseError> {
        let json = json::parse(text).map_err(|e| JournalParseError {
            line: 1,
            message: e.to_string(),
        })?;
        record_from_json(&json).map_err(|message| JournalParseError { line: 1, message })
    }
}

/// Error from [`Journal::from_jsonl`]: the offending line plus the cause.
#[derive(Debug, Clone)]
pub struct JournalParseError {
    /// 1-based line number in the JSONL input.
    pub line: usize,
    /// Description of what was malformed.
    pub message: String,
}

impl std::fmt::Display for JournalParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "journal line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for JournalParseError {}

struct Inner {
    records: Vec<Record>,
    writer: Option<BufWriter<File>>,
    /// Flush the writer after every record — set by
    /// [`Journal::attach_jsonl`] so readers tailing the file (e.g. a
    /// `specwise-serve` daemon streaming a `subscribe`) see lines as they
    /// are emitted rather than on buffer boundaries.
    flush_each: bool,
    path: Option<PathBuf>,
    threads: Vec<ThreadId>,
}

/// Thread-safe journal sink.
///
/// All records live in memory (for [`Journal::records`],
/// [`Journal::to_chrome_trace`], [`Journal::span_tree`] and
/// [`Journal::summary`]); when constructed with [`Journal::with_jsonl`]
/// each record is additionally streamed to a JSONL file as it completes.
///
/// Records are appended under a single mutex, so concurrent emission from
/// scoped-thread workers is loss-free, and records emitted by one thread
/// appear in that thread's emission order. Span *ids* are assigned at open
/// time from an atomic counter: under the serial control flow of the
/// specwise optimizer the id sequence — and therefore the whole journal
/// minus its `*_us` timestamp fields — is deterministic across runs.
///
/// Timestamps are monotonic microseconds since journal creation
/// (`std::time::Instant`), immune to wall-clock adjustments.
pub struct Journal {
    inner: Mutex<Inner>,
    next_span: AtomicU64,
    epoch: Instant,
}

impl Journal {
    /// A journal that only accumulates records in memory.
    pub fn in_memory() -> Journal {
        Journal {
            inner: Mutex::new(Inner {
                records: Vec::new(),
                writer: None,
                flush_each: false,
                path: None,
                threads: Vec::new(),
            }),
            next_span: AtomicU64::new(1),
            epoch: Instant::now(),
        }
    }

    /// A journal that additionally streams every record to `path` as one
    /// JSON object per line (JSONL), flushed on [`Journal::flush`] / drop.
    pub fn with_jsonl<P: AsRef<Path>>(path: P) -> std::io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        let journal = Journal::in_memory();
        {
            let inner = &mut *journal.inner.lock().expect("new mutex");
            inner.writer = Some(BufWriter::new(file));
            inner.path = Some(path);
        }
        Ok(journal)
    }

    /// Attach (or replace) a streaming JSONL sink on a live journal.
    ///
    /// The file is created (truncating any previous content), the journal's
    /// in-memory backlog is replayed into it — so the file always mirrors
    /// [`Journal::records`] from record zero — and every subsequent record
    /// is written *and flushed* as it is emitted, making the file tailable
    /// by other threads and processes in near-real time. `specwise-serve`
    /// uses this to mirror a job's journal into the shared spool; every
    /// `subscribe` stream, on any daemon in the fleet, reads that file.
    ///
    /// Replay and registration happen under the same lock acquisition that
    /// serializes record emission, so no record is skipped or duplicated
    /// around the attach point.
    pub fn attach_jsonl<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        let path = path.as_ref().to_path_buf();
        let mut inner = self.inner.lock().expect("journal lock");
        let file = File::create(&path)?;
        let mut writer = BufWriter::new(file);
        let mut line = String::new();
        for record in &inner.records {
            line.clear();
            write_record_json(&mut line, record);
            line.push('\n');
            writer.write_all(line.as_bytes())?;
        }
        writer.flush()?;
        inner.writer = Some(writer);
        inner.flush_each = true;
        inner.path = Some(path);
        Ok(())
    }

    /// The JSONL path, when streaming via [`Journal::with_jsonl`] or
    /// [`Journal::attach_jsonl`].
    pub fn path(&self) -> Option<PathBuf> {
        self.inner.lock().expect("journal lock").path.clone()
    }

    /// Monotonic microseconds since this journal was created.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Reserve the next span id (deterministic under serial control flow).
    pub(crate) fn next_span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Append a record (and stream it to the JSONL writer, if any).
    pub(crate) fn record(&self, mut record: Record) {
        let mut inner = self.inner.lock().expect("journal lock");
        let thread = thread_index(&mut inner.threads);
        match &mut record {
            Record::Span(span) => span.thread = thread,
            Record::Event(event) => event.thread = thread,
        }
        if inner.writer.is_some() {
            let mut line = String::new();
            write_record_json(&mut line, &record);
            line.push('\n');
            let flush_each = inner.flush_each;
            if let Some(writer) = inner.writer.as_mut() {
                let _ = writer.write_all(line.as_bytes());
                if flush_each {
                    let _ = writer.flush();
                }
            }
        }
        inner.records.push(record);
    }

    /// Number of records so far.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("journal lock").records.len()
    }

    /// `true` when no records have been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all records in completion order.
    pub fn records(&self) -> Vec<Record> {
        self.inner.lock().expect("journal lock").records.clone()
    }

    /// Serialize all records as JSONL (one JSON object per line).
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner.lock().expect("journal lock");
        let mut out = String::new();
        for record in &inner.records {
            write_record_json(&mut out, record);
            out.push('\n');
        }
        out
    }

    /// Parse records back from JSONL produced by [`Journal::to_jsonl`] or
    /// the streaming writer.
    ///
    /// Integral float attributes are reconstructed as integer variants
    /// (JSON does not distinguish `3` from `3.0` after parsing); all other
    /// fields round-trip exactly.
    pub fn from_jsonl(input: &str) -> Result<Vec<Record>, JournalParseError> {
        let mut records = Vec::new();
        for (idx, line) in input.lines().enumerate() {
            let line_no = idx + 1;
            if line.trim().is_empty() {
                continue;
            }
            let json = json::parse(line).map_err(|e| JournalParseError {
                line: line_no,
                message: e.to_string(),
            })?;
            records.push(
                record_from_json(&json).map_err(|message| JournalParseError {
                    line: line_no,
                    message,
                })?,
            );
        }
        Ok(records)
    }

    /// Export the journal in the Chrome Trace Event Format understood by
    /// `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): spans
    /// become complete (`"ph":"X"`) events with microsecond `ts`/`dur`,
    /// events become thread-scoped instants (`"ph":"i"`), and span
    /// attributes/counters land in `args`.
    pub fn to_chrome_trace(&self) -> String {
        let inner = self.inner.lock().expect("journal lock");
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for record in &inner.records {
            if !first {
                out.push(',');
            }
            first = false;
            match record {
                Record::Span(span) => {
                    out.push_str("{\"name\":");
                    json::write_json_string(&mut out, &span.name);
                    let _ = write!(
                        out,
                        ",\"cat\":\"specwise\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}",
                        span.start_us,
                        span.duration_us(),
                        span.thread
                    );
                    out.push_str(",\"args\":{");
                    let _ = write!(out, "\"span_id\":{}", span.id);
                    if let Some(parent) = span.parent {
                        let _ = write!(out, ",\"parent_id\":{parent}");
                    }
                    for (key, value) in &span.attrs {
                        out.push(',');
                        json::write_json_string(&mut out, key);
                        out.push(':');
                        value.write_json(&mut out);
                    }
                    for (key, value) in &span.counters {
                        out.push(',');
                        json::write_json_string(&mut out, key);
                        let _ = write!(out, ":{value}");
                    }
                    out.push_str("}}");
                }
                Record::Event(event) => {
                    out.push_str("{\"name\":");
                    json::write_json_string(&mut out, &event.name);
                    let _ = write!(
                        out,
                        ",\"cat\":\"specwise\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{}",
                        event.ts_us, event.thread
                    );
                    out.push_str(",\"args\":{");
                    let mut first_arg = true;
                    if let Some(span) = event.span {
                        let _ = write!(out, "\"span_id\":{span}");
                        first_arg = false;
                    }
                    for (key, value) in &event.attrs {
                        if !first_arg {
                            out.push(',');
                        }
                        first_arg = false;
                        json::write_json_string(&mut out, key);
                        out.push(':');
                        value.write_json(&mut out);
                    }
                    out.push_str("}}");
                }
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Write [`Journal::to_chrome_trace`] to `path`.
    pub fn write_chrome_trace<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_trace())
    }

    /// Build the span forest (roots with nested children, ordered by span
    /// id, i.e. by open time under serial control flow).
    pub fn span_tree(&self) -> Vec<SpanNode> {
        let mut spans: Vec<SpanRecord> = self
            .records()
            .into_iter()
            .filter_map(|r| match r {
                Record::Span(s) => Some(s),
                Record::Event(_) => None,
            })
            .collect();
        spans.sort_by_key(|s| s.id);
        build_forest(None, &spans)
    }

    /// Human-readable run summary: the span tree with wall time and the
    /// `sims` counter per span. This is what the examples print after a
    /// traced run.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        if let Some(path) = self.path() {
            let _ = writeln!(out, "trace journal: {}", path.display());
        }
        let _ = writeln!(out, "{:<44} {:>10} {:>9}", "span", "wall", "sims");
        for root in self.span_tree() {
            summarize_node(&mut out, &root, 0);
        }
        out
    }

    /// Flush the JSONL writer (no-op for in-memory journals).
    pub fn flush(&self) {
        let mut inner = self.inner.lock().expect("journal lock");
        if let Some(writer) = inner.writer.as_mut() {
            let _ = writer.flush();
        }
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        if let Ok(inner) = self.inner.get_mut() {
            if let Some(writer) = inner.writer.as_mut() {
                let _ = writer.flush();
            }
        }
    }
}

/// A node of the span forest returned by [`Journal::span_tree`].
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The span itself.
    pub span: SpanRecord,
    /// Child spans, ordered by id.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Depth-first search for the first descendant (or self) with `name`.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.span.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Names of the direct children, in order.
    pub fn child_names(&self) -> Vec<&str> {
        self.children.iter().map(|c| c.span.name.as_str()).collect()
    }
}

fn build_forest(parent: Option<u64>, spans: &[SpanRecord]) -> Vec<SpanNode> {
    spans
        .iter()
        .filter(|s| s.parent == parent)
        .map(|s| SpanNode {
            span: s.clone(),
            children: build_forest(Some(s.id), spans),
        })
        .collect()
}

fn summarize_node(out: &mut String, node: &SpanNode, depth: usize) {
    let indent = "  ".repeat(depth);
    let label = format!(
        "{}{}{}",
        indent,
        if depth > 0 { "- " } else { "" },
        node.span.name
    );
    let wall = format_duration(node.span.duration_us());
    let sims = node
        .span
        .counter("sims")
        .map(|n| n.to_string())
        .unwrap_or_else(|| "-".to_string());
    let _ = writeln!(out, "{label:<44} {wall:>10} {sims:>9}");
    for child in &node.children {
        summarize_node(out, child, depth + 1);
    }
}

fn format_duration(us: u64) -> String {
    if us >= 10_000_000 {
        format!("{:.1} s", us as f64 / 1.0e6)
    } else if us >= 10_000 {
        format!("{:.1} ms", us as f64 / 1.0e3)
    } else {
        format!("{us} us")
    }
}

fn thread_index(threads: &mut Vec<ThreadId>) -> u64 {
    let id = std::thread::current().id();
    match threads.iter().position(|t| *t == id) {
        Some(idx) => idx as u64,
        None => {
            threads.push(id);
            (threads.len() - 1) as u64
        }
    }
}

fn write_record_json(out: &mut String, record: &Record) {
    match record {
        Record::Span(span) => {
            out.push_str("{\"type\":\"span\",\"id\":");
            let _ = write!(out, "{}", span.id);
            if let Some(parent) = span.parent {
                let _ = write!(out, ",\"parent\":{parent}");
            }
            out.push_str(",\"name\":");
            json::write_json_string(out, &span.name);
            let _ = write!(
                out,
                ",\"thread\":{},\"start_us\":{},\"end_us\":{}",
                span.thread, span.start_us, span.end_us
            );
            write_kv_object(out, ",\"attrs\":{", &span.attrs, !span.attrs.is_empty());
            if !span.counters.is_empty() {
                out.push_str(",\"counters\":{");
                for (i, (key, value)) in span.counters.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::write_json_string(out, key);
                    let _ = write!(out, ":{value}");
                }
                out.push('}');
            }
            out.push('}');
        }
        Record::Event(event) => {
            out.push_str("{\"type\":\"event\",\"name\":");
            json::write_json_string(out, &event.name);
            if let Some(span) = event.span {
                let _ = write!(out, ",\"span\":{span}");
            }
            let _ = write!(
                out,
                ",\"thread\":{},\"ts_us\":{}",
                event.thread, event.ts_us
            );
            write_kv_object(out, ",\"attrs\":{", &event.attrs, !event.attrs.is_empty());
            out.push('}');
        }
    }
}

fn write_kv_object(
    out: &mut String,
    prefix: &str,
    pairs: &[(String, TraceValue)],
    non_empty: bool,
) {
    if !non_empty {
        return;
    }
    out.push_str(prefix);
    for (i, (key, value)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_json_string(out, key);
        out.push(':');
        value.write_json(out);
    }
    out.push('}');
}

fn record_from_json(json: &Json) -> Result<Record, String> {
    let kind = json
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing \"type\" field".to_string())?;
    let name = json
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing \"name\" field".to_string())?
        .to_string();
    let thread = json.get("thread").and_then(Json::as_u64).unwrap_or(0);
    let attrs = kv_pairs_from_json(json.get("attrs"))?;
    match kind {
        "span" => {
            let id = json
                .get("id")
                .and_then(Json::as_u64)
                .ok_or_else(|| "span missing \"id\"".to_string())?;
            let counters = match json.get("counters") {
                None => Vec::new(),
                Some(Json::Obj(map)) => map
                    .iter()
                    .map(|(k, v)| {
                        v.as_u64()
                            .map(|n| (k.clone(), n))
                            .ok_or_else(|| format!("counter {k:?} is not an integer"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                Some(_) => return Err("\"counters\" is not an object".to_string()),
            };
            Ok(Record::Span(SpanRecord {
                id,
                parent: json.get("parent").and_then(Json::as_u64),
                name,
                thread,
                start_us: json.get("start_us").and_then(Json::as_u64).unwrap_or(0),
                end_us: json.get("end_us").and_then(Json::as_u64).unwrap_or(0),
                attrs,
                counters,
            }))
        }
        "event" => Ok(Record::Event(EventRecord {
            span: json.get("span").and_then(Json::as_u64),
            name,
            thread,
            ts_us: json.get("ts_us").and_then(Json::as_u64).unwrap_or(0),
            attrs,
        })),
        other => Err(format!("unknown record type {other:?}")),
    }
}

fn kv_pairs_from_json(json: Option<&Json>) -> Result<Vec<(String, TraceValue)>, String> {
    match json {
        None => Ok(Vec::new()),
        Some(Json::Obj(map)) => map
            .iter()
            .map(|(k, v)| {
                TraceValue::from_json(v)
                    .map(|value| (k.clone(), value))
                    .ok_or_else(|| format!("attribute {k:?} has unsupported shape"))
            })
            .collect(),
        Some(_) => Err("\"attrs\" is not an object".to_string()),
    }
}

//! `specwise-trace` — a structured run journal for the specwise flow.
//!
//! The paper's flow (Fig. 6) is a long pipeline — feasibility search →
//! per-spec worst-case operating/statistical points → spec-wise
//! linearization → feasibility-guided optimization → MC/IS verification —
//! and this crate gives every phase a machine-readable record: a tree of
//! named [`Span`]s with monotonic timestamps, typed attributes (worst-case
//! points `θ_wc`/`ŝ_wc`, worst-case distances `β_wc`, accepted/rejected
//! flags, estimator variances) and per-span counters (simulator calls,
//! batches, retries) that absorb the `SimCounter`/`ExecReport`
//! attribution from `specwise-exec`.
//!
//! # Design
//!
//! * **Zero dependencies.** JSON is written and parsed by a small built-in
//!   module ([`json`]); everything else is `std`.
//! * **Opt-in, zero overhead when off.** The flow threads a [`Tracer`]
//!   handle through its entry points. [`Tracer::disabled`] (the default)
//!   makes every emission a single branch; [`Tracer::from_env`] enables
//!   journaling when `SPECWISE_TRACE=path.jsonl` is set.
//! * **Deterministic modulo timestamps.** Span ids are assigned in open
//!   order; under the optimizer's serial control flow two bit-identical
//!   runs produce journals that differ only in `*_us` fields.
//! * **Thread-safe.** The [`Journal`] sink appends under one mutex, so
//!   scoped-thread workers can emit concurrently without losing records,
//!   and each thread's records stay in its emission order.
//!
//! # Output formats
//!
//! A run serializes to one JSONL file (one record per line, streamed as
//! spans complete) and exports to the Chrome Trace Event Format via
//! [`Journal::to_chrome_trace`] for flamegraph-style inspection in
//! `chrome://tracing` or Perfetto.
//!
//! # The specwise span hierarchy
//!
//! When the yield optimizer runs with a tracer attached it emits (see
//! `docs/ARCHITECTURE.md` for the full walkthrough):
//!
//! ```text
//! run
//! ├─ feasible_start          Gauss–Newton projection onto c(d) ≥ 0
//! ├─ wc_analysis
//! │  ├─ corners              per-spec worst-case θ_wc (Eq. 2)
//! │  ├─ wcd_spec  × n_specs  worst-case distance search (Eq. 8): θ_wc, ŝ_wc, β_wc
//! │  └─ linearize × n_specs  FD gradient batches → spec-wise models (Eq. 16)
//! ├─ iteration    × n_iters  accepted/rejected, base/best bad-sample counts
//! │  ├─ constraints          linearized sizing rules c(d) ≥ 0 (Eq. 15)
//! │  ├─ coordinate_search    model-yield maximization (Eqs. 17–20)
//! │  ├─ line_search          pull-back onto feasibility (Eq. 23)
//! │  └─ wc_analysis          relinearization at the new point
//! └─ mc_verify / is_verify / norm_min_verify
//!                            Eqs. 6–7 MC, mean-shift IS (an extension), or
//!                            norm-minimization IS — one root span per
//!                            verification, emitted by the shared
//!                            estimator driver
//! ```
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use specwise_trace::{Journal, Tracer};
//!
//! let journal = Arc::new(Journal::in_memory());
//! let tracer = Tracer::new(Arc::clone(&journal));
//! {
//!     let mut run = tracer.span("run");
//!     let child = run.tracer();
//!     {
//!         let mut wcd = child.span("wcd_spec");
//!         wcd.set_attr("spec", 0usize);
//!         wcd.set_attr("beta_wc", 3.2);
//!         wcd.add_count("sims", 41);
//!     }
//!     run.add_count("sims", 41);
//! }
//! let tree = journal.span_tree();
//! assert_eq!(tree[0].span.name, "run");
//! assert_eq!(tree[0].children[0].span.name, "wcd_spec");
//! let parsed = Journal::from_jsonl(&journal.to_jsonl()).unwrap();
//! assert_eq!(parsed.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod journal;
pub mod json;
mod tracer;

pub use journal::{EventRecord, Journal, JournalParseError, Record, SpanNode, SpanRecord};
pub use json::{Json, JsonError, TraceValue};
pub use tracer::{Span, Tracer, TRACE_ENV_VAR};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn normalized(mut record: Record) -> Record {
        // JSON objects do not preserve key order, so compare attribute
        // lists order-insensitively.
        match &mut record {
            Record::Span(s) => {
                s.attrs.sort_by(|a, b| a.0.cmp(&b.0));
                s.counters.sort_by(|a, b| a.0.cmp(&b.0));
            }
            Record::Event(e) => e.attrs.sort_by(|a, b| a.0.cmp(&b.0)),
        }
        record
    }

    fn sample_journal() -> Arc<Journal> {
        let journal = Arc::new(Journal::in_memory());
        let tracer = Tracer::new(Arc::clone(&journal));
        let mut run = tracer.span("run");
        let inner = run.tracer();
        {
            let mut feas = inner.span("feasible_start");
            feas.set_attr("converged", true);
            feas.add_count("sims", 12);
        }
        for spec in 0..3usize {
            let mut wcd = inner.span("wcd_spec");
            wcd.set_attr("spec", spec);
            wcd.set_attr("name", format!("spec{spec}"));
            wcd.set_attr("beta_wc", 1.5 + spec as f64 + 0.25);
            wcd.set_attr("s_wc", vec![0.5, -0.5, 0.125 * spec as f64]);
            wcd.add_count("sims", 40 + spec as u64);
            wcd.tracer().event("fd_batch", &[("points", 8usize.into())]);
        }
        run.set_attr("label", "unit-test \"run\"\n");
        run.add_count("sims", 135);
        drop(run);
        journal
    }

    #[test]
    fn jsonl_round_trip_preserves_records() {
        let journal = sample_journal();
        let text = journal.to_jsonl();
        let parsed = Journal::from_jsonl(&text).expect("journal parses");
        let original = journal.records();
        assert_eq!(parsed.len(), original.len());
        for (a, b) in original.into_iter().zip(parsed) {
            assert_eq!(normalized(a), normalized(b));
        }
    }

    #[test]
    fn jsonl_parse_reports_line_numbers() {
        let err = Journal::from_jsonl("{\"type\":\"span\",\"id\":1,\"name\":\"x\"}\nnot json\n")
            .unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn chrome_trace_is_schema_valid() {
        let journal = sample_journal();
        let doc = json::parse(&journal.to_chrome_trace()).expect("chrome export is valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert_eq!(events.len(), journal.len());
        for event in events {
            // Required Trace Event Format fields.
            assert!(event.get("name").and_then(Json::as_str).is_some());
            let ph = event.get("ph").and_then(Json::as_str).unwrap();
            assert!(event.get("ts").and_then(Json::as_u64).is_some());
            assert!(event.get("pid").and_then(Json::as_u64).is_some());
            assert!(event.get("tid").and_then(Json::as_u64).is_some());
            match ph {
                "X" => assert!(event.get("dur").and_then(Json::as_u64).is_some()),
                "i" => assert_eq!(event.get("s").and_then(Json::as_str), Some("t")),
                other => panic!("unexpected phase {other:?}"),
            }
        }
        // The wcd_spec spans carry their worst-case attributes into args.
        let wcd = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("wcd_spec"))
            .unwrap();
        let args = wcd.get("args").unwrap();
        assert!(args.get("beta_wc").and_then(Json::as_f64).is_some());
        assert_eq!(
            args.get("s_wc").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert!(args.get("sims").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn concurrent_emission_is_loss_free_and_ordered_per_thread() {
        const THREADS: usize = 8;
        const SPANS_PER_THREAD: usize = 200;
        let journal = Arc::new(Journal::in_memory());
        let tracer = Tracer::new(Arc::clone(&journal));
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let tracer = tracer.clone();
                scope.spawn(move || {
                    for j in 0..SPANS_PER_THREAD {
                        let mut span = tracer.span("worker_span");
                        span.set_attr("worker", t);
                        span.set_attr("seq", j);
                    }
                });
            }
        });
        let records = journal.records();
        assert_eq!(records.len(), THREADS * SPANS_PER_THREAD, "no records lost");
        // Per worker, spans appear in that worker's emission order.
        let mut last_seq = [None::<u64>; THREADS];
        for record in &records {
            let Record::Span(span) = record else {
                panic!("unexpected event")
            };
            let worker = match span.attr("worker") {
                Some(TraceValue::U64(w)) => *w as usize,
                other => panic!("bad worker attr {other:?}"),
            };
            let seq = match span.attr("seq") {
                Some(TraceValue::U64(s)) => *s,
                other => panic!("bad seq attr {other:?}"),
            };
            if let Some(prev) = last_seq[worker] {
                assert!(
                    seq > prev,
                    "worker {worker} out of order: {prev} then {seq}"
                );
            }
            last_seq[worker] = Some(seq);
        }
        // All span ids are distinct.
        let mut ids: Vec<u64> = records
            .iter()
            .map(|r| match r {
                Record::Span(s) => s.id,
                Record::Event(_) => unreachable!(),
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), THREADS * SPANS_PER_THREAD);
    }

    #[test]
    fn jsonl_file_streaming_matches_in_memory() {
        let dir = std::env::temp_dir().join("specwise-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("stream-{}.jsonl", std::process::id()));
        {
            let journal = Arc::new(Journal::with_jsonl(&path).unwrap());
            let tracer = Tracer::new(Arc::clone(&journal));
            {
                let mut span = tracer.span("run");
                span.add_count("sims", 3);
            }
            journal.flush();
            let on_disk = std::fs::read_to_string(&path).unwrap();
            assert_eq!(on_disk, journal.to_jsonl());
            assert_eq!(journal.path(), Some(path.clone()));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn attach_jsonl_replays_backlog_and_tails_live_records() {
        let dir = std::env::temp_dir().join("specwise-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("attach-{}.jsonl", std::process::id()));
        let journal = Arc::new(Journal::in_memory());
        let tracer = Tracer::new(Arc::clone(&journal));
        {
            let mut span = tracer.span("before_attach");
            span.add_count("sims", 1);
        }
        journal.attach_jsonl(&path).unwrap();
        // Backlog is already on disk, flushed, before any new record.
        let backlog = std::fs::read_to_string(&path).unwrap();
        assert_eq!(backlog.lines().count(), 1);
        assert!(backlog.contains("before_attach"));
        // Live records are flushed per-record: visible without an explicit
        // flush, which is what lets another process tail the file.
        tracer.event("after_attach", &[]);
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, journal.to_jsonl());
        let parsed = Journal::from_jsonl(&on_disk).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(journal.path(), Some(path.clone()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let mut span = tracer.span("ignored");
        assert!(!span.is_enabled());
        assert_eq!(span.id(), None);
        span.set_attr("x", 1.0);
        span.add_count("sims", 5);
        span.tracer().event("nothing", &[]);
        assert!(tracer.journal().is_none());
    }

    #[test]
    fn summary_renders_span_tree() {
        let journal = sample_journal();
        let summary = journal.summary();
        assert!(summary.contains("run"));
        assert!(summary.contains("- feasible_start"));
        assert!(summary.contains("- wcd_spec"));
        assert!(summary.contains("135"));
    }

    #[test]
    fn attached_jsonl_file_receives_concurrent_emitters_loss_free() {
        const THREADS: usize = 4;
        const EVENTS: usize = 100;
        let dir = std::env::temp_dir().join("specwise-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("concurrent-{}.jsonl", std::process::id()));
        let journal = Arc::new(Journal::in_memory());
        journal.attach_jsonl(&path).unwrap();
        let tracer = Tracer::new(Arc::clone(&journal));
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let tracer = tracer.clone();
                scope.spawn(move || {
                    for _ in 0..EVENTS {
                        tracer.event("tick", &[]);
                    }
                });
            }
        });
        // Each record is flushed as it is emitted, so a reader tailing the
        // file sees every line without waiting for the journal to drop.
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk.lines().count(), THREADS * EVENTS);
        assert_eq!(
            Journal::from_jsonl(&on_disk).unwrap().len(),
            THREADS * EVENTS
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_json_line_round_trips() {
        let journal = sample_journal();
        for record in journal.records() {
            let line = journal_line(&record);
            let parsed = Record::from_json_str(&line).expect("record parses");
            assert_eq!(normalized(record), normalized(parsed));
        }
        assert!(Record::from_json_str("not json").is_err());
        assert!(Record::from_json_str("{\"type\":\"mystery\",\"name\":\"x\"}").is_err());
    }

    fn journal_line(record: &Record) -> String {
        let line = record.to_json();
        assert!(!line.contains('\n'), "to_json must be a single line");
        line
    }

    #[test]
    fn span_ids_are_deterministic_in_serial_flow() {
        let ids = |journal: &Journal| -> Vec<(String, u64, Option<u64>)> {
            journal
                .records()
                .iter()
                .filter_map(|r| match r {
                    Record::Span(s) => Some((s.name.clone(), s.id, s.parent)),
                    Record::Event(_) => None,
                })
                .collect()
        };
        let a = sample_journal();
        let b = sample_journal();
        assert_eq!(ids(&a), ids(&b));
    }
}

//! Keeps `docs/PROTOCOL.md` honest: every canonical wire name the
//! implementation exports (commands, error kinds, job states) must be
//! documented, every command the document describes must exist in the
//! implementation, and the `status` and `result` examples must carry
//! exactly the keys the daemon sends. Run by the CI `serve` job.

use std::collections::BTreeSet;

use specwise_serve::protocol::{COMMANDS, ERROR_KINDS, JOB_STATES};
use specwise_serve::{FleetStatus, JobOptions, JobOutcome, JobSpec, ServeState};
use specwise_trace::json::{self, Json};

fn protocol_doc() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/PROTOCOL.md");
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("docs/PROTOCOL.md must exist ({}): {e}", path.display()))
}

#[test]
fn every_wire_name_is_documented() {
    let doc = protocol_doc();
    for cmd in COMMANDS {
        assert!(
            doc.contains(&format!("### `{cmd}`")),
            "PROTOCOL.md lacks a section for command {cmd:?}"
        );
    }
    for kind in ERROR_KINDS {
        assert!(
            doc.contains(&format!("`{kind}`")),
            "PROTOCOL.md does not document error kind {kind:?}"
        );
    }
    for state in JOB_STATES {
        assert!(
            doc.contains(&format!("`{state}`")),
            "PROTOCOL.md does not document job state {state:?}"
        );
    }
}

#[test]
fn every_documented_command_exists() {
    let doc = protocol_doc();
    // Command sections are `### `name`` headings; anything shaped like
    // one must name a real command.
    for line in doc.lines() {
        let Some(rest) = line.strip_prefix("### `") else {
            continue;
        };
        let Some(name) = rest.strip_suffix('`') else {
            continue;
        };
        assert!(
            COMMANDS.contains(&name),
            "PROTOCOL.md documents command {name:?}, which the implementation does not parse"
        );
    }
}

/// The example JSON of a command section's response: the last `json`
/// block under `### `command``.
fn documented_response(command: &str) -> Json {
    let doc = protocol_doc();
    let heading = format!("### `{command}`");
    let start = doc
        .find(&heading)
        .unwrap_or_else(|| panic!("PROTOCOL.md lacks {heading}"));
    let section = &doc[start + heading.len()..];
    let section = &section[..section.find("\n### ").unwrap_or(section.len())];
    let block = section
        .rsplit("```json\n")
        .next()
        .and_then(|b| b.split("```").next())
        .unwrap_or_else(|| panic!("{heading} has no json example"));
    json::parse(block).unwrap_or_else(|e| panic!("{heading} example: {e}\n{block}"))
}

fn keys(object: &Json, what: &str) -> BTreeSet<String> {
    match object {
        Json::Obj(map) => map.keys().cloned().collect(),
        other => panic!("{what} is not an object: {other:?}"),
    }
}

fn field<'j>(object: &'j Json, key: &str) -> &'j Json {
    object
        .get(key)
        .unwrap_or_else(|| panic!("no {key:?} in {object:?}"))
}

fn first_row<'j>(object: &'j Json, key: &str) -> &'j Json {
    field(object, key)
        .as_arr()
        .and_then(|rows| rows.first())
        .unwrap_or_else(|| panic!("{key:?} has no rows"))
}

/// Both directions: a key the daemon sends must be documented, and a
/// documented key must be one the daemon sends.
fn assert_same_keys(real: &Json, documented: &Json, what: &str) {
    let (real, documented) = (keys(real, what), keys(documented, what));
    let undocumented: Vec<_> = real.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&real).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "{what}: sent but not in PROTOCOL.md's example {undocumented:?}; \
         in the example but not sent {stale:?}"
    );
}

#[test]
fn documented_examples_carry_the_keys_the_daemon_sends() {
    // A settled Monte-Carlo job with verification on, of a tenant under a
    // finite budget: the shape of both examples.
    let state = ServeState::new(1_000_000);
    state.enqueue(JobSpec {
        id: "job-0001".into(),
        tenant: "acme".into(),
        deck: "* deck".into(),
        options: JobOptions::default(),
    });
    let (spec, _) = state.claim().expect("queued");
    let outcome = JobOutcome {
        design: vec![3.1e-05, 1.2e-06],
        estimated_yield: 0.918,
        verified_yield: Some(0.905),
        yield_interval: Some((0.87, 0.93)),
        estimator: "mc".into(),
        ess: None,
        total_sims: 48210,
        adjoint_solves: 96,
        fd_sims_avoided: 1152,
        resumed: false,
    };
    state.finish(&spec.id, Ok(outcome.clone()));
    let fleet = FleetStatus {
        tenants_fleet: vec![("acme".into(), 92370)],
        ..FleetStatus::default()
    };
    let status = json::parse(&state.status_line(&fleet)).expect("status is JSON");
    let doc = documented_response("status");
    assert_same_keys(&status, &doc, "status");
    let (metrics, doc_metrics) = (field(&status, "metrics"), field(&doc, "metrics"));
    assert_same_keys(metrics, doc_metrics, "status.metrics");
    assert_same_keys(
        first_row(metrics, "tenants"),
        first_row(doc_metrics, "tenants"),
        "status.metrics.tenants[*]",
    );
    let (fleet, doc_fleet) = (field(&status, "fleet"), field(&doc, "fleet"));
    assert_same_keys(fleet, doc_fleet, "status.fleet");
    assert_same_keys(
        first_row(fleet, "tenants"),
        first_row(doc_fleet, "tenants"),
        "status.fleet.tenants[*]",
    );

    let real = json::parse(&outcome.to_json()).expect("outcome is JSON");
    let doc = documented_response("result");
    assert_same_keys(&real, field(&doc, "outcome"), "result.outcome");
}

//! Versioned checkpoint/resume state for [`YieldOptimizer`] runs.
//!
//! A production run is thousands of simulator calls; when the job dies
//! mid-flight the work up to the last completed iteration should not be
//! lost. [`Checkpoint`] captures everything the optimizer needs to
//! continue — the current feasible design, the completed iteration count
//! (which pins the per-iteration RNG streams), the worst-case analysis
//! (points + spec-wise linear models) and every snapshot taken so far —
//! and serializes it with the `specwise-trace` JSON writer, whose float
//! formatting round-trips `f64` values bit-exactly. That makes
//! "resume reproduces the uninterrupted run bit-for-bit" a provable
//! property (asserted by the workspace `resume` integration test).
//!
//! Files are written atomically (temp file + rename), so a crash during a
//! checkpoint write leaves the previous checkpoint intact, and carry a
//! [`version`](Checkpoint::version) field so future layout changes can be
//! detected instead of misparsed.
//!
//! [`YieldOptimizer`]: crate::YieldOptimizer

use std::fmt::{self, Write as _};
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use specwise_ckt::{OperatingPoint, SimPhase};
use specwise_linalg::DVec;
use specwise_stat::{RunningMoments, YieldEstimate};
use specwise_trace::json::{parse, write_f64, write_json_string, Json};
use specwise_wcd::{SpecLinearization, WcResult, WorstCasePoint};

use crate::{EstimatorKind, IterationSnapshot, McVerification, TailVerification};

/// Current checkpoint layout version. Bump on any incompatible change;
/// [`Checkpoint::load`] rejects files with a different version.
pub const CHECKPOINT_VERSION: u64 = 1;

/// Serialized optimizer state at an iteration boundary.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Layout version ([`CHECKPOINT_VERSION`] when produced by this build).
    pub version: u64,
    /// RNG seed of the run that wrote the checkpoint. Resuming under a
    /// different configured seed is refused — the streams would diverge.
    pub seed: u64,
    /// Completed optimizer iterations (0 = only the initial analysis).
    /// Together with `seed` this pins every derived RNG stream position:
    /// the iteration-`k` yield model draws from `seed + k` and the
    /// verification from `seed ^ 0xABCD`.
    pub iteration: usize,
    /// The current feasible design point.
    pub d_f: DVec,
    /// Cumulative simulator calls at checkpoint time (resumed runs add
    /// this base so snapshot effort counts continue seamlessly).
    pub sim_count: u64,
    /// Per-phase simulator calls at checkpoint time.
    pub phase_sims: [u64; SimPhase::COUNT],
    /// The worst-case analysis at `d_f` (points + linear models).
    pub analysis: WcResult,
    /// Every snapshot recorded so far, `"Initial"` first.
    pub snapshots: Vec<IterationSnapshot>,
    /// Identity of the process that wrote the checkpoint, when one was
    /// configured ([`crate::YieldOptimizer::with_checkpoint_owner`]).
    /// `specwise-serve` stamps its daemon owner id here so a peer that
    /// steals an expired job lease can report whose work it resumed.
    /// Absent in older checkpoints; never affects resume eligibility.
    pub owner: Option<String>,
}

/// Error loading or saving a [`Checkpoint`].
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (open, write, rename).
    Io(std::io::Error),
    /// The file is not a valid checkpoint (parse failure or missing
    /// fields).
    Malformed(String),
    /// The file has an incompatible layout version — e.g. written by a
    /// *newer* build. Loaders treat this exactly like a corrupt file:
    /// degrade to a fresh run with a warning, never abort.
    Version {
        /// Version found in the file.
        found: u64,
        /// Version this build reads and writes ([`CHECKPOINT_VERSION`]).
        current: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::Version { found, current } => {
                let hint = if *found > *current {
                    " — written by a newer build"
                } else {
                    ""
                };
                write!(
                    f,
                    "incompatible checkpoint version {found} (this build reads {current}{hint})"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl Checkpoint {
    /// Writes the checkpoint to `path` atomically: the state is serialized
    /// into a sibling temp file, synced, and renamed over `path`, so a
    /// crash mid-write can never leave a truncated checkpoint behind.
    ///
    /// The temp file is named per writer (`<path>.ckpt.tmp-<pid>-<n>`), so
    /// two writers of one checkpoint — a fleet daemon paused past its lease
    /// and the peer that took the job over — never truncate or publish each
    /// other's half-written file; the last rename wins whole.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        static WRITES: AtomicU64 = AtomicU64::new(0);
        let tmp = path.with_extension(format!(
            "ckpt.tmp-{}-{}",
            std::process::id(),
            WRITES.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(self.to_json().as_bytes())?;
            file.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on filesystem failure,
    /// [`CheckpointError::Version`] on a layout mismatch, and
    /// [`CheckpointError::Malformed`] when the file does not parse.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let text = fs::read_to_string(path)?;
        Checkpoint::from_json_str(&text)
    }

    /// Serializes the checkpoint to its JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"format\":\"specwise-checkpoint\",\"version\":");
        let _ = write!(out, "{}", self.version);
        let _ = write!(out, ",\"seed\":{}", self.seed);
        // Written only when present, so ownerless checkpoints keep the
        // exact pre-leasing byte shape (and old readers keep parsing).
        if let Some(owner) = &self.owner {
            out.push_str(",\"owner\":");
            write_json_string(&mut out, owner);
        }
        let _ = write!(out, ",\"iteration\":{}", self.iteration);
        let _ = write!(out, ",\"sim_count\":{}", self.sim_count);
        out.push_str(",\"phase_sims\":[");
        for (i, n) in self.phase_sims.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{n}");
        }
        out.push(']');
        out.push_str(",\"d_f\":");
        write_floats(&mut out, self.d_f.as_slice());
        out.push_str(",\"analysis\":");
        write_analysis(&mut out, &self.analysis);
        out.push_str(",\"snapshots\":[");
        for (i, s) in self.snapshots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_snapshot(&mut out, s);
        }
        out.push_str("]}");
        out
    }

    /// Parses a checkpoint from its JSON document (inverse of
    /// [`Checkpoint::to_json`]).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Version`] on a layout mismatch and
    /// [`CheckpointError::Malformed`] otherwise.
    pub fn from_json_str(text: &str) -> Result<Checkpoint, CheckpointError> {
        let json = parse(text).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        if json.get("format").and_then(Json::as_str) != Some("specwise-checkpoint") {
            return Err(CheckpointError::Malformed(
                "missing \"format\": \"specwise-checkpoint\" marker".to_string(),
            ));
        }
        let version = get_u64(&json, "version")?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version {
                found: version,
                current: CHECKPOINT_VERSION,
            });
        }
        let phase_json = get_arr(&json, "phase_sims")?;
        if phase_json.len() != SimPhase::COUNT {
            return Err(malformed("phase_sims length"));
        }
        let mut phase_sims = [0u64; SimPhase::COUNT];
        for (slot, j) in phase_sims.iter_mut().zip(phase_json) {
            *slot = j.as_u64().ok_or_else(|| malformed("phase_sims entry"))?;
        }
        let snapshots = get_arr(&json, "snapshots")?
            .iter()
            .map(read_snapshot)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Checkpoint {
            version,
            seed: get_u64(&json, "seed")?,
            iteration: get_u64(&json, "iteration")? as usize,
            d_f: get_dvec(&json, "d_f")?,
            sim_count: get_u64(&json, "sim_count")?,
            phase_sims,
            analysis: read_analysis(json.get("analysis").ok_or_else(|| malformed("analysis"))?)?,
            snapshots,
            owner: json.get("owner").and_then(Json::as_str).map(str::to_string),
        })
    }

    /// Reads just the resume-relevant header of a checkpoint file — who
    /// wrote it and how far it got — without materializing the analysis
    /// and snapshot payload.
    ///
    /// This is what a `specwise-serve` daemon calls before stealing an
    /// expired job lease: the metadata says whose work it is about to
    /// resume and from which iteration, which goes into the job journal
    /// as the takeover event.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on filesystem failure and
    /// [`CheckpointError::Malformed`] when the file is not a checkpoint
    /// document (a version mismatch is *not* an error here: the metadata
    /// of a foreign-version file is still reportable).
    pub fn peek(path: &Path) -> Result<CheckpointMeta, CheckpointError> {
        let text = fs::read_to_string(path)?;
        let json = parse(&text).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        if json.get("format").and_then(Json::as_str) != Some("specwise-checkpoint") {
            return Err(CheckpointError::Malformed(
                "missing \"format\": \"specwise-checkpoint\" marker".to_string(),
            ));
        }
        Ok(CheckpointMeta {
            version: get_u64(&json, "version")?,
            seed: get_u64(&json, "seed")?,
            iteration: get_u64(&json, "iteration")? as usize,
            sim_count: get_u64(&json, "sim_count")?,
            owner: json.get("owner").and_then(Json::as_str).map(str::to_string),
        })
    }
}

/// Checkpoint header returned by [`Checkpoint::peek`]: enough to report
/// on a checkpoint (owner, progress) without parsing its full payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Layout version found in the file.
    pub version: u64,
    /// RNG seed of the run that wrote the checkpoint.
    pub seed: u64,
    /// Completed optimizer iterations at checkpoint time.
    pub iteration: usize,
    /// Cumulative simulator calls at checkpoint time.
    pub sim_count: u64,
    /// Identity of the writing process, when stamped.
    pub owner: Option<String>,
}

// ---------------------------------------------------------------------------
// Writers. All floats go through `specwise_trace::json::write_f64`, whose
// shortest-round-trip formatting reproduces every finite f64 bit-exactly.

fn write_floats(out: &mut String, xs: &[f64]) {
    out.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_f64(out, *x);
    }
    out.push(']');
}

fn write_theta(out: &mut String, theta: &OperatingPoint) {
    write_floats(out, &[theta.temp_c, theta.vdd]);
}

fn write_wc_point(out: &mut String, wc: &WorstCasePoint) {
    let _ = write!(out, "{{\"spec\":{}", wc.spec);
    out.push_str(",\"theta_wc\":");
    write_theta(out, &wc.theta_wc);
    out.push_str(",\"s_wc\":");
    write_floats(out, wc.s_wc.as_slice());
    out.push_str(",\"beta_wc\":");
    write_f64(out, wc.beta_wc);
    out.push_str(",\"nominal_margin\":");
    write_f64(out, wc.nominal_margin);
    out.push_str(",\"margin_at_wc\":");
    write_f64(out, wc.margin_at_wc);
    out.push_str(",\"grad_s\":");
    write_floats(out, wc.grad_s.as_slice());
    let _ = write!(out, ",\"converged\":{}}}", wc.converged);
}

fn write_linearization(out: &mut String, lin: &SpecLinearization) {
    let _ = write!(out, "{{\"spec\":{},\"mirrored\":{}", lin.spec, lin.mirrored);
    out.push_str(",\"theta_wc\":");
    write_theta(out, &lin.theta_wc);
    out.push_str(",\"s_wc\":");
    write_floats(out, lin.s_wc.as_slice());
    out.push_str(",\"d_f\":");
    write_floats(out, lin.d_f.as_slice());
    out.push_str(",\"margin_at_anchor\":");
    write_f64(out, lin.margin_at_anchor);
    out.push_str(",\"grad_s\":");
    write_floats(out, lin.grad_s.as_slice());
    out.push_str(",\"grad_d\":");
    write_floats(out, lin.grad_d.as_slice());
    out.push('}');
}

fn write_analysis(out: &mut String, a: &WcResult) {
    out.push_str("{\"d_f\":");
    write_floats(out, a.design().as_slice());
    out.push_str(",\"nominal_margins\":");
    write_floats(out, a.nominal_margins().as_slice());
    out.push_str(",\"fallbacks\":[");
    for (i, spec) in a.fallback_specs().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{spec}");
    }
    out.push(']');
    out.push_str(",\"wc_points\":[");
    for (i, wc) in a.worst_case_points().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_wc_point(out, wc);
    }
    out.push(']');
    out.push_str(",\"linearizations\":[");
    for (i, lin) in a.linearizations().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_linearization(out, lin);
    }
    out.push_str("]}");
}

fn write_verification(out: &mut String, v: &McVerification) {
    let _ = write!(
        out,
        "{{\"passed\":{},\"total\":{}",
        v.yield_estimate.passed(),
        v.yield_estimate.total()
    );
    out.push_str(",\"per_spec_bad\":[");
    for (i, b) in v.per_spec_bad.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{b}");
    }
    out.push(']');
    out.push_str(",\"moments\":[");
    for (i, m) in v.per_spec_margins.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (count, mean, m2, min, max) = m.raw();
        let _ = write!(out, "[{count},");
        write_f64(out, mean);
        out.push(',');
        write_f64(out, m2);
        out.push(',');
        // The empty accumulator's infinite min/max cannot survive JSON;
        // `RunningMoments::from_raw` ignores them when count == 0.
        write_f64(out, if count == 0 { 0.0 } else { min });
        out.push(',');
        write_f64(out, if count == 0 { 0.0 } else { max });
        out.push(']');
    }
    out.push(']');
    out.push_str(",\"theta_wc\":[");
    for (i, t) in v.theta_wc.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_theta(out, t);
    }
    out.push(']');
    let _ = write!(
        out,
        ",\"sim_failures\":{},\"degraded_samples\":{}}}",
        v.sim_failures, v.degraded_samples
    );
}

fn write_snapshot(out: &mut String, s: &IterationSnapshot) {
    out.push_str("{\"label\":");
    write_json_string(out, &s.label);
    out.push_str(",\"design\":");
    write_floats(out, s.design.as_slice());
    out.push_str(",\"nominal_margins\":");
    write_floats(out, s.nominal_margins.as_slice());
    out.push_str(",\"bad_per_mille\":");
    write_floats(out, &s.bad_per_mille);
    let _ = write!(
        out,
        ",\"passed\":{},\"total\":{}",
        s.estimated_yield.passed(),
        s.estimated_yield.total()
    );
    out.push_str(",\"verified\":");
    match &s.verified {
        Some(v) => write_verification(out, v),
        None => out.push_str("null"),
    }
    // Written only when present, so MC-only checkpoints keep the exact
    // pre-estimator-layer byte shape (and old readers keep parsing them).
    if let Some(t) = &s.verified_tail {
        out.push_str(",\"verified_tail\":{\"estimator\":");
        write_json_string(out, t.estimator.as_str());
        out.push_str(",\"failure_probability\":");
        write_f64(out, t.failure_probability);
        out.push_str(",\"yield_value\":");
        write_f64(out, t.yield_value);
        out.push_str(",\"yield_low\":");
        write_f64(out, t.yield_low);
        out.push_str(",\"yield_high\":");
        write_f64(out, t.yield_high);
        out.push_str(",\"ess\":");
        write_f64(out, t.effective_sample_size);
        let _ = write!(
            out,
            ",\"sim_failures\":{},\"degraded\":{}}}",
            t.sim_failures, t.degraded
        );
    }
    out.push_str(",\"wc_points\":[");
    for (i, wc) in s.wc_points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_wc_point(out, wc);
    }
    out.push(']');
    let _ = write!(
        out,
        ",\"sim_count\":{},\"collapsed\":{}}}",
        s.sim_count, s.collapsed
    );
}

// ---------------------------------------------------------------------------
// Readers.

fn malformed(what: &str) -> CheckpointError {
    CheckpointError::Malformed(format!("missing or invalid field {what:?}"))
}

fn get_u64(j: &Json, key: &str) -> Result<u64, CheckpointError> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| malformed(key))
}

fn get_f64(j: &Json, key: &str) -> Result<f64, CheckpointError> {
    match j.get(key) {
        Some(Json::Num(x)) => Ok(*x),
        // `write_f64` serializes non-finite floats as null.
        Some(Json::Null) => Ok(f64::NAN),
        _ => Err(malformed(key)),
    }
}

fn get_bool(j: &Json, key: &str) -> Result<bool, CheckpointError> {
    match j.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(malformed(key)),
    }
}

fn get_str(j: &Json, key: &str) -> Result<String, CheckpointError> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| malformed(key))
}

fn get_arr<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], CheckpointError> {
    j.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| malformed(key))
}

fn floats(items: &[Json], what: &str) -> Result<Vec<f64>, CheckpointError> {
    items
        .iter()
        .map(|x| match x {
            Json::Num(v) => Ok(*v),
            Json::Null => Ok(f64::NAN),
            _ => Err(malformed(what)),
        })
        .collect()
}

fn get_floats(j: &Json, key: &str) -> Result<Vec<f64>, CheckpointError> {
    floats(get_arr(j, key)?, key)
}

fn get_dvec(j: &Json, key: &str) -> Result<DVec, CheckpointError> {
    Ok(DVec::from_slice(&get_floats(j, key)?))
}

fn get_theta(j: &Json, key: &str) -> Result<OperatingPoint, CheckpointError> {
    let pair = get_floats(j, key)?;
    if pair.len() != 2 {
        return Err(malformed(key));
    }
    Ok(OperatingPoint::new(pair[0], pair[1]))
}

fn read_wc_point(j: &Json) -> Result<WorstCasePoint, CheckpointError> {
    Ok(WorstCasePoint {
        spec: get_u64(j, "spec")? as usize,
        theta_wc: get_theta(j, "theta_wc")?,
        s_wc: get_dvec(j, "s_wc")?,
        beta_wc: get_f64(j, "beta_wc")?,
        nominal_margin: get_f64(j, "nominal_margin")?,
        margin_at_wc: get_f64(j, "margin_at_wc")?,
        grad_s: get_dvec(j, "grad_s")?,
        converged: get_bool(j, "converged")?,
    })
}

fn read_linearization(j: &Json) -> Result<SpecLinearization, CheckpointError> {
    Ok(SpecLinearization {
        spec: get_u64(j, "spec")? as usize,
        mirrored: get_bool(j, "mirrored")?,
        theta_wc: get_theta(j, "theta_wc")?,
        s_wc: get_dvec(j, "s_wc")?,
        d_f: get_dvec(j, "d_f")?,
        margin_at_anchor: get_f64(j, "margin_at_anchor")?,
        grad_s: get_dvec(j, "grad_s")?,
        grad_d: get_dvec(j, "grad_d")?,
    })
}

fn read_analysis(j: &Json) -> Result<WcResult, CheckpointError> {
    let wc_points = get_arr(j, "wc_points")?
        .iter()
        .map(read_wc_point)
        .collect::<Result<Vec<_>, _>>()?;
    let linearizations = get_arr(j, "linearizations")?
        .iter()
        .map(read_linearization)
        .collect::<Result<Vec<_>, _>>()?;
    let fallbacks = get_arr(j, "fallbacks")?
        .iter()
        .map(|x| x.as_u64().map(|n| n as usize))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| malformed("fallbacks"))?;
    Ok(WcResult::from_parts(
        get_dvec(j, "d_f")?,
        wc_points,
        linearizations,
        get_dvec(j, "nominal_margins")?,
        fallbacks,
    ))
}

fn read_verification(j: &Json) -> Result<McVerification, CheckpointError> {
    let per_spec_bad = get_arr(j, "per_spec_bad")?
        .iter()
        .map(|x| x.as_u64().map(|n| n as usize))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| malformed("per_spec_bad"))?;
    let per_spec_margins = get_arr(j, "moments")?
        .iter()
        .map(|m| {
            let raw = floats(m.as_arr()?, "moments").ok()?;
            if raw.len() != 5 {
                return None;
            }
            Some(RunningMoments::from_raw(
                raw[0] as u64,
                raw[1],
                raw[2],
                raw[3],
                raw[4],
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| malformed("moments"))?;
    let theta_wc = get_arr(j, "theta_wc")?
        .iter()
        .map(|t| {
            let pair = t.as_arr()?;
            match pair {
                [Json::Num(temp), Json::Num(vdd)] => Some(OperatingPoint::new(*temp, *vdd)),
                _ => None,
            }
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| malformed("theta_wc"))?;
    let passed = get_u64(j, "passed")? as usize;
    let total = get_u64(j, "total")? as usize;
    if total == 0 || passed > total {
        return Err(malformed("passed/total"));
    }
    Ok(McVerification {
        yield_estimate: YieldEstimate::from_counts(passed, total),
        per_spec_bad,
        per_spec_margins,
        theta_wc,
        sim_failures: get_u64(j, "sim_failures")? as usize,
        degraded_samples: get_u64(j, "degraded_samples")? as usize,
    })
}

fn read_snapshot(j: &Json) -> Result<IterationSnapshot, CheckpointError> {
    let passed = get_u64(j, "passed")? as usize;
    let total = get_u64(j, "total")? as usize;
    if total == 0 || passed > total {
        return Err(malformed("passed/total"));
    }
    let verified = match j.get("verified") {
        Some(Json::Null) | None => None,
        Some(v) => Some(read_verification(v)?),
    };
    // Optional field: absent in checkpoints written before the estimator
    // layer (and in every MC-only run).
    let verified_tail = match j.get("verified_tail") {
        Some(Json::Null) | None => None,
        Some(t) => Some(TailVerification {
            estimator: get_str(t, "estimator")?
                .parse::<EstimatorKind>()
                .map_err(|_| malformed("verified_tail.estimator"))?,
            failure_probability: get_f64(t, "failure_probability")?,
            yield_value: get_f64(t, "yield_value")?,
            yield_low: get_f64(t, "yield_low")?,
            yield_high: get_f64(t, "yield_high")?,
            effective_sample_size: get_f64(t, "ess")?,
            sim_failures: get_u64(t, "sim_failures")? as usize,
            degraded: get_bool(t, "degraded")?,
        }),
    };
    Ok(IterationSnapshot {
        label: get_str(j, "label")?,
        design: get_dvec(j, "design")?,
        nominal_margins: get_dvec(j, "nominal_margins")?,
        bad_per_mille: get_floats(j, "bad_per_mille")?,
        estimated_yield: YieldEstimate::from_counts(passed, total),
        verified,
        verified_tail,
        wc_points: get_arr(j, "wc_points")?
            .iter()
            .map(read_wc_point)
            .collect::<Result<Vec<_>, _>>()?,
        sim_count: get_u64(j, "sim_count")?,
        collapsed: get_bool(j, "collapsed")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> Checkpoint {
        let wc = WorstCasePoint {
            spec: 0,
            theta_wc: OperatingPoint::new(125.0, 2.97),
            s_wc: DVec::from_slice(&[0.123456789012345, -1.5]),
            beta_wc: 1.9412354263456,
            nominal_margin: 0.3333333333333333,
            margin_at_wc: -1.25e-7,
            grad_s: DVec::from_slice(&[0.7172356811865476, -0.1]),
            converged: true,
        };
        let lin = SpecLinearization {
            spec: 0,
            mirrored: false,
            theta_wc: OperatingPoint::new(125.0, 2.97),
            s_wc: wc.s_wc.clone(),
            d_f: DVec::from_slice(&[3.0, 4.25]),
            margin_at_anchor: -1.25e-7,
            grad_s: wc.grad_s.clone(),
            grad_d: DVec::from_slice(&[0.5, 2.0e-3]),
        };
        let verified = McVerification {
            yield_estimate: YieldEstimate::from_counts(271, 300),
            per_spec_bad: vec![29],
            per_spec_margins: vec![[0.5, -0.25, 1.75, 0.1234].into_iter().collect()],
            theta_wc: vec![OperatingPoint::new(125.0, 2.97)],
            sim_failures: 3,
            degraded_samples: 2,
        };
        let snapshot = IterationSnapshot {
            label: "1st Iter.".to_string(),
            design: DVec::from_slice(&[3.0, 4.25]),
            nominal_margins: DVec::from_slice(&[0.3333333333333333]),
            bad_per_mille: vec![96.66666666666667],
            estimated_yield: YieldEstimate::from_counts(9033, 10000),
            verified: Some(verified),
            verified_tail: Some(TailVerification {
                estimator: EstimatorKind::NormMin,
                failure_probability: 7.933281519928365e-7,
                yield_value: 0.9999992066718481,
                yield_low: 0.9999992066718481,
                yield_high: 1.0,
                effective_sample_size: 123.456,
                sim_failures: 1,
                degraded: false,
            }),
            wc_points: vec![wc.clone()],
            sim_count: 1234,
            collapsed: false,
        };
        Checkpoint {
            version: CHECKPOINT_VERSION,
            seed: 2001,
            iteration: 1,
            d_f: DVec::from_slice(&[3.0, 4.25]),
            sim_count: 1234,
            phase_sims: [10, 20, 30, 40, 50, 0][..SimPhase::COUNT]
                .try_into()
                .unwrap(),
            analysis: WcResult::from_parts(
                DVec::from_slice(&[3.0, 4.25]),
                vec![wc],
                vec![lin],
                DVec::from_slice(&[0.3333333333333333]),
                vec![0],
            ),
            snapshots: vec![snapshot],
            owner: None,
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        let ck = sample_checkpoint();
        let text = ck.to_json();
        let back = Checkpoint::from_json_str(&text).unwrap();
        assert_eq!(back.version, ck.version);
        assert_eq!(back.seed, ck.seed);
        assert_eq!(back.iteration, ck.iteration);
        assert_eq!(back.sim_count, ck.sim_count);
        assert_eq!(back.phase_sims, ck.phase_sims);
        assert_eq!(bits(back.d_f.as_slice()), bits(ck.d_f.as_slice()));
        let (a, b) = (&back.analysis, &ck.analysis);
        assert_eq!(a.fallback_specs(), b.fallback_specs());
        for (x, y) in a.worst_case_points().iter().zip(b.worst_case_points()) {
            assert_eq!(x.spec, y.spec);
            assert_eq!(x.theta_wc, y.theta_wc);
            assert_eq!(bits(x.s_wc.as_slice()), bits(y.s_wc.as_slice()));
            assert_eq!(x.beta_wc.to_bits(), y.beta_wc.to_bits());
            assert_eq!(x.margin_at_wc.to_bits(), y.margin_at_wc.to_bits());
            assert_eq!(x.converged, y.converged);
        }
        for (x, y) in a.linearizations().iter().zip(b.linearizations()) {
            assert_eq!(bits(x.grad_d.as_slice()), bits(y.grad_d.as_slice()));
            assert_eq!(x.margin_at_anchor.to_bits(), y.margin_at_anchor.to_bits());
        }
        let (s, t) = (&back.snapshots[0], &ck.snapshots[0]);
        assert_eq!(s.label, t.label);
        assert_eq!(s.estimated_yield, t.estimated_yield);
        assert_eq!(bits(&s.bad_per_mille), bits(&t.bad_per_mille));
        let (v, w) = (s.verified.as_ref().unwrap(), t.verified.as_ref().unwrap());
        assert_eq!(v.yield_estimate, w.yield_estimate);
        assert_eq!(v.per_spec_bad, w.per_spec_bad);
        assert_eq!(v.sim_failures, w.sim_failures);
        assert_eq!(v.degraded_samples, w.degraded_samples);
        assert_eq!(
            v.per_spec_margins[0].mean().to_bits(),
            w.per_spec_margins[0].mean().to_bits()
        );
        assert_eq!(
            v.per_spec_margins[0].sample_variance().to_bits(),
            w.per_spec_margins[0].sample_variance().to_bits()
        );
        let (p, q) = (
            s.verified_tail.as_ref().unwrap(),
            t.verified_tail.as_ref().unwrap(),
        );
        assert_eq!(p.estimator, q.estimator);
        assert_eq!(
            p.failure_probability.to_bits(),
            q.failure_probability.to_bits()
        );
        assert_eq!(
            p.effective_sample_size.to_bits(),
            q.effective_sample_size.to_bits()
        );
        assert_eq!(p.degraded, q.degraded);
    }

    #[test]
    fn snapshots_without_verified_tail_still_parse() {
        // Checkpoints written before the estimator layer have no
        // "verified_tail" field; they must load with `None`.
        let mut ck = sample_checkpoint();
        ck.snapshots[0].verified_tail = None;
        let text = ck.to_json();
        assert!(!text.contains("verified_tail"));
        let back = Checkpoint::from_json_str(&text).unwrap();
        assert!(back.snapshots[0].verified_tail.is_none());
    }

    #[test]
    fn owner_round_trips_and_is_absent_by_default() {
        // Ownerless checkpoints keep the pre-leasing byte shape.
        let ck = sample_checkpoint();
        assert!(!ck.to_json().contains("\"owner\""));
        // A stamped owner round-trips, and old readers would skip it.
        let mut ck = sample_checkpoint();
        ck.owner = Some("daemon-a".to_string());
        let back = Checkpoint::from_json_str(&ck.to_json()).unwrap();
        assert_eq!(back.owner.as_deref(), Some("daemon-a"));
    }

    #[test]
    fn peek_reads_the_header_without_the_payload() {
        let dir = std::env::temp_dir().join("specwise-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("peek-{}.ckpt", std::process::id()));
        let mut ck = sample_checkpoint();
        ck.owner = Some("daemon-b".to_string());
        ck.save(&path).unwrap();
        let meta = Checkpoint::peek(&path).unwrap();
        assert_eq!(meta.version, CHECKPOINT_VERSION);
        assert_eq!(meta.seed, ck.seed);
        assert_eq!(meta.iteration, ck.iteration);
        assert_eq!(meta.sim_count, ck.sim_count);
        assert_eq!(meta.owner.as_deref(), Some("daemon-b"));
        // Unlike `load`, a foreign version still peeks: the header is
        // reportable even when the payload is not resumable.
        let mut future = sample_checkpoint();
        future.version = CHECKPOINT_VERSION + 7;
        future.save(&path).unwrap();
        let meta = Checkpoint::peek(&path).unwrap();
        assert_eq!(meta.version, CHECKPOINT_VERSION + 7);
        assert_eq!(meta.owner, None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn save_is_atomic_and_loadable() {
        let dir = std::env::temp_dir().join("specwise-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let ck = sample_checkpoint();
        ck.save(&path).unwrap();
        // The temp file is gone once the rename lands.
        assert!(temp_files(&dir).is_empty());
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.iteration, ck.iteration);
        assert_eq!(bits(back.d_f.as_slice()), bits(ck.d_f.as_slice()));
        std::fs::remove_file(&path).unwrap();
    }

    /// Names in `dir` that start with `run.ckpt.tmp`.
    fn temp_files(dir: &Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("run.ckpt.tmp"))
            .collect()
    }

    #[test]
    fn save_leaves_a_peer_writers_temp_file_alone() {
        // A directory stands in for another writer's in-flight temp file
        // at the name a shared temp path would use: truncating it (or
        // publishing it) is exactly the fault a shared name allows.
        let dir = std::env::temp_dir().join(format!("specwise-ckpt-peer-{}", std::process::id()));
        let peer = dir.join("run.ckpt.tmp");
        std::fs::create_dir_all(&peer).unwrap();
        let path = dir.join("run.ckpt");
        let ck = sample_checkpoint();
        ck.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.iteration, ck.iteration);
        assert_eq!(bits(back.d_f.as_slice()), bits(ck.d_f.as_slice()));
        assert!(peer.is_dir(), "the peer's temp entry must be left alone");
        assert_eq!(temp_files(&dir), ["run.ckpt.tmp"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_garbage_and_wrong_versions() {
        assert!(matches!(
            Checkpoint::from_json_str("not json"),
            Err(CheckpointError::Malformed(_))
        ));
        assert!(matches!(
            Checkpoint::from_json_str("{\"format\":\"something-else\",\"version\":1}"),
            Err(CheckpointError::Malformed(_))
        ));
        // A *future* version (written by a newer build) is a typed Version
        // error carrying both versions, so loaders can warn precisely.
        let mut ck = sample_checkpoint();
        ck.version = CHECKPOINT_VERSION + 1;
        let err = Checkpoint::from_json_str(&ck.to_json()).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::Version { found, current }
                if found == CHECKPOINT_VERSION + 1 && current == CHECKPOINT_VERSION
        ));
        assert!(err.to_string().contains("newer build"), "{err}");
        // A past version is the same typed error, without the hint.
        let mut ck = sample_checkpoint();
        ck.version = 0;
        let err = Checkpoint::from_json_str(&ck.to_json()).unwrap_err();
        assert!(matches!(err, CheckpointError::Version { found: 0, .. }));
        assert!(!err.to_string().contains("newer build"), "{err}");
    }
}

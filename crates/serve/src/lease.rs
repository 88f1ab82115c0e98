//! Spool-level job leasing: the claim/heartbeat/steal protocol that lets
//! any number of daemons share one spool directory.
//!
//! Every running job is guarded by a `<id>.lease` file next to its
//! `<id>.req`. The protocol needs nothing beyond a shared POSIX
//! filesystem:
//!
//! * **Claim** — the lease file is created with `O_EXCL`
//!   ([`std::fs::OpenOptions::create_new`]): exactly one daemon can
//!   create it, so exactly one daemon runs the job.
//! * **Heartbeat** — the holder rewrites the file in place (temp file +
//!   rename, the spool-wide atomic-write discipline), refreshing its
//!   modification time. A lease whose mtime is older than the expiry
//!   window belongs to a daemon that stopped heartbeating — i.e. died.
//! * **Steal** — an expired lease is *renamed* to a unique stale name
//!   before the thief claims the job. Rename arbitrates the race: if two
//!   daemons try to steal the same lease, the second rename fails with
//!   `NotFound`, so exactly one thief proceeds to re-create the lease
//!   (with the epoch bumped) and resume the job from its checkpoint.
//!
//! The safety argument depends on expiry ≫ heartbeat interval and on the
//! spool living on one filesystem whose clock all daemons see (steal
//! decisions compare a file mtime against local time). A holder that is
//! merely *paused* past the expiry (SIGSTOP, VM freeze) can lose its
//! lease to a peer and run concurrently for a while — harmless here,
//! because the flow is deterministic and outcome writes are atomic and
//! idempotent, but the holder detects the loss at its next heartbeat
//! ([`Lease::is_lost`]) and stops renewing.

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

use specwise_trace::json::{self, Json};

/// The decoded content of a lease file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseInfo {
    /// Daemon identity that holds (or last held) the lease.
    pub owner: String,
    /// Claim generation: 1 on first claim, incremented by every steal.
    pub epoch: u64,
    /// The guarded job id.
    pub job: String,
}

impl LeaseInfo {
    fn to_json(&self) -> String {
        let mut out = String::from("{\"owner\":");
        json::write_json_string(&mut out, &self.owner);
        out.push_str(&format!(",\"epoch\":{},\"job\":", self.epoch));
        json::write_json_string(&mut out, &self.job);
        out.push('}');
        out
    }

    fn from_json_str(text: &str) -> Option<LeaseInfo> {
        let j = json::parse(text).ok()?;
        Some(LeaseInfo {
            owner: j.get("owner").and_then(Json::as_str)?.to_string(),
            epoch: j.get("epoch").and_then(Json::as_u64)?,
            job: j.get("job").and_then(Json::as_str)?.to_string(),
        })
    }
}

/// Result of [`acquire`]: either we hold the lease now, or a live peer
/// does.
#[derive(Debug)]
pub enum Acquire {
    /// The lease is ours. `stolen` is `Some(previous)` when it was taken
    /// over from an expired holder.
    Acquired {
        /// The held lease; keep it alive and heartbeat it while running.
        lease: Lease,
        /// The expired holder's info when this claim was a steal.
        stolen: Option<LeaseInfo>,
    },
    /// A peer holds a fresh lease on the job.
    HeldByPeer(LeaseInfo),
}

/// A held job lease. The holder heartbeats it periodically and releases
/// it when the job settles; dropping it without [`Lease::release`] leaves
/// the file behind, to be stolen by a peer after the expiry window (which
/// is exactly the crash story).
#[derive(Debug)]
pub struct Lease {
    path: PathBuf,
    info: LeaseInfo,
    lost: AtomicBool,
}

/// Path of the lease file guarding `job` in `spool`.
pub fn lease_path(spool: &Path, job: &str) -> PathBuf {
    spool.join(format!("{job}.lease"))
}

/// Process-unique suffix for temp/stale file names and default owner ids
/// (two daemons in one test process share a pid, so the pid alone is not
/// unique).
pub(crate) fn unique_suffix() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    format!(
        "{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    )
}

/// Age of `path` by modification time; `None` when the file vanished or
/// the clock went backwards (both mean "treat as fresh" — never steal on
/// uncertain evidence).
fn file_age(path: &Path) -> Option<Duration> {
    let mtime = std::fs::metadata(path).ok()?.modified().ok()?;
    SystemTime::now().duration_since(mtime).ok()
}

/// Exclusive file creation (`O_EXCL`): fails with `AlreadyExists` when a
/// peer daemon created the same path first — the lease and job-id claim.
pub(crate) fn create_exclusive(path: &Path, content: &str) -> io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(path)?;
    file.write_all(content.as_bytes())?;
    file.sync_all()
}

/// Tries to claim the lease on `job` for `owner`.
///
/// A missing lease file is claimed directly. An existing lease younger
/// than `expiry` belongs to a live peer ([`Acquire::HeldByPeer`]). An
/// existing lease older than `expiry` — or older and unparseable — is
/// stolen through the rename arbitration described in the module docs.
///
/// # Errors
///
/// Propagates filesystem failures other than the expected claim/steal
/// races (those resolve to `HeldByPeer` or a retry internally).
pub fn acquire(spool: &Path, job: &str, owner: &str, expiry: Duration) -> io::Result<Acquire> {
    let path = lease_path(spool, job);
    // Bounded retries: each loop iteration either succeeds, returns
    // HeldByPeer, or observes a concurrent claim/steal in flight; a few
    // rounds of losing every race means a peer genuinely has the job.
    for _ in 0..4 {
        let fresh = LeaseInfo {
            owner: owner.to_string(),
            epoch: 1,
            job: job.to_string(),
        };
        match create_exclusive(&path, &fresh.to_json()) {
            Ok(()) => {
                return Ok(Acquire::Acquired {
                    lease: Lease {
                        path,
                        info: fresh,
                        lost: AtomicBool::new(false),
                    },
                    stolen: None,
                });
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
            Err(e) => return Err(e),
        }
        // Someone holds a lease file. Fresh → theirs; expired → steal.
        let Some(age) = file_age(&path) else {
            // Vanished between create and stat: the holder released or a
            // thief completed; retry the claim.
            continue;
        };
        let previous = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| LeaseInfo::from_json_str(&text));
        if age < expiry {
            match previous {
                Some(info) => return Ok(Acquire::HeldByPeer(info)),
                // Fresh but unreadable/corrupt: a claim is mid-write.
                // Treat as held; the next acquire sees the full file.
                None => {
                    return Ok(Acquire::HeldByPeer(LeaseInfo {
                        owner: "<unreadable>".to_string(),
                        epoch: 0,
                        job: job.to_string(),
                    }))
                }
            }
        }
        // Expired: rename-arbitrate the steal. Only one renamer wins;
        // the loser sees NotFound and retries (the winner's new lease
        // will then read as fresh).
        let stale = spool.join(format!("{job}.lease.stale-{}", unique_suffix()));
        match std::fs::rename(&path, &stale) {
            Ok(()) => {
                let _ = std::fs::remove_file(&stale);
                let epoch = previous.as_ref().map(|p| p.epoch).unwrap_or(0) + 1;
                let info = LeaseInfo {
                    owner: owner.to_string(),
                    epoch,
                    job: job.to_string(),
                };
                match create_exclusive(&path, &info.to_json()) {
                    Ok(()) => {
                        return Ok(Acquire::Acquired {
                            lease: Lease {
                                path,
                                info,
                                lost: AtomicBool::new(false),
                            },
                            stolen: previous,
                        });
                    }
                    // Lost the re-create to a parallel fresh claim
                    // (possible when the job was also still queued
                    // elsewhere); retry from the top.
                    Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                    Err(e) => return Err(e),
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(Acquire::HeldByPeer(LeaseInfo {
        owner: "<contended>".to_string(),
        epoch: 0,
        job: job.to_string(),
    }))
}

/// Peeks at the lease guarding `job`: `None` when no lease file exists,
/// otherwise the decoded info (when readable) and whether it has expired.
pub fn inspect(spool: &Path, job: &str, expiry: Duration) -> Option<(Option<LeaseInfo>, bool)> {
    let path = lease_path(spool, job);
    if !path.exists() {
        return None;
    }
    let expired = file_age(&path).map(|age| age >= expiry).unwrap_or(false);
    let info = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| LeaseInfo::from_json_str(&text));
    Some((info, expired))
}

impl Lease {
    /// The decoded lease content (owner, epoch, job).
    pub fn info(&self) -> &LeaseInfo {
        &self.info
    }

    /// Refreshes the lease mtime (temp file + rename), proving liveness.
    ///
    /// Reads the file first: when the content no longer matches — a peer
    /// stole the lease while this process was paused — the lease is
    /// marked lost, nothing is written, and `false` is returned. The
    /// holder keeps running (the flow is deterministic and the outcome
    /// write idempotent) but stops claiming the job is its own.
    pub fn heartbeat(&self) -> io::Result<bool> {
        if self.lost.load(Ordering::Relaxed) {
            return Ok(false);
        }
        let current = std::fs::read_to_string(&self.path)
            .ok()
            .and_then(|text| LeaseInfo::from_json_str(&text));
        if current.as_ref() != Some(&self.info) {
            self.lost.store(true, Ordering::Relaxed);
            return Ok(false);
        }
        let tmp = self
            .path
            .with_extension(format!("lease.hb-{}", unique_suffix()));
        std::fs::write(&tmp, self.info.to_json())?;
        std::fs::rename(&tmp, &self.path)?;
        Ok(true)
    }

    /// `true` once a heartbeat observed the lease held by someone else.
    pub fn is_lost(&self) -> bool {
        self.lost.load(Ordering::Relaxed)
    }

    /// Removes the lease file — called when the job settles. A lost lease
    /// is left alone (it is the thief's now).
    pub fn release(&self) {
        if self.is_lost() {
            return;
        }
        let still_ours = std::fs::read_to_string(&self.path)
            .ok()
            .and_then(|text| LeaseInfo::from_json_str(&text))
            .as_ref()
            == Some(&self.info);
        if still_ours {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

// ---------------------------------------------------------------------------
// Daemon liveness files: `spool/daemons/<owner>.alive`, heartbeated on the
// same cadence as leases. They exist purely for the `status` fleet report
// (live daemon count); correctness never depends on them.

/// Directory holding per-daemon liveness files.
pub fn daemons_dir(spool: &Path) -> PathBuf {
    spool.join("daemons")
}

/// Touches this daemon's liveness file (atomic rewrite refreshes mtime).
pub fn touch_alive(spool: &Path, owner: &str) -> io::Result<()> {
    let dir = daemons_dir(spool);
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.alive", sanitize(owner)));
    let tmp = dir.join(format!(".alive-tmp-{}", unique_suffix()));
    std::fs::write(&tmp, owner)?;
    std::fs::rename(&tmp, &path)
}

/// Removes this daemon's liveness file (graceful shutdown).
pub fn remove_alive(spool: &Path, owner: &str) {
    let _ = std::fs::remove_file(daemons_dir(spool).join(format!("{}.alive", sanitize(owner))));
}

/// Counts daemons whose liveness file was touched within `expiry`.
pub fn live_daemons(spool: &Path, expiry: Duration) -> usize {
    let Ok(entries) = std::fs::read_dir(daemons_dir(spool)) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| {
            e.file_name().to_string_lossy().ends_with(".alive")
                && file_age(&e.path()).map(|age| age < expiry).unwrap_or(false)
        })
        .count()
}

/// Filesystem-safe encoding of an identifier: alphanumerics, `.`, `_`
/// and `-` pass through, everything else becomes `%XX`.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for b in name.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'.' | b'_' | b'-' => out.push(b as char),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spool(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("specwise-lease-{tag}-{}", unique_suffix()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const LONG: Duration = Duration::from_secs(3600);

    #[test]
    fn first_claim_wins_and_peers_see_it_held() {
        let dir = spool("claim");
        let a = acquire(&dir, "job-0001", "a", LONG).unwrap();
        let Acquire::Acquired { lease, stolen } = a else {
            panic!("first claim must acquire");
        };
        assert!(stolen.is_none());
        assert_eq!(lease.info().epoch, 1);
        match acquire(&dir, "job-0001", "b", LONG).unwrap() {
            Acquire::HeldByPeer(info) => assert_eq!(info.owner, "a"),
            other => panic!("peer must see the lease held, got {other:?}"),
        }
        // Release frees the job for the next claim.
        lease.release();
        assert!(matches!(
            acquire(&dir, "job-0001", "b", LONG).unwrap(),
            Acquire::Acquired { .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_leases_are_stolen_with_an_epoch_bump() {
        let dir = spool("steal");
        let Acquire::Acquired { lease, .. } =
            acquire(&dir, "job-0001", "dead", Duration::ZERO).unwrap()
        else {
            panic!("claim");
        };
        // Expiry zero: the lease is instantly stale for everyone.
        match acquire(&dir, "job-0001", "thief", Duration::ZERO).unwrap() {
            Acquire::Acquired {
                lease: taken,
                stolen,
            } => {
                assert_eq!(taken.info().epoch, 2);
                assert_eq!(stolen.unwrap().owner, "dead");
            }
            other => panic!("expired lease must be stolen, got {other:?}"),
        }
        // The original holder notices at its next heartbeat.
        assert!(!lease.heartbeat().unwrap());
        assert!(lease.is_lost());
        // And release leaves the thief's lease untouched.
        lease.release();
        assert!(lease_path(&dir, "job-0001").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_refreshes_and_only_one_thief_wins_a_race() {
        let dir = spool("race");
        let Acquire::Acquired { lease, .. } = acquire(&dir, "job-0001", "a", LONG).unwrap() else {
            panic!("claim");
        };
        assert!(lease.heartbeat().unwrap());
        assert!(!lease.is_lost());
        // Race N thieves over an expired lease: exactly one must win. The
        // expiry must outlive the race so the winner's fresh lease reads
        // as held (a zero expiry would make every lease instantly stale).
        drop(lease);
        let expiry = Duration::from_millis(300);
        std::thread::sleep(Duration::from_millis(400));
        let winners: usize = std::thread::scope(|scope| {
            (0..8)
                .map(|i| {
                    let dir = dir.clone();
                    scope.spawn(move || {
                        matches!(
                            acquire(&dir, "job-0001", &format!("thief-{i}"), expiry).unwrap(),
                            Acquire::Acquired { .. }
                        ) as usize
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(winners, 1, "rename arbitration admits exactly one thief");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn liveness_files_count_fresh_daemons_only() {
        let dir = spool("alive");
        assert_eq!(live_daemons(&dir, LONG), 0);
        touch_alive(&dir, "a").unwrap();
        touch_alive(&dir, "b/with:odd chars").unwrap();
        assert_eq!(live_daemons(&dir, LONG), 2);
        assert_eq!(live_daemons(&dir, Duration::ZERO), 0, "expired are dead");
        remove_alive(&dir, "a");
        assert_eq!(live_daemons(&dir, LONG), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inspect_reports_holder_and_expiry() {
        let dir = spool("inspect");
        assert!(inspect(&dir, "job-0001", LONG).is_none());
        let Acquire::Acquired { lease, .. } = acquire(&dir, "job-0001", "a", LONG).unwrap() else {
            panic!("claim");
        };
        let (info, expired) = inspect(&dir, "job-0001", LONG).unwrap();
        assert_eq!(info.unwrap().owner, "a");
        assert!(!expired);
        let (_, expired) = inspect(&dir, "job-0001", Duration::ZERO).unwrap();
        assert!(expired);
        lease.release();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

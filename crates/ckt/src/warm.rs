//! Warm-started DC solves across evaluation streams.
//!
//! Every phase of the optimization flow — finite-difference linearization,
//! worst-case search, line search, and MC/IS verification — evaluates the
//! same circuit topology at thousands of *nearby* parameter points. A cold
//! Newton solve from zero spends most of its iterations rediscovering an
//! operating point that barely moved. [`WarmStartCache`] removes that waste:
//!
//! * **exact hit** — the same `(d, ŝ, θ)` signature was solved and committed
//!   before: the stored unknown vector is wrapped via
//!   [`DcOp::solution_from`] with no Newton iterations at all. Because the
//!   operating records are re-derived deterministically from the stored
//!   vector, repeated evaluations stay bit-identical (the determinism the
//!   validation suite asserts).
//! * **near hit** — a committed solution of the same circuit configuration
//!   exists: Newton is seeded from it via [`DcOp::solve_from`] (the base
//!   point for FD perturbations, the previous snapshot for MC streams). On
//!   non-convergence the solve silently falls back to a cold start, so the
//!   result is always convergence-equivalent to the cold path.
//! * **miss** — cold start, exactly as before.
//!
//! # Snapshot semantics (determinism under parallel evaluation)
//!
//! Lookups never see solutions stored since the last [`commit`]: a solve
//! reads only the *committed snapshot*, and new solutions park in a pending
//! set until the next commit publishes them. Batch evaluators commit
//! exactly once per batch (see [`CircuitEnv::eval_margins_batch`] and
//! `specwise-exec`'s `EvalService`), so every point of a batch is seeded
//! from the same frozen state no matter how many workers evaluate it or in
//! which order they finish — results and downstream simulation counts are
//! bit-identical at any worker count. Serial per-point streams commit
//! between points and therefore seed each solve from the previous one.
//! When several solutions of one configuration park in the same pending
//! window, the commit keeps the one with the smallest signature (a
//! deterministic, order-independent tie-break).
//!
//! [`commit`]: WarmStartCache::commit
//! [`CircuitEnv::eval_margins_batch`]: crate::CircuitEnv::eval_margins_batch

use std::collections::HashMap;
use std::sync::Mutex;

use specwise_linalg::DVec;
use specwise_mna::{Circuit, DcOp, DcSolution, MnaError};

use crate::OperatingPoint;

/// Which circuit configuration a solve belongs to. Configurations have
/// different MNA structures (the open-loop netlist has an extra source),
/// so seeds never cross between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum WarmConfig {
    /// Unity-feedback measurement configuration.
    Feedback,
    /// Open-loop measurement configuration.
    OpenLoop,
    /// Constraint-evaluation configuration (feedback netlist at ŝ = 0).
    Constraint,
}

impl WarmConfig {
    fn index(self) -> usize {
        match self {
            WarmConfig::Feedback => 0,
            WarmConfig::OpenLoop => 1,
            WarmConfig::Constraint => 2,
        }
    }
}

/// Exact evaluation signature: environment/netlist identity, configuration,
/// plus the bit patterns of every input that influences the DC solve.
///
/// The identity component keeps two environments that share one cache (or
/// two `Testbench` instances compiled from different decks) from ever
/// replaying each other's operating points — identical `(d, ŝ, θ)` vectors
/// on different netlists are different keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct WarmKey {
    identity: u64,
    config: WarmConfig,
    bits: Vec<u64>,
}

impl WarmKey {
    /// Builds a key from the evaluation inputs. `identity` distinguishes
    /// environments/netlists; `extra` carries any derived quantities that
    /// also feed the netlist (e.g. the open-loop bias).
    pub(crate) fn new(
        identity: u64,
        config: WarmConfig,
        d: &DVec,
        s_hat: &DVec,
        theta: &OperatingPoint,
        extra: &[f64],
    ) -> Self {
        let mut bits = Vec::with_capacity(d.len() + s_hat.len() + 2 + extra.len());
        bits.extend(d.iter().map(|v| v.to_bits()));
        bits.extend(s_hat.iter().map(|v| v.to_bits()));
        bits.push(theta.temp_c.to_bits());
        bits.push(theta.vdd.to_bits());
        bits.extend(extra.iter().map(|v| v.to_bits()));
        WarmKey {
            identity,
            config,
            bits,
        }
    }

    /// The bit patterns of the inputs, in key order.
    pub(crate) fn bits(&self) -> &[u64] {
        &self.bits
    }

    /// The open-loop key of the same point, biased at `vout_fb` — equal to
    /// `WarmKey::new(identity, OpenLoop, d, ŝ, θ, &[vout_fb])` for the
    /// feedback key of `(d, ŝ, θ)`.
    pub(crate) fn open_loop(&self, vout_fb: f64) -> WarmKey {
        let mut bits = self.bits.clone();
        bits.push(vout_fb.to_bits());
        WarmKey {
            identity: self.identity,
            config: WarmConfig::OpenLoop,
            bits,
        }
    }

    fn seed_slot(&self) -> (u64, usize) {
        (self.identity, self.config.index())
    }
}

/// Committed-map capacity; cleared wholesale when full (deterministic, and
/// large enough that a full MC verification round fits).
const EXACT_CAPACITY: usize = 8192;

#[derive(Debug, Default)]
struct WarmState {
    /// Committed signature → converged unknown vector (exact-hit store).
    exact: HashMap<WarmKey, DVec>,
    /// Committed near-hit seeds, one per `(identity, configuration)`.
    seed: HashMap<(u64, usize), DVec>,
    /// Solutions stored since the last commit (invisible to lookups).
    pending_exact: HashMap<WarmKey, DVec>,
    /// Smallest-signature pending solution per `(identity, configuration)`.
    pending_seed: HashMap<(u64, usize), (Vec<u64>, DVec)>,
}

/// Per-environment cache of converged DC operating points with snapshot
/// visibility (see the module docs): lookups read only state published by
/// the last [`commit`](WarmStartCache::commit), so results are independent
/// of evaluation order within a batch.
#[derive(Debug)]
pub struct WarmStartCache {
    enabled: bool,
    state: Mutex<WarmState>,
}

impl WarmStartCache {
    /// Creates an empty cache; a disabled one makes every solve a cold
    /// start.
    pub fn new(enabled: bool) -> Self {
        WarmStartCache {
            enabled,
            state: Mutex::new(WarmState::default()),
        }
    }

    /// Whether warm starting is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of committed operating points.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .exact
            .len()
    }

    /// True when nothing has been committed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every stored operating point, committed and pending.
    pub fn clear(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *st = WarmState::default();
    }

    /// Publishes every solution stored since the previous commit: pending
    /// exact entries become hit-able and each configuration's seed advances
    /// to the smallest-signature pending solution (deterministic regardless
    /// of the order the solutions arrived in).
    pub fn commit(&self) {
        if !self.enabled {
            return;
        }
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.pending_exact.is_empty() && st.pending_seed.is_empty() {
            return;
        }
        if st.exact.len() + st.pending_exact.len() > EXACT_CAPACITY {
            st.exact.clear();
        }
        let pending = std::mem::take(&mut st.pending_exact);
        st.exact.extend(pending);
        let pending_seed = std::mem::take(&mut st.pending_seed);
        for (slot, (_, x)) in pending_seed {
            st.seed.insert(slot, x);
        }
    }

    /// Reads the committed snapshot for `key`: an exact replayable solution,
    /// a near-hit Newton seed of the same configuration, or nothing.
    /// Pending (uncommitted) state is never visible — see the module docs.
    pub(crate) fn lookup(&self, n: usize, key: &WarmKey) -> WarmSeed {
        if !self.enabled {
            return WarmSeed::Cold;
        }
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(x) = st.exact.get(key) {
            if x.len() == n {
                return WarmSeed::Exact(x.clone());
            }
        }
        match st.seed.get(&key.seed_slot()).filter(|x| x.len() == n) {
            Some(x) => WarmSeed::Near(x.clone()),
            None => WarmSeed::Cold,
        }
    }

    /// Whether a solve under `key` replays `x` bit for bit: the cache is
    /// off (a cold solve is deterministic), or `x` is the committed exact
    /// entry of `key`. The committed snapshot does not change between
    /// commits, so the answer holds until the next
    /// [`commit`](WarmStartCache::commit) or
    /// [`clear`](WarmStartCache::clear).
    pub(crate) fn replays(&self, key: &WarmKey, x: &DVec) -> bool {
        if !self.enabled {
            return true;
        }
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.exact.get(key).is_some_and(|e| {
            e.len() == x.len()
                && e.iter()
                    .zip(x.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        })
    }

    /// Parks a converged solution in the pending set for the next
    /// [`commit`](WarmStartCache::commit). The pending near-hit seed keeps
    /// the smallest signature stored this window (order-independent).
    pub(crate) fn record(&self, key: WarmKey, x: &DVec) {
        if !self.enabled {
            return;
        }
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let slot = key.seed_slot();
        let replace = match st.pending_seed.get(&slot) {
            Some((bits, _)) => key.bits < *bits,
            None => true,
        };
        if replace {
            st.pending_seed.insert(slot, (key.bits.clone(), x.clone()));
        }
        st.pending_exact.insert(key, x.clone());
    }

    /// Solves the DC operating point of `circuit`, warm-started from the
    /// committed snapshot under `key`; parks the converged result in the
    /// pending set for the next [`commit`](WarmStartCache::commit).
    ///
    /// # Errors
    ///
    /// Propagates the cold-start solver error when all paths fail.
    pub(crate) fn solve(&self, circuit: &Circuit, key: WarmKey) -> Result<DcSolution, MnaError> {
        let op = DcOp::new(circuit);
        if !self.enabled {
            return op.solve();
        }
        let sol = match self.lookup(circuit.num_unknowns(), &key) {
            WarmSeed::Exact(x) => return op.solution_from(x),
            WarmSeed::Near(x0) => op.solve_from(&x0).or_else(|_| op.solve())?,
            WarmSeed::Cold => op.solve()?,
        };
        self.record(key, sol.unknowns());
        Ok(sol)
    }
}

/// Committed-snapshot lookup result (see [`WarmStartCache::lookup`]).
#[derive(Debug, Clone)]
pub(crate) enum WarmSeed {
    /// The exact signature was committed: replay without any Newton work.
    Exact(DVec),
    /// A committed solution of the same configuration seeds Newton.
    Near(DVec),
    /// Nothing usable committed: cold start.
    Cold,
}

#[cfg(test)]
mod tests {
    use super::*;
    use specwise_mna::Circuit;

    fn divider(v: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let mid = ckt.node("mid");
        ckt.voltage_source("V1", a, Circuit::GROUND, v).unwrap();
        ckt.resistor("R1", a, mid, 2e3).unwrap();
        ckt.resistor("R2", mid, Circuit::GROUND, 1e3).unwrap();
        ckt
    }

    fn key(v: f64) -> WarmKey {
        key_for(0, v)
    }

    fn key_for(identity: u64, v: f64) -> WarmKey {
        WarmKey::new(
            identity,
            WarmConfig::Feedback,
            &DVec::from_slice(&[v]),
            &DVec::zeros(0),
            &OperatingPoint::new(27.0, 3.0),
            &[],
        )
    }

    #[test]
    fn exact_hit_after_commit_skips_newton_and_is_bit_identical() {
        let cache = WarmStartCache::new(true);
        let ckt = divider(3.0);
        let first = cache.solve(&ckt, key(3.0)).unwrap();
        assert!(first.iterations() > 0);
        cache.commit();
        let second = cache.solve(&ckt, key(3.0)).unwrap();
        assert_eq!(second.iterations(), 0, "exact hit skips the solve");
        assert_eq!(first.unknowns().as_slice(), second.unknowns().as_slice());
    }

    #[test]
    fn pending_solutions_are_invisible_until_commit() {
        let cache = WarmStartCache::new(true);
        let ckt = divider(3.0);
        let first = cache.solve(&ckt, key(3.0)).unwrap();
        // No commit: the same signature must re-solve from cold, giving
        // bit-identical results (order independence within a batch).
        let second = cache.solve(&ckt, key(3.0)).unwrap();
        assert!(second.iterations() > 0, "pending entries are not hits");
        assert_eq!(first.unknowns().as_slice(), second.unknowns().as_slice());
        assert!(cache.is_empty(), "nothing committed yet");
    }

    #[test]
    fn near_hit_seeds_from_committed_snapshot() {
        let cache = WarmStartCache::new(true);
        let a = cache.solve(&divider(3.0), key(3.0)).unwrap();
        cache.commit();
        // Different signature, same configuration: seeded from `a`.
        let b = cache.solve(&divider(3.1), key(3.1)).unwrap();
        assert!((b.unknowns()[1] - a.unknowns()[1]).abs() < 0.2);
        cache.commit();
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn commit_seed_tiebreak_is_smallest_signature() {
        let cache = WarmStartCache::new(true);
        // Two solutions park in the same pending window, stored in
        // descending-signature order; the committed seed must be the
        // smallest signature regardless.
        let hi = cache.solve(&divider(4.0), key(4.0)).unwrap();
        let lo = cache.solve(&divider(2.0), key(2.0)).unwrap();
        assert_ne!(hi.unknowns().as_slice()[1], lo.unknowns().as_slice()[1]);
        cache.commit();
        let st = cache.state.lock().unwrap();
        let seed = st.seed.get(&(0, WarmConfig::Feedback.index())).unwrap();
        assert_eq!(seed.as_slice(), lo.unknowns().as_slice());
    }

    #[test]
    fn identities_do_not_replay_each_others_points() {
        let cache = WarmStartCache::new(true);
        let ckt = divider(3.0);
        cache.solve(&ckt, key_for(1, 3.0)).unwrap();
        cache.commit();
        // Same (d, ŝ, θ) signature under a different identity: neither an
        // exact hit (iterations > 0) nor a shared seed slot.
        let other = cache.solve(&ckt, key_for(2, 3.0)).unwrap();
        assert!(other.iterations() > 0, "no cross-identity exact hit");
        cache.commit();
        let st = cache.state.lock().unwrap();
        assert!(st.seed.contains_key(&(1, WarmConfig::Feedback.index())));
        assert!(st.seed.contains_key(&(2, WarmConfig::Feedback.index())));
        assert_eq!(st.exact.len(), 2, "one committed point per identity");
    }

    #[test]
    fn disabled_cache_stores_nothing() {
        let cache = WarmStartCache::new(false);
        let ckt = divider(3.0);
        let first = cache.solve(&ckt, key(3.0)).unwrap();
        cache.commit();
        let second = cache.solve(&ckt, key(3.0)).unwrap();
        assert!(second.iterations() > 0, "no exact-hit shortcut");
        assert_eq!(first.unknowns().as_slice(), second.unknowns().as_slice());
        assert!(cache.is_empty());
    }

    #[test]
    fn clear_resets_state() {
        let cache = WarmStartCache::new(true);
        cache.solve(&divider(3.0), key(3.0)).unwrap();
        cache.commit();
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        let again = cache.solve(&divider(3.0), key(3.0)).unwrap();
        assert!(again.iterations() > 0, "cache was really cleared");
    }
}

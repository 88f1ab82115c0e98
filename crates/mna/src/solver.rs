//! Solver-backend selection and the shared MNA linear-system workspace.
//!
//! Every analysis (DC, transient, AC) assembles the same MNA Jacobian
//! structure over and over: per Newton iteration, per homotopy step, per
//! time step, per frequency, per Monte-Carlo sample. This module provides
//! the machinery that makes the repeat work cheap:
//!
//! * [`Stamper`] — the assembly target abstraction. One element pass
//!   writes conductances through `add(r, c, v)`, which lands in a
//!   [`SystemSolver`]'s value buffer — row-major, or sparse through a
//!   precomputed CSC index map (no hashing, no allocation per iteration) —
//!   and, for targets that ask, capacitances through `cap`.
//! * a process-wide **symbolic cache**: the sparsity pattern and
//!   fill-reducing ordering of a circuit topology are computed once, keyed
//!   by an exact structural key (element kinds + node wiring — values
//!   excluded), and shared by every subsequent solve of any circuit with
//!   that topology. MC/IS sampling re-evaluates one topology thousands of
//!   times, so the hit rate is essentially 100% after the first sample.
//! * [`SystemSolver`] — the one linear-system workspace every MNA solve
//!   runs through (DC and transient Newton in `f64`, AC forward and adjoint
//!   in `Complex64`, DC sensitivity). It alone reads the backend choice,
//!   owns the value buffer (dense row-major or sparse pattern order) and the
//!   factorization, and runs the "refactor on the frozen pivots, else
//!   factor afresh" policy. The sparse backend keeps its [`SparseLu`] alive
//!   across Newton iterations and frequency points and refactors in place
//!   (`O(flops)`, no symbolic work); the dense backend zeroes its buffer in
//!   place instead of reallocating.
//!
//! Backend choice is a property of the circuit: [`Circuit::set_solver`]
//! (default [`SolverChoice::Auto`]: sparse for systems with at least
//! [`SPARSE_AUTO_THRESHOLD`] unknowns). Benches and parity tests force a
//! backend on their own clone of a circuit, so concurrent solves with
//! different backends never interfere. The dense path is bit-identical to
//! the historical implementation.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use specwise_linalg::{DMat, DVec, Lu, SparseLu, SparsePattern, SparseScalar, SparseSymbolic};

use crate::dc::stamp_system;
use crate::{Circuit, MnaError};

/// Linear-solver backend requested for MNA systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverChoice {
    /// Pick per system size: sparse at or above [`SPARSE_AUTO_THRESHOLD`]
    /// unknowns, dense below.
    Auto,
    /// Always dense (the historical bit-exact path).
    Dense,
    /// Always sparse.
    Sparse,
}

/// Systems with at least this many unknowns use the sparse backend under
/// [`SolverChoice::Auto`]. Below it the dense kernel is faster (and keeps
/// tiny unit-test circuits on the historical bit-exact path).
pub const SPARSE_AUTO_THRESHOLD: usize = 8;

impl SolverChoice {
    /// Whether a system of `n` unknowns uses the sparse backend under this
    /// choice.
    pub fn uses_sparse(self, n: usize) -> bool {
        match self {
            SolverChoice::Dense => false,
            SolverChoice::Sparse => true,
            SolverChoice::Auto => n >= SPARSE_AUTO_THRESHOLD,
        }
    }
}

/// Which analysis a sparsity pattern serves. The AC pattern, which the
/// transient shares, is a superset of the DC pattern: it unions in every
/// capacitance node pair over *all* MOSFET regions, so the pattern stays
/// independent of the operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Analysis {
    Dc,
    Ac,
}

/// Assembly target of [`stamp_system`]: linear-system workspace, small-signal
/// `(G, C)` pair, transient capacitance list, or pattern collector.
pub(crate) trait Stamper {
    /// Zeroes the assembly buffer in place (no reallocation).
    fn clear(&mut self);
    /// Adds `v` at `(r, c)`.
    fn add(&mut self, r: usize, c: usize, v: f64);
    /// Whether this target takes capacitances ([`Stamper::cap`]).
    fn wants_caps(&self) -> bool {
        false
    }
    /// Adds a capacitance of `farads` between unknowns `a` and `b` (`None`
    /// is ground).
    fn cap(&mut self, _a: Option<usize>, _b: Option<usize>, _farads: f64) {}
    /// Adds a MOSFET's Meyer gate capacitance, by default like any other
    /// capacitance.
    fn gate_cap(&mut self, a: Option<usize>, b: Option<usize>, farads: f64) {
        self.cap(a, b, farads);
    }
}

/// The four stamps of a two-terminal admittance `v` between unknowns `a`
/// and `b` (`None` is ground): both diagonals, then both off-diagonals.
pub(crate) fn stamp_pair(
    a: Option<usize>,
    b: Option<usize>,
    v: f64,
    mut add: impl FnMut(usize, usize, f64),
) {
    if let Some(i) = a {
        add(i, i, v);
    }
    if let Some(j) = b {
        add(j, j, v);
    }
    if let (Some(i), Some(j)) = (a, b) {
        add(i, j, -v);
        add(j, i, -v);
    }
}

/// Records the set of stamped coordinates (symbolic-analysis pass), plus
/// every capacitance pair whatever its value when `caps` is set.
struct PatternCollector {
    entries: Vec<(usize, usize)>,
    caps: bool,
}

impl Stamper for PatternCollector {
    fn clear(&mut self) {
        self.entries.clear();
    }
    #[inline]
    fn add(&mut self, r: usize, c: usize, _v: f64) {
        self.entries.push((r, c));
    }
    fn wants_caps(&self) -> bool {
        self.caps
    }
    fn cap(&mut self, a: Option<usize>, b: Option<usize>, _farads: f64) {
        stamp_pair(a, b, 0.0, |r, c, _| self.entries.push((r, c)));
    }
}

// ---------------------------------------------------------------------------
// Symbolic cache
// ---------------------------------------------------------------------------

type SymbolicKey = (Vec<u64>, Analysis);

fn cache() -> &'static Mutex<HashMap<SymbolicKey, Arc<SparseSymbolic>>> {
    static CACHE: OnceLock<Mutex<HashMap<SymbolicKey, Arc<SparseSymbolic>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Drops every cached symbolic factorization (test/bench hook; the cache
/// repopulates transparently on the next sparse solve).
pub fn clear_symbolic_cache() {
    cache().lock().expect("symbolic cache poisoned").clear();
}

/// Number of distinct (topology, analysis) entries currently cached.
pub fn symbolic_cache_len() -> usize {
    cache().lock().expect("symbolic cache poisoned").len()
}

/// Builds the analysis pattern of a circuit: one structural stamping pass at
/// `x = 0` (stamp coordinates are value-independent — the MOSFET
/// drain/source swap permutes stamp order but not the coordinate set),
/// with the capacitance pairs for AC and transient.
fn build_pattern(ckt: &Circuit, analysis: Analysis) -> SparsePattern {
    let n = ckt.num_unknowns();
    let mut collector = PatternCollector {
        entries: Vec::new(),
        caps: analysis == Analysis::Ac,
    };
    let x = DVec::zeros(n);
    let mut res = DVec::zeros(n);
    stamp_system(ckt, &x, 1.0, 1.0, None, &mut collector, &mut res);
    SparsePattern::from_entries(n, &collector.entries).expect("circuit with unknowns has a pattern")
}

/// Returns the shared symbolic factorization for a circuit topology,
/// computing and caching it on first sight.
pub(crate) fn symbolic_for(ckt: &Circuit, analysis: Analysis) -> Arc<SparseSymbolic> {
    let key = (ckt.structure_key(), analysis);
    if let Some(hit) = cache().lock().expect("symbolic cache poisoned").get(&key) {
        return Arc::clone(hit);
    }
    let sym = Arc::new(SparseSymbolic::new(build_pattern(ckt, analysis)));
    Arc::clone(
        cache()
            .lock()
            .expect("symbolic cache poisoned")
            .entry(key)
            .or_insert(sym),
    )
}

// ---------------------------------------------------------------------------
// Linear-system workspace
// ---------------------------------------------------------------------------

/// The numeric factorization of a [`SystemSolver`]. One long-lived
/// instance per workspace, so the variant size gap does not matter.
#[allow(clippy::large_enum_variant)]
enum Factor<T> {
    Dense(Lu<T>),
    Sparse(SparseLu<T>),
}

/// Reusable MNA linear-system workspace, real (DC, transient, sensitivity)
/// or complex (AC).
///
/// Created once per analysis run; the value buffer, the factorization and
/// the solve buffers survive across Newton iterations, homotopy stages,
/// time steps and frequency points. This is the only code that reads the
/// circuit's [`SolverChoice`].
pub(crate) struct SystemSolver<T: SparseScalar = f64> {
    n: usize,
    /// The cached symbolic factorization on the sparse backend, whose
    /// pattern orders `vals`; `None` on the dense backend, where `vals` is
    /// the row-major `n × n` matrix.
    sym: Option<Arc<SparseSymbolic>>,
    vals: Vec<T>,
    factor: Option<Factor<T>>,
    rhs: Vec<T>,
    x: Vec<T>,
    scratch: Vec<T>,
}

impl<T: SparseScalar> SystemSolver<T> {
    pub(crate) fn new(ckt: &Circuit, analysis: Analysis) -> Self {
        let n = ckt.num_unknowns();
        let sym = ckt
            .solver()
            .uses_sparse(n)
            .then(|| symbolic_for(ckt, analysis));
        let len = sym.as_ref().map_or(n * n, |s| s.pattern().nnz());
        SystemSolver {
            n,
            sym,
            vals: vec![T::ZERO; len],
            factor: None,
            rhs: vec![T::ZERO; n],
            x: vec![T::ZERO; n],
            scratch: vec![T::ZERO; n],
        }
    }

    /// The matrix values, laid out like [`SystemSolver::gather`] output.
    pub(crate) fn values_mut(&mut self) -> &mut [T] {
        &mut self.vals
    }

    /// The entries of a dense matrix in this workspace's value layout.
    pub(crate) fn gather(&self, m: &DMat) -> Vec<f64> {
        let Some(sym) = &self.sym else {
            return m.as_slice().to_vec();
        };
        let pat = sym.pattern();
        let mut out = vec![0.0; pat.nnz()];
        for col in 0..self.n {
            for (p, &row) in pat.col_range(col).zip(pat.col(col)) {
                out[p] = m[(row, col)];
            }
        }
        out
    }

    /// True when every assembled matrix entry is finite.
    pub(crate) fn is_finite(&self) -> bool {
        self.vals.iter().all(|v| v.is_finite_scalar())
    }

    /// Factors the assembled matrix.
    ///
    /// The sparse backend refactors in place on the frozen pivot sequence,
    /// falling back to a fresh (re-pivoting) factorization when the frozen
    /// pivots go numerically stale — the two produce bit-identical results
    /// whenever both succeed, so the fallback is purely a robustness path.
    pub(crate) fn factor(&mut self, analysis: &'static str) -> Result<(), MnaError> {
        let singular = |_| MnaError::SingularMatrix { analysis };
        self.factor = Some(match (&self.sym, self.factor.take()) {
            (None, _) => Factor::Dense(Lu::factor(self.n, &self.vals).map_err(singular)?),
            (Some(sym), prev) => {
                let frozen = match prev {
                    Some(Factor::Sparse(mut lu)) => {
                        lu.refactor(sym, &self.vals).is_ok().then_some(lu)
                    }
                    _ => None,
                };
                match frozen {
                    Some(lu) => Factor::Sparse(lu),
                    None => Factor::Sparse(SparseLu::factor(sym, &self.vals).map_err(singular)?),
                }
            }
        });
        Ok(())
    }

    /// Solves `A·x = b` with `b[i] = rhs(i)` on the last factorization.
    pub(crate) fn solve(&mut self, rhs: impl Fn(usize) -> T) -> Result<&[T], MnaError> {
        self.solve_with(false, rhs)
    }

    /// Solves the transposed system `Aᵀ·x = b` with `b[i] = rhs(i)` on the
    /// last factorization.
    pub(crate) fn solve_transposed(&mut self, rhs: impl Fn(usize) -> T) -> Result<&[T], MnaError> {
        self.solve_with(true, rhs)
    }

    fn solve_with(&mut self, transposed: bool, rhs: impl Fn(usize) -> T) -> Result<&[T], MnaError> {
        for (i, b) in self.rhs.iter_mut().enumerate() {
            *b = rhs(i);
        }
        let (b, x, s) = (&self.rhs, &mut self.x, &mut self.scratch);
        match (
            self.factor.as_ref().expect("solve before factor"),
            transposed,
        ) {
            (Factor::Dense(lu), false) => lu.solve_slice(b, x, s),
            (Factor::Dense(lu), true) => lu.solve_transposed_slice(b, x, s),
            (Factor::Sparse(lu), false) => lu.solve_slice(b, x, s),
            (Factor::Sparse(lu), true) => lu.solve_transposed_slice(b, x, s),
        }?;
        Ok(&self.x)
    }
}

impl SystemSolver<f64> {
    /// Factors the assembled Jacobian and solves the Newton step
    /// `J·delta = −res`.
    pub(crate) fn factor_solve(
        &mut self,
        res: &DVec,
        analysis: &'static str,
    ) -> Result<DVec, MnaError> {
        self.factor(analysis)?;
        Ok(DVec::from_slice(self.solve(|i| -res[i])?))
    }
}

impl Stamper for SystemSolver<f64> {
    fn clear(&mut self) {
        self.vals.fill(0.0);
    }
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        let idx = match &self.sym {
            None => {
                assert!(r < self.n && c < self.n, "stamp ({r},{c}) out of range");
                r * self.n + c
            }
            Some(sym) => sym
                .pattern()
                .index_of(r, c)
                .expect("stamp lands outside the precomputed sparsity pattern"),
        };
        self.vals[idx] += v;
    }
}

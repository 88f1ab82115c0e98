//! Solver-backend selection and the shared Newton linear-system workspace.
//!
//! Every analysis (DC, transient, AC) assembles the same MNA Jacobian
//! structure over and over: per Newton iteration, per homotopy step, per
//! time step, per frequency, per sweep point, per Monte-Carlo sample. This
//! module provides the machinery that makes the repeat work cheap:
//!
//! * [`Stamper`] — the assembly target abstraction. Element stamps write
//!   through `add(r, c, v)`, which lands either in a dense [`DMat`] or in a
//!   flat sparse value array through a precomputed CSC index map (no
//!   hashing, no allocation per iteration).
//! * a process-wide **symbolic cache**: the sparsity pattern and
//!   fill-reducing ordering of a circuit topology are computed once, keyed
//!   by an exact structural key (element kinds + node wiring — values
//!   excluded), and shared by every subsequent solve of any circuit with
//!   that topology. MC/IS sampling re-evaluates one topology thousands of
//!   times, so the hit rate is essentially 100% after the first sample.
//! * [`SystemSolver`] — the per-analysis workspace holding the assembly
//!   buffer and the numeric factorization. The sparse backend keeps its
//!   [`SparseLu`] alive across Newton iterations and refactors in place
//!   (`O(flops)`, no symbolic work); the dense backend zeroes its matrix in
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

use specwise_linalg::{DMat, DVec, SparseLu, SparsePattern, SparseSymbolic};

use crate::dc::stamp_system;
use crate::netlist::ElementKind;
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

/// Which analysis a sparsity pattern serves. Transient and AC patterns are
/// supersets of the DC pattern: they union in the capacitor companion /
/// Meyer-capacitance node pairs (over *all* MOSFET regions, so the pattern
/// stays independent of the operating point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Analysis {
    Dc,
    Tran,
    Ac,
}

/// Assembly target of [`stamp_system`]: dense matrix, sparse value array,
/// or pattern collector.
pub(crate) trait Stamper {
    /// Zeroes the assembly buffer in place (no reallocation).
    fn clear(&mut self);
    /// Adds `v` at `(r, c)`.
    fn add(&mut self, r: usize, c: usize, v: f64);
}

impl Stamper for DMat {
    fn clear(&mut self) {
        self.fill(0.0);
    }
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        self[(r, c)] += v;
    }
}

/// Records the set of stamped coordinates (symbolic-analysis pass).
pub(crate) struct PatternCollector {
    pub entries: Vec<(usize, usize)>,
}

impl Stamper for PatternCollector {
    fn clear(&mut self) {
        self.entries.clear();
    }
    #[inline]
    fn add(&mut self, r: usize, c: usize, _v: f64) {
        self.entries.push((r, c));
    }
}

/// Sparse assembly buffer: values laid out per the cached pattern.
pub(crate) struct SparseWork {
    sym: Arc<SparseSymbolic>,
    pub vals: Vec<f64>,
}

impl SparseWork {
    pub(crate) fn new(sym: Arc<SparseSymbolic>) -> Self {
        let nnz = sym.pattern().nnz();
        SparseWork {
            sym,
            vals: vec![0.0; nnz],
        }
    }

    pub(crate) fn symbolic(&self) -> &Arc<SparseSymbolic> {
        &self.sym
    }
}

impl Stamper for SparseWork {
    fn clear(&mut self) {
        self.vals.fill(0.0);
    }
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        let idx = self
            .sym
            .pattern()
            .index_of(r, c)
            .expect("stamp lands outside the precomputed sparsity pattern");
        self.vals[idx] += v;
    }
}

// ---------------------------------------------------------------------------
// Symbolic cache
// ---------------------------------------------------------------------------

type SymbolicKey = (Vec<u64>, u8);

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

/// Adds the node pairs of a two-terminal capacitance to the pattern
/// (the same four stamps `stamp_cap`/companion models produce).
fn push_cap_pairs(
    entries: &mut Vec<(usize, usize)>,
    ckt: &Circuit,
    a: crate::NodeId,
    b: crate::NodeId,
) {
    let (ia, ib) = (ckt.node_unknown(a), ckt.node_unknown(b));
    if let Some(i) = ia {
        entries.push((i, i));
    }
    if let Some(j) = ib {
        entries.push((j, j));
    }
    if let (Some(i), Some(j)) = (ia, ib) {
        entries.push((i, j));
        entries.push((j, i));
    }
}

/// Builds the analysis pattern of a circuit: one structural stamping pass at
/// `x = 0` (stamp coordinates are value-independent — the MOSFET
/// drain/source swap permutes stamp order but not the coordinate set), plus
/// the capacitance pairs for transient/AC.
fn build_pattern(ckt: &Circuit, analysis: Analysis) -> SparsePattern {
    let n = ckt.num_unknowns();
    let mut collector = PatternCollector {
        entries: Vec::new(),
    };
    let x = DVec::zeros(n);
    let mut res = DVec::zeros(n);
    stamp_system(ckt, &x, 1.0, 1.0, None, &mut collector, &mut res);
    let mut entries = collector.entries;
    if analysis != Analysis::Dc {
        for kind in ckt.kinds() {
            match kind {
                ElementKind::Capacitor { a, b, .. } => push_cap_pairs(&mut entries, ckt, *a, *b),
                ElementKind::Mosfet { d, g, s, b, .. } => {
                    for (na, nb) in [(*g, *s), (*g, *d), (*g, *b)] {
                        push_cap_pairs(&mut entries, ckt, na, nb);
                    }
                }
                _ => {}
            }
        }
    }
    SparsePattern::from_entries(n, &entries).expect("circuit with unknowns has a pattern")
}

/// Returns the shared symbolic factorization for a circuit topology,
/// computing and caching it on first sight.
pub(crate) fn symbolic_for(ckt: &Circuit, analysis: Analysis) -> Arc<SparseSymbolic> {
    let tag = match analysis {
        Analysis::Dc => 0u8,
        Analysis::Tran => 1,
        Analysis::Ac => 2,
    };
    let key = (ckt.structure_key(), tag);
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
// Newton system workspace
// ---------------------------------------------------------------------------

// One long-lived instance per analysis run; the variant size gap is
// irrelevant next to the heap buffers both variants own.
#[allow(clippy::large_enum_variant)]
enum Backend {
    Dense {
        jac: DMat,
    },
    Sparse {
        work: SparseWork,
        lu: Option<SparseLu<f64>>,
        bbuf: Vec<f64>,
        xbuf: Vec<f64>,
        scratch: Vec<f64>,
    },
}

/// Reusable linear-system workspace of one Newton-based analysis.
///
/// Created once per analysis run; the assembly buffer and (for the sparse
/// backend) the numeric factorization survive across Newton iterations,
/// homotopy stages, and time steps.
pub(crate) struct SystemSolver {
    n: usize,
    backend: Backend,
}

impl SystemSolver {
    pub(crate) fn new(ckt: &Circuit, analysis: Analysis) -> Self {
        let n = ckt.num_unknowns();
        let backend = if ckt.solver().uses_sparse(n) {
            Backend::Sparse {
                work: SparseWork::new(symbolic_for(ckt, analysis)),
                lu: None,
                bbuf: vec![0.0; n],
                xbuf: vec![0.0; n],
                scratch: vec![0.0; n],
            }
        } else {
            Backend::Dense {
                jac: DMat::zeros(n, n),
            }
        };
        SystemSolver { n, backend }
    }

    /// Whether this workspace runs the sparse backend.
    #[allow(dead_code)]
    pub(crate) fn is_sparse(&self) -> bool {
        matches!(self.backend, Backend::Sparse { .. })
    }

    /// The assembly target for [`stamp_system`] and companion stamps.
    pub(crate) fn stamper(&mut self) -> &mut dyn Stamper {
        match &mut self.backend {
            Backend::Dense { jac } => jac,
            Backend::Sparse { work, .. } => work,
        }
    }

    /// True when every assembled Jacobian entry is finite.
    pub(crate) fn is_finite(&self) -> bool {
        match &self.backend {
            Backend::Dense { jac } => jac.is_finite(),
            Backend::Sparse { work, .. } => work.vals.iter().all(|v| v.is_finite()),
        }
    }

    /// Factors the assembled Jacobian and solves `J·delta = −res`.
    ///
    /// The sparse backend refactors in place on the frozen pivot sequence,
    /// falling back to a fresh (re-pivoting) factorization when the frozen
    /// pivots go numerically stale — the two produce bit-identical results
    /// whenever both succeed, so the fallback is purely a robustness path.
    pub(crate) fn factor_solve(
        &mut self,
        res: &DVec,
        analysis: &'static str,
    ) -> Result<DVec, MnaError> {
        match &mut self.backend {
            Backend::Dense { jac } => {
                let lu = jac
                    .lu()
                    .map_err(|_| MnaError::SingularMatrix { analysis })?;
                Ok(lu.solve(&(-res))?)
            }
            Backend::Sparse {
                work,
                lu,
                bbuf,
                xbuf,
                scratch,
            } => {
                let refreshed = match lu.take() {
                    Some(mut f) => match f.refactor(work.symbolic(), &work.vals) {
                        Ok(()) => Some(f),
                        Err(_) => None,
                    },
                    None => None,
                };
                let f = match refreshed {
                    Some(f) => f,
                    None => SparseLu::factor(work.symbolic(), &work.vals)
                        .map_err(|_| MnaError::SingularMatrix { analysis })?,
                };
                for i in 0..self.n {
                    bbuf[i] = -res[i];
                }
                f.solve_slice(bbuf, xbuf, scratch)?;
                *lu = Some(f);
                Ok(DVec::from_slice(xbuf))
            }
        }
    }
}

//! Sparse matrix types and a fill-reducing sparse LU factorization.
//!
//! The MNA Jacobian of an analog circuit is extremely sparse (a handful of
//! entries per row, fixed by the topology), and the yield flow factors the
//! *same* sparsity pattern thousands of times at nearby parameter points.
//! This module splits that work the way production circuit solvers (KLU,
//! Sparse 1.3) do:
//!
//! * [`SparsePattern`] — an immutable compressed-sparse-column pattern built
//!   once per circuit topology (via [`SparsePattern::from_entries`]);
//!   values live in a flat slice indexed by pattern position,
//!   so per-iteration assembly is just `vals[idx] += v` with no hashing and
//!   no allocation.
//! * [`SparseSymbolic`] — the pattern plus a fill-reducing column ordering
//!   (greedy minimum degree on the symmetrized pattern `A + Aᵀ`). Computed
//!   once and shared (it is cheap to clone behind an `Arc`).
//! * [`SparseLu`] — a left-looking Gilbert–Peierls factorization with
//!   partial pivoting, generic over [`f64`] and [`Complex64`]. The first
//!   [`SparseLu::factor`] learns the elimination structure (reach sets,
//!   fill pattern, pivot sequence); every later [`SparseLu::refactor`]
//!   replays that structure on new values in `O(flops)` with no graph
//!   traversal and no allocation, falling back with an error when the
//!   frozen pivot sequence becomes numerically unacceptable so the caller
//!   can re-factor from scratch. Its pivot acceptance is filtered: a cheap
//!   modulus bound settles almost every check, and only an inconclusive
//!   bound pays for the exact modulus (`hypot` on complex values), with the
//!   same accept/reject either way.
//!
//! Singular detection mirrors the dense [`Lu`](crate::Lu): a factorization
//! fails with [`LinalgError::Singular`] when the best available pivot does
//! not exceed `max|aᵢⱼ|·1e-300`, so dense and sparse agree on which systems
//! are solvable.

use std::collections::BTreeSet;
use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::{Complex64, DVec, LinalgError};

/// Relative pivot threshold below which a matrix is declared singular.
/// Identical to the dense LU threshold so the two backends agree.
const PIVOT_REL_TOL: f64 = 1e-300;

/// A refactorization pivot must stay within this factor of the largest
/// candidate in its column, or [`SparseLu::refactor`] reports the frozen
/// pivot sequence as stale (the caller then re-factors with fresh pivoting).
const REFACTOR_PIVOT_RATIO: f64 = 1e-8;

const UNSET: usize = usize::MAX;

/// Scalar types the dense [`Lu`](crate::Lu) and the sparse LU can factor:
/// real [`f64`] and [`Complex64`].
pub trait SparseScalar:
    Copy
    + PartialEq
    + std::fmt::Debug
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// Additive identity.
    const ZERO: Self;
    /// Modulus (absolute value) used for pivot selection.
    fn modulus(self) -> f64;
    /// True when the value contains no NaN/infinity.
    fn is_finite_scalar(self) -> bool;
    /// A cheap stand-in `M` for the modulus with `M ≤ |x| ≤ √2·M` whenever
    /// `M` is finite, so [`SparseLu::refactor`] can settle most pivot
    /// checks without a square root. The default is the modulus itself.
    #[inline]
    fn modulus_bound(self) -> f64 {
        self.modulus()
    }
}

impl SparseScalar for f64 {
    const ZERO: f64 = 0.0;
    #[inline]
    fn modulus(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn is_finite_scalar(self) -> bool {
        self.is_finite()
    }
}

impl SparseScalar for Complex64 {
    const ZERO: Complex64 = Complex64::ZERO;
    #[inline]
    fn modulus(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn is_finite_scalar(self) -> bool {
        self.is_finite()
    }
    /// `max(|re|, |im|)`, skipping a NaN part like [`f64::max`] does.
    #[inline]
    fn modulus_bound(self) -> f64 {
        self.re.abs().max(self.im.abs())
    }
}

/// Immutable compressed-sparse-column sparsity pattern of a square matrix.
///
/// Built once per topology; positions returned by [`SparsePattern::index_of`]
/// stay valid for the lifetime of the pattern, so callers can precompute an
/// index map and assemble values with plain slice writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsePattern {
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
}

impl SparsePattern {
    /// Builds a pattern from `(row, col)` pairs (duplicates are merged).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for `n == 0` and
    /// [`LinalgError::DimensionMismatch`] when an index is out of range.
    pub fn from_entries(n: usize, entries: &[(usize, usize)]) -> Result<Self, LinalgError> {
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let mut sorted: Vec<(usize, usize)> = Vec::with_capacity(entries.len());
        for &(r, c) in entries {
            if r >= n || c >= n {
                return Err(LinalgError::DimensionMismatch {
                    op: "sparse pattern entry",
                    expected: n,
                    found: r.max(c),
                });
            }
            sorted.push((c, r));
        }
        sorted.sort_unstable();
        sorted.dedup();
        let mut col_ptr = vec![0usize; n + 1];
        let mut row_idx = Vec::with_capacity(sorted.len());
        for &(c, r) in &sorted {
            col_ptr[c + 1] += 1;
            row_idx.push(r);
        }
        for c in 0..n {
            col_ptr[c + 1] += col_ptr[c];
        }
        Ok(SparsePattern {
            n,
            col_ptr,
            row_idx,
        })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Position of entry `(r, c)` in the values array, if present.
    #[inline]
    pub fn index_of(&self, r: usize, c: usize) -> Option<usize> {
        let lo = self.col_ptr[c];
        let hi = self.col_ptr[c + 1];
        self.row_idx[lo..hi]
            .binary_search(&r)
            .ok()
            .map(|off| lo + off)
    }

    /// Row indices of column `c`.
    #[inline]
    pub fn col(&self, c: usize) -> &[usize] {
        &self.row_idx[self.col_ptr[c]..self.col_ptr[c + 1]]
    }

    /// Range of positions belonging to column `c`.
    #[inline]
    pub fn col_range(&self, c: usize) -> std::ops::Range<usize> {
        self.col_ptr[c]..self.col_ptr[c + 1]
    }
}

/// Sparsity pattern plus a fill-reducing column ordering.
///
/// The ordering is a greedy minimum-degree elimination on the symmetrized
/// pattern `A + Aᵀ` with deterministic lowest-index tie-breaking — the same
/// family of heuristic as AMD/Markowitz, sized for MNA systems (tens of
/// unknowns) where the `O(n²)` degree scan is negligible.
#[derive(Debug, Clone)]
pub struct SparseSymbolic {
    pattern: SparsePattern,
    colperm: Vec<usize>,
}

impl SparseSymbolic {
    /// Analyzes a pattern: computes the fill-reducing column order.
    pub fn new(pattern: SparsePattern) -> Self {
        let colperm = min_degree_order(&pattern);
        SparseSymbolic { pattern, colperm }
    }

    /// The underlying pattern.
    pub fn pattern(&self) -> &SparsePattern {
        &self.pattern
    }
}

/// Greedy minimum-degree ordering on the symmetrized pattern.
fn min_degree_order(pattern: &SparsePattern) -> Vec<usize> {
    let n = pattern.n();
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for c in 0..n {
        for &r in pattern.col(c) {
            if r != c {
                adj[r].insert(c);
                adj[c].insert(r);
            }
        }
    }
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let mut best = UNSET;
        let mut best_deg = usize::MAX;
        for v in 0..n {
            if !eliminated[v] && adj[v].len() < best_deg {
                best_deg = adj[v].len();
                best = v;
            }
        }
        eliminated[best] = true;
        order.push(best);
        let neigh: Vec<usize> = adj[best].iter().copied().collect();
        for &u in &neigh {
            adj[u].remove(&best);
        }
        for i in 0..neigh.len() {
            for k in (i + 1)..neigh.len() {
                adj[neigh[i]].insert(neigh[k]);
                adj[neigh[k]].insert(neigh[i]);
            }
        }
        adj[best].clear();
    }
    order
}

/// Sparse LU factorization `P·A·Q = L·U` with partial pivoting and a frozen,
/// replayable elimination structure.
///
/// `Q` is the fill-reducing column order from [`SparseSymbolic`]; `P` is the
/// row permutation chosen by partial pivoting during [`SparseLu::factor`].
/// [`SparseLu::refactor`] reuses `P`, `Q`, the fill pattern, and the
/// elimination schedule, so repeated factorizations of the same topology
/// (Newton iterations, continuation steps, frequency/time/sweep points,
/// Monte-Carlo samples) skip all symbolic work.
#[derive(Debug, Clone)]
pub struct SparseLu<T> {
    n: usize,
    /// `colperm[k]` = original column eliminated at step `k` (copy of the
    /// symbolic order, kept so solves don't need the symbolic object).
    colperm: Vec<usize>,
    /// `prow[k]` = original row pivotal at step `k`.
    prow: Vec<usize>,
    /// `pinv[r]` = pivot step at which original row `r` became pivotal.
    pinv: Vec<usize>,
    /// L (unit lower in pivot order), stored by elimination step: column `k`
    /// holds the not-yet-pivotal original rows with multipliers.
    l_ptr: Vec<usize>,
    l_rows: Vec<usize>,
    l_vals: Vec<T>,
    /// U off-diagonal entries of step `jj`, keyed by earlier pivot step and
    /// stored in elimination (topological) order for exact replay.
    u_ptr: Vec<usize>,
    u_pos: Vec<usize>,
    u_vals: Vec<T>,
    u_diag: Vec<T>,
    /// Scratch reused across refactorizations (workspace + epoch flags).
    scratch_w: Vec<T>,
    scratch_flag: Vec<u32>,
    scratch_epoch: u32,
}

/// Marks workspace row `r` as part of step `epoch`, zeroing it on first
/// touch; returns whether this was the first touch.
#[inline]
fn ensure<T: SparseScalar>(r: usize, epoch: u32, flags: &mut [u32], w: &mut [T]) -> bool {
    let fresh = flags[r] != epoch;
    if fresh {
        flags[r] = epoch;
        w[r] = T::ZERO;
    }
    fresh
}

/// The singular-check scale `max(1, max|aᵢⱼ|)`, shared with the dense LU.
fn pivot_scale<T: SparseScalar>(vals: &[T]) -> f64 {
    vals.iter().fold(0.0f64, |m, v| m.max(v.modulus())).max(1.0)
}

/// `max(1, 2·max M(aᵢⱼ))`, an upper bound on [`pivot_scale`] (see
/// [`SparseLu::refactor`]'s filter).
fn pivot_scale_bound<T: SparseScalar>(vals: &[T]) -> f64 {
    (2.0 * vals.iter().fold(0.0f64, |m, v| m.max(v.modulus_bound()))).max(1.0)
}

impl<T: SparseScalar> SparseLu<T> {
    /// Factors the values `vals` (laid out per `sym.pattern()`), learning the
    /// elimination structure for later [`SparseLu::refactor`] calls.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Empty`] for `n == 0`, [`LinalgError::DimensionMismatch`]
    /// when `vals` does not match the pattern, [`LinalgError::Singular`] when
    /// no acceptable pivot exists at some step (threshold identical to the
    /// dense LU).
    pub fn factor(sym: &SparseSymbolic, vals: &[T]) -> Result<Self, LinalgError> {
        let pattern = sym.pattern();
        let n = pattern.n();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        if vals.len() != pattern.nnz() {
            return Err(LinalgError::DimensionMismatch {
                op: "sparse lu values",
                expected: pattern.nnz(),
                found: vals.len(),
            });
        }
        assert!(n < u32::MAX as usize, "dimension exceeds epoch capacity");
        let scale = pivot_scale(vals);

        let mut pinv = vec![UNSET; n];
        let mut prow: Vec<usize> = Vec::with_capacity(n);
        let mut l_ptr = vec![0usize];
        let mut l_rows: Vec<usize> = Vec::new();
        let mut l_vals: Vec<T> = Vec::new();
        let mut u_ptr = vec![0usize];
        let mut u_pos: Vec<usize> = Vec::new();
        let mut u_vals: Vec<T> = Vec::new();
        let mut u_diag: Vec<T> = Vec::with_capacity(n);

        let mut w = vec![T::ZERO; n];
        let mut in_w = vec![0u32; n];
        let mut wrows: Vec<usize> = Vec::new();
        let mut visited = vec![0u32; n];
        let mut post: Vec<usize> = Vec::new();
        let mut dfs_stack: Vec<(usize, usize)> = Vec::new();

        for jj in 0..n {
            let epoch = (jj + 1) as u32;
            wrows.clear();
            post.clear();
            let c = sym.colperm[jj];

            // Scatter A(:,c) into the workspace.
            for idx in pattern.col_range(c) {
                let r = pattern.row_idx[idx];
                in_w[r] = epoch;
                w[r] = vals[idx];
                wrows.push(r);
            }

            // Reachability DFS over already-pivotal steps: the set of earlier
            // pivots whose L columns update this column, in topological order.
            for idx in pattern.col_range(c) {
                let start = pinv[pattern.row_idx[idx]];
                if start == UNSET || visited[start] == epoch {
                    continue;
                }
                visited[start] = epoch;
                dfs_stack.push((start, l_ptr[start]));
                while let Some(&(k, cur)) = dfs_stack.last() {
                    let end = l_ptr[k + 1];
                    let mut next_child = None;
                    let mut cursor = cur;
                    while cursor < end {
                        let kk = pinv[l_rows[cursor]];
                        cursor += 1;
                        if kk != UNSET && visited[kk] != epoch {
                            next_child = Some(kk);
                            break;
                        }
                    }
                    dfs_stack.last_mut().expect("stack nonempty").1 = cursor;
                    match next_child {
                        Some(kk) => {
                            visited[kk] = epoch;
                            dfs_stack.push((kk, l_ptr[kk]));
                        }
                        None => {
                            post.push(k);
                            dfs_stack.pop();
                        }
                    }
                }
            }

            // Eliminate in reverse postorder (dependencies first).
            for &k in post.iter().rev() {
                let pr = prow[k];
                if ensure(pr, epoch, &mut in_w, &mut w) {
                    wrows.push(pr);
                }
                let ukj = w[pr];
                u_pos.push(k);
                u_vals.push(ukj);
                for p in l_ptr[k]..l_ptr[k + 1] {
                    let r = l_rows[p];
                    if ensure(r, epoch, &mut in_w, &mut w) {
                        wrows.push(r);
                    }
                    w[r] = w[r] - l_vals[p] * ukj;
                }
            }
            u_ptr.push(u_pos.len());

            // Partial pivoting over not-yet-pivotal rows (discovery order,
            // first-max tie-break — deterministic).
            let mut best = UNSET;
            let mut best_mod = -1.0f64;
            for &r in &wrows {
                if pinv[r] == UNSET {
                    let m = w[r].modulus();
                    if m > best_mod {
                        best_mod = m;
                        best = r;
                    }
                }
            }
            if best == UNSET || !(best_mod > scale * PIVOT_REL_TOL) {
                return Err(LinalgError::Singular { pivot: jj });
            }
            let pivot = w[best];
            pinv[best] = jj;
            prow.push(best);
            u_diag.push(pivot);
            for &r in &wrows {
                if pinv[r] == UNSET {
                    l_rows.push(r);
                    l_vals.push(w[r] / pivot);
                }
            }
            l_ptr.push(l_rows.len());
        }

        Ok(SparseLu {
            n,
            colperm: sym.colperm.clone(),
            prow,
            pinv,
            l_ptr,
            l_rows,
            l_vals,
            u_ptr,
            u_pos,
            u_vals,
            u_diag,
            scratch_w: w,
            scratch_flag: in_w,
            scratch_epoch: n as u32,
        })
    }

    /// Re-runs the numeric factorization on new values with the frozen
    /// pattern, pivot sequence, and elimination schedule. Bit-identical to
    /// [`SparseLu::factor`] when called with the same values. Allocates
    /// nothing.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] on a pattern mismatch;
    /// [`LinalgError::Singular`] when a frozen pivot underflows the singular
    /// threshold **or** falls below `1e-8×` the largest candidate in its
    /// column — the caller should then [`SparseLu::factor`] afresh, which
    /// re-pivots (and decides singularity for real).
    pub fn refactor(&mut self, sym: &SparseSymbolic, vals: &[T]) -> Result<(), LinalgError> {
        self.refactor_checked::<true>(sym, vals)
    }

    /// [`SparseLu::refactor`] with the pivot checks filtered (`FILTERED`)
    /// or, as a reference, every check on the exact modulus.
    ///
    /// # The filter
    ///
    /// Both checks compare moduli (`hypot` for complex values), yet almost
    /// never come close to failing. The filter first tries the cheap bound
    /// `M` of [`SparseScalar::modulus_bound`]: for finite `z`,
    /// `M ≤ |z| ≤ √2·M`, and the filter takes `2·M` as the upper bound, so
    /// the ~29% slack absorbs `hypot`'s rounding on either side.
    ///
    /// * **Singular check** (`|p| > scale·1e-300` with
    ///   `scale = max(1, max|aᵢⱼ|)`). `scale_ub = max(1, 2·max M(aᵢⱼ))`
    ///   bounds `scale` from above, so a finite pivot with
    ///   `M(p) > scale_ub·1e-300` passes: `hypot` is faithfully rounded, so
    ///   it never returns less than the representable `M(p)`, and as
    ///   `scale_ub ≥ 1` such an `M(p)` is also in the normal range.
    /// * **Ratio check** (`|p| ≥ 1e-8·max(|p|, max|lᵢ|)`). A pivot with
    ///   `M(p) ≥ 1e-8·2·max M(lᵢ)` passes, since `|p| ≥ M(p)` and every
    ///   `|lᵢ| ≤ 2·M(lᵢ)`.
    /// * **Fallback.** Otherwise — a non-finite pivot or an inconclusive
    ///   bound — the exact check runs, computing `scale` at most once per
    ///   refactor.
    ///
    /// A NaN part is skipped by [`f64::max`] in both folds: `hypot` of a
    /// value with a NaN part is NaN (dropped from the exact fold) or
    /// infinite (and then so is its `M`), while its `M` is the other part's
    /// magnitude or NaN (dropped), so such a value can only raise a bound.
    /// A pivot with a NaN part never takes the fast singular path. Accept
    /// and reject are therefore identical with and without the filter, and
    /// the factor values (`w − l·u`, `w / p`) never depend on it.
    fn refactor_checked<const FILTERED: bool>(
        &mut self,
        sym: &SparseSymbolic,
        vals: &[T],
    ) -> Result<(), LinalgError> {
        let pattern = sym.pattern();
        if pattern.n() != self.n || vals.len() != pattern.nnz() {
            return Err(LinalgError::DimensionMismatch {
                op: "sparse lu refactor",
                expected: self.n,
                found: pattern.n(),
            });
        }
        let scale_ub = pivot_scale_bound(vals);
        let mut scale = None;
        for jj in 0..self.n {
            if self.scratch_epoch == u32::MAX {
                self.scratch_flag.fill(0);
                self.scratch_epoch = 0;
            }
            self.scratch_epoch += 1;
            let epoch = self.scratch_epoch;
            let w = &mut self.scratch_w;
            let flags = &mut self.scratch_flag;
            let l_range = self.l_ptr[jj]..self.l_ptr[jj + 1];

            // Zero the frozen work pattern of this step: pivot row, U rows,
            // L rows (every A entry lands inside this set — see factor()).
            ensure(self.prow[jj], epoch, flags, w);
            for p in self.u_ptr[jj]..self.u_ptr[jj + 1] {
                ensure(self.prow[self.u_pos[p]], epoch, flags, w);
            }
            for p in l_range.clone() {
                ensure(self.l_rows[p], epoch, flags, w);
            }
            let c = self.colperm[jj];
            for idx in pattern.col_range(c) {
                let r = pattern.row_idx[idx];
                debug_assert_eq!(flags[r], epoch, "pattern row outside frozen structure");
                w[r] = vals[idx];
            }

            // Replay the elimination schedule.
            for p in self.u_ptr[jj]..self.u_ptr[jj + 1] {
                let k = self.u_pos[p];
                let ukj = w[self.prow[k]];
                self.u_vals[p] = ukj;
                for q in self.l_ptr[k]..self.l_ptr[k + 1] {
                    let r = self.l_rows[q];
                    w[r] = w[r] - self.l_vals[q] * ukj;
                }
            }

            // Pivot acceptance: frozen pivot must remain dominant enough.
            let pivot = w[self.prow[jj]];
            let pm_ub = pivot.modulus_bound();
            if !(FILTERED && pivot.is_finite_scalar() && pm_ub > scale_ub * PIVOT_REL_TOL) {
                let scale = *scale.get_or_insert_with(|| pivot_scale(vals));
                if !(pivot.modulus() > scale * PIVOT_REL_TOL) {
                    return Err(LinalgError::Singular { pivot: jj });
                }
            }
            let l_ub = || {
                l_range
                    .clone()
                    .fold(0.0f64, |m, p| m.max(w[self.l_rows[p]].modulus_bound()))
            };
            if !(FILTERED && pm_ub >= REFACTOR_PIVOT_RATIO * (2.0 * l_ub())) {
                let pm = pivot.modulus();
                let col_max = l_range
                    .clone()
                    .fold(pm, |m, p| m.max(w[self.l_rows[p]].modulus()));
                if pm < REFACTOR_PIVOT_RATIO * col_max {
                    return Err(LinalgError::Singular { pivot: jj });
                }
            }
            self.u_diag[jj] = pivot;
            for p in l_range {
                self.l_vals[p] = w[self.l_rows[p]] / pivot;
            }
        }
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A·x = b` using slices, with caller-provided scratch of
    /// length `n` (no allocation — the Newton loop calls this per iteration).
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] on length mismatches.
    pub fn solve_slice(&self, b: &[T], x: &mut [T], scratch: &mut [T]) -> Result<(), LinalgError> {
        let n = self.n;
        if b.len() != n || x.len() != n || scratch.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "sparse lu solve",
                expected: n,
                found: b.len().min(x.len()).min(scratch.len()),
            });
        }
        // z = P·b, then forward substitution with unit-lower L.
        for k in 0..n {
            scratch[k] = b[self.prow[k]];
        }
        for k in 0..n {
            let zk = scratch[k];
            for p in self.l_ptr[k]..self.l_ptr[k + 1] {
                let r = self.l_rows[p];
                scratch[self.pinv[r]] = scratch[self.pinv[r]] - self.l_vals[p] * zk;
            }
        }
        // Backward substitution with U (entries keyed by earlier pivot step).
        for jj in (0..n).rev() {
            let q = scratch[jj] / self.u_diag[jj];
            scratch[jj] = q;
            for p in self.u_ptr[jj]..self.u_ptr[jj + 1] {
                let k = self.u_pos[p];
                scratch[k] = scratch[k] - self.u_vals[p] * q;
            }
        }
        // Undo the column permutation.
        for jj in 0..n {
            x[self.colperm[jj]] = scratch[jj];
        }
        Ok(())
    }

    /// Solves the transposed system `Aᵀ·y = c` on the same factors, with
    /// caller-provided scratch of length `n` (no allocation).
    ///
    /// With `P·A·Q = L·U` the permuted system reads `Uᵀ·(Lᵀ·ŷ) = ĉ` where
    /// `ĉ[jj] = c[colperm[jj]]` and `y[prow[k]] = ŷ[k]`: one forward sweep
    /// with `Uᵀ` (lower triangular) and one backward sweep with `Lᵀ` (unit
    /// upper), both O(nnz). This is the adjoint-sensitivity workhorse — all
    /// margin gradients from already-cached numeric factors.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] on length mismatches.
    pub fn solve_transposed_slice(
        &self,
        c: &[T],
        y: &mut [T],
        scratch: &mut [T],
    ) -> Result<(), LinalgError> {
        let n = self.n;
        if c.len() != n || y.len() != n || scratch.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "sparse lu transposed solve",
                expected: n,
                found: c.len().min(y.len()).min(scratch.len()),
            });
        }
        // ĉ = Qᵀ·c, then forward substitution with Uᵀ: column jj of U holds
        // the entries U[k, jj] for earlier pivot steps k = u_pos[p].
        for jj in 0..n {
            scratch[jj] = c[self.colperm[jj]];
        }
        for jj in 0..n {
            let mut acc = scratch[jj];
            for p in self.u_ptr[jj]..self.u_ptr[jj + 1] {
                acc = acc - self.u_vals[p] * scratch[self.u_pos[p]];
            }
            scratch[jj] = acc / self.u_diag[jj];
        }
        // Backward substitution with Lᵀ (unit diagonal): column k of L holds
        // the multipliers for pivot rows pinv[l_rows[p]] > k.
        for k in (0..n).rev() {
            let mut acc = scratch[k];
            for p in self.l_ptr[k]..self.l_ptr[k + 1] {
                acc = acc - self.l_vals[p] * scratch[self.pinv[self.l_rows[p]]];
            }
            scratch[k] = acc;
        }
        // Undo the row permutation.
        for k in 0..n {
            y[self.prow[k]] = scratch[k];
        }
        Ok(())
    }
}

impl SparseLu<f64> {
    /// Convenience solve for real systems.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &DVec) -> Result<DVec, LinalgError> {
        let n = self.n;
        let mut x = vec![0.0; n];
        let mut scratch = vec![0.0; n];
        self.solve_slice(b.as_slice(), &mut x, &mut scratch)?;
        Ok(DVec::from_slice(&x))
    }

    /// Convenience transposed solve (`Aᵀ·y = c`) for real systems.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `c.len() != dim()`.
    pub fn solve_transposed(&self, c: &DVec) -> Result<DVec, LinalgError> {
        let n = self.n;
        let mut y = vec![0.0; n];
        let mut scratch = vec![0.0; n];
        self.solve_transposed_slice(c.as_slice(), &mut y, &mut scratch)?;
        Ok(DVec::from_slice(&y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DMat;

    /// Builds pattern+values from a dense matrix, treating every entry as
    /// structural (so patterns match what MNA stamping would produce).
    fn from_dense(a: &DMat) -> (SparseSymbolic, Vec<f64>) {
        let n = a.nrows();
        let mut entries = Vec::new();
        for r in 0..n {
            for c in 0..n {
                if a[(r, c)] != 0.0 {
                    entries.push((r, c));
                }
            }
        }
        let pattern = SparsePattern::from_entries(n, &entries).unwrap();
        let mut vals = vec![0.0; pattern.nnz()];
        for r in 0..n {
            for c in 0..n {
                if a[(r, c)] != 0.0 {
                    vals[pattern.index_of(r, c).unwrap()] = a[(r, c)];
                }
            }
        }
        (SparseSymbolic::new(pattern), vals)
    }

    #[test]
    fn pattern_lookup_merges_duplicates() {
        let p = SparsePattern::from_entries(3, &[(0, 0), (2, 1), (1, 1), (2, 2), (2, 1)]).unwrap();
        assert_eq!(p.nnz(), 4);
        assert_eq!(p.col(1), &[1, 2]);
        assert_eq!(p.col_range(1), 1..3);
        assert_eq!(p.index_of(2, 1), Some(2));
        assert!(p.index_of(0, 1).is_none());
    }

    #[test]
    fn solves_small_system_with_pivoting() {
        let a = DMat::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]]).unwrap();
        let (sym, vals) = from_dense(&a);
        let lu = SparseLu::factor(&sym, &vals).unwrap();
        let x = lu.solve(&DVec::from_slice(&[2.0, 2.0])).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn agrees_with_dense_on_pseudorandom_systems() {
        let mut state = 98765u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        for n in [1usize, 3, 8, 15, 24] {
            // ~40% sparse fill plus a dominant diagonal.
            let mut a = DMat::from_fn(n, n, |_, _| {
                let v = next();
                if v.abs() < 0.6 {
                    0.0
                } else {
                    v
                }
            });
            for i in 0..n {
                a[(i, i)] += n as f64 + 1.0;
            }
            let b = DVec::from_fn(n, |i| next() + i as f64);
            let xd = a.lu().unwrap().solve(&b).unwrap();
            let (sym, vals) = from_dense(&a);
            let lu = SparseLu::factor(&sym, &vals).unwrap();
            let xs = lu.solve(&b).unwrap();
            assert!((&xs - &xd).norm_inf() < 1e-10, "n={n}");
        }
    }

    #[test]
    fn transposed_solve_agrees_with_dense_on_pseudorandom_systems() {
        let mut state = 192837u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        for n in [1usize, 3, 8, 15, 24] {
            let mut a = DMat::from_fn(n, n, |_, _| {
                let v = next();
                if v.abs() < 0.6 {
                    0.0
                } else {
                    v
                }
            });
            for i in 0..n {
                a[(i, i)] += n as f64 + 1.0;
            }
            let c = DVec::from_fn(n, |i| next() + i as f64);
            let yd = a.lu().unwrap().solve_transposed(&c).unwrap();
            let (sym, vals) = from_dense(&a);
            let lu = SparseLu::factor(&sym, &vals).unwrap();
            let ys = lu.solve_transposed(&c).unwrap();
            assert!((&ys - &yd).norm_inf() < 1e-10, "n={n}");
            // Residual check against the transposed system directly:
            // (Aᵀ·y)[j] = Σ_i a[i,j]·y[i].
            for j in 0..n {
                let acc: f64 = (0..n).map(|i| a[(i, j)] * ys[i]).sum();
                assert!((acc - c[j]).abs() < 1e-9, "n={n} col {j}");
            }
        }
    }

    #[test]
    fn complex_solves_match_dense_complex() {
        use crate::Lu;
        let n = 4;
        let mut entries = Vec::new();
        let mut dense = vec![Complex64::ZERO; n * n];
        let coords = [
            (0usize, 0usize, 3.0, 0.5),
            (1, 1, 4.0, -1.0),
            (2, 2, 5.0, 0.0),
            (3, 3, 2.0, 2.0),
            (0, 2, 1.0, 0.1),
            (2, 0, -1.0, 0.2),
            (1, 3, 0.5, -0.5),
            (3, 1, 0.25, 0.0),
        ];
        for &(r, c, re, im) in &coords {
            entries.push((r, c));
            dense[r * n + c] = Complex64::new(re, im);
        }
        let pattern = SparsePattern::from_entries(n, &entries).unwrap();
        let mut vals = vec![Complex64::ZERO; pattern.nnz()];
        for &(r, c, re, im) in &coords {
            vals[pattern.index_of(r, c).unwrap()] = Complex64::new(re, im);
        }
        let sym = SparseSymbolic::new(pattern);
        let lu = SparseLu::factor(&sym, &vals).unwrap();
        let dense = Lu::factor(n, &dense).unwrap();
        let b: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(i as f64 + 1.0, -0.5))
            .collect();
        let mut x = vec![Complex64::ZERO; n];
        let mut xd = vec![Complex64::ZERO; n];
        let mut scratch = vec![Complex64::ZERO; n];
        lu.solve_slice(&b, &mut x, &mut scratch).unwrap();
        dense.solve_slice(&b, &mut xd, &mut scratch).unwrap();
        for i in 0..n {
            assert!((x[i] - xd[i]).abs() < 1e-12, "component {i}");
        }
        lu.solve_transposed_slice(&b, &mut x, &mut scratch).unwrap();
        dense
            .solve_transposed_slice(&b, &mut xd, &mut scratch)
            .unwrap();
        for i in 0..n {
            assert!((x[i] - xd[i]).abs() < 1e-12, "transposed component {i}");
        }
    }

    #[test]
    fn refactor_is_bit_identical_to_factor() {
        let a = DMat::from_rows(&[
            &[4.0, 0.0, 1.0, 0.0],
            &[0.0, 3.0, 0.0, 2.0],
            &[1.0, 0.0, 5.0, 1.0],
            &[0.0, 2.0, 1.0, 6.0],
        ])
        .unwrap();
        let (sym, vals) = from_dense(&a);
        let mut lu = SparseLu::factor(&sym, &vals).unwrap();
        // Perturb values (same pattern), refactor, and compare against fresh.
        let vals2: Vec<f64> = vals.iter().map(|v| v * 1.25 + 0.01).collect();
        lu.refactor(&sym, &vals2).unwrap();
        let fresh = SparseLu::factor(&sym, &vals2).unwrap();
        assert_eq!(lu.u_diag, fresh.u_diag);
        assert_eq!(lu.l_vals, fresh.l_vals);
        assert_eq!(lu.u_vals, fresh.u_vals);
        let b = DVec::from_slice(&[1.0, -2.0, 3.0, 0.5]);
        assert_eq!(
            lu.solve(&b).unwrap().as_slice(),
            fresh.solve(&b).unwrap().as_slice()
        );
    }

    #[test]
    fn refactor_rejects_stale_pivot_order() {
        // First matrix pivots happily on the diagonal; the second makes the
        // frozen pivot tiny relative to its column, forcing re-factorization.
        let a = DMat::from_rows(&[&[10.0, 1.0], &[1.0, 10.0]]).unwrap();
        let (sym, vals) = from_dense(&a);
        let mut lu = SparseLu::factor(&sym, &vals).unwrap();
        let b = DMat::from_rows(&[&[1e-12, 1.0], &[1.0, 1e-12]]).unwrap();
        let (_, vals2) = from_dense(&b);
        assert!(matches!(
            lu.refactor(&sym, &vals2),
            Err(LinalgError::Singular { .. })
        ));
        // A fresh factorization handles it fine (re-pivots).
        let fresh = SparseLu::factor(&sym, &vals2).unwrap();
        let x = fresh.solve(&DVec::from_slice(&[1.0, 2.0])).unwrap();
        assert!((x[1] - 1.0).abs() < 1e-9);
        assert!((x[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn singular_detection_matches_dense() {
        // Duplicate rows: the elimination cancels exactly in both backends.
        let a = DMat::from_rows(&[&[1.0, 2.0, 0.0], &[1.0, 2.0, 0.0], &[0.0, 1.0, 1.0]]).unwrap();
        assert!(matches!(a.lu(), Err(LinalgError::Singular { .. })));
        let (sym, vals) = from_dense(&a);
        assert!(matches!(
            SparseLu::factor(&sym, &vals),
            Err(LinalgError::Singular { .. })
        ));
        // Structurally singular (empty column).
        let p = SparsePattern::from_entries(2, &[(0, 0), (1, 0)]).unwrap();
        let sym = SparseSymbolic::new(p);
        assert!(matches!(
            SparseLu::<f64>::factor(&sym, &[1.0, 1.0]),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn fill_reducing_order_beats_natural_on_arrow_matrix() {
        // Arrow matrix with the dense row/col first: natural order fills the
        // whole matrix, minimum degree eliminates the spokes first.
        let n = 12;
        let mut entries = vec![(0usize, 0usize)];
        for i in 1..n {
            entries.push((i, i));
            entries.push((0, i));
            entries.push((i, 0));
        }
        let pattern = SparsePattern::from_entries(n, &entries).unwrap();
        let mut vals = vec![0.0; pattern.nnz()];
        for &(r, c) in &entries {
            vals[pattern.index_of(r, c).unwrap()] = if r == c { 10.0 } else { 1.0 };
        }
        let sym = SparseSymbolic::new(pattern.clone());
        // The hub (initial degree n−1) must sink to the end of the order;
        // it can tie with the final spoke once its degree has shrunk to 1.
        assert!(sym.colperm[n - 2..].contains(&0));
        let lu = SparseLu::factor(&sym, &vals).unwrap();
        // With the hub last there is zero fill beyond the original pattern:
        // n − 1 entries in L and in U, plus the n pivots.
        assert_eq!(lu.l_rows.len(), n - 1);
        assert_eq!(lu.u_pos.len() + lu.u_diag.len(), (n - 1) + n);
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        assert!(matches!(
            SparsePattern::from_entries(0, &[]),
            Err(LinalgError::Empty)
        ));
        assert!(matches!(
            SparsePattern::from_entries(2, &[(2, 0)]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        let p = SparsePattern::from_entries(2, &[(0, 0), (1, 1)]).unwrap();
        let sym = SparseSymbolic::new(p);
        assert!(matches!(
            SparseLu::<f64>::factor(&sym, &[1.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    /// Scalars the pivot-filter referee draws: raw bits for comparison, and
    /// a value of modulus `m` at phase `phi` (the sign of `cos phi` for
    /// reals).
    trait Probe: SparseScalar {
        fn bits(self) -> [u64; 2];
        fn polar(m: f64, phi: f64) -> Self;
        fn parts(re: f64, im: f64) -> Self;
    }

    impl Probe for f64 {
        fn bits(self) -> [u64; 2] {
            [self.to_bits(), 0]
        }
        fn polar(m: f64, phi: f64) -> f64 {
            if phi.cos() < 0.0 {
                -m
            } else {
                m
            }
        }
        fn parts(re: f64, _im: f64) -> f64 {
            re
        }
    }

    impl Probe for Complex64 {
        fn bits(self) -> [u64; 2] {
            [self.re.to_bits(), self.im.to_bits()]
        }
        fn polar(m: f64, phi: f64) -> Complex64 {
            Complex64::from_polar(m, phi)
        }
        fn parts(re: f64, im: f64) -> Complex64 {
            Complex64::new(re, im)
        }
    }

    struct Lcg(u64);

    impl Lcg {
        fn next_u64(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }
        fn below(&mut self, k: u64) -> u64 {
            self.next_u64() % k
        }
        /// Uniform in `[-1, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next_u64() as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        }
        /// A real part drawn across the hostile range: ordinary magnitudes
        /// over six decades, zeros, subnormals, values near 1e±300 and
        /// beyond, infinities and NaN.
        fn part(&mut self) -> f64 {
            let u = self.unit();
            match self.below(20) {
                0 => 0.0,
                1 => f64::NAN,
                2 => f64::INFINITY.copysign(u),
                3 => f64::MIN_POSITIVE * u,
                4 => 5e-324 * (1.0 + self.below(8) as f64).copysign(u),
                5 => 1e300 * u,
                6 => 1e-300 * u,
                7 => f64::MAX.copysign(u),
                _ => u * 10f64.powi(self.below(7) as i32 - 3),
            }
        }
        fn scalar<T: Probe>(&mut self) -> T {
            let re = self.part();
            let im = if self.below(4) == 0 { 0.0 } else { self.part() };
            T::parts(re, im)
        }
        /// `1 + k·ε` for a small ulp offset `k ∈ [-4, 4]`.
        fn ulps(&mut self) -> f64 {
            1.0 + (self.below(9) as f64 - 4.0) * f64::EPSILON
        }
        /// On an axis, on a diagonal (where `M` is furthest below the
        /// modulus) or anywhere.
        fn phase(&mut self) -> f64 {
            match self.below(3) {
                0 => 0.0,
                1 => std::f64::consts::FRAC_PI_4,
                _ => self.unit() * std::f64::consts::PI,
            }
        }
    }

    /// Arrow matrix with its hub at row/column 0. Minimum degree eliminates
    /// the spokes first, so each spoke step pivots on the raw `A(i,i)` with
    /// the raw `A(0,i)` as its only L entry — the referee sets both exactly.
    fn arrow(n: usize) -> Vec<(usize, usize)> {
        let mut e = vec![(0, 0)];
        for i in 1..n {
            e.extend([(i, i), (0, i), (i, 0)]);
        }
        e
    }

    fn referee_patterns() -> Vec<SparsePattern> {
        let tridiagonal: Vec<(usize, usize)> = (0..7)
            .flat_map(|i: usize| [(i, i), (i, (i + 1) % 7), ((i + 1) % 7, i)])
            .collect();
        let dense: Vec<(usize, usize)> = (0..4).flat_map(|r| (0..4).map(move |c| (r, c))).collect();
        [(6, arrow(6)), (7, tridiagonal), (4, dense)]
            .iter()
            .map(|(n, e)| SparsePattern::from_entries(*n, e).unwrap())
            .collect()
    }

    /// A frozen factorization of `pattern` on diagonally dominant values.
    fn frozen<T: Probe>(pattern: &SparsePattern) -> (SparseSymbolic, SparseLu<T>) {
        let n = pattern.n();
        let mut vals = vec![T::ZERO; pattern.nnz()];
        for c in 0..n {
            for (p, &r) in pattern.col_range(c).zip(pattern.col(c)) {
                let v = if r == c { n as f64 + 1.0 } else { 0.5 };
                vals[p] = T::parts(v, 0.25 * v);
            }
        }
        let sym = SparseSymbolic::new(pattern.clone());
        let lu = SparseLu::factor(&sym, &vals).unwrap();
        (sym, lu)
    }

    /// Refactors with the filter and with exact checks on two copies of
    /// `lu`; both must return the same result and leave bit-identical
    /// factor values.
    fn refactor_both<T: Probe>(
        sym: &SparseSymbolic,
        lu: &SparseLu<T>,
        vals: &[T],
    ) -> Result<Result<(), LinalgError>, String> {
        let (mut fast, mut exact) = (lu.clone(), lu.clone());
        let got = fast.refactor(sym, vals);
        let want = exact.refactor_checked::<false>(sym, vals);
        if got != want {
            return Err(format!("filtered {got:?} vs exact {want:?} on {vals:?}"));
        }
        let bits = |lu: &SparseLu<T>| -> Vec<[u64; 2]> {
            let all = lu.l_vals.iter().chain(&lu.u_vals).chain(&lu.u_diag);
            all.map(|v| v.bits()).collect()
        };
        if bits(&fast) != bits(&exact) {
            return Err(format!("factor bits differ on {vals:?}"));
        }
        Ok(got)
    }

    /// Random values on `pattern`, with one arrow spoke pushed onto a
    /// threshold: the pivot-to-L ratio near `1e-8` (or the filter's `2e-8`,
    /// `√2·1e-8`), or the pivot near `scale·1e-300` (or `scale_ub·1e-300`,
    /// possibly with a dominant hub entry), each within a few ulps.
    fn hostile_values<T: Probe>(rng: &mut Lcg, pattern: &SparsePattern) -> Vec<T> {
        let mut vals: Vec<T> = (0..pattern.nnz()).map(|_| rng.scalar()).collect();
        if pattern.nnz() != arrow(pattern.n()).len() || rng.below(4) == 0 {
            return vals;
        }
        let spoke = 1 + rng.below(pattern.n() as u64 - 1) as usize;
        let piv = pattern.index_of(spoke, spoke).unwrap();
        let low = pattern.index_of(0, spoke).unwrap();
        if rng.below(2) == 0 {
            let pm = 10f64.powi(rng.below(13) as i32 - 6);
            let ratio = [1e-8, 2e-8, 2f64.sqrt() * 1e-8][rng.below(3) as usize] * rng.ulps();
            vals[piv] = T::polar(pm, rng.phase());
            vals[low] = T::polar(pm / ratio, rng.phase());
        } else {
            vals[piv] = T::ZERO;
            if rng.below(2) == 0 {
                // An off-axis hub entry large enough to set the scale.
                vals[pattern.index_of(0, 0).unwrap()] = T::polar(1e305 * rng.ulps(), rng.phase());
            }
            let scale = pivot_scale(&vals);
            let base = if rng.below(2) == 0 {
                scale
            } else {
                pivot_scale_bound(&vals)
            };
            vals[piv] = T::polar(base * PIVOT_REL_TOL * rng.ulps(), rng.phase());
        }
        vals
    }

    /// One referee draw: hostile values refactored on a frozen
    /// factorization of `pattern`, with and without the filter.
    fn referee_case<T: Probe>(
        rng: &mut Lcg,
        pattern: &SparsePattern,
    ) -> Result<Result<(), LinalgError>, String> {
        let (sym, lu) = frozen::<T>(pattern);
        let vals = hostile_values(rng, pattern);
        refactor_both(&sym, &lu, &vals)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn filtered_pivot_checks_match_exact_checks(seed in 0u64..u64::MAX) {
            let mut rng = Lcg(seed);
            for pattern in referee_patterns() {
                for res in [
                    referee_case::<f64>(&mut rng, &pattern),
                    referee_case::<Complex64>(&mut rng, &pattern),
                ] {
                    proptest::prop_assert!(res.is_ok(), "{}", res.unwrap_err());
                }
            }
        }
    }

    #[test]
    fn filter_referee_reaches_both_outcomes_at_each_threshold() {
        // Sweep a spoke of a clean arrow matrix across the ratio and
        // singular thresholds: the filter must agree with the exact checks
        // on every step and both outcomes must occur.
        fn sweep<T: Probe>() {
            let pattern = SparsePattern::from_entries(4, &arrow(4)).unwrap();
            let (sym, lu) = frozen::<T>(&pattern);
            let (piv, low) = (
                pattern.index_of(2, 2).unwrap(),
                pattern.index_of(0, 2).unwrap(),
            );
            let mut outcomes = [[false; 2]; 2];
            for k in -6..=6 {
                let ulps = 1.0 + k as f64 * f64::EPSILON;
                for phi in [0.0, 0.3, std::f64::consts::FRAC_PI_4, 2.5] {
                    let mut vals = vec![T::parts(1.0, 0.0); pattern.nnz()];
                    for i in 0..4 {
                        vals[pattern.index_of(i, i).unwrap()] = T::parts(8.0, 0.0);
                    }
                    vals[piv] = T::polar(1.0, phi);
                    vals[low] = T::polar(1e8 * ulps, 1.0 - phi);
                    let ratio = refactor_both(&sym, &lu, &vals).unwrap();
                    outcomes[0][usize::from(ratio.is_ok())] = true;

                    vals[low] = T::ZERO;
                    vals[piv] = T::polar(8.0 * PIVOT_REL_TOL * ulps, phi);
                    let singular = refactor_both(&sym, &lu, &vals).unwrap();
                    outcomes[1][usize::from(singular.is_ok())] = true;
                }
            }
            assert_eq!(outcomes, [[true; 2]; 2]);
        }
        sweep::<f64>();
        sweep::<Complex64>();
    }
}

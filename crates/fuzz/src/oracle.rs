//! The cross-backend differential oracle.
//!
//! Three oracle stages, each consuming the previous stage's survivors:
//!
//! 1. **parser** — `parse_deck_ast_limited` must return `Ok` or a typed
//!    [`specwise_mna::ParseDeckError`] whose line number is 1-based; on `Ok`, printing
//!    with `to_deck()` and re-parsing must reproduce an equal AST
//!    (round-trip), and printing must be idempotent.
//! 2. **compile** — `Testbench::from_deck_limited` must return `Ok` or
//!    [`specwise_ckt::CktError::Deck`]; any other error variant at the compile boundary
//!    is a finding.
//! 3. **solve** — the deck is lowered to a [`specwise_mna::Circuit`] and solved on the
//!    dense AND the sparse backend. The backends must agree on
//!    solvability; failures must be clean (`SingularMatrix` /
//!    `NoConvergence`); and when both converge, solutions must agree
//!    within tiered tolerances (below). With an AC stimulus present, the
//!    complex AC systems are compared the same way, and the adjoint-style
//!    frozen-Jacobian one-step re-solve ([`specwise_mna::DcSensitivity`]) is checked
//!    against a full Newton re-solve of a perturbed circuit — the
//!    generated-circuit generalization of `tests/adjoint_parity.rs`.
//!
//! # Tolerance tiers
//!
//! LU pivot order differs between the backends, so bitwise equality is not
//! the bar — agreement within the conditioning of the system is:
//!
//! * **tier 1 (well-conditioned)**: `‖x_d − x_s‖∞ ≤ 1e-9 + 1e-6·s` with
//!   `s = max(1, ‖x_d‖∞, ‖x_s‖∞)`. The default verdict.
//! * **tier 2 (gmin-dominated)**: systems whose solution magnitude exceeds
//!   `1e4` (node voltages pinned by the gmin shunt, `I/gmin` scale) or
//!   that needed a deep Newton/homotopy run (> 40 iterations) are
//!   near-singular by construction; they pass at `1e-9 + 1e-3·s` and are
//!   counted as `tier2` in the campaign report instead of failing.
//! * **adjoint tier**: the one-step re-solve carries an `O(δ²)` model
//!   error, so the comparison budget is `1e-7 + 1e-2·δ·s` at relative
//!   perturbation `δ`; points where any MOSFET changes operating region
//!   between the base and perturbed solves are non-smooth and are skipped
//!   (the production gradient path declines to FD at exactly such points).
//!
//! Anything beyond tier 2 is a divergence finding. Panics are caught by
//! the campaign driver and are always findings.

use specwise_ckt::{CktError, Testbench};
use specwise_linalg::DVec;
use specwise_mna::{
    parse_deck_ast_limited, AcSolver, Circuit, DcOp, DcSensitivity, DeckAst, DeckElementKind,
    DeckLimits, DeckValue, MnaError, SolverChoice,
};

/// Upper bound on MNA unknowns the solve oracle will accept — the dense
/// backend is O(n³) per factorization, and divergence hunting needs
/// throughput, not big systems.
pub const MAX_ORACLE_UNKNOWNS: usize = 220;

/// Relative perturbation of the adjoint one-step check.
pub const ADJOINT_DELTA: f64 = 1e-4;

/// AC comparison frequencies \[Hz\].
pub const AC_FREQS: [f64; 2] = [1e3, 1e6];

/// What a finding is — the classification drives corpus naming and the
/// campaign exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FindingKind {
    /// Any oracle stage panicked (caught by the campaign driver).
    Panic,
    /// `parse → print → parse` did not reproduce the AST, or printing was
    /// not idempotent.
    RoundTrip,
    /// An error escaped its typed boundary: a parse error with a 0 line
    /// number where 1-based is promised, a non-`Deck` compile error, or a
    /// dirty solver error kind on a singular system.
    ErrorType,
    /// Dense and sparse disagree on whether the system is solvable.
    BackendDisagreement,
    /// Dense and sparse DC solutions differ beyond tier 2.
    DcDivergence,
    /// Dense and sparse AC solutions differ beyond tier 2.
    AcDivergence,
    /// Adjoint one-step re-solve differs from the full Newton re-solve
    /// beyond the adjoint tier.
    AdjointDivergence,
}

impl FindingKind {
    /// Stable kebab-case label (used in corpus file names).
    pub fn label(&self) -> &'static str {
        match self {
            FindingKind::Panic => "panic",
            FindingKind::RoundTrip => "round-trip",
            FindingKind::ErrorType => "error-type",
            FindingKind::BackendDisagreement => "backend-disagreement",
            FindingKind::DcDivergence => "dc-divergence",
            FindingKind::AcDivergence => "ac-divergence",
            FindingKind::AdjointDivergence => "adjoint-divergence",
        }
    }
}

/// One oracle failure: the classification, a human-readable detail line,
/// and the offending deck (minimized by the campaign driver).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Classification.
    pub kind: FindingKind,
    /// Which oracle stage produced it.
    pub oracle: &'static str,
    /// Human-readable description of the failure.
    pub detail: String,
    /// The deck text that triggers it.
    pub deck: String,
}

/// Per-deck oracle statistics, accumulated into the campaign report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Deck parsed to an AST.
    pub parsed: usize,
    /// Deck compiled to a full `Testbench`.
    pub compiled: usize,
    /// DC solved by both backends.
    pub solved: usize,
    /// Both backends failed (cleanly) to solve.
    pub unsolvable: usize,
    /// Comparisons that needed the near-singular tier 2 budget.
    pub tier2: usize,
    /// AC systems compared.
    pub ac_checked: usize,
    /// Adjoint one-step checks run.
    pub adjoint_checked: usize,
    /// Adjoint checks skipped at a non-smooth (region-change) point.
    pub adjoint_skipped: usize,
}

impl OracleStats {
    /// Accumulates another deck's stats.
    pub fn absorb(&mut self, o: &OracleStats) {
        self.parsed += o.parsed;
        self.compiled += o.compiled;
        self.solved += o.solved;
        self.unsolvable += o.unsolvable;
        self.tier2 += o.tier2;
        self.ac_checked += o.ac_checked;
        self.adjoint_checked += o.adjoint_checked;
        self.adjoint_skipped += o.adjoint_skipped;
    }
}

/// A clone of `ckt` that solves on the given backend.
fn on(ckt: &Circuit, choice: SolverChoice) -> Circuit {
    let mut ckt = ckt.clone();
    ckt.set_solver(choice);
    ckt
}

fn finding(kind: FindingKind, oracle: &'static str, detail: String, deck: &str) -> Finding {
    Finding {
        kind,
        oracle,
        detail,
        deck: deck.to_string(),
    }
}

/// Stage 1: parse + round-trip. `Ok(Some(ast))` when the deck parses.
///
/// # Errors
///
/// Returns a [`Finding`] for round-trip or error-typing violations.
pub fn check_parser(
    deck: &str,
    limits: &DeckLimits,
    stats: &mut OracleStats,
) -> Result<Option<DeckAst>, Finding> {
    match parse_deck_ast_limited(deck, limits) {
        Err(e) => {
            if e.line() < 1 {
                return Err(finding(
                    FindingKind::ErrorType,
                    "parser",
                    format!("parse error with 0-based line: {e}"),
                    deck,
                ));
            }
            Ok(None)
        }
        Ok(ast) => {
            stats.parsed += 1;
            let printed = ast.to_deck();
            let reparsed = parse_deck_ast_limited(&printed, limits).map_err(|e| {
                finding(
                    FindingKind::RoundTrip,
                    "parser",
                    format!("printed deck no longer parses: {e}"),
                    deck,
                )
            })?;
            if reparsed != ast {
                return Err(finding(
                    FindingKind::RoundTrip,
                    "parser",
                    "printed deck parses to a different AST".to_string(),
                    deck,
                ));
            }
            if reparsed.to_deck() != printed {
                return Err(finding(
                    FindingKind::RoundTrip,
                    "parser",
                    "printing is not idempotent".to_string(),
                    deck,
                ));
            }
            Ok(Some(ast))
        }
    }
}

/// Stage 2: the `Testbench` compile boundary. Success or `CktError::Deck`;
/// anything else escapes its type and is a finding.
///
/// # Errors
///
/// Returns a [`Finding`] when a non-`Deck` error crosses the boundary.
pub fn check_compile(
    deck: &str,
    limits: &DeckLimits,
    stats: &mut OracleStats,
) -> Result<(), Finding> {
    match Testbench::from_deck_limited(deck, limits) {
        Ok(_) => {
            stats.compiled += 1;
            Ok(())
        }
        Err(CktError::Deck { .. }) => Ok(()),
        Err(other) => Err(finding(
            FindingKind::ErrorType,
            "compile",
            format!("non-Deck error escaped the compile boundary: {other}"),
            deck,
        )),
    }
}

/// A solver failure a singular/ill-posed system is allowed to produce.
fn clean_failure(e: &MnaError) -> bool {
    matches!(
        e,
        MnaError::SingularMatrix { .. } | MnaError::NoConvergence { .. }
    )
}

struct Compared {
    tier2: bool,
    diff: f64,
    scale: f64,
}

fn compare_real(xd: &DVec, xs: &DVec, deep: bool) -> Result<Compared, Compared> {
    let mut scale = 1.0f64;
    let mut diff = 0.0f64;
    for i in 0..xd.len() {
        scale = scale.max(xd[i].abs()).max(xs[i].abs());
        diff = diff.max((xd[i] - xs[i]).abs());
    }
    let c = |tier2| Compared { tier2, diff, scale };
    if diff <= 1e-9 + 1e-6 * scale {
        Ok(c(false))
    } else if (scale > 1e4 || deep) && diff <= 1e-9 + 1e-3 * scale {
        Ok(c(true))
    } else {
        Err(c(false))
    }
}

fn compare_complex(
    xd: &specwise_linalg::CVec,
    xs: &specwise_linalg::CVec,
    deep: bool,
) -> Result<Compared, Compared> {
    let mut scale = 1.0f64;
    let mut diff = 0.0f64;
    for i in 0..xd.len() {
        scale = scale.max(xd[i].abs()).max(xs[i].abs());
        diff = diff.max((xd[i] - xs[i]).abs());
    }
    let c = |tier2| Compared { tier2, diff, scale };
    if diff <= 1e-9 + 1e-6 * scale {
        Ok(c(false))
    } else if (scale > 1e4 || deep) && diff <= 1e-9 + 1e-3 * scale {
        Ok(c(true))
    } else {
        Err(c(false))
    }
}

/// Builds a copy of the AST with the first literal-valued resistor scaled
/// by `(1 + delta)`, for the adjoint one-step check. `None` when the deck
/// has no such resistor.
fn perturb_first_resistor(ast: &DeckAst, delta: f64) -> Option<DeckAst> {
    let mut out = ast.clone();
    for e in &mut out.elements {
        if let DeckElementKind::Resistor { value, .. } = &mut e.kind {
            if let DeckValue::Num(v) = value {
                *value = DeckValue::Num(*v * (1.0 + delta));
                return Some(out);
            }
        }
    }
    None
}

/// Stage 3: the three-way differential solve oracle (see module docs).
/// Decks that do not lower to a circuit (annotated decks, parse errors)
/// are skipped, not failures.
///
/// # Errors
///
/// Returns the first [`Finding`] across the DC, AC, and adjoint
/// comparisons.
pub fn check_solve(
    deck: &str,
    limits: &DeckLimits,
    stats: &mut OracleStats,
) -> Result<(), Finding> {
    let Ok(ast) = parse_deck_ast_limited(deck, limits) else {
        return Ok(());
    };
    let Ok(ckt) = ast.to_circuit() else {
        return Ok(());
    };
    let n = ckt.num_unknowns();
    if n == 0 || n > MAX_ORACLE_UNKNOWNS {
        return Ok(());
    }
    let ckt_d = on(&ckt, SolverChoice::Dense);
    let ckt_s = on(&ckt, SolverChoice::Sparse);
    let dense = DcOp::new(&ckt_d).solve();
    let sparse = DcOp::new(&ckt_s).solve();
    let (op_d, op_s) = match (dense, sparse) {
        (Err(ed), Err(es)) => {
            for (label, e) in [("dense", &ed), ("sparse", &es)] {
                if !clean_failure(e) {
                    return Err(finding(
                        FindingKind::ErrorType,
                        "solve",
                        format!("{label}: dirty failure on unsolvable system: {e}"),
                        deck,
                    ));
                }
            }
            stats.unsolvable += 1;
            return Ok(());
        }
        (Ok(_), Err(e)) => {
            return Err(finding(
                FindingKind::BackendDisagreement,
                "solve",
                format!("dense solved, sparse failed: {e}"),
                deck,
            ));
        }
        (Err(e), Ok(_)) => {
            return Err(finding(
                FindingKind::BackendDisagreement,
                "solve",
                format!("sparse solved, dense failed: {e}"),
                deck,
            ));
        }
        (Ok(d), Ok(s)) => (d, s),
    };
    stats.solved += 1;

    let deep = op_d.iterations() > 40 || op_s.iterations() > 40;
    match compare_real(op_d.unknowns(), op_s.unknowns(), deep) {
        Ok(c) => {
            if c.tier2 {
                stats.tier2 += 1;
            }
        }
        Err(c) => {
            return Err(finding(
                FindingKind::DcDivergence,
                "solve",
                format!(
                    "dense/sparse DC solutions differ: |Δ|∞ = {:.3e} at scale {:.3e} (n = {n})",
                    c.diff, c.scale
                ),
                deck,
            ));
        }
    }

    // AC comparison when the deck carries an AC stimulus.
    let has_ac = ast.elements.iter().any(|e| {
        matches!(
            &e.kind,
            DeckElementKind::VoltageSource { ac: Some(m), .. } if *m != 0.0
        )
    });
    if has_ac {
        for freq in AC_FREQS {
            let yd = AcSolver::new(&ckt_d, &op_d).solve(freq);
            let ys = AcSolver::new(&ckt_s, &op_s).solve(freq);
            match (yd, ys) {
                (Err(ed), Err(es)) => {
                    for (label, e) in [("dense", &ed), ("sparse", &es)] {
                        if !clean_failure(e) {
                            return Err(finding(
                                FindingKind::ErrorType,
                                "solve",
                                format!("{label}: dirty AC failure: {e}"),
                                deck,
                            ));
                        }
                    }
                }
                (Ok(_), Err(e)) | (Err(e), Ok(_)) => {
                    return Err(finding(
                        FindingKind::BackendDisagreement,
                        "solve",
                        format!("AC solvability disagreement at {freq} Hz: {e}"),
                        deck,
                    ));
                }
                (Ok(yd), Ok(ys)) => {
                    stats.ac_checked += 1;
                    if let Err(c) = compare_complex(yd.unknowns(), ys.unknowns(), deep) {
                        return Err(finding(
                            FindingKind::AcDivergence,
                            "solve",
                            format!(
                                "dense/sparse AC solutions differ at {freq} Hz: \
                                 |Δ|∞ = {:.3e} at scale {:.3e}",
                                c.diff, c.scale
                            ),
                            deck,
                        ));
                    }
                }
            }
        }
    }

    // Adjoint-style one-step re-solve vs. a full Newton run on a
    // perturbed copy — the generated-circuit version of adjoint parity.
    if let Some(past) = perturb_first_resistor(&ast, ADJOINT_DELTA) {
        let Ok(pckt) = past.to_circuit() else {
            return Ok(());
        };
        let pckt = on(&pckt, SolverChoice::Dense);
        let sens_x = DcSensitivity::new(&ckt_d, &op_d)
            .and_then(|s| s.solve_perturbed(&pckt))
            .map(|sol| sol.unknowns().clone());
        let full = DcOp::new(&pckt).solve();
        if let (Ok(xs), Ok(full)) = (sens_x, full) {
            // Non-smooth point: a device changed region under the
            // perturbation; the production gradient path declines to FD
            // here, and so does the oracle.
            let region_change = op_d
                .mosfet_ops()
                .iter()
                .zip(full.mosfet_ops())
                .any(|(a, b)| a.region != b.region);
            if region_change {
                stats.adjoint_skipped += 1;
                return Ok(());
            }
            stats.adjoint_checked += 1;
            let mut scale = 1.0f64;
            let mut diff = 0.0f64;
            let xf = full.unknowns();
            for i in 0..xf.len() {
                scale = scale.max(xf[i].abs());
                diff = diff.max((xs[i] - xf[i]).abs());
            }
            if diff > 1e-7 + 1e-2 * ADJOINT_DELTA * scale {
                return Err(finding(
                    FindingKind::AdjointDivergence,
                    "solve",
                    format!(
                        "one-step adjoint re-solve differs from full Newton: \
                         |Δ|∞ = {diff:.3e} at scale {scale:.3e}, δ = {ADJOINT_DELTA:.0e}"
                    ),
                    deck,
                ));
            }
        }
    }
    Ok(())
}

/// Runs every oracle stage on one deck, returning all findings. This is
/// the corpus replay entry point: a corpus deck passes when this returns
/// an empty vector.
pub fn check_all(deck: &str, limits: &DeckLimits) -> (Vec<Finding>, OracleStats) {
    let mut stats = OracleStats::default();
    let mut findings = Vec::new();
    let parsed = match check_parser(deck, limits, &mut stats) {
        Ok(ast) => ast.is_some(),
        Err(f) => {
            findings.push(f);
            false
        }
    };
    if parsed {
        if let Err(f) = check_compile(deck, limits, &mut stats) {
            findings.push(f);
        }
        if let Err(f) = check_solve(deck, limits, &mut stats) {
            findings.push(f);
        }
    }
    (findings, stats)
}

//! # specwise-fuzz — structure-aware deck fuzzing with a differential oracle
//!
//! The workspace's trust boundary is deck text: it arrives from files, the
//! network daemon, and generated perturbation sweeps. This crate attacks
//! that boundary from four angles (see `DESIGN.md` §13):
//!
//! * [`generator`] — a seeded grammar emitting connected annotated decks;
//! * [`mutate`] — deterministic mutation operators over deck text;
//! * [`oracle`] — parse/compile round-trip checks plus a three-way
//!   differential solve oracle (dense vs. sparse LU, adjoint one-step vs.
//!   full Newton);
//! * [`wire`] — raw-socket attacks on a live `specwise-serve` daemon.
//!
//! Findings are minimized ([`minimize::minimize`]) and pinned to the regression
//! corpus ([`corpus`]) replayed by `tests/corpus_replay.rs` and CI.
//!
//! The binary front end (`cargo run --release -p specwise-fuzz -- --seed N
//! --iters M --oracle parser|compile|solve|wire`) and the bounded-fuzz
//! test both drive [`run_campaign`], so a CI smoke run and an overnight
//! run differ only in iteration count.

pub mod corpus;
pub mod generator;
pub mod minimize;
pub mod mutate;
pub mod oracle;
pub mod wire;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use rand::{rngs::StdRng, Rng, SeedableRng};
use specwise_ckt::{FiveTransistorOta, FoldedCascode, MillerOpamp};
use specwise_mna::DeckLimits;

use generator::{generate_deck, GenConfig};
use minimize::minimize;
use mutate::mutate_n;
use oracle::{check_all, check_compile, check_parser, Finding, FindingKind, OracleStats};

/// Which oracle stage a campaign exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleMode {
    /// Parse + print round-trip only.
    Parser,
    /// Parser stage plus the `Testbench` compile boundary.
    Compile,
    /// All library stages including the differential solve oracle.
    Solve,
}

impl OracleMode {
    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<OracleMode> {
        match s {
            "parser" => Some(OracleMode::Parser),
            "compile" => Some(OracleMode::Compile),
            "solve" => Some(OracleMode::Solve),
            _ => None,
        }
    }
}

/// Campaign parameters shared by the binary and the bounded-fuzz test.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; every deck of a campaign is a deterministic function
    /// of this and the iteration index.
    pub seed: u64,
    /// Iteration count.
    pub iters: usize,
    /// Oracle stage to run.
    pub mode: OracleMode,
    /// When set, minimized findings are written here as corpus decks.
    pub write_corpus: Option<PathBuf>,
    /// Parse limits (defaults match the serving daemon's).
    pub limits: DeckLimits,
}

impl CampaignConfig {
    /// A campaign with default limits and no corpus writing.
    pub fn new(seed: u64, iters: usize, mode: OracleMode) -> CampaignConfig {
        CampaignConfig {
            seed,
            iters,
            mode,
            write_corpus: None,
            limits: DeckLimits::default(),
        }
    }
}

/// Campaign outcome.
#[derive(Debug, Default)]
pub struct CampaignReport {
    /// Iterations executed.
    pub iters: usize,
    /// Decks that came from the generator (vs. mutated seeds).
    pub generated: usize,
    /// Decks that were mutated seed decks.
    pub mutated: usize,
    /// Accumulated oracle statistics.
    pub stats: OracleStats,
    /// All findings, minimized.
    pub findings: Vec<Finding>,
    /// Corpus paths written (when corpus writing is enabled).
    pub written: Vec<PathBuf>,
}

impl CampaignReport {
    /// True when the campaign surfaced nothing.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn stage_label(mode: OracleMode) -> &'static str {
    match mode {
        OracleMode::Parser => "parser",
        OracleMode::Compile => "compile",
        OracleMode::Solve => "solve",
    }
}

/// Runs every configured oracle stage on one deck under a panic guard,
/// returning findings (a panic is itself a finding).
pub fn probe(deck: &str, limits: &DeckLimits, mode: OracleMode) -> (Vec<Finding>, OracleStats) {
    let deck_owned = deck.to_string();
    let limits = *limits;
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut stats = OracleStats::default();
        let mut findings = Vec::new();
        match mode {
            OracleMode::Parser => {
                if let Err(f) = check_parser(&deck_owned, &limits, &mut stats) {
                    findings.push(f);
                }
            }
            OracleMode::Compile => match check_parser(&deck_owned, &limits, &mut stats) {
                Err(f) => findings.push(f),
                Ok(Some(_)) => {
                    if let Err(f) = check_compile(&deck_owned, &limits, &mut stats) {
                        findings.push(f);
                    }
                }
                Ok(None) => {}
            },
            OracleMode::Solve => {
                let (fs, st) = check_all(&deck_owned, &limits);
                findings = fs;
                stats = st;
            }
        }
        (findings, stats)
    }));
    match result {
        Ok(out) => out,
        Err(payload) => (
            vec![Finding {
                kind: FindingKind::Panic,
                oracle: stage_label(mode),
                detail: panic_message(payload.as_ref()),
                deck: deck.to_string(),
            }],
            OracleStats::default(),
        ),
    }
}

/// The mutation seed decks: the three embedded opamp testbench decks.
pub fn seed_decks() -> [&'static str; 3] {
    [
        MillerOpamp::deck(),
        FoldedCascode::deck(),
        FiveTransistorOta::deck(),
    ]
}

/// Runs a fuzzing campaign (library oracles — for wire mode see
/// [`wire::run_wire_campaign`]). `log` receives occasional progress lines.
pub fn run_campaign(cfg: &CampaignConfig, log: impl Fn(&str)) -> CampaignReport {
    let mut report = CampaignReport::default();
    let seeds = seed_decks();
    for iter in 0..cfg.iters {
        // Independent per-iteration stream: any iteration reproduces in
        // isolation from (seed, iter) alone.
        let mut rng =
            StdRng::seed_from_u64(cfg.seed ^ (iter as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let deck = if rng.gen_bool(0.55) {
            report.generated += 1;
            let gcfg = GenConfig {
                max_elements: 24,
                // Parser/compile campaigns want directive-heavy decks;
                // solve campaigns want concrete circuits most of the time.
                annotate: match cfg.mode {
                    OracleMode::Solve => 0.25,
                    _ => 0.7,
                },
                harness: 0.5,
            };
            generate_deck(&mut rng, &gcfg).text
        } else {
            report.mutated += 1;
            let base = if rng.gen_bool(0.75) {
                (*seeds[rng.gen_range(0..seeds.len())]).to_string()
            } else {
                generate_deck(&mut rng, &GenConfig::default()).text
            };
            let n = rng.gen_range(1..4usize);
            mutate_n(&base, &mut rng, n)
        };

        let (findings, stats) = probe(&deck, &cfg.limits, cfg.mode);
        report.stats.absorb(&stats);
        for f in findings {
            let minimized = shrink_finding(&f, &cfg.limits, cfg.mode);
            log(&format!(
                "iter {iter}: {} [{}] {} ({} bytes minimized from {})",
                minimized.kind.label(),
                minimized.oracle,
                minimized.detail,
                minimized.deck.len(),
                deck.len(),
            ));
            if let Some(dir) = &cfg.write_corpus {
                if let Ok(path) = corpus::write_finding(dir, &minimized) {
                    report.written.push(path);
                }
            }
            report.findings.push(minimized);
        }
        report.iters += 1;
        if cfg.iters >= 10 && iter % (cfg.iters / 10).max(1) == 0 && iter > 0 {
            log(&format!(
                "{iter}/{} iters, {} findings, {} parsed / {} solved / {} tier2",
                cfg.iters,
                report.findings.len(),
                report.stats.parsed,
                report.stats.solved,
                report.stats.tier2,
            ));
        }
    }
    report
}

/// Minimizes a finding with "fails the same way" as the predicate, under
/// the same panic guard the campaign uses.
pub fn shrink_finding(f: &Finding, limits: &DeckLimits, mode: OracleMode) -> Finding {
    let kind = f.kind.clone();
    let oracle = f.oracle;
    let small = minimize(&f.deck, |candidate| {
        probe(candidate, limits, mode)
            .0
            .iter()
            .any(|g| g.kind == kind && g.oracle == oracle)
    });
    Finding {
        kind: f.kind.clone(),
        oracle: f.oracle,
        detail: f.detail.clone(),
        deck: small,
    }
}

/// One-line human summary of a campaign (used by the binary and tests).
pub fn summarize(report: &CampaignReport, mode: OracleMode) -> String {
    format!(
        "{}: {} iters ({} generated, {} mutated) | parsed {} compiled {} solved {} \
         unsolvable {} tier2 {} ac {} adjoint {} (+{} skipped) | findings {}",
        stage_label(mode),
        report.iters,
        report.generated,
        report.mutated,
        report.stats.parsed,
        report.stats.compiled,
        report.stats.solved,
        report.stats.unsolvable,
        report.stats.tier2,
        report.stats.ac_checked,
        report.stats.adjoint_checked,
        report.stats.adjoint_skipped,
        report.findings.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_deterministic() {
        let cfg = CampaignConfig::new(42, 30, OracleMode::Parser);
        let a = run_campaign(&cfg, |_| {});
        let b = run_campaign(&cfg, |_| {});
        assert_eq!(a.iters, b.iters);
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.findings.len(), b.findings.len());
        assert_eq!(a.stats, b.stats);
    }
}

//! Greedy deck minimization.
//!
//! Findings are pinned to the corpus as the *smallest* deck that still
//! triggers the same failure, so triage starts from a few lines instead of
//! a 20-element generated network. The strategy is classic delta-debug
//! lite: greedy whole-line deletion to a fixpoint, then per-token deletion
//! within the surviving lines, re-checking the predicate after every
//! candidate deletion.
//!
//! The predicate is "still fails the same way" — same
//! [`FindingKind`](crate::oracle::FindingKind) and
//! same oracle stage — not merely "still fails"; otherwise minimization
//! happily walks from an adjoint divergence to a trivial parse error.

/// Maximum predicate evaluations per minimization. Oracle checks can cost
/// a full Newton solve each, so the budget is bounded rather than letting
/// a pathological deck stall the campaign.
pub const MAX_CHECKS: usize = 2000;

/// Minimizes `deck` while `still_fails(candidate)` holds, where the caller
/// encodes "fails the same way". Returns the smallest deck found.
pub fn minimize(deck: &str, mut still_fails: impl FnMut(&str) -> bool) -> String {
    let mut best = deck.to_string();
    let mut checks = 0usize;
    fn budget(checks: &mut usize, s: &str, f: &mut impl FnMut(&str) -> bool) -> bool {
        if *checks >= MAX_CHECKS {
            return false;
        }
        *checks += 1;
        f(s)
    }

    // Pass 1: whole-line deletion to fixpoint.
    loop {
        let lines: Vec<&str> = best.lines().collect();
        if lines.len() <= 1 {
            break;
        }
        let mut shrunk = false;
        let mut i = 0;
        while i < best.lines().count() {
            let lines: Vec<&str> = best.lines().collect();
            let mut candidate = String::new();
            for (k, l) in lines.iter().enumerate() {
                if k != i {
                    candidate.push_str(l);
                    candidate.push('\n');
                }
            }
            if budget(&mut checks, &candidate, &mut still_fails) {
                best = candidate;
                shrunk = true;
                // Same index now names the next line.
            } else {
                i += 1;
            }
        }
        if !shrunk {
            break;
        }
    }

    // Pass 2: per-token deletion within lines, one token at a time.
    loop {
        let mut shrunk = false;
        let lines: Vec<String> = best.lines().map(str::to_string).collect();
        'outer: for (li, line) in lines.iter().enumerate() {
            let toks: Vec<&str> = line.split_whitespace().collect();
            if toks.len() <= 1 {
                continue;
            }
            for drop in 0..toks.len() {
                let kept: Vec<&str> = toks
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| *k != drop)
                    .map(|(_, t)| *t)
                    .collect();
                let mut candidate = String::new();
                for (k, l) in lines.iter().enumerate() {
                    if k == li {
                        candidate.push_str(&kept.join(" "));
                    } else {
                        candidate.push_str(l);
                    }
                    candidate.push('\n');
                }
                if budget(&mut checks, &candidate, &mut still_fails) {
                    best = candidate;
                    shrunk = true;
                    break 'outer;
                }
            }
        }
        if !shrunk || checks >= MAX_CHECKS {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_to_single_offending_line() {
        let deck = "V1 a 0 1\nR1 a 0 1k\nBAD LINE HERE\nC1 a 0 1p\n.end\n";
        let out = minimize(deck, |d| d.contains("BAD"));
        assert_eq!(out, "BAD\n");
    }

    #[test]
    fn token_pass_prunes_within_lines() {
        let deck = "alpha beta gamma delta\n";
        let out = minimize(deck, |d| d.contains("gamma"));
        assert_eq!(out.trim(), "gamma");
    }

    #[test]
    fn budget_terminates() {
        // A predicate that always holds must still terminate (fixpoint or
        // budget), never loop.
        let deck = "a b c\nd e f\ng h i\n";
        let out = minimize(deck, |_| true);
        assert!(out.len() <= deck.len());
    }
}

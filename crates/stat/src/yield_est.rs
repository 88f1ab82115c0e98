//! Monte-Carlo yield estimation (paper Eqs. 6–7 and 17–18).

/// A Monte-Carlo yield estimate: the fraction of samples that pass all
/// specifications, together with its sampling uncertainty.
///
/// The paper reports yields as percentages (Tables 1, 3, 4, 6) and counts of
/// "bad samples" per mille; both views are provided here.
///
/// # Example
///
/// ```
/// use specwise_stat::YieldEstimate;
///
/// let est = YieldEstimate::from_counts(297, 300);
/// assert!((est.value() - 0.99).abs() < 1e-12);
/// assert_eq!(est.bad_samples(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldEstimate {
    passed: usize,
    total: usize,
}

impl YieldEstimate {
    /// Creates an estimate from pass/total counts.
    ///
    /// # Panics
    ///
    /// Panics if `passed > total` or `total == 0`.
    pub fn from_counts(passed: usize, total: usize) -> Self {
        assert!(total > 0, "yield estimate needs at least one sample");
        assert!(passed <= total, "passed {passed} exceeds total {total}");
        YieldEstimate { passed, total }
    }

    /// Creates an estimate by consuming an iterator of pass/fail trials.
    ///
    /// # Panics
    ///
    /// Panics if the iterator is empty.
    pub fn from_trials<I: IntoIterator<Item = bool>>(trials: I) -> Self {
        let mut passed = 0;
        let mut total = 0;
        for ok in trials {
            total += 1;
            if ok {
                passed += 1;
            }
        }
        YieldEstimate::from_counts(passed, total)
    }

    /// The point estimate `Ỹ = passed / total` (paper Eq. 6).
    pub fn value(&self) -> f64 {
        self.passed as f64 / self.total as f64
    }

    /// The point estimate as a percentage.
    pub fn percent(&self) -> f64 {
        100.0 * self.value()
    }

    /// Number of passing samples.
    pub fn passed(&self) -> usize {
        self.passed
    }

    /// Number of failing ("bad") samples.
    pub fn bad_samples(&self) -> usize {
        self.total - self.passed
    }

    /// Failing samples per mille — the unit of the "bad samples [‰]" rows in
    /// the paper's tables.
    pub fn bad_per_mille(&self) -> f64 {
        1000.0 * self.bad_samples() as f64 / self.total as f64
    }

    /// Total sample count.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Standard error of the binomial proportion.
    pub fn std_error(&self) -> f64 {
        let p = self.value();
        (p * (1.0 - p) / self.total as f64).sqrt()
    }
}

impl std::fmt::Display for YieldEstimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1}% ({}/{})", self.percent(), self.passed, self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_counts() {
        let e = YieldEstimate::from_counts(90, 100);
        assert!((e.value() - 0.9).abs() < 1e-15);
        assert_eq!(e.bad_samples(), 10);
        assert!((e.bad_per_mille() - 100.0).abs() < 1e-12);
        assert_eq!(e.total(), 100);
        assert_eq!(e.passed(), 90);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn rejects_empty() {
        let _ = YieldEstimate::from_counts(0, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds total")]
    fn rejects_inverted_counts() {
        let _ = YieldEstimate::from_counts(5, 3);
    }

    #[test]
    fn from_trials_counts_correctly() {
        let e = YieldEstimate::from_trials([true, false, true, true]);
        assert_eq!(e.passed(), 3);
        assert_eq!(e.total(), 4);
    }

    #[test]
    fn std_error_formula() {
        let e = YieldEstimate::from_counts(50, 100);
        assert!((e.std_error() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn display_contains_percentage() {
        let e = YieldEstimate::from_counts(299, 300);
        let s = format!("{e}");
        assert!(s.contains("99.7"));
        assert!(s.contains("299/300"));
    }
}

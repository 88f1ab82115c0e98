//! Performance specifications (`f ≥ f_b` or `f ≤ f_b`, paper Sec. 2).

/// Direction of a specification bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecKind {
    /// The performance must stay at or above the bound (e.g. `A0 ≥ 40 dB`).
    LowerBound,
    /// The performance must stay at or below the bound (e.g. `P ≤ 3.5 mW`).
    UpperBound,
}

/// One performance specification.
///
/// The *margin* convention used throughout the workspace maps every spec to
/// `margin(f) ≥ 0 ⇔ pass`: for lower bounds `margin = f − f_b`, for upper
/// bounds `margin = f_b − f`. This matches the `f⁽ⁱ⁾ − f_b⁽ⁱ⁾` rows of the
/// paper's tables (which report positive values for satisfied specs of
/// either direction).
///
/// # Example
///
/// ```
/// use specwise_ckt::{Spec, SpecKind};
///
/// let a0 = Spec::new("A0", "dB", SpecKind::LowerBound, 40.0);
/// assert!(a0.satisfied(52.0));
/// assert!((a0.margin(52.0) - 12.0).abs() < 1e-12);
///
/// let power = Spec::new("Power", "mW", SpecKind::UpperBound, 3.5);
/// assert!(power.satisfied(2.9));
/// assert!((power.margin(2.9) - 0.6).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    name: String,
    unit: String,
    kind: SpecKind,
    bound: f64,
}

impl Spec {
    /// Creates a specification.
    ///
    /// # Panics
    ///
    /// Panics for a non-finite bound.
    pub fn new(name: &str, unit: &str, kind: SpecKind, bound: f64) -> Self {
        assert!(bound.is_finite(), "specification bound must be finite");
        Spec {
            name: name.to_string(),
            unit: unit.to_string(),
            kind,
            bound,
        }
    }

    /// Specification name (e.g. `"CMRR"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Physical unit of the performance (e.g. `"dB"`).
    pub fn unit(&self) -> &str {
        &self.unit
    }

    /// Bound direction.
    pub fn kind(&self) -> SpecKind {
        self.kind
    }

    /// The bound value `f_b`.
    pub fn bound(&self) -> f64 {
        self.bound
    }

    /// Signed margin; positive iff the spec is satisfied.
    pub fn margin(&self, value: f64) -> f64 {
        match self.kind {
            SpecKind::LowerBound => value - self.bound,
            SpecKind::UpperBound => self.bound - value,
        }
    }

    /// `true` when the value satisfies the specification.
    pub fn satisfied(&self, value: f64) -> bool {
        self.margin(value) >= 0.0
    }
}

impl std::fmt::Display for Spec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let op = match self.kind {
            SpecKind::LowerBound => ">=",
            SpecKind::UpperBound => "<=",
        };
        write!(f, "{} {} {} {}", self.name, op, self.bound, self.unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_bound_margin() {
        let s = Spec::new("ft", "MHz", SpecKind::LowerBound, 40.0);
        assert!((s.margin(37.7) + 2.3).abs() < 1e-12);
        assert!(!s.satisfied(37.7));
        assert!(s.satisfied(40.0));
    }

    #[test]
    fn upper_bound_margin() {
        let s = Spec::new("Power", "mW", SpecKind::UpperBound, 3.5);
        assert!((s.margin(2.96) - 0.54).abs() < 1e-12);
        assert!(s.satisfied(3.5));
        assert!(!s.satisfied(4.0));
    }

    #[test]
    fn display_shows_direction() {
        let s = Spec::new("A0", "dB", SpecKind::LowerBound, 40.0);
        assert_eq!(format!("{s}"), "A0 >= 40 dB");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_bound() {
        Spec::new("x", "", SpecKind::LowerBound, f64::NAN);
    }
}

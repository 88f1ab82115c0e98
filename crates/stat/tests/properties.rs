//! Property-based tests for the statistical substrate.

use proptest::prelude::*;
use specwise_stat::{RunningMoments, YieldEstimate};

proptest! {
    #[test]
    fn yield_estimate_in_unit_interval(passed in 0usize..1000, extra in 0usize..1000) {
        let total = passed + extra + 1;
        let e = YieldEstimate::from_counts(passed.min(total), total);
        prop_assert!((0.0..=1.0).contains(&e.value()));
    }

    #[test]
    fn moments_bounds_contain_mean(data in prop::collection::vec(-1e3..1e3f64, 1..50)) {
        let m: RunningMoments = data.iter().copied().collect();
        prop_assert!(m.min() <= m.mean() + 1e-9);
        prop_assert!(m.mean() <= m.max() + 1e-9);
    }
}

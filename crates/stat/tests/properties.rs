//! Property-based tests for the statistical substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use specwise_stat::{RunningMoments, StandardNormal, YieldEstimate};

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

    /// `skip(n)` then `fill` sees the same variates as `n` discarded draws
    /// then `fill`, from an empty cache (`primed == 0`) and from a cached
    /// sine half (`primed == 1`).
    #[test]
    fn skip_matches_discarded_draws(
        seed in 0u64..1_000,
        primed in 0usize..2,
        n in 0usize..200,
        len in 1usize..9,
    ) {
        let draw = |skip: bool| {
            let mut rng = StdRng::seed_from_u64(seed);
            let normal = StandardNormal::new();
            for _ in 0..primed {
                normal.sample(&mut rng);
            }
            if skip {
                normal.skip(&mut rng, n);
            } else {
                for _ in 0..n {
                    normal.sample(&mut rng);
                }
            }
            let mut out = vec![0.0; len];
            normal.fill(&mut rng, &mut out);
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        prop_assert_eq!(draw(true), draw(false));
    }
}

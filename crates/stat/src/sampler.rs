//! Standard normal sampling via the Box–Muller transform.
//!
//! Implemented on top of `rand`'s uniform generator rather than pulling in
//! `rand_distr`, per the workspace dependency policy (see DESIGN.md §3).

use rand::Rng;
use std::cell::Cell;
use std::f64::consts::PI;

/// A standard normal `N(0, 1)` sampler (Box–Muller with caching of the
/// second variate).
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use specwise_stat::StandardNormal;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(42);
/// let normal = StandardNormal::new();
/// let mean: f64 = (0..10_000).map(|_| normal.sample(&mut rng)).sum::<f64>() / 10_000.0;
/// assert!(mean.abs() < 0.05);
/// ```
#[derive(Debug, Default)]
pub struct StandardNormal {
    cached: Cell<Option<f64>>,
}

impl StandardNormal {
    /// Creates a sampler with an empty cache.
    pub fn new() -> Self {
        StandardNormal {
            cached: Cell::new(None),
        }
    }

    /// Draws one standard normal variate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if let Some(z) = self.cached.take() {
            return z;
        }
        // Box–Muller: u1 in (0, 1] to keep ln(u1) finite.
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * PI * u2;
        self.cached.set(Some(r * theta.sin()));
        r * theta.cos()
    }

    /// Fills a slice with independent standard normal variates.
    pub fn fill<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        for x in out {
            *x = self.sample(rng);
        }
    }

    /// Advances `rng` and the cache exactly as `n` calls of
    /// [`sample`](Self::sample) would, so the next variate is the one the
    /// `n + 1`-th call would have returned.
    ///
    /// Each uncached pair takes two uniforms, and each uniform takes exactly
    /// one `next_u64`, so whole pairs are skipped as raw draws. An odd
    /// remainder draws one real pair, which leaves its sine half cached.
    pub fn skip<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) {
        let mut n = n;
        if n > 0 && self.cached.take().is_some() {
            n -= 1;
        }
        for _ in 0..2 * (n / 2) {
            rng.next_u64();
        }
        if n % 2 == 1 {
            self.sample(rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn moments_match_standard_normal() {
        let mut rng = StdRng::seed_from_u64(1234);
        let normal = StandardNormal::new();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| normal.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        let skew =
            samples.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n as f64 / var.powf(1.5);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        assert!(skew.abs() < 0.03, "skew {skew}");
    }

    #[test]
    fn tail_fraction_reasonable() {
        let mut rng = StdRng::seed_from_u64(99);
        let normal = StandardNormal::new();
        let n = 100_000;
        let beyond2 = (0..n)
            .filter(|_| normal.sample(&mut rng).abs() > 2.0)
            .count();
        let frac = beyond2 as f64 / n as f64;
        // P(|Z| > 2) ≈ 0.0455.
        assert!((frac - 0.0455).abs() < 0.005, "frac {frac}");
    }

    #[test]
    fn deterministic_given_seed() {
        let draw = || {
            let mut rng = StdRng::seed_from_u64(5);
            let mut buf = [0.0; 8];
            StandardNormal::new().fill(&mut rng, &mut buf);
            buf
        };
        assert_eq!(draw(), draw());
    }

    #[test]
    fn fill_writes_all() {
        let mut rng = StdRng::seed_from_u64(3);
        let normal = StandardNormal::new();
        let mut buf = [0.0; 16];
        normal.fill(&mut rng, &mut buf);
        assert!(buf.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn all_finite() {
        let mut rng = StdRng::seed_from_u64(77);
        let normal = StandardNormal::new();
        for _ in 0..10_000 {
            assert!(normal.sample(&mut rng).is_finite());
        }
    }
}

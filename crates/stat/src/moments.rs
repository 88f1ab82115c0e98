//! Streaming mean/variance accumulation (Welford's algorithm).

/// Numerically stable streaming estimator of mean and variance.
///
/// Used to build the Table 2 style reports: the paper compares the shift of
/// the performance mean away from the spec and the reduction of the
/// performance standard deviation between optimizer iterations.
///
/// # Example
///
/// ```
/// use specwise_stat::RunningMoments;
///
/// let mut m = RunningMoments::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     m.push(x);
/// }
/// assert_eq!(m.count(), 8);
/// assert!((m.mean() - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningMoments {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningMoments {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; `0.0` before any observation.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (`n − 1` denominator); `0.0` for fewer than
    /// two observations.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation; `+∞` before any observation.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `−∞` before any observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The raw accumulator state `(count, mean, m2, min, max)` — exactly
    /// what [`RunningMoments::from_raw`] needs to reconstruct the
    /// accumulator bit-for-bit. Used by the optimizer's checkpoint codec.
    pub fn raw(&self) -> (u64, f64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.min, self.max)
    }

    /// Rebuilds an accumulator from raw state captured by
    /// [`RunningMoments::raw`]. With `count == 0` the float fields are
    /// ignored and an empty accumulator is returned (so serializers need
    /// not represent the empty state's infinite min/max).
    pub fn from_raw(count: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        if count == 0 {
            return RunningMoments::new();
        }
        RunningMoments {
            count,
            mean,
            m2,
            min,
            max,
        }
    }
}

impl FromIterator<f64> for RunningMoments {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut m = RunningMoments::new();
        for x in iter {
            m.push(x);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_defaults() {
        let m = RunningMoments::new();
        assert_eq!(m.count(), 0);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.sample_variance(), 0.0);
    }

    #[test]
    fn single_observation() {
        let m: RunningMoments = [3.0].into_iter().collect();
        assert_eq!(m.mean(), 3.0);
        assert_eq!(m.sample_variance(), 0.0);
        assert_eq!(m.min(), 3.0);
        assert_eq!(m.max(), 3.0);
    }

    #[test]
    fn matches_two_pass_formulas() {
        let data = [1.5, -2.0, 0.25, 8.0, 3.5, -1.0];
        let m: RunningMoments = data.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((m.mean() - mean).abs() < 1e-12);
        assert!((m.sample_variance() - var).abs() < 1e-12);
    }

    #[test]
    fn stable_with_large_offset() {
        // Classic catastrophic-cancellation scenario for the naive algorithm.
        let offset = 1e9;
        let m: RunningMoments = [offset + 4.0, offset + 7.0, offset + 13.0, offset + 16.0]
            .into_iter()
            .collect();
        assert!((m.mean() - (offset + 10.0)).abs() < 1e-5);
        assert!((m.sample_variance() - 30.0).abs() < 1e-5);
    }

    #[test]
    fn raw_round_trips_bit_for_bit() {
        let m: RunningMoments = [1.5, -2.0, 0.25, 8.0].into_iter().collect();
        let (count, mean, m2, min, max) = m.raw();
        let r = RunningMoments::from_raw(count, mean, m2, min, max);
        assert_eq!(r, m);
        assert_eq!(r.mean().to_bits(), m.mean().to_bits());
        assert_eq!(r.sample_variance().to_bits(), m.sample_variance().to_bits());
        // The empty state reconstructs regardless of the float payload.
        let empty = RunningMoments::from_raw(0, f64::NAN, f64::NAN, f64::NAN, f64::NAN);
        assert_eq!(empty, RunningMoments::new());
    }
}

//! Running mean/min/max/variance accumulators: [`Summary`] over `f64`
//! samples, and [`DurationSummary`] over simulated durations.

use simcore::time::SimDuration;

/// An online summary of a stream of samples (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use metrics::summary::Summary;
///
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.add(x);
/// }
/// assert_eq!(s.count(), 3);
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 3.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Population standard deviation (0 with fewer than two samples).
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// The summary of only the samples added after `earlier`, for
    /// delta-measuring a window out of a cumulative summary (`earlier`
    /// must be a clone of this summary's own past state).
    ///
    /// Count, mean, and variance are exact for the window (Chan's
    /// parallel-variance identity run backwards). `min`/`max` cannot be
    /// recovered, so the result keeps the cumulative extrema — they can
    /// only over-report the window's range.
    pub fn since(&self, earlier: &Summary) -> Summary {
        debug_assert!(earlier.count <= self.count, "`earlier` is not a prefix");
        let count = self.count - earlier.count;
        if count == 0 {
            return Summary::new();
        }
        if earlier.count == 0 {
            return self.clone();
        }
        let n1 = earlier.count as f64;
        let n2 = count as f64;
        let n = self.count as f64;
        let mean = (n * self.mean - n1 * earlier.mean) / n2;
        let delta = mean - earlier.mean;
        // Floating-point cancellation can push a near-zero window
        // variance slightly negative; clamp rather than NaN in sqrt.
        let m2 = (self.m2 - earlier.m2 - delta * delta * n1 * n2 / n).max(0.0);
        Summary {
            count,
            mean,
            m2,
            min: self.min,
            max: self.max,
        }
    }
}

/// A [`Summary`] of durations in nanoseconds: the count, mean and
/// extrema that Lockstat (Table 4a) and SystemTap (Table 4b) report.
///
/// The extrema are the summary's own `f64` ones, exact for every
/// duration below 2^53 ns (104 days).
///
/// # Examples
///
/// ```
/// use metrics::summary::DurationSummary;
/// use simcore::time::SimDuration;
///
/// let mut s = DurationSummary::new();
/// for us in [28, 30, 35, 1900] {
///     s.record(SimDuration::from_micros(us));
/// }
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.min().as_micros(), 28);
/// assert_eq!(s.max().as_micros(), 1900);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DurationSummary(Summary);

impl DurationSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration.
    pub fn record(&mut self, d: SimDuration) {
        self.0.add(d.as_nanos() as f64);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.0.count()
    }

    /// Mean duration, rounded to the nanosecond (zero if empty).
    pub fn mean(&self) -> SimDuration {
        SimDuration::from_nanos(self.0.mean().round() as u64)
    }

    /// Shortest duration (zero if empty).
    pub fn min(&self) -> SimDuration {
        SimDuration::from_nanos(self.0.min() as u64)
    }

    /// Longest duration (zero if empty).
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.0.max() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn since_recovers_window_statistics() {
        // Prefix samples, then a checkpoint, then window samples: the
        // windowed summary must match one built from the window alone.
        let mut s = Summary::new();
        for x in [3.0, 7.0, 11.0, 2.0] {
            s.add(x);
        }
        let checkpoint = s.clone();
        let window_samples = [100.0, 104.0, 96.0, 108.0, 92.0];
        let mut reference = Summary::new();
        for x in window_samples {
            s.add(x);
            reference.add(x);
        }
        let window = s.since(&checkpoint);
        assert_eq!(window.count(), reference.count());
        assert!((window.mean() - reference.mean()).abs() < 1e-9);
        assert!((window.std_dev() - reference.std_dev()).abs() < 1e-9);
    }

    #[test]
    fn since_edge_cases() {
        let mut s = Summary::new();
        s.add(5.0);
        // Nothing added since the checkpoint: empty window.
        assert_eq!(s.since(&s.clone()).count(), 0);
        // Empty checkpoint: the window is the whole summary.
        let whole = s.since(&Summary::new());
        assert_eq!(whole.count(), 1);
        assert_eq!(whole.mean(), 5.0);
    }

    #[test]
    fn basic_statistics() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.std_dev(), 2.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn duration_summary_exact_stats() {
        let mut s = DurationSummary::default();
        s.record(SimDuration::from_micros(10));
        s.record(SimDuration::from_micros(30));
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), SimDuration::from_micros(20));
        assert_eq!(s.min(), SimDuration::from_micros(10));
        assert_eq!(s.max(), SimDuration::from_micros(30));
    }

    #[test]
    fn empty_duration_summary_is_zeroed() {
        let s = DurationSummary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), SimDuration::ZERO);
        assert_eq!(s.min(), SimDuration::ZERO);
        assert_eq!(s.max(), SimDuration::ZERO);
    }

    proptest! {
        #[test]
        fn prop_mean_within_min_max(xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let mut s = Summary::new();
            for &x in &xs {
                s.add(x);
            }
            prop_assert!(s.mean() >= s.min() - 1e-9);
            prop_assert!(s.mean() <= s.max() + 1e-9);
            prop_assert_eq!(s.count(), xs.len() as u64);
        }
    }
}

//! Running mean/min/max/variance accumulator.

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
#[derive(Clone, Debug, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
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
            sum: 0.0,
        }
    }

    /// Adds a sample.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
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

    /// Sum of all samples (0 if empty).
    pub fn sum(&self) -> f64 {
        self.sum
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

    /// The summary of only the samples added after `earlier` — the
    /// inverse of [`Summary::merge`], for delta-measuring a window out
    /// of a cumulative summary (`earlier` must be a clone of this
    /// summary's own past state).
    ///
    /// Count, sum, mean, and variance are exact for the window (Chan's
    /// parallel-variance identity run backwards). `min`/`max` cannot be
    /// un-merged, so the result keeps the cumulative extrema — they can
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
            sum: self.sum - earlier.sum,
        }
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean = (n1 * self.mean + n2 * other.mean) / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
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
        assert!((window.sum() - reference.sum()).abs() < 1e-9);
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
        assert_eq!(s.sum(), 40.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let xs = [1.0, 5.0, 2.5, 8.0, 0.5];
        let ys = [3.0, 3.0, 9.9];
        let mut all = Summary::new();
        for &x in xs.iter().chain(&ys) {
            all.add(x);
        }
        let mut a = Summary::new();
        xs.iter().for_each(|&x| a.add(x));
        let mut b = Summary::new();
        ys.iter().for_each(|&y| b.add(y));
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.std_dev() - all.std_dev()).abs() < 1e-12);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Summary::new();
        a.add(4.0);
        let before = a.mean();
        a.merge(&Summary::new());
        assert_eq!(a.mean(), before);
        let mut empty = Summary::new();
        empty.merge(&a);
        assert_eq!(empty.mean(), before);
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

        #[test]
        fn prop_merge_order_independent(
            xs in proptest::collection::vec(0f64..1e3, 1..50),
            ys in proptest::collection::vec(0f64..1e3, 1..50),
        ) {
            let mut a1 = Summary::new();
            xs.iter().for_each(|&x| a1.add(x));
            let mut b1 = Summary::new();
            ys.iter().for_each(|&y| b1.add(y));
            let mut ab = a1.clone();
            ab.merge(&b1);
            let mut ba = b1;
            ba.merge(&a1);
            prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
            prop_assert!((ab.std_dev() - ba.std_dev()).abs() < 1e-9);
        }
    }
}

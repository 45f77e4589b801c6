//! Log-linear latency histogram.
//!
//! Latencies in this system span from ~100 ns (IPI delivery on a running
//! vCPU) to tens of milliseconds (a full scheduling round under 2:1
//! consolidation), so a log-linear bucketing — like HdrHistogram's — keeps
//! relative error bounded (< 1/16 here) at every scale while using a few
//! hundred buckets.

use crate::summary::Summary;
use simcore::time::SimDuration;

/// Sub-buckets per power-of-two bucket; relative quantile error is bounded
/// by `1 / SUB_BUCKETS`.
const SUB_BUCKETS: usize = 16;
/// log2 of `SUB_BUCKETS`.
const SUB_SHIFT: u32 = 4;
/// Number of power-of-two buckets: covers values up to `2^BUCKETS - 1` ns.
const BUCKETS: usize = 50;

/// A log-linear histogram of durations with exact count/mean/min/max.
///
/// The bucket array is allocated on the first recorded sample: most
/// machines carry histograms that never record (a co-runner VM's lock
/// and TLB histograms), and every machine checkpoint copies them.
///
/// # Examples
///
/// ```
/// use metrics::hist::Histogram;
/// use simcore::time::SimDuration;
///
/// let mut h = Histogram::new();
/// for us in [28, 30, 35, 1900] {
///     h.record(SimDuration::from_micros(us));
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max().as_micros(), 1900);
/// assert!(h.percentile(0.50).as_micros() <= 35);
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    /// Per-bucket counts: empty until the first sample, then
    /// `BUCKETS * SUB_BUCKETS` long.
    counts: Vec<u32>,
    summary: Summary,
    min: SimDuration,
    max: SimDuration,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Maps a nanosecond value to its log-linear bucket index.
#[inline]
fn bucket_of(ns: u64) -> usize {
    if ns < SUB_BUCKETS as u64 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros(); // Position of the highest set bit.
    let top = exp - SUB_SHIFT;
    let sub = ((ns >> top) as usize) & (SUB_BUCKETS - 1);
    ((top as usize + 1) * SUB_BUCKETS + sub).min(BUCKETS * SUB_BUCKETS - 1)
}

/// Returns a representative (lower-bound) nanosecond value for a bucket.
#[inline]
fn bucket_lower_bound(idx: usize) -> u64 {
    if idx < SUB_BUCKETS {
        return idx as u64;
    }
    let top = (idx / SUB_BUCKETS - 1) as u32;
    let sub = (idx % SUB_BUCKETS) as u64;
    (SUB_BUCKETS as u64 + sub) << top
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            summary: Summary::new(),
            min: SimDuration::MAX,
            max: SimDuration::ZERO,
        }
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS * SUB_BUCKETS];
        }
        self.counts[bucket_of(d.as_nanos())] += 1;
        self.summary.add(d.as_nanos() as f64);
        self.min = self.min.min(d);
        self.max = self.max.max(d);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.summary.count()
    }

    /// Exact mean of the samples.
    pub fn mean(&self) -> SimDuration {
        SimDuration::from_nanos(self.summary.mean().round() as u64)
    }

    /// Exact minimum sample (zero if empty).
    pub fn min(&self) -> SimDuration {
        if self.count() == 0 {
            SimDuration::ZERO
        } else {
            self.min
        }
    }

    /// Exact maximum sample (zero if empty).
    pub fn max(&self) -> SimDuration {
        self.max
    }

    /// Approximate quantile `q` in `[0, 1]` (bucket lower bound; relative
    /// error below 1/16). Returns zero for an empty histogram.
    pub fn percentile(&self, q: f64) -> SimDuration {
        let n = self.count();
        if n == 0 {
            return SimDuration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= target {
                return SimDuration::from_nanos(bucket_lower_bound(idx));
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if self.counts.is_empty() {
            self.counts = other.counts.clone();
        } else {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
        }
        self.summary.merge(&other.summary);
        if other.count() > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.summary = Summary::new();
        self.min = SimDuration::MAX;
        self.max = SimDuration::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_mapping_is_monotonic() {
        let mut last = 0;
        for ns in [0u64, 1, 15, 16, 17, 31, 32, 100, 1_000, 1 << 20, 1 << 40] {
            let b = bucket_of(ns);
            assert!(b >= last, "bucket_of({ns}) regressed");
            last = b;
        }
    }

    #[test]
    fn bucket_lower_bound_inverts_bucket_of() {
        for ns in [0u64, 1, 5, 16, 33, 100, 1_024, 999_999, 123_456_789] {
            let idx = bucket_of(ns);
            let lb = bucket_lower_bound(idx);
            assert!(lb <= ns, "lower bound {lb} above sample {ns}");
            // Relative error bound: lb >= ns * (1 - 1/16) roughly.
            if ns >= 16 {
                assert!(lb as f64 >= ns as f64 * (1.0 - 1.0 / 16.0) - 1.0);
            }
        }
    }

    #[test]
    fn exact_stats() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_micros(10));
        h.record(SimDuration::from_micros(30));
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), SimDuration::from_micros(20));
        assert_eq!(h.min(), SimDuration::from_micros(10));
        assert_eq!(h.max(), SimDuration::from_micros(30));
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
        assert_eq!(h.percentile(0.5), SimDuration::ZERO);
    }

    #[test]
    fn percentiles_are_ordered() {
        let mut h = Histogram::new();
        for us in 1..=1000u64 {
            h.record(SimDuration::from_micros(us));
        }
        let p50 = h.percentile(0.5);
        let p90 = h.percentile(0.9);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        // p50 of uniform 1..=1000us should land around 500us (±1 bucket).
        let us = p50.as_micros_f64();
        assert!((430.0..=570.0).contains(&us), "p50 was {us}us");
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        a.record(SimDuration::from_micros(5));
        let mut b = Histogram::new();
        b.record(SimDuration::from_millis(5));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), SimDuration::from_micros(5));
        assert_eq!(a.max(), SimDuration::from_millis(5));
    }

    #[test]
    fn reset_clears_everything() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_micros(50));
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), SimDuration::ZERO);
    }

    /// Every statistic of `h`, for comparing histograms whose bucket
    /// arrays were allocated at different times.
    fn stats(h: &Histogram) -> (u64, SimDuration, SimDuration, SimDuration, [SimDuration; 3]) {
        let p = [0.0, 0.5, 1.0].map(|q| h.percentile(q));
        (h.count(), h.mean(), h.min(), h.max(), p)
    }

    #[test]
    fn buckets_are_allocated_by_the_first_sample() {
        let mut h = Histogram::new();
        assert!(h.counts.is_empty(), "a new histogram holds no buckets");
        h.percentile(0.5);
        h.merge(&Histogram::new());
        h.reset();
        assert!(
            h.counts.is_empty(),
            "reads, empty merges and resets allocate nothing"
        );
        h.record(SimDuration::from_micros(7));
        let mut eager = Histogram::new();
        eager.counts = vec![0; BUCKETS * SUB_BUCKETS];
        eager.record(SimDuration::from_micros(7));
        assert_eq!(stats(&h), stats(&eager));
    }

    #[test]
    fn merge_with_an_empty_side_either_way() {
        let mut full = Histogram::new();
        for us in [3, 40, 900] {
            full.record(SimDuration::from_micros(us));
        }
        let mut into_empty = Histogram::new();
        into_empty.merge(&full);
        assert_eq!(stats(&into_empty), stats(&full));
        let mut from_empty = full.clone();
        from_empty.merge(&Histogram::new());
        assert_eq!(stats(&from_empty), stats(&full));
        // A merged-into empty histogram keeps recording like any other.
        into_empty.record(SimDuration::from_micros(5));
        full.record(SimDuration::from_micros(5));
        assert_eq!(stats(&into_empty), stats(&full));
    }

    #[test]
    fn reset_after_records_matches_a_new_histogram() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_millis(2));
        h.reset();
        assert_eq!(stats(&h), stats(&Histogram::new()));
        h.record(SimDuration::from_micros(9));
        let mut fresh = Histogram::new();
        fresh.record(SimDuration::from_micros(9));
        assert_eq!(stats(&h), stats(&fresh));
    }

    proptest! {
        #[test]
        fn prop_percentile_relative_error(
            ns_samples in proptest::collection::vec(1u64..1_000_000_000_000, 1..300)
        ) {
            let mut h = Histogram::new();
            for &ns in &ns_samples {
                h.record(SimDuration::from_nanos(ns));
            }
            let mut sorted = ns_samples.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let approx = h.percentile(q).as_nanos() as f64;
                let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
                let exact = sorted[rank.min(sorted.len() - 1)] as f64;
                prop_assert!(approx <= exact + 1.0);
                prop_assert!(approx >= exact * (1.0 - 1.0 / 16.0) - 1.0,
                    "q={} approx={} exact={}", q, approx, exact);
            }
        }

        #[test]
        fn prop_merge_equals_sequential(
            xs in proptest::collection::vec(1u64..1_000_000, 1..100),
            ys in proptest::collection::vec(1u64..1_000_000, 1..100),
        ) {
            let mut whole = Histogram::new();
            for &v in xs.iter().chain(&ys) {
                whole.record(SimDuration::from_nanos(v));
            }
            let mut a = Histogram::new();
            xs.iter().for_each(|&v| a.record(SimDuration::from_nanos(v)));
            let mut b = Histogram::new();
            ys.iter().for_each(|&v| b.record(SimDuration::from_nanos(v)));
            a.merge(&b);
            prop_assert_eq!(a.count(), whole.count());
            prop_assert_eq!(a.min(), whole.min());
            prop_assert_eq!(a.max(), whole.max());
            prop_assert_eq!(a.percentile(0.5), whole.percentile(0.5));
        }
    }
}

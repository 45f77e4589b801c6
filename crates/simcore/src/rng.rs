//! Deterministic random number generation for simulations.
//!
//! The simulator must be perfectly reproducible: the same seed has to yield
//! the same event interleaving on every run, on every platform. We therefore
//! implement a small, well-known generator (xoshiro256++ seeded via
//! SplitMix64) instead of pulling in an external RNG whose stream might
//! change between releases.

use crate::time::SimDuration;

/// A deterministic pseudo-random number generator (xoshiro256++).
///
/// # Examples
///
/// ```
/// use simcore::rng::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // A xoshiro state of all zeros would be a fixed point; SplitMix64
        // cannot produce four zero outputs in a row, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        SimRng { s }
    }

    /// Derives an independent child generator, e.g. one per guest thread.
    ///
    /// The child stream is decorrelated from the parent by hashing a fresh
    /// draw together with the `stream` index through SplitMix64.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let mut mix = self
            .next_u64()
            .wrapping_add(stream.wrapping_mul(0xA24B_AED4_963E_E407));
        let _ = splitmix64(&mut mix);
        SimRng::new(mix)
    }

    /// The raw xoshiro256++ state words.
    ///
    /// Diagnostic only — crash reports embed the stream position so a
    /// failure can be cross-checked against its replay. The state fully
    /// determines every future draw; it is not a secret and not an API
    /// for reseeding (use [`SimRng::new`] / [`SimRng::fork`]).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// The next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // Use the top 53 bits for a uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)`. Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire's multiply-shift rejection-free approximation is fine here;
        // the slight bias (< 2^-53 for our bounds) is irrelevant for a
        // workload model, and determinism is what matters.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// An exponentially distributed duration with the given mean.
    ///
    /// Used for inter-arrival times of workload phases (memoryless arrivals
    /// are the standard model for syscall/packet arrival processes).
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        let u = 1.0 - self.next_f64(); // In (0, 1]; avoids ln(0).
        let factor = -u.ln();
        SimDuration::from_nanos((mean.as_nanos() as f64 * factor).round() as u64)
    }

    /// A uniformly distributed duration in `[lo, hi)`.
    pub fn uniform_duration(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        if lo >= hi {
            return lo;
        }
        SimDuration::from_nanos(self.range_u64(lo.as_nanos(), hi.as_nanos()))
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed() {
        let mut a = SimRng::new(0xDEAD_BEEF);
        let mut b = SimRng::new(0xDEAD_BEEF);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be essentially uncorrelated");
    }

    #[test]
    fn forked_streams_are_deterministic_and_distinct() {
        let mut parent1 = SimRng::new(7);
        let mut parent2 = SimRng::new(7);
        let mut c1 = parent1.fork(3);
        let mut c2 = parent2.fork(3);
        assert_eq!(c1.next_u64(), c2.next_u64());

        let mut parent3 = SimRng::new(7);
        let mut other = parent3.fork(4);
        // Note: `fork` consumed a parent draw, so compare fresh streams only.
        assert_ne!(SimRng::new(7).fork(3).next_u64(), other.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SimRng::new(11);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SimRng::new(13);
        let mut seen_low = false;
        let mut seen_high = false;
        for _ in 0..10_000 {
            let x = rng.below(10);
            assert!(x < 10);
            seen_low |= x == 0;
            seen_high |= x == 9;
        }
        assert!(seen_low && seen_high, "should cover the full range");
    }

    #[test]
    fn exp_duration_has_right_mean() {
        let mut rng = SimRng::new(17);
        let mean = SimDuration::from_micros(100);
        let n = 50_000u64;
        let total: u64 = (0..n).map(|_| rng.exp_duration(mean).as_nanos()).sum();
        let avg = total as f64 / n as f64;
        let expect = mean.as_nanos() as f64;
        assert!(
            (avg - expect).abs() < 0.03 * expect,
            "mean {avg} too far from {expect}"
        );
    }

    #[test]
    fn uniform_duration_within_bounds() {
        let mut rng = SimRng::new(23);
        let lo = SimDuration::from_micros(10);
        let hi = SimDuration::from_micros(20);
        for _ in 0..1000 {
            let d = rng.uniform_duration(lo, hi);
            assert!(d >= lo && d < hi);
        }
        assert_eq!(rng.uniform_duration(hi, lo), hi);
    }

    #[test]
    fn pick_and_chance() {
        let mut rng = SimRng::new(31);
        let items = [1, 2, 3];
        for _ in 0..100 {
            assert!(items.contains(rng.pick(&items)));
        }
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((hits as f64 - 2_500.0).abs() < 300.0);
    }
}

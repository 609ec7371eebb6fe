//! A small deterministic PRNG (SplitMix64) used by the simulator, the
//! property-test harnesses and the benches.
//!
//! The workspace is deliberately dependency-free, so instead of pulling
//! in the `rand` crate we keep one tiny, seedable, reproducible
//! generator here in the base crate. It is **not** cryptographically
//! secure and is not meant to be; it exists to drive randomized tests
//! and synthetic workloads with stable, portable sequences.

use std::ops::Range;

/// One SplitMix64 step on a raw `state`: advances it by the golden
/// gamma and returns the mixed output. The state is a Weyl sequence, so
/// no state is a fixed point, 0 included. [`SmallRng`] is this step on
/// a pre-mixed seed.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seedable SplitMix64 generator.
///
/// ```
/// use dps_wm::rng::SmallRng;
/// let mut a = SmallRng::seed_from_u64(42);
/// let mut b = SmallRng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmallRng {
    state: u64,
}

impl SmallRng {
    /// Creates a generator from a 64-bit seed. Identical seeds produce
    /// identical sequences on every platform.
    pub fn seed_from_u64(seed: u64) -> Self {
        SmallRng {
            // Pre-mix so small consecutive seeds diverge immediately.
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1234_5678_9ABC_DEF0,
        }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// A uniform float in `[0, 1)`.
    pub fn random_f64(&mut self) -> f64 {
        // 53 high bits → the full double mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn random_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            true
        } else if p <= 0.0 {
            false
        } else {
            self.random_f64() < p
        }
    }

    /// A uniform index in `0..n`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        // Modulo bias is negligible for the small ranges used in tests.
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform integer in the half-open `range` (`lo..hi` draws from
    /// `[lo, hi)`). Panics if it is empty.
    pub fn range_u64(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        range.start + self.next_u64() % (range.end - range.start)
    }

    /// A uniform integer in the half-open `range` (`lo..hi` draws from
    /// `[lo, hi)`). Panics if it is empty.
    pub fn range_i64(&mut self, range: Range<i64>) -> i64 {
        assert!(range.start < range.end, "empty range");
        let span = (range.end - range.start) as u64;
        range.start + (self.next_u64() % span) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let u = r.range_u64(3..9);
            assert!((3..9).contains(&u));
            let i = r.range_i64(-5..5);
            assert!((-5..5).contains(&i));
            assert!(r.index(4) < 4);
            let f = r.random_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn ranges_are_half_open_at_both_ends() {
        let mut r = SmallRng::seed_from_u64(4);
        let (u, i): (Vec<u64>, Vec<i64>) =
            (0..1000).map(|_| (r.range_u64(3..6), r.range_i64(-2..1))).unzip();
        assert_eq!((u.iter().min(), u.iter().max()), (Some(&3), Some(&5)));
        assert_eq!((i.iter().min(), i.iter().max()), (Some(&-2), Some(&0)));
        assert_eq!((r.range_u64(7..8), r.range_i64(-7..-6)), (7, -7), "one value");
        let top = r.range_u64(u64::MAX - 1..u64::MAX);
        assert_eq!((top, r.range_i64(i64::MAX - 1..i64::MAX)), (u64::MAX - 1, i64::MAX - 1));
        assert!(std::panic::catch_unwind(|| SmallRng::seed_from_u64(0).range_u64(5..5)).is_err());
        assert!(std::panic::catch_unwind(|| SmallRng::seed_from_u64(0).range_i64(0..0)).is_err());
    }

    #[test]
    fn bool_extremes() {
        let mut r = SmallRng::seed_from_u64(2);
        assert!(r.random_bool(1.0));
        assert!(!r.random_bool(0.0));
        let hits = (0..1000).filter(|_| r.random_bool(0.5)).count();
        assert!((300..700).contains(&hits), "p=0.5 should be near half: {hits}");
    }

    #[test]
    fn spread_over_small_range() {
        let mut r = SmallRng::seed_from_u64(3);
        let mut seen = [false; 6];
        for _ in 0..200 {
            seen[r.index(6)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all cells of 0..6 hit");
    }
}

//! Deterministic pseudo-random number generators.
//!
//! Workload generation and error injection must be reproducible across runs
//! and across crate-version upgrades, so the stack uses its own small PRNGs:
//! [`SplitMix64`] for seeding and quick draws, and [`SimRng`] (xoshiro256**)
//! as the general-purpose generator.  Both implement the same convenience
//! surface (`next_u64`, `next_f64`, `range`, `bool_with_prob`, `shuffle`).

/// SplitMix64: a tiny, high-quality 64-bit generator used mostly to expand a
/// single user seed into the larger state of [`SimRng`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from an arbitrary seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256** — the workhorse generator for workload drivers, error
/// injection and shuffles.  Deterministic for a given seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for v in &mut s {
            *v = sm.next_u64();
        }
        // Avoid the all-zero state, which is a fixed point of xoshiro.
        if s.iter().all(|&x| x == 0) {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    #[inline]
    fn rotl(x: u64, k: u32) -> u64 {
        x.rotate_left(k)
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = Self::rotl(self.s[1].wrapping_mul(5), 7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = Self::rotl(self.s[3], 45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`.  Panics if `lo >= hi`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Lemire-style bounded draw with rejection of the biased zone.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(span as u128);
        let mut l = m as u64;
        if l < span {
            let t = span.wrapping_neg() % span;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(span as u128);
                l = m as u64;
            }
        }
        lo + (m >> 64) as u64
    }

    /// Uniform `usize` in `[lo, hi)`.
    #[inline]
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn bool_with_prob(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose on empty slice");
        &items[self.range_usize(0, items.len())]
    }

    /// Fisher–Yates shuffle, in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        let n = items.len();
        if n < 2 {
            return;
        }
        for i in (1..n).rev() {
            let j = self.range_usize(0, i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn simrng_is_deterministic_and_seed_sensitive() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        let mut c = SimRng::new(8);
        let seq_a: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let seq_b: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let seq_c: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(seq_a, seq_b);
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = SimRng::new(1);
        for _ in 0..10_000 {
            let v = rng.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = SimRng::new(3);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.range(0, 8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SimRng::new(5);
        for _ in 0..10_000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn bool_with_prob_extremes() {
        let mut rng = SimRng::new(9);
        for _ in 0..100 {
            assert!(!rng.bool_with_prob(0.0));
            assert!(rng.bool_with_prob(1.0));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(11);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn uniformity_rough_check() {
        // Mean of uniform [0,1000) draws should be close to 500.
        let mut rng = SimRng::new(77);
        let n = 100_000u64;
        let sum: u64 = (0..n).map(|_| rng.range(0, 1000)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 499.5).abs() < 5.0, "mean {mean} too far from 499.5");
    }
}

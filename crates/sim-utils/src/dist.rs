//! Skewed distributions used by the TPC workload drivers.
//!
//! * [`Zipf`] — Zipfian popularity distribution (used by the FIO-style
//!   synthetic generator and the TPC-E account-popularity model).
//! * [`NuRand`] — TPC-C's non-uniform random function `NURand(A, x, y)`,
//!   which drives customer and item selection skew.

use crate::rng::SimRng;

/// Zipfian distribution over `{0, 1, ..., n-1}` with exponent `theta`.
///
/// Uses the classic Gray et al. "quick and dirty" method: draws are O(1)
/// after an O(n)-free setup of two constants (no table of size `n`).
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl Zipf {
    /// Create a Zipf distribution over `n` items with skew `theta`
    /// (`0.0` = uniform-ish, `0.99` = the YCSB default heavy skew).
    ///
    /// Panics if `n == 0` or `theta >= 1.0` (the harmonic form requires
    /// `theta < 1`).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "Zipf over empty domain");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Self {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum; only called at construction.  Cap the exact sum at a
        // million terms and extrapolate with the integral approximation for
        // larger domains so construction stays cheap.
        const EXACT_CAP: u64 = 1_000_000;
        let exact_n = n.min(EXACT_CAP);
        let mut sum = 0.0;
        for i in 1..=exact_n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        if n > EXACT_CAP {
            // integral of x^-theta from EXACT_CAP to n
            let a = EXACT_CAP as f64;
            let b = n as f64;
            sum += (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta);
        }
        sum
    }

    /// Number of items in the domain.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draw a value in `[0, n)`; smaller values are (much) more popular.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }

    /// The `zeta(2, theta)` constant (exposed for tests).
    pub fn zeta2(&self) -> f64 {
        self.zeta2
    }
}

/// TPC-C `NURand(A, x, y)` non-uniform random function.
///
/// `NURand(A, x, y) = (((random(0,A) | random(x,y)) + C) % (y - x + 1)) + x`
#[derive(Debug, Clone, Copy)]
pub struct NuRand {
    a: u64,
    c: u64,
    x: u64,
    y: u64,
}

impl NuRand {
    /// Create a NURand generator with constant span `A`, output range
    /// `[x, y]` and run constant `c` (the per-run `C` from the TPC-C spec).
    pub fn new(a: u64, x: u64, y: u64, c: u64) -> Self {
        assert!(x <= y, "invalid NURand range");
        Self { a, c, x, y }
    }

    /// Standard constants for customer-id selection (A = 1023).
    pub fn customer_id(c: u64) -> Self {
        Self::new(1023, 1, 3000, c)
    }

    /// Draw a value in `[x, y]`.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let r1 = rng.range(0, self.a + 1);
        let r2 = rng.range(self.x, self.y + 1);
        (((r1 | r2) + self.c) % (self.y - self.x + 1)) + self.x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_bounds() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = SimRng::new(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn zipf_is_skewed() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = SimRng::new(2);
        let mut hits_top10 = 0u32;
        let n = 20_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 10 {
                hits_top10 += 1;
            }
        }
        // With theta=0.99 over 1000 items, the top-10 should capture a large
        // fraction of draws (way above the uniform 1%).
        assert!(
            hits_top10 as f64 / n as f64 > 0.25,
            "top-10 fraction {} too small",
            hits_top10 as f64 / n as f64
        );
    }

    #[test]
    fn zipf_low_theta_close_to_uniform() {
        let z = Zipf::new(100, 0.01);
        let mut rng = SimRng::new(3);
        let mut hits_top10 = 0u32;
        let n = 50_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 10 {
                hits_top10 += 1;
            }
        }
        let frac = hits_top10 as f64 / n as f64;
        assert!(frac < 0.25, "near-uniform zipf too skewed: {frac}");
    }

    #[test]
    #[should_panic]
    fn zipf_rejects_empty_domain() {
        let _ = Zipf::new(0, 0.5);
    }

    #[test]
    fn nurand_bounds() {
        let nu = NuRand::customer_id(123);
        let mut rng = SimRng::new(4);
        for _ in 0..10_000 {
            let v = nu.sample(&mut rng);
            assert!((1..=3000).contains(&v));
        }
    }

    #[test]
    fn nurand_is_nonuniform() {
        // The OR with random(0,A) makes small bit patterns more likely; check
        // the histogram is visibly non-flat.
        let nu = NuRand::new(255, 0, 999, 0);
        let mut rng = SimRng::new(6);
        let mut counts = vec![0u32; 1000];
        for _ in 0..200_000 {
            counts[nu.sample(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max > min * 2.0, "distribution unexpectedly flat");
    }
}

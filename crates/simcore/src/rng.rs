//! Seeded random number generation and the distributions the latency and
//! workload models need. Everything is deterministic given the seed.
//!
//! No stream can be seeded from OS entropy: the offline `rand` the
//! workspace builds against has no such constructor, so code that asks
//! for one does not compile. A stream comes from a seed:
//!
//! ```
//! use rand::{rngs::StdRng, RngCore, SeedableRng};
//! let mut rng = StdRng::seed_from_u64(0x5EED);
//! rng.next_u64();
//! ```
//!
//! not from the thread's entropy pool (E0425, no such function):
//!
//! ```compile_fail,E0425
//! use rand::RngCore;
//! let mut rng = rand::thread_rng();
//! rng.next_u64();
//! ```
//!
//! A generator is built from a seed:
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! let _rng = StdRng::seed_from_u64(7);
//! ```
//!
//! not from entropy (E0599, no such associated function):
//!
//! ```compile_fail,E0599
//! use rand::{rngs::StdRng, SeedableRng};
//! let _rng = StdRng::from_entropy();
//! ```

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::time::SimDuration;

/// Deterministic RNG used throughout a simulation run.
///
/// A scenario creates one `SimRng` from its seed and derives per-component
/// streams with [`SimRng::fork`], so adding a component does not perturb the
/// random sequence observed by others.
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// A deterministic stream from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child stream (splitmix over a fresh seed).
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.inner.next_u64())
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform integer in `[0, bound)`. Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        self.inner.gen_range(0..bound)
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli trial.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal via Box–Muller (we avoid the `rand_distr` dependency).
    pub fn std_normal(&mut self) -> f64 {
        loop {
            let u1 = self.f64();
            let u2 = self.f64();
            if u1 > f64::EPSILON {
                return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            }
        }
    }

    /// Log-normal parameterized directly by the *target* median and a shape
    /// sigma (latency tails are right-skewed; sigma ~0.05–0.3 is realistic).
    pub fn lognormal(&mut self, median: f64, sigma: f64) -> f64 {
        (median.ln() + sigma * self.std_normal()).exp()
    }

    /// A latency sample: log-normal around `median` ns with shape `sigma`,
    /// clamped below at `floor` ns (a device never beats its pipeline).
    pub fn latency(&mut self, median: SimDuration, sigma: f64, floor: SimDuration) -> SimDuration {
        let ns = self.lognormal(median.as_nanos() as f64, sigma);
        SimDuration::from_nanos((ns.round() as u64).max(floor.as_nanos()))
    }

    /// Zipf-distributed rank in `[0, n)` with exponent `s` (inverse-CDF by
    /// binary search over precomputed weights is overkill here; rejection
    /// sampling per Devroye is O(1) amortized).
    pub fn zipf(&mut self, n: u64, s: f64) -> u64 {
        assert!(n > 0);
        if s <= 0.0 {
            return self.below(n);
        }
        // Rejection method for Zipf (Devroye, Non-Uniform Random Variate
        // Generation, p. 550).
        let nf = n as f64;
        loop {
            let u = self.f64();
            let v = self.f64();
            let x = if (s - 1.0).abs() < 1e-9 {
                nf.powf(u)
            } else {
                let t = (nf.powf(1.0 - s) - 1.0) * u + 1.0;
                t.powf(1.0 / (1.0 - s))
            };
            let k = x.floor().max(1.0);
            let ratio = (k / x).powf(s)
                * if (s - 1.0).abs() < 1e-9 {
                    x / k
                } else {
                    // acceptance uses the envelope density ratio
                    1.0
                };
            if v * k * ratio <= x || k <= 1.0 {
                let idx = (k as u64).min(n) - 1;
                return idx;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = SimRng::seed_from_u64(7);
        let mut c1 = root.fork();
        let mut c2 = root.fork();
        let s1: Vec<u64> = (0..10).map(|_| c1.next_u64()).collect();
        let s2: Vec<u64> = (0..10).map(|_| c2.next_u64()).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(rng.below(17) < 17);
        }
    }

    #[test]
    fn std_normal_moments_roughly_right() {
        let mut rng = SimRng::seed_from_u64(3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.std_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 1.0).abs() < 0.05, "sd {}", var.sqrt());
    }

    #[test]
    fn lognormal_median_roughly_right() {
        let mut rng = SimRng::seed_from_u64(4);
        let n = 20_001;
        let mut samples: Vec<f64> = (0..n).map(|_| rng.lognormal(9000.0, 0.1)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n / 2];
        assert!((median - 9000.0).abs() / 9000.0 < 0.02, "median {median}");
    }

    #[test]
    fn latency_clamps_at_floor() {
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..1000 {
            let l = rng.latency(
                SimDuration::from_nanos(1000),
                1.0, // huge spread so the floor actually binds sometimes
                SimDuration::from_nanos(900),
            );
            assert!(l.as_nanos() >= 900);
        }
    }

    #[test]
    fn zipf_in_range_and_skewed() {
        let mut rng = SimRng::seed_from_u64(8);
        let n = 1000u64;
        let mut counts = vec![0u32; n as usize];
        for _ in 0..30_000 {
            let k = rng.zipf(n, 1.1);
            assert!(k < n);
            counts[k as usize] += 1;
        }
        // Rank 0 must be sampled far more often than rank 500.
        assert!(
            counts[0] > counts[500] * 5,
            "{} vs {}",
            counts[0],
            counts[500]
        );
    }

    #[test]
    fn zipf_zero_exponent_is_uniformish() {
        let mut rng = SimRng::seed_from_u64(9);
        let mut counts = [0u32; 4];
        for _ in 0..8000 {
            counts[rng.zipf(4, 0.0) as usize] += 1;
        }
        for c in counts {
            assert!((c as i64 - 2000).abs() < 300, "{counts:?}");
        }
    }
}

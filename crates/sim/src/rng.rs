//! Deterministic random-number generation for reproducible experiments.
//!
//! Every stochastic component of the reproduction (link fading, interference
//! burst placement, Exp3 arm draws, epsilon-greedy exploration, ...) draws
//! from a [`SimRng`] that is seeded explicitly. Two runs with the same seed
//! produce bit-identical results, which the integration tests rely on.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// A small, fast, seedable random number generator used across the
/// simulation.
///
/// `SimRng` wraps [`rand::rngs::SmallRng`] and adds a few convenience
/// helpers used throughout the Dimmer reproduction. It also supports
/// deriving independent sub-streams ([`SimRng::fork`]) so that, e.g., each
/// node or each flood can own its own generator without correlation.
///
/// # Examples
///
/// ```
/// use dimmer_sim::SimRng;
/// let mut rng = SimRng::seed_from(7);
/// let p = rng.gen_probability();
/// assert!((0.0..1.0).contains(&p));
/// assert!(rng.chance(1.0));
/// assert!(!rng.chance(0.0));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent generator for a named sub-stream.
    ///
    /// The derived stream depends on both the parent state and `stream`, so
    /// forking with different stream identifiers yields decorrelated
    /// generators while remaining fully deterministic.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let s = self.inner.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from(s)
    }

    /// Derives a child seed from a root seed and a stream identifier
    /// *without* consuming any generator state.
    ///
    /// This is the stateless counterpart of [`SimRng::fork`]: because the
    /// result depends only on `(root, stream)`, callers can hand out
    /// decorrelated sub-seeds from concurrent workers in any order — e.g.
    /// one seed per experiment trial — and still obtain bit-identical
    /// sequences regardless of scheduling. The mixing is the SplitMix64
    /// finalizer, so nearby streams (`0, 1, 2, ...`) map to well-spread
    /// seeds.
    ///
    /// # Examples
    ///
    /// ```
    /// use dimmer_sim::SimRng;
    /// // Same (root, stream) always gives the same seed...
    /// assert_eq!(SimRng::split_seed(42, 3), SimRng::split_seed(42, 3));
    /// // ...and different streams give decorrelated seeds.
    /// assert_ne!(SimRng::split_seed(42, 3), SimRng::split_seed(42, 4));
    /// ```
    pub fn split_seed(root: u64, stream: u64) -> u64 {
        let mut z = root
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Derives a child seed along a path of stream identifiers, applying
    /// [`SimRng::split_seed`] once per path element.
    ///
    /// Useful for nested fan-out such as *grid cell → trial*:
    /// `derive_seed(base, &[cell, trial])` is deterministic and independent
    /// of which worker thread evaluates the trial.
    ///
    /// # Examples
    ///
    /// ```
    /// use dimmer_sim::SimRng;
    /// let a = SimRng::derive_seed(7, &[2, 5]);
    /// let b = SimRng::split_seed(SimRng::split_seed(7, 2), 5);
    /// assert_eq!(a, b);
    /// ```
    pub fn derive_seed(root: u64, path: &[u64]) -> u64 {
        path.iter().fold(root, |acc, &s| SimRng::split_seed(acc, s))
    }

    /// Returns a uniformly distributed probability in `[0, 1)`.
    pub fn gen_probability(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            true
        } else if p <= 0.0 {
            false
        } else {
            self.inner.gen::<f64>() < p
        }
    }

    /// Returns a uniformly distributed value in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn uniform(&mut self, low: f64, high: f64) -> f64 {
        assert!(low < high, "uniform range must be non-empty");
        self.inner.gen_range(low..high)
    }

    /// Returns a uniformly distributed integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample an index from an empty range");
        self.inner.gen_range(0..n)
    }

    /// Returns a sample from a zero-mean Gaussian with the given standard
    /// deviation, using the Box–Muller transform.
    pub fn gaussian(&mut self, std_dev: f64) -> f64 {
        // Box–Muller: avoids pulling in rand_distr just for this.
        let u1: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.inner.gen();
        let mag = (-2.0 * u1.ln()).sqrt();
        mag * (2.0 * std::f64::consts::PI * u2).cos() * std_dev
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        if slice.is_empty() {
            return;
        }
        for i in (1..slice.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            slice.swap(i, j);
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::RngCore;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::seed_from(99);
        let mut b = SimRng::seed_from(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "independent streams should rarely collide");
    }

    #[test]
    fn forked_streams_are_deterministic() {
        let mut parent1 = SimRng::seed_from(7);
        let mut parent2 = SimRng::seed_from(7);
        let mut c1 = parent1.fork(3);
        let mut c2 = parent2.fork(3);
        for _ in 0..10 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn split_seed_is_stateless_and_order_independent() {
        // Evaluating streams in any order gives the same seeds.
        let forward: Vec<u64> = (0..8).map(|s| SimRng::split_seed(99, s)).collect();
        let backward: Vec<u64> = (0..8).rev().map(|s| SimRng::split_seed(99, s)).collect();
        assert_eq!(
            forward,
            backward.into_iter().rev().collect::<Vec<_>>(),
            "split_seed must not depend on evaluation order"
        );
        // Nearby streams are well spread.
        let mut sorted = forward.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "adjacent streams must not collide");
    }

    #[test]
    fn derive_seed_composes_split_seed() {
        assert_eq!(SimRng::derive_seed(5, &[]), 5);
        assert_eq!(
            SimRng::derive_seed(5, &[1, 2, 3]),
            SimRng::split_seed(SimRng::split_seed(SimRng::split_seed(5, 1), 2), 3)
        );
        // Paths are not commutative: (cell, trial) != (trial, cell).
        assert_ne!(
            SimRng::derive_seed(5, &[1, 2]),
            SimRng::derive_seed(5, &[2, 1])
        );
    }

    #[test]
    fn chance_handles_extremes() {
        let mut rng = SimRng::seed_from(0);
        assert!(rng.chance(1.5));
        assert!(!rng.chance(-0.5));
    }

    #[test]
    fn chance_roughly_matches_probability() {
        let mut rng = SimRng::seed_from(11);
        let n = 20_000;
        let hits = (0..n).filter(|_| rng.chance(0.3)).count();
        let ratio = hits as f64 / n as f64;
        assert!((ratio - 0.3).abs() < 0.02, "observed {ratio}");
    }

    #[test]
    fn gaussian_has_reasonable_moments() {
        let mut rng = SimRng::seed_from(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian(2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from(13);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    proptest! {
        #[test]
        fn prop_uniform_stays_in_range(seed in 0u64..1000, low in -100.0f64..0.0, span in 0.001f64..100.0) {
            let mut rng = SimRng::seed_from(seed);
            let high = low + span;
            let x = rng.uniform(low, high);
            prop_assert!(x >= low && x < high);
        }

        #[test]
        fn prop_index_in_bounds(seed in 0u64..1000, n in 1usize..500) {
            let mut rng = SimRng::seed_from(seed);
            prop_assert!(rng.index(n) < n);
        }
    }
}

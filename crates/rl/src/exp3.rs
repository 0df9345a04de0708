//! Exp3 — exponential-weight algorithm for adversarial multi-armed bandits
//! (Auer, Cesa-Bianchi, Freund, Schapire; SIAM J. Comput. 2002).
//!
//! Dimmer uses a two-armed Exp3 instance per device for forwarder selection:
//! arm 0 = *active forwarder*, arm 1 = *passive receiver*. The environment is
//! adversarial from each device's point of view (other devices' decisions and
//! the interference affect the reward), which is why UCB-style stochastic
//! bandits are unsuitable (§IV-C).

use rand::rngs::StdRng;
use rand::Rng;

/// An Exp3 bandit over `K` arms.
///
/// Arm selection follows Eq. 2 of the paper:
/// `p_i(t) = (1 − γ) · w_i(t) / Σ_j w_j(t) + γ / K`,
/// and after receiving reward `r` for arm `i` drawn with probability `p_i`,
/// the weight is updated as `w_i ← w_i · exp(γ · r / (K · p_i))`.
///
/// # Examples
///
/// ```
/// use dimmer_rl::Exp3;
/// let bandit = Exp3::new(2, 0.1);
/// let p = bandit.probabilities();
/// assert!((p[0] - 0.5).abs() < 1e-9);
/// assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Exp3 {
    weights: Vec<f64>,
    gamma: f64,
    initial_weight: f64,
}

impl Exp3 {
    /// Upper bound on weights to keep the exponential update numerically
    /// stable over long runs.
    const MAX_WEIGHT: f64 = 1e12;

    /// Creates a bandit with `arms` arms and exploration factor `gamma`.
    ///
    /// # Panics
    ///
    /// Panics if `arms == 0` or `gamma` is outside `(0, 1]`.
    pub fn new(arms: usize, gamma: f64) -> Self {
        assert!(arms > 0, "need at least one arm");
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
        Exp3 {
            weights: vec![1.0; arms],
            gamma,
            initial_weight: 1.0,
        }
    }

    /// Number of arms.
    pub fn num_arms(&self) -> usize {
        self.weights.len()
    }

    /// The exploration factor γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Current selection probabilities (Eq. 2).
    pub fn probabilities(&self) -> Vec<f64> {
        let total: f64 = self.weights.iter().sum();
        let k = self.weights.len() as f64;
        self.weights
            .iter()
            .map(|w| (1.0 - self.gamma) * (w / total) + self.gamma / k)
            .collect()
    }

    /// Draws an arm according to the current probabilities; returns the arm
    /// and the probability it was drawn with (needed for the update).
    pub fn select_arm(&self, rng: &mut StdRng) -> (usize, f64) {
        let probs = self.probabilities();
        let mut target: f64 = rng.gen();
        for (i, p) in probs.iter().enumerate() {
            if target < *p {
                return (i, *p);
            }
            target -= p;
        }
        let last = probs.len() - 1;
        (last, probs[last])
    }

    /// Updates the chosen arm's weight after observing `reward ∈ [0, 1]`
    /// drawn with probability `probability`.
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range or `probability` is not positive.
    pub fn update(&mut self, arm: usize, reward: f64, probability: f64) {
        assert!(arm < self.weights.len(), "arm out of range");
        assert!(probability > 0.0, "selection probability must be positive");
        let reward = reward.clamp(0.0, 1.0);
        let k = self.weights.len() as f64;
        let estimated = reward / probability;
        let factor = (self.gamma * estimated / k).exp();
        self.weights[arm] = (self.weights[arm] * factor).min(Self::MAX_WEIGHT);
    }

    /// Resets one arm's weight to its initial value.
    ///
    /// Dimmer uses this to punish network-breaking configurations: when a
    /// passive decision broke connectivity, the passive arm is reinitialized
    /// so the bad configuration is unlikely to be re-entered (§IV-C).
    pub fn reset_arm(&mut self, arm: usize) {
        assert!(arm < self.weights.len(), "arm out of range");
        self.weights[arm] = self.initial_weight;
    }

    /// The arm with the largest weight (the current greedy choice).
    pub fn best_arm(&self) -> usize {
        self.weights
            .iter()
            .enumerate()
            // lint: allow(P001) -- update() renormalizes and clamps, so weights stay finite
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite weights"))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn initial_probabilities_are_uniform() {
        let b = Exp3::new(4, 0.2);
        for p in b.probabilities() {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn rewarding_one_arm_shifts_probability_mass() {
        let mut b = Exp3::new(2, 0.1);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let (arm, p) = b.select_arm(&mut rng);
            let reward = if arm == 0 { 1.0 } else { 0.0 };
            b.update(arm, reward, p);
        }
        let probs = b.probabilities();
        assert!(probs[0] > 0.8, "good arm probability {}", probs[0]);
        assert_eq!(b.best_arm(), 0);
    }

    #[test]
    fn exploration_floor_is_maintained() {
        let mut b = Exp3::new(2, 0.2);
        for _ in 0..500 {
            b.update(0, 1.0, 0.5);
        }
        let probs = b.probabilities();
        // Even a hopeless arm keeps γ/K probability.
        assert!(probs[1] >= 0.2 / 2.0 - 1e-12);
    }

    #[test]
    fn adversarial_switch_is_tracked() {
        let mut b = Exp3::new(2, 0.3);
        let mut rng = StdRng::seed_from_u64(11);
        // Phase 1: arm 0 is good.
        for _ in 0..150 {
            let (arm, p) = b.select_arm(&mut rng);
            b.update(arm, if arm == 0 { 1.0 } else { 0.0 }, p);
        }
        assert_eq!(b.best_arm(), 0);
        // Phase 2: the adversary flips the reward structure.
        for _ in 0..600 {
            let (arm, p) = b.select_arm(&mut rng);
            b.update(arm, if arm == 1 { 1.0 } else { 0.0 }, p);
        }
        assert_eq!(b.best_arm(), 1, "Exp3 must adapt to the adversarial switch");
    }

    #[test]
    fn reset_arm_restores_initial_weight() {
        let mut b = Exp3::new(2, 0.1);
        for _ in 0..50 {
            b.update(1, 1.0, 0.5);
        }
        assert_eq!(b.best_arm(), 1);
        b.reset_arm(1);
        let probs = b.probabilities();
        assert!(
            (probs[0] - probs[1]).abs() < 1e-9,
            "reset should level the arms again"
        );
    }

    #[test]
    fn weights_stay_bounded_under_long_runs() {
        let mut b = Exp3::new(2, 0.5);
        for _ in 0..100_000 {
            b.update(0, 1.0, 0.26);
        }
        let probs = b.probabilities();
        assert!(probs.iter().all(|p| p.is_finite()));
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "gamma must be in (0, 1]")]
    fn invalid_gamma_is_rejected() {
        Exp3::new(2, 0.0);
    }

    #[test]
    #[should_panic(expected = "arm out of range")]
    fn update_rejects_unknown_arm() {
        let mut b = Exp3::new(2, 0.1);
        b.update(5, 1.0, 0.5);
    }

    proptest! {
        #[test]
        fn prop_probabilities_always_sum_to_one(updates in proptest::collection::vec((0usize..2, 0.0f64..1.0), 0..200)) {
            let mut b = Exp3::new(2, 0.1);
            for (arm, reward) in updates {
                let p = b.probabilities()[arm];
                b.update(arm, reward, p);
            }
            let probs = b.probabilities();
            prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            for p in probs {
                prop_assert!(p > 0.0 && p < 1.0);
            }
        }

        #[test]
        fn prop_selected_arm_is_valid(seed in 0u64..200, arms in 1usize..6) {
            let b = Exp3::new(arms, 0.15);
            let mut rng = StdRng::seed_from_u64(seed);
            let (arm, p) = b.select_arm(&mut rng);
            prop_assert!(arm < arms);
            prop_assert!(p > 0.0 && p <= 1.0);
        }

        // The invariant the zoo's meta-controller leans on: after ANY
        // reward sequence in [0, 1] — importance-weighted through the
        // arm's own selection probability, as in real operation — the
        // distribution stays normalized and every arm keeps at least the
        // γ/K exploration floor, so no specialist is ever starved.
        #[test]
        fn prop_any_reward_sequence_keeps_the_distribution_normalized_and_floored(
            arms in 1usize..6,
            gamma in 0.01f64..=1.0,
            rewards in proptest::collection::vec(0.0f64..=1.0, 0..120),
            seed in 0u64..256,
        ) {
            let mut b = Exp3::new(arms, gamma);
            let mut rng = StdRng::seed_from_u64(seed);
            let floor = gamma / arms as f64;
            for reward in rewards {
                let (arm, p) = b.select_arm(&mut rng);
                b.update(arm, reward, p);
                let probs = b.probabilities();
                prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                for p in probs {
                    prop_assert!(p.is_finite() && p > 0.0, "arm probability must stay positive");
                    prop_assert!(p >= floor - 1e-12, "probability {p} fell below the γ/K floor {floor}");
                }
            }
        }
    }
}

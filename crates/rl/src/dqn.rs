//! Deep Q-network training with experience replay and a target network.
//!
//! The hyper-parameters follow §IV-B of the paper: one hidden layer of 30
//! ReLU neurons, 200 000 training iterations, an epsilon-greedy policy whose
//! random-action probability is annealed linearly from 100 % to 1 % over the
//! first 100 000 steps and held at 1 % afterwards, and a discount factor
//! γ = 0.7.

use crate::env::Environment;
use crate::replay::{ReplayBuffer, Transition};
use dimmer_neural::{Mlp, MlpWorkspace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyper-parameters of the DQN trainer.
///
/// # Examples
///
/// ```
/// use dimmer_rl::DqnConfig;
/// let cfg = DqnConfig::paper_default();
/// assert_eq!(cfg.hidden_neurons, 30);
/// assert_eq!(cfg.discount, 0.7);
/// assert_eq!(cfg.training_iterations, 200_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DqnConfig {
    /// Width of the single hidden layer.
    pub hidden_neurons: usize,
    /// Discount factor γ.
    pub discount: f32,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Capacity of the experience replay buffer.
    pub replay_capacity: usize,
    /// Number of transitions sampled per training step.
    pub batch_size: usize,
    /// Minimum number of stored transitions before training starts.
    pub warmup_transitions: usize,
    /// How many environment steps between target-network synchronizations.
    pub target_sync_interval: usize,
    /// Initial random-action probability.
    pub epsilon_start: f64,
    /// Final random-action probability.
    pub epsilon_end: f64,
    /// Number of steps over which epsilon is annealed linearly.
    pub epsilon_decay_steps: usize,
    /// Total number of environment interactions during training.
    pub training_iterations: usize,
}

impl DqnConfig {
    /// The configuration used in the paper (§IV-B).
    pub fn paper_default() -> Self {
        DqnConfig {
            hidden_neurons: 30,
            discount: 0.7,
            learning_rate: 0.001,
            replay_capacity: 20_000,
            batch_size: 16,
            warmup_transitions: 500,
            target_sync_interval: 500,
            epsilon_start: 1.0,
            epsilon_end: 0.01,
            epsilon_decay_steps: 100_000,
            training_iterations: 200_000,
        }
    }

    /// A scaled-down configuration for unit tests and quick examples.
    pub fn quick() -> Self {
        DqnConfig {
            replay_capacity: 4_000,
            warmup_transitions: 64,
            target_sync_interval: 200,
            epsilon_decay_steps: 3_000,
            training_iterations: 6_000,
            learning_rate: 0.005,
            ..Self::paper_default()
        }
    }

    /// Overrides the number of training iterations.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.training_iterations = iterations;
        self.epsilon_decay_steps = (iterations / 2).max(1);
        self
    }
}

impl Default for DqnConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A DQN agent: online network, target network, replay buffer and an
/// epsilon-greedy behaviour policy.
///
/// # Examples
///
/// Training on a synthetic environment:
///
/// ```
/// use dimmer_rl::{DqnConfig, DqnTrainer, Environment, Step};
/// use rand::rngs::StdRng;
///
/// struct AlwaysZero;
/// impl Environment for AlwaysZero {
///     fn state_dim(&self) -> usize { 1 }
///     fn num_actions(&self) -> usize { 2 }
///     fn reset(&mut self, _rng: &mut StdRng) -> Vec<f32> { vec![0.0] }
///     fn step(&mut self, action: usize, _rng: &mut StdRng) -> Step {
///         Step { next_state: vec![0.0], reward: if action == 0 { 1.0 } else { 0.0 }, done: true }
///     }
/// }
///
/// let cfg = DqnConfig::quick().with_iterations(2_000);
/// let mut trainer = DqnTrainer::new(1, 2, cfg, 42);
/// let mut env = AlwaysZero;
/// trainer.train(&mut env);
/// assert_eq!(trainer.greedy_action(&[0.0]), 0);
/// ```
#[derive(Debug, Clone)]
pub struct DqnTrainer {
    online: Mlp,
    target: Mlp,
    replay: ReplayBuffer,
    config: DqnConfig,
    rng: StdRng,
    steps: usize,
    /// Scratch shared by both networks' passes, so a step allocates nothing.
    ws: MlpWorkspace,
}

impl DqnTrainer {
    /// Creates a trainer for an environment with `state_dim` inputs and
    /// `num_actions` discrete actions.
    ///
    /// # Panics
    ///
    /// Panics if `state_dim` or `num_actions` is zero.
    pub fn new(state_dim: usize, num_actions: usize, config: DqnConfig, seed: u64) -> Self {
        assert!(
            state_dim > 0 && num_actions > 0,
            "state and action spaces must be non-empty"
        );
        let online = Mlp::new(&[state_dim, config.hidden_neurons, num_actions], seed);
        let target = online.clone();
        let replay = ReplayBuffer::new(config.replay_capacity);
        DqnTrainer {
            online,
            target,
            replay,
            config,
            rng: StdRng::seed_from_u64(seed ^ 0xD9),
            steps: 0,
            ws: MlpWorkspace::default(),
        }
    }

    /// The current exploration rate, annealed linearly from
    /// `epsilon_start` to `epsilon_end` over `epsilon_decay_steps`.
    pub fn epsilon(&self) -> f64 {
        let cfg = &self.config;
        if self.steps >= cfg.epsilon_decay_steps {
            cfg.epsilon_end
        } else {
            let progress = self.steps as f64 / cfg.epsilon_decay_steps as f64;
            cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * progress
        }
    }

    /// Number of environment interactions performed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &DqnConfig {
        &self.config
    }

    /// The greedy action of the online network for `state`.
    pub fn greedy_action(&self, state: &[f32]) -> usize {
        self.online.argmax(state)
    }

    /// Chooses an action epsilon-greedily for `state`.
    pub fn select_action(&mut self, state: &[f32]) -> usize {
        if self.rng.gen::<f64>() < self.epsilon() {
            self.rng.gen_range(0..self.online.num_outputs())
        } else {
            self.online.argmax(state)
        }
    }

    /// Records a transition and performs one training update (if the warm-up
    /// threshold has been reached). Returns the mean TD loss of the batch, or
    /// `None` while still warming up.
    ///
    /// Equivalent to [`observe_at`](Self::observe_at) with the trainer's own
    /// step count plus one — the single-environment special case.
    pub fn observe(&mut self, transition: Transition) -> Option<f32> {
        self.observe_at(transition, self.steps + 1)
    }

    /// Records a transition under an externally driven **global transition
    /// counter** and performs one training update (if the warm-up threshold
    /// has been reached). Returns the mean TD loss of the batch, or `None`
    /// while still warming up.
    ///
    /// The epsilon schedule and the target-network synchronization are both
    /// clocked by `global_transitions` — the 1-based count of transitions
    /// observed so far across *every* environment feeding this trainer. A
    /// vectorized trainer (the farm) passes its own counter so the schedules
    /// follow the global transition order no matter how transitions are
    /// batched across environments; counting per trainer instead would skew
    /// both schedules under vectorized batching.
    ///
    /// Counters must be fed in ascending order; [`steps`](Self::steps)
    /// reports the last counter value seen.
    pub fn observe_at(&mut self, transition: Transition, global_transitions: usize) -> Option<f32> {
        self.replay.push(transition);
        self.steps = global_transitions;
        if self.steps.is_multiple_of(self.config.target_sync_interval) {
            self.target.clone_from(&self.online);
        }
        if self.replay.len() < self.config.warmup_transitions {
            return None;
        }
        let cfg = &self.config;
        let mut loss = 0.0;
        // lint: hot-begin
        for t in self.replay.sample(cfg.batch_size, &mut self.rng) {
            let target_value = if t.done {
                t.reward
            } else {
                let next_q = self.target.forward_in(&t.next_state, &mut self.ws);
                let max_next = next_q.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                t.reward + cfg.discount * max_next
            };
            loss += self.online.train_single_output(
                &t.state,
                t.action,
                target_value,
                cfg.learning_rate,
                &mut self.ws,
            );
        }
        // lint: hot-end
        Some(loss / cfg.batch_size as f32)
    }

    /// Runs the full training loop against `env` for
    /// `config.training_iterations` environment steps. Returns the average
    /// reward per step over the final 10 % of training (a convergence
    /// indicator).
    pub fn train<E: Environment>(&mut self, env: &mut E) -> f32 {
        assert_eq!(
            env.state_dim(),
            self.online.num_inputs(),
            "environment/agent state mismatch"
        );
        assert_eq!(
            env.num_actions(),
            self.online.num_outputs(),
            "environment/agent action mismatch"
        );
        let mut env_rng = StdRng::seed_from_u64(self.rng.gen());
        let mut state = env.reset(&mut env_rng);
        let tail_start = self.config.training_iterations * 9 / 10;
        let mut tail_reward = 0.0f32;
        let mut tail_count = 0usize;
        for it in 0..self.config.training_iterations {
            let action = self.select_action(&state);
            let step = env.step(action, &mut env_rng);
            if it >= tail_start {
                tail_reward += step.reward;
                tail_count += 1;
            }
            self.observe(Transition {
                state: state.clone(),
                action,
                reward: step.reward,
                next_state: step.next_state.clone(),
                done: step.done,
            });
            state = if step.done {
                env.reset(&mut env_rng)
            } else {
                step.next_state
            };
        }
        if tail_count == 0 {
            0.0
        } else {
            tail_reward / tail_count as f32
        }
    }

    /// Borrows the online (policy) network.
    pub fn policy(&self) -> &Mlp {
        &self.online
    }

    /// Consumes the trainer and returns the trained policy network.
    pub fn into_policy(self) -> Mlp {
        self.online
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::test_envs::{ChainWalk, ContextualBandit};
    use rand::SeedableRng;

    #[test]
    fn epsilon_anneals_linearly_then_clamps() {
        let cfg = DqnConfig {
            epsilon_decay_steps: 100,
            ..DqnConfig::quick()
        };
        let mut trainer = DqnTrainer::new(2, 2, cfg, 0);
        assert!((trainer.epsilon() - 1.0).abs() < 1e-9);
        for _ in 0..50 {
            trainer.observe(Transition {
                state: vec![0.0, 0.0],
                action: 0,
                reward: 0.0,
                next_state: vec![0.0, 0.0],
                done: true,
            });
        }
        let halfway = trainer.epsilon();
        assert!(
            halfway < 0.6 && halfway > 0.4,
            "epsilon at halfway: {halfway}"
        );
        for _ in 0..200 {
            trainer.observe(Transition {
                state: vec![0.0, 0.0],
                action: 0,
                reward: 0.0,
                next_state: vec![0.0, 0.0],
                done: true,
            });
        }
        assert!((trainer.epsilon() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn dqn_solves_a_contextual_bandit() {
        let mut env = ContextualBandit::new(3);
        let cfg = DqnConfig::quick().with_iterations(8_000);
        let mut trainer = DqnTrainer::new(3, 3, cfg, 7);
        let tail = trainer.train(&mut env);
        assert!(
            tail > 0.85,
            "average tail reward should be close to 1.0, got {tail}"
        );
        // Greedy policy picks the matching action for every context.
        for c in 0..3 {
            let mut state = vec![0.0; 3];
            state[c] = 1.0;
            assert_eq!(trainer.greedy_action(&state), c, "context {c}");
        }
    }

    #[test]
    fn dqn_learns_multi_step_credit_assignment_on_a_chain() {
        let mut env = ChainWalk::new(4);
        let cfg = DqnConfig::quick().with_iterations(12_000);
        let mut trainer = DqnTrainer::new(4, 2, cfg, 3);
        trainer.train(&mut env);
        // In every non-terminal cell the greedy action must be "move right".
        for pos in 0..3 {
            let mut state = vec![0.0; 4];
            state[pos] = 1.0;
            assert_eq!(trainer.greedy_action(&state), 1, "cell {pos}");
        }
    }

    #[test]
    fn observe_returns_loss_only_after_warmup() {
        let cfg = DqnConfig {
            warmup_transitions: 10,
            ..DqnConfig::quick()
        };
        let mut trainer = DqnTrainer::new(1, 2, cfg, 1);
        let t = Transition {
            state: vec![0.5],
            action: 1,
            reward: 1.0,
            next_state: vec![0.5],
            done: false,
        };
        for i in 0..9 {
            assert!(
                trainer.observe(t.clone()).is_none(),
                "no training before warmup (step {i})"
            );
        }
        assert!(trainer.observe(t).is_some());
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let run = |seed| {
            let mut env = ContextualBandit::new(2);
            let mut trainer =
                DqnTrainer::new(2, 2, DqnConfig::quick().with_iterations(2_000), seed);
            trainer.train(&mut env);
            trainer.policy().forward(&[1.0, 0.0])
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn select_action_is_random_under_full_exploration() {
        let cfg = DqnConfig {
            epsilon_start: 1.0,
            epsilon_end: 1.0,
            ..DqnConfig::quick()
        };
        let mut trainer = DqnTrainer::new(2, 4, cfg, 9);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[trainer.select_action(&[0.0, 0.0])] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all actions should be explored: {seen:?}"
        );
    }

    #[test]
    #[should_panic(expected = "state and action spaces")]
    fn zero_sized_spaces_are_rejected() {
        DqnTrainer::new(0, 2, DqnConfig::quick(), 0);
    }

    /// A deterministic stream of toy transitions for the counter tests.
    fn transition_stream(n: usize) -> Vec<Transition> {
        (0..n)
            .map(|i| Transition {
                state: vec![(i % 7) as f32 / 7.0],
                action: i % 2,
                reward: if i % 3 == 0 { 1.0 } else { 0.0 },
                next_state: vec![((i + 1) % 7) as f32 / 7.0],
                done: i % 5 == 4,
            })
            .collect()
    }

    #[test]
    fn observe_is_the_sequential_case_of_observe_at() {
        // Single-env regression: `observe` must stay bit-identical to
        // driving `observe_at` with a sequential 1-based counter.
        let cfg = DqnConfig {
            warmup_transitions: 16,
            target_sync_interval: 32,
            epsilon_decay_steps: 100,
            ..DqnConfig::quick()
        };
        let mut a = DqnTrainer::new(1, 2, cfg.clone(), 11);
        let mut b = DqnTrainer::new(1, 2, cfg, 11);
        for (i, t) in transition_stream(200).into_iter().enumerate() {
            let la = a.observe(t.clone());
            let lb = b.observe_at(t, i + 1);
            assert_eq!(la, lb, "loss diverged at step {i}");
        }
        assert_eq!(a.steps(), b.steps());
        assert_eq!(a.epsilon(), b.epsilon());
        assert_eq!(a.policy().forward(&[0.5]), b.policy().forward(&[0.5]));
    }

    #[test]
    fn global_counter_schedule_is_independent_of_env_attribution() {
        // Vectorized regression: the same global transition stream fed
        // through one shared counter produces the same epsilon / target-sync
        // schedule regardless of which environment each transition came
        // from (the counter is global, not per-trainer-per-env).
        let cfg = DqnConfig {
            warmup_transitions: 16,
            target_sync_interval: 32,
            epsilon_decay_steps: 100,
            ..DqnConfig::quick()
        };
        let stream = transition_stream(128);
        // "Two envs, interleaved": attribution alternates, but the farm
        // feeds one global counter.
        let mut farm = DqnTrainer::new(1, 2, cfg.clone(), 5);
        let mut global = 0usize;
        for t in &stream {
            global += 1;
            farm.observe_at(t.clone(), global);
        }
        // Reference: the plain single-env path over the identical stream.
        let mut single = DqnTrainer::new(1, 2, cfg, 5);
        for t in &stream {
            single.observe(t.clone());
        }
        assert_eq!(farm.steps(), single.steps());
        assert_eq!(farm.epsilon(), single.epsilon());
        assert_eq!(
            farm.policy().forward(&[0.25]),
            single.policy().forward(&[0.25])
        );
    }

    #[test]
    fn paper_default_matches_section_iv_b() {
        let cfg = DqnConfig::paper_default();
        assert_eq!(cfg.training_iterations, 200_000);
        assert_eq!(cfg.epsilon_decay_steps, 100_000);
        assert!((cfg.epsilon_start - 1.0).abs() < 1e-12);
        assert!((cfg.epsilon_end - 0.01).abs() < 1e-12);
        assert!((cfg.discount - 0.7).abs() < 1e-12);
        let _ = StdRng::seed_from_u64(0);
    }
}

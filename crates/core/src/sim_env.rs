//! [`SimEnvironment`]: the real simulator as an RL [`Environment`].
//!
//! The original Dimmer trained its DQN offline from recorded testbed traces;
//! this adapter closes the loop in-sim instead. It wraps a
//! [`RoundEngine`] — the full LWB round loop over a topology, an
//! interference model and an optional dynamic-world script — behind the
//! `dimmer-rl` [`Environment`] trait, so [`DqnTrainer::train`] and the
//! vectorized training farm (`dimmer_rl::farm`) can learn directly against
//! the simulator that also runs the paper's evaluation.
//!
//! One episode is a bounded number of LWB rounds over a freshly built
//! engine. The agent owns the `N_TX` decision completely: the engine is
//! driven by a private hold-only controller (never touching `N_TX` itself),
//! and every [`step`](SimEnvironment::step) applies the agent's
//! decrease/maintain/increase action via [`RoundEngine::force_ntx`] before
//! running the round. The per-round reward is the engine's Eq. 3 reward —
//! the same quantity the paper optimizes.
//!
//! Determinism: `reset` draws the engine seed and the initial `N_TX` from
//! the RNG the caller passes in, and everything else is a pure function of
//! the constructor inputs — the environment adds no hidden state, which is
//! what lets the farm's per-episode seed derivation make training
//! byte-reproducible for any worker count.
//!
//! [`DqnTrainer::train`]: dimmer_rl::DqnTrainer::train

use crate::action::AdaptivityAction;
use crate::config::DimmerConfig;
use crate::controller::{ControlDecision, Controller, RoundObservation};
use crate::engine::RoundEngine;
use dimmer_lwb::LwbConfig;
use dimmer_rl::{Environment, Step};
use dimmer_sim::{InterferenceModel, ScenarioScript, Topology};
use rand::rngs::StdRng;
use rand::Rng;

/// Episode length (in LWB rounds) used when none is configured: long enough
/// for multi-step `N_TX` trajectories, short enough that a training run
/// sees many distinct interference phases.
pub const DEFAULT_EPISODE_ROUNDS: usize = 60;

/// The engine-internal controller of a training environment: it never
/// touches `N_TX`, leaving the value most recently forced by the agent in
/// effect. (Deliberately not [`StaticNtxController`], which re-asserts its
/// own `N_TX` every round and would overwrite the agent's decision.)
///
/// [`StaticNtxController`]: crate::controller::StaticNtxController
#[derive(Debug, Clone, Copy, Default)]
struct HoldNtxController;

impl Controller for HoldNtxController {
    fn name(&self) -> &str {
        "hold"
    }

    fn observe(&mut self, _obs: &RoundObservation<'_>) -> ControlDecision {
        ControlDecision::Hold
    }
}

/// The full simulator as a training [`Environment`] (see the module docs).
///
/// # Examples
///
/// ```
/// use dimmer_core::SimEnvironment;
/// use dimmer_rl::Environment;
/// use dimmer_sim::{NoInterference, Topology};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let topo = Topology::kiel_testbed_18(3);
/// let mut env = SimEnvironment::new(&topo, &NoInterference).with_episode_rounds(5);
/// let mut rng = StdRng::seed_from_u64(7);
/// let state = env.reset(&mut rng);
/// assert_eq!(state.len(), env.state_dim());
/// let step = env.step(1, &mut rng); // maintain N_TX
/// assert!(step.reward > 0.0, "a loss-free round earns positive reward");
/// ```
pub struct SimEnvironment<'a> {
    topology: &'a Topology,
    interference: &'a dyn InterferenceModel,
    lwb: LwbConfig,
    config: DimmerConfig,
    script: ScenarioScript,
    episode_rounds: usize,
    engine: RoundEngine<'a, HoldNtxController>,
    ntx: u8,
    rounds_done: usize,
}

impl<'a> SimEnvironment<'a> {
    /// Creates a training environment over `topology` and `interference`
    /// with the default training configuration
    /// ([`SimEnvironment::training_config`]) and testbed LWB timing.
    pub fn new(topology: &'a Topology, interference: &'a dyn InterferenceModel) -> Self {
        Self::with_configs(
            topology,
            interference,
            LwbConfig::testbed_default(),
            Self::training_config(topology),
        )
    }

    /// Creates a training environment with explicit LWB and Dimmer
    /// configurations. `config.k_input_nodes` is clamped to the topology
    /// size so the Table-I state layout stays well-formed on small worlds.
    pub fn with_configs(
        topology: &'a Topology,
        interference: &'a dyn InterferenceModel,
        lwb: LwbConfig,
        mut config: DimmerConfig,
    ) -> Self {
        config.k_input_nodes = config.k_input_nodes.min(topology.num_nodes());
        let engine = RoundEngine::with_controller(
            topology,
            interference,
            lwb.clone(),
            config.clone(),
            HoldNtxController,
            0,
        );
        let ntx = config.initial_ntx.clamp(config.n_min, config.n_max);
        SimEnvironment {
            topology,
            interference,
            lwb,
            config,
            script: ScenarioScript::new(),
            episode_rounds: DEFAULT_EPISODE_ROUNDS,
            engine,
            ntx,
            rounds_done: 0,
        }
    }

    /// The default `DimmerConfig` for in-sim training: the paper's
    /// parameters with `K` clamped to the topology size and the forwarder
    /// selection disabled, so every reward is attributable to the agent's
    /// own `N_TX` decision rather than to concurrently learning bandits.
    pub fn training_config(topology: &Topology) -> DimmerConfig {
        let base = DimmerConfig::default();
        DimmerConfig {
            k_input_nodes: base.k_input_nodes.min(topology.num_nodes()),
            forwarder: crate::config::ForwarderConfig {
                enabled: false,
                ..base.forwarder
            },
            ..base
        }
    }

    /// Installs a dynamic-world scenario script replayed in every episode
    /// (churn waves, link drift, ...).
    pub fn with_script(mut self, script: ScenarioScript) -> Self {
        self.script = script;
        self
    }

    /// Overrides the episode length in LWB rounds.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero.
    pub fn with_episode_rounds(mut self, rounds: usize) -> Self {
        assert!(rounds > 0, "episodes must run at least one round");
        self.episode_rounds = rounds;
        self
    }

    /// The environment's Dimmer configuration (after clamping).
    pub fn config(&self) -> &DimmerConfig {
        &self.config
    }

    /// Episode length in LWB rounds.
    pub fn episode_rounds(&self) -> usize {
        self.episode_rounds
    }
}

impl Environment for SimEnvironment<'_> {
    fn state_dim(&self) -> usize {
        self.config.state_dim()
    }

    fn num_actions(&self) -> usize {
        AdaptivityAction::COUNT
    }

    fn reset(&mut self, rng: &mut StdRng) -> Vec<f32> {
        let seed: u64 = rng.gen();
        self.ntx = rng.gen_range(self.config.n_min..=self.config.n_max);
        self.engine = RoundEngine::with_controller(
            self.topology,
            self.interference,
            self.lwb.clone(),
            self.config.clone(),
            HoldNtxController,
            seed,
        )
        .with_world_script(self.script.clone());
        self.engine.force_ntx(self.ntx);
        self.ntx = self.engine.ntx();
        self.rounds_done = 0;
        self.engine.current_state()
    }

    fn step(&mut self, action: usize, _rng: &mut StdRng) -> Step {
        let next = AdaptivityAction::from_index(action).apply(
            self.ntx,
            self.config.n_min,
            self.config.n_max,
        );
        self.engine.force_ntx(next);
        let report = self.engine.run_round();
        self.ntx = self.engine.ntx();
        self.rounds_done += 1;
        Step {
            next_state: self.engine.current_state(),
            reward: report.reward as f32,
            done: self.rounds_done >= self.episode_rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimmer_sim::NoInterference;
    use rand::SeedableRng;

    fn env(topo: &Topology) -> SimEnvironment<'_> {
        SimEnvironment::new(topo, &NoInterference).with_episode_rounds(4)
    }

    #[test]
    fn dimensions_match_the_clamped_config() {
        let topo = Topology::kiel_testbed_18(3);
        let e = env(&topo);
        assert_eq!(e.num_actions(), 3);
        assert_eq!(e.state_dim(), e.config().state_dim());
        // Small world: K clamps to the node count.
        let small = Topology::line(4, 10.0, 1);
        let e = env(&small);
        assert_eq!(e.config().k_input_nodes, 4);
        assert_eq!(e.state_dim(), e.config().state_dim());
    }

    #[test]
    fn episodes_terminate_at_the_configured_round_count() {
        let topo = Topology::kiel_testbed_18(3);
        let mut e = env(&topo);
        let mut rng = StdRng::seed_from_u64(1);
        let state = e.reset(&mut rng);
        assert_eq!(state.len(), e.state_dim());
        for round in 1..=4 {
            let step = e.step(1, &mut rng);
            assert_eq!(step.done, round == 4, "round {round}");
            assert_eq!(step.next_state.len(), e.state_dim());
        }
    }

    #[test]
    fn actions_steer_ntx_within_bounds() {
        let topo = Topology::kiel_testbed_18(3);
        let mut e = env(&topo).with_episode_rounds(64);
        let mut rng = StdRng::seed_from_u64(2);
        e.reset(&mut rng);
        // Hammer "increase": N_TX saturates at n_max and the engine holds it.
        for _ in 0..12 {
            e.step(AdaptivityAction::Increase.index(), &mut rng);
        }
        assert_eq!(e.ntx, e.config().n_max);
        // Hammer "decrease": saturates at n_min.
        for _ in 0..12 {
            e.step(AdaptivityAction::Decrease.index(), &mut rng);
        }
        assert_eq!(e.ntx, e.config().n_min);
    }

    #[test]
    fn reset_is_deterministic_in_the_caller_rng() {
        let topo = Topology::kiel_testbed_18(3);
        let run = || {
            let mut e = env(&topo);
            let mut rng = StdRng::seed_from_u64(9);
            let s0 = e.reset(&mut rng);
            let mut rewards = Vec::new();
            for a in [2, 2, 1, 0] {
                rewards.push(e.step(a, &mut rng).reward);
            }
            (s0, rewards)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn loss_free_rounds_earn_positive_reward() {
        let topo = Topology::kiel_testbed_18(3);
        let mut e = env(&topo);
        let mut rng = StdRng::seed_from_u64(3);
        e.reset(&mut rng);
        let step = e.step(AdaptivityAction::Maintain.index(), &mut rng);
        assert!(step.reward > 0.0, "reward: {}", step.reward);
    }
}

//! The trace-driven training environment.
//!
//! States are Table-I vectors built from the recorded per-node feedback for
//! the currently selected `N_TX`; actions move `N_TX` by at most one step;
//! rewards follow Eq. 3. Each episode walks a random contiguous stretch of
//! the trace, so the agent experiences calm periods, interference onsets and
//! recoveries in their recorded order.
//!
//! Crucially, the agent does **not** observe the recorded ground truth
//! directly. The deployed coordinator sees sliding-window
//! [`dimmer_core::NodeStats`] averages, delivered only when a node's data
//! flood actually reaches it and decaying to pessimistic values when stale
//! ([`GlobalView`]). Training must
//! therefore route the recorded outcomes through the very same
//! stats-collector → lossy-delivery → global-view pipeline; otherwise the
//! DQN is trained on instantaneous, fully observed states it will never
//! encounter in the protocol loop and behaves erratically under sustained
//! interference.

use crate::dataset::TraceDataset;
use dimmer_core::{
    reward, AdaptivityAction, DimmerConfig, GlobalView, StateBuilder, StatisticsCollector,
    DEFAULT_STATS_WINDOW,
};
use dimmer_rl::{Environment, Step};
use dimmer_sim::{NodeId, SimDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A [`dimmer_rl::Environment`] backed by a [`TraceDataset`].
///
/// # Examples
///
/// ```
/// use dimmer_traces::{TraceCollector, TraceEnvironment};
/// use dimmer_core::DimmerConfig;
/// use dimmer_rl::Environment;
/// use dimmer_sim::Topology;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let topo = Topology::kiel_testbed_18(1);
/// let dataset = TraceCollector::new(&topo, 7).collect(30);
/// let mut env = TraceEnvironment::new(dataset, DimmerConfig::default(), 3);
/// let mut rng = StdRng::seed_from_u64(0);
/// let state = env.reset(&mut rng);
/// assert_eq!(state.len(), 31);
/// let step = env.step(2, &mut rng); // "increase"
/// assert!(step.reward >= 0.0 && step.reward <= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct TraceEnvironment {
    dataset: TraceDataset,
    config: DimmerConfig,
    episode_length: usize,
    position: usize,
    steps_in_episode: usize,
    ntx: u8,
    state_builder: StateBuilder,
    /// Per-node sliding-window statistics, exactly as each device keeps them.
    stats: StatisticsCollector,
    /// The coordinator's (possibly stale) aggregate of received feedback.
    view: GlobalView,
    /// Index of the coordinator node within the recorded deployment (node 0
    /// in both testbed topologies).
    coordinator: usize,
    rng: StdRng,
}

impl TraceEnvironment {
    /// Creates an environment over `dataset`.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or its `N_max` differs from the
    /// configuration's.
    pub fn new(dataset: TraceDataset, config: DimmerConfig, seed: u64) -> Self {
        assert!(!dataset.is_empty(), "cannot train on an empty trace");
        assert_eq!(
            dataset.n_max(),
            config.n_max,
            "dataset and config disagree on N_max"
        );
        let num_nodes = dataset.num_nodes();
        TraceEnvironment {
            episode_length: 100,
            position: 0,
            steps_in_episode: 0,
            ntx: config.initial_ntx,
            state_builder: StateBuilder::new(config.clone()),
            stats: StatisticsCollector::new(num_nodes, DEFAULT_STATS_WINDOW),
            view: GlobalView::new(num_nodes),
            coordinator: 0,
            rng: StdRng::seed_from_u64(seed),
            dataset,
            config,
        }
    }

    /// Overrides the episode length (the paper evaluates 100-decision
    /// episodes).
    pub fn with_episode_length(mut self, length: usize) -> Self {
        self.episode_length = length.max(1);
        self
    }

    /// The `N_TX` currently applied by the agent.
    pub fn current_ntx(&self) -> u8 {
        self.ntx
    }

    /// The dataset backing the environment.
    pub fn dataset(&self) -> &TraceDataset {
        &self.dataset
    }

    /// Routes the recorded outcome at `position` (under the current `N_TX`)
    /// through the coordinator's observation pipeline, mirroring
    /// `RoundEngine::run_round` step by step: nodes share the feedback they
    /// computed *before* this round, a node's feedback only reaches the
    /// coordinator if its data flood did, and undelivered entries age towards
    /// pessimistic values.
    fn ingest_round(&mut self) {
        let sample = self.dataset.sample(self.position % self.dataset.len());
        let outcome = sample.outcome(self.ntx);
        let feedback_before = self.stats.feedback();

        // Every node records its own view of the round.
        for i in 0..self.dataset.num_nodes() {
            self.stats.node_mut(NodeId(i as u16)).record_round(
                outcome.reliabilities[i],
                SimDuration::from_micros(outcome.radio_on_us[i]),
            );
        }

        // A node's piggybacked feedback reaches the coordinator only if its
        // data-slot flood did. The trace does not keep per-slot reception, so
        // delivery is Bernoulli with the coordinator's recorded reception
        // ratio for this round; the coordinator always hears itself.
        let delivery_prob = outcome.reliabilities[self.coordinator].clamp(0.0, 1.0);
        for (i, fb) in feedback_before.iter().enumerate() {
            if i == self.coordinator || self.rng.gen::<f64>() < delivery_prob {
                self.view.update(NodeId(i as u16), *fb);
            }
        }
        self.view.mark_round();
    }

    fn observe(&self) -> Vec<f32> {
        self.state_builder.build(&self.view, self.ntx)
    }
}

impl Environment for TraceEnvironment {
    fn state_dim(&self) -> usize {
        self.config.state_dim()
    }

    fn num_actions(&self) -> usize {
        AdaptivityAction::COUNT
    }

    fn reset(&mut self, rng: &mut StdRng) -> Vec<f32> {
        self.position = rng.gen_range(0..self.dataset.len());
        self.steps_in_episode = 0;
        self.ntx = rng.gen_range(self.config.n_min..=self.config.n_max);
        self.state_builder = StateBuilder::new(self.config.clone());
        // Fresh deployment state: empty statistics windows and an
        // all-pessimistic view, exactly like a freshly started coordinator.
        self.stats = StatisticsCollector::new(self.dataset.num_nodes(), DEFAULT_STATS_WINDOW);
        self.view = GlobalView::new(self.dataset.num_nodes());
        // Seed the history and the view with the current sample's outcome.
        let had_losses = !self
            .dataset
            .sample(self.position)
            .outcome(self.ntx)
            .loss_free();
        self.state_builder.record_history(had_losses);
        self.ingest_round();
        self.observe()
    }

    fn step(&mut self, action: usize, _rng: &mut StdRng) -> Step {
        let action = AdaptivityAction::from_index(action);
        self.ntx = action.apply(self.ntx, self.config.n_min, self.config.n_max);
        self.position = (self.position + 1) % self.dataset.len();
        self.steps_in_episode += 1;

        let outcome = self.dataset.sample(self.position).outcome(self.ntx);
        let r = reward(
            outcome.loss_free(),
            self.ntx,
            self.config.n_max,
            self.config.reward_c,
        );
        let loss_free = outcome.loss_free();
        self.ingest_round();
        self.state_builder.record_history(!loss_free);
        let next_state = self.observe();
        Step {
            next_state,
            reward: r as f32,
            done: self.steps_in_episode >= self.episode_length,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::TraceCollector;
    use dimmer_sim::Topology;

    fn env(rounds: usize, episode: usize) -> TraceEnvironment {
        let topo = Topology::kiel_testbed_18(4);
        let ds = TraceCollector::new(&topo, 11)
            .with_sweep(vec![0.0, 0.30], 3)
            .collect(rounds);
        TraceEnvironment::new(ds, DimmerConfig::default(), 5).with_episode_length(episode)
    }

    #[test]
    fn state_dimension_matches_table_1() {
        let e = env(6, 10);
        assert_eq!(e.state_dim(), 31);
        assert_eq!(e.num_actions(), 3);
    }

    #[test]
    fn episodes_terminate_at_the_configured_length() {
        let mut e = env(6, 4);
        let mut rng = StdRng::seed_from_u64(0);
        e.reset(&mut rng);
        let mut dones = 0;
        for i in 1..=8 {
            let s = e.step(1, &mut rng);
            if s.done {
                dones += 1;
                assert_eq!(i % 4, 0, "episode should end every 4 steps");
                e.reset(&mut rng);
            }
        }
        assert_eq!(dones, 2);
    }

    #[test]
    fn actions_move_ntx_incrementally_and_stay_in_range() {
        let mut e = env(6, 50);
        let mut rng = StdRng::seed_from_u64(1);
        e.reset(&mut rng);
        let mut last = e.current_ntx();
        for i in 0..30 {
            e.step(i % 3, &mut rng);
            let now = e.current_ntx();
            assert!((now as i16 - last as i16).abs() <= 1);
            assert!((1..=8).contains(&now));
            last = now;
        }
    }

    #[test]
    fn rewards_follow_eq_3() {
        let mut e = env(10, 50);
        let mut rng = StdRng::seed_from_u64(2);
        e.reset(&mut rng);
        for _ in 0..20 {
            let before_position = (e.position + 1) % e.dataset.len();
            let action = 1; // maintain
            let ntx_after = AdaptivityAction::from_index(action).apply(e.current_ntx(), 1, 8);
            let expected_outcome = e.dataset.sample(before_position).outcome(ntx_after);
            let expected = reward(expected_outcome.loss_free(), ntx_after, 8, 0.3) as f32;
            let step = e.step(action, &mut rng);
            assert!((step.reward - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn states_are_always_normalized() {
        let mut e = env(8, 30);
        let mut rng = StdRng::seed_from_u64(3);
        let mut state = e.reset(&mut rng);
        for i in 0..40 {
            assert!(state.iter().all(|v| (-1.0..=1.0).contains(v)));
            let step = e.step(i % 3, &mut rng);
            state = if step.done {
                e.reset(&mut rng)
            } else {
                step.next_state
            };
        }
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_dataset_is_rejected() {
        let ds = TraceDataset::new(2, 8, vec![]);
        TraceEnvironment::new(ds, DimmerConfig::default(), 0);
    }

    /// Regression test: the agent must observe through the coordinator's
    /// stats/view pipeline, not the recorded ground truth. Training on
    /// instantaneous fully-observed states made the deployed policy collapse
    /// to `N_TX = 1` under sustained jamming (states the DQN had never seen).
    #[test]
    fn observations_are_windowed_and_decay_not_instantaneous() {
        use crate::dataset::{NtxOutcome, TraceSample};

        let nodes = 3;
        let sample = |rels: [f64; 3], losses: usize| TraceSample {
            outcomes: (0..=8)
                .map(|_| NtxOutcome {
                    reliabilities: rels.to_vec(),
                    radio_on_us: vec![5_000; nodes],
                    losses,
                })
                .collect(),
            interference_ratio: if losses > 0 { 0.35 } else { 0.0 },
        };
        // Two calm rounds, then sustained jamming in which even the
        // coordinator (node 0) receives nothing.
        let mut samples = vec![sample([1.0, 1.0, 1.0], 0); 2];
        samples.extend((0..8).map(|_| sample([0.0, 0.2, 0.2], 50)));
        let ds = TraceDataset::new(nodes, 8, samples);

        let cfg = DimmerConfig::default().with_k_input_nodes(nodes);
        let mut env = TraceEnvironment::new(ds, cfg, 1).with_episode_length(50);
        let mut rng = StdRng::seed_from_u64(0);
        env.reset(&mut rng);
        // Restart deterministically on the calm sample with fresh stats (the
        // reset above may have landed anywhere in the trace).
        env.position = 0;
        env.stats = StatisticsCollector::new(nodes, DEFAULT_STATS_WINDOW);
        env.view = GlobalView::new(nodes);

        // A calm step populates the view with healthy feedback.
        let calm = env.step(1, &mut rng);
        assert!(calm.next_state[3..6].iter().all(|&r| r > 0.5));

        // First jammed step: the ground truth collapses to 0.2 immediately,
        // but the coordinator can only see feedback computed *before* the
        // round — the reliability rows (indices 3..6 for K = 3) must still
        // look healthy, not like the instantaneous truth (which would
        // normalize to -1).
        let step = env.step(1, &mut rng);
        assert_eq!(step.reward, 0.0, "lossy rounds earn zero reward");
        assert!(
            step.next_state[3..6].iter().all(|&r| r > 0.5),
            "feedback must lag one round behind the truth: {:?}",
            &step.next_state[3..6]
        );

        // Under sustained total blackout the non-coordinator entries must
        // age past the staleness limit and decay to pessimistic (-1), which
        // is what the deployed coordinator would see.
        let mut state = step.next_state;
        for _ in 0..5 {
            state = env.step(1, &mut rng).next_state;
        }
        let pessimistic = state[3..6].iter().filter(|&&r| r == -1.0).count();
        assert!(
            pessimistic >= 2,
            "stale entries must decay to pessimistic under blackout: {:?}",
            &state[3..6]
        );
    }
}

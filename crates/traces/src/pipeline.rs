//! The end-to-end offline training pipeline:
//! collect traces → trace environment → DQN training → quantized policy.

use crate::dataset::TraceDataset;
use crate::env::TraceEnvironment;
use dimmer_core::{AdaptivityPolicy, DimmerConfig};
use dimmer_neural::Mlp;
use dimmer_rl::{DqnConfig, DqnTrainer};

/// Summary of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingReport {
    /// Number of trace samples used for training.
    pub training_samples: usize,
    /// Number of environment interactions performed.
    pub iterations: usize,
    /// Average reward per step over the final 10 % of training.
    pub tail_reward: f32,
    /// The trained floating-point policy.
    pub policy: Mlp,
}

impl TrainingReport {
    /// The trained policy, quantized for embedded execution.
    pub fn quantized_policy(&self) -> AdaptivityPolicy {
        AdaptivityPolicy::from_mlp(&self.policy)
    }
}

/// Trains a DQN policy on an existing trace dataset.
///
/// # Examples
///
/// ```
/// use dimmer_traces::{TraceCollector, train_policy};
/// use dimmer_core::DimmerConfig;
/// use dimmer_rl::DqnConfig;
/// use dimmer_sim::Topology;
///
/// let topo = Topology::kiel_testbed_18(1);
/// let traces = TraceCollector::new(&topo, 2).collect(30);
/// let report = train_policy(&traces, &DimmerConfig::default(),
///                           &DqnConfig::quick().with_iterations(1_000), 7);
/// assert_eq!(report.iterations, 1_000);
/// ```
pub fn train_policy(
    dataset: &TraceDataset,
    dimmer: &DimmerConfig,
    dqn: &DqnConfig,
    seed: u64,
) -> TrainingReport {
    let mut env = TraceEnvironment::new(dataset.clone(), dimmer.clone(), seed ^ 0xE0);
    let mut trainer = DqnTrainer::new(
        dimmer.state_dim(),
        dimmer_core::AdaptivityAction::COUNT,
        dqn.clone(),
        seed,
    );
    let tail_reward = trainer.train(&mut env);
    TrainingReport {
        training_samples: dataset.len(),
        iterations: dqn.training_iterations,
        tail_reward,
        policy: trainer.into_policy(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::TraceCollector;
    use dimmer_core::{AdaptivityController, GlobalView, StateBuilder};
    use dimmer_sim::Topology;

    #[test]
    fn training_produces_a_table_1_compatible_policy() {
        let topo = Topology::kiel_testbed_18(2);
        let traces = TraceCollector::new(&topo, 3)
            .with_sweep(vec![0.0, 0.30], 3)
            .collect(24);
        let cfg = DimmerConfig::default();
        let report = train_policy(&traces, &cfg, &DqnConfig::quick().with_iterations(2_000), 5);
        assert_eq!(report.policy.num_inputs(), 31);
        assert_eq!(report.policy.num_outputs(), 3);
        // The quantized controller must be executable on Table-I states.
        let controller = AdaptivityController::new(report.quantized_policy(), cfg.clone());
        let state = StateBuilder::new(cfg).build(&GlobalView::new(18), 3);
        let _ = controller.decide(&state);
    }

    #[test]
    fn longer_training_does_not_reduce_tail_reward_dramatically() {
        // Smoke test for convergence: the tail reward of a longer run should
        // be at least comparable to a very short run on the same traces.
        let topo = Topology::kiel_testbed_18(2);
        let traces = TraceCollector::new(&topo, 9)
            .with_sweep(vec![0.0, 0.25], 4)
            .collect(24);
        let cfg = DimmerConfig::default();
        let short = train_policy(&traces, &cfg, &DqnConfig::quick().with_iterations(500), 1);
        let long = train_policy(&traces, &cfg, &DqnConfig::quick().with_iterations(6_000), 1);
        assert!(
            long.tail_reward >= short.tail_reward - 0.15,
            "long run {} should not be far below short run {}",
            long.tail_reward,
            short.tail_reward
        );
    }
}

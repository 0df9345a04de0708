//! Central adaptivity control: the policy executed by the coordinator at the
//! end of every round.
//!
//! The paper's policy is an embedded, quantized deep Q-network. For
//! comparison and as a bootstrap fallback this module also provides a simple
//! rule-based policy (increase on losses, decrease after a calm streak),
//! which is the kind of hand-crafted controller Dimmer argues against but is
//! useful before a DQN has been trained.

use crate::action::AdaptivityAction;
use crate::config::DimmerConfig;
use dimmer_neural::{Mlp, QuantizedNetwork};

/// The decision function used by the [`AdaptivityController`].
#[derive(Debug, Clone)]
pub enum AdaptivityPolicy {
    /// The paper's embedded DQN: fixed-point, integer-only inference.
    Quantized(QuantizedNetwork),
    /// A hand-written rule: increase on any sign of losses, decrease after a
    /// sustained calm period, otherwise maintain.
    RuleBased,
}

impl AdaptivityPolicy {
    /// The rule-based fallback policy.
    pub fn rule_based() -> Self {
        AdaptivityPolicy::RuleBased
    }

    /// Quantizes a trained floating-point network into the embedded form.
    pub fn from_mlp(mlp: &Mlp) -> Self {
        AdaptivityPolicy::Quantized(QuantizedNetwork::from_mlp(mlp))
    }

    /// Returns `true` for the neural policies.
    pub fn is_learned(&self) -> bool {
        !matches!(self, AdaptivityPolicy::RuleBased)
    }
}

/// Executes the adaptivity policy over Table-I state vectors.
///
/// # Examples
///
/// ```
/// use dimmer_core::{AdaptivityController, AdaptivityPolicy, DimmerConfig, StateBuilder, GlobalView};
/// let cfg = DimmerConfig::default();
/// let controller = AdaptivityController::new(AdaptivityPolicy::rule_based(), cfg.clone());
/// let state = StateBuilder::new(cfg).build(&GlobalView::new(18), 3);
/// let action = controller.decide(&state);
/// // A pessimistic (all-unknown) view asks for more retransmissions.
/// assert_eq!(action, dimmer_core::AdaptivityAction::Increase);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptivityController {
    policy: AdaptivityPolicy,
    config: DimmerConfig,
}

impl AdaptivityController {
    /// Creates a controller executing `policy` under `config`.
    pub fn new(policy: AdaptivityPolicy, config: DimmerConfig) -> Self {
        AdaptivityController { policy, config }
    }

    /// The wrapped policy.
    pub fn policy(&self) -> &AdaptivityPolicy {
        &self.policy
    }

    /// The configuration (defines the state-vector layout).
    pub fn config(&self) -> &DimmerConfig {
        &self.config
    }

    /// Flash footprint of the policy in bytes (0 for the rule-based policy).
    pub fn flash_size_bytes(&self) -> usize {
        match &self.policy {
            AdaptivityPolicy::Quantized(q) => q.flash_size_bytes(),
            AdaptivityPolicy::RuleBased => 0,
        }
    }

    /// Decides the next adaptivity action from a Table-I state vector.
    ///
    /// # Panics
    ///
    /// Panics if the state length does not match the configuration, or (for
    /// neural policies) the network's input size.
    pub fn decide(&self, state: &[f32]) -> AdaptivityAction {
        assert_eq!(
            state.len(),
            self.config.state_dim(),
            "state layout mismatch"
        );
        match &self.policy {
            AdaptivityPolicy::Quantized(q) => AdaptivityAction::from_index(q.argmax_f32(state)),
            AdaptivityPolicy::RuleBased => self.rule_based_decision(state),
        }
    }

    /// The hand-crafted rule: increase if any of the K reported
    /// reliabilities is clearly degraded (< 90 %) or the history window saw
    /// losses; otherwise decrease to probe for energy savings — the classic
    /// overshooting rate-control behaviour the paper contrasts Dimmer with.
    fn rule_based_decision(&self, state: &[f32]) -> AdaptivityAction {
        let k = self.config.k_input_nodes;
        let reliabilities = &state[k..2 * k];
        let history_start = 2 * k + self.config.n_max as usize + 1;
        let history = &state[history_start..];
        let worst_reliability = reliabilities.iter().copied().fold(f32::INFINITY, f32::min);
        let had_recent_losses = history.iter().any(|&h| h < 0.0);
        // Table I maps 90 % reliability to 0.6 on the normalized scale.
        if worst_reliability < 0.6 || had_recent_losses {
            AdaptivityAction::Increase
        } else {
            AdaptivityAction::Decrease
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::FeedbackHeader;
    use crate::state::StateBuilder;
    use crate::stats::GlobalView;
    use dimmer_sim::{NodeId, SimDuration};

    fn perfect_view(n: usize) -> GlobalView {
        let mut v = GlobalView::new(n);
        for i in 0..n {
            v.update(
                NodeId(i as u16),
                FeedbackHeader::new(1.0, SimDuration::from_millis(8)),
            );
        }
        v
    }

    #[test]
    fn rule_based_increases_under_losses() {
        let cfg = DimmerConfig::default();
        let controller = AdaptivityController::new(AdaptivityPolicy::rule_based(), cfg.clone());
        let mut view = perfect_view(18);
        view.update(
            NodeId(3),
            FeedbackHeader::new(0.7, SimDuration::from_millis(15)),
        );
        let state = StateBuilder::new(cfg).build(&view, 3);
        assert_eq!(controller.decide(&state), AdaptivityAction::Increase);
    }

    #[test]
    fn rule_based_decreases_when_everything_is_perfect() {
        let cfg = DimmerConfig::default();
        let controller = AdaptivityController::new(AdaptivityPolicy::rule_based(), cfg.clone());
        let state = StateBuilder::new(cfg).build(&perfect_view(18), 5);
        assert_eq!(controller.decide(&state), AdaptivityAction::Decrease);
    }

    #[test]
    fn rule_based_reacts_to_history_losses() {
        let cfg = DimmerConfig::default();
        let controller = AdaptivityController::new(AdaptivityPolicy::rule_based(), cfg.clone());
        let mut builder = StateBuilder::new(cfg);
        builder.record_history(true);
        let state = builder.build(&perfect_view(18), 5);
        assert_eq!(controller.decide(&state), AdaptivityAction::Increase);
    }

    #[test]
    fn neural_policies_produce_valid_actions() {
        let cfg = DimmerConfig::default();
        let mlp = Mlp::new(&[cfg.state_dim(), 30, 3], 9);
        let state = StateBuilder::new(cfg.clone()).build(&perfect_view(18), 3);
        let quant = AdaptivityController::new(AdaptivityPolicy::from_mlp(&mlp), cfg);
        assert!(AdaptivityAction::ALL.contains(&quant.decide(&state)));
    }

    #[test]
    fn flash_size_reflects_policy_kind() {
        let cfg = DimmerConfig::default();
        let mlp = Mlp::new(&[cfg.state_dim(), 30, 3], 1);
        let rule = AdaptivityController::new(AdaptivityPolicy::rule_based(), cfg.clone());
        let quant = AdaptivityController::new(AdaptivityPolicy::from_mlp(&mlp), cfg);
        assert_eq!(rule.flash_size_bytes(), 0);
        assert_eq!(quant.flash_size_bytes(), 2106);
        assert!(quant.policy().is_learned());
        assert!(!rule.policy().is_learned());
    }

    #[test]
    #[should_panic(expected = "state layout mismatch")]
    fn wrong_state_size_is_rejected() {
        let cfg = DimmerConfig::default();
        let controller = AdaptivityController::new(AdaptivityPolicy::rule_based(), cfg);
        controller.decide(&[0.0; 5]);
    }
}

//! A pre-trained adaptivity policy shipped with the repository.
//!
//! The paper trains its DQN offline on traces collected from the 18-node
//! testbed and then flashes the quantized weights onto the motes. This module
//! plays the same role: `crates/core/data/pretrained_dqn.txt` contains the
//! weights produced by the `dimmer-traces` training pipeline (see
//! `examples/train_dqn.rs`), committed to the repository so examples and
//! benchmarks do not have to retrain. If the embedded file is missing or
//! malformed the loader falls back to the rule-based policy so the protocol
//! stays operational.

use crate::adaptivity::AdaptivityPolicy;
use dimmer_neural::serialize::from_text;

/// The text of the embedded pre-trained network.
pub const PRETRAINED_DQN_TEXT: &str = include_str!("../data/pretrained_dqn.txt");

/// Loads the pre-trained, quantized DQN policy shipped with the crate,
/// falling back to [`AdaptivityPolicy::RuleBased`] if the embedded weights
/// cannot be parsed.
///
/// # Examples
///
/// ```
/// use dimmer_core::pretrained::pretrained_policy;
/// let policy = pretrained_policy();
/// // Either the shipped DQN or the rule-based fallback; both are usable.
/// let _ = policy.is_learned();
/// ```
pub fn pretrained_policy() -> AdaptivityPolicy {
    match from_text(PRETRAINED_DQN_TEXT) {
        Ok(mlp) => AdaptivityPolicy::from_mlp(&mlp),
        Err(_) => AdaptivityPolicy::rule_based(),
    }
}

/// Returns `true` if the repository ships trained weights (as opposed to the
/// rule-based fallback).
pub fn has_pretrained_weights() -> bool {
    from_text(PRETRAINED_DQN_TEXT).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DimmerConfig;

    #[test]
    fn pretrained_policy_is_always_usable() {
        let policy = pretrained_policy();
        match policy {
            AdaptivityPolicy::Quantized(ref q) => {
                // If weights are shipped they must match the Table-I layout.
                assert_eq!(q.num_inputs(), DimmerConfig::default().state_dim());
                assert_eq!(q.num_outputs(), 3);
            }
            AdaptivityPolicy::RuleBased => {
                assert!(!has_pretrained_weights());
            }
        }
    }

    #[test]
    fn flag_matches_policy_kind() {
        assert_eq!(has_pretrained_weights(), pretrained_policy().is_learned());
    }
}

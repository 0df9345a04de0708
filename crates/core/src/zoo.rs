//! The policy zoo: per-scenario-family DQN policies plus the EXP3
//! meta-controller that selects among them online.
//!
//! A single DQN trained under one interference regime generalizes only so
//! far; the zoo attacks the problem from the other side. The in-sim
//! training farm (`dimmer_rl::farm` + [`SimEnvironment`]) trains one policy
//! per scenario *family* — the four `train:<family>` grids — and this
//! module embeds the resulting weights (committed under
//! `crates/core/data/zoo/`, regenerated by `examples/train_zoo.rs`):
//!
//! * `calm` — interference-free static world,
//! * `jammed` — stationary duty-cycled jammer,
//! * `churn-storm` — node failure/rejoin waves,
//! * `roaming-jammer` — a jammer moving through the deployment.
//!
//! At runtime the [`ZooController`] treats the family policies as arms of
//! an adversarial [`Exp3`] bandit: each stats window it credits the active
//! arm with the window's mean Eq. 3 reward, and — under a win-stay,
//! lose-shift overlay — redraws the arm only when the window saw losses,
//! so the protocol migrates to whichever specialist currently fits the
//! observed world without paying exploration rounds where the incumbent
//! demonstrably suffices, and without ever being told which scenario it is
//! in. A lossy round additionally arms a **recovery shield**: `N_TX`
//! saturates to `n_max` for one full window while the bandit re-selects —
//! the meta-level reflex that lets the zoo beat even its own best fixed
//! arm on reliability, because a fixed policy must *predict* stress while
//! the shield merely has to *react* to it.
//!
//! Arm selection *exploits* the EXP3 distribution's mode instead of
//! sampling it: a sampled draw buys adversarial regret bounds with
//! exploration rounds, and here an exploration round is a real flood run
//! by a mismatched specialist. The result is a fully deterministic
//! meta-controller — no RNG anywhere — and since the shield (like the
//! rest of the meta-machinery) only engages with two or more arms, a
//! single-arm zoo is byte-identical to running that arm's policy directly
//! (pinned by `tests/tests/engine_equivalence.rs`).
//!
//! Missing or malformed weight files degrade to the rule-based fallback per
//! arm, exactly like [`pretrained`](crate::pretrained) does for the single
//! shipped DQN.
//!
//! [`SimEnvironment`]: crate::sim_env::SimEnvironment

use crate::adaptivity::{AdaptivityController, AdaptivityPolicy};
use crate::config::DimmerConfig;
use crate::controller::{ControlDecision, Controller, RoundObservation};
use crate::reward::reward;
use crate::stats::DEFAULT_STATS_WINDOW;
use dimmer_neural::serialize::from_text;
use dimmer_rl::Exp3;

/// The scenario families the zoo is trained on, in arm order. These are the
/// four `train:<family>` grids.
pub const ZOO_FAMILIES: [&str; 4] = ["calm", "jammed", "churn-storm", "roaming-jammer"];

/// Default EXP3 exploration factor of the meta-controller. Small on
/// purpose: exploration rounds run a mismatched specialist, so their cost
/// is real reliability, not just regret on paper.
pub const ZOO_GAMMA: f64 = 0.1;

const CALM_TEXT: &str = include_str!("../data/zoo/calm.txt");
const JAMMED_TEXT: &str = include_str!("../data/zoo/jammed.txt");
const CHURN_STORM_TEXT: &str = include_str!("../data/zoo/churn-storm.txt");
const ROAMING_JAMMER_TEXT: &str = include_str!("../data/zoo/roaming-jammer.txt");

/// The embedded weight text of one zoo family (`None` for unknown names).
pub fn zoo_text(family: &str) -> Option<&'static str> {
    match family {
        "calm" => Some(CALM_TEXT),
        "jammed" => Some(JAMMED_TEXT),
        "churn-storm" => Some(CHURN_STORM_TEXT),
        "roaming-jammer" => Some(ROAMING_JAMMER_TEXT),
        _ => None,
    }
}

/// Loads one family's policy for `config`, falling back to
/// [`AdaptivityPolicy::RuleBased`] when the family is unknown, the embedded
/// text does not parse, or the network's input layer does not match
/// `config.state_dim()` (e.g. a registry run on a small topology that
/// clamped `K`).
pub fn zoo_policy(family: &str, config: &DimmerConfig) -> AdaptivityPolicy {
    let Some(text) = zoo_text(family) else {
        return AdaptivityPolicy::rule_based();
    };
    match from_text(text) {
        Ok(mlp) if mlp.num_inputs() == config.state_dim() => AdaptivityPolicy::from_mlp(&mlp),
        _ => AdaptivityPolicy::rule_based(),
    }
}

/// Returns `true` if the repository ships trained weights for `family`.
pub fn has_zoo_weights(family: &str) -> bool {
    zoo_text(family).is_some_and(|text| from_text(text).is_ok())
}

/// Returns `true` if every family in [`ZOO_FAMILIES`] has trained weights.
pub fn has_full_zoo() -> bool {
    ZOO_FAMILIES.iter().all(|f| has_zoo_weights(f))
}

/// The `dimmer-zoo` protocol: per-family specialist policies selected
/// online by an EXP3 meta-controller (see the module docs).
///
/// # Examples
///
/// ```
/// use dimmer_core::zoo::ZooController;
/// use dimmer_core::{Controller, DimmerConfig};
///
/// let zoo = ZooController::standard(DimmerConfig::default());
/// assert_eq!(zoo.name(), "dimmer-zoo");
/// assert_eq!(zoo.num_arms(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ZooController {
    arms: Vec<AdaptivityController>,
    exp3: Exp3,
    active: usize,
    last_prob: f64,
    window: usize,
    rounds_in_window: usize,
    reward_sum: f64,
    window_losses: usize,
    /// Remaining rounds of the loss-triggered recovery shield (see
    /// [`Controller::observe`]); zero when control is with the active arm.
    shield_rounds: usize,
    /// Current shield hold duration. Starts at one window and doubles
    /// (capped) whenever a loss follows shortly after a shield expired —
    /// persistent stress earns exponentially longer saturation, so probing
    /// the specialist costs O(log) exposure rounds instead of O(n).
    shield_hold: usize,
    /// Rounds since the last lossy observation (saturates).
    rounds_since_loss: usize,
    config: DimmerConfig,
}

impl ZooController {
    /// Creates a zoo over explicit arm policies.
    ///
    /// # Panics
    ///
    /// Panics if `policies` is empty, `window` is zero, or `gamma` is
    /// outside `(0, 1]` (forwarded from [`Exp3::new`]).
    pub fn new(
        policies: Vec<AdaptivityPolicy>,
        config: DimmerConfig,
        window: usize,
        gamma: f64,
    ) -> Self {
        assert!(!policies.is_empty(), "the zoo needs at least one policy");
        assert!(window > 0, "the stats window must be positive");
        let exp3 = Exp3::new(policies.len(), gamma);
        // Start on the *last* arm — by convention the defensive prior (the
        // standard zoo orders arms calm → roaming-jammer, least to most
        // defensive). A reactive controller pays a detection loss on its
        // first contact with stress; opening defensively makes the opening
        // free and lets the lose-shift bandit migrate toward cheaper
        // specialists only once a window of evidence exists.
        let active = policies.len() - 1;
        let last_prob = exp3.probabilities()[active];
        let arms = policies
            .into_iter()
            .map(|p| AdaptivityController::new(p, config.clone()))
            .collect();
        ZooController {
            arms,
            exp3,
            active,
            last_prob,
            window,
            rounds_in_window: 0,
            reward_sum: 0.0,
            window_losses: 0,
            shield_rounds: 0,
            shield_hold: window,
            rounds_since_loss: usize::MAX,
            config,
        }
    }

    /// The standard zoo: one arm per [`ZOO_FAMILIES`] entry, selected over
    /// the engine's stats window with [`ZOO_GAMMA`] exploration.
    pub fn standard(config: DimmerConfig) -> Self {
        let policies = ZOO_FAMILIES
            .iter()
            .map(|family| zoo_policy(family, &config))
            .collect();
        Self::new(policies, config, DEFAULT_STATS_WINDOW, ZOO_GAMMA)
    }

    /// The arm a lose-shift redraw selects: the mode of the EXP3
    /// distribution, ties broken toward the higher (more defensive) index.
    fn exploit_arm(exp3: &Exp3) -> (usize, f64) {
        let probs = exp3.probabilities();
        let mut best = 0;
        for (arm, &p) in probs.iter().enumerate() {
            if p >= probs[best] {
                best = arm;
            }
        }
        (best, probs[best])
    }

    /// Number of arms.
    pub fn num_arms(&self) -> usize {
        self.arms.len()
    }

    /// Index of the currently active arm (in [`ZOO_FAMILIES`] order for the
    /// standard zoo).
    pub fn active_arm(&self) -> usize {
        self.active
    }
}

impl Controller for ZooController {
    fn name(&self) -> &str {
        "dimmer-zoo"
    }

    fn observe(&mut self, obs: &RoundObservation<'_>) -> ControlDecision {
        if !self.config.adaptivity_enabled {
            return ControlDecision::Hold;
        }
        // Credit the active specialist with the paper's Eq. 3 reward; the
        // observation's N_TX is engine-clamped to [n_min, n_max].
        self.reward_sum += reward(
            obs.losses == 0,
            obs.ntx,
            self.config.n_max,
            self.config.reward_c,
        );
        self.rounds_in_window += 1;
        self.window_losses += obs.losses;
        let decision = Controller::observe(&mut self.arms[self.active], obs);
        if self.rounds_in_window >= self.window {
            let mean = self.reward_sum / self.rounds_in_window as f64;
            self.exp3.update(self.active, mean, self.last_prob);
            // Win-stay, lose-shift overlay on the bandit: a loss-free
            // window keeps the incumbent specialist (redrawing would only
            // pay exploration cost where the incumbent demonstrably
            // suffices); any loss means the world may have shifted, so the
            // arm is re-selected as the current mode of the EXP3
            // distribution (see the module docs on exploit-vs-sample).
            if self.window_losses > 0 {
                let (active, prob) = Self::exploit_arm(&self.exp3);
                self.active = active;
                self.last_prob = prob;
            }
            self.rounds_in_window = 0;
            self.reward_sum = 0.0;
            self.window_losses = 0;
        }
        // Recovery shield — the meta-level capability no single arm has:
        // after any lossy round, saturate `N_TX` to `n_max` for a full
        // window while the bandit re-selects, then hand control back to the
        // (possibly new) specialist. Only a *multi-arm* zoo carries the
        // meta-machinery; a single-arm zoo is a transparent wrapper around
        // its policy, byte-identical to running that policy directly
        // (pinned by `tests/tests/engine_equivalence.rs`).
        if self.arms.len() > 1 {
            if obs.losses > 0 {
                // A loss right after the previous shield dropped means the
                // stress outlived the hold: back off exponentially. A loss
                // out of a long calm stretch is a fresh event: start anew.
                self.shield_hold = if self.rounds_since_loss <= 2 * self.shield_hold {
                    (self.shield_hold * 2).min(8 * self.window)
                } else {
                    self.window
                };
                self.shield_rounds = self.shield_hold;
                self.rounds_since_loss = 0;
            } else {
                self.shield_rounds = self.shield_rounds.saturating_sub(1);
                self.rounds_since_loss = self.rounds_since_loss.saturating_add(1);
            }
            if self.shield_rounds > 0 {
                return ControlDecision::SetNtx(self.config.n_max);
            }
        }
        decision
    }

    fn wants_state(&self) -> bool {
        self.config.adaptivity_enabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RoundEngine;
    use dimmer_lwb::LwbConfig;
    use dimmer_sim::{NoInterference, Topology};

    #[test]
    fn unknown_families_fall_back_to_the_rule() {
        let cfg = DimmerConfig::default();
        assert!(!zoo_policy("volcanic", &cfg).is_learned());
        assert!(zoo_text("volcanic").is_none());
        assert!(!has_zoo_weights("volcanic"));
    }

    #[test]
    fn every_family_loads_a_usable_policy() {
        let cfg = DimmerConfig::default();
        for family in ZOO_FAMILIES {
            let policy = zoo_policy(family, &cfg);
            if has_zoo_weights(family) {
                assert!(policy.is_learned(), "{family}: weights exist but unused");
            } else {
                assert!(!policy.is_learned(), "{family}: no weights, no fallback");
            }
        }
    }

    #[test]
    fn mismatched_state_layout_degrades_to_the_rule() {
        // K = 1 shrinks the state vector below any trained network's input
        // layer, so learned weights must be rejected.
        let cfg = DimmerConfig::default().with_k_input_nodes(1);
        for family in ZOO_FAMILIES {
            assert!(!zoo_policy(family, &cfg).is_learned(), "{family}");
        }
    }

    #[test]
    fn zoo_controller_runs_the_engine() {
        let topo = Topology::kiel_testbed_18(3);
        let zoo = ZooController::standard(DimmerConfig::default());
        let mut engine = RoundEngine::with_controller(
            &topo,
            &NoInterference,
            LwbConfig::testbed_default(),
            DimmerConfig::default(),
            zoo,
            42,
        );
        let reports = engine.run_rounds(3 * DEFAULT_STATS_WINDOW);
        assert_eq!(reports.len(), 3 * DEFAULT_STATS_WINDOW);
        assert!(reports.iter().all(|r| r.reliability > 0.0));
        let arm = engine.controller().active_arm();
        assert!(arm < 4);
    }

    #[test]
    fn zoo_runs_are_deterministic() {
        let topo = Topology::kiel_testbed_18(3);
        let run = || {
            let zoo = ZooController::standard(DimmerConfig::default());
            let mut engine = RoundEngine::with_controller(
                &topo,
                &NoInterference,
                LwbConfig::testbed_default(),
                DimmerConfig::default(),
                zoo,
                7,
            );
            engine.run_rounds(24)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn disabled_adaptivity_holds() {
        let mut zoo = ZooController::standard(DimmerConfig::default().without_adaptivity());
        assert!(!zoo.wants_state());
        let obs = RoundObservation {
            round_index: 0,
            mode: crate::engine::RoundMode::Adaptivity,
            ntx: 3,
            reliability: 1.0,
            losses: 0,
            mean_radio_on: dimmer_sim::SimDuration::from_millis(8),
            energy_joules: 0.1,
            alive_nodes: 18,
            failed_nodes: 0,
            rejoined_nodes: 0,
            state: &[],
        };
        assert_eq!(zoo.observe(&obs), ControlDecision::Hold);
    }

    #[test]
    #[should_panic(expected = "at least one policy")]
    fn empty_zoo_is_rejected() {
        ZooController::new(Vec::new(), DimmerConfig::default(), 8, 0.1);
    }

    #[test]
    #[should_panic(expected = "stats window must be positive")]
    fn zero_window_zoo_is_rejected() {
        let policies = vec![AdaptivityPolicy::rule_based()];
        ZooController::new(policies, DimmerConfig::default(), 0, 0.1);
    }

    #[test]
    fn a_fresh_zoo_opens_on_the_defensive_prior() {
        // The standard arms run calm → roaming-jammer; the last one is the
        // most defensive, so a new zoo starts there.
        let zoo = ZooController::standard(DimmerConfig::default());
        assert_eq!(zoo.num_arms(), ZOO_FAMILIES.len());
        assert_eq!(ZOO_FAMILIES[zoo.active_arm()], "roaming-jammer");
    }
}

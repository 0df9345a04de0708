//! The unified control-policy API every protocol plugs into.
//!
//! The paper's core claim is comparative — Dimmer's learned adaptivity
//! against a PID controller, static LWB and Crystal under identical network
//! conditions. To keep that comparison honest at the code level, every
//! protocol is expressed as a [`Controller`]: a policy that observes the
//! outcome of one round ([`RoundObservation`]) and answers with a
//! [`ControlDecision`] for the next one. The generic
//! [`RoundEngine`](crate::engine::RoundEngine) owns everything else (the LWB
//! round loop, feedback propagation, energy/reliability accounting), so the
//! four systems differ *only* in their controller.
//!
//! Implementations in the workspace:
//!
//! * [`AdaptivityController`] — Dimmer's coordinator policy (quantized DQN,
//!   float DQN or the rule-based fallback),
//! * [`StaticNtxController`] — plain LWB with a fixed `N_TX`,
//! * `PidController` (in `dimmer-baselines`) — the tuned PI(D) baseline,
//! * `CrystalControl` (in `dimmer-baselines`) — the no-op controller of the
//!   Crystal epoch adapter, whose adaptation lives inside the epoch itself.

use crate::adaptivity::{AdaptivityController, AdaptivityPolicy};
use crate::config::DimmerConfig;
use crate::engine::RoundMode;
use dimmer_sim::SimDuration;

/// Everything a [`Controller`] gets to see after a round completed.
///
/// The engine fills in the round-level metrics for every controller; the
/// Table-I `state` vector is only built when the controller asked for it via
/// [`Controller::wants_state`] (it is empty otherwise, and always empty for
/// epoch-based protocols such as Crystal).
#[derive(Debug, Clone, PartialEq)]
pub struct RoundObservation<'a> {
    /// Index of the observed round.
    pub round_index: u64,
    /// Which control scheme owned the round.
    pub mode: RoundMode,
    /// The global `N_TX` that was in effect during the round.
    pub ntx: u8,
    /// Raw network reliability of the round.
    pub reliability: f64,
    /// Number of missed (slot, destination) pairs.
    pub losses: usize,
    /// Per-slot radio-on time averaged over all nodes.
    pub mean_radio_on: SimDuration,
    /// Energy spent by the whole network during the round, in Joules.
    pub energy_joules: f64,
    /// Number of alive nodes during the round (equals the network size in
    /// a static world).
    pub alive_nodes: usize,
    /// Nodes that failed between the previous round and this one (dynamic
    /// world churn).
    pub failed_nodes: usize,
    /// Nodes that rejoined between the previous round and this one.
    pub rejoined_nodes: usize,
    /// The Table-I state vector the coordinator built from its global view
    /// (empty unless [`Controller::wants_state`] returned `true`).
    pub state: &'a [f32],
}

impl RoundObservation<'_> {
    /// Whether the round missed at least one (slot, destination) pair.
    pub fn had_losses(&self) -> bool {
        self.losses > 0
    }

    /// Whether the network's membership changed just before this round —
    /// the dynamic-world signal a controller can react to (e.g. by holding
    /// `N_TX` up while a join wave resynchronizes).
    pub fn churned(&self) -> bool {
        self.failed_nodes > 0 || self.rejoined_nodes > 0
    }
}

/// What a [`Controller`] wants the engine to do before the next round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlDecision {
    /// Use this global `N_TX` for the next round (the engine clamps it to
    /// the configured `[n_min, n_max]` range).
    SetNtx(u8),
    /// Keep the current `N_TX`.
    Hold,
}

/// A per-round control policy: the only thing that differs between the
/// protocols compared in the paper.
///
/// The [`RoundEngine`](crate::engine::RoundEngine) calls [`warmup`] once
/// before the first round (letting the controller override the initial
/// `N_TX`), then [`observe`] after every completed round, applying the
/// returned [`ControlDecision`] to the next one.
///
/// [`warmup`]: Controller::warmup
/// [`observe`]: Controller::observe
///
/// # Examples
///
/// A custom controller is a handful of lines — here a threshold rule that
/// doubles down whenever reliability drops below 95 %:
///
/// ```
/// use dimmer_core::{ControlDecision, Controller, RoundObservation};
///
/// struct Threshold;
///
/// impl Controller for Threshold {
///     fn name(&self) -> &str {
///         "threshold"
///     }
///
///     fn observe(&mut self, obs: &RoundObservation<'_>) -> ControlDecision {
///         if obs.reliability < 0.95 {
///             ControlDecision::SetNtx(obs.ntx.saturating_add(2))
///         } else {
///             ControlDecision::Hold
///         }
///     }
/// }
///
/// use dimmer_core::{DimmerConfig, RoundEngine};
/// use dimmer_lwb::LwbConfig;
/// use dimmer_sim::{NoInterference, Topology};
///
/// let topo = Topology::kiel_testbed_18(1);
/// let mut engine = RoundEngine::with_controller(
///     &topo,
///     &NoInterference,
///     LwbConfig::testbed_default(),
///     DimmerConfig::default(),
///     Threshold,
///     42,
/// );
/// let report = engine.run_round();
/// assert!(report.reliability > 0.9);
/// ```
pub trait Controller {
    /// Registry-style name of the control policy (e.g. `"pid"`,
    /// `"dimmer-dqn"`).
    fn name(&self) -> &str;

    /// Consumes the outcome of one round and decides the next `N_TX`.
    fn observe(&mut self, obs: &RoundObservation<'_>) -> ControlDecision;

    /// Called once before the first round; returning `Some(ntx)` overrides
    /// the configured initial `N_TX` (the engine clamps the override).
    fn warmup(&mut self, config: &DimmerConfig) -> Option<u8> {
        let _ = config;
        None
    }

    /// Clears any internal state so the controller can drive a fresh run.
    fn reset(&mut self) {}

    /// Whether the engine should build the Table-I state vector for this
    /// controller's observations. Policies that only look at round-level
    /// metrics return `false` and skip that work on the hot path.
    fn wants_state(&self) -> bool {
        false
    }
}

/// Dimmer's coordinator policy as a [`Controller`]: executes the DQN (or the
/// rule-based fallback) over the Table-I state vector after every round.
/// Honors `DimmerConfig::adaptivity_enabled` —
/// with the adaptivity disabled it holds `N_TX` constant (the Fig. 6
/// forwarder-selection configuration).
impl Controller for AdaptivityController {
    fn name(&self) -> &str {
        match self.policy() {
            AdaptivityPolicy::Quantized(_) => "dimmer-dqn",
            AdaptivityPolicy::Float(_) => "dimmer-float",
            AdaptivityPolicy::RuleBased => "dimmer-rule",
        }
    }

    fn observe(&mut self, obs: &RoundObservation<'_>) -> ControlDecision {
        if !self.config().adaptivity_enabled {
            return ControlDecision::Hold;
        }
        let action = self.decide(obs.state);
        ControlDecision::SetNtx(action.apply(obs.ntx, self.config().n_min, self.config().n_max))
    }

    fn wants_state(&self) -> bool {
        self.config().adaptivity_enabled
    }
}

/// The non-adaptive baseline: a fixed `N_TX`, re-asserted every round (the
/// paper's static LWB uses `N_TX = 3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticNtxController {
    ntx: u8,
}

impl StaticNtxController {
    /// Creates a controller that pins `N_TX` to `ntx`.
    pub fn new(ntx: u8) -> Self {
        StaticNtxController { ntx }
    }

    /// The pinned `N_TX`.
    pub fn ntx(&self) -> u8 {
        self.ntx
    }
}

impl Controller for StaticNtxController {
    fn name(&self) -> &str {
        "static"
    }

    fn observe(&mut self, _obs: &RoundObservation<'_>) -> ControlDecision {
        ControlDecision::SetNtx(self.ntx)
    }

    fn warmup(&mut self, _config: &DimmerConfig) -> Option<u8> {
        Some(self.ntx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateBuilder;
    use crate::stats::GlobalView;
    use dimmer_sim::SimDuration;

    fn obs<'a>(reliability: f64, ntx: u8, state: &'a [f32]) -> RoundObservation<'a> {
        RoundObservation {
            round_index: 0,
            mode: RoundMode::Adaptivity,
            ntx,
            reliability,
            losses: if reliability < 1.0 { 1 } else { 0 },
            mean_radio_on: SimDuration::from_millis(10),
            energy_joules: 1.0,
            alive_nodes: 18,
            failed_nodes: 0,
            rejoined_nodes: 0,
            state,
        }
    }

    #[test]
    fn churn_helper_reflects_membership_changes() {
        let mut o = obs(1.0, 3, &[]);
        assert!(!o.churned());
        o.failed_nodes = 2;
        assert!(o.churned());
        o.failed_nodes = 0;
        o.rejoined_nodes = 1;
        assert!(o.churned());
    }

    #[test]
    fn static_controller_pins_ntx() {
        let mut c = StaticNtxController::new(3);
        assert_eq!(c.name(), "static");
        assert_eq!(c.warmup(&DimmerConfig::default()), Some(3));
        assert_eq!(c.observe(&obs(0.2, 7, &[])), ControlDecision::SetNtx(3));
        assert!(!c.wants_state());
        assert_eq!(c.ntx(), 3);
    }

    #[test]
    fn adaptivity_controller_decides_from_the_state_vector() {
        let cfg = DimmerConfig::default();
        let mut c = AdaptivityController::new(AdaptivityPolicy::rule_based(), cfg.clone());
        assert_eq!(c.name(), "dimmer-rule");
        assert!(Controller::wants_state(&c));
        // A pessimistic (all-unknown) view asks for more retransmissions.
        let state = StateBuilder::new(cfg).build(&GlobalView::new(18), 3);
        assert_eq!(c.observe(&obs(0.5, 3, &state)), ControlDecision::SetNtx(4));
    }

    #[test]
    fn disabled_adaptivity_holds() {
        let cfg = DimmerConfig::default().without_adaptivity();
        let mut c = AdaptivityController::new(AdaptivityPolicy::rule_based(), cfg);
        assert!(!Controller::wants_state(&c));
        assert_eq!(c.observe(&obs(0.5, 3, &[])), ControlDecision::Hold);
    }
}

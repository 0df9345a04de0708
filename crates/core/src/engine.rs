//! The generic round engine: one round loop for every protocol.
//!
//! Historically each protocol of the paper's evaluation had its own runner
//! type with a copy-pasted round loop. The [`RoundEngine`] collapses them:
//! it owns the loop (Fig. 3 of the paper), the stats-window feedback
//! pipeline and the energy/reliability accounting, and is generic over the
//! [`Controller`] that picks the next round's `N_TX`:
//!
//! * `RoundEngine<AdaptivityController>` is Dimmer,
//! * `RoundEngine<PidController>` is the tuned PI(D) baseline,
//! * `RoundEngine<StaticNtxController>` is static LWB,
//! * `RoundEngine<CrystalControl>` drives Crystal epochs through an
//!   [`EpochDriver`] adapter instead of LWB rounds.
//!
//! [`RoundEngine::run_round`] is the only round function. Per round it
//!
//! 1. advances the dynamic world and hands every fired event (and a changed
//!    alive mask) to the backend that owns the substrate,
//! 2. draws the round's sources from the traffic pattern, dropping dead
//!    nodes,
//! 3. lets the backend execute the round: an LWB round (mode selection
//!    between *adaptivity* and *forwarder selection*, schedule, execution,
//!    and the [`Coordinator`]'s observation of it: the statistics windows
//!    and the 2-byte feedback headers that reached the coordinator) or one
//!    epoch of an [`EpochDriver`],
//! 4. hands a [`RoundObservation`] to the controller and applies its
//!    [`ControlDecision`] to the next LWB round, and
//! 5. reports the round as a [`DimmerRoundReport`].
//!
//! With application-layer acknowledgements enabled (the D-Cube collection
//! scenario), undelivered packets are retransmitted in later rounds and the
//! end-to-end delivery ratio is tracked separately.
//!
//! The heterogeneous [`Simulation`] facade erases the controller type so
//! registries and experiment grids can hold any protocol behind one object.

use crate::config::DimmerConfig;
use crate::controller::{ControlDecision, Controller, RoundObservation};
use crate::forwarder::ForwarderSelection;
use crate::reward::reward;
use crate::stats::Coordinator;
use dimmer_glossy::NtxAssignment;
use dimmer_lwb::{LwbConfig, RoundExecutor, RoundOutcome, Schedule, TrafficPattern};
use dimmer_sim::{
    InterferenceModel, NodeId, ScenarioScript, SimDuration, SimRng, SimTime, Topology, World,
    WorldEvent,
};

/// Which control scheme owned the round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoundMode {
    /// The central adaptivity controlled the global `N_TX`.
    Adaptivity,
    /// The distributed forwarder selection was allowed to experiment.
    ForwarderSelection,
}

/// Per-round report produced by [`RoundEngine::run_round`].
#[derive(Debug, Clone, PartialEq)]
pub struct DimmerRoundReport {
    /// Index of the round.
    pub round_index: u64,
    /// Simulated time at which the round started.
    pub time: SimTime,
    /// Which control scheme owned the round.
    pub mode: RoundMode,
    /// The global `N_TX`. In an adaptivity round (and every epoch) it is
    /// the `N_TX` the round ran with. In a forwarder-selection round, whose
    /// floods ran with a per-node assignment, it is the global `N_TX` after
    /// the controller's decision on this round.
    pub ntx: u8,
    /// Raw network reliability of the round (broadcast or sink, without ACK
    /// crediting).
    pub reliability: f64,
    /// Per-slot radio-on time averaged over all nodes.
    pub mean_radio_on: SimDuration,
    /// Number of missed (slot, destination) pairs.
    pub losses: usize,
    /// Reward earned by the round (Eq. 3).
    pub reward: f64,
    /// Number of devices acting as forwarders during the round.
    pub active_forwarders: usize,
    /// Energy spent by the whole network during the round, in Joules.
    pub energy_joules: f64,
    /// Number of application packets newly generated this round.
    pub packets_generated: usize,
    /// Number of application packets delivered this round (including
    /// ACK-triggered retransmissions of older packets).
    pub packets_delivered: usize,
    /// Number of alive nodes during the round (equals the network size in a
    /// static world).
    pub alive_nodes: usize,
}

/// Outcome of one protocol epoch executed by an [`EpochDriver`].
#[derive(Debug, Clone, PartialEq)]
pub struct EpochOutcome {
    /// Number of sources that had a packet queued for the epoch.
    pub offered: usize,
    /// How many of the offered packets reached the sink.
    pub delivered: usize,
    /// Per-slot radio-on time averaged over nodes and slots.
    pub mean_radio_on: SimDuration,
    /// Total energy spent by the network during the epoch, in Joules.
    pub energy_joules: f64,
}

/// An epoch-structured protocol (e.g. Crystal's trains of TA pairs) adapted
/// to the [`RoundEngine`]: instead of an LWB round, each engine round runs
/// one epoch of the driver and reports its outcome in the common
/// [`DimmerRoundReport`] shape.
pub trait EpochDriver {
    /// Runs one epoch in which `sources` have a packet queued, advancing the
    /// driver's simulated time by `period`.
    fn run_epoch(&mut self, sources: &[NodeId], period: SimDuration) -> EpochOutcome;

    /// The `N_TX` the driver uses inside its floods (reported per round).
    fn ntx(&self) -> u8;

    /// Dynamic-world hook: one scripted [`WorldEvent`] fired before the
    /// upcoming epoch. Drivers owning a compiled substrate should forward
    /// topology events to it; the default ignores everything.
    fn world_event(&mut self, _event: &WorldEvent) {}

    /// Dynamic-world hook: the alive mask changed before the upcoming
    /// epoch. The default ignores it.
    fn set_alive(&mut self, _alive: &[bool]) {}
}

#[derive(Debug, Clone)]
struct PendingPacket {
    source: NodeId,
    retries_left: usize,
}

/// What one round of either backend produced; the engine builds the
/// controller's observation and the round report from it.
struct RoundSummary {
    mode: RoundMode,
    /// The global `N_TX` the round ran with.
    ntx: u8,
    reliability: f64,
    losses: usize,
    mean_radio_on: SimDuration,
    energy_joules: f64,
    generated: usize,
    delivered: usize,
    active_forwarders: usize,
}

/// The LWB-round execution state (substrate, coordinator, forwarder
/// selection) and the controller-steered global `N_TX`. The coordinator
/// also holds the Dimmer configuration the backend runs under.
struct LwbBackend<'a> {
    topology: &'a Topology,
    executor: RoundExecutor<'a>,
    coordinator: Coordinator,
    forwarder: ForwarderSelection,
    ntx: u8,
    calm_rounds: usize,
    pending: Vec<PendingPacket>,
}

impl LwbBackend<'_> {
    /// Runs LWB round `index`, starting at `start`, for the fresh `sources`
    /// (plus, with ACKs, the pending retransmissions of alive nodes), lets
    /// the coordinator observe it and updates the calm-round count and the
    /// forwarder selection.
    fn run_round(
        &mut self,
        traffic: &TrafficPattern,
        world: &World,
        fresh_sources: &[NodeId],
        index: u64,
        start: SimTime,
        rng: &mut SimRng,
    ) -> RoundSummary {
        // Mode selection: calm networks hand control to the forwarder
        // selection; any recent loss keeps (or puts back) every device in
        // forwarding mode under the central adaptivity.
        let config = self.coordinator.config();
        let mode = if config.forwarder.enabled
            && self.calm_rounds >= config.forwarder.calm_rounds_threshold
        {
            RoundMode::ForwarderSelection
        } else {
            RoundMode::Adaptivity
        };

        // With ACKs, pending retransmissions join the fresh sources; a dead
        // node's retransmissions resume when it rejoins.
        let mut sources = fresh_sources.to_vec();
        if config.acknowledgements {
            for p in &self.pending {
                if world.is_alive(p.source) && !sources.contains(&p.source) {
                    sources.push(p.source);
                }
            }
        }

        let assignment = match mode {
            RoundMode::ForwarderSelection => {
                self.forwarder.begin_round();
                self.forwarder.assignment(self.ntx)
            }
            RoundMode::Adaptivity => NtxAssignment::Uniform(self.ntx),
        };
        let schedule = Schedule::new(index, sources, assignment);
        let round = self.executor.run_round(&schedule, start, rng);
        let (reliability, losses) = round.reliability_and_losses(traffic.sink());
        let had_losses = losses > 0;

        // A node's feedback reaches the coordinator only if its data-slot
        // flood did.
        let coordinator = self.topology.coordinator();
        self.coordinator.observe_round(
            round
                .data_slots()
                .iter()
                .filter(|s| s.flood.received(coordinator))
                .map(|s| s.source),
            |n| {
                (
                    round.node_reception_ratio(n),
                    round.node_radio_on_per_slot(n),
                )
            },
            had_losses,
        );

        // Interference detection: a round counts as calm if essentially every
        // destination was served; isolated transient misses do not push the
        // network back into all-forwarders mode.
        let calm = reliability >= 0.995;
        self.calm_rounds = if calm { self.calm_rounds + 1 } else { 0 };

        let (generated, delivered) =
            self.track_delivery(traffic.sink(), world.alive(), &round, fresh_sources);

        let active_forwarders = match mode {
            RoundMode::ForwarderSelection => {
                let forwarders = self.forwarder.active_forwarders();
                self.forwarder.end_round(had_losses);
                if !calm {
                    // Interference returned: every device becomes a forwarder
                    // again and the controller takes over next round.
                    self.forwarder.reset_roles();
                }
                forwarders
            }
            RoundMode::Adaptivity => world.alive_count(),
        };

        RoundSummary {
            mode,
            ntx: self.ntx,
            reliability,
            losses,
            mean_radio_on: round.mean_radio_on_per_slot(),
            energy_joules: self
                .topology
                .node_ids()
                .map(|n| round.node_round_radio(n).energy_joules())
                .sum(),
            generated,
            delivered,
            active_forwarders,
        }
    }

    /// Application-layer delivery of the round's packets: returns the
    /// packets newly generated and delivered, and (with ACKs) queues or
    /// retires retransmissions.
    fn track_delivery(
        &mut self,
        sink: Option<NodeId>,
        alive: &[bool],
        round: &RoundOutcome,
        fresh_sources: &[NodeId],
    ) -> (usize, usize) {
        let mut generated = 0;
        let mut delivered = 0;
        let Some(sink) = sink else {
            // Broadcast traffic: count a packet as delivered if every
            // alive destination received it; no retransmissions.
            for slot in round.data_slots() {
                generated += 1;
                let all = self
                    .topology
                    .node_ids()
                    .filter(|&n| n != slot.source && alive[n.index()])
                    .all(|n| slot.flood.received(n));
                if all {
                    delivered += 1;
                }
            }
            return (generated, delivered);
        };

        let config = self.coordinator.config();
        let pending = &mut self.pending;
        for slot in round.data_slots() {
            let ok = slot.source == sink || slot.flood.received(sink);
            let was_pending = pending.iter().position(|p| p.source == slot.source);
            let is_fresh = fresh_sources.contains(&slot.source);
            if is_fresh && was_pending.is_none() {
                generated += 1;
            }
            if ok {
                delivered += 1;
                if let Some(idx) = was_pending {
                    pending.remove(idx);
                }
            } else if config.acknowledgements {
                match was_pending {
                    Some(idx) => {
                        pending[idx].retries_left = pending[idx].retries_left.saturating_sub(1);
                        if pending[idx].retries_left == 0 {
                            pending.remove(idx);
                        }
                    }
                    None if is_fresh => pending.push(PendingPacket {
                        source: slot.source,
                        retries_left: config.max_ack_retries,
                    }),
                    None => {}
                }
            }
        }
        (generated, delivered)
    }
}

/// What executes a round: the LWB loop or an epoch adapter.
enum Backend<'a> {
    Lwb(Box<LwbBackend<'a>>),
    Epoch(Box<dyn EpochDriver + 'a>),
}

impl std::fmt::Debug for Backend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Lwb(_) => f.write_str("Backend::Lwb"),
            Backend::Epoch(_) => f.write_str("Backend::Epoch"),
        }
    }
}

/// The generic protocol engine: the LWB round loop plus accounting, driven
/// by any [`Controller`].
///
/// Construct it directly with [`RoundEngine::with_controller`] (or
/// [`RoundEngine::with_epoch_driver`] for epoch protocols), or through the
/// `SimulationBuilder` and its `PROTOCOLS` table in `dimmer-baselines`.
#[derive(Debug)]
pub struct RoundEngine<'a, C: Controller> {
    topology: &'a Topology,
    /// All node ids, cached once so the per-round traffic draw does not
    /// re-collect the iterator.
    node_ids: Vec<NodeId>,
    config: DimmerConfig,
    lwb_config: LwbConfig,
    traffic: TrafficPattern,
    controller: C,
    backend: Backend<'a>,
    /// The dynamic world: scenario script plus membership state, advanced
    /// to the engine clock before every round. Static (empty script) by
    /// default.
    world: World,
    now: SimTime,
    rng: SimRng,
    total_energy_joules: f64,
    total_generated: usize,
    total_delivered: usize,
    rounds_run: u64,
}

impl<'a, C: Controller> RoundEngine<'a, C> {
    /// Creates an engine running the LWB round loop over `topology` and
    /// `interference` with all-to-all broadcast traffic, driven by
    /// `controller`.
    pub fn with_controller(
        topology: &'a Topology,
        interference: &'a dyn InterferenceModel,
        lwb_config: LwbConfig,
        config: DimmerConfig,
        controller: C,
        seed: u64,
    ) -> Self {
        let num_nodes = topology.num_nodes();
        let backend = Backend::Lwb(Box::new(LwbBackend {
            topology,
            executor: RoundExecutor::new(topology, interference, lwb_config.clone()),
            coordinator: Coordinator::new(num_nodes, config.clone()),
            forwarder: ForwarderSelection::new(
                num_nodes,
                topology.coordinator(),
                config.forwarder.clone(),
                seed ^ 0xF0,
            ),
            ntx: config.initial_ntx,
            calm_rounds: 0,
            pending: Vec::new(),
        }));
        Self::from_backend(
            topology,
            lwb_config,
            config,
            controller,
            backend,
            SimRng::seed_from(seed),
        )
    }

    /// Creates an engine that runs one epoch of `driver` per round instead
    /// of the LWB loop (the Crystal adapter). The engine draws each round's
    /// sources from its traffic pattern with an RNG seeded from
    /// `seed ^ 0xC11`, preserving the seed derivation the Fig. 7 harness has
    /// always used, and hands them to the driver.
    pub fn with_epoch_driver(
        topology: &'a Topology,
        lwb_config: LwbConfig,
        config: DimmerConfig,
        controller: C,
        driver: Box<dyn EpochDriver + 'a>,
        seed: u64,
    ) -> Self {
        Self::from_backend(
            topology,
            lwb_config,
            config,
            controller,
            Backend::Epoch(driver),
            SimRng::seed_from(seed ^ 0xC11),
        )
    }

    fn from_backend(
        topology: &'a Topology,
        lwb_config: LwbConfig,
        config: DimmerConfig,
        mut controller: C,
        mut backend: Backend<'a>,
        rng: SimRng,
    ) -> Self {
        if let (Some(ntx), Backend::Lwb(lwb)) = (controller.warmup(&config), &mut backend) {
            lwb.ntx = ntx.clamp(config.n_min, config.n_max);
        }
        RoundEngine {
            topology,
            node_ids: topology.node_ids().collect(),
            traffic: TrafficPattern::AllToAll,
            controller,
            backend,
            world: World::static_world(topology.num_nodes(), topology.coordinator()),
            now: SimTime::ZERO,
            rng,
            total_energy_joules: 0.0,
            total_generated: 0,
            total_delivered: 0,
            rounds_run: 0,
            lwb_config,
            config,
        }
    }

    /// Replaces the traffic pattern (e.g. the D-Cube aperiodic collection).
    pub fn with_traffic(mut self, traffic: TrafficPattern) -> Self {
        self.traffic = traffic;
        self
    }

    /// Installs a dynamic-world scenario script. Events fire between
    /// rounds, ahead of the first round whose start time reaches their
    /// timestamp; an empty script is the static world and leaves every run
    /// byte-for-byte identical to an engine without a script.
    ///
    /// # Panics
    ///
    /// Panics if the script references out-of-range nodes, fails the
    /// coordinator, or drifts a link to a PRR outside `[0, 1]` (see
    /// [`World::new`]).
    pub fn with_world_script(mut self, script: ScenarioScript) -> Self {
        self.world = World::new(
            self.topology.num_nodes(),
            self.topology.coordinator(),
            script,
        );
        self
    }

    /// The engine's dynamic world (membership state and scenario script).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The controller driving this engine.
    pub fn controller(&self) -> &C {
        &self.controller
    }

    /// The `N_TX` currently in effect: the controller-steered global
    /// retransmission parameter for LWB-round protocols, or the flood
    /// `N_TX` of the epoch driver (which steers its own retransmissions
    /// inside each epoch and ignores [`ControlDecision::SetNtx`] and
    /// [`force_ntx`](Self::force_ntx)).
    pub fn ntx(&self) -> u8 {
        match &self.backend {
            Backend::Lwb(lwb) => lwb.ntx,
            Backend::Epoch(driver) => driver.ntx(),
        }
    }

    /// The Dimmer configuration.
    pub fn config(&self) -> &DimmerConfig {
        &self.config
    }

    /// The LWB configuration.
    pub fn lwb_config(&self) -> &LwbConfig {
        &self.lwb_config
    }

    /// Total energy spent by the network so far, in Joules.
    pub fn total_energy_joules(&self) -> f64 {
        self.total_energy_joules
    }

    /// End-to-end application reliability so far: delivered / generated
    /// packets (1.0 before any packet was generated). With acknowledgements
    /// enabled this credits packets delivered by a retransmission.
    pub fn app_reliability(&self) -> f64 {
        if self.total_generated == 0 {
            1.0
        } else {
            self.total_delivered as f64 / self.total_generated as f64
        }
    }

    /// Number of rounds executed so far.
    pub fn rounds_run(&self) -> u64 {
        self.rounds_run
    }

    /// Runs `count` consecutive rounds and returns their reports.
    pub fn run_rounds(&mut self, count: usize) -> Vec<DimmerRoundReport> {
        (0..count).map(|_| self.run_round()).collect()
    }

    /// Applies an external adaptivity decision instead of the controller for
    /// the *next* round (how `SimEnvironment` applies an agent's action).
    /// No effect on epoch-driven protocols, whose drivers steer their own
    /// retransmissions.
    pub fn force_ntx(&mut self, ntx: u8) {
        if let Backend::Lwb(lwb) = &mut self.backend {
            lwb.ntx = ntx.clamp(self.config.n_min, self.config.n_max);
        }
    }

    /// The Table-I state vector the policy sees for the current view and
    /// `N_TX` (useful for debugging and offline analysis; empty for
    /// epoch-driven protocols).
    pub fn current_state(&self) -> Vec<f32> {
        match &self.backend {
            Backend::Lwb(lwb) => lwb.coordinator.state(lwb.ntx),
            Backend::Epoch(_) => Vec::new(),
        }
    }

    /// Executes one round (or one epoch, for epoch-driven protocols) and
    /// advances simulated time by the LWB round period.
    pub fn run_round(&mut self) -> DimmerRoundReport {
        // Advance the dynamic world to the round's start time: scripted
        // events with timestamps <= now fire between rounds and reach the
        // backend's substrate before anything transmits. Membership events
        // leave a compiled world untouched; the alive mask carries them.
        let update = self.world.advance_to(self.now);
        for (_, event) in self.world.events_in(update.fired.clone()) {
            match &mut self.backend {
                Backend::Lwb(lwb) => {
                    lwb.executor.apply_world_event(event);
                }
                Backend::Epoch(driver) => driver.world_event(event),
            }
        }
        if update.membership_changed() {
            match &mut self.backend {
                Backend::Lwb(lwb) => lwb.executor.set_alive(self.world.alive()),
                Backend::Epoch(driver) => driver.set_alive(self.world.alive()),
            }
        }

        // Fresh traffic for this round; a dead node cannot source a slot.
        let mut sources = self
            .traffic
            .sources_for_round(&self.node_ids, &mut self.rng);
        if !self.world.is_static() {
            sources.retain(|s| self.world.is_alive(*s));
        }

        let summary = match &mut self.backend {
            Backend::Lwb(lwb) => lwb.run_round(
                &self.traffic,
                &self.world,
                &sources,
                self.rounds_run,
                self.now,
                &mut self.rng,
            ),
            Backend::Epoch(driver) => {
                let outcome = driver.run_epoch(&sources, self.lwb_config.round_period);
                RoundSummary {
                    mode: RoundMode::Adaptivity,
                    ntx: driver.ntx(),
                    reliability: if outcome.offered == 0 {
                        1.0
                    } else {
                        outcome.delivered as f64 / outcome.offered as f64
                    },
                    losses: outcome.offered.saturating_sub(outcome.delivered),
                    mean_radio_on: outcome.mean_radio_on,
                    energy_joules: outcome.energy_joules,
                    generated: outcome.offered,
                    delivered: outcome.delivered,
                    active_forwarders: self.world.alive_count(),
                }
            }
        };
        self.total_energy_joules += summary.energy_joules;
        self.total_generated += summary.generated;
        self.total_delivered += summary.delivered;

        // The coordinator executes its policy after every round, even while
        // the forwarder selection experiments: N_TX must still converge back
        // to its calm setpoint after interference passes (Fig. 4c).
        let state = if self.controller.wants_state() {
            self.current_state()
        } else {
            Vec::new()
        };
        let observation = RoundObservation {
            round_index: self.rounds_run,
            mode: summary.mode,
            ntx: summary.ntx,
            reliability: summary.reliability,
            losses: summary.losses,
            mean_radio_on: summary.mean_radio_on,
            energy_joules: summary.energy_joules,
            alive_nodes: self.world.alive_count(),
            failed_nodes: update.failed,
            rejoined_nodes: update.rejoined,
            state: &state,
        };
        // Epoch drivers steer their own retransmissions inside each epoch;
        // there is no engine-level N_TX for the decision to land on, so it
        // is observed (for controller-side bookkeeping) but not applied.
        if let (ControlDecision::SetNtx(n), Backend::Lwb(lwb)) =
            (self.controller.observe(&observation), &mut self.backend)
        {
            lwb.ntx = n.clamp(self.config.n_min, self.config.n_max);
        }

        let report = DimmerRoundReport {
            round_index: self.rounds_run,
            time: self.now,
            mode: summary.mode,
            // A forwarder-selection round ran with a per-node assignment and
            // reports the global N_TX after the decision.
            ntx: match summary.mode {
                RoundMode::Adaptivity => summary.ntx,
                RoundMode::ForwarderSelection => self.ntx(),
            },
            reliability: summary.reliability,
            mean_radio_on: summary.mean_radio_on,
            losses: summary.losses,
            reward: reward(
                summary.losses == 0,
                summary.ntx,
                self.config.n_max,
                self.config.reward_c,
            ),
            active_forwarders: summary.active_forwarders,
            energy_joules: summary.energy_joules,
            packets_generated: summary.generated,
            packets_delivered: summary.delivered,
            alive_nodes: self.world.alive_count(),
        };

        self.now += self.lwb_config.round_period;
        self.rounds_run += 1;
        report
    }
}

/// Object-safe facade over [`RoundEngine`]: what every protocol looks like
/// to a builder or experiment grid, independent of its controller type.
pub trait Simulation {
    /// Executes one round (or epoch) and reports it.
    fn run_round(&mut self) -> DimmerRoundReport;

    /// Runs `count` consecutive rounds and returns their reports.
    fn run_rounds(&mut self, count: usize) -> Vec<DimmerRoundReport> {
        (0..count).map(|_| self.run_round()).collect()
    }

    /// The protocol name of the controller (as in `PROTOCOLS`).
    fn protocol(&self) -> &str;

    /// The current global retransmission parameter.
    fn ntx(&self) -> u8;

    /// Number of rounds executed so far.
    fn rounds_run(&self) -> u64;

    /// End-to-end application reliability so far.
    fn app_reliability(&self) -> f64;

    /// Total energy spent by the network so far, in Joules.
    fn total_energy_joules(&self) -> f64;
}

impl<C: Controller> Simulation for RoundEngine<'_, C> {
    fn run_round(&mut self) -> DimmerRoundReport {
        RoundEngine::run_round(self)
    }

    fn protocol(&self) -> &str {
        self.controller.name()
    }

    fn ntx(&self) -> u8 {
        RoundEngine::ntx(self)
    }

    fn rounds_run(&self) -> u64 {
        RoundEngine::rounds_run(self)
    }

    fn app_reliability(&self) -> f64 {
        RoundEngine::app_reliability(self)
    }

    fn total_energy_joules(&self) -> f64 {
        RoundEngine::total_energy_joules(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptivity::{AdaptivityController, AdaptivityPolicy};
    use crate::controller::StaticNtxController;
    use dimmer_sim::{kiel_jamming, NoInterference, PeriodicJammer, ScheduledInterference};

    /// Rule-based Dimmer under `config` and `lwb`.
    fn dimmer<'a>(
        topo: &'a Topology,
        interference: &'a dyn InterferenceModel,
        lwb: LwbConfig,
        config: DimmerConfig,
        seed: u64,
    ) -> RoundEngine<'a, AdaptivityController> {
        let controller = AdaptivityController::new(AdaptivityPolicy::rule_based(), config.clone());
        RoundEngine::with_controller(topo, interference, lwb, config, controller, seed)
    }

    fn calm_runner<'a>(
        topo: &'a Topology,
        interference: &'a dyn InterferenceModel,
        seed: u64,
    ) -> RoundEngine<'a, AdaptivityController> {
        let lwb = LwbConfig::testbed_default();
        dimmer(topo, interference, lwb, DimmerConfig::default(), seed)
    }

    #[test]
    fn calm_rounds_are_reliable_and_decrease_ntx() {
        let topo = Topology::kiel_testbed_18(1);
        let mut runner = calm_runner(&topo, &NoInterference, 2);
        let reports = runner.run_rounds(8);
        let avg_rel: f64 = reports.iter().map(|r| r.reliability).sum::<f64>() / 8.0;
        assert!(avg_rel > 0.97, "calm reliability {avg_rel}");
        // The rule-based policy drives N_TX towards the minimum when calm.
        assert!(runner.ntx() <= DimmerConfig::default().initial_ntx);
    }

    #[test]
    fn interference_raises_ntx() {
        let topo = Topology::kiel_testbed_18(1);
        let interference = kiel_jamming(0.35);
        let mut runner = calm_runner(&topo, &interference, 3);
        runner.run_rounds(10);
        assert!(
            runner.ntx() >= 5,
            "N_TX should have been raised under 35% jamming, got {}",
            runner.ntx()
        );
    }

    #[test]
    fn ntx_recovers_after_interference_passes() {
        let topo = Topology::kiel_testbed_18(1);
        let mut schedule = ScheduledInterference::new();
        for j in PeriodicJammer::kiel_pair(0.35) {
            schedule.add_window(SimTime::ZERO, SimTime::from_secs(40), Box::new(j));
        }
        let mut runner = calm_runner(&topo, &schedule, 5);
        // 10 rounds (40 s) of jamming, then calm.
        runner.run_rounds(10);
        let during = runner.ntx();
        runner.run_rounds(15);
        let after = runner.ntx();
        assert!(
            during > after,
            "N_TX should fall back once calm ({during} -> {after})"
        );
    }

    #[test]
    fn calm_network_eventually_enters_forwarder_selection() {
        let topo = Topology::kiel_testbed_18(2);
        let mut runner = calm_runner(&topo, &NoInterference, 7);
        let reports = runner.run_rounds(30);
        assert!(
            reports
                .iter()
                .any(|r| r.mode == RoundMode::ForwarderSelection),
            "a calm network must hand control to the forwarder selection"
        );
    }

    #[test]
    fn report_ntx_is_the_round_ntx_in_adaptivity_and_the_decided_ntx_in_forwarder_selection() {
        // Starting at the maximum with a one-round calm threshold, the
        // rule-based policy lowers N_TX while the forwarder selection runs.
        let topo = Topology::kiel_testbed_18(1);
        let mut config = DimmerConfig {
            initial_ntx: 8,
            ..DimmerConfig::default()
        };
        config.forwarder.calm_rounds_threshold = 1;
        let mut runner = dimmer(
            &topo,
            &NoInterference,
            LwbConfig::testbed_default(),
            config,
            3,
        );
        let mut decided_in_selection = 0;
        for _ in 0..20 {
            let before = runner.ntx();
            let report = runner.run_round();
            let after = runner.ntx();
            match report.mode {
                RoundMode::Adaptivity => assert_eq!(report.ntx, before, "{report:?}"),
                RoundMode::ForwarderSelection => {
                    assert_eq!(report.ntx, after, "{report:?}");
                    decided_in_selection += usize::from(before != after);
                }
            }
        }
        assert!(
            decided_in_selection > 0,
            "no forwarder-selection round changed N_TX"
        );
    }

    #[test]
    fn forwarder_selection_disabled_keeps_adaptivity_mode() {
        let topo = Topology::kiel_testbed_18(2);
        let lwb = LwbConfig::testbed_default();
        let mut runner = dimmer(&topo, &NoInterference, lwb, DimmerConfig::dcube(), 7);
        let reports = runner.run_rounds(20);
        assert!(reports.iter().all(|r| r.mode == RoundMode::Adaptivity));
    }

    #[test]
    fn reports_are_internally_consistent() {
        let topo = Topology::kiel_testbed_18(3);
        let mut runner = calm_runner(&topo, &NoInterference, 11);
        for r in runner.run_rounds(6) {
            assert!((0.0..=1.0).contains(&r.reliability));
            assert!((0.0..=1.0).contains(&r.reward));
            assert!(r.ntx >= 1 && r.ntx <= 8);
            assert!(r.mean_radio_on <= SimDuration::from_millis(20));
            assert!(r.energy_joules >= 0.0);
            assert!(r.packets_delivered <= r.packets_generated + 18);
        }
        assert_eq!(runner.rounds_run(), 6);
        assert!(runner.total_energy_joules() > 0.0);
    }

    #[test]
    fn collection_traffic_with_acks_recovers_lost_packets() {
        let topo = Topology::dcube_48(1);
        let mut interference = dimmer_sim::CompositeInterference::new();
        interference.push(Box::new(dimmer_sim::WifiInterference::new(
            dimmer_sim::WifiLevel::Level1,
            9,
        )));
        let traffic = TrafficPattern::dcube_collection(48, 5, topo.coordinator());
        let cfg = DimmerConfig::dcube();
        let lwb = LwbConfig::dcube_default();
        let make_runner = |acks: bool, seed: u64| {
            let mut c = cfg.clone();
            c.acknowledgements = acks;
            dimmer(&topo, &interference, lwb.clone(), c, seed).with_traffic(traffic.clone())
        };
        let mut with_acks = make_runner(true, 4);
        let mut without_acks = make_runner(false, 4);
        with_acks.run_rounds(80);
        without_acks.run_rounds(80);
        assert!(
            with_acks.app_reliability() >= without_acks.app_reliability(),
            "ACKs must not hurt delivery ({} vs {})",
            with_acks.app_reliability(),
            without_acks.app_reliability()
        );
        assert!(with_acks.app_reliability() > 0.8);
    }

    #[test]
    fn force_ntx_clamps_and_applies() {
        let topo = Topology::kiel_testbed_18(5);
        let mut runner = calm_runner(&topo, &NoInterference, 13);
        runner.force_ntx(20);
        assert_eq!(runner.ntx(), 8);
        runner.force_ntx(0);
        assert_eq!(runner.ntx(), 1);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let topo = Topology::kiel_testbed_18(6);
        let mut a = calm_runner(&topo, &NoInterference, 99);
        let mut b = calm_runner(&topo, &NoInterference, 99);
        assert_eq!(a.run_rounds(5), b.run_rounds(5));
    }

    #[test]
    fn time_advances_by_the_round_period() {
        let topo = Topology::kiel_testbed_18(6);
        let mut runner = calm_runner(&topo, &NoInterference, 1);
        let reports = runner.run_rounds(3);
        assert_eq!(reports[0].time, SimTime::ZERO);
        assert_eq!(reports[1].time, SimTime::from_secs(4));
        assert_eq!(reports[2].time, SimTime::from_secs(8));
    }

    #[test]
    fn static_controller_engine_never_adapts() {
        let topo = Topology::kiel_testbed_18(1);
        let interference = kiel_jamming(0.30);
        let mut engine = RoundEngine::with_controller(
            &topo,
            &interference,
            LwbConfig::testbed_default(),
            DimmerConfig::default().without_adaptivity(),
            StaticNtxController::new(3),
            2,
        );
        for report in engine.run_rounds(8) {
            assert_eq!(report.ntx, 3);
        }
        assert_eq!(engine.ntx(), 3);
        assert_eq!(Simulation::protocol(&engine), "static");
    }

    #[test]
    fn empty_world_script_is_byte_identical_to_no_script() {
        let topo = Topology::kiel_testbed_18(4);
        let interference = kiel_jamming(0.25);
        let mut plain = calm_runner(&topo, &interference, 31);
        let mut scripted =
            calm_runner(&topo, &interference, 31).with_world_script(ScenarioScript::new());
        assert!(scripted.world().is_static());
        assert_eq!(plain.run_rounds(10), scripted.run_rounds(10));
    }

    #[test]
    fn node_churn_flows_into_reports_and_observations() {
        let topo = Topology::kiel_testbed_18(2);
        // 4-second rounds: fail two nodes before round 2, rejoin one before
        // round 5.
        let script = ScenarioScript::new()
            .fail_node(SimTime::from_secs(8), dimmer_sim::NodeId(5))
            .fail_node(SimTime::from_secs(8), dimmer_sim::NodeId(9))
            .rejoin_node(SimTime::from_secs(20), dimmer_sim::NodeId(5));
        let mut runner = calm_runner(&topo, &NoInterference, 3).with_world_script(script);
        let reports = runner.run_rounds(7);
        assert_eq!(reports[0].alive_nodes, 18);
        assert_eq!(reports[1].alive_nodes, 18);
        assert_eq!(reports[2].alive_nodes, 16, "two nodes fail before round 2");
        assert_eq!(reports[4].alive_nodes, 16);
        assert_eq!(reports[5].alive_nodes, 17, "one rejoins before round 5");
        // Dead nodes are neither sources nor destinations: reliability stays
        // high and the round has fewer data slots.
        for r in &reports[2..5] {
            assert!(
                r.reliability > 0.9,
                "round {}: {}",
                r.round_index,
                r.reliability
            );
        }
        assert_eq!(runner.world().alive_count(), 17);
    }

    #[test]
    fn link_drift_to_zero_causes_losses() {
        // Cut every link of node 17 mid-run: its slots and receptions die.
        let topo = Topology::kiel_testbed_18(1);
        let mut script = ScenarioScript::new();
        for other in 0..17u16 {
            script = script.drift_link(
                SimTime::from_secs(8),
                dimmer_sim::NodeId(17),
                dimmer_sim::NodeId(other),
                0.0,
            );
        }
        let mut runner = calm_runner(&topo, &NoInterference, 5).with_world_script(script);
        let before = runner.run_rounds(2);
        let after = runner.run_rounds(3);
        assert!(before.iter().all(|r| r.reliability > 0.98));
        // Node 17 is unreachable but still alive: every one of its
        // (slot, destination) pairs and every slot targeting it misses.
        for r in &after {
            assert!(
                r.reliability < 0.95,
                "round {}: expected losses, got {}",
                r.round_index,
                r.reliability
            );
            assert_eq!(r.alive_nodes, 18, "drift does not change membership");
        }
    }

    #[test]
    fn a_source_whose_flood_never_reaches_the_coordinator_decays_to_pessimistic() {
        // Cut every link of node 17 before round 2: its data floods, and the
        // feedback they carry, never reach the coordinator again. Its view
        // entry survives the two-round staleness limit, then becomes the
        // pessimistic header (0 % reliability, 20 ms radio-on), which the
        // state encodes as -1 in its reliability row and 1 in its radio-on
        // row, worst node first.
        let topo = Topology::kiel_testbed_18(1);
        let mut script = ScenarioScript::new();
        for other in 0..17u16 {
            script = script.drift_link(
                SimTime::from_secs(8),
                dimmer_sim::NodeId(17),
                dimmer_sim::NodeId(other),
                0.0,
            );
        }
        let mut runner = calm_runner(&topo, &NoInterference, 5).with_world_script(script);
        let k = runner.config().k_input_nodes;
        for round in 0..4 {
            runner.run_round();
            let state = runner.current_state();
            assert!(
                state[k..2 * k].iter().all(|&r| r > -1.0),
                "after round {round}: {state:?}"
            );
        }
        runner.run_round();
        let state = runner.current_state();
        assert_eq!((state[0], state[k]), (1.0, -1.0), "{state:?}");
        assert!(state[k + 1] > -1.0, "only node 17 went stale: {state:?}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn world_script_naming_a_node_outside_the_topology_is_refused() {
        // Per-node engine state is sized for the construction topology, and
        // the script is checked against exactly that node set.
        let topo = Topology::kiel_testbed_18(1);
        let script = ScenarioScript::new().drift_link(
            SimTime::from_secs(8),
            dimmer_sim::NodeId(17),
            dimmer_sim::NodeId(18),
            0.9,
        );
        let _ = calm_runner(&topo, &NoInterference, 1).with_world_script(script);
    }

    #[test]
    fn epoch_driver_receives_world_hooks() {
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Seen {
            events: usize,
            alive_calls: usize,
        }
        struct ProbeDriver {
            seen: Rc<RefCell<Seen>>,
        }
        impl EpochDriver for ProbeDriver {
            fn run_epoch(&mut self, sources: &[NodeId], _period: SimDuration) -> EpochOutcome {
                EpochOutcome {
                    offered: sources.len(),
                    delivered: sources.len(),
                    mean_radio_on: SimDuration::from_millis(1),
                    energy_joules: 0.1,
                }
            }
            fn ntx(&self) -> u8 {
                3
            }
            fn world_event(&mut self, _event: &dimmer_sim::WorldEvent) {
                self.seen.borrow_mut().events += 1;
            }
            fn set_alive(&mut self, alive: &[bool]) {
                self.seen.borrow_mut().alive_calls += 1;
                assert_eq!(alive.iter().filter(|&&a| a).count(), 17);
            }
        }

        let topo = Topology::kiel_testbed_18(1);
        let seen = Rc::new(RefCell::new(Seen::default()));
        let script = ScenarioScript::new()
            .fail_node(SimTime::from_secs(4), dimmer_sim::NodeId(3))
            .drift_link(
                SimTime::from_secs(4),
                dimmer_sim::NodeId(1),
                dimmer_sim::NodeId(2),
                0.5,
            );
        let mut engine = RoundEngine::with_epoch_driver(
            &topo,
            LwbConfig::testbed_default(),
            DimmerConfig::default(),
            StaticNtxController::new(3),
            Box::new(ProbeDriver {
                seen: Rc::clone(&seen),
            }),
            1,
        )
        .with_world_script(script);
        let reports = engine.run_rounds(3);
        assert_eq!(seen.borrow().events, 2, "both events forwarded");
        assert_eq!(seen.borrow().alive_calls, 1, "one membership change");
        assert_eq!(reports[0].alive_nodes, 18);
        assert_eq!(reports[1].alive_nodes, 17);
    }

    #[test]
    fn set_ntx_and_force_ntx_leave_an_epoch_backend_ntx_unchanged() {
        // The driver steers its own flood N_TX (one more every epoch);
        // neither the controller's `SetNtx(2)` nor `force_ntx(8)` lands on it.
        struct SteppingDriver {
            epochs: u8,
        }
        impl EpochDriver for SteppingDriver {
            fn run_epoch(&mut self, sources: &[NodeId], _period: SimDuration) -> EpochOutcome {
                self.epochs += 1;
                EpochOutcome {
                    offered: sources.len(),
                    delivered: sources.len(),
                    mean_radio_on: SimDuration::from_millis(1),
                    energy_joules: 0.1,
                }
            }
            fn ntx(&self) -> u8 {
                3 + self.epochs
            }
        }

        let topo = Topology::kiel_testbed_18(1);
        let mut engine = RoundEngine::with_epoch_driver(
            &topo,
            LwbConfig::testbed_default(),
            DimmerConfig::default(),
            StaticNtxController::new(2),
            Box::new(SteppingDriver { epochs: 0 }),
            1,
        );
        for epoch in 1..=4u8 {
            engine.force_ntx(8);
            assert_eq!(engine.ntx(), 2 + epoch, "force_ntx was applied");
            let report = engine.run_round();
            assert_eq!(report.ntx, 3 + epoch, "the report carries the epoch's N_TX");
            assert_eq!(engine.ntx(), 3 + epoch, "SetNtx was applied");
        }
    }

    #[test]
    fn simulation_facade_matches_inherent_methods() {
        let topo = Topology::kiel_testbed_18(4);
        let mut direct = calm_runner(&topo, &NoInterference, 21);
        let mut boxed: Box<dyn Simulation + '_> = Box::new(calm_runner(&topo, &NoInterference, 21));
        let a = direct.run_rounds(5);
        let b = boxed.run_rounds(5);
        assert_eq!(a, b);
        assert_eq!(direct.ntx(), boxed.ntx());
        assert_eq!(direct.rounds_run(), boxed.rounds_run());
        assert_eq!(direct.app_reliability(), boxed.app_reliability());
        assert_eq!(direct.total_energy_joules(), boxed.total_energy_joules());
        assert_eq!(boxed.protocol(), "dimmer-rule");
    }
}

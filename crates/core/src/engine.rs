//! The generic round engine: one LWB round loop for every protocol.
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
//! Per LWB round the engine
//!
//! 1. decides whether the network is in *adaptivity* mode (interference seen
//!    recently → all devices forward with the global `N_TX`) or in
//!    *forwarder-selection* mode (calm → the token-holding device may try
//!    passivity),
//! 2. builds the LWB schedule for the round's sources,
//! 3. executes the round over the simulated substrate,
//! 4. ingests the statistics every node collected, propagates the 2-byte
//!    feedback headers that actually reached the coordinator into its
//!    [`GlobalView`], and
//! 5. hands a [`RoundObservation`] to the controller and applies its
//!    [`ControlDecision`] to the next round.
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
use crate::state::StateBuilder;
use crate::stats::{GlobalView, StatisticsCollector};
use dimmer_glossy::NtxAssignment;
use dimmer_lwb::{LwbConfig, LwbScheduler, RoundExecutor, RoundOutcome, TrafficPattern};
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
    /// The global `N_TX` in effect during the round.
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

/// The LWB-round execution state (schedule, substrate, feedback pipeline).
struct LwbBackend<'a> {
    executor: RoundExecutor<'a>,
    scheduler: LwbScheduler,
    stats: StatisticsCollector,
    view: GlobalView,
    state_builder: StateBuilder,
    forwarder: ForwarderSelection,
    calm_rounds: usize,
    pending: Vec<PendingPacket>,
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
/// `SimulationBuilder`/protocol registry in `dimmer-baselines`.
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
    ntx: u8,
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
            executor: RoundExecutor::new(topology, interference, lwb_config.clone()),
            scheduler: LwbScheduler::new(lwb_config.clone()),
            stats: StatisticsCollector::new(num_nodes, crate::stats::DEFAULT_STATS_WINDOW),
            view: GlobalView::new(num_nodes),
            state_builder: StateBuilder::new(config.clone()),
            forwarder: ForwarderSelection::new(
                num_nodes,
                topology.coordinator(),
                config.forwarder.clone(),
                seed ^ 0xF0,
            ),
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
        backend: Backend<'a>,
        rng: SimRng,
    ) -> Self {
        let mut ntx = config.initial_ntx;
        if let Some(override_ntx) = controller.warmup(&config) {
            ntx = override_ntx.clamp(config.n_min, config.n_max);
        }
        RoundEngine {
            topology,
            node_ids: topology.node_ids().collect(),
            traffic: TrafficPattern::AllToAll,
            controller,
            backend,
            world: World::static_world(topology.num_nodes(), topology.coordinator()),
            ntx,
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
    /// coordinator, or contains malformed topology swaps (see
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
            Backend::Lwb(_) => self.ntx,
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

    /// The coordinator's current global view (`None` for epoch-driven
    /// protocols, which have no LWB feedback pipeline).
    pub fn global_view(&self) -> Option<&GlobalView> {
        match &self.backend {
            Backend::Lwb(lwb) => Some(&lwb.view),
            Backend::Epoch(_) => None,
        }
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

    /// Executes one round (or one epoch, for epoch-driven protocols) and
    /// advances simulated time by the LWB round period.
    pub fn run_round(&mut self) -> DimmerRoundReport {
        match self.backend {
            Backend::Lwb(_) => self.run_lwb_round(),
            Backend::Epoch(_) => self.run_epoch_round(),
        }
    }

    /// Applies an external adaptivity decision instead of the controller for
    /// the *next* round (how `SimEnvironment` applies an agent's action).
    /// No effect on epoch-driven protocols, whose drivers steer their own
    /// retransmissions.
    pub fn force_ntx(&mut self, ntx: u8) {
        self.ntx = ntx.clamp(self.config.n_min, self.config.n_max);
    }

    /// Resets the controller's internal state (see [`Controller::reset`]).
    pub fn reset_controller(&mut self) {
        self.controller.reset();
    }

    /// The Table-I state vector the policy sees for the current view and
    /// `N_TX` (useful for debugging and offline analysis; empty for
    /// epoch-driven protocols).
    pub fn current_state(&self) -> Vec<f32> {
        match &self.backend {
            Backend::Lwb(lwb) => lwb.state_builder.build(&lwb.view, self.ntx),
            Backend::Epoch(_) => Vec::new(),
        }
    }

    fn run_lwb_round(&mut self) -> DimmerRoundReport {
        // 0. Advance the dynamic world to the round's start time: scripted
        //    events with timestamps <= now fire between rounds, patching the
        //    compiled substrate and the membership mask before anything
        //    transmits.
        let update = self.world.advance_to(self.now);
        let Backend::Lwb(lwb) = &mut self.backend else {
            // lint: allow(P002) -- run_round dispatches on the backend variant; this arm is the LWB one
            unreachable!("run_lwb_round on a non-LWB backend");
        };
        if update.topology_changed {
            for (_, event) in self.world.events_in(update.fired.clone()) {
                if event.is_topology_event() {
                    lwb.executor.apply_world_event(event);
                }
            }
        }
        if update.membership_changed() {
            lwb.executor.set_alive(self.world.alive());
        }

        // 1. Mode selection: calm networks hand control to the forwarder
        //    selection; any recent loss keeps (or puts back) every device in
        //    forwarding mode under the central adaptivity.
        let forwarder_mode = self.config.forwarder.enabled
            && lwb.calm_rounds >= self.config.forwarder.calm_rounds_threshold;
        let mode = if forwarder_mode {
            RoundMode::ForwarderSelection
        } else {
            RoundMode::Adaptivity
        };

        // 2. Sources for this round: fresh traffic plus (with ACKs) pending
        //    retransmissions. The schedule skips failed nodes — a dead node
        //    cannot source a slot (its pending retransmissions resume when
        //    it rejoins).
        let mut sources = self
            .traffic
            .sources_for_round(&self.node_ids, &mut self.rng);
        if !self.world.is_static() {
            sources.retain(|s| self.world.is_alive(*s));
        }
        let fresh_sources = sources.clone();
        if self.config.acknowledgements {
            for p in &lwb.pending {
                if self.world.is_alive(p.source) && !sources.contains(&p.source) {
                    sources.push(p.source);
                }
            }
        }

        // 3. N_TX assignment.
        let assignment = if mode == RoundMode::ForwarderSelection {
            lwb.forwarder.begin_round();
            lwb.forwarder.assignment(self.ntx)
        } else {
            NtxAssignment::Uniform(self.ntx)
        };

        // 4. Execute the round.
        let feedback_before = lwb.stats.feedback();
        let schedule = lwb.scheduler.next_schedule(&sources, assignment);
        let round = lwb.executor.run_round(&schedule, self.now, &mut self.rng);

        // 5. Statistics and feedback propagation. A node's feedback reaches
        //    the coordinator only if its data-slot flood did.
        lwb.stats.ingest_round(&round);
        let coordinator = self.topology.coordinator();
        for slot in round.data_slots() {
            if slot.flood.received(coordinator) {
                lwb.view
                    .update(slot.source, feedback_before[slot.source.index()]);
            }
        }
        lwb.view.mark_round();

        // 6. Round-level outcome metrics.
        let (reliability, losses) = match self.traffic.sink() {
            Some(sink) => {
                let r = round.sink_reliability(sink);
                let missed = round
                    .data_slots()
                    .iter()
                    .filter(|s| s.source != sink && !s.flood.received(sink))
                    .count();
                (r, missed)
            }
            None => (round.broadcast_reliability(), round.losses()),
        };
        let had_losses = losses > 0;
        let round_reward = reward(
            !had_losses,
            self.ntx,
            self.config.n_max,
            self.config.reward_c,
        );
        let energy = round_energy(self.topology, &round);
        self.total_energy_joules += energy;
        // Interference detection: a round counts as calm if essentially every
        // destination was served; isolated transient misses do not push the
        // network back into all-forwarders mode.
        let calm = reliability >= 0.995;
        lwb.calm_rounds = if calm { lwb.calm_rounds + 1 } else { 0 };

        // 7. Application-layer delivery tracking (ACK mode).
        let (generated, delivered) = track_delivery(
            self.topology,
            &self.config,
            &self.traffic,
            self.world.alive(),
            &mut lwb.pending,
            &mut self.total_generated,
            &mut self.total_delivered,
            &round,
            &fresh_sources,
        );

        // 8. Learn / adapt for the next round.
        let active_forwarders = match mode {
            RoundMode::ForwarderSelection => {
                let forwarders = lwb.forwarder.active_forwarders();
                lwb.forwarder.end_round(had_losses);
                if !calm {
                    // Interference returned: every device becomes a forwarder
                    // again and the controller takes over next round.
                    lwb.forwarder.reset_roles();
                }
                forwarders
            }
            RoundMode::Adaptivity => self.world.alive_count(),
        };
        lwb.state_builder.record_history(had_losses);
        // The coordinator executes its policy after every round, even while
        // the forwarder selection experiments: N_TX must still converge back
        // to its calm setpoint after interference passes (Fig. 4c).
        let state: Vec<f32> = if self.controller.wants_state() {
            lwb.state_builder.build(&lwb.view, self.ntx)
        } else {
            Vec::new()
        };
        let observation = RoundObservation {
            round_index: round.round_index(),
            mode,
            ntx: self.ntx,
            reliability,
            losses,
            mean_radio_on: round.mean_radio_on_per_slot(),
            energy_joules: energy,
            alive_nodes: self.world.alive_count(),
            failed_nodes: update.failed,
            rejoined_nodes: update.rejoined,
            state: &state,
        };
        match self.controller.observe(&observation) {
            ControlDecision::SetNtx(n) => {
                self.ntx = n.clamp(self.config.n_min, self.config.n_max);
            }
            ControlDecision::Hold => {}
        }

        let report = DimmerRoundReport {
            round_index: round.round_index(),
            time: self.now,
            mode,
            ntx: match round.schedule().ntx() {
                NtxAssignment::Uniform(n) => *n,
                NtxAssignment::PerNode(_) => self.ntx,
            },
            reliability,
            mean_radio_on: round.mean_radio_on_per_slot(),
            losses,
            reward: round_reward,
            active_forwarders,
            energy_joules: energy,
            packets_generated: generated,
            packets_delivered: delivered,
            alive_nodes: self.world.alive_count(),
        };

        self.now += self.lwb_config.round_period;
        self.rounds_run += 1;
        report
    }

    fn run_epoch_round(&mut self) -> DimmerRoundReport {
        // Advance the dynamic world and hand every fired event to the
        // driver (it owns its substrate), exactly like the LWB path.
        let update = self.world.advance_to(self.now);
        let Backend::Epoch(driver) = &mut self.backend else {
            // lint: allow(P002) -- run_round dispatches on the backend variant; this arm is the epoch one
            unreachable!("run_epoch_round on a non-epoch backend");
        };
        if !update.is_empty() {
            for (_, event) in self.world.events_in(update.fired.clone()) {
                driver.world_event(event);
            }
            if update.membership_changed() {
                driver.set_alive(self.world.alive());
            }
        }
        let mut sources = self
            .traffic
            .sources_for_round(&self.node_ids, &mut self.rng);
        if !self.world.is_static() {
            sources.retain(|s| self.world.is_alive(*s));
        }
        let period = self.lwb_config.round_period;
        let outcome = driver.run_epoch(&sources, period);
        let ntx = driver.ntx();

        let reliability = if outcome.offered == 0 {
            1.0
        } else {
            outcome.delivered as f64 / outcome.offered as f64
        };
        let losses = outcome.offered.saturating_sub(outcome.delivered);
        self.total_energy_joules += outcome.energy_joules;
        self.total_generated += outcome.offered;
        self.total_delivered += outcome.delivered;

        let observation = RoundObservation {
            round_index: self.rounds_run,
            mode: RoundMode::Adaptivity,
            ntx,
            reliability,
            losses,
            mean_radio_on: outcome.mean_radio_on,
            energy_joules: outcome.energy_joules,
            alive_nodes: self.world.alive_count(),
            failed_nodes: update.failed,
            rejoined_nodes: update.rejoined,
            state: &[],
        };
        // Epoch drivers steer their own retransmissions inside each epoch;
        // there is no engine-level N_TX for the decision to land on, so it
        // is observed (for controller-side bookkeeping) but not applied.
        let _ = self.controller.observe(&observation);

        let report = DimmerRoundReport {
            round_index: self.rounds_run,
            time: self.now,
            mode: RoundMode::Adaptivity,
            ntx,
            reliability,
            mean_radio_on: outcome.mean_radio_on,
            losses,
            reward: reward(losses == 0, ntx, self.config.n_max, self.config.reward_c),
            active_forwarders: self.world.alive_count(),
            energy_joules: outcome.energy_joules,
            packets_generated: outcome.offered,
            packets_delivered: outcome.delivered,
            alive_nodes: self.world.alive_count(),
        };

        self.now += period;
        self.rounds_run += 1;
        report
    }
}

fn round_energy(topology: &Topology, round: &RoundOutcome) -> f64 {
    topology
        .node_ids()
        .map(|n| round.node_round_radio(n).energy_joules())
        .sum()
}

#[allow(clippy::too_many_arguments)]
fn track_delivery(
    topology: &Topology,
    config: &DimmerConfig,
    traffic: &TrafficPattern,
    alive: &[bool],
    pending: &mut Vec<PendingPacket>,
    total_generated: &mut usize,
    total_delivered: &mut usize,
    round: &RoundOutcome,
    fresh_sources: &[NodeId],
) -> (usize, usize) {
    let sink = match traffic.sink() {
        Some(s) => s,
        None => {
            // Broadcast traffic: count a packet as delivered if every
            // alive destination received it; no retransmissions.
            let mut generated = 0;
            let mut delivered = 0;
            for slot in round.data_slots() {
                generated += 1;
                let all = topology
                    .node_ids()
                    .filter(|&n| n != slot.source && alive[n.index()])
                    .all(|n| slot.flood.received(n));
                if all {
                    delivered += 1;
                }
            }
            *total_generated += generated;
            *total_delivered += delivered;
            return (generated, delivered);
        }
    };

    let mut generated = 0;
    let mut delivered = 0;
    for slot in round.data_slots() {
        let ok = slot.source == sink || slot.flood.received(sink);
        let was_pending = pending.iter().position(|p| p.source == slot.source);
        let is_fresh = fresh_sources.contains(&slot.source);
        if is_fresh && was_pending.is_none() {
            generated += 1;
            *total_generated += 1;
        }
        if ok {
            delivered += 1;
            *total_delivered += 1;
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

/// Object-safe facade over [`RoundEngine`]: what every protocol looks like
/// to a registry or experiment grid, independent of its controller type.
pub trait Simulation {
    /// Executes one round (or epoch) and reports it.
    fn run_round(&mut self) -> DimmerRoundReport;

    /// Runs `count` consecutive rounds and returns their reports.
    fn run_rounds(&mut self, count: usize) -> Vec<DimmerRoundReport> {
        (0..count).map(|_| self.run_round()).collect()
    }

    /// The registry-style name of the protocol's controller.
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
    use dimmer_sim::{NoInterference, PeriodicJammer, ScheduledInterference};

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
        let mut interference = dimmer_sim::CompositeInterference::new();
        for j in PeriodicJammer::kiel_pair(0.35) {
            interference.push(Box::new(j));
        }
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
        let mut interference = dimmer_sim::CompositeInterference::new();
        for j in PeriodicJammer::kiel_pair(0.30) {
            interference.push(Box::new(j));
        }
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
        let mut interference = dimmer_sim::CompositeInterference::new();
        for j in PeriodicJammer::kiel_pair(0.25) {
            interference.push(Box::new(j));
        }
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

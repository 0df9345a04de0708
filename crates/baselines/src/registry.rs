//! The fluent [`SimulationBuilder`] and the string-keyed protocol registry.
//!
//! Every protocol of the paper's evaluation — and any future baseline — is
//! reachable through one door: describe the scenario with a
//! [`SimulationBuilder`] (topology, interference, traffic, seed, configs),
//! then either plug in a concrete [`Controller`] with
//! [`SimulationBuilder::build`] or ask the registry for a protocol by name
//! with [`SimulationBuilder::build_protocol`]:
//!
//! | Key           | Protocol                                              |
//! |---------------|-------------------------------------------------------|
//! | `dimmer-dqn`  | Dimmer with the builder's policy (pretrained DQN by default) |
//! | `dimmer-rule` | Dimmer with the hand-written rule-based policy        |
//! | `pid`         | LWB driven by the tuned PI(D) controller              |
//! | `static`      | Plain LWB at a fixed `N_TX` (default 3)               |
//! | `crystal`     | The Crystal epoch protocol via the engine's epoch adapter |
//! | `dimmer-zoo`  | Per-family DQN zoo selected online by an EXP3 meta-controller |
//!
//! The registry is the single source of protocol names for the experiment
//! binaries' `--protocols` flag, and [`ProtocolRegistry::register`] lets
//! downstream code add its own controllers without touching this crate.
//!
//! # Examples
//!
//! ```
//! use dimmer_baselines::SimulationBuilder;
//! use dimmer_sim::Topology;
//!
//! let topo = Topology::kiel_testbed_18(1);
//! let mut sim = SimulationBuilder::new(&topo)
//!     .seed(42)
//!     .build_protocol("pid")
//!     .unwrap();
//! let reports = sim.run_rounds(5);
//! assert_eq!(reports.len(), 5);
//! assert_eq!(sim.protocol(), "pid");
//! ```

use crate::crystal::{CrystalConfig, CrystalControl, CrystalRunner};
use crate::pid::PidController;
use dimmer_core::{
    AdaptivityController, AdaptivityPolicy, Controller, DimmerConfig, RoundEngine, Simulation,
    StaticNtxController,
};
use dimmer_lwb::{LwbConfig, TrafficPattern};
use dimmer_sim::{InterferenceModel, NoInterference, ScenarioScript, Topology};

/// Fluent description of one simulation: the substrate (topology,
/// interference), the workload (traffic), the protocol configurations and
/// the seed. Finish with [`build`](Self::build) (explicit controller) or
/// [`build_protocol`](Self::build_protocol) (registry name).
#[derive(Clone)]
pub struct SimulationBuilder<'a> {
    topology: &'a Topology,
    interference: &'a dyn InterferenceModel,
    lwb_config: LwbConfig,
    dimmer_config: DimmerConfig,
    crystal_config: CrystalConfig,
    pid: PidController,
    static_ntx: u8,
    policy: Option<AdaptivityPolicy>,
    traffic: TrafficPattern,
    script: ScenarioScript,
    seed: u64,
}

impl<'a> SimulationBuilder<'a> {
    /// Starts a builder over `topology` with the testbed defaults: no
    /// interference, all-to-all broadcast traffic, default Dimmer/LWB
    /// configurations, seed 1.
    pub fn new(topology: &'a Topology) -> Self {
        SimulationBuilder {
            topology,
            interference: &NoInterference,
            lwb_config: LwbConfig::testbed_default(),
            dimmer_config: DimmerConfig::default(),
            crystal_config: CrystalConfig::ewsn2019(),
            pid: PidController::paper_pi(),
            static_ntx: 3,
            policy: None,
            traffic: TrafficPattern::AllToAll,
            script: ScenarioScript::new(),
            seed: 1,
        }
    }

    /// Sets the interference model the simulation runs under.
    pub fn interference(mut self, interference: &'a dyn InterferenceModel) -> Self {
        self.interference = interference;
        self
    }

    /// Sets the LWB configuration (round period, slots, channel hopping).
    pub fn lwb_config(mut self, config: LwbConfig) -> Self {
        self.lwb_config = config;
        self
    }

    /// Sets the Dimmer configuration (state layout, `N_TX` range, ACKs,
    /// forwarder selection).
    pub fn dimmer_config(mut self, config: DimmerConfig) -> Self {
        self.dimmer_config = config;
        self
    }

    /// Sets the Crystal configuration used by the `"crystal"` protocol.
    pub fn crystal_config(mut self, config: CrystalConfig) -> Self {
        self.crystal_config = config;
        self
    }

    /// Sets the PI(D) gains used by the `"pid"` protocol.
    pub fn pid(mut self, pid: PidController) -> Self {
        self.pid = pid;
        self
    }

    /// Sets the fixed `N_TX` used by the `"static"` protocol (paper: 3).
    pub fn static_ntx(mut self, ntx: u8) -> Self {
        self.static_ntx = ntx;
        self
    }

    /// Sets the adaptivity policy used by the `"dimmer-dqn"` protocol.
    /// Without this, `"dimmer-dqn"` falls back to the pretrained network
    /// shipped with `dimmer-core` (or its rule-based fallback).
    pub fn policy(mut self, policy: AdaptivityPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Sets the traffic pattern (default: all-to-all broadcast).
    pub fn traffic(mut self, traffic: TrafficPattern) -> Self {
        self.traffic = traffic;
        self
    }

    /// Installs a dynamic-world scenario script (node churn, link drift,
    /// topology swaps), applied between rounds by every protocol built from
    /// this builder. The default is the empty script — a static world,
    /// byte-for-byte identical to runs without one.
    pub fn script(mut self, script: ScenarioScript) -> Self {
        self.script = script;
        self
    }

    /// Sets the seed all of the simulation's randomness derives from.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The Dimmer configuration with the input-node count clamped to the
    /// topology size, so DQN state layouts stay valid on small topologies.
    fn normalized_config(&self) -> DimmerConfig {
        let k = self
            .dimmer_config
            .k_input_nodes
            .min(self.topology.num_nodes());
        self.dimmer_config.clone().with_k_input_nodes(k)
    }

    /// The normalized configuration with central adaptivity and forwarder
    /// selection disabled — the substrate settings the non-Dimmer baselines
    /// have always run on.
    fn baseline_config(&self) -> DimmerConfig {
        let mut cfg = self.normalized_config().without_adaptivity();
        cfg.forwarder.enabled = false;
        cfg
    }

    /// Builds a [`RoundEngine`] driven by an explicit `controller`.
    pub fn build<C: Controller>(self, controller: C) -> RoundEngine<'a, C> {
        let cfg = self.normalized_config();
        RoundEngine::with_controller(
            self.topology,
            self.interference,
            self.lwb_config,
            cfg,
            controller,
            self.seed,
        )
        .with_traffic(self.traffic)
        .with_world_script(self.script)
    }

    /// Builds the protocol registered under `name` in the
    /// [standard registry](ProtocolRegistry::standard).
    pub fn build_protocol(
        self,
        name: &str,
    ) -> Result<Box<dyn Simulation + 'a>, UnknownProtocolError> {
        ProtocolRegistry::standard().build(name, self)
    }
}

/// Error returned when a protocol name is not in the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownProtocolError {
    /// The name that was requested.
    pub requested: String,
    /// Every name the registry knows.
    pub known: Vec<&'static str>,
}

impl std::fmt::Display for UnknownProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown protocol '{}' (known: {})",
            self.requested,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownProtocolError {}

/// Constructor of one registered protocol.
pub type ProtocolBuildFn = for<'a> fn(SimulationBuilder<'a>) -> Box<dyn Simulation + 'a>;

/// One entry of the [`ProtocolRegistry`].
pub struct ProtocolEntry {
    /// Registry key (the value of the binaries' `--protocols` flag).
    pub name: &'static str,
    /// One-line description shown by help text and docs.
    pub summary: &'static str,
    build: ProtocolBuildFn,
}

/// String-keyed catalogue of every protocol the engine can run.
pub struct ProtocolRegistry {
    entries: Vec<ProtocolEntry>,
}

impl ProtocolRegistry {
    /// An empty registry (extend it with [`register`](Self::register)).
    pub fn new() -> Self {
        ProtocolRegistry {
            entries: Vec::new(),
        }
    }

    /// The standard registry holding the paper's four protocols (with the
    /// Dimmer adaptivity in both its DQN and rule-based form).
    pub fn standard() -> Self {
        let mut reg = Self::new();
        reg.register(
            "dimmer-dqn",
            "Dimmer with the builder's adaptivity policy (pretrained DQN by default)",
            build_dimmer_dqn,
        );
        reg.register(
            "dimmer-rule",
            "Dimmer with the hand-written rule-based adaptivity policy",
            build_dimmer_rule,
        );
        reg.register(
            "pid",
            "LWB driven by the tuned PI(D) controller baseline",
            build_pid,
        );
        reg.register(
            "static",
            "Plain LWB at a fixed N_TX (no adaptation)",
            build_static,
        );
        reg.register(
            "crystal",
            "Crystal's TA-pair epochs via the engine's epoch adapter",
            build_crystal,
        );
        reg.register(
            "dimmer-zoo",
            "Per-family DQN zoo selected online by an EXP3 meta-controller",
            build_dimmer_zoo,
        );
        reg
    }

    /// Adds (or replaces) a protocol under `name`.
    pub fn register(&mut self, name: &'static str, summary: &'static str, build: ProtocolBuildFn) {
        self.entries.retain(|e| e.name != name);
        self.entries.push(ProtocolEntry {
            name,
            summary,
            build,
        });
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// The registered entries, in registration order.
    pub fn entries(&self) -> &[ProtocolEntry] {
        &self.entries
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|e| e.name == name)
    }

    /// Builds the protocol registered under `name` from `builder`.
    pub fn build<'a>(
        &self,
        name: &str,
        builder: SimulationBuilder<'a>,
    ) -> Result<Box<dyn Simulation + 'a>, UnknownProtocolError> {
        match self.entries.iter().find(|e| e.name == name) {
            Some(entry) => Ok((entry.build)(builder)),
            None => Err(UnknownProtocolError {
                requested: name.to_string(),
                known: self.names(),
            }),
        }
    }
}

impl Default for ProtocolRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

fn build_adaptivity<'a>(
    builder: SimulationBuilder<'a>,
    policy: AdaptivityPolicy,
) -> Box<dyn Simulation + 'a> {
    let cfg = builder.normalized_config();
    let controller = AdaptivityController::new(policy, cfg.clone());
    Box::new(
        RoundEngine::with_controller(
            builder.topology,
            builder.interference,
            builder.lwb_config,
            cfg,
            controller,
            builder.seed,
        )
        .with_traffic(builder.traffic)
        .with_world_script(builder.script),
    )
}

fn build_dimmer_dqn<'a>(builder: SimulationBuilder<'a>) -> Box<dyn Simulation + 'a> {
    let policy = builder
        .policy
        .clone()
        .unwrap_or_else(dimmer_core::pretrained::pretrained_policy);
    build_adaptivity(builder, policy)
}

fn build_dimmer_rule<'a>(builder: SimulationBuilder<'a>) -> Box<dyn Simulation + 'a> {
    build_adaptivity(builder, AdaptivityPolicy::rule_based())
}

fn build_pid<'a>(builder: SimulationBuilder<'a>) -> Box<dyn Simulation + 'a> {
    let cfg = builder.baseline_config();
    Box::new(
        RoundEngine::with_controller(
            builder.topology,
            builder.interference,
            builder.lwb_config,
            cfg,
            builder.pid.clone(),
            builder.seed,
        )
        .with_traffic(builder.traffic)
        .with_world_script(builder.script),
    )
}

fn build_static<'a>(builder: SimulationBuilder<'a>) -> Box<dyn Simulation + 'a> {
    let mut cfg = builder.baseline_config();
    cfg.initial_ntx = builder.static_ntx.clamp(cfg.n_min, cfg.n_max);
    Box::new(
        RoundEngine::with_controller(
            builder.topology,
            builder.interference,
            builder.lwb_config,
            cfg,
            StaticNtxController::new(builder.static_ntx),
            builder.seed,
        )
        .with_traffic(builder.traffic)
        .with_world_script(builder.script),
    )
}

fn build_dimmer_zoo<'a>(builder: SimulationBuilder<'a>) -> Box<dyn Simulation + 'a> {
    // The zoo brings its own per-family policies; the builder's single
    // `policy` override (which every harness passes for `dimmer-dqn`) is
    // deliberately ignored. The meta-controller's arm draws come from an
    // engine-external RNG derived from the builder seed.
    let cfg = builder.normalized_config();
    let controller = dimmer_core::ZooController::standard(cfg.clone());
    Box::new(
        RoundEngine::with_controller(
            builder.topology,
            builder.interference,
            builder.lwb_config,
            cfg,
            controller,
            builder.seed,
        )
        .with_traffic(builder.traffic)
        .with_world_script(builder.script),
    )
}

fn build_crystal<'a>(builder: SimulationBuilder<'a>) -> Box<dyn Simulation + 'a> {
    let sink = builder
        .traffic
        .sink()
        .unwrap_or_else(|| builder.topology.coordinator());
    // World validation only protects the topology coordinator; Crystal's
    // sink may be a different node, so reject sink-killing scripts here,
    // at construction time, instead of panicking rounds into the run.
    assert!(
        !builder
            .script
            .events()
            .iter()
            .any(|(_, e)| matches!(e, dimmer_sim::WorldEvent::NodeFail(n) if *n == sink)),
        "the Crystal sink cannot fail (scripted NodeFail({sink}))"
    );
    let driver = Box::new(CrystalRunner::new(
        builder.topology,
        builder.interference,
        builder.crystal_config.clone(),
        sink,
        builder.seed,
    ));
    let cfg = builder.normalized_config();
    Box::new(
        RoundEngine::with_epoch_driver(
            builder.topology,
            builder.lwb_config,
            cfg,
            CrystalControl,
            driver,
            builder.seed,
        )
        .with_traffic(builder.traffic)
        .with_world_script(builder.script),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimmer_sim::SimDuration;

    #[test]
    fn standard_registry_lists_the_paper_protocols() {
        let reg = ProtocolRegistry::standard();
        assert_eq!(
            reg.names(),
            vec![
                "dimmer-dqn",
                "dimmer-rule",
                "pid",
                "static",
                "crystal",
                "dimmer-zoo"
            ]
        );
        assert!(reg.contains("pid"));
        assert!(!reg.contains("lwb"));
        assert!(reg.entries().iter().all(|e| !e.summary.is_empty()));
    }

    #[test]
    fn unknown_protocol_reports_the_known_names() {
        let topo = Topology::kiel_testbed_18(1);
        let err = SimulationBuilder::new(&topo)
            .build_protocol("carrier-pigeon")
            .err()
            .expect("unknown name must fail");
        assert_eq!(err.requested, "carrier-pigeon");
        assert!(err.known.contains(&"crystal"));
        assert!(err.to_string().contains("carrier-pigeon"));
    }

    #[test]
    fn every_registered_protocol_constructs_and_runs() {
        let topo = Topology::kiel_testbed_18(1);
        for name in ProtocolRegistry::standard().names() {
            let mut sim = SimulationBuilder::new(&topo)
                .policy(AdaptivityPolicy::rule_based())
                .seed(3)
                .build_protocol(name)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let reports = sim.run_rounds(3);
            assert_eq!(reports.len(), 3, "{name}");
            assert_eq!(sim.rounds_run(), 3, "{name}");
            for r in &reports {
                assert!((0.0..=1.0).contains(&r.reliability), "{name}");
                assert!(r.energy_joules >= 0.0, "{name}");
            }
        }
    }

    #[test]
    fn builder_clamps_the_input_nodes_to_the_topology() {
        let topo = Topology::grid(3, 3, 8.0, 1);
        let mut sim = SimulationBuilder::new(&topo)
            .policy(AdaptivityPolicy::rule_based())
            .build_protocol("dimmer-dqn")
            .unwrap();
        // Without the clamp the 10-node state layout would panic on the
        // 9-node grid.
        let reports = sim.run_rounds(2);
        assert_eq!(reports.len(), 2);
    }

    #[test]
    fn registry_can_be_extended_with_custom_protocols() {
        fn build_fixed<'a>(builder: SimulationBuilder<'a>) -> Box<dyn Simulation + 'a> {
            let cfg = builder.baseline_config();
            Box::new(
                RoundEngine::with_controller(
                    builder.topology,
                    builder.interference,
                    builder.lwb_config,
                    cfg,
                    StaticNtxController::new(5),
                    builder.seed,
                )
                .with_traffic(builder.traffic),
            )
        }
        let mut reg = ProtocolRegistry::standard();
        reg.register("static-5", "LWB pinned at N_TX = 5", build_fixed);
        let topo = Topology::kiel_testbed_18(1);
        let mut sim = reg
            .build("static-5", SimulationBuilder::new(&topo))
            .unwrap();
        assert_eq!(sim.run_rounds(2).len(), 2);
        assert_eq!(sim.ntx(), 5);
    }

    #[test]
    fn every_protocol_runs_a_churn_script_through_the_builder() {
        use dimmer_sim::{NodeId, SimTime};
        let topo = Topology::kiel_testbed_18(1);
        // 4-second rounds: two nodes fail before round 1, one rejoins
        // before round 3.
        let script = ScenarioScript::new()
            .fail_node(SimTime::from_secs(4), NodeId(6))
            .fail_node(SimTime::from_secs(4), NodeId(11))
            .rejoin_node(SimTime::from_secs(12), NodeId(6));
        for name in ProtocolRegistry::standard().names() {
            let mut sim = SimulationBuilder::new(&topo)
                .policy(AdaptivityPolicy::rule_based())
                .script(script.clone())
                .seed(5)
                .build_protocol(name)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let reports = sim.run_rounds(4);
            assert_eq!(reports[0].alive_nodes, 18, "{name}");
            assert_eq!(reports[1].alive_nodes, 16, "{name}");
            assert_eq!(reports[3].alive_nodes, 17, "{name}");
            for r in &reports {
                assert!((0.0..=1.0).contains(&r.reliability), "{name}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "sink cannot fail")]
    fn crystal_rejects_sink_killing_scripts_at_construction() {
        use dimmer_sim::{NodeId, SimTime};
        let topo = Topology::dcube_48(1);
        let sink = NodeId(7);
        let traffic = TrafficPattern::dcube_collection(48, 5, sink);
        // The sink is not the coordinator, so World validation alone would
        // let this through and the run would panic rounds later.
        let _ = SimulationBuilder::new(&topo)
            .traffic(traffic)
            .script(ScenarioScript::new().fail_node(SimTime::from_secs(40), sink))
            .build_protocol("crystal");
    }

    #[test]
    fn crystal_protocol_tracks_collection_reliability() {
        let topo = Topology::dcube_48(1);
        let traffic = TrafficPattern::dcube_collection(48, 5, topo.coordinator());
        // A non-default flood N_TX pins ntx() and the reports to the
        // driver's value rather than the engine-level parameter.
        let crystal_config = CrystalConfig {
            flood_ntx: 5,
            ..CrystalConfig::ewsn2019()
        };
        let mut sim = SimulationBuilder::new(&topo)
            .lwb_config(LwbConfig::dcube_default())
            .crystal_config(crystal_config)
            .traffic(traffic)
            .seed(9)
            .build_protocol("crystal")
            .unwrap();
        let reports = sim.run_rounds(5);
        assert_eq!(sim.protocol(), "crystal");
        assert_eq!(sim.ntx(), 5, "ntx() reflects the epoch driver");
        assert!(reports.iter().all(|r| r.ntx == 5));
        assert!(sim.app_reliability() > 0.9);
        assert!(sim.total_energy_joules() > 0.0);
        assert!(reports
            .iter()
            .all(|r| r.mean_radio_on <= SimDuration::from_millis(20)));
    }

    /// The testbed's two-jammer pair at `duty`.
    fn jammers(duty: f64) -> dimmer_sim::CompositeInterference {
        let mut interference = dimmer_sim::CompositeInterference::new();
        for j in dimmer_sim::PeriodicJammer::kiel_pair(duty) {
            interference.push(Box::new(j));
        }
        interference
    }

    /// Mean reliability of `rounds` rounds of `protocol`.
    fn mean_reliability(
        topo: &Topology,
        interference: &dyn InterferenceModel,
        protocol: &str,
        seed: u64,
        rounds: usize,
    ) -> f64 {
        let mut sim = SimulationBuilder::new(topo)
            .interference(interference)
            .seed(seed)
            .build_protocol(protocol)
            .unwrap();
        let reports = sim.run_rounds(rounds);
        reports.iter().map(|r| r.reliability).sum::<f64>() / rounds as f64
    }

    #[test]
    fn static_ntx_never_changes() {
        let topo = Topology::kiel_testbed_18(1);
        let interference = jammers(0.30);
        let mut lwb = SimulationBuilder::new(&topo)
            .interference(&interference)
            .seed(2)
            .build_protocol("static")
            .unwrap();
        for report in lwb.run_rounds(8) {
            assert_eq!(report.ntx, 3);
        }
        assert_eq!(lwb.ntx(), 3);
    }

    #[test]
    fn calm_static_lwb_is_reliable_and_cheap() {
        let topo = Topology::kiel_testbed_18(2);
        let mut lwb = SimulationBuilder::new(&topo)
            .seed(3)
            .build_protocol("static")
            .unwrap();
        let reports = lwb.run_rounds(10);
        let avg_rel: f64 = reports.iter().map(|r| r.reliability).sum::<f64>() / 10.0;
        let avg_on: f64 = reports
            .iter()
            .map(|r| r.mean_radio_on.as_millis_f64())
            .sum::<f64>()
            / 10.0;
        assert!(
            avg_rel > 0.99,
            "calm LWB should be highly reliable, got {avg_rel}"
        );
        assert!(
            avg_on < 14.0,
            "calm LWB radio-on should be well below the 20 ms budget, got {avg_on}"
        );
    }

    #[test]
    fn static_lwb_degrades_under_jamming() {
        let topo = Topology::kiel_testbed_18(2);
        let calm_rel = mean_reliability(&topo, &NoInterference, "static", 5, 8);
        let jam_rel = mean_reliability(&topo, &jammers(0.35), "static", 5, 8);
        assert!(
            jam_rel < calm_rel - 0.05,
            "jamming must visibly hurt LWB ({calm_rel} vs {jam_rel})"
        );
    }

    #[test]
    fn pid_reacts_to_jamming() {
        let topo = Topology::kiel_testbed_18(1);
        let interference = jammers(0.35);
        let mut jammed = SimulationBuilder::new(&topo)
            .interference(&interference)
            .seed(3)
            .build_protocol("pid")
            .unwrap();
        let mut calm = SimulationBuilder::new(&topo)
            .seed(3)
            .build_protocol("pid")
            .unwrap();
        jammed.run_rounds(12);
        calm.run_rounds(12);
        assert!(
            jammed.ntx() > calm.ntx(),
            "the PID must use more retransmissions under jamming ({} vs {})",
            jammed.ntx(),
            calm.ntx()
        );
    }

    #[test]
    fn pid_stays_modest_when_calm() {
        let topo = Topology::kiel_testbed_18(1);
        assert!(mean_reliability(&topo, &NoInterference, "pid", 3, 20) > 0.97);
        let mut pid = SimulationBuilder::new(&topo)
            .seed(3)
            .build_protocol("pid")
            .unwrap();
        pid.run_rounds(20);
        assert!(pid.ntx() <= 4);
    }
}

//! The fluent [`SimulationBuilder`] and the closed set of named protocols.
//!
//! Every protocol of the paper's evaluation is reachable through one door:
//! describe the scenario with a [`SimulationBuilder`] (topology,
//! interference, traffic, seed, configs), then either plug in a concrete
//! [`Controller`] with [`SimulationBuilder::build`] or build one of the
//! [`PROTOCOLS`] by name with [`SimulationBuilder::build_protocol`]:
//!
//! | Name          | Protocol                                              |
//! |---------------|-------------------------------------------------------|
//! | `dimmer-dqn`  | Dimmer with the builder's policy (pretrained DQN by default) |
//! | `dimmer-rule` | Dimmer with the hand-written rule-based policy        |
//! | `pid`         | LWB driven by the tuned PI(D) controller              |
//! | `static`      | Plain LWB at a fixed `N_TX` of 3                      |
//! | `crystal`     | The Crystal epoch protocol via the engine's epoch adapter |
//! | `dimmer-zoo`  | Per-family DQN zoo selected online by an EXP3 meta-controller |
//!
//! [`PROTOCOLS`] is the single source of protocol names for `exp`'s
//! `--protocols` flag and the daemon's `spec.protocols`; a controller of
//! one's own enters through [`SimulationBuilder::build`].
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
    StaticNtxController, ZooController,
};
use dimmer_lwb::{LwbConfig, TrafficPattern};
use dimmer_sim::{InterferenceModel, NoInterference, ScenarioScript, Topology, WorldEvent};

/// Every protocol name [`SimulationBuilder::build_protocol`] accepts, in
/// documentation order.
pub const PROTOCOLS: [&str; 6] = [
    "dimmer-dqn",
    "dimmer-rule",
    "pid",
    "static",
    "crystal",
    "dimmer-zoo",
];

/// The fixed `N_TX` of the `"static"` protocol (the paper's static LWB).
const STATIC_NTX: u8 = 3;

/// Fluent description of one simulation: the substrate (topology,
/// interference), the workload (traffic), the protocol configurations and
/// the seed. Finish with [`build`](Self::build) (explicit controller) or
/// [`build_protocol`](Self::build_protocol) (one of [`PROTOCOLS`]).
#[derive(Clone)]
pub struct SimulationBuilder<'a> {
    topology: &'a Topology,
    interference: &'a dyn InterferenceModel,
    lwb_config: LwbConfig,
    dimmer_config: DimmerConfig,
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

    /// Installs a dynamic-world scenario script (node churn, link drift),
    /// applied between rounds by every protocol built from this builder.
    /// The default is the empty script — a static world, byte-for-byte
    /// identical to runs without one.
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
        self.engine(cfg, controller)
    }

    /// The one LWB engine constructor behind [`build`](Self::build) and
    /// every LWB protocol of [`PROTOCOLS`] (Crystal is built with
    /// [`RoundEngine::with_epoch_driver`]): `config` and `controller` over
    /// the builder's substrate, traffic, script and seed.
    fn engine<C: Controller>(self, config: DimmerConfig, controller: C) -> RoundEngine<'a, C> {
        RoundEngine::with_controller(
            self.topology,
            self.interference,
            self.lwb_config,
            config,
            controller,
            self.seed,
        )
        .with_traffic(self.traffic)
        .with_world_script(self.script)
    }

    /// Builds the protocol named `name`, one of [`PROTOCOLS`]; any other
    /// name is an [`UnknownProtocolError`].
    pub fn build_protocol(
        self,
        name: &str,
    ) -> Result<Box<dyn Simulation + 'a>, UnknownProtocolError> {
        let sim: Box<dyn Simulation + 'a> = match name {
            "dimmer-dqn" => {
                let policy = self
                    .policy
                    .clone()
                    .unwrap_or_else(dimmer_core::pretrained::pretrained_policy);
                let controller = AdaptivityController::new(policy, self.normalized_config());
                Box::new(self.build(controller))
            }
            "dimmer-rule" => {
                let policy = AdaptivityPolicy::rule_based();
                let controller = AdaptivityController::new(policy, self.normalized_config());
                Box::new(self.build(controller))
            }
            "pid" => {
                let cfg = self.baseline_config();
                Box::new(self.engine(cfg, PidController::paper_pi()))
            }
            "static" => {
                let mut cfg = self.baseline_config();
                cfg.initial_ntx = STATIC_NTX.clamp(cfg.n_min, cfg.n_max);
                Box::new(self.engine(cfg, StaticNtxController::new(STATIC_NTX)))
            }
            "crystal" => {
                let sink = self
                    .traffic
                    .sink()
                    .unwrap_or_else(|| self.topology.coordinator());
                // World validation only protects the topology coordinator;
                // Crystal's sink may be a different node, so reject
                // sink-killing scripts here, at construction time, instead
                // of panicking rounds into the run.
                assert!(
                    !self
                        .script
                        .events()
                        .iter()
                        .any(|(_, e)| matches!(e, WorldEvent::NodeFail(n) if *n == sink)),
                    "the Crystal sink cannot fail (scripted NodeFail({sink}))"
                );
                let driver = Box::new(CrystalRunner::new(
                    self.topology,
                    self.interference,
                    CrystalConfig::ewsn2019(),
                    sink,
                    self.seed,
                ));
                let cfg = self.normalized_config();
                Box::new(
                    RoundEngine::with_epoch_driver(
                        self.topology,
                        self.lwb_config,
                        cfg,
                        CrystalControl,
                        driver,
                        self.seed,
                    )
                    .with_traffic(self.traffic)
                    .with_world_script(self.script),
                )
            }
            // The zoo brings its own per-family policies; the builder's
            // single `policy` override (which every harness passes for
            // `dimmer-dqn`) is deliberately ignored.
            "dimmer-zoo" => {
                let controller = ZooController::standard(self.normalized_config());
                Box::new(self.build(controller))
            }
            _ => {
                return Err(UnknownProtocolError {
                    requested: name.to_string(),
                    known: PROTOCOLS.to_vec(),
                })
            }
        };
        Ok(sim)
    }
}

/// Error returned when a protocol name is not one of [`PROTOCOLS`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownProtocolError {
    /// The name that was requested.
    pub requested: String,
    /// Every protocol name, in [`PROTOCOLS`] order.
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

#[cfg(test)]
mod tests {
    use super::*;
    use dimmer_sim::{kiel_jamming, SimDuration};

    #[test]
    fn unknown_protocol_reports_the_known_names() {
        let topo = Topology::kiel_testbed_18(1);
        let err = SimulationBuilder::new(&topo)
            .build_protocol("carrier-pigeon")
            .err()
            .expect("unknown name must fail");
        assert_eq!(err.requested, "carrier-pigeon");
        assert_eq!(err.known, PROTOCOLS);
        // The text pins the six names and their documentation order.
        assert_eq!(
            err.to_string(),
            "unknown protocol 'carrier-pigeon' (known: dimmer-dqn, dimmer-rule, pid, \
             static, crystal, dimmer-zoo)"
        );
    }

    #[test]
    fn protocol_names_match_exactly() {
        let topo = Topology::kiel_testbed_18(1);
        for name in ["PID", " pid", "pid ", "Static", "dimmer", "dimmer-", ""] {
            let err = SimulationBuilder::new(&topo)
                .build_protocol(name)
                .err()
                .unwrap_or_else(|| panic!("{name:?} must not name a protocol"));
            assert_eq!(err.requested, name);
        }
    }

    #[test]
    fn every_protocol_constructs_and_runs() {
        let topo = Topology::kiel_testbed_18(1);
        for name in PROTOCOLS {
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
    fn custom_controllers_enter_through_build() {
        let topo = Topology::kiel_testbed_18(1);
        let mut sim = SimulationBuilder::new(&topo).build(StaticNtxController::new(5));
        assert_eq!(sim.run_rounds(2).len(), 2);
        assert_eq!(sim.ntx(), 5);
    }

    /// The first `rounds` reports of `name` built from `builder` under the
    /// testbed jammers at 30 % duty, where every adaptive arm has to act.
    fn jammed_stream(
        builder: SimulationBuilder<'_>,
        name: &str,
        rounds: usize,
    ) -> Vec<dimmer_core::DimmerRoundReport> {
        let interference = kiel_jamming(0.30);
        let mut sim = builder
            .interference(&interference)
            .build_protocol(name)
            .unwrap();
        sim.run_rounds(rounds)
    }

    #[test]
    fn every_protocol_follows_the_builder_seed_and_interference() {
        let topo = Topology::kiel_testbed_18(1);
        for name in PROTOCOLS {
            let builder = SimulationBuilder::new(&topo).policy(AdaptivityPolicy::rule_based());
            let jammed = jammed_stream(builder.clone(), name, 12);
            let reseeded = jammed_stream(builder.clone().seed(5), name, 12);
            let calm = builder.build_protocol(name).unwrap().run_rounds(12);
            assert_ne!(jammed, reseeded, "{name} ignores the seed");
            assert_ne!(jammed, calm, "{name} ignores the interference");
        }
    }

    #[test]
    fn dimmer_dqn_with_the_rule_policy_matches_dimmer_rule() {
        // The two Dimmer arms differ only in where the policy comes from.
        let topo = Topology::kiel_testbed_18(1);
        let builder = SimulationBuilder::new(&topo);
        assert_eq!(
            jammed_stream(
                builder.clone().policy(AdaptivityPolicy::rule_based()),
                "dimmer-dqn",
                20
            ),
            jammed_stream(builder, "dimmer-rule", 20)
        );
    }

    #[test]
    fn dimmer_dqn_defaults_to_the_pretrained_policy() {
        let topo = Topology::kiel_testbed_18(1);
        let builder = SimulationBuilder::new(&topo);
        let pretrained = dimmer_core::pretrained::pretrained_policy();
        assert_eq!(
            jammed_stream(builder.clone(), "dimmer-dqn", 20),
            jammed_stream(builder.policy(pretrained), "dimmer-dqn", 20)
        );
    }

    #[test]
    fn dimmer_zoo_ignores_the_builder_policy() {
        let topo = Topology::kiel_testbed_18(1);
        let builder = SimulationBuilder::new(&topo);
        assert_eq!(
            jammed_stream(builder.clone(), "dimmer-zoo", 20),
            jammed_stream(
                builder.policy(AdaptivityPolicy::rule_based()),
                "dimmer-zoo",
                20
            )
        );
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
        for name in PROTOCOLS {
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
        let driver = CrystalRunner::new(
            &topo,
            &NoInterference,
            crystal_config,
            topo.coordinator(),
            9,
        );
        let mut sim = RoundEngine::with_epoch_driver(
            &topo,
            LwbConfig::dcube_default(),
            DimmerConfig::default(),
            CrystalControl,
            Box::new(driver),
            9,
        )
        .with_traffic(traffic);
        let reports = sim.run_rounds(5);
        assert_eq!(Simulation::protocol(&sim), "crystal");
        assert_eq!(sim.ntx(), 5, "ntx() reflects the epoch driver");
        assert!(reports.iter().all(|r| r.ntx == 5));
        assert!(sim.app_reliability() > 0.9);
        assert!(sim.total_energy_joules() > 0.0);
        assert!(reports
            .iter()
            .all(|r| r.mean_radio_on <= SimDuration::from_millis(20)));
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
        let interference = kiel_jamming(0.30);
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
        let jam_rel = mean_reliability(&topo, &kiel_jamming(0.35), "static", 5, 8);
        assert!(
            jam_rel < calm_rel - 0.05,
            "jamming must visibly hurt LWB ({calm_rel} vs {jam_rel})"
        );
    }

    #[test]
    fn pid_reacts_to_jamming() {
        let topo = Topology::kiel_testbed_18(1);
        let interference = kiel_jamming(0.35);
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

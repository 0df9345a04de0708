//! Equivalence suite for the `RoundEngine`: name-built, controller-built
//! and hand-built engines must agree **byte-for-byte** at fixed seeds.
//!
//! The Crystal comparison pins the engine's epoch adapter (traffic
//! sampling, seed derivation, report synthesis) to the hand-rolled epoch
//! loop the Fig. 7 harness used before the redesign. The `dimmer-dqn`,
//! `pid` and `static` report streams are pinned by the golden digests in
//! `world_dynamics.rs`.

use dimmer_baselines::{CrystalConfig, CrystalRunner, PidController, SimulationBuilder, PROTOCOLS};
use dimmer_core::{AdaptivityPolicy, DimmerConfig, RoundEngine, StaticNtxController};
use dimmer_lwb::{LwbConfig, TrafficPattern};
use dimmer_sim::{
    kiel_jamming, InterferenceModel, NoInterference, NodeId, SimDuration, SimRng, Topology,
    WifiInterference, WifiLevel,
};

const ROUNDS: usize = 40;
const SEEDS: [u64; 3] = [1, 7, 99];

#[test]
fn crystal_engine_matches_the_legacy_epoch_loop() {
    let topo = Topology::dcube_48(7);
    let wifi = WifiInterference::new(WifiLevel::Level2, 5);
    let traffic = TrafficPattern::dcube_collection(topo.num_nodes(), 5, topo.coordinator());
    for seed in SEEDS {
        // The hand-rolled loop the Fig. 7 harness ran before the redesign:
        // a fresh traffic RNG derived as seed ^ 0xC11, one epoch per round.
        let sink = topo.coordinator();
        let all: Vec<NodeId> = topo.node_ids().collect();
        let mut rng = SimRng::seed_from(seed ^ 0xC11);
        let mut legacy = CrystalRunner::new(&topo, &wifi, CrystalConfig::ewsn2019(), sink, seed);
        let mut legacy_epochs = Vec::new();
        for _ in 0..20 {
            let sources = traffic.sources_for_round(&all, &mut rng);
            legacy_epochs.push(legacy.run_epoch(&sources, SimDuration::from_secs(1)));
        }

        let mut engine = SimulationBuilder::new(&topo)
            .interference(&wifi)
            .lwb_config(LwbConfig::dcube_default())
            .traffic(traffic.clone())
            .seed(seed)
            .build_protocol("crystal")
            .unwrap();
        let reports = engine.run_rounds(20);

        for (round, (report, epoch)) in reports.iter().zip(&legacy_epochs).enumerate() {
            assert_eq!(
                report.packets_generated,
                epoch.offered.len(),
                "seed {seed} round {round}"
            );
            assert_eq!(
                report.packets_delivered,
                epoch.delivered.len(),
                "seed {seed} round {round}"
            );
            assert_eq!(
                report.reliability,
                epoch.reliability(),
                "seed {seed} round {round}"
            );
            assert_eq!(
                report.energy_joules, epoch.energy_joules,
                "seed {seed} round {round}"
            );
            assert_eq!(
                report.mean_radio_on, epoch.mean_radio_on,
                "seed {seed} round {round}"
            );
        }
        // The engine's totals are the sums over the epochs.
        let offered: usize = legacy_epochs.iter().map(|e| e.offered.len()).sum();
        let delivered: usize = legacy_epochs.iter().map(|e| e.delivered.len()).sum();
        let energy: f64 = legacy_epochs.iter().map(|e| e.energy_joules).sum();
        assert_eq!(
            engine.app_reliability(),
            delivered as f64 / offered as f64,
            "seed {seed}"
        );
        assert_eq!(engine.total_energy_joules(), energy, "seed {seed}");
    }
}

#[test]
fn direct_engine_construction_matches_the_builder() {
    // The builder is sugar, not semantics: building the engine by hand with
    // the same normalized configuration gives the same stream.
    let topo = Topology::kiel_testbed_18(1);
    let interference = kiel_jamming(0.20);
    let mut cfg = DimmerConfig::default().without_adaptivity();
    cfg.forwarder.enabled = false;
    cfg.initial_ntx = 3;
    let mut direct = RoundEngine::with_controller(
        &topo,
        &interference,
        LwbConfig::testbed_default(),
        cfg,
        StaticNtxController::new(3),
        11,
    );
    let mut built = SimulationBuilder::new(&topo)
        .interference(&interference)
        .seed(11)
        .build_protocol("static")
        .unwrap();
    assert_eq!(direct.run_rounds(ROUNDS), built.run_rounds(ROUNDS));
}

#[test]
fn direct_pid_engine_matches_the_builder() {
    // `pid` runs on the same substrate as `static`: no central adaptivity,
    // no forwarder selection, the paper's PI gains.
    let topo = Topology::kiel_testbed_18(1);
    let interference = kiel_jamming(0.30);
    let mut cfg = DimmerConfig::default().without_adaptivity();
    cfg.forwarder.enabled = false;
    let mut direct = RoundEngine::with_controller(
        &topo,
        &interference,
        LwbConfig::testbed_default(),
        cfg,
        PidController::paper_pi(),
        11,
    );
    let mut built = SimulationBuilder::new(&topo)
        .interference(&interference)
        .seed(11)
        .build_protocol("pid")
        .unwrap();
    assert_eq!(direct.run_rounds(ROUNDS), built.run_rounds(ROUNDS));
}

#[test]
fn silent_kiel_jamming_matches_no_interference_for_every_protocol() {
    // `kiel_jamming(0.0)` is the empty composite. It must be always idle,
    // like `NoInterference`: no flood draws a burst and no stream moves.
    let topo = Topology::kiel_testbed_18(2);
    let silent = kiel_jamming(0.0);
    for name in PROTOCOLS {
        let run = |interference: &dyn InterferenceModel| {
            SimulationBuilder::new(&topo)
                .interference(interference)
                .policy(AdaptivityPolicy::rule_based())
                .seed(29)
                .build_protocol(name)
                .unwrap()
                .run_rounds(12)
        };
        assert_eq!(run(&silent), run(&NoInterference), "{name}");
    }
}

#[test]
fn registry_round_trip_constructs_and_runs_every_protocol() {
    let topo = Topology::kiel_testbed_18(2);
    assert_eq!(
        PROTOCOLS,
        [
            "dimmer-dqn",
            "dimmer-rule",
            "pid",
            "static",
            "crystal",
            "dimmer-zoo"
        ]
    );
    for name in PROTOCOLS {
        let mut sim = SimulationBuilder::new(&topo)
            .policy(AdaptivityPolicy::rule_based())
            .seed(17)
            .build_protocol(name)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(sim.protocol(), name.replace("dimmer-dqn", "dimmer-rule"));
        let reports = sim.run_rounds(4);
        assert_eq!(reports.len(), 4, "{name}");
        assert_eq!(sim.rounds_run(), 4, "{name}");
        for r in &reports {
            assert!(
                (0.0..=1.0).contains(&r.reliability),
                "{name}: reliability {:?}",
                r.reliability
            );
            assert!(r.energy_joules >= 0.0, "{name}");
            assert!((1..=8).contains(&r.ntx), "{name}: ntx {}", r.ntx);
        }
    }
}

#[test]
fn single_arm_zoo_is_byte_identical_to_plain_dimmer_dqn() {
    // The zoo's meta-machinery (EXP3 window accounting, lose-shift redraw,
    // recovery shield) must only engage with two or more arms: a one-arm
    // zoo is a transparent wrapper, so its report stream equals running the
    // same policy through the plain `dimmer-dqn` protocol byte-for-byte.
    let topo = Topology::kiel_testbed_18(1);
    let interference = kiel_jamming(0.30);
    let cfg = DimmerConfig::default();
    let policy = dimmer_core::zoo::zoo_policy("jammed", &cfg);
    for seed in SEEDS {
        let mut dqn = SimulationBuilder::new(&topo)
            .interference(&interference)
            .policy(policy.clone())
            .seed(seed)
            .build_protocol("dimmer-dqn")
            .unwrap();
        let zoo = dimmer_core::ZooController::new(
            vec![policy.clone()],
            cfg.clone(),
            8,
            dimmer_core::zoo::ZOO_GAMMA,
        );
        let mut single = SimulationBuilder::new(&topo)
            .interference(&interference)
            .seed(seed)
            .build(zoo);
        // The 0.30-duty jammer guarantees lossy rounds, so a shield that
        // wrongly engaged for one arm would diverge here.
        assert_eq!(
            dqn.run_rounds(ROUNDS),
            single.run_rounds(ROUNDS),
            "seed {seed}: single-arm zoo must shadow dimmer-dqn exactly"
        );
    }
}

#[test]
fn zoo_runs_are_deterministic_under_stress() {
    // Fixed-seed determinism for the full four-arm zoo in a regime where
    // every meta-mechanism fires: losses arm the recovery shield, lossy
    // windows trigger lose-shift redraws and EXP3 updates.
    let topo = Topology::kiel_testbed_18(1);
    let interference = kiel_jamming(0.35);
    for seed in SEEDS {
        let build = || {
            SimulationBuilder::new(&topo)
                .interference(&interference)
                .seed(seed)
                .build_protocol("dimmer-zoo")
                .unwrap()
        };
        assert_eq!(
            build().run_rounds(ROUNDS),
            build().run_rounds(ROUNDS),
            "seed {seed}: dimmer-zoo must be deterministic per seed"
        );
    }
}

#[test]
fn engine_runs_are_deterministic_per_seed_for_every_protocol() {
    let topo = Topology::kiel_testbed_18(3);
    let interference = kiel_jamming(0.10);
    for name in PROTOCOLS {
        let build = || {
            SimulationBuilder::new(&topo)
                .interference(&interference)
                .policy(AdaptivityPolicy::rule_based())
                .seed(23)
                .build_protocol(name)
                .unwrap()
        };
        let a = build().run_rounds(10);
        let b = build().run_rounds(10);
        assert_eq!(a, b, "{name}: same seed must give the same stream");
    }
}

//! The dynamic-world layer's contract tests.
//!
//! The headline invariant: a **static world** (empty scenario script) must be
//! byte-for-byte identical to the pre-refactor engine output. The golden
//! hashes below were captured from the engine *before* the `World` layer was
//! introduced (same protocols, seeds, topologies and interference); every
//! field of every `DimmerRoundReport` is folded bitwise into the digest, so
//! any change to RNG consumption, float arithmetic or report synthesis under
//! an empty script shows up as a hash mismatch.

use dimmer_baselines::SimulationBuilder;
use dimmer_integration::equivalence::report_stream_hash;
use dimmer_lwb::{LwbConfig, TrafficPattern};
use dimmer_sim::{kiel_jamming, Topology, WifiInterference, WifiLevel};

/// Runs `protocol` on the jammed 18-node testbed and digests 16 rounds.
fn testbed_hash(protocol: &str, seed: u64) -> u64 {
    let topo = Topology::kiel_testbed_18(1);
    let interference = kiel_jamming(0.25);
    let mut sim = SimulationBuilder::new(&topo)
        .interference(&interference)
        .seed(seed)
        .build_protocol(protocol)
        .expect("registered protocol");
    report_stream_hash(&sim.run_rounds(16))
}

/// Runs Crystal on the D-Cube collection workload and digests 8 epochs.
fn crystal_hash(seed: u64) -> u64 {
    let topo = Topology::dcube_48(1);
    let wifi = WifiInterference::new(WifiLevel::Level1, 5);
    let traffic = TrafficPattern::dcube_collection(topo.num_nodes(), 5, topo.coordinator());
    let mut sim = SimulationBuilder::new(&topo)
        .interference(&wifi)
        .lwb_config(LwbConfig::dcube_default())
        .traffic(traffic)
        .seed(seed)
        .build_protocol("crystal")
        .expect("crystal is registered");
    report_stream_hash(&sim.run_rounds(8))
}

#[test]
fn static_world_dimmer_dqn_matches_pre_refactor_output() {
    assert_eq!(
        testbed_hash("dimmer-dqn", 42),
        0x12a9df7b8fe9f156,
        "seed 42"
    );
    assert_eq!(testbed_hash("dimmer-dqn", 7), 0xd759e185d4ed2cd1, "seed 7");
}

#[test]
fn static_world_pid_matches_pre_refactor_output() {
    assert_eq!(testbed_hash("pid", 42), 0x9d34de1630001b2b, "seed 42");
    assert_eq!(testbed_hash("pid", 7), 0xc1579ff9dcaebe88, "seed 7");
}

#[test]
fn static_world_static_lwb_matches_pre_refactor_output() {
    assert_eq!(testbed_hash("static", 42), 0x217413b9dfca9e1d, "seed 42");
}

#[test]
fn static_world_crystal_matches_pre_refactor_output() {
    assert_eq!(crystal_hash(42), 0xb215e5369b8ccbba, "seed 42");
    assert_eq!(crystal_hash(9), 0xa1c00ceda21a6096, "seed 9");
}

#[test]
fn explicit_empty_script_is_also_pinned_to_the_golden_output() {
    // Passing an empty ScenarioScript through the builder must hit the
    // same bytes as the no-script path the goldens pin.
    let topo = Topology::kiel_testbed_18(1);
    let interference = kiel_jamming(0.25);
    let mut sim = SimulationBuilder::new(&topo)
        .interference(&interference)
        .script(dimmer_sim::ScenarioScript::new())
        .seed(42)
        .build_protocol("pid")
        .unwrap();
    assert_eq!(report_stream_hash(&sim.run_rounds(16)), 0x9d34de1630001b2b);
}

#[test]
fn churn_storm_degrades_then_recovers_the_network() {
    use dimmer_bench::experiments::dynamics_run;
    use dimmer_bench::scenarios::dynamic_scenario;
    use dimmer_bench::summary::phase_summaries;
    use dimmer_core::AdaptivityPolicy;

    let rounds = 60;
    let topo = Topology::kiel_testbed_18(1);
    let preset = dynamic_scenario("churn-storm", rounds, &topo).unwrap();
    let reports = dynamics_run(
        "dimmer-rule",
        "churn-storm",
        &AdaptivityPolicy::rule_based(),
        rounds,
        7,
    );
    let phases = phase_summaries(&reports, &preset.phase_bounds());
    let by_label = |l: &str| {
        phases
            .iter()
            .find(|(label, _)| label == l)
            .map(|(_, s)| s.clone())
            .unwrap_or_else(|| panic!("phase {l} missing"))
    };
    let calm = by_label("calm");
    let storm = by_label("storm");
    let recovered = by_label("recovered");
    assert!((calm.mean_alive - 18.0).abs() < 1e-9, "calm phase is full");
    assert!(
        storm.mean_alive < 17.5,
        "the storm takes nodes down, got {}",
        storm.mean_alive
    );
    assert!(
        (recovered.mean_alive - 18.0).abs() < 1e-9,
        "everyone rejoins, got {}",
        recovered.mean_alive
    );
    // Dead nodes are excluded from reliability, so even mid-storm the
    // surviving network keeps delivering.
    assert!(storm.reliability > 0.9, "got {}", storm.reliability);
}

#[test]
fn roaming_jammer_phases_show_the_jammer_moving_away() {
    use dimmer_bench::experiments::dynamics_run;
    use dimmer_bench::scenarios::dynamic_scenario;
    use dimmer_bench::summary::phase_summaries;
    use dimmer_core::AdaptivityPolicy;

    let rounds = 60;
    let topo = Topology::kiel_testbed_18(1);
    let preset = dynamic_scenario("roaming-jammer", rounds, &topo).unwrap();
    let reports = dynamics_run(
        "static",
        "roaming-jammer",
        &AdaptivityPolicy::rule_based(),
        rounds,
        3,
    );
    let phases = phase_summaries(&reports, &preset.phase_bounds());
    let rel_first = phases.first().expect("phases").1.reliability;
    let rel_last = phases.last().expect("phases").1.reliability;
    assert!(
        rel_last > rel_first,
        "reliability must improve once the jammer leaves ({rel_first} -> {rel_last})"
    );
    assert!(rel_last > 0.99, "the floor is calm at the end: {rel_last}");
}

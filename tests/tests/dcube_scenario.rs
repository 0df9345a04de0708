//! Integration test of the §V-E scenario: the 48-node D-Cube stand-in with
//! aperiodic collection, WiFi interference, Dimmer with ACKs + hopping,
//! plain LWB and Crystal.

use dimmer_baselines::{CrystalConfig, CrystalRunner, SimulationBuilder};
use dimmer_core::DimmerConfig;
use dimmer_lwb::{LwbConfig, TrafficPattern};
use dimmer_sim::{
    InterferenceModel, NoInterference, NodeId, SimDuration, SimRng, Topology, WifiInterference,
    WifiLevel,
};

const ROUNDS: usize = 120;

fn collection(topo: &Topology) -> TrafficPattern {
    TrafficPattern::dcube_collection(topo.num_nodes(), 5, topo.coordinator())
}

/// The collection workload on `topo` under `interference`, ready for a
/// registry protocol.
fn workload<'a>(
    topo: &'a Topology,
    interference: &'a dyn InterferenceModel,
    lwb: LwbConfig,
    seed: u64,
) -> SimulationBuilder<'a> {
    SimulationBuilder::new(topo)
        .interference(interference)
        .lwb_config(lwb)
        .traffic(collection(topo))
        .seed(seed)
}

#[test]
fn dimmer_outperforms_plain_lwb_under_wifi_level_2() {
    let topo = Topology::dcube_48(3);
    let wifi = WifiInterference::new(WifiLevel::Level2, 1);

    let single_channel = LwbConfig::dcube_default().with_channel_hopping(false);
    let mut lwb = workload(&topo, &wifi, single_channel, 5)
        .build_protocol("static")
        .unwrap();
    lwb.run_rounds(ROUNDS);

    let mut dimmer = workload(&topo, &wifi, LwbConfig::dcube_default(), 5)
        .dimmer_config(DimmerConfig::dcube())
        .build_protocol("dimmer-rule")
        .unwrap();
    dimmer.run_rounds(ROUNDS);

    assert!(
        dimmer.app_reliability() > lwb.app_reliability(),
        "Dimmer ({:.2}) must beat single-channel LWB ({:.2}) under WiFi level 2",
        dimmer.app_reliability(),
        lwb.app_reliability()
    );
    assert!(
        dimmer.app_reliability() > 0.85,
        "Dimmer should stay highly reliable"
    );
}

#[test]
fn crystal_is_reliable_but_energy_hungry_under_interference() {
    let topo = Topology::dcube_48(3);
    let wifi = WifiInterference::new(WifiLevel::Level2, 2);
    let traffic = collection(&topo);
    let all: Vec<NodeId> = topo.node_ids().collect();

    let mut crystal = CrystalRunner::new(
        &topo,
        &wifi,
        CrystalConfig::ewsn2019(),
        topo.coordinator(),
        5,
    );
    let mut calm_crystal = CrystalRunner::new(
        &topo,
        &NoInterference,
        CrystalConfig::ewsn2019(),
        topo.coordinator(),
        5,
    );
    let mut rng = SimRng::seed_from(8);
    for _ in 0..ROUNDS {
        let sources = traffic.sources_for_round(&all, &mut rng);
        crystal.run_epoch(&sources, SimDuration::from_secs(1));
        calm_crystal.run_epoch(&sources, SimDuration::from_secs(1));
    }
    assert!(
        crystal.app_reliability() > 0.9,
        "Crystal survives strong WiFi"
    );
    assert!(
        crystal.total_energy_joules() > calm_crystal.total_energy_joules(),
        "interference must cost Crystal extra energy"
    );
}

#[test]
fn without_interference_everyone_delivers_everything() {
    let topo = Topology::dcube_48(4);
    let mut dimmer = workload(&topo, &NoInterference, LwbConfig::dcube_default(), 6)
        .dimmer_config(DimmerConfig::dcube())
        .build_protocol("dimmer-rule")
        .unwrap();
    dimmer.run_rounds(ROUNDS);
    assert!(dimmer.app_reliability() > 0.99);

    let mut lwb = workload(&topo, &NoInterference, LwbConfig::dcube_default(), 6)
        .build_protocol("static")
        .unwrap();
    lwb.run_rounds(ROUNDS);
    assert!(lwb.app_reliability() > 0.98);
}

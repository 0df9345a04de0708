//! End-to-end integration tests spanning the whole stack: simulator →
//! Glossy → LWB → Dimmer protocol → baselines.

use dimmer_baselines::{PidController, SimulationBuilder};
use dimmer_core::{
    AdaptivityController, AdaptivityPolicy, DimmerConfig, RoundEngine, RoundMode, Simulation,
};
use dimmer_integration::jamming;
use dimmer_lwb::LwbConfig;
use dimmer_sim::{InterferenceModel, NoInterference, SimDuration, Topology};

/// The registry protocol `name` on the testbed defaults.
fn protocol<'a>(
    topo: &'a Topology,
    interference: &'a dyn InterferenceModel,
    name: &str,
    seed: u64,
) -> Box<dyn Simulation + 'a> {
    SimulationBuilder::new(topo)
        .interference(interference)
        .seed(seed)
        .build_protocol(name)
        .unwrap()
}

/// Rule-based Dimmer under `cfg`, as the engine so a test can steer `N_TX`.
fn rule_based<'a>(
    topo: &'a Topology,
    interference: &'a dyn InterferenceModel,
    cfg: DimmerConfig,
    seed: u64,
) -> RoundEngine<'a, AdaptivityController> {
    let controller = AdaptivityController::new(AdaptivityPolicy::rule_based(), cfg.clone());
    RoundEngine::with_controller(
        topo,
        interference,
        LwbConfig::testbed_default(),
        cfg,
        controller,
        seed,
    )
}

#[test]
fn dimmer_beats_static_lwb_under_heavy_jamming() {
    let topo = Topology::kiel_testbed_18(1);
    let interference = jamming(0.35);
    let rounds = 40;

    let mut lwb = protocol(&topo, &interference, "static", 7);
    let lwb_rel: f64 = lwb
        .run_rounds(rounds)
        .iter()
        .map(|r| r.reliability)
        .sum::<f64>()
        / rounds as f64;

    let mut dimmer = protocol(&topo, &interference, "dimmer-rule", 7);
    let dimmer_rel: f64 = dimmer
        .run_rounds(rounds)
        .iter()
        .map(|r| r.reliability)
        .sum::<f64>()
        / rounds as f64;

    assert!(
        dimmer_rel >= lwb_rel,
        "adaptive Dimmer ({dimmer_rel:.3}) must not be worse than static LWB ({lwb_rel:.3}) under jamming"
    );
    assert!(
        dimmer.ntx() > 3,
        "Dimmer should have raised N_TX above the static default"
    );
}

#[test]
fn all_protocols_are_nearly_perfect_without_interference() {
    let topo = Topology::kiel_testbed_18(2);
    let rounds = 20;

    for name in ["static", "dimmer-rule", "pid"] {
        let reports = protocol(&topo, &NoInterference, name, 3).run_rounds(rounds);
        let rel: f64 = reports.iter().map(|r| r.reliability).sum::<f64>() / rounds as f64;
        assert!(
            rel > 0.98,
            "{name}: calm reliability should exceed 98%, got {rel}"
        );
        let on: f64 = reports
            .iter()
            .map(|r| r.mean_radio_on.as_millis_f64())
            .sum::<f64>()
            / rounds as f64;
        assert!(
            on < 15.0,
            "{name}: calm radio-on time should stay below 15 ms, got {on}"
        );
    }
}

#[test]
fn adaptive_protocols_track_a_dynamic_interference_scenario() {
    // Calm -> 30% jamming -> calm: both adaptive systems must stay reliable,
    // raise N_TX while the jammers are on, and relax afterwards (the Fig. 4c
    // and Fig. 4d dynamics; the energy comparison against the PID is made in
    // the benchmark harness with the trained DQN policy).
    let topo = Topology::kiel_testbed_18(3);
    let phases: [(f64, usize); 3] = [(0.0, 15), (0.30, 15), (0.0, 25)];

    let mut dimmer_ntx_per_phase = Vec::new();
    let mut pid_ntx_per_phase = Vec::new();
    let mut dimmer_rel = 0.0;
    let mut pid_rel = 0.0;
    let mut rounds = 0.0;

    // Build fresh engines per phase (the interference object changes), but
    // carry the controller state across phases. The PID runs on the "pid"
    // protocol's substrate: no central adaptivity, no forwarder selection.
    let mut dimmer_ntx = 3;
    let mut pid_controller = PidController::paper_pi();
    let mut pid_config = DimmerConfig::default().without_adaptivity();
    pid_config.forwarder.enabled = false;
    for (duty, len) in phases {
        let interference = jamming(duty);
        let mut d = rule_based(&topo, &interference, DimmerConfig::default(), 11);
        d.force_ntx(dimmer_ntx);
        let mut p = RoundEngine::with_controller(
            &topo,
            &interference,
            LwbConfig::testbed_default(),
            pid_config.clone(),
            pid_controller.clone(),
            11,
        );
        for _ in 0..len {
            let rd = d.run_round();
            dimmer_rel += rd.reliability;
            let rp = p.run_round();
            pid_rel += rp.reliability;
            rounds += 1.0;
        }
        dimmer_ntx = d.ntx();
        pid_controller = p.controller().clone();
        dimmer_ntx_per_phase.push(d.ntx());
        pid_ntx_per_phase.push(p.ntx());
    }

    dimmer_rel /= rounds;
    pid_rel /= rounds;
    assert!(
        dimmer_rel > 0.9 && pid_rel > 0.9,
        "both adaptive systems must stay reliable"
    );
    // Both ramp up during the jamming phase and relax once it passes.
    assert!(
        dimmer_ntx_per_phase[1] > dimmer_ntx_per_phase[2],
        "Dimmer should relax after the interference passes ({dimmer_ntx_per_phase:?})"
    );
    assert!(
        pid_ntx_per_phase[1] >= pid_ntx_per_phase[2],
        "the PID should not keep ramping after the interference passes ({pid_ntx_per_phase:?})"
    );
}

#[test]
fn forwarder_selection_saves_energy_without_hurting_reliability() {
    let topo = Topology::kiel_testbed_18(5);
    let rounds = 700;

    let mut cfg = DimmerConfig::default().without_adaptivity();
    cfg.forwarder.calm_rounds_threshold = 1;
    let mut with_fs = rule_based(&topo, &NoInterference, cfg, 9);

    let mut no_fs_cfg = DimmerConfig::default().without_adaptivity();
    no_fs_cfg.forwarder.enabled = false;
    let mut without_fs = rule_based(&topo, &NoInterference, no_fs_cfg, 9);

    let fs_reports = with_fs.run_rounds(rounds);
    let base_reports = without_fs.run_rounds(rounds);

    let rel = |r: &[dimmer_core::DimmerRoundReport]| {
        r.iter().map(|x| x.reliability).sum::<f64>() / r.len() as f64
    };
    let on = |r: &[dimmer_core::DimmerRoundReport]| {
        r.iter()
            .map(|x| x.mean_radio_on.as_millis_f64())
            .sum::<f64>()
            / r.len() as f64
    };

    assert!(
        rel(&fs_reports) > 0.985,
        "forwarder selection must keep reliability high"
    );
    assert!(
        on(&fs_reports) < on(&base_reports),
        "deactivating forwarders must save energy ({:.2} vs {:.2} ms)",
        on(&fs_reports),
        on(&base_reports)
    );
    assert!(
        fs_reports
            .iter()
            .any(|r| r.active_forwarders < topo.num_nodes()),
        "some devices should have turned passive"
    );
    assert!(fs_reports
        .iter()
        .any(|r| r.mode == RoundMode::ForwarderSelection));
}

#[test]
fn the_whole_stack_is_deterministic() {
    let topo = Topology::kiel_testbed_18(6);
    let interference = jamming(0.15);
    let run = || protocol(&topo, &interference, "dimmer-rule", 1234).run_rounds(15);
    assert_eq!(run(), run());
}

#[test]
fn radio_on_time_is_always_within_the_slot_budget() {
    let topo = Topology::kiel_testbed_18(8);
    for duty in [0.0, 0.10, 0.35] {
        let interference = jamming(duty);
        let mut runner = protocol(&topo, &interference, "dimmer-rule", 2);
        for report in runner.run_rounds(12) {
            assert!(report.mean_radio_on <= SimDuration::from_millis(20));
        }
    }
}

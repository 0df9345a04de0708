//! Integration test of the offline training pipeline: trace collection →
//! DQN training → quantization → protocol-in-the-loop behaviour.

use dimmer_baselines::SimulationBuilder;
use dimmer_core::{AdaptivityController, DimmerConfig, GlobalView, StateBuilder};
use dimmer_integration::jamming;
use dimmer_rl::DqnConfig;
use dimmer_sim::{NoInterference, Topology};
use dimmer_traces::{train_policy, TraceCollector};

#[test]
fn trained_policy_drives_the_protocol_sensibly() {
    let topo = Topology::kiel_testbed_18(11);
    // Small but representative trace: calm and 30% windows.
    let traces = TraceCollector::new(&topo, 7)
        .with_sweep(vec![0.0, 0.30], 4)
        .collect(40);
    let cfg = DimmerConfig::default();
    let report = train_policy(&traces, &cfg, &DqnConfig::quick().with_iterations(6_000), 7);

    // The quantized policy must be executable on Table-I states.
    let controller = AdaptivityController::new(report.quantized_policy(), cfg.clone());
    let state = StateBuilder::new(cfg).build(&GlobalView::new(18), 3);
    let _ = controller.decide(&state);
    assert_eq!(
        controller.flash_size_bytes(),
        2106,
        "31-30-3 quantized network is ~2.1 kB"
    );

    // Protocol-in-the-loop: under jamming the learned policy must end up with
    // at least as many retransmissions as it uses when calm.
    let interference = jamming(0.35);
    let dimmer = |interference: &dyn dimmer_sim::InterferenceModel| {
        let mut sim = SimulationBuilder::new(&topo)
            .interference(interference)
            .policy(report.quantized_policy())
            .seed(3)
            .build_protocol("dimmer-dqn")
            .unwrap();
        sim.run_rounds(25);
        sim.ntx()
    };
    let jammed_ntx = dimmer(&interference);
    let calm_ntx = dimmer(&NoInterference);

    assert!(
        jammed_ntx >= calm_ntx,
        "the learned policy should use at least as many retransmissions under jamming ({jammed_ntx} vs {calm_ntx})"
    );
}

#[test]
fn training_is_reproducible() {
    let topo = Topology::kiel_testbed_18(12);
    let traces = TraceCollector::new(&topo, 5)
        .with_sweep(vec![0.0, 0.25], 3)
        .collect(18);
    let cfg = DimmerConfig::default();
    let dqn = DqnConfig::quick().with_iterations(1_500);
    let a = train_policy(&traces, &cfg, &dqn, 99);
    let b = train_policy(&traces, &cfg, &dqn, 99);
    assert_eq!(
        a.policy, b.policy,
        "same traces + same seed must give the same policy"
    );
}

#[test]
fn network_size_independent_input_supports_both_deployments() {
    // The same Table-I layout (K = 10) must accept views from the 18-node
    // and the 48-node deployment without any architectural change.
    let cfg = DimmerConfig::default();
    let builder = StateBuilder::new(cfg.clone());
    let small = builder.build(&GlobalView::new(18), 3);
    let large = builder.build(&GlobalView::new(48), 3);
    assert_eq!(small.len(), cfg.state_dim());
    assert_eq!(large.len(), cfg.state_dim());
}

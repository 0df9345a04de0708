//! Distributed forwarder selection with Exp3 bandits in an interference-free
//! network (the paper's Fig. 6 experiment, shortened).
//!
//! This example plugs a custom configuration into the
//! [`SimulationBuilder`]'s generic `build` entry point: the `PROTOCOLS` names
//! cover the paper's protocols, but any `Controller` + `DimmerConfig`
//! combination runs through the same engine.
//!
//! ```text
//! cargo run --release --example forwarder_selection
//! ```

use dimmer_baselines::SimulationBuilder;
use dimmer_core::{AdaptivityController, AdaptivityPolicy, DimmerConfig};
use dimmer_sim::Topology;

fn main() {
    let topology = Topology::kiel_testbed_18(1);

    // DQN deactivated; only the distributed forwarder selection runs.
    let mut config = DimmerConfig::default().without_adaptivity();
    config.forwarder.calm_rounds_threshold = 1;

    let mut runner = SimulationBuilder::new(&topology)
        .dimmer_config(config.clone())
        .seed(5)
        .build(AdaptivityController::new(
            AdaptivityPolicy::rule_based(),
            config,
        ));

    let rounds = 1200; // 80 simulated minutes of 4-second rounds
    println!(
        "{:>8} {:>12} {:>12} {:>14}",
        "minute", "forwarders", "reliability", "radio-on [ms]"
    );
    let reports = runner.run_rounds(rounds);
    for (i, chunk) in reports.chunks(150).enumerate() {
        let n = chunk.len() as f64;
        println!(
            "{:>8} {:>12.1} {:>12.4} {:>14.2}",
            i * 10,
            chunk
                .iter()
                .map(|r| r.active_forwarders as f64)
                .sum::<f64>()
                / n,
            chunk.iter().map(|r| r.reliability).sum::<f64>() / n,
            chunk
                .iter()
                .map(|r| r.mean_radio_on.as_millis_f64())
                .sum::<f64>()
                / n,
        );
    }

    let final_forwarders = reports.last().map(|r| r.active_forwarders).unwrap_or(18);
    println!(
        "\nafter {} rounds, {} of {} devices still act as forwarders",
        rounds,
        final_forwarders,
        topology.num_nodes()
    );
    println!("(paper: ~14 forwarders / 4 passive receivers; 9.55 ms vs 11.04 ms radio-on)");
}

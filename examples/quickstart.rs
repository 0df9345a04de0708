//! Quickstart: run the Dimmer protocol on the 18-node testbed, first in calm
//! conditions, then while two 802.15.4 jammers occupy 30 % of the air time,
//! and watch the retransmission parameter adapt.
//!
//! Every protocol is constructed the same way: describe the scenario with a
//! [`SimulationBuilder`], then pick a protocol of `PROTOCOLS` by name
//! (`"dimmer-dqn"`, `"dimmer-rule"`, `"pid"`, `"static"`, `"crystal"`,
//! `"dimmer-zoo"`).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dimmer_baselines::SimulationBuilder;
use dimmer_sim::{PeriodicJammer, ScheduledInterference, SimTime, Topology};

fn main() {
    // The 18-node, 3-hop office deployment from the paper (Fig. 4a).
    let topology = Topology::kiel_testbed_18(1);

    // 2 minutes calm, 2 minutes of 30 % jamming, then calm again.
    let mut interference = ScheduledInterference::new();
    for jammer in PeriodicJammer::kiel_pair(0.30) {
        interference.add_window(
            SimTime::from_secs(120),
            SimTime::from_secs(240),
            Box::new(jammer),
        );
    }

    // "dimmer-dqn" runs the pre-trained DQN shipped with dimmer-core (or
    // the rule-based fallback if the weights are absent).
    let mut runner = SimulationBuilder::new(&topology)
        .interference(&interference)
        .seed(42)
        .build_protocol("dimmer-dqn")
        .expect("dimmer-dqn is registered");
    println!("protocol: {}", runner.protocol());

    println!(
        "{:>6} {:>6} {:>12} {:>14} {:>12}",
        "round", "NTX", "reliability", "radio-on [ms]", "mode"
    );
    for report in runner.run_rounds(90) {
        if report.round_index % 5 == 0 {
            println!(
                "{:>6} {:>6} {:>12.3} {:>14.2} {:>12?}",
                report.round_index,
                report.ntx,
                report.reliability,
                report.mean_radio_on.as_millis_f64(),
                report.mode
            );
        }
    }
    println!(
        "\ntotal energy spent: {:.1} J",
        runner.total_energy_joules()
    );

    // For comparison: the same network without any interference at all.
    let mut calm_runner = SimulationBuilder::new(&topology)
        .seed(42)
        .build_protocol("dimmer-dqn")
        .expect("dimmer-dqn is registered");
    calm_runner.run_rounds(90);
    println!(
        "calm-network energy over the same duration: {:.1} J",
        calm_runner.total_energy_joules()
    );
}

//! Dimmer versus a PID controller under dynamic interference — a compact
//! version of the paper's Fig. 4c/4d experiment, with both protocols built
//! through [`SimulationBuilder::build_protocol`].
//!
//! ```text
//! cargo run --release --example dynamic_interference
//! ```

use dimmer_baselines::SimulationBuilder;
use dimmer_core::DimmerRoundReport;
use dimmer_sim::{PeriodicJammer, ScheduledInterference, SimTime, Topology};

/// Builds the dynamic scenario: calm → 30 % jamming → calm → 5 % jamming.
fn scenario() -> ScheduledInterference {
    let mut s = ScheduledInterference::new();
    let minute = |m: u64| SimTime::from_secs(m * 60);
    for j in PeriodicJammer::kiel_pair(0.30) {
        s.add_window(minute(3), minute(6), Box::new(j));
    }
    for j in PeriodicJammer::kiel_pair(0.05) {
        s.add_window(minute(9), minute(12), Box::new(j));
    }
    s
}

fn main() {
    let topology = Topology::kiel_testbed_18(1);
    let rounds = 14 * 60 / 4; // 14 minutes of 4-second rounds

    let run = |protocol: &str| -> Vec<DimmerRoundReport> {
        let interference = scenario();
        let mut sim = SimulationBuilder::new(&topology)
            .interference(&interference)
            .seed(7)
            .build_protocol(protocol)
            .expect("registered protocol");
        sim.run_rounds(rounds)
    };
    let dimmer_reports = run("dimmer-dqn");
    let pid_reports = run("pid");

    println!(
        "{:>6} | {:>10} {:>8} | {:>10} {:>8}",
        "minute", "Dimmer rel", "NTX", "PID rel", "NTX"
    );
    for minute in 0..14 {
        let slice = |r: &[DimmerRoundReport]| {
            let chunk: Vec<_> = r
                .iter()
                .filter(|x| x.time.as_secs_f64() as u64 / 60 == minute)
                .collect();
            let n = chunk.len().max(1) as f64;
            (
                chunk.iter().map(|x| x.reliability).sum::<f64>() / n,
                chunk.iter().map(|x| x.ntx as f64).sum::<f64>() / n,
            )
        };
        let (d_rel, d_ntx) = slice(&dimmer_reports);
        let (p_rel, p_ntx) = slice(&pid_reports);
        println!("{minute:>6} | {d_rel:>10.3} {d_ntx:>8.1} | {p_rel:>10.3} {p_ntx:>8.1}");
    }

    let avg = |r: &[DimmerRoundReport]| {
        (
            r.iter().map(|x| x.reliability).sum::<f64>() / r.len() as f64,
            r.iter()
                .map(|x| x.mean_radio_on.as_millis_f64())
                .sum::<f64>()
                / r.len() as f64,
        )
    };
    let (d_rel, d_on) = avg(&dimmer_reports);
    let (p_rel, p_on) = avg(&pid_reports);
    println!(
        "\nDimmer : reliability {:.1}%, radio-on {:.1} ms",
        d_rel * 100.0,
        d_on
    );
    println!(
        "PID    : reliability {:.1}%, radio-on {:.1} ms",
        p_rel * 100.0,
        p_on
    );
    println!("(paper: both ~99.3% reliable, Dimmer 12.3 ms vs PID 14.4 ms)");
}

//! Dynamic-world scenarios — node churn, link fades, a roaming jammer and
//! a flash-crowd join wave, none of which a static-topology figure can
//! express.
//!
//! ```text
//! cargo run --release -p dimmer-bench --bin exp_dynamics -- \
//!     [--scenario churn-storm|link-fade|roaming-jammer|flash-crowd] \
//!     [--protocols static,dimmer-dqn,dimmer-rule,pid] [--quick] \
//!     [--trials N] [--threads N] [--seed S] [--json PATH]
//! ```
//!
//! Cells are one protocol each; every cell reports the overall
//! reliability / radio-on / latency / mean-`N_TX` / mean-alive metrics
//! plus **per-phase summary buckets** (`rel@<phase>`, `radio@<phase>`,
//! `alive@<phase>`) aligned to the scenario's scripted phases, so a
//! controller's reaction to each world change is visible in one table.
//! With the default `--trials 1` a per-phase timeline of the first
//! selected protocol is printed in addition to the aggregate table.
//!
//! Defaults come from the `dynamics:<preset>` entry of
//! `dimmer_bench::catalogue`: the default protocol set is pinned (its grid
//! digest is golden-tested) and `--protocols` may also opt into
//! `dimmer-zoo`.

use dimmer_bench::catalogue::{self, Extras};
use dimmer_bench::experiments::{dynamics_run, CachedRun};
use dimmer_bench::harness::HarnessCli;
use dimmer_bench::scenarios::{dimmer_policy, dynamic_scenario};
use dimmer_bench::summary::phase_summaries;
use dimmer_sim::{SimRng, Topology};

fn main() {
    let cli = HarnessCli::parse();
    let scenario = cli
        .value_required("--scenario")
        .unwrap_or_else(|| "churn-storm".to_string());
    let grid = catalogue::lookup(&format!("dynamics:{scenario}")).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let rounds = grid.rounds(cli.quick);
    let topo = Topology::kiel_testbed_18(1);
    let preset = dynamic_scenario(&scenario, rounds, &topo).expect("catalogued presets build");
    let protocols = cli.select_protocols(grid.name(), grid.protocols());
    let opts = cli.run_options(grid.trials(cli.quick), grid.seed());
    let policy = dimmer_policy(cli.quick);

    println!(
        "dynamics '{scenario}' — {} ({} scripted events)",
        preset.summary,
        preset.script.len()
    );
    println!(
        "{} x {rounds} rounds x {} trials per cell, {} worker threads",
        protocols.join("/"),
        opts.trials,
        opts.threads
    );

    let mut first_cache = None;
    if opts.trials == 1 {
        // Per-phase timeline of the first protocol, using the same derived
        // seed as its grid cell (cell 0, trial 0); the run is handed to the
        // grid as a cache so nothing simulates twice.
        let protocol = &protocols[0];
        let seed = SimRng::derive_seed(opts.seed, &[0, 0]);
        let reports = dynamics_run(protocol, &scenario, &policy, rounds, seed);
        println!("\n== {protocol}: per-phase timeline ==");
        println!(
            "{:>14} {:>7} {:>12} {:>10} {:>14} {:>8}",
            "phase", "rounds", "reliability", "mean NTX", "radio-on [ms]", "alive"
        );
        for (label, s) in phase_summaries(&reports, &preset.phase_bounds()) {
            println!(
                "{label:>14} {:>7} {:>12.4} {:>10.2} {:>14.2} {:>8.1}",
                s.rounds, s.reliability, s.mean_ntx, s.radio_on_ms, s.mean_alive
            );
        }
        println!();
        first_cache = Some(CachedRun::new(seed, reports));
    }

    let extras = Extras {
        cache: first_cache,
        ..Extras::default()
    };
    let report = grid.build(cli.quick, &protocols, extras).run(&opts);
    report.print_table();
    cli.emit_json(&report);
}

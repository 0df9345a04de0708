//! In-sim policy training for the zoo families: the vectorized farm
//! behind a standard experiment harness.
//!
//! ```text
//! cargo run --release -p dimmer-bench --bin exp_train -- \
//!     [--family calm|jammed|churn-storm|roaming-jammer] \
//!     [--envs N] [--quick] [--trials N] [--threads N] [--seed S] [--json PATH]
//! ```
//!
//! The single grid cell trains the selected family's DQN fully in-sim and
//! reports the training curve (`eval@<transitions>` / `loss@<transitions>`
//! checkpoints) plus `final_eval`, `episodes` and `transitions`. The
//! report — including the JSON — is **byte-identical for any `--envs` and
//! `--threads`**: the farm's rollout width and the scheduler's worker count
//! are both pure prefetch knobs (pinned by the CI `train-smoke` job).
//! Defaults come from the `train:<family>` entry of
//! `dimmer_bench::catalogue`; the grid makes a policy rather than comparing
//! protocols, so `--protocols` is refused.

use dimmer_bench::catalogue::{self, Extras, TRAIN_ENVS};
use dimmer_bench::harness::HarnessCli;

fn main() {
    let cli = HarnessCli::parse();
    let family = cli
        .value_required("--family")
        .unwrap_or_else(|| "calm".to_string());
    let grid = catalogue::lookup(&format!("train:{family}")).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    cli.select_protocols(grid.name(), grid.protocols());
    let envs = cli
        .value_required("--envs")
        .map(|v| {
            v.parse::<usize>().unwrap_or_else(|_| {
                eprintln!("error: --envs expects a positive integer, got '{v}'");
                std::process::exit(2);
            })
        })
        .unwrap_or(TRAIN_ENVS)
        .max(1);
    let opts = cli.run_options(grid.trials(cli.quick), grid.seed());

    println!(
        "training '{family}' in-sim — {} mode, {envs} lockstep environments",
        if cli.quick { "quick" } else { "full" }
    );
    println!(
        "{} trials per cell, {} worker threads, seed {}",
        opts.trials, opts.threads, opts.seed
    );

    let extras = Extras {
        envs,
        ..Extras::default()
    };
    let report = grid.build(cli.quick, &[], extras).run(&opts);
    report.print_table();
    cli.emit_json(&report);
}

//! Fig. 7 — performance on the unknown 48-node D-Cube deployment: aperiodic
//! data collection (5 sources → 1 sink) under no interference, WiFi level 1
//! and WiFi level 2, comparing LWB, Dimmer (with channel hopping and
//! application-layer ACKs, *without retraining the DQN*) and Crystal.
//!
//! Paper numbers: reliability LWB 100/93.6/27 %, Dimmer 100/98.3/95.8 %,
//! Crystal 100/100/99 %; Dimmer's energy approaches Crystal's under
//! interference while LWB's also grows because of lost synchronization.
//!
//! ```text
//! cargo run --release -p dimmer-bench --bin exp_fig7 -- \
//!     [--protocols static,dimmer-dqn,crystal] [--quick] \
//!     [--trials N] [--threads N] [--seed S] [--json PATH]
//! ```
//!
//! Cells are `protocol x interference scenario`; each cell is repeated
//! `--trials` times with derived seeds and aggregated (mean ± 95 % CI).
//! Defaults come from the `fig7` entry of `dimmer_bench::catalogue`.

use dimmer_bench::catalogue::{self, Extras};
use dimmer_bench::harness::HarnessCli;

fn main() {
    let cli = HarnessCli::parse();
    let grid = catalogue::lookup("fig7").expect("fig7 is catalogued");
    let rounds = grid.rounds(cli.quick);
    let opts = cli.run_options(grid.trials(cli.quick), grid.seed());
    let protocols = cli.select_protocols(grid.name(), grid.protocols());

    println!(
        "Fig. 7 — 48-node D-Cube stand-in, {} x {rounds} rounds x {} trials per cell (5 sources -> sink), {} worker threads",
        protocols.join("/"),
        opts.trials,
        opts.threads
    );
    let report = grid
        .build(cli.quick, &protocols, Extras::default())
        .run(&opts);
    report.print_table();

    println!(
        "\nexpected shape (paper): LWB collapses under WiFi level 2 (~27%), Dimmer stays above"
    );
    println!(
        "95%, Crystal around 99-100%; Dimmer's energy approaches Crystal's under interference."
    );
    cli.emit_json(&report);
}

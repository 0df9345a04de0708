//! Fig. 6 — forwarder selection with multi-armed bandits.
//!
//! Interference-free scenario, DQN deactivated, 18 devices; each device gets
//! 10 consecutive rounds to learn its role. The paper observes the number of
//! active forwarders dropping towards ~14 while reliability stays at 99.9 %
//! and the radio-on time drops from 11.04 ms to 9.55 ms.
//!
//! ```text
//! cargo run --release -p dimmer-bench --bin exp_fig6 -- \
//!     [--quick] [--trials N] [--threads N] [--seed S] [--json PATH]
//! ```
//!
//! The experiment runs rule-based Dimmer only (the configuration the paper
//! runs this figure with), so the grid has no protocol axis and
//! `--protocols` is refused, as `dimmerd` refuses it on `fig6`. Defaults
//! come from the `fig6` entry of `dimmer_bench::catalogue`. With the
//! default `--trials 1`, the 30-minute-bucket timeline of the selection run
//! is printed in addition to the aggregate table.

use dimmer_bench::catalogue::{self, Extras};
use dimmer_bench::experiments::{fig6_single, CachedRun};
use dimmer_bench::harness::HarnessCli;
use dimmer_bench::summary::bucketize;
use dimmer_sim::SimRng;

fn main() {
    let cli = HarnessCli::parse();
    let grid = catalogue::lookup("fig6").expect("fig6 is catalogued");
    cli.select_protocols(grid.name(), grid.protocols());
    let rounds = grid.rounds(cli.quick);
    let opts = cli.run_options(grid.trials(cli.quick), grid.seed());

    println!(
        "Fig. 6 — forwarder selection over {} rounds ({} hours of 4 s rounds), {} trials, {} worker threads",
        rounds,
        rounds * 4 / 3600,
        opts.trials,
        opts.threads
    );

    let mut selection_cache = None;
    if opts.trials == 1 {
        // Single-trial timeline with the selection cell's derived seed
        // (cell 0), matching the JSON report; the run is handed to the grid
        // as a cache so it is not simulated twice.
        let seed = SimRng::derive_seed(opts.seed, &[0, 0]);
        let with_fs = fig6_single(rounds, seed, true);
        println!(
            "{:>8} {:>12} {:>12} {:>14}",
            "minute", "forwarders", "reliability", "radio-on [ms]"
        );
        // 450 four-second rounds = 30 simulated minutes per row.
        for (i, bucket) in bucketize(&with_fs, 450).iter().enumerate() {
            println!(
                "{:>8} {:>12.1} {:>12.4} {:>14.2}",
                i * 30,
                bucket.mean_forwarders,
                bucket.reliability,
                bucket.radio_on_ms
            );
        }
        println!();
        selection_cache = Some(CachedRun::new(seed, with_fs));
    }

    let extras = Extras {
        cache: selection_cache,
        ..Extras::default()
    };
    let report = grid.build(cli.quick, &[], extras).run(&opts);
    report.print_table();
    println!("(paper: 99.9% reliability; 9.55 ms with vs 11.04 ms without forwarder selection,");
    println!(" active forwarders dropping towards ~14 of 18)");
    cli.emit_json(&report);
}

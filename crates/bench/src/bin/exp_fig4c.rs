//! Fig. 4c / 4d — adaptivity against dynamic interference.
//!
//! Timeline: 7 min calm → 5 min of 30 % jamming → 5 min calm → 5 min of 5 %
//! jamming → calm, on the 18-node testbed with 4-second rounds. The paper
//! reports 99.3 % reliability for both Dimmer (12.3 ms radio-on) and the PID
//! baseline (14.4 ms); Dimmer's advantage is the lower radio-on time.
//!
//! ```text
//! cargo run --release -p dimmer-bench --bin exp_fig4c -- \
//!     [--protocols dimmer-dqn,pid] [--quick] \
//!     [--trials N] [--threads N] [--seed S] [--json PATH]
//! ```
//!
//! With the default `--trials 1`, the per-minute timeline of each protocol
//! is printed (the figure's actual content) in addition to the aggregate
//! table; with more trials only the aggregates are shown.

use dimmer_bench::catalogue::ProtocolAxis;
use dimmer_bench::experiments::{fig4c_dimmer, fig4c_grid, fig4c_pid, CachedRun};
use dimmer_bench::harness::HarnessCli;
use dimmer_bench::scenarios::dimmer_policy;
use dimmer_bench::summary::{bucketize, summarize};
use dimmer_core::DimmerRoundReport;
use dimmer_sim::SimRng;

/// The protocols with a defined Fig. 4c dynamic timeline.
const SUPPORTED: [&str; 2] = ["dimmer-dqn", "pid"];

fn print_timeline(label: &str, reports: &[DimmerRoundReport]) {
    println!("\n== {label}: per-minute timeline ==");
    println!(
        "{:>6} {:>12} {:>10} {:>14}",
        "minute", "reliability", "mean NTX", "radio-on [ms]"
    );
    // 15 four-second rounds per simulated minute.
    for (minute, bucket) in bucketize(reports, 15).iter().enumerate() {
        println!(
            "{minute:>6} {:>12.4} {:>10.2} {:>14.2}",
            bucket.reliability, bucket.mean_ntx, bucket.radio_on_ms
        );
    }
    let overall = summarize(reports);
    println!("overall: reliability {:.1}%, radio-on {:.1} ms (paper: Dimmer 99.3% / 12.3 ms, PID 99.3% / 14.4 ms)",
             overall.reliability * 100.0, overall.radio_on_ms);
}

fn main() {
    let cli = HarnessCli::parse();
    if cli.has("--protocol") {
        eprintln!("error: --protocol was replaced by --protocols (registry names, e.g. --protocols dimmer-dqn,pid)");
        std::process::exit(2);
    }
    let protocols = cli.select_protocols("fig4c", Some(ProtocolAxis::all(&SUPPORTED)));
    let minutes: u64 = if cli.quick { 14 } else { 27 };
    let rounds = (minutes * 60 / 4) as usize;
    let opts = cli.run_options(1, 7);
    let policy = dimmer_policy(cli.quick);

    let mut dimmer_cache = None;
    let mut pid_cache = None;
    if opts.trials == 1 {
        // Single-trial timelines, using the same derived seeds as the
        // harness cells (cell order = the selected protocol order) so the
        // timeline matches the JSON report; the runs are handed to the grid
        // as a cache so nothing simulates twice.
        for (cell, protocol) in protocols.iter().enumerate() {
            let seed = SimRng::derive_seed(opts.seed, &[cell as u64, 0]);
            match protocol.as_str() {
                "dimmer-dqn" => {
                    let reports = fig4c_dimmer(policy.clone(), rounds, seed);
                    print_timeline("Dimmer (Fig. 4c)", &reports);
                    dimmer_cache = Some(CachedRun::new(seed, reports));
                }
                "pid" => {
                    let reports = fig4c_pid(rounds, seed);
                    print_timeline("PID baseline (Fig. 4d)", &reports);
                    pid_cache = Some(CachedRun::new(seed, reports));
                }
                _ => unreachable!("select_protocols validated against SUPPORTED"),
            }
        }
        println!();
    }

    println!(
        "Fig. 4c/4d aggregates — {} x {rounds} rounds x {} trials, {} worker threads",
        protocols.join("/"),
        opts.trials,
        opts.threads
    );
    let report = fig4c_grid(policy, rounds, &protocols, dimmer_cache, pid_cache).run(&opts);
    report.print_table();
    cli.emit_json(&report);
}

//! Fig. 4b — input-feature selection for the DQN.
//!
//! * Part (i): number of input nodes K ∈ {1, 5, 10, 15, 18}: small K leads to
//!   overly conservative policies (high radio-on time), K = all overfits.
//! * Part (ii): history size M ∈ {0..5}: history helps distinguish transient
//!   from sustained interference (reliability), with diminishing returns.
//!
//! Every grid cell is one (K or M) configuration; every trial trains a
//! fresh model on a shared trace with its own derived seed and evaluates
//! the resulting protocol on a mixed calm/interference scenario, reporting
//! radio-on time, reliability and the quantized DQN size.
//!
//! ```text
//! cargo run --release -p dimmer-bench --bin exp_fig4b -- \
//!     [--part nodes|history] [--protocols dimmer-dqn] [--quick] \
//!     [--trials N] [--threads N] [--seed S] [--json PATH]
//! ```
//!
//! The sweep trains Dimmer's DQN, so `--protocols` accepts only
//! `dimmer-dqn` (interface parity with the comparison binaries).

use std::sync::Arc;

use dimmer_bench::catalogue::ProtocolAxis;
use dimmer_bench::experiments::fig4b_grid;
use dimmer_bench::harness::HarnessCli;
use dimmer_sim::Topology;
use dimmer_traces::TraceCollector;

fn main() {
    let cli = HarnessCli::parse();
    cli.select_protocols("fig4b", Some(ProtocolAxis::all(&["dimmer-dqn"])));
    let part = cli
        .value_required("--part")
        .unwrap_or_else(|| "both".to_string());
    if !["nodes", "history", "both"].contains(&part.as_str()) {
        eprintln!("error: unknown --part '{part}' (expected nodes, history or both)");
        std::process::exit(2);
    }
    let opts = cli.run_options(if cli.quick { 1 } else { 3 }, 1000);
    let iterations = if cli.quick { 4_000 } else { 20_000 };
    let trace_rounds = if cli.quick { 60 } else { 160 };

    let topo = Topology::kiel_testbed_18(1);
    println!("collecting shared training trace ({trace_rounds} rounds)...");
    let traces = Arc::new(TraceCollector::new(&topo, 21).collect(trace_rounds));

    println!(
        "Fig. 4b — {} models per cell (part: {part}), {} worker threads",
        opts.trials, opts.threads
    );
    let report = fig4b_grid(traces, iterations, 40, &part).run(&opts);
    report.print_table();
    println!("(paper: K = 1..5 wastes energy, K = 18 overfits, K = 10 minimizes radio-on time;");
    println!(" no history 98.5% vs 99% with history, more than 2 entries adds little)");
    cli.emit_json(&report);
}

//! Table I + §IV-B footprint: the DQN input-vector layout and the embedded
//! network's memory cost.
//!
//! ```text
//! cargo run --release -p dimmer-bench --bin exp_table1 -- \
//!     [--trials N] [--threads N] [--seed S] [--json PATH]
//! ```
//!
//! The footprint is deterministic, so trials only exist for interface
//! parity with the other binaries (the JSON report shows stddev 0). The
//! table describes Dimmer's DQN and compares no protocols, so
//! `--protocols` is refused, as `dimmerd` refuses it on `table1`.

use dimmer_bench::catalogue::{self, Extras};
use dimmer_bench::experiments::table1_summary;
use dimmer_bench::harness::HarnessCli;
use dimmer_core::DimmerConfig;

fn main() {
    let cli = HarnessCli::parse();
    let grid = catalogue::lookup("table1").expect("table1 is catalogued");
    cli.select_protocols(grid.name(), grid.protocols());
    let cfg = DimmerConfig::default();
    let summary = table1_summary(&cfg);

    println!("== Table I: input vector of Dimmer's DQN ==");
    println!("{:<16} {:>14} Normalization", "Input", "Rows");
    println!(
        "{:<16} {:>14} [0, 20ms] -> [-1, 1]",
        "Radio-on time", cfg.k_input_nodes
    );
    println!(
        "{:<16} {:>14} [50, 100%] -> [-1, 1]",
        "Reliability", cfg.k_input_nodes
    );
    println!(
        "{:<16} {:>14} one-hot encoding",
        "N parameter",
        cfg.n_max + 1
    );
    println!(
        "{:<16} {:>14} -1 if losses, otherwise 1",
        "History", cfg.history_size
    );
    println!("total input dimension: {}", summary.state_dim);

    println!(
        "\nexample state vector (pessimistic start, N_TX = {}):",
        cfg.initial_ntx
    );
    println!("{:?}", summary.example_state);

    println!("\n== Embedded DQN footprint (paper: ~2.1 kB flash, ~400 B RAM, 31-30-3) ==");
    println!("parameters          : {}", summary.parameters);
    println!("flash (2 B weights) : {} B", summary.flash_bytes);
    println!("ram  (4 B buffers)  : {} B", summary.ram_bytes);
    println!(
        "pretrained weights shipped with dimmer-core: {}",
        summary.pretrained_shipped
    );

    if cli.json.is_some() {
        let opts = cli.run_options(grid.trials(cli.quick), grid.seed());
        let report = grid.build(cli.quick, &[], Extras::default()).run(&opts);
        cli.emit_json(&report);
    }
}

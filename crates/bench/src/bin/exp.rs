//! `exp <grid>` — runs any grid of the experiment catalogue offline.
//!
//! ```text
//! cargo run --release -p dimmer-bench --bin exp -- <grid> \
//!     [--quick] [--trials N] [--threads N] [--seed S] \
//!     [--protocols a,b,c] [--json PATH]
//! ```
//!
//! `<grid>` is a name `dimmer_bench::catalogue::lookup` resolves: `table1`,
//! `fig4b:nodes|history|both`, `fig4c`, `fig5`, `fig5-seeds`, `fig6`,
//! `fig7`, `topology-size`, `dynamics:<preset>`, `train:<family>`, `city`
//! or `grid10k`. Every default (seed, trials, round counts, protocols)
//! comes from the grid's catalogue entry, so the `--json` report is the
//! report `dimmerd` serves for the same spec. `--threads` sets the grid's
//! worker threads and the fan-out inside one trial (the flood batches of
//! `city` and `grid10k`, the rollout width of `train:<family>`); no report
//! depends on it.
//!
//! Besides the aggregate table and the entry's notes, `table1` prints the
//! Table I input layout and the embedded footprint, and with one trial
//! `fig4c`, `fig6` and `dynamics:<preset>` print per-round timelines. The
//! timeline runs use their cells' trial seeds and are handed to the grid as
//! a [`CachedRun`], so nothing simulates twice.

use dimmer_bench::catalogue::{self, Extras, Grid};
use dimmer_bench::experiments::{dynamics_run, fig4c_run, fig6_single, table1_summary, CachedRun};
use dimmer_bench::harness::{HarnessCli, RunOptions};
use dimmer_bench::scenarios::{dimmer_policy, dynamic_scenario};
use dimmer_bench::summary::{phase_summaries, summarize};
use dimmer_core::{DimmerConfig, DimmerRoundReport};
use dimmer_sim::{SimRng, Topology};

fn main() {
    let cli = HarnessCli::parse();
    let grid = catalogue::lookup(&cli.grid).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let protocols = cli.select_protocols(&grid);
    let opts = cli.run_options(grid.trials(cli.quick), grid.seed());
    let selection = if protocols.is_empty() {
        String::new()
    } else {
        format!(", protocols {}", protocols.join("/"))
    };
    println!(
        "{} — {} scale, {} trials per cell, {} worker threads, seed {}{selection}",
        grid.name(),
        if cli.quick { "quick" } else { "full" },
        opts.trials,
        opts.threads,
        opts.seed,
    );
    let extras = Extras {
        cache: extra_output(&grid, cli.quick, &protocols, &opts),
        batch_threads: cli.threads,
        envs: cli.threads,
        ..Extras::default()
    };
    let report = grid.build(cli.quick, &protocols, extras).run(&opts);
    report.print_table();
    for line in grid.notes() {
        println!("{line}");
    }
    cli.emit_json(&report);
}

/// Prints what `grid` shows besides its aggregate table, returning the
/// runs simulated for it so the grid reuses them.
fn extra_output(
    grid: &Grid,
    quick: bool,
    protocols: &[String],
    opts: &RunOptions,
) -> Option<CachedRun> {
    let rounds = grid.rounds(quick);
    // The seed the grid runner derives for trial 0 of cell `cell`.
    let seed = |cell: usize| SimRng::derive_seed(opts.seed, &[cell as u64, 0]);
    let cache = match grid.name() {
        "table1" => {
            print_table1();
            return None;
        }
        _ if opts.trials != 1 => return None,
        "fig4c" => {
            let policy = dimmer_policy(quick);
            let mut cache = CachedRun::default();
            for (cell, protocol) in protocols.iter().enumerate() {
                let reports = fig4c_run(protocol, &policy, rounds, seed(cell));
                print_minutes(protocol, &reports);
                cache = cache.with(seed(cell), reports);
            }
            cache
        }
        "fig6" => {
            let reports = fig6_single(rounds, seed(0), true);
            print_half_hours(&reports);
            CachedRun::new(seed(0), reports)
        }
        name if name.starts_with("dynamics:") => {
            let (protocol, preset) = (&protocols[0], grid.variant());
            let reports = dynamics_run(protocol, preset, &dimmer_policy(quick), rounds, seed(0));
            print_phases(protocol, preset, rounds, &reports);
            CachedRun::new(seed(0), reports)
        }
        _ => return None,
    };
    println!();
    Some(cache)
}

/// Table I's input-vector layout and the embedded DQN's footprint.
fn print_table1() {
    let cfg = DimmerConfig::default();
    let summary = table1_summary(&cfg);
    println!("\n== Table I: input vector of Dimmer's DQN ==");
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
    println!("\n== Embedded DQN footprint ==");
    println!("parameters          : {}", summary.parameters);
    println!("flash (2 B weights) : {} B", summary.flash_bytes);
    println!("ram  (4 B buffers)  : {} B", summary.ram_bytes);
    println!(
        "pretrained weights shipped with dimmer-core: {}\n",
        summary.pretrained_shipped
    );
}

/// The Fig. 4c/4d per-minute timeline of one protocol.
fn print_minutes(protocol: &str, reports: &[DimmerRoundReport]) {
    println!("\n== {protocol}: per-minute timeline ==");
    println!(
        "{:>6} {:>12} {:>10} {:>14}",
        "minute", "reliability", "mean NTX", "radio-on [ms]"
    );
    // 15 four-second rounds per simulated minute.
    for (minute, row) in reports.chunks(15).map(summarize).enumerate() {
        println!(
            "{minute:>6} {:>12.4} {:>10.2} {:>14.2}",
            row.reliability, row.mean_ntx, row.radio_on_ms
        );
    }
    let overall = summarize(reports);
    println!(
        "overall: reliability {:.1}%, radio-on {:.1} ms",
        overall.reliability * 100.0,
        overall.radio_on_ms
    );
}

/// The Fig. 6 timeline of the forwarder-selection run in 30-minute rows.
fn print_half_hours(reports: &[DimmerRoundReport]) {
    println!("\n== with_selection: 30-minute timeline ==");
    println!(
        "{:>8} {:>12} {:>12} {:>14}",
        "minute", "forwarders", "reliability", "radio-on [ms]"
    );
    // 450 four-second rounds = 30 simulated minutes per row.
    for (i, row) in reports.chunks(450).map(summarize).enumerate() {
        println!(
            "{:>8} {:>12.1} {:>12.4} {:>14.2}",
            i * 30,
            row.mean_forwarders,
            row.reliability,
            row.radio_on_ms
        );
    }
}

/// The per-phase timeline of one protocol through a dynamic-world preset.
fn print_phases(protocol: &str, preset: &str, rounds: usize, reports: &[DimmerRoundReport]) {
    let topo = Topology::kiel_testbed_18(1);
    let scenario = dynamic_scenario(preset, rounds, &topo).expect("catalogued presets build");
    println!(
        "\n== {protocol} @ {preset}: per-phase timeline ({}, {} scripted events) ==",
        scenario.summary,
        scenario.script.len()
    );
    println!(
        "{:>14} {:>7} {:>12} {:>10} {:>14} {:>8}",
        "phase", "rounds", "reliability", "mean NTX", "radio-on [ms]", "alive"
    );
    for (label, s) in phase_summaries(reports, &scenario.phase_bounds()) {
        println!(
            "{label:>14} {:>7} {:>12.4} {:>10.2} {:>14.2} {:>8.1}",
            s.rounds, s.reliability, s.mean_ntx, s.radio_on_ms, s.mean_alive
        );
    }
}

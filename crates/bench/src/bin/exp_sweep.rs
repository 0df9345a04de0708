//! Scenario-grid sweeps beyond the paper's figures.
//!
//! ```text
//! cargo run --release -p dimmer-bench --bin exp_sweep -- \
//!     --preset fig5-seeds|topology-size|city|grid10k \
//!     [--protocols a,b,c] [--quick] \
//!     [--trials N] [--threads N] [--seed S] [--json PATH]
//! ```
//!
//! Presets:
//!
//! * `fig5-seeds` — the Fig. 5 jamming comparison at 10 % and 25 % duty
//!   cycle (protocols default to `static,dimmer-dqn,pid`), defaulting to
//!   16 trials per cell to estimate the reliability *distribution* rather
//!   than a point sample.
//! * `topology-size` — the selected protocols (default
//!   `static,dimmer-rule`) on square grid topologies (3x3 .. 6x6) with a
//!   jammer at the grid centre: a scalability sweep that was impractical
//!   before the parallel engine.
//! * `city` — batched floods over the sparse city-scale worlds
//!   (city-block, campus, warehouse, 2500-node grid): the CSR-only
//!   compiled topologies no dense sweep can represent. The cells compare
//!   worlds, not protocols, so `--protocols` is refused.
//! * `grid10k` — one 10 000-node sparse grid cell, the scale rung of the
//!   threads-scaling bench curve. `--protocols` does not apply.
//!
//! `fig5-seeds`, `topology-size` and `city` are grids `dimmerd` serves, so
//! their defaults come from `dimmer_bench::catalogue`; `grid10k` has no
//! daemon counterpart and keeps its defaults here.
//!
//! For the batched presets (`city`, `grid10k`) the `--threads` flag also
//! fans each trial's floods across that many scoped workers
//! (`FloodSimulator::run_parallel`); reports stay byte-identical for every
//! thread count, so CI `cmp`s `--threads 1` against `--threads 4`.

use dimmer_bench::catalogue::{self, Extras};
use dimmer_bench::experiments::grid10k_scale_grid;
use dimmer_bench::harness::HarnessCli;

fn main() {
    let cli = HarnessCli::parse();
    let preset = cli
        .value_required("--preset")
        .unwrap_or_else(|| "fig5-seeds".to_string());

    let (grid, opts) = match preset.as_str() {
        "fig5-seeds" | "topology-size" | "city" => {
            let entry = catalogue::lookup(&preset).expect("sweep presets are catalogued");
            let protocols = cli.select_protocols(entry.name(), entry.protocols());
            let extras = Extras {
                batch_threads: cli.threads,
                ..Extras::default()
            };
            (
                entry.build(cli.quick, &protocols, extras),
                cli.run_options(entry.trials(cli.quick), entry.seed()),
            )
        }
        "grid10k" => {
            let floods = if cli.quick { 6 } else { 32 };
            (
                grid10k_scale_grid(floods, cli.threads),
                cli.run_options(2, 500),
            )
        }
        other => {
            eprintln!(
                "error: unknown --preset '{other}' (expected fig5-seeds, topology-size, city or grid10k)"
            );
            std::process::exit(2);
        }
    };

    println!(
        "sweep '{}' — {} cells x {} trials, {} worker threads",
        grid.name(),
        grid.len(),
        opts.trials,
        opts.threads
    );
    let report = grid.run(&opts);
    report.print_table();
    cli.emit_json(&report);
}

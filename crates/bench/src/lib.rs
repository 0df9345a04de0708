//! # dimmer-bench — the experiment engine
//!
//! One binary per table/figure of the paper's evaluation, plus a sweep
//! driver for scenario grids that have no figure counterpart (see the crate
//! map and the reproduction guide in the repository-root `README.md` and
//! `ARCHITECTURE.md`):
//!
//! | Binary        | Reproduces                                              |
//! |---------------|---------------------------------------------------------|
//! | `exp_table1`  | Table I + the embedded-DQN footprint numbers (§IV-B)    |
//! | `exp_fig4b`   | Fig. 4b — input-feature selection (K and history sweep) |
//! | `exp_fig4c`   | Fig. 4c/4d — adaptivity against dynamic interference    |
//! | `exp_fig5`    | Fig. 5a/5b — reliability & radio-on vs interference     |
//! | `exp_fig6`    | Fig. 6 — forwarder selection with multi-armed bandits   |
//! | `exp_fig7`    | Fig. 7 — 48-node D-Cube comparison vs LWB and Crystal   |
//! | `exp_sweep`   | Grid presets beyond the paper (seed & topology sweeps)  |
//!
//! Every binary accepts `--protocols a,b,c --trials N --threads N --seed S
//! --json PATH` in addition to `--quick`: protocol names resolve against
//! the registry in `dimmer-baselines` (`"dimmer-dqn"`, `"dimmer-rule"`,
//! `"pid"`, `"static"`, `"crystal"`), trials of each scenario cell are
//! fanned out across worker threads by the [`harness`] module, per-trial
//! seeds are derived deterministically (reports are bit-identical
//! regardless of `--threads`), and [`report`] aggregates mean / stddev /
//! 95 % CI per metric with optional machine-readable JSON output.
//!
//! The library layers, bottom up:
//!
//! * [`scenarios`] — interference/topology scenario builders and tiny CLI
//!   helpers shared by the binaries,
//! * [`summary`] — the report-aggregation helpers every figure runner and
//!   grid shares (run summaries, harness metrics, timeline buckets),
//! * [`experiments`] — the testable per-figure experiment cores and their
//!   [`ScenarioGrid`] builders, all running protocols through the generic
//!   `RoundEngine` via the protocol registry,
//! * [`catalogue`] — the one table of served grid families: each grid's
//!   defaults, its protocol axis and the builder call, shared by the
//!   binaries and `dimmerd`, plus the one protocol resolver,
//! * [`scheduler`] — the reusable trial scheduler (worker pool, stateless
//!   per-trial seeding, deterministic report assembly) shared by the
//!   harness and the `dimmerd` daemon,
//! * [`harness`] — the parallel multi-trial engine,
//! * [`report`] — statistics aggregation, table printing and JSON,
//!
//! plus the Criterion micro-benchmarks in `benches/micro.rs`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod catalogue;
pub mod experiments;
pub mod harness;
pub mod report;
pub mod scenarios;
pub mod scheduler;
pub mod summary;
pub mod training;

pub use harness::{HarnessCli, RunOptions, ScenarioGrid, TrialMetrics};
pub use report::{Aggregate, CellReport, GridReport};
pub use scenarios::{dimmer_policy, dynamic_interference_scenario, kiel_jamming};
pub use summary::{bucketize, mean_forwarders, summarize, summary_metrics, ProtocolSummary};

//! # dimmer-bench — the experiment engine
//!
//! One binary, `exp <grid>`, runs every table and figure of the paper's
//! evaluation plus the scenario sweeps that have no figure counterpart (see
//! the crate map and the reproduction guide in the repository-root
//! `README.md` and `ARCHITECTURE.md`). The grid names of the [`catalogue`]:
//!
//! | Grid                | Reproduces                                              |
//! |---------------------|---------------------------------------------------------|
//! | `table1`            | Table I + the embedded-DQN footprint numbers (§IV-B)    |
//! | `fig4b:<part>`      | Fig. 4b — input-feature selection (K and history sweep) |
//! | `fig4c`             | Fig. 4c/4d — adaptivity against dynamic interference    |
//! | `fig5`              | Fig. 5a/5b — reliability & radio-on vs interference     |
//! | `fig6`              | Fig. 6 — forwarder selection with multi-armed bandits   |
//! | `fig7`              | Fig. 7 — 48-node D-Cube comparison vs LWB and Crystal   |
//! | `fig5-seeds`        | Seed sweep of the Fig. 5 comparison                     |
//! | `topology-size`     | Dimmer vs static LWB on growing grid topologies         |
//! | `city`, `grid10k`   | Batched floods over sparse worlds up to 10 000 nodes    |
//! | `dynamics:<preset>` | Dynamic worlds: node churn, link fades, a roaming jammer |
//! | `train:<family>`    | In-sim DQN training of one policy-zoo family            |
//!
//! `exp` accepts `--protocols a,b,c --trials N --threads N --seed S
//! --json PATH` and `--quick` after the grid name: protocol names resolve
//! against `dimmer_baselines::PROTOCOLS` (`"dimmer-dqn"`,
//! `"dimmer-rule"`, `"pid"`, `"static"`, `"crystal"`, `"dimmer-zoo"`),
//! trials of each scenario cell are fanned out across worker threads by the
//! [`harness`] module, per-trial seeds are derived deterministically
//! (reports are bit-identical regardless of `--threads`), and [`report`]
//! aggregates mean / stddev / 95 % CI per metric with optional
//! machine-readable JSON output.
//!
//! The library layers, bottom up:
//!
//! * [`scenarios`] — interference/topology and dynamic-world scenario
//!   builders,
//! * [`summary`] — the report-aggregation helpers every figure runner and
//!   grid shares (run, phase and timeline-row summaries, harness metrics),
//! * [`experiments`] — the testable per-figure experiment cores and their
//!   [`ScenarioGrid`] builders, all running protocols through the generic
//!   `RoundEngine` via `SimulationBuilder::build_protocol`,
//! * [`catalogue`] — the one table of served grid families: each grid's
//!   defaults, its protocol axis and the builder call, shared by `exp`
//!   and `dimmerd`, plus the one protocol resolver,
//! * [`harness`] — the parallel multi-trial engine (stateless per-trial
//!   seeding, the shared worker pool, deterministic report assembly) that
//!   `exp` and the `dimmerd` daemon run grids through,
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
pub mod summary;
pub mod training;

pub use harness::{HarnessCli, RunOptions, ScenarioGrid, TrialMetrics};
pub use report::{Aggregate, CellReport, GridReport};
pub use scenarios::{dimmer_policy, dynamic_interference_scenario, kiel_jamming};
pub use summary::{mean_forwarders, summarize, summary_metrics, ProtocolSummary};

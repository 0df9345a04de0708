//! # dimmer-traces — trace collection and the offline training environment
//!
//! Training an RL agent directly on a deployment would take hundreds of
//! hours; the paper instead collects traces "over multiple days, for
//! different times of the day and frequencies" and trains the DQN offline in
//! a trace-driven environment (§IV-B "Trace environment"). This crate
//! reproduces that pipeline on the simulated substrate:
//!
//! * [`TraceCollector`] runs LWB rounds over a jamming schedule that sweeps
//!   calm periods and interference ratios and records, for every round
//!   sample, the feedback that **each possible `N_TX`** would have produced
//!   under the same conditions. (The paper approximates this by executing
//!   the actions back-to-back with minimal latency; the simulator can simply
//!   evaluate all of them under identical conditions.)
//! * [`TraceDataset`] holds the samples in memory: per round, the
//!   per-node outcome of every `N_TX`.
//! * [`TraceEnvironment`] exposes the dataset through the
//!   [`dimmer_rl::Environment`] trait: Table-I states, the
//!   decrease/maintain/increase action space, and the Eq. 3 reward.
//! * [`pipeline::train_policy`] wires collector → environment → DQN trainer
//!   into the one-call training entry point used by the examples and the
//!   benchmark harness.
//!
//! ## Example
//!
//! ```
//! use dimmer_traces::{TraceCollector, TraceEnvironment};
//! use dimmer_core::DimmerConfig;
//! use dimmer_sim::Topology;
//!
//! let topo = Topology::kiel_testbed_18(1);
//! let dataset = TraceCollector::new(&topo, 42).collect(60);
//! assert_eq!(dataset.len(), 60);
//! let env = TraceEnvironment::new(dataset, DimmerConfig::default(), 1);
//! assert_eq!(dimmer_rl::Environment::state_dim(&env), 31);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod collector;
pub mod dataset;
pub mod env;
pub mod pipeline;

pub use collector::TraceCollector;
pub use dataset::{NtxOutcome, TraceDataset, TraceSample};
pub use env::TraceEnvironment;
pub use pipeline::{train_policy, TrainingReport};

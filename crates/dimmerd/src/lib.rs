//! # dimmerd — simulation as a service
//!
//! A long-lived daemon that serves the repository's experiment grids over
//! a newline-delimited JSON TCP protocol, reusing everything expensive
//! across requests:
//!
//! * **one grid runner** — submitted scenarios run through the same
//!   `ScenarioGrid::run` (stateless per-trial seeding, order-independent
//!   worker fan-out, deterministic report assembly) as the `exp <grid>`
//!   binary, so a served report is byte-identical to the same
//!   scenario's offline `--json` output;
//! * **a warm world cache** — compiled CSR topologies and their compiled
//!   interference banks are built once and cloned per trial
//!   ([`cache::WorldCache`]);
//! * **result memoization** — finished reports are stored under
//!   `(scenario_hash, seed)` with an LRU byte budget
//!   ([`cache::MemoCache`]); resubmitting an equivalent scenario answers
//!   at submit time with the identical bytes.
//!
//! The daemon is deterministic by construction: no wall clock, no hash
//! maps, no ambient environment — its observable behaviour (including
//! every `stats` counter) is a pure function of the request sequence.
//!
//! Layers: [`json`] (the workspace's `dimmer-json` codec, re-exported),
//! [`proto`] (wire commands), [`scenario`] (canonical specs over the
//! `dimmer_bench::catalogue` grids), [`cache`]
//! (warm worlds + memoized results), [`service`] (queue and executor),
//! [`server`] (TCP framing). The `dimmerd` binary wires them together;
//! `dimmer-cli` is the matching client.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod proto;
pub mod scenario;
pub mod server;
pub mod service;

/// The wire codec: the workspace's one JSON crate, re-exported so clients
/// reach it as `dimmerd::json`.
pub use dimmer_json as json;

pub use cache::{MemoCache, MemoStats, WorldCache};
pub use proto::{Request, COMMANDS};
pub use scenario::ScenarioSpec;
pub use service::{Daemon, DaemonConfig};

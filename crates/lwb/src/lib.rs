//! # dimmer-lwb — the Low-power Wireless Bus
//!
//! LWB (Ferrari et al., SenSys 2012) turns a multi-hop low-power wireless
//! network into a logical shared bus: a central *host/coordinator* computes a
//! communication schedule and disseminates it in a *control slot*; each
//! scheduled source then gets a *data slot*; every slot is executed as one
//! Glossy flood, so any node can receive any packet without routing.
//!
//! This crate implements the round structure Dimmer builds on (the paper uses
//! the 2019 EWSN-competition reimplementation of LWB):
//!
//! * [`Schedule`] — per-round slot assignment (one data slot per source, in
//!   node-id order),
//! * [`RoundExecutor`] — executes a full round (control slot + data slots)
//!   on top of [`dimmer_glossy`] and the [`dimmer_sim`] substrate, including
//!   missed-schedule semantics (a node that does not receive the control
//!   flood sits out the round's data slots),
//! * [`HoppingSequence`] — slot-based channel hopping (control slots always
//!   on channel 26, as in the paper),
//! * [`TrafficPattern`] — the two workloads from the evaluation: periodic
//!   all-to-all broadcast (18-node testbed) and aperiodic collection from a
//!   set of sources to a sink (D-Cube's "Data Collection V1").
//!
//! ## Example
//!
//! ```
//! use dimmer_lwb::{LwbConfig, RoundExecutor, Schedule};
//! use dimmer_glossy::NtxAssignment;
//! use dimmer_sim::{Topology, NoInterference, SimRng, SimTime};
//!
//! let topo = Topology::kiel_testbed_18(1);
//! let cfg = LwbConfig::testbed_default();
//! let schedule = Schedule::new(0, topo.node_ids().collect(), NtxAssignment::Uniform(3));
//! let mut exec = RoundExecutor::new(&topo, &NoInterference, cfg);
//! let round = exec.run_round(&schedule, SimTime::ZERO, &mut SimRng::seed_from(3));
//! let (reliability, _losses) = round.reliability_and_losses(None);
//! assert!(reliability > 0.9);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod hopping;
pub mod round;
pub mod schedule;
pub mod traffic;

pub use config::LwbConfig;
pub use hopping::HoppingSequence;
pub use round::{RoundExecutor, RoundOutcome, SlotOutcome};
pub use schedule::Schedule;
pub use traffic::TrafficPattern;

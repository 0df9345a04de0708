//! # dimmer-sim — low-power wireless network substrate
//!
//! This crate provides the simulated substrate on which the Dimmer protocol
//! stack (Glossy floods, LWB rounds, the Dimmer controller and all baselines)
//! runs. It replaces the physical TelosB testbeds used in the paper
//! *"Dimmer: Self-Adaptive Network-Wide Flooding with Reinforcement Learning"*
//! (ICDCS 2021) with a deterministic, seedable model of:
//!
//! * **time** — microsecond-resolution simulation timestamps ([`SimTime`],
//!   [`SimDuration`]),
//! * **topology** — node positions and pairwise link qualities derived from a
//!   log-distance path-loss model ([`Topology`], [`Position`], [`NodeId`]),
//!   including the two deployments evaluated in the paper (an 18-node 3-hop
//!   office testbed and the 48-node D-Cube testbed), plus the
//!   structure-of-arrays [`CompiledTopology`] view (CSR adjacency, dense PRR
//!   matrix, quality buckets) that the flood hot path runs on,
//! * **radio** — IEEE 802.15.4 channels, radio states and radio-on-time /
//!   energy accounting ([`Channel`], [`RadioState`], [`RadioAccounting`]),
//! * **interference** — controlled 802.15.4 jammers emitting periodic 13 ms
//!   bursts (JamLab-style), WiFi-like wide-band interference with the two
//!   D-Cube intensity levels, and composite/time-scheduled scenarios
//!   ([`interference`] module).
//!
//! Everything above this crate only consumes *slot-level* observables
//! (did a packet arrive? how long was the radio on?), which is exactly the
//! abstraction boundary the paper's protocol logic sits on.
//!
//! ## Example
//!
//! ```
//! use dimmer_sim::{Topology, Channel, SimTime};
//! use dimmer_sim::interference::{PeriodicJammer, InterferenceModel};
//!
//! // The 18-node testbed from the paper, with one jammer at 30 % duty cycle.
//! let topo = Topology::kiel_testbed_18(42);
//! assert_eq!(topo.num_nodes(), 18);
//!
//! let jammer = PeriodicJammer::with_duty_cycle(topo.position(dimmer_sim::NodeId(5)), 0.30);
//! let busy = jammer.busy_fraction(SimTime::from_millis(10), 1_000, Channel::new(26).unwrap(),
//!                                 topo.position(dimmer_sim::NodeId(4)));
//! assert!((0.0..=1.0).contains(&busy));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod compiled;
pub mod interference;
pub mod link;
pub mod radio;
pub mod rng;
pub mod time;
pub mod topogen;
pub mod topology;
pub mod workqueue;
pub mod world;

pub use compiled::{CompiledTopology, DENSE_NODE_LIMIT};
pub use interference::{
    kiel_jamming, CompositeInterference, InterferenceModel, MobileJammer, NoInterference,
    PeriodicJammer, ScheduledInterference, SlotInterference, WifiInterference, WifiLevel,
};
pub use link::{LinkQuality, PathLossModel};
pub use radio::{Channel, RadioAccounting, RadioState};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use topology::{NodeId, Position, Topology, TopologyKind};
pub use workqueue::{run_indexed_jobs, stream_indexed_jobs};
pub use world::{ScenarioScript, World, WorldEvent, WorldUpdate};

//! # dimmer-glossy — Glossy synchronous-transmission floods
//!
//! Glossy (Ferrari et al., IPSN 2011) is the flooding primitive underneath
//! LWB and Dimmer: an initiator transmits a packet, every node that receives
//! it retransmits it in the very next transmission slot, and — thanks to
//! tight time synchronization — concurrent retransmissions of the *same*
//! packet interfere constructively (or are resolved by the capture effect),
//! so the flood washes over the whole multi-hop network within a few
//! milliseconds. Each node relays the packet `N_TX` times, alternating
//! between reception and transmission.
//!
//! This crate simulates a Glossy flood slot-by-slot on top of the
//! [`dimmer_sim`] substrate and reports, per node, the observables the Dimmer
//! protocol needs:
//!
//! * whether the packet was received ([`NodeFloodOutcome::received`]),
//! * how much radio-on time the flood cost ([`NodeFloodOutcome::radio`]),
//! * at which relay slot the packet first arrived (a hop-count proxy).
//!
//! `N_TX` is per node: the Dimmer coordinator sets a *global* value for
//! adaptivity, while the distributed forwarder selection sets `N_TX = 0` on
//! passive receivers (they turn their radio off right after the first
//! successful reception and never relay).
//!
//! Two implementations share those semantics: the optimized kernel in
//! [`flood`] (structure-of-arrays scratch in a reusable [`FloodWorkspace`],
//! CSR link scatter over a [`dimmer_sim::CompiledTopology`]) that every
//! production path runs, and the naive dense original in [`mod@reference`],
//! kept verbatim as the equivalence oracle the kernel is pinned to
//! byte-for-byte at fixed seeds.
//!
//! [`FloodSimulator`] is the kernel's one driver. It owns a compiled world
//! with a fixed node set, the compiled interference bank, the workspace and
//! the alive mask, and runs single floods as well as batches of
//! [`FloodJob`]s, serially or across worker threads ([`mod@batch`]).
//! [`FloodBatch`] is another name for it.
//!
//! ## Example
//!
//! ```
//! use dimmer_glossy::{FloodSimulator, GlossyConfig};
//! use dimmer_sim::{Topology, NoInterference, SimRng, SimTime};
//!
//! let topo = Topology::kiel_testbed_18(1);
//! let mut sim = FloodSimulator::new(&topo, &NoInterference);
//! let cfg = GlossyConfig::default(); // N_TX = 3, 20 ms slot, channel 26
//! let mut rng = SimRng::seed_from(7);
//! let outcome = sim.flood(&cfg, topo.coordinator(), SimTime::ZERO, &mut rng);
//! assert!(outcome.reliability() > 0.95);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod batch;
pub mod config;
pub mod flood;
pub mod outcome;
pub mod reference;

pub use batch::{FloodBatch, FloodJob};
pub use config::{GlossyConfig, NtxAssignment};
pub use flood::{FloodSimulator, FloodWorkspace};
pub use outcome::{FloodOutcome, NodeFloodOutcome};
pub use reference::ReferenceFloodSimulator;

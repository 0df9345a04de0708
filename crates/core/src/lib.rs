//! # dimmer-core — the Dimmer self-adaptive flooding protocol
//!
//! Dimmer (Poirot & Landsiedel, ICDCS 2021) is a self-adaptive
//! synchronous-transmissions protocol built on LWB. It adds three components
//! on top of the LWB round structure (Fig. 3 of the paper):
//!
//! * a **statistics collector** ([`stats`]) — every node continuously tracks
//!   its packet-reception rate and radio-on time and shares them in a 2-byte
//!   header ([`feedback`]) piggybacked on its data packets;
//! * **central adaptivity control** ([`adaptivity`], [`state`], [`mod@reward`]) —
//!   at the end of each round the coordinator aggregates the collected
//!   feedback into the DQN input vector of Table I, executes its embedded
//!   quantized deep Q-network and chooses to *decrease / maintain / increase*
//!   the global retransmission parameter `N_TX`, which is disseminated with
//!   the next schedule;
//! * **distributed forwarder selection** ([`forwarder`]) — in
//!   interference-free periods, devices sequentially run a two-armed Exp3
//!   bandit to learn whether they can become passive receivers
//!   (`N_TX = 0`) and save energy without harming dissemination.
//!
//! The generic [`RoundEngine`] ([`engine`]) ties the pieces together: it owns
//! the LWB round loop, feedback pipeline and energy/reliability accounting,
//! and is driven by any [`Controller`] ([`controller`]) — Dimmer's
//! [`AdaptivityController`], the fixed [`StaticNtxController`], or external
//! controllers such as the PID and Crystal baselines in `dimmer-baselines`.
//! Dimmer itself is the engine driven by the adaptivity controller.
//!
//! ## Quickstart
//!
//! ```
//! use dimmer_core::{AdaptivityController, AdaptivityPolicy, DimmerConfig, RoundEngine};
//! use dimmer_lwb::LwbConfig;
//! use dimmer_sim::{NoInterference, Topology};
//!
//! let topo = Topology::kiel_testbed_18(1);
//! let config = DimmerConfig::default();
//! let dimmer = AdaptivityController::new(AdaptivityPolicy::rule_based(), config.clone());
//! let mut engine = RoundEngine::with_controller(
//!     &topo,
//!     &NoInterference,
//!     LwbConfig::testbed_default(),
//!     config,
//!     dimmer,
//!     42,
//! );
//! let report = engine.run_round();
//! assert!(report.reliability > 0.9);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod action;
pub mod adaptivity;
pub mod config;
pub mod controller;
pub mod engine;
pub mod feedback;
pub mod forwarder;
pub mod pretrained;
pub mod reward;
pub mod sim_env;
pub mod state;
pub mod stats;
pub mod zoo;

pub use action::AdaptivityAction;
pub use adaptivity::{AdaptivityController, AdaptivityPolicy};
pub use config::{DimmerConfig, ForwarderConfig};
pub use controller::{ControlDecision, Controller, RoundObservation, StaticNtxController};
pub use engine::{
    DimmerRoundReport, EpochDriver, EpochOutcome, RoundEngine, RoundMode, Simulation,
};
pub use feedback::FeedbackHeader;
pub use forwarder::{ForwarderSelection, Role};
pub use reward::reward;
pub use sim_env::SimEnvironment;
pub use state::StateBuilder;
pub use stats::{GlobalView, NodeStats, StatisticsCollector, DEFAULT_STATS_WINDOW};
pub use zoo::{ZooController, ZOO_FAMILIES};

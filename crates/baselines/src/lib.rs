//! # dimmer-baselines — the comparison points of the paper's evaluation
//!
//! Three baselines appear in the evaluation (§V):
//!
//! * **static LWB** — plain LWB with a fixed `N_TX = 3` and a single channel
//!   (the `"static"` protocol of [`PROTOCOLS`]: the engine driven by
//!   [`StaticNtxController`](dimmer_core::StaticNtxController)); the
//!   non-adaptive reference that collapses to ~27 % reliability under
//!   strong WiFi interference,
//! * **a tuned PI(D) controller** — the traditional closed-loop alternative
//!   to the DQN, with `K_P = 1`, `K_I = 0.25`, tuned for reliability first
//!   ([`PidController`]); it adapts but overshoots and cannot quantify
//!   interference strength,
//! * **Crystal** — the state-of-the-art dependable ST protocol for aperiodic
//!   collection (Istomin et al., IPSN 2018), built on
//!   transmission–acknowledgement pairs, channel hopping and noise detection
//!   ([`CrystalConfig`], [`CrystalRunner`]); hand-tuned, near-perfect
//!   reliability at a high energy cost.
//!
//! All baselines plug into the generic
//! [`RoundEngine`](dimmer_core::RoundEngine) as
//! [`Controller`](dimmer_core::Controller)s (the PI(D) controller and the
//! fixed-`N_TX` rule) or through the engine's epoch adapter (Crystal), so
//! the four systems are compared on exactly the same substrate with
//! identical accounting. The [`registry`] module exposes them — and Dimmer
//! itself — behind a fluent [`SimulationBuilder`] and the closed
//! [`PROTOCOLS`] table (`"dimmer-dqn"`, `"dimmer-rule"`, `"pid"`,
//! `"static"`, `"crystal"`, `"dimmer-zoo"`), which is what `exp`'s
//! `--protocols` flag and the daemon's `spec.protocols` resolve against.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod crystal;
pub mod pid;
pub mod registry;

pub use crystal::{CrystalConfig, CrystalControl, CrystalEpochReport, CrystalRunner};
pub use pid::PidController;
pub use registry::{SimulationBuilder, UnknownProtocolError, PROTOCOLS};

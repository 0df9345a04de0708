//! # dimmer-neural — a tiny neural-network stack for embedded deep Q-networks
//!
//! The paper implements its own "neuronal compute-system" rather than using an
//! existing framework, because the target platform (TelosB: 4 MHz 16-bit MSP430,
//! 10 kB RAM, no FPU) cannot run one. The DQN is trained offline in floating
//! point and then *quantized to fixed-point integers* with a scale factor of
//! 100 (two decimal digits), stored as 2-byte weights with 4-byte intermediate
//! accumulators — about 2.1 kB of flash and 400 B of RAM for the paper's
//! 31-30-3 architecture.
//!
//! This crate mirrors that split:
//!
//! * [`Mlp`] — a small fully-connected network with ReLU hidden layers,
//!   trained with plain SGD (used by `dimmer-rl`'s DQN trainer),
//! * [`QuantizedNetwork`] — the fixed-point inference engine
//!   ([`fixed::SCALE`] = 100, `i16` weights, `i32` accumulators) that the
//!   Dimmer coordinator executes at the end of every round,
//! * [`serialize`] — a dependency-free text format so a trained policy can be
//!   embedded in the protocol crate and shipped with the repository.
//!
//! ## Example
//!
//! ```
//! use dimmer_neural::{Mlp, QuantizedNetwork};
//! let mlp = Mlp::new(&[4, 8, 3], 42);
//! let q = QuantizedNetwork::from_mlp(&mlp);
//! let x = [0.3, -0.5, 1.0, 0.0];
//! let float_out = mlp.forward(&x);
//! let fixed_out = q.forward_f32(&x);
//! for (a, b) in float_out.iter().zip(&fixed_out) {
//!     assert!((a - b).abs() < 0.15, "quantization error should be small");
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod fixed;
pub mod mlp;
pub mod quantized;
pub mod serialize;

pub use fixed::{from_fixed, to_fixed, SCALE};
pub use mlp::{Activation, Mlp, MlpWorkspace};
pub use quantized::QuantizedNetwork;

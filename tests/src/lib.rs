//! Cross-crate integration-test helpers for the Dimmer reproduction.
//!
//! The actual tests live in `tests/tests/*.rs`; this library only hosts a few
//! shared helpers so the scenarios stay consistent across test files.

#![forbid(unsafe_code)]

pub mod equivalence;

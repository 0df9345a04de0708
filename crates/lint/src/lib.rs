//! `dimmer-lint` — workspace-wide determinism & hot-path static analysis.
//!
//! Every claim this repository makes rests on determinism: the flood
//! kernel is pinned byte-for-byte to its reference, static worlds are
//! pinned by golden digests, and harness JSON is byte-identical for any
//! `--threads`. Those invariants are enforced *dynamically* by the
//! equivalence suites — but nothing stops a future change from quietly
//! introducing a `HashMap` iteration, an entropy-seeded RNG, or a per-slot
//! allocation until a golden test flakes much later. This crate is the
//! static complement: a std-only analysis pass (no `syn`, no clippy
//! plugins — the build is offline) that walks the workspace and enforces
//! repo-specific invariants clippy cannot express.
//!
//! # Rule families
//!
//! | Family | Rules | What they protect |
//! |--------|-------|-------------------|
//! | **D** (determinism) | `D001`–`D004` | no `HashMap`/`HashSet`, no wall-clock, no `std::env`, no entropy RNGs in the simulation crates |
//! | **H** (hot path) | `H001`–`H002` | no allocation-shaped calls inside `// lint: hot-begin` … `// lint: hot-end` regions (the flood slot loop, `CompiledTopology::apply_event`, `RoundExecutor::run_round`) |
//! | **P** (panic hygiene) | `P001`–`P002` | no `unwrap`/`expect`/`panic!` in library crates outside tests |
//! | **S** (drift) | `S001`–`S005` | docs, `BENCH_*.json` reports, headline speedup claims and the daemon protocol track the code they describe |
//! | **L** (directive hygiene) | `L001`–`L002` | `// lint:` directives parse, and every `allow` earns its keep |
//!
//! The escape hatch is `// lint: allow(RULE) -- <reason>`; the reason is
//! mandatory and an allow that suppresses nothing is itself an error. See
//! the "Static analysis & determinism invariants" chapter of
//! ARCHITECTURE.md for the full catalogue and directive syntax.
//!
//! # Library surface
//!
//! The binary (`cargo run -p dimmer-lint -- --deny --workspace`) is a thin
//! shell over [`workspace::lint_workspace`]; fixture tests drive
//! [`rules::lint_source`] and [`drift::schema_problems`] directly.
//!
//! ```
//! use dimmer_lint::rules::{lint_source, ScopeFlags};
//! let bad = "fn f() { let t = std::time::Instant::now(); }";
//! let findings = lint_source("demo.rs", bad, ScopeFlags::all());
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "D002");
//! ```
#![deny(missing_docs)]

pub mod diag;
pub mod directives;
pub mod drift;
pub mod rules;
pub mod tokenizer;
pub mod workspace;

pub use diag::Finding;
pub use rules::{lint_source, ScopeFlags, RULES};
pub use workspace::lint_workspace;

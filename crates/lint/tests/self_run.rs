//! The linter's own acceptance gate: the shipped workspace must be clean.
//!
//! This is the same check CI runs via `cargo run -p dimmer-lint -- --deny
//! --workspace`, wired in as a test so `cargo test` alone catches a
//! regression (a fresh unwrap, an allocation creeping into a hot region, a
//! doc drifting from the `PROTOCOLS` list).

use dimmer_lint::lint_workspace;
use std::path::Path;

#[test]
fn live_workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root");
    let findings = lint_workspace(root).expect("workspace walk succeeds");
    assert!(
        findings.is_empty(),
        "dimmer-lint found {} problem(s) in the live workspace:\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

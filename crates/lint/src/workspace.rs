//! Workspace walking and crate→rule-family scoping.
//!
//! The scoping table is the policy heart of the tool:
//!
//! * **D-rules** run on the simulation/engine/bench crates — the code whose
//!   byte-for-byte determinism the equivalence suites pin — on the
//!   `dimmerd` daemon, whose served reports must be byte-identical to
//!   offline runs, on the `json` codec every report and wire message
//!   passes through, and on `rl`, whose training farm promises
//!   byte-identical curves and weights for any environment count
//!   (`tests/tests/training_farm.rs`). The neural/trace crates are
//!   deliberately out of D-scope for now (they read nothing ambient
//!   either, but they never run inside a pinned trial).
//! * **P-rules** run on every library crate (including `dimmer-lint`
//!   itself — the tool holds itself to its own hygiene), but not on
//!   `src/bin/` CLI entry points, which may terminate on bad input.
//! * **H- and L-rules** run everywhere a file is scanned at all: hot
//!   regions and allow directives are opt-in at the source level.
//!
//! Scanned roots: every `crates/<name>/src` tree plus the root umbrella
//! `src/`. Benches, examples, the integration-test crate and `vendor/` are
//! not scanned — they are test/bench-only code by construction.

use crate::diag::{sort_findings, Finding};
use crate::drift::lint_drift;
use crate::rules::{lint_source, ScopeFlags};
use std::path::{Path, PathBuf};

/// Crates whose non-test code must be deterministic (D-rules).
pub const D_CRATES: &[&str] = &[
    "sim",
    "glossy",
    "core",
    "lwb",
    "baselines",
    "rl",
    "bench",
    "dimmerd",
    "json",
];

/// Crates whose non-test library code must not panic (P-rules).
pub const P_CRATES: &[&str] = &[
    "sim",
    "glossy",
    "core",
    "lwb",
    "baselines",
    "neural",
    "rl",
    "traces",
    "bench",
    "lint",
    "dimmerd",
    "json",
];

/// The rule families that apply to a workspace-relative `.rs` path, or
/// `None` if the file is outside every scanned root.
///
/// # Examples
///
/// ```
/// use dimmer_lint::workspace::scope_for;
/// use std::path::Path;
/// let sim = scope_for(Path::new("crates/sim/src/rng.rs")).expect("scanned");
/// assert!(sim.determinism && sim.panic_hygiene);
/// // CLI binaries keep D-rules but may panic:
/// let bin = scope_for(Path::new("crates/bench/src/bin/exp.rs")).expect("scanned");
/// assert!(bin.determinism && !bin.panic_hygiene);
/// assert!(scope_for(Path::new("vendor/rand/src/lib.rs")).is_none());
/// ```
pub fn scope_for(rel: &Path) -> Option<ScopeFlags> {
    let parts: Vec<&str> = rel
        .components()
        .map(|c| c.as_os_str().to_str().unwrap_or(""))
        .collect();
    match parts.as_slice() {
        ["crates", krate, "src", rest @ ..] if !rest.is_empty() => {
            let is_bin = rest.first() == Some(&"bin");
            Some(ScopeFlags {
                determinism: D_CRATES.contains(krate),
                panic_hygiene: P_CRATES.contains(krate) && !is_bin,
            })
        }
        // Root umbrella `src/lib.rs`: H/L only.
        ["src", rest @ ..] if !rest.is_empty() => Some(ScopeFlags::default()),
        _ => None,
    }
}

/// Recursively collects every `.rs` file under `dir`, sorted, as paths
/// relative to `root`.
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read directory {}: {e}", dir.display()))?;
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| e.to_string())?
                .to_path_buf();
            out.push(rel);
        }
    }
    Ok(())
}

/// Every workspace-relative `.rs` path the linter scans, sorted.
pub fn scanned_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(root, &src, &mut files)?;
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(root, &root_src, &mut files)?;
    }
    Ok(files)
}

/// Lints the whole workspace at `root`: every scanned file under its scope,
/// plus the drift (S) rules. Findings come back in stable sorted order.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    for rel in scanned_files(root)? {
        let Some(scope) = scope_for(&rel) else {
            continue;
        };
        let abs = root.join(&rel);
        let src = std::fs::read_to_string(&abs)
            .map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
        // Paths in findings use `/` regardless of host for stable output.
        let label = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        findings.extend(lint_source(&label, &src, scope));
    }
    findings.extend(lint_drift(root));
    sort_findings(&mut findings);
    Ok(findings)
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares a `[workspace]` — how the CLI finds the root when invoked from
/// a subdirectory.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoping_table_matches_the_policy() {
        let case = |p: &str| scope_for(Path::new(p));
        // Simulation crates: both families.
        for p in [
            "crates/sim/src/rng.rs",
            "crates/glossy/src/flood.rs",
            "crates/core/src/engine.rs",
            "crates/lwb/src/round.rs",
            "crates/baselines/src/registry.rs",
            "crates/bench/src/harness.rs",
            "crates/dimmerd/src/service.rs",
            "crates/rl/src/dqn.rs",
            "crates/rl/src/farm.rs",
            "crates/json/src/lib.rs",
        ] {
            let s = case(p).expect("scanned");
            assert!(s.determinism && s.panic_hygiene, "{p}");
        }
        // Library-only crates: P without D.
        for p in [
            "crates/neural/src/mlp.rs",
            "crates/traces/src/dataset.rs",
            "crates/lint/src/rules.rs",
        ] {
            let s = case(p).expect("scanned");
            assert!(!s.determinism && s.panic_hygiene, "{p}");
        }
        // Bench and daemon binaries: D without P.
        let b = case("crates/bench/src/bin/exp.rs").expect("scanned");
        assert!(b.determinism && !b.panic_hygiene);
        let d = case("crates/dimmerd/src/bin/dimmer_cli.rs").expect("scanned");
        assert!(d.determinism && !d.panic_hygiene);
        // Lint's own binary: neither family (H/L still run).
        let l = case("crates/lint/src/bin/x.rs").expect("scanned");
        assert!(!l.determinism && !l.panic_hygiene);
        // Umbrella src: H/L only.
        let u = case("src/lib.rs").expect("scanned");
        assert!(!u.determinism && !u.panic_hygiene);
        // Out of scope entirely.
        assert!(case("vendor/rand/src/lib.rs").is_none());
        assert!(case("tests/tests/engine_equivalence.rs").is_none());
        assert!(case("crates/bench/benches/flood.rs").is_none());
        assert!(case("examples/quickstart.rs").is_none());
    }

    #[test]
    fn find_root_walks_up_from_here() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("workspace root above the lint crate");
        assert!(root.join("crates/lint/Cargo.toml").is_file());
    }
}

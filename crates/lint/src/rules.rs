//! The code-rule engine: D (determinism), H (hot path), P (panic hygiene)
//! and L (directive hygiene) rules over a single file's token stream.
//!
//! Rules are deliberately *shape* matchers over tokens — `.unwrap()` is
//! "dot, ident `unwrap`, open paren" — which is exactly as much syntax as
//! the invariants need and keeps the tool std-only (no `syn`). The
//! tokenizer already guarantees that strings, chars and comments can never
//! fire a rule, and [`lint_source`] additionally skips every item gated
//! behind `#[cfg(test)]` / `#[test]`: the invariants protect *shipped*
//! code, not tests, which unwrap freely by design.
//!
//! Which families run on a given file is the caller's choice via
//! [`ScopeFlags`]; crate-to-family mapping lives in [`crate::workspace`].

use crate::diag::Finding;
use crate::directives::{extract, Directive};
use crate::tokenizer::{tokenize, Token, TokenKind};

/// One entry of the rule catalogue.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable id (`D001`, …) used in diagnostics and `allow(…)` directives.
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// One-line description for `--list-rules` and the docs.
    pub summary: &'static str,
}

/// The full rule catalogue, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "D001",
        name: "std-hash-collections",
        summary: "HashMap/HashSet iterate in RandomState order; use BTreeMap/BTreeSet or a Vec",
    },
    Rule {
        id: "D002",
        name: "wall-clock",
        summary: "Instant/SystemTime read the wall clock; derive time from SimTime/round counters",
    },
    Rule {
        id: "D003",
        name: "ambient-env",
        summary: "std::env reads make runs depend on the environment; thread config explicitly",
    },
    Rule {
        id: "D004",
        name: "entropy-rng",
        summary: "RNGs must be SimRng seeded via seed_from/split_seed/derive_seed, never entropy",
    },
    Rule {
        id: "H001",
        name: "hot-alloc",
        summary: "allocation-shaped call inside a `lint: hot-begin` region",
    },
    Rule {
        id: "H002",
        name: "hot-region",
        summary: "unbalanced or nested `lint: hot-begin`/`hot-end` markers",
    },
    Rule {
        id: "P001",
        name: "panic-unwrap",
        summary: "unwrap()/expect() in library code; return an error or allow(P001) with a reason",
    },
    Rule {
        id: "P002",
        name: "panic-macro",
        summary: "panic!/todo!/unimplemented!/unreachable! in library code",
    },
    Rule {
        id: "S001",
        name: "readme-repro-drift",
        summary: "every catalogue grid must appear in the README reproduction docs",
    },
    Rule {
        id: "S002",
        name: "registry-doc-drift",
        summary: "every `PROTOCOLS` name must appear in README.md and ARCHITECTURE.md",
    },
    Rule {
        id: "S003",
        name: "bench-schema-drift",
        summary: "BENCH_*.json reports must match their declared schema",
    },
    Rule {
        id: "S004",
        name: "protocol-doc-drift",
        summary: "dimmerd protocol commands must appear in README.md and ARCHITECTURE.md",
    },
    Rule {
        id: "S005",
        name: "headline-claim-drift",
        summary: "headline speedup claims in the docs must match the recorded BENCH_*.json value",
    },
    Rule {
        id: "L001",
        name: "malformed-directive",
        summary: "unparseable `// lint:` directive (unknown verb/rule, or allow missing a reason)",
    },
    Rule {
        id: "L002",
        name: "unused-allow",
        summary: "an allow(...) directive that suppressed nothing; delete it",
    },
];

/// Whether `id` names a rule in the catalogue.
pub fn rule_exists(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Which opt-in rule families run on a file. Hot-region (H) and directive
/// hygiene (L) rules always run — regions and allows are themselves opt-in
/// at the source level.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScopeFlags {
    /// Run D-rules (determinism) on this file.
    pub determinism: bool,
    /// Run P-rules (panic hygiene) on this file.
    pub panic_hygiene: bool,
}

impl ScopeFlags {
    /// Every family on: what fixtures and single-file invocations use.
    pub fn all() -> Self {
        ScopeFlags {
            determinism: true,
            panic_hygiene: true,
        }
    }
}

/// An `allow` directive with the set of lines it covers and a use marker.
struct AllowEntry {
    rule: String,
    /// The directive's own line and the next line holding code (for the
    /// standalone-comment form). Trailing-comment allows have both equal.
    lines: [u32; 2],
    used: bool,
}

/// A `hot-begin`/`hot-end` pair; code on lines strictly between is hot.
struct HotRegion {
    begin_line: u32,
    end_line: u32,
}

/// Lints one file's source text under the given scope.
///
/// `path` is only used to label findings. Findings come back in token
/// order; workspace-level sorting happens in the caller.
///
/// # Examples
///
/// ```
/// use dimmer_lint::rules::{lint_source, ScopeFlags};
/// let findings = lint_source("x.rs", "fn f(o: Option<u8>) -> u8 { o.unwrap() }", ScopeFlags::all());
/// assert_eq!(findings.len(), 1);
/// assert_eq!(findings[0].rule, "P001");
/// // The same shape inside #[cfg(test)] is fine:
/// let gated = "#[cfg(test)] mod t { fn f(o: Option<u8>) -> u8 { o.unwrap() } }";
/// assert!(lint_source("x.rs", gated, ScopeFlags::all()).is_empty());
/// ```
pub fn lint_source(path: &str, src: &str, scope: ScopeFlags) -> Vec<Finding> {
    let tokens = tokenize(src);
    let mut findings = Vec::new();

    // Directives: allows, hot regions, and L001 for the malformed.
    let (directives, malformed) = extract(&tokens);
    for m in malformed {
        findings.push(Finding {
            path: path.to_string(),
            line: m.line,
            col: m.col,
            rule: "L001",
            message: m.problem,
        });
    }

    // Code tokens only (comments out), preserving positions.
    let code: Vec<Token<'_>> = tokens.iter().filter(|t| !t.is_comment()).copied().collect();

    let mut allows = build_allows(&directives, &code);
    let regions = build_regions(&directives, path, &mut findings);
    let skip = test_gated_mask(&code);

    scan_code(
        path,
        &code,
        &skip,
        scope,
        &regions,
        &mut allows,
        &mut findings,
    );

    // L002: allows that suppressed nothing.
    for a in &allows {
        if !a.used {
            findings.push(Finding {
                path: path.to_string(),
                line: a.lines[0],
                col: 1,
                rule: "L002",
                message: format!(
                    "allow({}) suppressed nothing on lines {} or {}; delete it",
                    a.rule, a.lines[0], a.lines[1]
                ),
            });
        }
    }
    findings
}

/// Resolves each allow to the pair of lines it covers.
fn build_allows(directives: &[Directive], code: &[Token<'_>]) -> Vec<AllowEntry> {
    directives
        .iter()
        .filter_map(|d| match d {
            Directive::Allow { rule, line } => {
                // Standalone form: the next line that holds any code token.
                let next = code
                    .iter()
                    .map(|t| t.line)
                    .find(|&l| l > *line)
                    .unwrap_or(*line);
                Some(AllowEntry {
                    rule: rule.clone(),
                    lines: [*line, next],
                    used: false,
                })
            }
            _ => None,
        })
        .collect()
}

/// Pairs hot markers into regions, reporting imbalance as H002.
fn build_regions(
    directives: &[Directive],
    path: &str,
    findings: &mut Vec<Finding>,
) -> Vec<HotRegion> {
    let mut regions = Vec::new();
    let mut open: Option<u32> = None;
    for d in directives {
        match d {
            Directive::HotBegin { line } => {
                if let Some(b) = open {
                    findings.push(Finding {
                        path: path.to_string(),
                        line: *line,
                        col: 1,
                        rule: "H002",
                        message: format!("nested hot-begin (region already open since line {b})"),
                    });
                } else {
                    open = Some(*line);
                }
            }
            Directive::HotEnd { line } => match open.take() {
                Some(begin_line) => regions.push(HotRegion {
                    begin_line,
                    end_line: *line,
                }),
                None => findings.push(Finding {
                    path: path.to_string(),
                    line: *line,
                    col: 1,
                    rule: "H002",
                    message: "hot-end without a matching hot-begin".to_string(),
                }),
            },
            Directive::Allow { .. } => {}
        }
    }
    if let Some(b) = open {
        findings.push(Finding {
            path: path.to_string(),
            line: b,
            col: 1,
            rule: "H002",
            message: "hot-begin never closed before end of file".to_string(),
        });
    }
    regions
}

/// The set of source lines whose code tokens are test-gated. The drift
/// rules use this to ignore test-only artifacts (e.g. throwaway registry
/// registrations) without re-exposing the engine's token internals.
pub fn test_gated_lines(src: &str) -> std::collections::BTreeSet<u32> {
    let tokens = tokenize(src);
    let code: Vec<Token<'_>> = tokens.iter().filter(|t| !t.is_comment()).copied().collect();
    let skip = test_gated_mask(&code);
    code.iter()
        .zip(&skip)
        .filter(|(_, s)| **s)
        .map(|(t, _)| t.line)
        .collect()
}

/// Marks every code token inside a `#[cfg(test)]`- or `#[test]`-gated item.
fn test_gated_mask(code: &[Token<'_>]) -> Vec<bool> {
    let mut skip = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if !(code[i].is_punct("#") && code.get(i + 1).is_some_and(|t| t.is_punct("["))) {
            i += 1;
            continue;
        }
        let (after, gated) = parse_attribute(code, i + 2);
        if !gated {
            i = after;
            continue;
        }
        // Swallow any further attributes on the same item
        // (`#[test] #[should_panic] fn …`).
        let mut j = after;
        while code.get(j).is_some_and(|t| t.is_punct("#"))
            && code.get(j + 1).is_some_and(|t| t.is_punct("["))
        {
            let (a, _) = parse_attribute(code, j + 2);
            j = a;
        }
        let end = item_end(code, j);
        for s in skip.iter_mut().take(end).skip(i) {
            *s = true;
        }
        i = end;
    }
    skip
}

/// From the first token after `#[`, returns (index after the closing `]`,
/// whether the attribute gates the item behind tests).
///
/// Test-gating attributes: `#[test]`, and `#[cfg(…)]` whose argument
/// mentions `test` without a leading `not` (`#[cfg(not(test))]` compiles
/// the item into shipped code, so it is *not* gated).
fn parse_attribute(code: &[Token<'_>], start: usize) -> (usize, bool) {
    let mut depth = 1usize; // the `[` already consumed
    let mut content = Vec::new();
    let mut i = start;
    while i < code.len() {
        let t = &code[i];
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                i += 1;
                break;
            }
        }
        content.push(*t);
        i += 1;
    }
    let idents: Vec<&str> = content
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text)
        .collect();
    let gated = match idents.first() {
        Some(&"test") => content.len() == 1,
        Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
        _ => false,
    };
    (i, gated)
}

/// From the first token of an item (past its attributes), returns the index
/// one past the item's end: the matching `}` of its first brace block, or a
/// top-level `;` for braceless items (`use …;`, `struct S;`).
fn item_end(code: &[Token<'_>], start: usize) -> usize {
    let mut depth = 0usize;
    let mut i = start;
    while i < code.len() {
        let t = &code[i];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i + 1;
            }
        } else if t.is_punct(";") && depth == 0 {
            return i + 1;
        }
        i += 1;
    }
    code.len()
}

/// Methods whose call allocates (or may allocate) — denied in hot regions.
const HOT_METHODS: &[&str] = &["clone", "to_vec", "to_owned", "to_string", "collect"];
/// `Type::ctor` pairs that allocate — denied in hot regions.
const HOT_TYPES: &[&str] = &["Vec", "Box", "String"];
const HOT_CTORS: &[&str] = &["new", "from", "with_capacity"];
/// Macros that allocate — denied in hot regions.
const HOT_MACROS: &[&str] = &["format", "vec"];
/// Entropy-based RNG constructors and randomly-seeded std types.
const ENTROPY_IDENTS: &[&str] = &[
    "from_entropy",
    "thread_rng",
    "ThreadRng",
    "OsRng",
    "RandomState",
    "DefaultHasher",
    "getrandom",
];
/// `std::env` accessors matched in the bare `env::…` form.
const ENV_READS: &[&str] = &["var", "vars", "var_os", "args", "args_os", "current_dir"];

/// The token-shape scan proper.
#[allow(clippy::too_many_arguments)]
fn scan_code(
    path: &str,
    code: &[Token<'_>],
    skip: &[bool],
    scope: ScopeFlags,
    regions: &[HotRegion],
    allows: &mut [AllowEntry],
    findings: &mut Vec<Finding>,
) {
    let in_hot = |line: u32| {
        regions
            .iter()
            .any(|r| line > r.begin_line && line < r.end_line)
    };
    let mut emit = |tok: &Token<'_>, rule: &'static str, message: String| {
        // An allow for this rule covering this line suppresses the finding.
        // Of overlapping candidates (consecutive trailing allows each cover
        // their own line plus the next code line), the nearest one wins, so
        // each allow in a run of annotated lines gets credited as used.
        if let Some(a) = allows
            .iter_mut()
            .filter(|a| a.rule == rule && a.lines.contains(&tok.line))
            .max_by_key(|a| a.lines[0])
        {
            a.used = true;
            return;
        }
        findings.push(Finding {
            path: path.to_string(),
            line: tok.line,
            col: tok.col,
            rule,
            message,
        });
    };

    for i in 0..code.len() {
        if skip[i] {
            continue;
        }
        let t = &code[i];
        let prev = i.checked_sub(1).map(|p| &code[p]);
        let next = code.get(i + 1);
        let next2 = code.get(i + 2);

        if scope.determinism {
            // D001: std hash collections.
            if t.is_ident("HashMap") || t.is_ident("HashSet") {
                emit(
                    t,
                    "D001",
                    format!(
                        "{} iterates in RandomState order; use BTreeMap/BTreeSet or a Vec",
                        t.text
                    ),
                );
            }
            // D002: wall-clock reads.
            if t.is_ident("Instant") || t.is_ident("SystemTime") {
                emit(
                    t,
                    "D002",
                    format!(
                        "{} reads the wall clock; derive time from SimTime/round counters",
                        t.text
                    ),
                );
            }
            // D003: ambient environment reads. Two shapes: the `std::env`
            // path itself, and `env::<read>()` through a `use std::env`.
            if t.is_ident("std")
                && next.is_some_and(|n| n.is_punct("::"))
                && next2.is_some_and(|n| n.is_ident("env"))
            {
                emit(
                    t,
                    "D003",
                    "std::env read: runs must not depend on ambient environment".to_string(),
                );
            } else if t.is_ident("env")
                && next.is_some_and(|n| n.is_punct("::"))
                && next2.is_some_and(|n| n.kind == TokenKind::Ident && ENV_READS.contains(&n.text))
                && !prev.is_some_and(|p| p.is_punct("::"))
            {
                emit(
                    t,
                    "D003",
                    format!(
                        "env::{} read: runs must not depend on ambient environment",
                        next2.map_or("?", |n| n.text)
                    ),
                );
            }
            // D004: entropy-seeded RNG construction.
            if t.kind == TokenKind::Ident && ENTROPY_IDENTS.contains(&t.text) {
                emit(
                    t,
                    "D004",
                    format!(
                        "{}: construct RNGs only via SimRng::seed_from/split_seed/derive_seed",
                        t.text
                    ),
                );
            }
        }

        if scope.panic_hygiene {
            // P001: `.unwrap()` / `.expect(`.
            if prev.is_some_and(|p| p.is_punct("."))
                && (t.is_ident("unwrap") || t.is_ident("expect"))
                && next.is_some_and(|n| n.is_punct("("))
            {
                emit(
                    t,
                    "P001",
                    format!(
                        ".{}() in library code; return an error or allow(P001) with a reason",
                        t.text
                    ),
                );
            }
            // P002: panicking macros.
            if t.kind == TokenKind::Ident
                && ["panic", "todo", "unimplemented", "unreachable"].contains(&t.text)
                && next.is_some_and(|n| n.is_punct("!"))
            {
                emit(
                    t,
                    "P002",
                    format!("{}! in library code; return an error instead", t.text),
                );
            }
        }

        // H001: allocation shapes inside a hot region (always scanned —
        // regions are opt-in at the source level).
        if in_hot(t.line) {
            if prev.is_some_and(|p| p.is_punct("."))
                && t.kind == TokenKind::Ident
                && HOT_METHODS.contains(&t.text)
                && next.is_some_and(|n| n.is_punct("("))
            {
                emit(
                    t,
                    "H001",
                    format!(".{}() allocates inside a hot region", t.text),
                );
            }
            if t.kind == TokenKind::Ident
                && HOT_TYPES.contains(&t.text)
                && next.is_some_and(|n| n.is_punct("::"))
                && next2.is_some_and(|n| n.kind == TokenKind::Ident && HOT_CTORS.contains(&n.text))
                && code.get(i + 3).is_some_and(|n| n.is_punct("("))
            {
                emit(
                    t,
                    "H001",
                    format!(
                        "{}::{}() allocates inside a hot region",
                        t.text,
                        next2.map_or("?", |n| n.text)
                    ),
                );
            }
            if t.kind == TokenKind::Ident
                && HOT_MACROS.contains(&t.text)
                && next.is_some_and(|n| n.is_punct("!"))
            {
                emit(
                    t,
                    "H001",
                    format!("{}! allocates inside a hot region", t.text),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(src: &str) -> Vec<&'static str> {
        lint_source("t.rs", src, ScopeFlags::all())
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn d001_fires_on_hash_collections_only_in_code() {
        assert_eq!(rules_of("use std::collections::HashMap;"), vec!["D001"]);
        assert_eq!(rules_of("let s: HashSet<u8> = x;"), vec!["D001"]);
        assert!(rules_of("// HashMap in a comment\nlet s = \"HashMap\";").is_empty());
    }

    #[test]
    fn d002_fires_on_clock_reads() {
        assert_eq!(rules_of("let t = Instant::now();"), vec!["D002"]);
        assert_eq!(rules_of("use std::time::SystemTime;"), vec!["D002"]);
        assert!(rules_of("let t = SimTime::ZERO;").is_empty());
    }

    #[test]
    fn d003_fires_on_env_reads_once() {
        assert_eq!(rules_of("let p = std::env::var(\"X\");"), vec!["D003"]);
        assert_eq!(rules_of("let a = env::args();"), vec!["D003"]);
        // `env` as a field/var name does not fire.
        assert!(rules_of("let env = 3; touch(env);").is_empty());
    }

    #[test]
    fn d004_fires_on_entropy() {
        assert_eq!(rules_of("let r = StdRng::from_entropy();"), vec!["D004"]);
        assert_eq!(rules_of("let r = rand::thread_rng();"), vec!["D004"]);
        assert!(rules_of("let r = SimRng::seed_from(7);").is_empty());
    }

    #[test]
    fn p001_fires_on_unwrap_and_expect_calls_only() {
        assert_eq!(rules_of("x.unwrap();"), vec!["P001"]);
        assert_eq!(rules_of("x.expect(\"m\");"), vec!["P001"]);
        // Non-panicking relatives stay silent.
        assert!(rules_of("x.unwrap_or(3); x.unwrap_or_else(f); x.unwrap_or_default();").is_empty());
    }

    #[test]
    fn p002_fires_on_panicking_macros() {
        assert_eq!(rules_of("panic!(\"boom\");"), vec!["P002"]);
        assert_eq!(rules_of("todo!()"), vec!["P002"]);
        assert_eq!(rules_of("unreachable!()"), vec!["P002"]);
        // assert! and should_panic are fine.
        assert!(rules_of("assert!(x); debug_assert_eq!(a, b);").is_empty());
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n  fn f() { x.unwrap(); panic!(); }\n}\nfn g() { y.unwrap(); }";
        assert_eq!(rules_of(src), vec!["P001"]);
        let f = &lint_source("t.rs", src, ScopeFlags::all())[0];
        assert_eq!(f.line, 5);
    }

    #[test]
    fn consecutive_trailing_allows_all_count_as_used() {
        // Each trailing allow also covers the next code line; the nearest
        // allow must win or the second one is falsely flagged L002.
        let src = "fn f() {\n  a.unwrap(); // lint: allow(P001) -- fine\n  b.unwrap(); // lint: allow(P001) -- fine\n}";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn test_fn_with_extra_attributes_is_skipped() {
        let src = "#[test]\n#[should_panic(expected = \"x\")]\nfn f() { x.unwrap(); }";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_skipped() {
        assert_eq!(
            rules_of("#[cfg(not(test))]\nfn f() { x.unwrap(); }"),
            vec!["P001"]
        );
    }

    #[test]
    fn hot_region_denies_alloc_shapes() {
        let src = "// lint: hot-begin\nlet v = Vec::new();\nlet c = x.clone();\nlet s = format!(\"x\");\n// lint: hot-end\nlet after = y.clone();";
        assert_eq!(rules_of(src), vec!["H001", "H001", "H001"]);
    }

    #[test]
    fn hot_region_markers_must_balance() {
        assert_eq!(rules_of("// lint: hot-begin\nx();"), vec!["H002"]);
        assert_eq!(rules_of("x();\n// lint: hot-end"), vec!["H002"]);
        assert_eq!(
            rules_of("// lint: hot-begin\n// lint: hot-begin\n// lint: hot-end"),
            vec!["H002"]
        );
    }

    #[test]
    fn allow_suppresses_on_same_line_and_next_line() {
        assert!(rules_of("x.unwrap(); // lint: allow(P001) -- checked above").is_empty());
        assert!(rules_of("// lint: allow(P001) -- checked above\nx.unwrap();").is_empty());
        // …but not two lines down: the unwrap fires and the allow is stale.
        let mut rules =
            rules_of("// lint: allow(P001) -- checked above\n\nlet ok = 1;\nx.unwrap();");
        rules.sort_unstable();
        assert_eq!(rules, vec!["L002", "P001"]);
    }

    #[test]
    fn unused_allow_is_reported() {
        assert_eq!(
            rules_of("// lint: allow(P001) -- stale\nlet x = 1;"),
            vec!["L002"]
        );
    }

    #[test]
    fn malformed_directive_is_l001() {
        assert_eq!(
            rules_of("// lint: allow(P001)\nx.unwrap();"),
            vec!["L001", "P001"]
        );
    }

    #[test]
    fn scope_flags_gate_families() {
        let d_only = ScopeFlags {
            determinism: true,
            panic_hygiene: false,
        };
        let src = "use std::collections::HashMap;\nx.unwrap();";
        let rules: Vec<_> = lint_source("t.rs", src, d_only)
            .into_iter()
            .map(|f| f.rule)
            .collect();
        assert_eq!(rules, vec!["D001"]);
    }

    #[test]
    fn findings_carry_positions() {
        let f = &lint_source("t.rs", "fn f() {\n    x.unwrap();\n}", ScopeFlags::all())[0];
        assert_eq!((f.line, f.col), (2, 7));
        assert_eq!(f.render(), format!("t.rs:2:7 [P001] {}", f.message));
    }
}

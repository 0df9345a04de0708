//! S-rules: drift checks between code artifacts and the documents that
//! describe them.
//!
//! Unlike the token rules, these are *workspace-level* — each check reads
//! several files and compares them:
//!
//! * **S001** — every grid named in the non-test `CATALOGUE` of
//!   `crates/bench/src/catalogue.rs` must be mentioned in `README.md` (the
//!   reproduction guide is the contract for how results are regenerated
//!   with `exp <grid>`; an undocumented grid is dead weight or missing
//!   docs). A parameterised family such as `dynamics:<preset>` counts as
//!   documented once its prefix `dynamics:` is.
//! * **S002** — every protocol name in the non-test `PROTOCOLS` list of
//!   `crates/baselines/src/registry.rs` must appear in both `README.md`
//!   and `ARCHITECTURE.md` (the list is the single source of protocol
//!   names for `--protocols`; docs must track it).
//! * **S003** — every `BENCH_*.json` at the workspace root must parse and
//!   match its declared schema (`suite` matching the filename, a non-empty
//!   `benchmarks` array of `{name, mean_ns, iters}`, and the suite's
//!   headline speedup field, positive).
//! * **S004** — every wire-protocol command in the `COMMANDS` list of
//!   `crates/dimmerd/src/proto.rs` must appear in both `README.md` and
//!   `ARCHITECTURE.md` (the daemon protocol is an external contract; an
//!   undocumented command is unusable, a documented-but-removed one is a
//!   broken promise).
//! * **S005** — every headline speedup claim in `README.md` /
//!   `ARCHITECTURE.md` (a `<headline_field>: <number>` phrase, e.g.
//!   `` `flood_kernel_speedup: 1.87` ``) must match the value recorded in
//!   the corresponding `BENCH_*.json` at the precision the doc states.
//!   Prose numbers went stale once (the docs kept quoting a speedup band
//!   from an earlier kernel); the recorded report is the single source of
//!   truth.

use crate::diag::Finding;
use crate::tokenizer::{tokenize, Token, TokenKind};
use dimmer_json::Json;
use std::path::Path;

/// Runs every S-rule against the workspace at `root`.
pub fn lint_drift(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    check_readme_repro(root, &mut findings);
    check_list_docs(
        root,
        "crates/baselines/src/registry.rs",
        "PROTOCOLS",
        "S002",
        "protocol",
        &mut findings,
    );
    check_bench_schemas(root, &mut findings);
    check_list_docs(
        root,
        "crates/dimmerd/src/proto.rs",
        "COMMANDS",
        "S004",
        "daemon protocol command",
        &mut findings,
    );
    check_headline_claims(root, &mut findings);
    findings
}

fn file_finding(path: &str, rule: &'static str, message: String) -> Finding {
    Finding {
        path: path.to_string(),
        line: 1,
        col: 1,
        rule,
        message,
    }
}

/// S001: every catalogue grid appears in README.md.
fn check_readme_repro(root: &Path, findings: &mut Vec<Finding>) {
    let catalogue_path = "crates/bench/src/catalogue.rs";
    let Ok(src) = std::fs::read_to_string(root.join(catalogue_path)) else {
        return; // no catalogue, nothing to check (fixture trees may omit it)
    };
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap_or_default();
    for (name, line) in catalogue_names(&src) {
        if !contains_word(&readme, &name) {
            findings.push(Finding {
                path: catalogue_path.to_string(),
                line,
                col: 1,
                rule: "S001",
                message: format!("grid `{name}` is not mentioned in README.md's reproduction docs"),
            });
        }
    }
}

/// Extracts `(name, line)` for every `name: "…"` field in the initializer
/// of the non-test `CATALOGUE` of the catalogue source. A parameterised
/// family (`dynamics:<preset>`) yields its prefix (`dynamics:`), the part
/// every member's name starts with.
pub fn catalogue_names(src: &str) -> Vec<(String, u32)> {
    item_tokens(src, "CATALOGUE")
        .windows(3)
        .filter(|w| w[0].is_ident("name") && w[1].is_punct(":") && w[2].kind == TokenKind::Str)
        .map(|w| {
            let name = w[2].text.trim_matches('"');
            let name = match name.split_once(':') {
                Some((family, _)) => format!("{family}:"),
                None => name.to_string(),
            };
            (name, w[2].line)
        })
        .collect()
}

/// S002 and S004: every entry of the non-test `const` list `list` in the
/// source at `path` (a `what`, for the message) appears in README.md and
/// ARCHITECTURE.md.
fn check_list_docs(
    root: &Path,
    path: &str,
    list: &str,
    rule: &'static str,
    what: &str,
    findings: &mut Vec<Finding>,
) {
    let Ok(src) = std::fs::read_to_string(root.join(path)) else {
        return; // fixture trees may omit the crate
    };
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap_or_default();
    let arch = std::fs::read_to_string(root.join("ARCHITECTURE.md")).unwrap_or_default();

    for (name, line) in const_list(&src, list) {
        for (doc, text) in [("README.md", &readme), ("ARCHITECTURE.md", &arch)] {
            if !contains_word(text, &name) {
                findings.push(Finding {
                    path: path.to_string(),
                    line,
                    col: 1,
                    rule,
                    message: format!("{what} `{name}` is not documented in {doc}"),
                });
            }
        }
    }
}

/// Extracts `(entry, line)` for every string literal in the initializer of
/// the non-test `const` list `name` (`PROTOCOLS`, `COMMANDS`).
///
/// A test-gated list (fixtures listing throwaway names) deliberately
/// doesn't count — only shipped names need documentation — and neither do
/// later uses of the name (error messages, dispatch loops).
pub fn const_list(src: &str, name: &str) -> Vec<(String, u32)> {
    item_tokens(src, name)
        .iter()
        .filter(|t| t.kind == TokenKind::Str)
        .map(|t| (t.text.trim_matches('"').to_string(), t.line))
        .collect()
}

/// The code tokens of every non-test `const` or `static` item called
/// `name` in `src`, from its name up to the `;` that ends it. The walk
/// tracks bracket depth: a type such as `[&str; 6]` and the catalogue
/// entries' builder closures hold `;`s of their own.
fn item_tokens<'s>(src: &'s str, name: &str) -> Vec<Token<'s>> {
    let code: Vec<_> = tokenize(src)
        .into_iter()
        .filter(|t| !t.is_comment())
        .collect();
    let gated = crate::rules::test_gated_lines(src);
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].is_ident(name)
            && i > 0
            && (code[i - 1].is_ident("static") || code[i - 1].is_ident("const"))
            && !gated.contains(&code[i].line)
        {
            let mut depth = 0usize;
            while i < code.len() && !(depth == 0 && code[i].is_punct(";")) {
                if ["(", "[", "{"].iter().any(|p| code[i].is_punct(p)) {
                    depth += 1;
                } else if [")", "]", "}"].iter().any(|p| code[i].is_punct(p)) {
                    depth = depth.saturating_sub(1);
                }
                out.push(code[i]);
                i += 1;
            }
        }
        i += 1;
    }
    out
}

/// Word-ish containment: `needle` present and not embedded in a larger
/// identifier (so `fig5` is not satisfied by `fig5-seeds`). A needle that
/// ends in punctuation, such as the family prefix `dynamics:`, may run
/// straight into what follows (`dynamics:churn-storm`).
fn contains_word(haystack: &str, needle: &str) -> bool {
    let is_word = |c: char| c.is_alphanumeric() || c == '_' || c == '-';
    let boundary = |c: Option<char>| c.is_none_or(|c| !is_word(c));
    let open_end = !needle.ends_with(is_word);
    let mut from = 0;
    while let Some(idx) = haystack[from..].find(needle) {
        let at = from + idx;
        let before = haystack[..at].chars().next_back();
        let after = haystack[at + needle.len()..].chars().next();
        if boundary(before) && (open_end || boundary(after)) {
            return true;
        }
        from = at + needle.len();
    }
    false
}

/// S003: `BENCH_*.json` files match their declared schema.
fn check_bench_schemas(root: &Path, findings: &mut Vec<Finding>) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    let mut reports: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    reports.sort_unstable();
    for file in reports {
        let suite = file
            .trim_start_matches("BENCH_")
            .trim_end_matches(".json")
            .to_string();
        let text = std::fs::read_to_string(root.join(&file)).unwrap_or_default();
        for problem in schema_problems(&suite, &text) {
            findings.push(file_finding(&file, "S003", problem));
        }
    }
}

/// Validates one report body against the schema its filename declares.
/// Returns every problem found (empty = conforming).
pub fn schema_problems(suite: &str, text: &str) -> Vec<String> {
    let headline = match suite {
        "flood" => "flood_kernel_speedup",
        "world" => "patch_speedup",
        other => {
            return vec![format!(
                "no declared schema for suite `{other}`; add one to dimmer-lint's S003 table"
            )]
        }
    };
    let doc = match dimmer_json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    let mut problems = Vec::new();
    match doc.get("suite").and_then(Json::as_str) {
        Some(s) if s == suite => {}
        Some(s) => problems.push(format!(
            "`suite` is \"{s}\" but the filename declares \"{suite}\""
        )),
        None => problems.push("missing string field `suite`".to_string()),
    }
    match doc.get("benchmarks").and_then(Json::as_arr) {
        Some([]) => problems.push("`benchmarks` array is empty".to_string()),
        Some(benches) => {
            for (i, b) in benches.iter().enumerate() {
                if b.get("name").and_then(Json::as_str).is_none() {
                    problems.push(format!("benchmarks[{i}] is missing string field `name`"));
                }
                for field in ["mean_ns", "iters"] {
                    if b.get(field).and_then(Json::as_f64).is_none() {
                        problems.push(format!(
                            "benchmarks[{i}] is missing numeric field `{field}`"
                        ));
                    }
                }
            }
        }
        None => problems.push("missing array field `benchmarks`".to_string()),
    }
    match doc.get(headline).and_then(Json::as_f64) {
        Some(v) if v > 0.0 => {}
        Some(v) => problems.push(format!("`{headline}` must be positive, got {v}")),
        None => problems.push(format!("missing numeric field `{headline}`")),
    }
    problems
}

/// The headline field each suite's report records (shared with S003).
const HEADLINES: &[(&str, &str)] = &[
    ("flood", "flood_kernel_speedup"),
    ("world", "patch_speedup"),
];

/// S005: headline speedup claims in the docs match the recorded value.
///
/// A *claim* is the headline field name followed by a number —
/// `flood_kernel_speedup: 1.87`, optionally wrapped in backticks or using
/// `=` — anywhere in README.md or ARCHITECTURE.md. The claim must equal
/// the recorded JSON value rounded to the precision the doc states, so
/// `1.87` accepts a recorded `1.8704` but a doc still quoting `2.05`
/// fails the moment the committed report moves.
fn check_headline_claims(root: &Path, findings: &mut Vec<Finding>) {
    for (suite, headline) in HEADLINES {
        let file = format!("BENCH_{suite}.json");
        let Ok(text) = std::fs::read_to_string(root.join(&file)) else {
            continue; // no report, nothing to cross-check
        };
        let Ok(doc) = dimmer_json::parse(&text) else {
            continue; // S003 already reports unparseable reports
        };
        let Some(recorded) = doc.get(headline).and_then(Json::as_f64) else {
            continue; // S003 already reports the missing headline field
        };
        for name in ["README.md", "ARCHITECTURE.md"] {
            let Ok(body) = std::fs::read_to_string(root.join(name)) else {
                continue;
            };
            for (line, stated) in headline_claims(&body, headline) {
                if !claim_matches(recorded, &stated) {
                    findings.push(Finding {
                        path: name.to_string(),
                        line,
                        col: 1,
                        rule: "S005",
                        message: format!(
                            "doc claims `{headline}: {stated}` but {file} records {recorded}"
                        ),
                    });
                }
            }
        }
    }
}

/// Extracts `(line, stated_number)` for every headline claim in a doc: an
/// occurrence of `field` followed (through optional backticks/spaces and a
/// `:` or `=`) by a decimal number. Mentions without a number — e.g. prose
/// explaining what the field *is* — are not claims.
pub fn headline_claims(body: &str, field: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (lineno, line) in body.lines().enumerate() {
        let mut from = 0;
        while let Some(idx) = line[from..].find(field) {
            let at = from + idx;
            from = at + field.len();
            let before = line[..at].chars().next_back();
            if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                continue; // embedded in a longer identifier
            }
            let rest = &line[at + field.len()..];
            let rest = rest.trim_start_matches(['`', ' ']);
            let Some(rest) = rest.strip_prefix([':', '=']) else {
                continue;
            };
            let rest = rest.trim_start_matches(['`', ' ']);
            let number: String = rest
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            if !number.is_empty() && number.chars().any(|c| c.is_ascii_digit()) {
                out.push((lineno as u32 + 1, number));
            }
        }
    }
    out
}

/// Whether the recorded value, rounded to the decimals the doc states,
/// reproduces the stated number exactly.
pub fn claim_matches(recorded: f64, stated: &str) -> bool {
    let decimals = stated
        .split_once('.')
        .map(|(_, frac)| frac.len())
        .unwrap_or(0);
    format!("{recorded:.decimals$}") == stated
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_list_reads_the_named_list_only() {
        let src = r#"
pub const COMMANDS: &[&str] = &["submit", "status", "result"];
pub const PROTOCOLS: [&str; 2] = [
    "dimmer-dqn",
    // "commented-out",
    "pid",
];
pub fn parse(line: &str) -> Result<Request, String> {
    let other = ["not-a-command"];
    let listed = COMMANDS.join(", ");
    Err("unknown".to_string())
}
#[cfg(test)]
mod tests {
    const COMMANDS: &[&str] = &["test-only"];
    const PROTOCOLS: [&str; 1] = ["static-5"];
}
"#;
        let names: Vec<String> = const_list(src, "PROTOCOLS")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["dimmer-dqn", "pid"]);
        assert_eq!(const_list(src, "PROTOCOLS")[1], ("pid".to_string(), 6));
    }

    #[test]
    fn protocol_commands_reads_the_commands_list_only() {
        let src = r#"
pub const COMMANDS: &[&str] = &["submit", "status", "result"];
pub fn parse(line: &str) -> Result<Request, String> {
    let other = ["not-a-command"];
    let listed = COMMANDS.join(", ");
    Err("unknown".to_string())
}
#[cfg(test)]
mod tests {
    const COMMANDS: &[&str] = &["test-only"];
}
"#;
        let names: Vec<String> = const_list(src, "COMMANDS")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["submit", "status", "result"]);
    }

    #[test]
    fn catalogue_names_reads_the_catalogue_only() {
        let src = r#"
struct GridEntry { name: &'static str }
static CATALOGUE: [GridEntry; 3] = [
    GridEntry { name: "fig5", build: |b| { let g = fig5(b); g } },
    // GridEntry { name: "commented-out" },
    GridEntry { name: "dynamics:<preset>", build: |b| dynamics(b) },
    GridEntry { name: "city", build: |_| city() },
];
fn other() -> Entry { Entry { name: "not-in-the-catalogue" } }
#[cfg(test)]
mod tests {
    static CATALOGUE: [GridEntry; 1] = [GridEntry { name: "test-only" }];
}
"#;
        let names: Vec<String> = catalogue_names(src).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["fig5", "dynamics:", "city"]);
    }

    #[test]
    fn contains_word_respects_boundaries() {
        assert!(contains_word("run `exp fig5` to reproduce", "fig5"));
        assert!(!contains_word("only fig5-seeds here", "fig5"));
        assert!(!contains_word("only fig5b here", "fig5"));
        assert!(contains_word("`exp dynamics:churn-storm`", "dynamics:"));
        assert!(!contains_word("nodynamics:churn-storm", "dynamics:"));
        assert!(contains_word("protocols: static,dimmer-dqn", "static"));
        assert!(!contains_word("statics everywhere", "static"));
        assert!(!contains_word("dimmer-dqn2", "dimmer-dqn"));
    }

    #[test]
    fn headline_claims_parses_only_numbered_mentions() {
        let body = "\
The kernel is `flood_kernel_speedup: 1.87` under jamming.\n\
Reading the JSON: `flood_kernel_speedup` is the headline field.\n\
Also stated as flood_kernel_speedup = 2.3 here.\n\
But not_flood_kernel_speedup: 9.9 is a different identifier.\n";
        let claims = headline_claims(body, "flood_kernel_speedup");
        assert_eq!(
            claims,
            vec![(1, "1.87".to_string()), (3, "2.3".to_string())]
        );
    }

    #[test]
    fn claim_matching_uses_the_stated_precision() {
        assert!(claim_matches(1.8704, "1.87"));
        assert!(claim_matches(1.87, "1.9"));
        assert!(claim_matches(2.0, "2"));
        assert!(!claim_matches(2.05, "1.87"));
        assert!(!claim_matches(1.87, "1.88"));
    }

    #[test]
    fn schema_accepts_a_conforming_flood_report() {
        let body = r#"{"suite":"flood","benchmarks":[{"name":"a","mean_ns":1.0,"iters":2}],"flood_kernel_speedup":2.5}"#;
        assert!(schema_problems("flood", body).is_empty());
    }

    #[test]
    fn schema_rejects_drifted_reports() {
        let wrong_suite = r#"{"suite":"world","benchmarks":[{"name":"a","mean_ns":1.0,"iters":2}],"flood_kernel_speedup":2.5}"#;
        assert!(schema_problems("flood", wrong_suite)
            .iter()
            .any(|p| p.contains("filename declares")));
        let empty = r#"{"suite":"flood","benchmarks":[],"flood_kernel_speedup":2.5}"#;
        assert!(schema_problems("flood", empty)
            .iter()
            .any(|p| p.contains("empty")));
        let no_headline =
            r#"{"suite":"world","benchmarks":[{"name":"a","mean_ns":1.0,"iters":2}]}"#;
        assert!(schema_problems("world", no_headline)
            .iter()
            .any(|p| p.contains("patch_speedup")));
        assert!(schema_problems("flood", "{oops")
            .iter()
            .any(|p| p.contains("not valid JSON")));
        assert!(!schema_problems("mystery", "{}").is_empty());
    }
}

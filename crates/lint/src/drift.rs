//! S-rules: drift checks between code artifacts and the documents that
//! describe them.
//!
//! Unlike the token rules, these are *workspace-level* — each check reads
//! several files and compares them:
//!
//! * **S001** — every `exp_*` binary under `crates/bench/src/bin/` must be
//!   mentioned in `README.md` (the reproduction guide is the contract for
//!   how results are regenerated; an undocumented binary is dead weight or
//!   missing docs).
//! * **S002** — every protocol name registered in the non-test code of
//!   `crates/baselines/src/registry.rs` must appear in both `README.md`
//!   and `ARCHITECTURE.md` (the registry is the single source of protocol
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
use crate::tokenizer::{tokenize, TokenKind};
use dimmer_json::Json;
use std::path::Path;

/// Runs every S-rule against the workspace at `root`.
pub fn lint_drift(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    check_readme_repro(root, &mut findings);
    check_registry_docs(root, &mut findings);
    check_bench_schemas(root, &mut findings);
    check_daemon_protocol_docs(root, &mut findings);
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

/// S001: every `exp_*` binary appears in README.md.
fn check_readme_repro(root: &Path, findings: &mut Vec<Finding>) {
    let bin_dir = root.join("crates/bench/src/bin");
    let Ok(entries) = std::fs::read_dir(&bin_dir) else {
        return; // no bin dir, nothing to check (fixture trees may omit it)
    };
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap_or_default();
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.strip_suffix(".rs").map(str::to_string)
        })
        .filter(|n| n.starts_with("exp_"))
        .collect();
    names.sort_unstable();
    for name in names {
        if !contains_word(&readme, &name) {
            findings.push(file_finding(
                &format!("crates/bench/src/bin/{name}.rs"),
                "S001",
                format!("binary `{name}` is not mentioned in README.md's reproduction docs"),
            ));
        }
    }
}

/// S002: registered protocol names appear in README.md and ARCHITECTURE.md.
fn check_registry_docs(root: &Path, findings: &mut Vec<Finding>) {
    let reg_path = "crates/baselines/src/registry.rs";
    let Ok(src) = std::fs::read_to_string(root.join(reg_path)) else {
        return;
    };
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap_or_default();
    let arch = std::fs::read_to_string(root.join("ARCHITECTURE.md")).unwrap_or_default();

    for (name, line) in registered_names(&src) {
        for (doc, text) in [("README.md", &readme), ("ARCHITECTURE.md", &arch)] {
            if !contains_word(text, &name) {
                findings.push(Finding {
                    path: reg_path.to_string(),
                    line,
                    col: 1,
                    rule: "S002",
                    message: format!("registry protocol `{name}` is not documented in {doc}"),
                });
            }
        }
    }
}

/// Extracts `(name, line)` for every `register("name", …)` call in the
/// non-test code of the registry source.
///
/// Test-gated registrations (fixtures registering throwaway protocols)
/// deliberately don't count — only shipped names need documentation.
pub fn registered_names(src: &str) -> Vec<(String, u32)> {
    let tokens = tokenize(src);
    let code: Vec<_> = tokens.iter().filter(|t| !t.is_comment()).collect();
    // Reuse the same test-gating logic as the code rules by line spans:
    // a simple rebuild here avoids exposing engine internals.
    let gated = crate::rules::test_gated_lines(src);
    let mut out = Vec::new();
    for i in 0..code.len() {
        if code[i].is_ident("register")
            && code.get(i + 1).is_some_and(|t| t.is_punct("("))
            && code.get(i + 2).is_some_and(|t| t.kind == TokenKind::Str)
            && !gated.contains(&code[i].line)
        {
            let quoted = code[i + 2].text;
            let name = quoted.trim_matches('"').to_string();
            out.push((name, code[i].line));
        }
    }
    out
}

/// S004: the daemon's wire-protocol commands appear in README.md and
/// ARCHITECTURE.md.
fn check_daemon_protocol_docs(root: &Path, findings: &mut Vec<Finding>) {
    let proto_path = "crates/dimmerd/src/proto.rs";
    let Ok(src) = std::fs::read_to_string(root.join(proto_path)) else {
        return; // no daemon crate (fixture trees may omit it)
    };
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap_or_default();
    let arch = std::fs::read_to_string(root.join("ARCHITECTURE.md")).unwrap_or_default();

    for (name, line) in protocol_commands(&src) {
        for (doc, text) in [("README.md", &readme), ("ARCHITECTURE.md", &arch)] {
            if !contains_word(text, &name) {
                findings.push(Finding {
                    path: proto_path.to_string(),
                    line,
                    col: 1,
                    rule: "S004",
                    message: format!("daemon protocol command `{name}` is not documented in {doc}"),
                });
            }
        }
    }
}

/// Extracts `(command, line)` for every string literal in the `COMMANDS`
/// array of the daemon's protocol source (non-test code only).
pub fn protocol_commands(src: &str) -> Vec<(String, u32)> {
    let tokens = tokenize(src);
    let code: Vec<_> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let gated = crate::rules::test_gated_lines(src);
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        // Only the `const COMMANDS` definition counts — later uses of the
        // ident (error messages, dispatch loops) are not the catalogue.
        if code[i].is_ident("COMMANDS")
            && i > 0
            && code[i - 1].is_ident("const")
            && !gated.contains(&code[i].line)
        {
            // Collect the string literals of the initializer, up to `;`.
            let mut j = i + 1;
            while j < code.len() && !code[j].is_punct(";") {
                if code[j].kind == TokenKind::Str {
                    let name = code[j].text.trim_matches('"').to_string();
                    out.push((name, code[j].line));
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }
    out
}

/// Word-ish containment: `needle` present and not embedded in a larger
/// identifier (so `exp_fig5` is not satisfied by `exp_fig5b`).
fn contains_word(haystack: &str, needle: &str) -> bool {
    let boundary =
        |c: Option<char>| c.is_none_or(|c| !(c.is_alphanumeric() || c == '_' || c == '-'));
    let mut from = 0;
    while let Some(idx) = haystack[from..].find(needle) {
        let at = from + idx;
        let before = haystack[..at].chars().next_back();
        let after = haystack[at + needle.len()..].chars().next();
        if boundary(before) && boundary(after) {
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
    fn registered_names_skips_tests_and_comments() {
        let src = r#"
fn defaults() {
    reg.register("dimmer-dqn", "x", build);
    reg.register(
        "pid",
        "y",
        build,
    );
}
// reg.register("commented-out", "x", build);
#[cfg(test)]
mod tests {
    fn t() { reg.register("static-5", "z", build); }
}
"#;
        let names: Vec<String> = registered_names(src).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["dimmer-dqn", "pid"]);
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
        let names: Vec<String> = protocol_commands(src).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["submit", "status", "result"]);
    }

    #[test]
    fn contains_word_respects_boundaries() {
        assert!(contains_word("run `exp_fig5` to reproduce", "exp_fig5"));
        assert!(!contains_word("only exp_fig5b here", "exp_fig5"));
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

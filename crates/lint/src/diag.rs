//! The diagnostic type shared by every rule family and its renderers.

use dimmer_json::Json;
use std::fmt;

/// One lint finding, pointing at a specific token (or file-level artifact).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path of the offending file, relative to the workspace root when
    /// produced by a workspace run.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Stable rule id (`D001`, `H001`, …).
    pub rule: &'static str,
    /// Human explanation; one sentence, actionable.
    pub message: String,
}

impl Finding {
    /// Renders the rustc-style single-line form:
    /// `path:line:col [RULE] message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{} [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }

    /// Renders the finding as a JSON object (used by `--json`).
    pub fn render_json(&self) -> String {
        Json::Obj(vec![
            ("path".to_string(), Json::Str(self.path.clone())),
            ("line".to_string(), Json::Int(self.line.into())),
            ("col".to_string(), Json::Int(self.col.into())),
            ("rule".to_string(), Json::Str(self.rule.to_string())),
            ("message".to_string(), Json::Str(self.message.clone())),
        ])
        .to_string()
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Sorts findings into the stable reporting order: path, line, col, rule.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_matches_rustc_shape() {
        let f = Finding {
            path: "crates/sim/src/rng.rs".into(),
            line: 10,
            col: 5,
            rule: "D001",
            message: "no".into(),
        };
        assert_eq!(f.render(), "crates/sim/src/rng.rs:10:5 [D001] no");
        assert_eq!(f.to_string(), f.render());
    }

    #[test]
    fn json_escapes_specials() {
        let f = Finding {
            path: "a\"b.rs".into(),
            line: 3,
            col: 4,
            rule: "P001",
            message: "x\\y\nz\u{1}".into(),
        };
        assert_eq!(
            f.render_json(),
            r#"{"path":"a\"b.rs","line":3,"col":4,"rule":"P001","message":"x\\y\nz\u0001"}"#
        );
    }

    #[test]
    fn sort_is_stable_over_all_keys() {
        let mk = |path: &str, line, col, rule: &'static str| Finding {
            path: path.into(),
            line,
            col,
            rule,
            message: String::new(),
        };
        let mut v = vec![
            mk("b.rs", 1, 1, "D001"),
            mk("a.rs", 2, 1, "P001"),
            mk("a.rs", 2, 1, "D001"),
            mk("a.rs", 1, 9, "H001"),
        ];
        sort_findings(&mut v);
        let order: Vec<_> = v.iter().map(|f| f.render()).collect();
        assert_eq!(
            order,
            vec![
                "a.rs:1:9 [H001] ",
                "a.rs:2:1 [D001] ",
                "a.rs:2:1 [P001] ",
                "b.rs:1:1 [D001] "
            ]
        );
    }
}

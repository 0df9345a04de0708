//! The daemon's wire protocol: newline-delimited JSON over TCP.
//!
//! Every request is one JSON object on one line with a `"cmd"` field
//! naming the command; every reply is one JSON object on one line with an
//! `"ok"` boolean. The commands (the [`COMMANDS`] list is what the
//! doc-drift lint checks README / ARCHITECTURE against):
//!
//! | command    | request fields           | reply                                                         |
//! |------------|--------------------------|---------------------------------------------------------------|
//! | `submit`   | `spec` (scenario object) | `job`, `state` (`queued` \| `done`)                           |
//! | `status`   | `job`                    | `state` (`queued`, `running`, `done`, `failed` or `expired`)  |
//! | `result`   | `job`                    | `report` (escaped report JSON), or `error: "expired"`         |
//! | `stats`    | —                        | counters (queue, jobs, memo, worlds)                          |
//! | `shutdown` | —                        | `state: "draining"`                                           |
//!
//! A full queue answers `submit` with `{"ok":false,"error":"busy"}` —
//! explicit load-shedding instead of unbounded buffering. The daemon keeps
//! a fixed window of finished jobs; an older id is `expired`, and an id
//! never handed out is an `unknown job`. A request or spec object that
//! names a key twice is refused with an error naming the key, since
//! `dimmer-json` keeps both entries and nothing says which one was meant.
//! Reports are multi-line pretty-printed JSON, so they travel as an
//! *escaped JSON string*; unescaping yields bytes identical to what the
//! same scenario writes through `--json` offline.

use std::collections::BTreeSet;
use std::fmt::Write;

use crate::json::{self, Json};
use crate::scenario::ScenarioSpec;

/// Every command the daemon understands, in documentation order.
///
/// The `dimmer-lint` S004 drift rule parses this list straight out of the
/// source and requires each name to appear in `README.md` and
/// `ARCHITECTURE.md`.
pub const COMMANDS: &[&str] = &["submit", "status", "result", "stats", "shutdown"];

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a scenario for execution.
    Submit(ScenarioSpec),
    /// Query the state of a job.
    Status {
        /// The job id returned by `submit`.
        job: u64,
    },
    /// Fetch the report of a completed job.
    Result {
        /// The job id returned by `submit`.
        job: u64,
    },
    /// Query service counters.
    Stats,
    /// Drain the queue, then stop the daemon.
    Shutdown,
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line)?;
    if let Json::Obj(fields) = &v {
        if let Some(key) = repeated_key(fields) {
            return Err(format!("request names \"{key}\" twice"));
        }
    }
    let cmd = v
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| "request needs a string \"cmd\" field".to_string())?;
    match cmd {
        "submit" => {
            let spec = v
                .get("spec")
                .ok_or_else(|| "submit needs a \"spec\" object".to_string())?;
            Ok(Request::Submit(ScenarioSpec::from_json(spec)?))
        }
        "status" => Ok(Request::Status { job: job_id(&v)? }),
        "result" => Ok(Request::Result { job: job_id(&v)? }),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown cmd '{other}' (commands: {})",
            COMMANDS.join(", ")
        )),
    }
}

/// The first key an object's `fields` name a second time, if any. A set,
/// not a pairwise scan: a 1 MiB line holds some 100 000 keys.
pub(crate) fn repeated_key(fields: &[(String, Json)]) -> Option<&str> {
    let mut seen = BTreeSet::new();
    fields
        .iter()
        .map(|(key, _)| key.as_str())
        .find(|key| !seen.insert(*key))
}

fn job_id(v: &Json) -> Result<u64, String> {
    v.get("job")
        .and_then(Json::as_u64)
        .ok_or_else(|| "expected a non-negative integer \"job\" field".to_string())
}

/// Builds the error reply `{"ok":false,"error":...}`.
pub fn error_reply(message: &str) -> String {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::Str(message.to_string())),
    ])
    .to_string()
}

/// Builds an ok reply with `fields` appended after `"ok":true`.
pub fn ok_reply(fields: Vec<(String, Json)>) -> String {
    let mut all = vec![("ok".to_string(), Json::Bool(true))];
    all.extend(fields);
    Json::Obj(all).to_string()
}

/// Builds the `result` reply `{"ok":true,"job":N,"report":"…"}`: the bytes
/// of [`ok_reply`] over a `Json::Str` of `report`, escaped straight into
/// one buffer presized for the framing newline as well.
pub fn result_reply(job: u64, report: &str) -> String {
    let escapes = report
        .bytes()
        .filter(|b| matches!(b, b'"' | b'\\' | b'\n'))
        .count();
    let mut reply = String::with_capacity(report.len() + escapes + 64);
    let _ = write!(reply, "{{\"ok\":true,\"job\":{job},\"report\":\"");
    json::escape_into(report, &mut reply);
    reply.push_str("\"}");
    reply
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        let r = parse_request(r#"{"cmd":"submit","spec":{"grid":"table1"}}"#).unwrap();
        assert!(matches!(r, Request::Submit(_)));
        assert_eq!(
            parse_request(r#"{"cmd":"status","job":7}"#).unwrap(),
            Request::Status { job: 7 }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"result","job":7}"#).unwrap(),
            Request::Result { job: 7 }
        );
        assert_eq!(parse_request(r#"{"cmd":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            parse_request(r#"{"cmd":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn rejects_unknown_and_malformed_requests() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"cmd":"flood"}"#)
            .unwrap_err()
            .contains("unknown cmd"));
        assert!(parse_request(r#"{"cmd":"submit"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"status","job":-1}"#).is_err());
        assert!(parse_request(r#"{"cmd":"status"}"#).is_err());
    }

    #[test]
    fn a_request_or_spec_that_names_a_key_twice_is_refused() {
        for (line, error) in [
            (
                r#"{"cmd":"status","job":1,"job":2}"#,
                r#"request names "job" twice"#,
            ),
            (
                r#"{"cmd":"stats","cmd":"stats"}"#,
                r#"request names "cmd" twice"#,
            ),
            // The key whose second mention comes first.
            (
                r#"{"cmd":"stats","a":1,"b":2,"b":3,"a":4}"#,
                r#"request names "b" twice"#,
            ),
            // A spec's own keys are checked when the spec is read.
            (
                r#"{"cmd":"submit","spec":{"grid":"fig5","trials":1,"trials":1000}}"#,
                r#"spec names "trials" twice"#,
            ),
        ] {
            assert_eq!(parse_request(line), Err(error.to_string()), "{line}");
        }
        // Among 100 000 distinct keys, a repeat of the first is found.
        let mut wide = String::from(r#"{"cmd":"stats""#);
        for k in 0..100_000 {
            wide.push_str(&format!(r#","k{k}":0"#));
        }
        wide.push_str(r#","k0":1}"#);
        assert_eq!(
            parse_request(&wide),
            Err(r#"request names "k0" twice"#.into())
        );
        // Keys that differ only in nesting are not repeats.
        assert!(
            parse_request(r#"{"cmd":"submit","spec":{"grid":"table1","cmd":1}}"#)
                .unwrap_err()
                .contains("unknown spec field 'cmd'")
        );
    }

    #[test]
    fn the_one_buffer_result_reply_equals_the_ok_reply_form() {
        let pretty = "{\n  \"grid\": \"fig5\",\n  \"path\": \"a\\\\b\"\n}";
        for (job, report) in [
            (1, pretty),
            (u64::MAX, "tab\there, return\r, bell\u{7}, é and \\\""),
            (7, ""),
        ] {
            let want = ok_reply(vec![
                ("job".to_string(), Json::Int(job)),
                ("report".to_string(), Json::Str(report.to_string())),
            ]);
            assert_eq!(result_reply(job, report), want);
        }
        let reply = result_reply(1, pretty);
        assert!(reply.capacity() > reply.len(), "no room for the newline");
    }

    #[test]
    fn a_request_needs_a_string_cmd() {
        for bad in ["{}", r#"{"cmd":7}"#, r#"["status"]"#] {
            let error = parse_request(bad).unwrap_err();
            assert!(error.contains("\"cmd\""), "{bad}: {error}");
        }
        assert_eq!(
            parse_request(r#"{"cmd":"flood"}"#),
            Err("unknown cmd 'flood' (commands: submit, status, result, stats, shutdown)".into())
        );
    }

    #[test]
    fn job_ids_are_exact_non_negative_integers() {
        assert_eq!(
            parse_request(r#"{"cmd":"status","job":18446744073709551615}"#),
            Ok(Request::Status { job: u64::MAX })
        );
        for bad in [
            r#"{"cmd":"result","job":1.5}"#,
            r#"{"cmd":"result","job":"7"}"#,
            r#"{"cmd":"status","job":null}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn replies_put_ok_first() {
        assert_eq!(ok_reply(vec![]), r#"{"ok":true}"#);
        assert_eq!(
            ok_reply(vec![
                ("job".to_string(), Json::Int(3)),
                ("state".to_string(), Json::Str("queued".to_string())),
            ]),
            r#"{"ok":true,"job":3,"state":"queued"}"#
        );
        assert_eq!(
            error_reply("bad \"spec\"\n"),
            r#"{"ok":false,"error":"bad \"spec\"\n"}"#
        );
    }

    #[test]
    fn a_result_reply_parses_back_to_the_report_bytes() {
        let report = "{\n  \"grid\": \"fig5\",\n  \"rows\": [1, 2]\n}\n";
        let reply = json::parse(&result_reply(9, report)).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(reply.get("job"), Some(&Json::Int(9)));
        assert_eq!(reply.get("report").and_then(Json::as_str), Some(report));
    }

    #[test]
    fn command_list_matches_the_parser() {
        for cmd in COMMANDS {
            let line = match *cmd {
                "submit" => r#"{"cmd":"submit","spec":{"grid":"table1"}}"#.to_string(),
                "status" | "result" => format!(r#"{{"cmd":"{cmd}","job":1}}"#),
                _ => format!(r#"{{"cmd":"{cmd}"}}"#),
            };
            assert!(parse_request(&line).is_ok(), "{cmd} must parse");
        }
    }
}

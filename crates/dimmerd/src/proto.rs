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
//! never handed out is an `unknown job`. Reports are multi-line
//! pretty-printed JSON, so they travel as an *escaped JSON string*;
//! unescaping yields bytes identical to what the same scenario writes
//! through `--json` offline.

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

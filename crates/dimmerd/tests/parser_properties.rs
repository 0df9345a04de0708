//! Property tests over the daemon's input boundary: whatever a client
//! sends, the parsers return a value instead of panicking, and the daemon
//! answers each line with exactly one reply line, the same one every time.

use dimmerd::json::{self, Json};
use dimmerd::{proto, Daemon, DaemonConfig};
use proptest::prelude::*;
use proptest::strategy::any;

/// Pieces of request lines: JSON's punctuation, number and escape
/// fragments, the protocol's keys and values, and a few awkward
/// characters, so random lines reach deep into the parsers.
#[rustfmt::skip]
const PIECES: &[&str] = &[
    "{", "}", "[", "]", ":", ",", "\"", "\\", "-", "+", ".", "e", "E", "0", "1", "7", "9", " ",
    "\t", "\n", "true", "false", "null", "\\u", "\\ud83d", "\\n", "\"cmd\"", "\"submit\"",
    "\"status\"", "\"result\"", "\"stats\"", "\"shutdown\"", "\"job\"", "\"spec\"", "\"grid\"",
    "\"fig5\"", "\"quick\"", "\"trials\"", "\"seed\"", "\"protocols\"", "\"static\"", "é",
    "\u{0}", "\u{7f}", "\u{1f600}",
];

/// Valid request lines, one per command and spec field.
const VALID_LINES: &[&str] = &[
    r#"{"cmd":"submit","spec":{"grid":"fig5","quick":true,"trials":2,"seed":7,"protocols":["static","pid"]}}"#,
    r#"{"cmd":"submit","spec":{"grid":"dynamics:churn-storm","quick":true}}"#,
    r#"{"cmd":"status","job":1}"#,
    r#"{"cmd":"result","job":18446744073709551615}"#,
    r#"{"cmd":"stats"}"#,
    r#"{"cmd":"shutdown"}"#,
];

/// Hostile lines that name a key twice, with that key: `dimmer-json` keeps
/// both entries, so the daemon refuses the line instead of picking one.
const REPEATED_KEY_LINES: &[(&str, &str)] = &[
    (
        r#"{"cmd":"submit","spec":{"grid":"fig5","trials":1,"trials":1000}}"#,
        "trials",
    ),
    (r#"{"cmd":"status","job":1,"job":2}"#, "job"),
];

/// A line of `picks`: an index below `PIECES.len()` takes that piece, any
/// other takes the character `code` names (or U+FFFD).
fn soup(picks: &[(usize, u32)]) -> String {
    picks
        .iter()
        .map(|&(pick, code)| match PIECES.get(pick) {
            Some(piece) => piece.to_string(),
            None => char::from_u32(code % 0x11_0000)
                .unwrap_or(char::REPLACEMENT_CHARACTER)
                .to_string(),
        })
        .collect()
}

/// A one-byte edit `(line, at, byte, edit)` of a valid line: in
/// `VALID_LINES[line]`, the byte at `at` is replaced by `byte` (`edit` 0),
/// gets `byte` inserted before it (1) or is deleted (2).
type Edit = (usize, usize, u8, u8);

/// The edited line as text, with any broken UTF-8 replaced.
fn mutate((line, at, byte, edit): Edit) -> String {
    let mut bytes = VALID_LINES[line].as_bytes().to_vec();
    let at = at % bytes.len();
    match edit {
        0 => bytes[at] = byte,
        1 => bytes.insert(at, byte),
        _ => {
            bytes.remove(at);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `handle_line` on a daemon with no executors: the reply is one JSON
/// object with an `"ok"` flag, on one line.
fn assert_one_reply_line(daemon: &Daemon, line: &str) {
    let (reply, _) = daemon.handle_line(line);
    assert!(
        !reply.is_empty() && !reply.contains('\n'),
        "{line:?} -> {reply:?}"
    );
    let reply = json::parse(&reply).expect("replies are JSON");
    assert!(
        matches!(reply.get("ok"), Some(Json::Bool(_))),
        "{line:?} -> {reply:?}"
    );
}

/// One random run of request lines: a soup line, then per edit the edited
/// line, its valid original and a repeated-key line, then `stats`.
fn request_lines(picks: &[(usize, u32)], edits: &[Edit]) -> Vec<String> {
    let mut lines = vec![soup(picks)];
    for &edit in edits {
        lines.push(mutate(edit));
        lines.push(VALID_LINES[edit.0].to_string());
        let (line, _) = REPEATED_KEY_LINES[edit.1 % REPEATED_KEY_LINES.len()];
        lines.push(line.to_string());
    }
    lines.push(r#"{"cmd":"stats"}"#.to_string());
    lines
}

fn daemon() -> Daemon {
    Daemon::new(DaemonConfig {
        queue_limit: 2,
        ..DaemonConfig::default()
    })
}

proptest! {
    #[test]
    fn the_parsers_never_panic(
        picks in collection::vec((0usize..PIECES.len() + 8, any::<u32>()), 0..48),
        edit in (0usize..VALID_LINES.len(), any::<usize>(), any::<u8>(), 0u8..3)
    ) {
        for line in [soup(&picks), mutate(edit)] {
            let parsed = json::parse(&line);
            // A request is a JSON object first, so the request parser can
            // accept only what the JSON parser accepts.
            if proto::parse_request(&line).is_ok() {
                prop_assert!(parsed.is_ok(), "{line:?}");
            }
        }
    }

    #[test]
    fn the_daemon_answers_every_line_with_one_reply_line(
        picks in collection::vec((0usize..PIECES.len() + 8, any::<u32>()), 0..48),
        edits in collection::vec((0usize..VALID_LINES.len(), any::<usize>(), any::<u8>(), 0u8..3), 1..8)
    ) {
        let daemon = daemon();
        for line in request_lines(&picks, &edits) {
            assert_one_reply_line(&daemon, &line);
        }
    }

    #[test]
    fn two_fresh_daemons_answer_the_same_lines_byte_for_byte_alike(
        picks in collection::vec((0usize..PIECES.len() + 8, any::<u32>()), 0..48),
        edits in collection::vec((0usize..VALID_LINES.len(), any::<usize>(), any::<u8>(), 0u8..3), 1..8)
    ) {
        let lines = request_lines(&picks, &edits);
        let replies = |daemon: Daemon| -> Vec<String> {
            lines.iter().map(|line| daemon.handle_line(line).0).collect()
        };
        prop_assert_eq!(replies(daemon()), replies(daemon()));
    }
}

#[test]
fn a_line_that_repeats_a_key_gets_one_error_reply_naming_it() {
    let daemon = daemon();
    for &(line, key) in REPEATED_KEY_LINES {
        let (reply, shutdown) = daemon.handle_line(line);
        assert!(!shutdown);
        let reply = json::parse(&reply).expect("replies are JSON");
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{line}");
        let error = reply.get("error").and_then(Json::as_str).unwrap_or("");
        assert!(
            error.contains(&format!("\"{key}\" twice")),
            "{line}: {error}"
        );
    }
    // Nothing was queued: the daemon still answers, with no job submitted.
    let (stats, _) = daemon.handle_line(r#"{"cmd":"stats"}"#);
    let stats = json::parse(&stats).expect("replies are JSON");
    assert_eq!(stats.get("submitted"), Some(&Json::Int(0)));
}

//! The `dimmer-cli` binary against a scripted daemon: `submit --wait`
//! stops polling once a job is neither queued nor running, and exits 1
//! with the daemon's error.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::Command;
use std::thread;

use dimmerd::json::{self, Json};

#[test]
fn submit_wait_exits_1_with_the_daemons_error_once_the_job_has_expired() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    // One request per connection, three connections; a client that polls
    // `status` again finds the listener closed.
    let daemon = thread::spawn(move || {
        let mut seen = Vec::new();
        for stream in listener.incoming().take(3) {
            let mut stream = stream.expect("accept");
            let mut line = String::new();
            BufReader::new(&stream)
                .read_line(&mut line)
                .expect("a request line");
            let request = json::parse(line.trim()).expect("requests are JSON");
            let cmd = request.get("cmd").and_then(Json::as_str).unwrap_or("");
            let reply = match cmd {
                "submit" => r#"{"ok":true,"job":7,"state":"queued"}"#,
                "status" => r#"{"ok":true,"job":7,"state":"expired"}"#,
                _ => r#"{"ok":false,"error":"expired"}"#,
            };
            stream.write_all(format!("{reply}\n").as_bytes()).unwrap();
            seen.push(cmd.to_string());
        }
        seen
    });
    let out = Command::new(env!("CARGO_BIN_EXE_dimmer-cli"))
        .args(["--addr", &addr, "submit", "--grid", "table1", "--wait"])
        .output()
        .expect("dimmer-cli starts");
    assert_eq!(daemon.join().unwrap(), ["submit", "status", "result"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stderr), "error: expired\n");
    assert!(out.stdout.is_empty(), "{out:?}");
}

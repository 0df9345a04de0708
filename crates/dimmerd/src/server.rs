//! TCP plumbing: newline-delimited request/reply framing over a listener.
//!
//! The accept loop polls a non-blocking listener so it can notice the
//! drain-complete flag after a `shutdown` request; each accepted
//! connection gets a plain thread reading one request line at a time and
//! writing one reply line back. A line longer than [`MAX_REQUEST_BYTES`]
//! gets an error reply as soon as the cap is exceeded, the rest of it is
//! skipped, and the connection keeps serving. All protocol logic lives in
//! [`Daemon`] — this module only moves bytes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use crate::service::Daemon;

/// How often the accept loop re-checks the stop flag.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// The longest request line the server buffers, in bytes (newline
/// excluded). Well-formed requests are a few hundred bytes.
pub const MAX_REQUEST_BYTES: u64 = 1 << 20;

/// Serves `daemon` on `listener` until a `shutdown` request has been
/// processed **and** the executor has drained the queue. Call with the
/// executor already spawned.
pub fn serve(daemon: &Daemon, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let daemon = daemon.clone();
                thread::spawn(move || handle_connection(&daemon, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if daemon.is_stopped() {
                    return Ok(());
                }
                thread::sleep(ACCEPT_POLL);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Reads request lines until EOF, answering each with one reply line.
fn handle_connection(daemon: &Daemon, stream: TcpStream) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        match (&mut reader)
            .take(MAX_REQUEST_BYTES + 1)
            .read_until(b'\n', &mut line)
        {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let over_cap = line.len() as u64 > MAX_REQUEST_BYTES && !line.ends_with(b"\n");
        let reply = if over_cap {
            crate::proto::error_reply(&format!(
                "request line longer than {MAX_REQUEST_BYTES} bytes"
            ))
        } else {
            let Ok(text) = std::str::from_utf8(&line) else {
                return;
            };
            let trimmed = text.trim();
            if trimmed.is_empty() {
                continue;
            }
            daemon.handle_line(trimmed).0
        };
        if writer
            .write_all(reply.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
        if over_cap && reader.skip_until(b'\n').is_err() {
            return;
        }
    }
}

//! TCP plumbing: newline-delimited request/reply framing over a listener.
//!
//! The accept loop blocks in `accept`; once a `shutdown` request has
//! drained the daemon, a waker thread connects to the listener's own
//! address so the loop wakes, sees the stop flag and returns. Each
//! accepted connection gets `TCP_NODELAY` and a plain thread reading one
//! request line at a time and writing one reply line back, reply and
//! newline in a single write. A line longer than [`MAX_REQUEST_BYTES`]
//! gets an error reply as soon as the cap is exceeded, the rest of it is
//! skipped, and the connection keeps serving; so does a line that is not
//! UTF-8. All protocol logic lives in [`Daemon`] — this module only moves
//! bytes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::thread;

use crate::proto::error_reply;
use crate::service::Daemon;

/// The longest request line the server buffers, in bytes (newline
/// excluded). Well-formed requests are a few hundred bytes.
pub const MAX_REQUEST_BYTES: u64 = 1 << 20;

/// Serves `daemon` on `listener` until a `shutdown` request has been
/// processed **and** the executor has drained the queue. Call with the
/// executor already spawned.
pub fn serve(daemon: &Daemon, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(false)?;
    let wake = wake_address(listener.local_addr()?);
    let waker = {
        let daemon = daemon.clone();
        thread::spawn(move || {
            daemon.wait_until_stopped();
            // Only the accept matters; a failed connect means the loop
            // has already returned.
            let _ = TcpStream::connect(wake);
        })
    };
    for stream in listener.incoming() {
        if daemon.is_stopped() {
            break;
        }
        // An accept error returns at once; the waker then exits by itself
        // at drain.
        let stream = stream?;
        let daemon = daemon.clone();
        thread::spawn(move || handle_connection(&daemon, stream));
    }
    // Closed first, so a waker that has not connected yet is refused at
    // once instead of queueing on the backlog.
    drop(listener);
    let _ = waker.join();
    Ok(())
}

/// Where the waker connects: the bound address, with an unspecified
/// host (`0.0.0.0`, `[::]`) replaced by loopback of the same family.
fn wake_address(mut bound: SocketAddr) -> SocketAddr {
    if bound.ip().is_unspecified() {
        bound.set_ip(match bound {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    bound
}

/// Reads request lines until EOF, answering each with one reply line.
fn handle_connection(daemon: &Daemon, stream: TcpStream) {
    // Best effort: without it the replies are the same, only later.
    let _ = stream.set_nodelay(true);
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
        let mut reply = if over_cap {
            error_reply(&format!(
                "request line longer than {MAX_REQUEST_BYTES} bytes"
            ))
        } else {
            match std::str::from_utf8(&line).map(str::trim) {
                Ok("") => continue,
                Ok(text) => daemon.handle_line(text).0,
                Err(_) => error_reply("request line is not UTF-8"),
            }
        };
        reply.push('\n');
        if writer.write_all(reply.as_bytes()).is_err() {
            return;
        }
        if over_cap && reader.skip_until(b'\n').is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_waker_reaches_an_unspecified_bind_through_loopback() {
        let wake = |bound: &str| wake_address(bound.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:7878"), "127.0.0.1:7878");
        assert_eq!(wake("[::]:7878"), "[::1]:7878");
        assert_eq!(wake("10.1.2.3:7878"), "10.1.2.3:7878");
        // A link-local bind keeps its scope, or the connect could not route.
        let scoped = std::net::SocketAddrV6::new("fe80::1".parse().unwrap(), 7878, 0, 2);
        assert_eq!(wake_address(scoped.into()), SocketAddr::V6(scoped));
    }
}

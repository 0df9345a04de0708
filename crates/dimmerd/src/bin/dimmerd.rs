//! The `dimmerd` daemon binary.
//!
//! ```text
//! cargo run --release -p dimmerd --bin dimmerd -- \
//!     [--addr HOST:PORT] [--queue N] [--threads N] [--workers N] [--memo-bytes N]
//! ```
//!
//! Binds the TCP listener, spawns the executor worker pool (`--workers N`,
//! default 1 — the count never changes report bytes), prints
//! `dimmerd listening on ADDR` (the readiness line scripts wait for) and
//! serves until a `shutdown` request has drained the queue.
//! `--threads N` (default 2) is how many threads run one job's trials,
//! the executor's own thread among them, so `--threads 1` runs them on the
//! executor; it never changes report bytes either.
//! `--memo-bytes N` (default 262144, 256 KiB) bounds every report byte
//! the daemon retains; a report larger than it fails its job.

use std::net::TcpListener;

use dimmerd::{server, Daemon, DaemonConfig};

fn main() {
    // lint: allow(D003) -- the one sanctioned ambient read: the CLI entry point; every knob is threaded explicitly from here
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = DaemonConfig::default();

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: usize| -> String {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("error: {flag} expects a value");
                std::process::exit(2);
            })
        };
        let number = |i: usize| -> usize {
            value(i).parse().unwrap_or_else(|_| {
                eprintln!("error: {flag} expects a number");
                std::process::exit(2);
            })
        };
        match flag {
            "--addr" => {
                addr = value(i);
                i += 2;
            }
            "--queue" => {
                config.queue_limit = number(i).max(1);
                i += 2;
            }
            "--threads" => {
                config.threads = number(i).max(1);
                i += 2;
            }
            "--workers" => {
                config.workers = number(i).max(1);
                i += 2;
            }
            "--memo-bytes" => {
                config.memo_budget_bytes = number(i);
                i += 2;
            }
            other => {
                eprintln!(
                    "error: unknown flag '{other}' (flags: --addr, --queue, --threads, --workers, --memo-bytes)"
                );
                std::process::exit(2);
            }
        }
    }

    let listener = TcpListener::bind(&addr).unwrap_or_else(|e| {
        eprintln!("error: cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    let bound = listener.local_addr().map(|a| a.to_string()).unwrap_or(addr);

    let daemon = Daemon::new(config);
    let executors = daemon.spawn_executors(config.workers);
    println!("dimmerd listening on {bound}");

    if let Err(e) = server::serve(&daemon, listener) {
        eprintln!("error: server failed: {e}");
        std::process::exit(1);
    }
    for executor in executors {
        if executor.join().is_err() {
            eprintln!("error: executor panicked");
            std::process::exit(1);
        }
    }
    println!("dimmerd drained, exiting");
}

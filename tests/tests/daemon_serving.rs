//! End-to-end checks of the `dimmerd` serving path: memoized results are
//! byte-identical to fresh runs, scenario hashes are stable across
//! equivalent spec constructions, the warm world cache serves the city
//! grid with the exact offline bytes, concurrent TCP clients each get
//! their deterministic report, and a round trip costs no TCP timer.

use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dimmer_bench::experiments::{city_scale_grid, dynamics_grid, protocol_list};
use dimmer_bench::harness::RunOptions;
use dimmer_bench::scenarios::dimmer_policy;
use dimmerd::json::{self, Json};
use dimmerd::{Daemon, DaemonConfig, ScenarioSpec, WorldCache};

fn daemon() -> Daemon {
    daemon_with_workers(1)
}

fn daemon_with_workers(workers: usize) -> Daemon {
    Daemon::new(DaemonConfig {
        queue_limit: 16,
        threads: 2,
        workers,
        memo_budget_bytes: 64 * 1024 * 1024,
    })
}

/// Sends one request line in-process and parses the reply.
fn ask(d: &Daemon, line: &str) -> Json {
    let (reply, _) = d.handle_line(line);
    json::parse(&reply).expect("daemon replies are valid JSON")
}

fn submit_and_wait(d: &Daemon, line: &str) -> (u64, String) {
    let reply = ask(d, line);
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "submit: {reply:?}"
    );
    let job = reply.get("job").and_then(Json::as_u64).expect("job id");
    d.wait_for_job(job);
    let result = ask(d, &format!(r#"{{"cmd":"result","job":{job}}}"#));
    assert_eq!(
        result.get("ok"),
        Some(&Json::Bool(true)),
        "result: {result:?}"
    );
    let report = result
        .get("report")
        .and_then(Json::as_str)
        .expect("report payload")
        .to_string();
    (job, report)
}

#[test]
fn memoized_result_is_byte_identical_to_a_fresh_run() {
    let d = daemon();
    let executor = d.spawn_executor();

    let (_, first) = submit_and_wait(&d, r#"{"cmd":"submit","spec":{"grid":"table1","seed":7}}"#);

    // The offline reference: the same spec built and run directly through
    // the shared grid runner.
    let spec = json::parse(r#"{"grid":"table1","seed":7}"#).unwrap();
    let spec = ScenarioSpec::from_json(&spec).unwrap();
    let offline = spec
        .build(&mut WorldCache::new())
        .unwrap()
        .run(&RunOptions {
            trials: spec.trials().unwrap(),
            threads: 1,
            seed: spec.resolved_seed().unwrap(),
        })
        .to_json();
    assert_eq!(first, offline, "served report != offline scheduler bytes");

    // Resubmission answers at submit time ("done") from the memo, with
    // the identical bytes.
    let again = ask(&d, r#"{"cmd":"submit","spec":{"grid":"table1","seed":7}}"#);
    assert_eq!(again.get("state").and_then(Json::as_str), Some("done"));
    let job = again.get("job").and_then(Json::as_u64).unwrap();
    let result = ask(&d, &format!(r#"{{"cmd":"result","job":{job}}}"#));
    let memoized = result.get("report").and_then(Json::as_str).unwrap();
    assert_eq!(
        memoized, first,
        "memoized report drifted from the fresh run"
    );

    let stats = ask(&d, r#"{"cmd":"stats"}"#);
    assert!(
        stats.get("memo_hits").and_then(Json::as_u64).unwrap() >= 1,
        "resubmission must count as a memo hit: {stats:?}"
    );

    ask(&d, r#"{"cmd":"shutdown"}"#);
    executor.join().unwrap();
}

#[test]
fn warm_world_city_report_matches_the_offline_grid_bytes() {
    let d = daemon();
    let executor = d.spawn_executor();

    // The daemon resolves `city --quick` to 8 floods, 4 trials, seed 500
    // over the warm world cache; the offline reference builds everything
    // cold. Bytes must agree exactly.
    let (_, served) = submit_and_wait(
        &d,
        r#"{"cmd":"submit","spec":{"grid":"city","quick":true}}"#,
    );
    let offline = city_scale_grid(8)
        .run(&RunOptions {
            trials: 4,
            threads: 2,
            seed: 500,
        })
        .to_json();
    assert_eq!(
        served, offline,
        "warm-cache city report != cold-built bytes"
    );

    // A second submission is a memo hit — and the worlds were only built
    // once (the whole point of the warm cache).
    submit_and_wait(
        &d,
        r#"{"cmd":"submit","spec":{"grid":"city","quick":true}}"#,
    );
    let stats = ask(&d, r#"{"cmd":"stats"}"#);
    assert_eq!(stats.get("world_misses").and_then(Json::as_u64), Some(1));
    assert!(stats.get("world_bytes").and_then(Json::as_u64).unwrap() > 0);

    ask(&d, r#"{"cmd":"shutdown"}"#);
    executor.join().unwrap();
}

#[test]
fn dynamics_serves_the_opt_in_zoo_with_the_offline_bytes() {
    let d = daemon();
    let executor = d.spawn_executor();

    // `dimmer-zoo` is opt-in on every dynamics grid, exactly as with
    // `exp dynamics:<preset> --protocols dimmer-zoo`.
    let (_, served) = submit_and_wait(
        &d,
        r#"{"cmd":"submit","spec":{"grid":"dynamics:churn-storm","quick":true,"protocols":["dimmer-zoo"]}}"#,
    );
    let protocols = protocol_list(&["dimmer-zoo"]);
    let offline = dynamics_grid(dimmer_policy(true), 60, "churn-storm", &protocols, None)
        .run(&RunOptions {
            trials: 1,
            threads: 1,
            seed: 11,
        })
        .to_json();
    assert_eq!(served, offline, "served zoo report != offline grid bytes");

    ask(&d, r#"{"cmd":"shutdown"}"#);
    executor.join().unwrap();
}

#[test]
fn four_worker_daemon_serves_the_single_worker_bytes_and_memo_hits() {
    // The reference daemon: one executor, a spread of specs.
    let single = daemon_with_workers(1);
    let single_exec = single.spawn_executors(1);
    let specs: Vec<String> = (1..=5)
        .map(|seed| format!(r#"{{"cmd":"submit","spec":{{"grid":"table1","seed":{seed}}}}}"#))
        .collect();
    let mut reference = Vec::new();
    for spec in &specs {
        let (_, report) = submit_and_wait(&single, spec);
        reference.push(report);
    }

    // The 4-worker pool executes the same specs concurrently; every
    // report must be byte-identical to the single-worker daemon's.
    let pool = daemon_with_workers(4);
    let pool_execs = pool.spawn_executors(4);
    let jobs: Vec<u64> = specs
        .iter()
        .map(|spec| {
            let reply = ask(&pool, spec);
            assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
            reply.get("job").and_then(Json::as_u64).expect("job id")
        })
        .collect();
    for (job, want) in jobs.iter().zip(&reference) {
        pool.wait_for_job(*job);
        let result = ask(&pool, &format!(r#"{{"cmd":"result","job":{job}}}"#));
        let report = result.get("report").and_then(Json::as_str).unwrap();
        assert_eq!(report, want, "job {job}: pool bytes drifted from 1-worker");
    }

    // Resubmitting the whole batch answers from the memo — same bytes,
    // one hit per spec, nothing recomputed.
    for (spec, want) in specs.iter().zip(&reference) {
        let again = ask(&pool, spec);
        assert_eq!(again.get("state").and_then(Json::as_str), Some("done"));
        let job = again.get("job").and_then(Json::as_u64).unwrap();
        let result = ask(&pool, &format!(r#"{{"cmd":"result","job":{job}}}"#));
        assert_eq!(
            result.get("report").and_then(Json::as_str),
            Some(want.as_str())
        );
    }
    let stats = ask(&pool, r#"{"cmd":"stats"}"#);
    assert_eq!(
        stats.get("memo_hits").and_then(Json::as_u64),
        Some(5),
        "each resubmission is one memo hit: {stats:?}"
    );
    assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(10));

    ask(&pool, r#"{"cmd":"shutdown"}"#);
    for handle in pool_execs {
        handle.join().unwrap();
    }
    assert!(pool.is_stopped());
    ask(&single, r#"{"cmd":"shutdown"}"#);
    for handle in single_exec {
        handle.join().unwrap();
    }
}

#[test]
fn scenario_hashes_are_stable_across_equivalent_constructions() {
    let parse = |line: &str| ScenarioSpec::from_json(&json::parse(line).unwrap()).unwrap();
    // Field order, explicit-default protocols and explicit-default trials
    // all canonicalize identically.
    let variants = [
        r#"{"grid":"fig7","quick":true}"#,
        r#"{"quick":true,"grid":"fig7"}"#,
        r#"{"grid":"fig7","quick":true,"trials":1}"#,
        r#"{"grid":"fig7","quick":true,"protocols":["static","dimmer-dqn","crystal"]}"#,
    ];
    let reference = parse(variants[0]).hash().unwrap();
    for v in &variants[1..] {
        assert_eq!(parse(v).hash().unwrap(), reference, "{v} must hash equal");
    }
    // Different grids, scales and selections must not collide pairwise.
    let distinct = [
        r#"{"grid":"fig7","quick":false}"#,
        r#"{"grid":"fig7","quick":true,"trials":2}"#,
        r#"{"grid":"fig7","quick":true,"protocols":["static"]}"#,
        r#"{"grid":"fig5","quick":true}"#,
        r#"{"grid":"city","quick":true}"#,
        r#"{"grid":"dynamics:churn-storm","quick":true}"#,
        r#"{"grid":"dynamics:roaming-jammer","quick":true}"#,
    ];
    let mut hashes = vec![reference];
    for v in &distinct {
        let h = parse(v).hash().unwrap();
        assert!(!hashes.contains(&h), "{v} collided with an earlier spec");
        hashes.push(h);
    }
}

/// One TCP request/reply round trip on a fresh connection, the request
/// and its newline sent in one write.
fn tcp_ask(addr: SocketAddr, line: &str) -> Json {
    let mut stream = TcpStream::connect(addr).expect("connect to test daemon");
    stream.set_nodelay(true).unwrap();
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    json::parse(reply.trim()).expect("daemon replies are valid JSON")
}

/// A daemon with one executor, served on `bind` by a `serve` thread.
struct Served {
    /// Where clients connect: loopback at the bound port.
    addr: SocketAddr,
    executor: JoinHandle<()>,
    server: JoinHandle<std::io::Result<()>>,
}

impl Served {
    fn start(bind: &str) -> Served {
        let listener = TcpListener::bind(bind).expect("bind ephemeral port");
        let port = listener.local_addr().unwrap().port();
        let d = daemon();
        let executor = d.spawn_executor();
        let server = std::thread::spawn(move || dimmerd::server::serve(&d, listener));
        Served {
            addr: SocketAddr::from((Ipv4Addr::LOCALHOST, port)),
            executor,
            server,
        }
    }

    /// Sends `shutdown`, then joins the executor and the `serve` thread.
    fn stop(self) {
        let bye = tcp_ask(self.addr, r#"{"cmd":"shutdown"}"#);
        assert_eq!(bye.get("state").and_then(Json::as_str), Some("draining"));
        self.executor.join().unwrap();
        self.server.join().unwrap().expect("server exits cleanly");
    }
}

/// One connection that sends raw bytes and reads reply lines, each read
/// bounded by a timeout so a missing reply fails instead of hanging.
struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    fn open(addr: SocketAddr) -> Connection {
        let stream = TcpStream::connect(addr).expect("connect to test daemon");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Connection {
            writer: stream.try_clone().expect("clone stream"),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).unwrap();
    }

    fn reply(&mut self) -> Json {
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .expect("a reply before the read timeout");
        json::parse(reply.trim()).expect("daemon replies are valid JSON")
    }
}

#[test]
fn an_over_long_request_line_is_refused_and_the_connection_keeps_serving() {
    use dimmerd::server::MAX_REQUEST_BYTES;
    let served = Served::start("127.0.0.1:0");
    let mut conn = Connection::open(served.addr);
    // A line of exactly the cap (newline excluded) is still served.
    let mut at_cap = br#"{"cmd":"stats"}"#.to_vec();
    at_cap.resize(MAX_REQUEST_BYTES as usize, b' ');
    at_cap.push(b'\n');
    conn.send(&at_cap);
    let at_cap = conn.reply();
    assert_eq!(at_cap.get("ok"), Some(&Json::Bool(true)), "{at_cap:?}");
    // One byte past the cap and no newline: the reply must not wait for one.
    conn.send(&vec![b'a'; MAX_REQUEST_BYTES as usize + 1]);
    let refused = conn.reply();
    assert_eq!(refused.get("ok"), Some(&Json::Bool(false)), "{refused:?}");
    // The rest of the long line is skipped; the next line is served.
    conn.send(b"aaaa\n{\"cmd\":\"stats\"}\n");
    let stats = conn.reply();
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)), "{stats:?}");

    served.stop();
}

#[test]
fn a_request_line_that_is_not_utf8_gets_an_error_reply_and_the_connection_keeps_serving() {
    let served = Served::start("127.0.0.1:0");
    let mut conn = Connection::open(served.addr);
    conn.send(b"{\"cmd\":\"st\xffats\"}\n{\"cmd\":\"stats\"}\n");
    let refused = conn.reply();
    assert_eq!(
        refused.get("error").and_then(Json::as_str),
        Some("request line is not UTF-8"),
        "{refused:?}"
    );
    let stats = conn.reply();
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)), "{stats:?}");
    served.stop();
}

#[test]
fn a_number_json_refuses_gets_exactly_one_error_reply_line() {
    let served = Served::start("127.0.0.1:0");
    let mut conn = Connection::open(served.addr);
    conn.send(b"{\"cmd\":\"status\",\"job\":007}\n{\"cmd\":\"stats\"}\n");
    let refused = conn.reply();
    assert_eq!(
        refused.get("error").and_then(Json::as_str),
        Some("invalid number at offset 22"),
        "{refused:?}"
    );
    // The next line's reply is the stats reply: the refused line got one.
    let stats = conn.reply();
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)), "{stats:?}");
    assert!(stats.get("queue_len").is_some(), "{stats:?}");
    served.stop();
}

#[test]
fn round_trips_on_one_connection_pay_no_nagle_stall() {
    // A reply written in two pieces without TCP_NODELAY waits out the
    // client's delayed ACK, about 40 ms per round trip.
    let served = Served::start("127.0.0.1:0");
    let mut conn = Connection::open(served.addr);
    let start = Instant::now();
    for _ in 0..100 {
        conn.send(b"{\"cmd\":\"stats\"}\n");
        assert_eq!(conn.reply().get("ok"), Some(&Json::Bool(true)));
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "100 round trips took {elapsed:?}"
    );
    served.stop();
}

#[test]
fn requests_on_fresh_connections_pay_no_accept_sleep() {
    // A polled accept loop adds its sleep to every fresh connection.
    let served = Served::start("127.0.0.1:0");
    let start = Instant::now();
    for _ in 0..20 {
        let stats = tcp_ask(served.addr, r#"{"cmd":"stats"}"#);
        assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(100),
        "20 fresh-connection requests took {elapsed:?}"
    );
    served.stop();
}

#[test]
fn a_daemon_bound_to_every_interface_shuts_down_and_its_serve_thread_joins() {
    let served = Served::start("0.0.0.0:0");
    let stats = tcp_ask(served.addr, r#"{"cmd":"stats"}"#);
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
    served.stop();
}

#[test]
fn concurrent_tcp_clients_each_get_their_deterministic_report() {
    let served = Served::start("127.0.0.1:0");
    let addr = served.addr;

    // Several clients submit the same grid at different seeds in
    // parallel; each must receive the report its seed determines.
    let seeds: Vec<u64> = (1..=4).collect();
    let clients: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            std::thread::spawn(move || {
                let submit = tcp_ask(
                    addr,
                    &format!(r#"{{"cmd":"submit","spec":{{"grid":"table1","seed":{seed}}}}}"#),
                );
                assert_eq!(submit.get("ok"), Some(&Json::Bool(true)), "{submit:?}");
                let job = submit.get("job").and_then(Json::as_u64).unwrap();
                loop {
                    let status = tcp_ask(addr, &format!(r#"{{"cmd":"status","job":{job}}}"#));
                    match status.get("state").and_then(Json::as_str) {
                        Some("done") | Some("failed") => break,
                        _ => std::thread::sleep(Duration::from_millis(20)),
                    }
                }
                let result = tcp_ask(addr, &format!(r#"{{"cmd":"result","job":{job}}}"#));
                assert_eq!(result.get("ok"), Some(&Json::Bool(true)), "{result:?}");
                (
                    seed,
                    result
                        .get("report")
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_string(),
                )
            })
        })
        .collect();

    for client in clients {
        let (seed, served) = client.join().expect("client thread");
        let spec = ScenarioSpec::from_json(
            &json::parse(&format!(r#"{{"grid":"table1","seed":{seed}}}"#)).unwrap(),
        )
        .unwrap();
        let offline = spec
            .build(&mut WorldCache::new())
            .unwrap()
            .run(&RunOptions {
                trials: 1,
                threads: 1,
                seed,
            })
            .to_json();
        assert_eq!(served, offline, "seed {seed}: served bytes drifted");
    }

    let stats = tcp_ask(addr, r#"{"cmd":"stats"}"#);
    assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(4));

    served.stop();
}
